import json

import numpy as np
import pytest

from airmia import classify, harness
from airmia.cli import OUT_DIR_ENV, dispatch, format_confusion
from airmia.mia import ConfusionMatrix
from airmia.scenarios import config_to_document
from conftest import small_config


@pytest.fixture()
def config_file(tmp_path):
    doc = config_to_document(small_config(seed=41))
    doc["out_dir"] = str(tmp_path / "out")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture(scope="module")
def tiny_cli_cell(tmp_path_factory):
    """One end-to-end CLI run at reduced counts (default training budget)."""
    out = tmp_path_factory.mktemp("cli_out")
    doc = config_to_document(small_config(seed=43))
    path = tmp_path_factory.mktemp("cli_cfg") / "config.json"
    path.write_text(json.dumps(doc))
    status = dispatch(["run", "--config", str(path), "--out", str(out)])
    assert status == 0
    return out / "full-strong" / "43"


class TestUsageErrors:
    def test_help_exits_zero(self, capsys):
        assert dispatch(["--help"]) == 0
        assert "run-all" in capsys.readouterr().out

    def test_no_arguments_is_usage_error(self, capsys):
        assert dispatch([]) == 2

    def test_unknown_subcommand(self, capsys):
        assert dispatch(["explode"]) == 2

    def test_unknown_flag(self, capsys):
        assert dispatch(["run", "--frobnicate"]) == 2

    def test_bogus_scenario_rejected(self, capsys):
        assert dispatch(["run", "--scenario", "bogus", "--seed", "1"]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_missing_scenario_is_config_error(self, capsys):
        assert dispatch(["run", "--seed", "1"]) == 2
        assert "scenario" in capsys.readouterr().err

    def test_missing_seed_is_config_error(self, capsys):
        assert dispatch(["run", "--scenario", "full-strong"]) == 2

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"scenario": "full-strong", "seed": 1, "zap": True}))
        assert dispatch(["run", "--config", str(path)]) == 2
        assert "zap" in capsys.readouterr().err

    def test_unreadable_config_is_runtime_error(self, tmp_path, capsys):
        assert dispatch(["run", "--config", str(tmp_path / "nope.json")]) == 1

    def test_run_all_needs_enough_seeds(self, config_file, capsys):
        assert dispatch(["run-all", "--config", str(config_file),
                         "--seeds", "1,2"]) == 2


class TestStagedPipeline:
    def test_gen_then_train_then_attack(self, config_file, tmp_path, capsys):
        out = tmp_path / "out"
        argv = ["--config", str(config_file), "--out", str(out)]
        assert dispatch(["gen", *argv]) == 0
        cell = out / "full-strong" / "41"
        assert (cell / "datasets" / "provider_train.csv").is_file()
        assert not (cell / "models").exists()

        assert dispatch(["train", *argv]) == 0
        assert (cell / "models" / "target.json").is_file()
        assert (cell / "models" / "surrogate_report.json").is_file()

        assert dispatch(["attack", *argv]) == 0
        assert (cell / "report.json").is_file()
        assert (cell / "models" / "mia.json").is_file()
        report = harness.load_report_file(cell / "report.json")
        assert 0.0 <= report.mia_accuracy <= 1.0

    def test_attack_before_train_fails(self, config_file, tmp_path, capsys):
        out = tmp_path / "out"
        argv = ["--config", str(config_file), "--out", str(out)]
        assert dispatch(["gen", *argv]) == 0
        assert dispatch(["attack", *argv]) == 1
        assert "target.json" in capsys.readouterr().err

    def test_surrogate_class_imbalance_is_runtime_error_on_both_paths(
            self, config_file, tmp_path, monkeypatch, capsys):
        # a target that grants everyone leaves the surrogate one class to learn
        monkeypatch.setattr(classify, "observed_access_labels",
                            lambda pairs, target: np.ones(len(pairs), dtype=int))
        argv = ["--config", str(config_file), "--out", str(tmp_path / "out")]
        assert dispatch(["gen", *argv]) == 0
        for command in ("train", "run"):
            assert dispatch([command, *argv]) == 1
            assert "train-surrogate" in capsys.readouterr().err

    def test_train_without_datasets_fails(self, config_file, tmp_path, capsys):
        assert dispatch(["train", "--config", str(config_file),
                         "--out", str(tmp_path / "empty")]) == 1


class TestRun:
    def test_writes_report_and_prints_summary(self, tiny_cli_cell, capsys):
        assert (tiny_cli_cell / "report.json").is_file()
        assert (tiny_cli_cell / "timings.json").is_file()

    def test_env_var_out_dir(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(OUT_DIR_ENV, str(tmp_path / "envout"))
        doc = config_to_document(small_config(seed=44))
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        assert dispatch(["gen", "--config", str(path)]) == 0
        assert (tmp_path / "envout" / "full-strong" / "44" / "datasets").is_dir()


class TestRunAll:
    def test_small_matrix_with_summary(self, tmp_path, capsys):
        doc = config_to_document(small_config(seed=0))
        doc["seeds"] = [51, 52, 53]
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert dispatch(["run-all", "--config", str(path), "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "median MIA accuracy" in printed
        assert "ordering checks:" in printed
        summary = json.loads((out / "ordering_summary.json").read_text())
        assert summary["seeds"] == [51, 52, 53]
        for scenario in ("full-strong", "same-power", "same-phase", "weak-authorized"):
            for seed in (51, 52, 53):
                assert (out / scenario / str(seed) / "report.json").is_file()


class TestReport:
    def test_pretty_print_matches_table_layout(self, tiny_cli_cell, capsys):
        assert dispatch(["report", str(tiny_cli_cell / "report.json")]) == 0
        out = capsys.readouterr().out
        lines = [ln for ln in out.splitlines() if ln.strip()]
        header = next(ln for ln in lines if "Real" in ln)
        assert "non-member" in header and "member" in header
        rows = [ln for ln in lines if ln.startswith(("non-member", "member"))]
        assert rows[0].startswith("non-member") and rows[1].startswith("member")
        assert "MIA accuracy" in out

    def test_json_flag_round_trips(self, tiny_cli_cell, capsys):
        assert dispatch(["report", str(tiny_cli_cell / "report.json"),
                         "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        stored = json.loads((tiny_cli_cell / "report.json").read_text())
        assert doc == stored

    def test_corrupt_report_is_runtime_error(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        path.write_text("{oops")
        assert dispatch(["report", str(path)]) == 1
        assert "report.json" in capsys.readouterr().err

    def test_format_confusion_numbers(self):
        cm = ConfusionMatrix.from_counts([[9152, 848], [1429, 8571]])
        text = format_confusion(cm)
        assert "0.9152" in text and "0.8571" in text
        assert f"MIA accuracy: {cm.accuracy:.4f}" in text
