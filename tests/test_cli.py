import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from airmia import classify, harness, scenarios
from airmia.cli import OUT_DIR_ENV, dispatch, format_confusion
from airmia.errors import InvalidInputError
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

    def test_undecodable_config_is_runtime_error(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_bytes(b"\xff")
        assert dispatch(["run", "--config", str(path)]) == 1
        assert "cannot load config from" in capsys.readouterr().err

    def test_run_all_needs_enough_seeds(self, config_file, capsys):
        assert dispatch(["run-all", "--config", str(config_file),
                         "--seeds", "1,2"]) == 2

    @pytest.mark.parametrize("seeds", [[1.5, 2.7, 3.2], [True, 2, 3],
                                       {"1": 0, "2": 0, "3": 0}])
    def test_run_all_rejects_non_integer_seeds(self, tmp_path, seeds, monkeypatch, capsys):
        ran = []
        monkeypatch.setattr(harness, "run_scenario", lambda config, **kw: ran.append(config))
        doc = config_to_document(small_config())
        doc["seeds"] = seeds
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        assert dispatch(["run-all", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert "seeds" in capsys.readouterr().err and ran == []

    @pytest.mark.parametrize("group,field", [("counts", "provider_train"),
                                             ("users", "authorized")])
    def test_float_counts_are_config_errors(self, tmp_path, group, field, capsys):
        doc = config_to_document(small_config())
        doc[group][field] = float(doc[group][field])
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        assert dispatch(["gen", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert f"{group}.{field}" in capsys.readouterr().err

    @pytest.mark.parametrize("out_dir", [5, ["x"], True])
    @pytest.mark.parametrize("command", [["gen"], ["run-all", "--seeds", "1,2,3"]])
    def test_non_string_out_dir_is_config_error(self, tmp_path, out_dir, command, capsys,
                                                monkeypatch):
        monkeypatch.chdir(tmp_path)
        doc = config_to_document(small_config())
        doc["out_dir"] = out_dir
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        assert dispatch([*command, "--config", str(path)]) == 2
        assert "out_dir" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["c.json"]

    @pytest.mark.parametrize("key,value", [
        ("snr_authorized_db", "nan"), ("snr_authorized_db", float("inf")),
        ("noise.phase_bound_rad", float("nan")), ("drift.power_fraction", float("-inf")),
        ("snr_authorized_db", True), ("snr_authorized_db", "12"),
        ("noise.phase_bound_rad", True), ("noise.phase_bound_rad", "12"),
        ("snr_authorized_db", 1e308),  # finite, but its received power overflows
        ("noise.power_bound", 1e308),  # finite, but its range, 2 * bound, overflows
        # JSON integers beyond the float range
        pytest.param("snr_authorized_db", 10 ** 400, id="snr_authorized_db-10**400"),
        pytest.param("noise.power_bound", 10 ** 400, id="noise.power_bound-10**400"),
    ])
    def test_non_finite_config_values_are_config_errors(self, tmp_path, key, value, capsys):
        doc = config_to_document(small_config())
        *group, name = key.split(".")
        (doc[group[0]] if group else doc)[name] = value
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        for command in ("gen", "run"):
            assert dispatch([command, "--config", str(path), "--out", str(tmp_path)]) == 2
            assert f"{key} must be a finite number" in capsys.readouterr().err
        assert not (tmp_path / "full-strong").exists()


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

    def test_staged_commands_train_under_the_cell_config(self, config_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert dispatch(["gen", "--config", str(config_file), "--out", str(out)]) == 0
        cell = out / "full-strong" / "41"
        doc = json.loads(config_file.read_text())
        other = tmp_path / "other.json"
        other.write_text(json.dumps({
            **doc, "drift": {"phase_bound_rad": 0.0, "power_fraction": 0.0},
            "noise": {**doc["noise"], "phase_bound_rad": 0.3}}))
        for command in ("train", "attack"):
            assert dispatch([command, "--config", str(other), "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert "config.json" in err and "drift" in err and "noise" in err
            assert not (cell / "models").exists()
        # 10 and 10.0 are one value; the report then echoes config.json's spelling
        respelled = tmp_path / "respelled.json"
        respelled.write_text(json.dumps({**doc, "snr_authorized_db": 10}))
        assert dispatch(["train", "--config", str(config_file), "--out", str(out)]) == 0
        assert dispatch(["attack", "--config", str(respelled), "--out", str(out)]) == 0
        stored = json.loads((cell / "config.json").read_text())
        echoed = json.loads((cell / "report.json").read_text())["config"]
        assert json.dumps(echoed, sort_keys=True) == json.dumps(stored, sort_keys=True)

    def test_generation_failure_names_the_stage_on_both_paths(
            self, config_file, tmp_path, monkeypatch, capsys):
        def fail(config):
            raise InvalidInputError("phases and powers must be finite")

        monkeypatch.setattr(scenarios, "generate_scenario_data", fail)
        for command in ("gen", "run"):
            assert dispatch([command, "--config", str(config_file),
                             "--out", str(tmp_path)]) == 1
            assert "stage 'generate' failed" in capsys.readouterr().err

    def test_attack_before_train_fails(self, config_file, tmp_path, capsys):
        out = tmp_path / "out"
        argv = ["--config", str(config_file), "--out", str(out)]
        assert dispatch(["gen", *argv]) == 0
        assert dispatch(["attack", *argv]) == 1
        assert "target.json" in capsys.readouterr().err

    def test_regenerated_cell_keeps_no_stale_models(self, config_file, tmp_path, capsys):
        out = tmp_path / "out"
        for command in ("gen", "train", "attack"):
            assert dispatch([command, "--config", str(config_file), "--out", str(out)]) == 0
        cell = out / "full-strong" / "41"
        other = tmp_path / "other.json"
        other.write_text(json.dumps({**json.loads(config_file.read_text()),
                                     "drift": {"phase_bound_rad": 0.0, "power_fraction": 0.0}}))
        assert dispatch(["gen", "--config", str(other), "--out", str(out)]) == 0
        capsys.readouterr()
        assert dispatch(["attack", "--config", str(other), "--out", str(out)]) == 1
        assert "target.json" in capsys.readouterr().err
        assert not (cell / "report.json").exists()

    def test_surrogate_class_imbalance_is_runtime_error_on_both_paths(
            self, config_file, tmp_path, monkeypatch, capsys):
        # a target that grants everyone leaves the surrogate one class to learn
        monkeypatch.setattr(classify, "surrogate_training_set", lambda pairs, target:
                            dataclasses.replace(pairs.adversary,
                                                class_label=np.ones(len(pairs), dtype=int)))
        argv = ["--config", str(config_file), "--out", str(tmp_path / "out")]
        assert dispatch(["gen", *argv]) == 0
        for command in ("train", "run"):
            assert dispatch([command, *argv]) == 1
            assert "train-surrogate" in capsys.readouterr().err

    def test_attack_on_truncated_dataset_fails(self, config_file, tmp_path, capsys):
        argv = ["--config", str(config_file), "--out", str(tmp_path / "out")]
        assert dispatch(["gen", *argv]) == 0
        assert dispatch(["train", *argv]) == 0
        path = tmp_path / "out" / "full-strong" / "41" / "datasets" / "member_eval.csv"
        path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))
        assert dispatch(["attack", *argv]) == 1
        assert "member_eval.csv" in capsys.readouterr().err

    def test_non_finite_dataset_value_names_the_file(self, config_file, tmp_path, capsys):
        argv = ["--config", str(config_file), "--out", str(tmp_path / "out")]
        assert dispatch(["gen", *argv]) == 0
        path = tmp_path / "out" / "full-strong" / "41" / "datasets" / "provider_train.csv"
        lines = path.read_text().splitlines(keepends=True)
        fields = lines[1].split(",")
        fields[5] = "nan"  # phase_0 of the first sample
        lines[1] = ",".join(fields)
        path.write_text("".join(lines))
        assert dispatch(["train", *argv]) == 1
        err = capsys.readouterr().err
        assert "provider_train.csv" in err and "finite" in err

    def test_power_beyond_float32_range_names_the_stage(self, config_file, tmp_path, capsys):
        # 1e40 is a finite float64, but its feature (power / 10) overflows float32
        argv = ["--config", str(config_file), "--out", str(tmp_path / "out")]
        assert dispatch(["gen", *argv]) == 0
        path = tmp_path / "out" / "full-strong" / "41" / "datasets" / "provider_train.csv"
        lines = path.read_text().splitlines(keepends=True)
        column = lines[0].split(",").index("power_0")
        fields = lines[1].split(",")
        fields[column] = "1e40"
        lines[1] = ",".join(fields)
        path.write_text("".join(lines))
        assert dispatch(["train", *argv]) == 1
        err = capsys.readouterr().err
        assert "train-target" in err and "float32" in err

    @pytest.mark.parametrize("line", [0, 1])  # the header, the first data row
    @pytest.mark.parametrize("byte", [b"\xff", b"\xc3"])
    def test_undecodable_dataset_byte_names_the_file(self, config_file, tmp_path, capsys,
                                                     line, byte):
        argv = ["--config", str(config_file), "--out", str(tmp_path / "out")]
        assert dispatch(["gen", *argv]) == 0
        path = tmp_path / "out" / "full-strong" / "41" / "datasets" / "provider_train.csv"
        lines = path.read_bytes().splitlines(keepends=True)
        lines[line] = byte + lines[line]
        path.write_bytes(b"".join(lines))
        assert dispatch(["train", *argv]) == 1
        assert "provider_train.csv" in capsys.readouterr().err

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


class TestBlasPin:
    def test_report_bytes_do_not_depend_on_openblas_num_threads(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(config_to_document(small_config())))
        src = str(Path(__file__).resolve().parents[1] / "src")
        cells = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src}
            out = tmp_path / f"threads{threads}"
            subprocess.run([sys.executable, "-m", "airmia.cli", "run", "--config", str(config),
                            "--out", str(out)], env=env, check=True, capture_output=True)
            cells.append(out / "full-strong" / "11")
        assert (cells[0] / "report.json").read_bytes() == (cells[1] / "report.json").read_bytes()
        for cell in cells:
            assert json.loads((cell / "timings.json").read_text())["blas_threads"]["count"] == 1


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

    def test_undecodable_report_is_runtime_error(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        path.write_bytes(b"\xff{}")
        assert dispatch(["report", str(path)]) == 1
        assert "report.json" in capsys.readouterr().err

    def test_format_confusion_numbers(self):
        cm = ConfusionMatrix.from_counts([[9152, 848], [1429, 8571]])
        text = format_confusion(cm)
        assert "0.9152" in text and "0.8571" in text
        assert f"MIA accuracy: {cm.accuracy:.4f}" in text
