import json

import pytest

from airmia import classify, cli, harness, mia, scenarios, tinynn
from airmia.errors import ArtifactError, InvalidConfigError, PipelineStageError
from airmia.scenarios import Scenario, config_to_document
from airmia.tinynn import OutputHead, init_network
from conftest import small_config, small_hyper


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("small_run")
    config = small_config(seed=17)
    report = harness.run_scenario(config, out_dir=out, hyper=small_hyper(config))
    return {"out": out, "config": config, "report": report,
            "cell": harness.cell_dir(out, config)}


@pytest.fixture(scope="module")
def staged_run(tmp_path_factory):
    """One gen -> train -> attack cell at reduced counts (default training budget)."""
    out = tmp_path_factory.mktemp("staged_run")
    path = out / "config.json"
    path.write_text(json.dumps(config_to_document(small_config(seed=19))))
    for command in ("gen", "train", "attack"):
        assert cli.dispatch([command, "--config", str(path), "--out", str(out)]) == 0
    cell = out / "full-strong" / "19"
    return {"cell": cell, "report": harness.load_report_file(cell / "report.json")}


class TestDerivedSeeds:
    def test_stable_and_distinct(self):
        seeds = {label: harness.derive_seed(7, label)
                 for label in ("target", "surrogate", "mia", "split")}
        again = {label: harness.derive_seed(7, label) for label in seeds}
        assert seeds == again
        assert len(set(seeds.values())) == 4

    def test_seed_record_lists_every_stage(self):
        config = small_config(seed=9)
        hyper = harness.PipelineHyper.for_config(config)
        record = hyper.seed_record(config)
        assert set(record) == {"scenario", "target", "surrogate", "mia", "split"}
        assert record["scenario"] == 9


class TestRunScenario:
    def test_artifact_layout(self, small_run):
        cell = small_run["cell"]
        assert cell == small_run["out"] / "full-strong" / "17"
        for rel in ("config.json", "report.json", "confusion.csv", "confusion.json",
                    "timings.json",
                    "models/target.json", "models/surrogate.json", "models/mia.json",
                    "models/target_report.json", "models/surrogate_report.json"):
            assert (cell / rel).is_file(), rel
        assert {p.name for p in (cell / "datasets").iterdir()} == \
            {f"{name}.csv" for name in scenarios.dataset_tables(small_run["config"])}
        assert not list(cell.rglob("*.tmp"))  # write-then-rename left no temp files

    def test_timings_cover_every_stage_and_are_written_last(self, small_run):
        timings = small_run["cell"] / "timings.json"
        doc = json.loads(timings.read_text())
        stages = ("generate", "train-target", "train-surrogate", "train-mia", "evaluate",
                  "persist")  # in the order they run
        assert set(doc["stage_seconds"]) == set(doc["stage_peak_rss_mb"]) == set(stages)
        assert sum(doc["stage_seconds"].values()) <= doc["wall_seconds"]
        peaks = [doc["stage_peak_rss_mb"][name] for name in stages]  # a high-water mark
        assert 0 < peaks[0] and peaks == sorted(peaks)
        assert doc["blas_threads"] == tinynn.BLAS_THREADS
        last = timings.stat().st_mtime_ns
        assert all(p.stat().st_mtime_ns <= last
                   for p in small_run["cell"].rglob("*") if p.is_file())

    def test_confusion_json_carries_scenario_and_seed(self, small_run):
        doc = json.loads((small_run["cell"] / "confusion.json").read_text())
        assert doc["scenario"] == "full-strong" and doc["seed"] == 17
        assert doc["accuracy"] == small_run["report"].confusion.accuracy
        assert doc["counts"] == small_run["report"].confusion.counts.tolist()

    def test_report_document_loads_back(self, small_run):
        loaded = harness.load_report_file(small_run["cell"] / "report.json")
        assert loaded.to_document() == small_run["report"].to_document()

    def test_report_records_all_seeds(self, small_run):
        assert set(small_run["report"].seeds) == \
            {"scenario", "target", "surrogate", "mia", "split"}

    def test_gain_history_in_report(self, small_run):
        hist = small_run["report"].gain_history
        assert set(hist) == {"train", "test"}
        assert all(v <= 0 for v in hist["train"])

    def test_byte_identical_reruns(self, small_run, tmp_path):
        config = small_run["config"]
        harness.run_scenario(config, out_dir=tmp_path, hyper=small_hyper(config))
        first = (small_run["cell"] / "report.json").read_bytes()
        second = (harness.cell_dir(tmp_path, config) / "report.json").read_bytes()
        assert first == second

    def test_stage_errors_carry_stage_name(self, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(classify, "train_target", boom)
        with pytest.raises(PipelineStageError, match="train-target"):
            harness.run_scenario(small_config(seed=23))


class TestPersistenceFidelity:
    @pytest.mark.parametrize("run", ["small_run", "staged_run"])
    def test_reload_reproduces_evaluation_numbers_exactly(self, run, request):
        run = request.getfixturevalue(run)
        expected = harness.evaluation_numbers(run["report"])
        recomputed = harness.reevaluate_artifacts(run["cell"])
        assert recomputed == expected

    def test_staged_report_equals_run_report(self, staged_run, tmp_path):
        # the staged commands train on CSV round trips of the datasets `run` uses
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config_to_document(small_config(seed=19))))
        assert cli.dispatch(["run", "--config", str(path), "--out", str(tmp_path)]) == 0
        run_report = (tmp_path / "full-strong" / "19" / "report.json").read_bytes()
        assert run_report == (staged_run["cell"] / "report.json").read_bytes()

    def test_loaded_target_reproduces_test_accuracy(self, small_run):
        art = harness.load_artifacts(small_run["cell"])
        acc = classify.classification_accuracy(art["target"],
                                               art["datasets"].test_pairs.provider)
        assert acc == small_run["report"].target_report.test_accuracy

    def test_corrupted_report_names_file(self, small_run, tmp_path):
        bad = tmp_path / "report.json"
        bad.write_text("{broken")
        with pytest.raises(ArtifactError, match="report.json"):
            harness.load_report_file(bad)

    def test_corrupted_model_fails_load(self, small_run, tmp_path):
        import shutil

        cell_copy = tmp_path / "cell"
        shutil.copytree(small_run["cell"], cell_copy)
        (cell_copy / "models" / "target.json").write_text("42")
        with pytest.raises(ArtifactError):
            harness.load_artifacts(cell_copy)

    def test_missing_dataset_fails_load(self, small_run, tmp_path):
        import shutil

        cell_copy = tmp_path / "cell"
        shutil.copytree(small_run["cell"], cell_copy)
        (cell_copy / "datasets" / "member_eval.csv").unlink()
        with pytest.raises(ArtifactError, match="member_eval.csv"):
            harness.load_artifacts(cell_copy)

    def test_dataset_row_count_checked_against_config(self, small_run, tmp_path):
        import shutil

        cell_copy = tmp_path / "cell"
        shutil.copytree(small_run["cell"], cell_copy)
        path = cell_copy / "datasets" / "member_eval.csv"
        path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))
        with pytest.raises(ArtifactError, match="member_eval.csv"):
            harness.reevaluate_artifacts(cell_copy)


def classifier_report():
    return classify.ClassifierReport(role="target", train_accuracy=1.0, test_accuracy=0.5,
                                     loss_history=[0.7, 0.6],
                                     dataset_sizes={"train": 4, "test": 2}, seed=3)


def scenario_report():
    return harness.ScenarioReport(
        config=small_config(), seeds={"scenario": 11}, target_report=classifier_report(),
        surrogate_report=classifier_report(),
        confusion=mia.ConfusionMatrix.from_counts([[3, 1], [1, 3]]),
        gain_history={"train": [-0.6], "test": [-0.7]}, paired_agreement=1.0,
        unauthorized_grant_rate=0.0)


# name -> (reader, file name, a valid document, a key the reader needs)
READERS = {
    "model": (tinynn.load_model, "target.json",
              lambda: tinynn.model_document(init_network([3, 2], OutputHead.SOFTMAX2, 0)),
              "weights"),
    "classifier-report": (classify.load_report, "target_report.json",
                          lambda: classifier_report().to_document(), "role"),
    "mia-model": (mia.load_mia_model, "mia.json", lambda: {
        "version": mia.MIA_FORMAT_VERSION, "decision_threshold": 0.5,
        "network": tinynn.model_document(
            init_network(mia.MIA_DIMS, OutputHead.SIGMOID_SCALAR, 0))}, "decision_threshold"),
    "scenario-report": (harness.load_report_file, "report.json",
                        lambda: scenario_report().to_document(), "paired_agreement"),
    "config": (lambda path: harness.load_datasets(path.parent), "config.json",
               lambda: config_to_document(small_config()), "seed"),
}


class TestReaders:
    @pytest.mark.parametrize("reader,case", [
        pytest.param(reader, case, id=f"{reader}-{case}") for reader in READERS
        for case in ("missing", "invalid-json", "version", "missing-key")
        if (reader, case) != ("config", "version")])  # a config has no version
    def test_reader_names_the_file(self, tmp_path, reader, case):
        load, name, document, key = READERS[reader]
        path = tmp_path / name
        doc = document()
        if case == "invalid-json":
            path.write_text("{ not json")
        elif case == "version":
            path.write_text(json.dumps({**doc, "version": "9"}))
        elif case == "missing-key":
            del doc[key]
            path.write_text(json.dumps(doc))
        with pytest.raises(ArtifactError) as info:
            load(path)
        assert str(path) in str(info.value)
        if case == "version":
            assert "version '9'" in str(info.value)


class TestRunAll:
    def test_needs_three_seeds(self):
        with pytest.raises(InvalidConfigError):
            harness.run_all(seeds=[1, 2])

    def test_every_seed_validated_before_any_cell_runs(self, monkeypatch):
        ran = []
        monkeypatch.setattr(harness, "run_scenario", lambda config, **kw: ran.append(config))
        with pytest.raises(InvalidConfigError, match="seed"):
            harness.run_all(seeds=[1, 2, 3.5])
        assert ran == []

    def test_repeated_seeds_rejected_before_any_cell_runs(self, monkeypatch):
        ran = []
        monkeypatch.setattr(harness, "run_scenario", lambda config, **kw: ran.append(config))
        with pytest.raises(InvalidConfigError, match="distinct"):
            harness.run_all(seeds=[4, 4, 4])
        with pytest.raises(InvalidConfigError, match="distinct"):
            harness.run_all(seeds=[1, 2, 3, 1])
        assert ran == []
        assert cli.dispatch(["run-all", "--scenario", "full-strong",
                             "--seeds", "4,4,4"]) == 2
        assert ran == []

    def test_matrix_and_summary(self, tmp_path):
        reports, summary = harness.run_all(
            seeds=[31, 32, 33], base_config=small_config(),
            out_dir=tmp_path, hyper_for=lambda c: small_hyper(c))
        assert len(reports) == 4 * 3
        scenarios_run = {r.config.scenario for r in reports}
        assert scenarios_run == set(harness.ALL_SCENARIOS)
        assert set(summary["median_accuracy"]) == {s.value for s in harness.ALL_SCENARIOS}
        assert summary["seeds"] == [31, 32, 33]
        assert set(summary["orderings"]) == {
            "full_strong_gt_same_phase", "same_phase_gt_same_power",
            "same_power_gt_0.55", "weak_lt_full_strong"}
        assert (tmp_path / "ordering_summary.json").is_file()
        doc = json.loads((tmp_path / "ordering_summary.json").read_text())
        assert doc["median_accuracy"] == summary["median_accuracy"]

    def test_median_is_scenario_wise(self):
        class Box:
            def __init__(self, scenario, seed, acc):
                self.config = small_config(scenario=scenario, seed=seed)
                self.mia_accuracy = acc

        reports = [Box(Scenario.FULL_STRONG, s, a)
                   for s, a in zip((1, 2, 3), (0.8, 0.9, 0.7))]
        summary = harness.ordering_summary(reports)
        assert summary["median_accuracy"] == {"full-strong": 0.8}
        assert "orderings" not in summary


class TestAtomicWrites:
    def test_write_json_deterministic_bytes(self, tmp_path):
        doc = {"b": 1.5, "a": [1, 2]}
        harness.write_json(tmp_path / "x.json", doc)
        harness.write_json(tmp_path / "y.json", doc)
        assert (tmp_path / "x.json").read_bytes() == (tmp_path / "y.json").read_bytes()
        assert not (tmp_path / "x.json.tmp").exists()
