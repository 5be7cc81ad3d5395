"""End-to-end scenario runs, artifact persistence, and cross-scenario summaries.

Every run is a pure function of (ScenarioConfig, training hyperparameters):
all stage seeds derive from the scenario seed, report.json contains no
volatile fields, and artifacts are written atomically (write-then-rename).
run_scenario and the staged CLI commands share the stages
(train_classifiers, attack) and the writers (save_datasets,
save_classifiers, save_attack); reevaluate_artifacts shares attack's
held-out evaluation and the classifiers' scorer. load_datasets is the one
reader of a cell's config.json: the staged commands, load_artifacts and
reevaluate_artifacts all take the config from it.

Artifact layout per run: <out>/<scenario>/<seed>/
    config.json
    datasets/*.csv
    models/{target,surrogate,mia}.json + classifier reports
    report.json, confusion.json, confusion.csv, timings.json (written last)
"""

from __future__ import annotations

import json
import resource
import statistics
import time
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import classify, mia, scenarios, tinynn
from .errors import ArtifactError, InvalidConfigError, PipelineStageError
from .scenarios import DataBundle, Scenario, ScenarioConfig
from .tinynn import atomic_write, atomic_write_text, parse_document, read_json

REPORT_FORMAT_VERSION = "1"

_SEED_TAGS = {"target": 1, "surrogate": 2, "mia": 3, "split": 4}


def derive_seed(scenario_seed: int, label: str) -> int:
    """Stable per-stage seed derived from the scenario seed."""
    tag = _SEED_TAGS[label]
    return int(np.random.SeedSequence((scenario_seed, 1000 + tag)).generate_state(1)[0])


@dataclass(frozen=True)
class PipelineHyper:
    """Training hyperparameters for the three networks plus the split seed."""

    target: tinynn.TrainHyper
    surrogate: tinynn.TrainHyper
    mia: tinynn.TrainHyper
    split_seed: int

    @classmethod
    def for_config(cls, config: ScenarioConfig, classifier_epochs: int = 100,
                   mia_epochs: int = 200) -> "PipelineHyper":
        seed = config.seed
        return cls(
            target=tinynn.TrainHyper(epochs=classifier_epochs,
                                     seed=derive_seed(seed, "target")),
            surrogate=tinynn.TrainHyper(epochs=classifier_epochs,
                                        seed=derive_seed(seed, "surrogate")),
            mia=tinynn.TrainHyper(epochs=mia_epochs, seed=derive_seed(seed, "mia")),
            split_seed=derive_seed(seed, "split"),
        )

    def seed_record(self, config: ScenarioConfig) -> dict:
        return {
            "scenario": config.seed,
            "target": self.target.seed,
            "surrogate": self.surrogate.seed,
            "mia": self.mia.seed,
            "split": self.split_seed,
        }


@dataclass
class ScenarioReport:
    config: ScenarioConfig
    seeds: dict
    target_report: classify.ClassifierReport
    surrogate_report: classify.ClassifierReport
    confusion: mia.ConfusionMatrix
    gain_history: dict
    paired_agreement: float
    unauthorized_grant_rate: float

    @property
    def mia_accuracy(self) -> float:
        return self.confusion.accuracy

    def to_document(self) -> dict:
        return {
            "version": REPORT_FORMAT_VERSION,
            "scenario": self.config.scenario.value,
            "seed": self.config.seed,
            "config": scenarios.config_to_document(self.config),
            "seeds": self.seeds,
            "target": self.target_report.to_document(),
            "surrogate": self.surrogate_report.to_document(),
            "mia": {
                "confusion": self.confusion.to_document(),
                "accuracy": self.confusion.accuracy,
                "gain_history": self.gain_history,
            },
            "paired_agreement": self.paired_agreement,
            "unauthorized_grant_rate": self.unauthorized_grant_rate,
        }


def report_from_document(doc: dict, source: str = "<document>") -> ScenarioReport:
    def build(doc):
        return ScenarioReport(
            config=scenarios.config_from_document(doc["config"]),
            seeds=dict(doc["seeds"]),
            target_report=classify.report_from_document(doc["target"], source),
            surrogate_report=classify.report_from_document(doc["surrogate"], source),
            confusion=mia.confusion_from_document(doc["mia"]["confusion"], source),
            gain_history={k: [float(v) for v in vs]
                          for k, vs in doc["mia"]["gain_history"].items()},
            paired_agreement=float(doc["paired_agreement"]),
            unauthorized_grant_rate=float(doc["unauthorized_grant_rate"]),
        )

    return parse_document(doc, REPORT_FORMAT_VERSION, source, "scenario report", build)


def load_report_file(path) -> ScenarioReport:
    return report_from_document(read_json(path, "scenario report"), source=str(path))


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

# The files of a cell that later stages derive from its datasets.
_DERIVED = ("models/target.json", "models/surrogate.json", "models/mia.json",
            "models/target_report.json", "models/surrogate_report.json",
            "report.json", "confusion.json", "confusion.csv", "timings.json")


def write_json(path, doc) -> None:
    atomic_write_text(path, json.dumps(doc, sort_keys=True, indent=2) + "\n")


def cell_dir(out_dir, config: ScenarioConfig) -> Path:
    return Path(out_dir) / config.scenario.value / str(config.seed)


def save_datasets(bundle: DataBundle, cell) -> None:
    """Write the dataset CSVs under <cell>/datasets, then config.json.

    First removes every file derived from earlier datasets of the cell, so a
    regenerated cell holds no models or reports of other data.
    """
    for name in _DERIVED:
        (Path(cell) / name).unlink(missing_ok=True)
    directory = Path(cell) / "datasets"
    directory.mkdir(parents=True, exist_ok=True)
    for name, (kind, _) in scenarios.dataset_tables(bundle.config).items():
        write_csv = getattr(scenarios, f"write_{kind}_csv")
        atomic_write(directory / f"{name}.csv", partial(write_csv, getattr(bundle, name)))
    write_json(Path(cell) / "config.json", scenarios.config_to_document(bundle.config))


def save_classifiers(cell, target, target_report, surrogate, surrogate_report) -> None:
    models = Path(cell) / "models"
    models.mkdir(parents=True, exist_ok=True)
    tinynn.save_model(target, models / "target.json")
    tinynn.save_model(surrogate, models / "surrogate.json")
    classify.save_report(target_report, models / "target_report.json")
    classify.save_report(surrogate_report, models / "surrogate_report.json")


def save_attack(cell, model: mia.MiaModel, report: ScenarioReport) -> None:
    """Write mia.json, report.json, confusion.json and confusion.csv."""
    cell = Path(cell)
    mia.save_mia_model(model, cell / "models" / "mia.json")
    write_json(cell / "report.json", report.to_document())
    write_json(cell / "confusion.json", report.confusion.to_document(
        scenario=report.config.scenario.value, seed=report.config.seed))
    atomic_write_text(cell / "confusion.csv", report.confusion.to_csv_text())


def save_artifacts(out_dir, bundle: DataBundle, target, surrogate, mia_model,
                   report: ScenarioReport) -> Path:
    """Persist one run's datasets, models, and reports under the cell directory."""
    cell = cell_dir(out_dir, report.config)
    save_datasets(bundle, cell)
    save_classifiers(cell, target, report.target_report, surrogate, report.surrogate_report)
    save_attack(cell, mia_model, report)
    return cell


def load_datasets(cell) -> DataBundle:
    """The cell's datasets under its config.json; each CSV must hold the rows it implies."""
    config_path = Path(cell) / "config.json"
    try:
        config = scenarios.config_from_document(read_json(config_path, "config"))
    except InvalidConfigError as exc:
        raise ArtifactError(f"{config_path}: {exc}") from exc
    directory = Path(cell) / "datasets"
    tables = {}
    for name, (kind, length) in scenarios.dataset_tables(config).items():
        path = directory / f"{name}.csv"
        tables[name] = getattr(scenarios, f"read_{kind}_csv")(path)
        if len(tables[name]) != length:
            raise ArtifactError(f"{path}: {len(tables[name])} {kind}, config.json implies "
                                f"{length}")
    return DataBundle(config=config, **tables)


def load_classifiers(cell):
    """(target, target_report, surrogate, surrogate_report) from <cell>/models."""
    models = Path(cell) / "models"
    return (tinynn.load_model(models / "target.json"),
            classify.load_report(models / "target_report.json"),
            tinynn.load_model(models / "surrogate.json"),
            classify.load_report(models / "surrogate_report.json"))


# ---------------------------------------------------------------------------
# Pipeline stages, shared by run_scenario, the staged CLI and reevaluation
# ---------------------------------------------------------------------------

def run_stage(name: str, fn):
    """fn(), with any failure raised as a PipelineStageError naming the stage."""
    try:
        return fn()
    except PipelineStageError:
        raise
    except Exception as exc:
        raise PipelineStageError(name, exc) from exc


def train_classifiers(bundle: DataBundle, hyper: PipelineHyper, stage=run_stage):
    """Fit the provider's target, then the surrogate on its observed grants.

    Returns (target, target_report, surrogate, surrogate_report). `stage`
    runs each step under its stage name.
    """
    target, target_report = stage("train-target", lambda: classify.train_target(
        bundle.provider_train, bundle.test_pairs.provider, hyper.target))
    surrogate, surrogate_report = stage("train-surrogate", lambda: classify.train_surrogate(
        bundle.surrogate_pairs, target, bundle.test_pairs.adversary, hyper.surrogate))
    return target, target_report, surrogate, surrogate_report


def _held_out_numbers(bundle: DataBundle, dataset: mia.MembershipDataset,
                      target, surrogate, model: mia.MiaModel):
    """(confusion, paired agreement, unauthorized grant rate) on held-out data."""
    confusion = mia.evaluate_mia(model, surrogate,
                                 dataset.members.take(dataset.member_test_idx),
                                 dataset.nonmembers.take(dataset.nonmember_test_idx))
    agreement = classify.paired_agreement(target, surrogate, bundle.test_pairs)
    unauthorized_rate = classify.grant_rate(target, bundle.unauthorized_provider_views)
    return confusion, agreement, unauthorized_rate


def attack(bundle: DataBundle, hyper: PipelineHyper, target, target_report,
           surrogate, surrogate_report, stage=run_stage):
    """Fit the inference model and score the attack: (model, ScenarioReport)."""

    def fit():
        dataset = mia.split_membership(bundle.member_eval, bundle.nonmember_eval,
                                       hyper.split_seed)
        model, gain_history = mia.train_mia(surrogate, dataset, hyper.mia)
        return dataset, model, gain_history

    dataset, model, gain_history = stage("train-mia", fit)
    confusion, agreement, unauthorized_rate = stage("evaluate", lambda: _held_out_numbers(
        bundle, dataset, target, surrogate, model))
    report = ScenarioReport(
        config=bundle.config,
        seeds=hyper.seed_record(bundle.config),
        target_report=target_report,
        surrogate_report=surrogate_report,
        confusion=confusion,
        gain_history=gain_history,
        paired_agreement=agreement,
        unauthorized_grant_rate=unauthorized_rate,
    )
    return model, report


def run_scenario(config: ScenarioConfig, out_dir=None,
                 hyper: PipelineHyper | None = None) -> ScenarioReport:
    """Generate data, train all three networks, evaluate the attack, persist."""
    hyper = hyper or PipelineHyper.for_config(config)
    started = time.perf_counter()
    stage_seconds, stage_peak_rss_mb = {}, {}

    def timed(name, fn):
        t0 = time.perf_counter()
        result = run_stage(name, fn)
        stage_seconds[name] = time.perf_counter() - t0
        # the process's peak resident set so far; Linux reports ru_maxrss in KiB
        stage_peak_rss_mb[name] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return result

    bundle = timed("generate", lambda: scenarios.generate_scenario_data(config))
    target, target_report, surrogate, surrogate_report = train_classifiers(bundle, hyper, timed)
    model, report = attack(bundle, hyper, target, target_report, surrogate, surrogate_report,
                           timed)
    if out_dir is not None:
        cell = timed("persist", lambda: save_artifacts(out_dir, bundle, target, surrogate,
                                                       model, report))
        write_json(cell / "timings.json", {
            "wall_seconds": time.perf_counter() - started,
            "stage_seconds": stage_seconds,
            "stage_peak_rss_mb": stage_peak_rss_mb,
            "target_train_seconds": target_report.train_seconds,
            "surrogate_train_seconds": surrogate_report.train_seconds,
            "blas_threads": tinynn.BLAS_THREADS,
        })

    return report


ALL_SCENARIOS = tuple(Scenario)


def run_all(seeds, base_config: ScenarioConfig | None = None, out_dir=None,
            hyper_for=None) -> tuple[list[ScenarioReport], dict]:
    """Run all four scenarios for every seed; summarize medians and orderings."""
    seeds = list(seeds)
    if len(seeds) < 3:
        raise InvalidConfigError(f"run-all needs at least 3 seeds, got {len(seeds)}")
    if base_config is None:
        base_config = ScenarioConfig(scenario=Scenario.FULL_STRONG, seed=seeds[0])
    # Building every cell's config first validates each seed before any cell runs.
    configs = [replace(base_config, scenario=scenario, seed=seed)
               for scenario in ALL_SCENARIOS for seed in seeds]
    if len(set(seeds)) != len(seeds):
        raise InvalidConfigError(f"run-all seeds must be distinct, got {seeds}")
    reports = []
    for config in configs:
        hyper = hyper_for(config) if hyper_for is not None else None
        try:
            reports.append(run_scenario(config, out_dir=out_dir, hyper=hyper))
        except PipelineStageError as exc:
            raise PipelineStageError(
                f"{config.scenario.value}/seed={config.seed}/{exc.stage}", exc.cause) from exc
    summary = ordering_summary(reports)
    if out_dir is not None:
        write_json(Path(out_dir) / "ordering_summary.json", summary)
    return reports, summary


def ordering_summary(reports) -> dict:
    """Median accuracy per scenario plus the cross-scenario ordering checks."""
    by_scenario = {}
    for r in reports:
        by_scenario.setdefault(r.config.scenario, []).append(r.mia_accuracy)
    medians = {sc.value: statistics.median(vals) for sc, vals in sorted(
        by_scenario.items(), key=lambda kv: kv[0].value)}
    seeds = sorted({r.config.seed for r in reports})
    summary = {"median_accuracy": medians, "seeds": seeds}
    if all(sc.value in medians for sc in ALL_SCENARIOS):
        fs = medians[Scenario.FULL_STRONG.value]
        spo = medians[Scenario.SAME_POWER.value]
        sph = medians[Scenario.SAME_PHASE.value]
        weak = medians[Scenario.WEAK_AUTHORIZED.value]
        summary["orderings"] = {
            "full_strong_gt_same_phase": fs > sph,
            "same_phase_gt_same_power": sph > spo,
            "same_power_gt_0.55": spo > 0.55,
            "weak_lt_full_strong": weak < fs,
        }
    return summary


# ---------------------------------------------------------------------------
# Reload and re-evaluate persisted artifacts
# ---------------------------------------------------------------------------

def load_artifacts(directory) -> dict:
    """Load every persisted artifact of one scenario run."""
    directory = Path(directory)
    bundle = load_datasets(directory)
    target, target_report, surrogate, surrogate_report = load_classifiers(directory)
    return {
        "datasets": bundle,
        "target": target,
        "surrogate": surrogate,
        "mia_model": mia.load_mia_model(directory / "models" / "mia.json"),
        "target_report": target_report,
        "surrogate_report": surrogate_report,
        "report": load_report_file(directory / "report.json"),
    }


def evaluation_numbers(report: ScenarioReport) -> dict:
    """The evaluation numbers a persisted run must reproduce after reload."""
    return {
        "target_train_accuracy": report.target_report.train_accuracy,
        "target_test_accuracy": report.target_report.test_accuracy,
        "surrogate_train_accuracy": report.surrogate_report.train_accuracy,
        "surrogate_test_accuracy": report.surrogate_report.test_accuracy,
        "mia_accuracy": report.confusion.accuracy,
        "mia_counts": report.confusion.counts.tolist(),
        "paired_agreement": report.paired_agreement,
        "unauthorized_grant_rate": report.unauthorized_grant_rate,
    }


def reevaluate_artifacts(directory) -> dict:
    """Recompute every evaluation number from persisted datasets and models."""
    art = load_artifacts(directory)
    bundle, target, surrogate = art["datasets"], art["target"], art["surrogate"]
    dataset = mia.split_membership(bundle.member_eval, bundle.nonmember_eval,
                                   PipelineHyper.for_config(bundle.config).split_seed)
    confusion, agreement, unauthorized_rate = _held_out_numbers(
        bundle, dataset, target, surrogate, art["mia_model"])
    accuracy, report = classify.classification_accuracy, art["report"]
    surrogate_train = classify.surrogate_training_set(bundle.surrogate_pairs, target)
    return evaluation_numbers(replace(
        report, confusion=confusion, paired_agreement=agreement,
        unauthorized_grant_rate=unauthorized_rate,
        target_report=replace(report.target_report,
                              train_accuracy=accuracy(target, bundle.provider_train),
                              test_accuracy=accuracy(target, bundle.test_pairs.provider)),
        surrogate_report=replace(report.surrogate_report,
                                 train_accuracy=accuracy(surrogate, surrogate_train),
                                 test_accuracy=accuracy(surrogate, bundle.test_pairs.adversary))))
