"""End-to-end scenario runs, artifact persistence, and cross-scenario summaries.

Every run is a pure function of (ScenarioConfig, training hyperparameters):
all stage seeds derive from the scenario seed, report.json contains no
volatile fields, and artifacts are written atomically (write-then-rename).
run_scenario and the staged CLI commands share the stages
(train_classifiers, attack) and the writers (save_datasets,
save_classifiers, save_attack); reevaluate_artifacts shares attack's
held-out evaluation.

Artifact layout per run: <out>/<scenario>/<seed>/
    config.json
    datasets/*.csv
    models/{target,surrogate,mia}.json + classifier reports
    report.json, confusion.json, confusion.csv, timings.json (written last)
"""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import classify, mia, scenarios, tinynn
from .errors import ArtifactError, InvalidConfigError, PipelineStageError
from .scenarios import DataBundle, Scenario, ScenarioConfig
from .tinynn import atomic_write, atomic_write_text

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
    try:
        if doc["version"] != REPORT_FORMAT_VERSION:
            raise ArtifactError(f"{source}: unknown report version {doc['version']!r}")
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
    except ArtifactError:
        raise
    except (KeyError, TypeError, ValueError, InvalidConfigError) as exc:
        raise ArtifactError(f"{source}: malformed scenario report ({exc})") from exc


def load_report_file(path) -> ScenarioReport:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ArtifactError(f"cannot load report from {path}: {exc}") from exc
    return report_from_document(doc, source=str(path))


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

# The dataset CSVs of a cell, in DataBundle field order, with their row kind.
_DATASETS = (("provider_train", "samples"), ("train_pairs_class1", "pairs"),
            ("member_eval", "samples"), ("nonmember_eval", "samples"),
            ("surrogate_pairs", "pairs"), ("test_pairs", "pairs"),
            ("unauthorized_provider_views", "samples"))


def write_json(path, doc) -> None:
    atomic_write_text(path, json.dumps(doc, sort_keys=True, indent=2) + "\n")


def cell_dir(out_dir, config: ScenarioConfig) -> Path:
    return Path(out_dir) / config.scenario.value / str(config.seed)


def save_datasets(bundle: DataBundle, cell) -> None:
    """Write the dataset CSVs under <cell>/datasets, then config.json."""
    directory = Path(cell) / "datasets"
    directory.mkdir(parents=True, exist_ok=True)
    for name, kind in _DATASETS:
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


def load_datasets(cell, config: ScenarioConfig) -> DataBundle:
    directory = Path(cell) / "datasets"
    return DataBundle(config=config, **{
        name: getattr(scenarios, f"read_{kind}_csv")(directory / f"{name}.csv")
        for name, kind in _DATASETS})


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

def _stage(name: str, fn):
    try:
        return fn()
    except PipelineStageError:
        raise
    except Exception as exc:
        raise PipelineStageError(name, exc) from exc


def train_classifiers(bundle: DataBundle, hyper: PipelineHyper, stage=_stage):
    """Fit the provider's target, then the surrogate on its observed grants.

    Returns (target, target_report, surrogate, surrogate_report). `stage`
    runs each step under its stage name.
    """
    target, target_report = stage("train-target", lambda: classify.train_target(
        bundle.provider_train, bundle.provider_test, hyper.target))
    surrogate, surrogate_report = stage("train-surrogate", lambda: classify.train_surrogate(
        bundle.surrogate_pairs, target, bundle.adversary_test, hyper.surrogate))
    return target, target_report, surrogate, surrogate_report


def _held_out_numbers(bundle: DataBundle, dataset: mia.MembershipDataset,
                      target, surrogate, model: mia.MiaModel):
    """(confusion, paired agreement, unauthorized grant rate) on held-out data."""
    confusion = mia.evaluate_mia(model, surrogate,
                                 [dataset.members[i] for i in dataset.member_test_idx],
                                 [dataset.nonmembers[i] for i in dataset.nonmember_test_idx])
    agreement = classify.paired_agreement(target, surrogate, bundle.test_pairs)
    unauthorized_rate = classify.grant_rate(target, bundle.unauthorized_provider_views)
    return confusion, agreement, unauthorized_rate


def attack(bundle: DataBundle, hyper: PipelineHyper, target, target_report,
           surrogate, surrogate_report, stage=_stage):
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
    stage_seconds = {}

    def timed(name, fn):
        t0 = time.perf_counter()
        result = _stage(name, fn)
        stage_seconds[name] = time.perf_counter() - t0
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
            "target_train_seconds": target_report.train_seconds,
            "surrogate_train_seconds": surrogate_report.train_seconds,
        })

    return report


ALL_SCENARIOS = (Scenario.FULL_STRONG, Scenario.SAME_POWER,
                 Scenario.SAME_PHASE, Scenario.WEAK_AUTHORIZED)


def run_all(seeds, base_config: ScenarioConfig | None = None, out_dir=None,
            hyper_for=None) -> tuple[list[ScenarioReport], dict]:
    """Run all four scenarios for every seed; summarize medians and orderings."""
    seeds = [int(s) for s in seeds]
    if len(seeds) < 3:
        raise InvalidConfigError(f"run-all needs at least 3 seeds, got {len(seeds)}")
    if base_config is None:
        base_config = ScenarioConfig(scenario=Scenario.FULL_STRONG, seed=seeds[0])
    reports = []
    for scenario in ALL_SCENARIOS:
        for seed in seeds:
            config = replace(base_config, scenario=scenario, seed=seed)
            hyper = hyper_for(config) if hyper_for is not None else None
            try:
                reports.append(run_scenario(config, out_dir=out_dir, hyper=hyper))
            except PipelineStageError as exc:
                raise PipelineStageError(
                    f"{scenario.value}/seed={seed}/{exc.stage}", exc.cause) from exc
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
    config_path = directory / "config.json"
    try:
        with open(config_path, "r", encoding="utf-8") as fh:
            config_doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ArtifactError(f"cannot load config from {config_path}: {exc}") from exc
    try:
        config = scenarios.config_from_document(config_doc)
    except InvalidConfigError as exc:
        raise ArtifactError(f"{config_path}: {exc}") from exc
    bundle = load_datasets(directory, config)
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
    observed = classify.observed_access_labels(bundle.surrogate_pairs, target)
    surrogate_views = [p.adversary_view for p in bundle.surrogate_pairs]
    surrogate_train_acc = float(np.mean(
        classify.predicted_labels(surrogate, surrogate_views) == observed))
    dataset = mia.split_membership(bundle.member_eval, bundle.nonmember_eval,
                                   derive_seed(bundle.config.seed, "split"))
    confusion, agreement, unauthorized_rate = _held_out_numbers(
        bundle, dataset, target, surrogate, art["mia_model"])
    return {
        "target_train_accuracy": classify.classification_accuracy(
            target, bundle.provider_train),
        "target_test_accuracy": classify.classification_accuracy(target, bundle.provider_test),
        "surrogate_train_accuracy": surrogate_train_acc,
        "surrogate_test_accuracy": classify.classification_accuracy(
            surrogate, bundle.adversary_test),
        "mia_accuracy": confusion.accuracy,
        "mia_counts": confusion.counts.tolist(),
        "paired_agreement": agreement,
        "unauthorized_grant_rate": unauthorized_rate,
    }
