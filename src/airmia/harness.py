"""End-to-end scenario runs, artifact persistence, and cross-scenario summaries.

Every run is a pure function of (ScenarioConfig, training hyperparameters):
all stage seeds derive from the scenario seed, report.json contains no
volatile fields, and artifacts are written atomically (write-then-rename).
run_scenario and the staged CLI commands share the stages
(train_classifiers, attack), which pass the two classifiers as one
Classifiers value, and the writers (save_datasets, save_classifiers,
save_attack). evaluate computes the attack's held-out Evaluation for both
attack and reevaluate_artifacts. load_datasets is the one reader of a
cell's config.json: the staged commands, load_artifacts and
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


@dataclass(frozen=True)
class Classifiers:
    """The provider's target and the adversary's surrogate, with their training reports."""

    target: tinynn.DenseNetwork
    target_report: classify.ClassifierReport
    surrogate: tinynn.DenseNetwork
    surrogate_report: classify.ClassifierReport


@dataclass(frozen=True)
class Evaluation:
    """The attack's held-out numbers; evaluate is the one function that computes them."""

    confusion: mia.ConfusionMatrix
    paired_agreement: float
    unauthorized_grant_rate: float


@dataclass
class ScenarioReport:
    config: ScenarioConfig
    seeds: dict
    target_report: classify.ClassifierReport
    surrogate_report: classify.ClassifierReport
    evaluation: Evaluation
    gain_history: dict

    @property
    def mia_accuracy(self) -> float:
        return self.evaluation.confusion.accuracy

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
                "confusion": self.evaluation.confusion.to_document(),
                "accuracy": self.mia_accuracy,
                "gain_history": self.gain_history,
            },
            "paired_agreement": self.evaluation.paired_agreement,
            "unauthorized_grant_rate": self.evaluation.unauthorized_grant_rate,
        }


def report_from_document(doc: dict, source: str = "<document>") -> ScenarioReport:
    def build(doc):
        return ScenarioReport(
            config=scenarios.config_from_document(doc["config"]),
            seeds=dict(doc["seeds"]),
            target_report=classify.report_from_document(doc["target"], source),
            surrogate_report=classify.report_from_document(doc["surrogate"], source),
            evaluation=Evaluation(
                confusion=mia.confusion_from_document(doc["mia"]["confusion"], source),
                paired_agreement=float(doc["paired_agreement"]),
                unauthorized_grant_rate=float(doc["unauthorized_grant_rate"])),
            gain_history={k: [float(v) for v in vs]
                          for k, vs in doc["mia"]["gain_history"].items()},
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


def save_classifiers(cell, classifiers: Classifiers) -> None:
    models = Path(cell) / "models"
    models.mkdir(parents=True, exist_ok=True)
    tinynn.save_model(classifiers.target, models / "target.json")
    tinynn.save_model(classifiers.surrogate, models / "surrogate.json")
    classify.save_report(classifiers.target_report, models / "target_report.json")
    classify.save_report(classifiers.surrogate_report, models / "surrogate_report.json")


def save_attack(cell, model: mia.MiaModel, report: ScenarioReport) -> None:
    """Write mia.json, report.json, confusion.json and confusion.csv."""
    cell = Path(cell)
    mia.save_mia_model(model, cell / "models" / "mia.json")
    write_json(cell / "report.json", report.to_document())
    write_json(cell / "confusion.json", report.evaluation.confusion.to_document(
        scenario=report.config.scenario.value, seed=report.config.seed))
    atomic_write_text(cell / "confusion.csv", report.evaluation.confusion.to_csv_text())


def save_artifacts(out_dir, bundle: DataBundle, classifiers: Classifiers, mia_model,
                   report: ScenarioReport) -> Path:
    """Persist one run's datasets, models, and reports under the cell directory."""
    cell = cell_dir(out_dir, report.config)
    save_datasets(bundle, cell)
    save_classifiers(cell, classifiers)
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


def load_classifiers(cell) -> Classifiers:
    """The Classifiers saved under <cell>/models."""
    models = Path(cell) / "models"
    return Classifiers(target=tinynn.load_model(models / "target.json"),
                       target_report=classify.load_report(models / "target_report.json"),
                       surrogate=tinynn.load_model(models / "surrogate.json"),
                       surrogate_report=classify.load_report(models / "surrogate_report.json"))


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


def train_classifiers(bundle: DataBundle, hyper: PipelineHyper,
                      stage=run_stage) -> Classifiers:
    """Fit the provider's target, then the surrogate on its grants, each step under `stage`."""
    target, target_report = stage("train-target", lambda: classify.train_target(
        bundle.provider_train, bundle.test_pairs.provider, hyper.target))
    surrogate, surrogate_report = stage("train-surrogate", lambda: classify.train_surrogate(
        bundle.surrogate_pairs, target, bundle.test_pairs.adversary, hyper.surrogate))
    return Classifiers(target, target_report, surrogate, surrogate_report)


def evaluate(bundle: DataBundle, dataset: mia.MembershipDataset, classifiers: Classifiers,
             model: mia.MiaModel) -> Evaluation:
    """The attack's held-out numbers, for attack and reevaluate_artifacts alike."""
    target, surrogate = classifiers.target, classifiers.surrogate
    return Evaluation(
        mia.evaluate_mia(model, surrogate, dataset.members.take(dataset.member_test_idx),
                         dataset.nonmembers.take(dataset.nonmember_test_idx)),
        classify.paired_agreement(target, surrogate, bundle.test_pairs),
        classify.grant_rate(target, bundle.unauthorized_provider_views))


def attack(bundle: DataBundle, hyper: PipelineHyper, classifiers: Classifiers,
           stage=run_stage):
    """Fit the inference model and score the attack: (model, ScenarioReport)."""

    def fit():
        dataset = mia.split_membership(bundle.member_eval, bundle.nonmember_eval,
                                       hyper.split_seed)
        model, gain_history = mia.train_mia(classifiers.surrogate, dataset, hyper.mia)
        return dataset, model, gain_history

    dataset, model, gain_history = stage("train-mia", fit)
    evaluation = stage("evaluate", lambda: evaluate(bundle, dataset, classifiers, model))
    return model, ScenarioReport(
        config=bundle.config, seeds=hyper.seed_record(bundle.config),
        target_report=classifiers.target_report, surrogate_report=classifiers.surrogate_report,
        evaluation=evaluation, gain_history=gain_history)


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
    classifiers = train_classifiers(bundle, hyper, timed)
    model, report = attack(bundle, hyper, classifiers, timed)
    if out_dir is not None:
        cell = timed("persist", lambda: save_artifacts(out_dir, bundle, classifiers, model,
                                                       report))
        write_json(cell / "timings.json", {
            "wall_seconds": time.perf_counter() - started,
            "stage_seconds": stage_seconds,
            "stage_peak_rss_mb": stage_peak_rss_mb,
            "target_train_seconds": classifiers.target_report.train_seconds,
            "surrogate_train_seconds": classifiers.surrogate_report.train_seconds,
            "blas": tinynn.BLAS,
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
    return {
        "datasets": load_datasets(directory),
        "classifiers": load_classifiers(directory),
        "mia_model": mia.load_mia_model(directory / "models" / "mia.json"),
        "report": load_report_file(directory / "report.json"),
    }


def _numbers(accuracies, evaluation: Evaluation) -> dict:
    """The eight evaluation numbers: `accuracies` (target train, test; surrogate train, test)."""
    return {**dict(zip(("target_train_accuracy", "target_test_accuracy",
                        "surrogate_train_accuracy", "surrogate_test_accuracy"), accuracies)),
            "mia_accuracy": evaluation.confusion.accuracy,
            "mia_counts": evaluation.confusion.counts.tolist(),
            "paired_agreement": evaluation.paired_agreement,
            "unauthorized_grant_rate": evaluation.unauthorized_grant_rate}


def evaluation_numbers(report: ScenarioReport) -> dict:
    """The evaluation numbers a persisted run must reproduce after reload."""
    target, surrogate = report.target_report, report.surrogate_report
    return _numbers((target.train_accuracy, target.test_accuracy,
                     surrogate.train_accuracy, surrogate.test_accuracy), report.evaluation)


def reevaluate_artifacts(directory) -> dict:
    """Recompute every evaluation number from persisted datasets and models."""
    art = load_artifacts(directory)
    bundle, classifiers = art["datasets"], art["classifiers"]
    dataset = mia.split_membership(bundle.member_eval, bundle.nonmember_eval,
                                   PipelineHyper.for_config(bundle.config).split_seed)
    evaluation = evaluate(bundle, dataset, classifiers, art["mia_model"])
    accuracy, target = classify.classification_accuracy, classifiers.target
    surrogate_train = classify.surrogate_training_set(bundle.surrogate_pairs, target)
    return _numbers((accuracy(target, bundle.provider_train),
                     accuracy(target, bundle.test_pairs.provider),
                     accuracy(classifiers.surrogate, surrogate_train),
                     accuracy(classifiers.surrogate, bundle.test_pairs.adversary)), evaluation)
