"""Correctness checks computed apart from the program.

Every check returns a list of problems; an empty list means the output
passed. Nothing here calls into airmia: model documents and dataset CSVs are
read with json and csv, and the forward pass is the benchmark's own numpy
code, so a fault shared by the program's writer and reader still shows.
"""

from __future__ import annotations

import csv
import json
import statistics
from pathlib import Path

import numpy as np

SYMBOLS = 16
FEATURE_COLUMNS = ([f"phase_{i}" for i in range(SYMBOLS)]
                   + [f"power_{i}" for i in range(SYMBOLS)])
SIGMOID_CLIP = 30.0

SCENARIOS = ("full-strong", "same-power", "same-phase", "weak-authorized")

# A working attack beats a coin flip by more than six standard errors on
# 500 + 500 held-out samples, on every seed.
CELL_MIA_FLOOR = 0.60
# Acceptance criterion 1's classifier floor and the top of criterion 2's
# full-strong band. Both hold on the acceptance seeds, not on every seed:
# full-strong seed 21 gives a target test accuracy of 0.96 at any epoch count,
# and single cells reach 0.94 MIA accuracy (seed 17). A run records a miss as a
# note; it fails no operation, since its outcome would depend on the seed.
MIN_CLASSIFIER_ACCURACY = 0.98
CRITERION_2_CEILING = 0.95


def read_features(path) -> np.ndarray:
    """Raw (phase, power) features of every row of a dataset CSV, shape (n, 32)."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [[float(row[c]) for c in FEATURE_COLUMNS] for row in csv.DictReader(fh)]
    return np.array(rows, dtype=float).reshape(-1, 2 * SYMBOLS)


def read_json(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def scale(doc: dict, features: np.ndarray) -> np.ndarray:
    """Network inputs: phases and powers divided by the document's own scaling."""
    s = doc["scaling"]
    return np.hstack([features[:, :SYMBOLS] / s["phase"], features[:, SYMBOLS:] / s["power"]])


def forward(doc: dict, inputs: np.ndarray) -> np.ndarray:
    """Forward pass of a model document: ReLU hidden layers, then its output head."""
    a = np.asarray(inputs, dtype=float)
    layers = list(zip(doc["weights"], doc["biases"]))
    for k, (w, b) in enumerate(layers):
        z = np.einsum("ni,io->no", a, np.asarray(w, dtype=float)) + np.asarray(b, dtype=float)
        if k < len(layers) - 1:
            a = np.where(z > 0.0, z, 0.0)
        elif doc["output_head"] == "softmax2":
            e = np.exp(z - z.max(axis=1, keepdims=True))
            a = e / e.sum(axis=1, keepdims=True)
        elif doc["output_head"] == "sigmoid-scalar":
            a = 1.0 / (1.0 + np.exp(-np.clip(z, -SIGMOID_CLIP, SIGMOID_CLIP)))
        else:
            raise ValueError(f"unknown output head {doc['output_head']!r}")
    return a


def held_out_indices(n: int, order: np.ndarray) -> np.ndarray:
    """Test half of a shuffled pool: everything after the first round(n / 2)."""
    return np.sort(order[int(round(n * 0.5)):])


def held_out_partitions(n_members: int, n_nonmembers: int, split_seed: int):
    """Member and nonmember test indices of the attack's train/test split."""
    rng = np.random.default_rng((split_seed, 0))
    member_order = rng.permutation(n_members)
    nonmember_order = rng.permutation(n_nonmembers)
    return (held_out_indices(n_members, member_order),
            held_out_indices(n_nonmembers, nonmember_order))


def recompute_counts(cell: Path, report: dict) -> list[list[int]]:
    """Confusion counts from the persisted surrogate, inference model and CSV rows."""
    surrogate = read_json(cell / "models" / "surrogate.json")
    mia_doc = read_json(cell / "models" / "mia.json")
    network, threshold = mia_doc["network"], float(mia_doc["decision_threshold"])
    members = read_features(cell / "datasets" / "member_eval.csv")
    nonmembers = read_features(cell / "datasets" / "nonmember_eval.csv")
    member_test, nonmember_test = held_out_partitions(
        len(members), len(nonmembers), int(report["seeds"]["split"]))

    def decisions(features):
        posterior = forward(surrogate, scale(surrogate, features))
        return forward(network, np.hstack([scale(network, features), posterior]))[:, 0] \
            > threshold

    mem = decisions(members[member_test])
    non = decisions(nonmembers[nonmember_test])
    return [[int((~non).sum()), int(non.sum())], [int((~mem).sum()), int(mem.sum())]]


def held_out_sizes(report: dict) -> tuple[int, int]:
    """(nonmember, member) test partition sizes from the report's configuration."""
    counts = report["config"]["counts"]
    return tuple(n - int(round(n * 0.5))
                 for n in (counts["nonmember_eval"], counts["member_eval"]))


def accuracy_from_counts(counts) -> float:
    """Mean of the per-class recalls of a 2x2 (true non-member, member) matrix."""
    (tn, fp), (fn, tp) = counts
    return (tn / (tn + fp) + tp / (fn + tp)) / 2.0


def confusion_problems(report: dict) -> list[str]:
    """Rows sum to the held-out sizes; rates and accuracy follow from the counts."""
    problems = []
    confusion = report["mia"]["confusion"]
    counts = confusion["counts"]
    sizes = held_out_sizes(report)
    if [sum(row) for row in counts] != list(sizes):
        problems.append(f"confusion rows {counts} do not sum to held-out sizes {sizes}")
        return problems
    rates = [[c / sum(row) for c in row] for row in counts]
    if confusion["rates"] != rates:
        problems.append(f"confusion rates {confusion['rates']} != counts/row sums {rates}")
    accuracy = accuracy_from_counts(counts)
    for where in (confusion["accuracy"], report["mia"]["accuracy"]):
        if where != accuracy:
            problems.append(f"reported accuracy {where} != mean recall {accuracy}")
    return problems


def classifier_problems(report: dict) -> list[str]:
    return [f"{role} test accuracy {report[role]['test_accuracy']} < "
            f"{MIN_CLASSIFIER_ACCURACY}"
            for role in ("target", "surrogate")
            if not report[role]["test_accuracy"] >= MIN_CLASSIFIER_ACCURACY]


def cell_problems(cell: Path) -> list[str]:
    """Every check on one persisted full-strong cell."""
    report = read_json(cell / "report.json")
    problems = confusion_problems(report)
    recomputed = recompute_counts(cell, report)
    if recomputed != report["mia"]["confusion"]["counts"]:
        problems.append(f"forward pass over persisted models gives counts {recomputed}, "
                        f"report has {report['mia']['confusion']['counts']}")
    if not report["mia"]["accuracy"] >= CELL_MIA_FLOOR:
        problems.append(f"MIA accuracy {report['mia']['accuracy']} < {CELL_MIA_FLOOR}")
    return problems


def cell_notes(report: dict) -> list[str]:
    """Acceptance limits one full-strong cell misses; see MIN_CLASSIFIER_ACCURACY."""
    notes = classifier_problems(report)
    if report["mia"]["accuracy"] > CRITERION_2_CEILING:
        notes.append(f"MIA accuracy {report['mia']['accuracy']} > {CRITERION_2_CEILING}")
    return notes


def evaluation_numbers(report: dict) -> dict:
    """The numbers reevaluate_artifacts must reproduce, read from report.json."""
    return {
        "target_train_accuracy": report["target"]["train_accuracy"],
        "target_test_accuracy": report["target"]["test_accuracy"],
        "surrogate_train_accuracy": report["surrogate"]["train_accuracy"],
        "surrogate_test_accuracy": report["surrogate"]["test_accuracy"],
        "mia_accuracy": report["mia"]["accuracy"],
        "mia_counts": report["mia"]["confusion"]["counts"],
        "paired_agreement": report["paired_agreement"],
        "unauthorized_grant_rate": report["unauthorized_grant_rate"],
    }


def reevaluation_problems(report: dict, numbers: dict) -> list[str]:
    expected = evaluation_numbers(report)
    return [f"reevaluated {key} {numbers.get(key)!r} != reported {value!r}"
            for key, value in expected.items() if numbers.get(key) != value]


def ordering_flags(medians: dict) -> dict:
    fs, spo = medians["full-strong"], medians["same-power"]
    sph, weak = medians["same-phase"], medians["weak-authorized"]
    return {
        "full_strong_gt_same_phase": fs > sph,
        "same_phase_gt_same_power": sph > spo,
        "same_power_gt_0.55": spo > 0.55,
        "weak_lt_full_strong": weak < fs,
    }


def matrix_problems(documents: list[dict], summary: dict, seeds: list[int]) -> list[str]:
    """Checks on the report documents and ordering summary of one run_all."""
    problems = []
    cells = sorted((d["scenario"], d["seed"]) for d in documents)
    expected = sorted((sc, s) for sc in SCENARIOS for s in seeds)
    if cells != expected:
        problems.append(f"cells {cells} are not every (scenario, seed) once")
    for doc in documents:
        problems += [f"{doc['scenario']}/{doc['seed']}: {p}" for p in confusion_problems(doc)]
    by_scenario = {}
    for doc in documents:
        by_scenario.setdefault(doc["scenario"], []).append(
            accuracy_from_counts(doc["mia"]["confusion"]["counts"]))
    medians = {sc: statistics.median(v) for sc, v in sorted(by_scenario.items())}
    if summary.get("median_accuracy") != medians:
        problems.append(f"summary medians {summary.get('median_accuracy')} != "
                        f"recomputed {medians}")
    if sorted(summary.get("seeds", [])) != sorted(seeds):
        problems.append(f"summary seeds {summary.get('seeds')} != {seeds}")
    if set(medians) == set(SCENARIOS) and summary.get("orderings") != ordering_flags(medians):
        problems.append(f"summary orderings {summary.get('orderings')} != "
                        f"recomputed {ordering_flags(medians)}")
    return problems


def matrix_notes(documents: list[dict]) -> list[str]:
    """Classifier floors the matrix's full-strong cells miss; see MIN_CLASSIFIER_ACCURACY."""
    return [f"full-strong/{doc['seed']}: {note}" for doc in documents
            if doc["scenario"] == "full-strong" for note in classifier_problems(doc)]
