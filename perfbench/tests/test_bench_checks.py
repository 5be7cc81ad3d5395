"""Each correctness check passes on a clean output and rejects a corrupted one."""

import copy
import json

from airbench import checks


def _report(cell):
    return json.loads((cell / "report.json").read_text())


def _write_report(cell, report):
    (cell / "report.json").write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")


def test_clean_cell_passes_the_output_checks(small_cell):
    report = _report(small_cell)
    assert checks.recompute_counts(small_cell, report) == report["mia"]["confusion"]["counts"]
    assert checks.confusion_problems(report) == []
    assert checks.reevaluation_problems(report, checks.evaluation_numbers(report)) == []


def test_altered_confusion_count_is_rejected(cell_copy):
    report = _report(cell_copy)
    report["mia"]["confusion"]["counts"][0][0] += 1
    _write_report(cell_copy, report)
    problems = checks.cell_problems(cell_copy)
    assert any("do not sum" in p for p in problems)
    assert any("forward pass" in p for p in problems)


def test_count_moved_between_columns_is_rejected(cell_copy):
    report = _report(cell_copy)
    counts = report["mia"]["confusion"]["counts"]
    src = 0 if counts[1][0] > 0 else 1
    counts[1][src] -= 1
    counts[1][1 - src] += 1
    _write_report(cell_copy, report)
    problems = checks.cell_problems(cell_copy)
    assert any("forward pass" in p for p in problems)
    assert any("rates" in p for p in problems)
    assert any("mean recall" in p for p in problems)


def test_swapped_model_file_is_rejected(cell_copy):
    models = cell_copy / "models"
    target, surrogate = (models / "target.json").read_bytes(), (
        models / "surrogate.json").read_bytes()
    (models / "surrogate.json").write_bytes(target)
    (models / "target.json").write_bytes(surrogate)
    assert any("forward pass" in p for p in checks.cell_problems(cell_copy))


def test_shifted_inference_threshold_is_rejected(cell_copy):
    path = cell_copy / "models" / "mia.json"
    doc = json.loads(path.read_text())
    doc["network"]["biases"][-1] = [b + 50.0 for b in doc["network"]["biases"][-1]]
    path.write_text(json.dumps(doc))
    assert any("forward pass" in p for p in checks.cell_problems(cell_copy))


def test_acceptance_floors_are_noted_not_failed():
    report = {"target": {"test_accuracy": 0.97}, "surrogate": {"test_accuracy": 1.0},
              "mia": {"accuracy": 0.96}}
    assert len(checks.cell_notes(report)) == 2
    report["target"]["test_accuracy"] = 0.98
    report["mia"]["accuracy"] = 0.95
    assert checks.cell_notes(report) == []
    doc = {"scenario": "full-strong", "seed": 21, **report}
    doc["target"] = {"test_accuracy": 0.9603}
    assert checks.matrix_notes([doc, {**doc, "scenario": "same-power"}]) == [
        "full-strong/21: target test accuracy 0.9603 < 0.98"]


def test_mia_accuracy_at_chance_is_rejected(cell_copy):
    path = cell_copy / "report.json"
    report = json.loads(path.read_text())
    report["mia"]["accuracy"] = 0.5
    path.write_text(json.dumps(report))
    assert any("< 0.6" in p for p in checks.cell_problems(cell_copy))


def test_reevaluation_mismatch_is_rejected(small_cell):
    report = _report(small_cell)
    numbers = checks.evaluation_numbers(report)
    numbers["paired_agreement"] += 1e-12
    assert len(checks.reevaluation_problems(report, numbers)) == 1


def test_clean_matrix_passes(small_matrix):
    documents, summary = small_matrix
    assert checks.matrix_problems(documents, summary, [31, 32, 33]) == []


def test_matrix_missing_or_duplicated_cell_is_rejected(small_matrix):
    documents, summary = small_matrix
    assert any("every (scenario, seed)" in p
               for p in checks.matrix_problems(documents[1:], summary, [31, 32, 33]))
    doubled = documents[:-1] + [documents[0]]
    assert any("every (scenario, seed)" in p
               for p in checks.matrix_problems(doubled, summary, [31, 32, 33]))


def test_matrix_summary_mismatch_is_rejected(small_matrix):
    documents, summary = small_matrix
    bad = copy.deepcopy(summary)
    bad["median_accuracy"]["same-power"] += 0.001
    assert any("medians" in p for p in checks.matrix_problems(documents, bad, [31, 32, 33]))
    bad = copy.deepcopy(summary)
    bad["orderings"]["weak_lt_full_strong"] = not bad["orderings"]["weak_lt_full_strong"]
    assert any("orderings" in p for p in checks.matrix_problems(documents, bad, [31, 32, 33]))


def test_matrix_broken_confusion_arithmetic_is_rejected(small_matrix):
    documents, summary = small_matrix
    bad = copy.deepcopy(documents)
    bad[5]["mia"]["accuracy"] += 0.01
    assert any("mean recall" in p for p in checks.matrix_problems(bad, summary, [31, 32, 33]))
