"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria 1-6 share one session-scoped matrix of all four scenarios at seeds
1..5 with the shipped defaults; 11-12 share one persisted full-strong seed-7
run driven through the CLI. Run with `pytest tests/test_acceptance.py -v -s`.
"""

import math
import statistics
from dataclasses import replace

import numpy as np

from airmia import classify, harness, mia, scenarios
from airmia.cli import dispatch
from airmia.scenarios import Scenario
from airmia.tinynn import OutputHead, TrainHyper, init_network
from conftest import grad_check, sample_checkable_network

REFERENCE_STRONG_RATES = [[0.9152, 0.0848], [0.1429, 0.8571]]
REFERENCE_WEAK_RATES = [[0.9129, 0.0871], [0.3728, 0.6272]]


def _criterion(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\n[acceptance] criterion {number:2d} {status}: {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def _scenario_reports(matrix, scenario):
    return [r for r in matrix["reports"] if r.config.scenario is scenario]


def _median_accuracy(matrix, scenario):
    return statistics.median(r.mia_accuracy for r in _scenario_reports(matrix, scenario))


def test_criterion_01_classifier_fidelity(acceptance_matrix):
    reports = _scenario_reports(acceptance_matrix, Scenario.FULL_STRONG)
    worst_target = min(r.target_report.test_accuracy for r in reports)
    worst_surrogate = min(r.surrogate_report.test_accuracy for r in reports)
    slowest = max(max(r.target_report.train_seconds, r.surrogate_report.train_seconds)
                  for r in reports)
    ok = worst_target >= 0.98 and worst_surrogate >= 0.98 and slowest < 60.0
    _criterion(1, ok, f"full-strong test accuracy target >= {worst_target:.4f}, "
                      f"surrogate >= {worst_surrogate:.4f}, slowest training "
                      f"{slowest:.1f}s < 60s")


def test_criterion_02_full_strong_band(acceptance_matrix):
    reports = _scenario_reports(acceptance_matrix, Scenario.FULL_STRONG)
    med = _median_accuracy(acceptance_matrix, Scenario.FULL_STRONG)
    member_recall = statistics.median(r.evaluation.confusion.rates[1, 1] for r in reports)
    nonmember_recall = statistics.median(r.evaluation.confusion.rates[0, 0] for r in reports)
    ok = 0.80 <= med <= 0.95 and member_recall > 0.70 and nonmember_recall > 0.70
    _criterion(2, ok, f"full-strong median accuracy {med:.4f} in [0.80, 0.95], "
                      f"median recalls member {member_recall:.4f} / "
                      f"non-member {nonmember_recall:.4f} > 0.70")


def test_criterion_03_same_power_band(acceptance_matrix):
    med = _median_accuracy(acceptance_matrix, Scenario.SAME_POWER)
    _criterion(3, 0.55 <= med <= 0.72,
               f"same-power median accuracy {med:.4f} in [0.55, 0.72]")


def test_criterion_04_same_phase_band(acceptance_matrix):
    med = _median_accuracy(acceptance_matrix, Scenario.SAME_PHASE)
    _criterion(4, 0.63 <= med <= 0.80,
               f"same-phase median accuracy {med:.4f} in [0.63, 0.80]")


def test_criterion_05_weak_authorized_band(acceptance_matrix):
    med = _median_accuracy(acceptance_matrix, Scenario.WEAK_AUTHORIZED)
    _criterion(5, 0.68 <= med <= 0.85,
               f"weak-authorized median accuracy {med:.4f} in [0.68, 0.85]")


def test_criterion_06_scenario_ordering(acceptance_matrix):
    med = {s: _median_accuracy(acceptance_matrix, s) for s in harness.ALL_SCENARIOS}
    fs, spo = med[Scenario.FULL_STRONG], med[Scenario.SAME_POWER]
    sph, weak = med[Scenario.SAME_PHASE], med[Scenario.WEAK_AUTHORIZED]
    ok = fs > sph > spo > 0.55 and weak < fs
    summary = acceptance_matrix["summary"]["orderings"]
    ok = ok and all(summary.values())
    _criterion(6, ok, f"medians full-strong {fs:.4f} > same-phase {sph:.4f} "
                      f"> same-power {spo:.4f} > 0.55, weak {weak:.4f} < full-strong")


def test_criterion_07_gain_objective_oracle():
    constant = mia.empirical_gain(np.full(13, 0.5), np.full(8, 0.5))
    hand = mia.empirical_gain([0.9], [0.2])
    ok = abs(constant - math.log(0.5)) <= 1e-12 and abs(hand - (-0.16425)) <= 1e-5
    _criterion(7, ok, f"constant-0.5 gain {constant!r} = ln 0.5 to 1e-12; "
                      f"hand example {hand:.6f} = -0.16425 +- 1e-5")


def test_criterion_08_accuracy_arithmetic_oracle():
    strong = mia.accuracy_from_rates(REFERENCE_STRONG_RATES)
    weak = mia.accuracy_from_rates(REFERENCE_WEAK_RATES)
    ok = abs(strong - 0.8862) <= 5e-5 and abs(weak - 0.7701) <= 5e-5
    _criterion(8, ok, f"reference strong rates -> {strong:.5f} (0.8862 +- 5e-5), "
                      f"reference weak rates -> {weak:.5f} (0.7701 +- 5e-5)")


def test_criterion_09_gradient_correctness():
    rng = np.random.default_rng(1234)
    worst = 0.0
    for head in (OutputHead.SOFTMAX2, OutputHead.SIGMOID_SCALAR):
        for _ in range(20):
            net, x = sample_checkable_network(rng, head)
            err = grad_check(net, x, int(rng.integers(0, 2)), epsilon=1e-5)
            worst = max(worst, err)
    _criterion(9, worst < 1e-4,
               f"max relative gradient error {worst:.2e} < 1e-4 over 20 networks per head")


def test_criterion_10_null_attack_control():
    accuracies = []
    for seed in (101, 102, 103, 104, 105):
        # member_eval at the class-1 training count is every class-1 adversary view
        counts = scenarios.ScenarioCounts()
        config = scenarios.ScenarioConfig(
            scenario=Scenario.FULL_STRONG, seed=seed,
            counts=replace(counts, member_eval=counts.provider_train // 2))
        bundle = scenarios.generate_scenario_data(config)
        pool = bundle.member_eval
        order = np.random.default_rng((seed, 99)).permutation(len(pool))
        members = pool.take(order[:1000])
        nonmembers = pool.take(order[1000:2000])
        # fixed random feature map; both sets come from one distribution
        surrogate = init_network(classify.CLASSIFIER_DIMS, OutputHead.SOFTMAX2, seed)
        ds = mia.split_membership(members, nonmembers, seed=seed)
        model, _ = mia.train_mia(surrogate, ds, TrainHyper(epochs=200, seed=seed))
        cm = mia.evaluate_mia(model, surrogate,
                              ds.members.take(ds.member_test_idx),
                              ds.nonmembers.take(ds.nonmember_test_idx))
        accuracies.append(cm.accuracy)
    ok = all(0.45 <= a <= 0.55 for a in accuracies)
    _criterion(10, ok, "null-attack accuracies "
               + ", ".join(f"{a:.3f}" for a in accuracies) + " all in [0.45, 0.55]")


def test_criterion_11_run_determinism(fullstrong_seed7_cell, tmp_path):
    status = dispatch(["run", "--scenario", "full-strong", "--seed", "7",
                       "--out", str(tmp_path)])
    assert status == 0
    first = (fullstrong_seed7_cell / "report.json").read_bytes()
    second = (tmp_path / "full-strong" / "7" / "report.json").read_bytes()
    _criterion(11, first == second,
               f"two CLI runs of full-strong seed 7 wrote byte-identical "
               f"report.json ({len(first)} bytes)")


def test_criterion_12_persistence_fidelity(fullstrong_seed7_cell):
    report = harness.load_report_file(fullstrong_seed7_cell / "report.json")
    expected = harness.evaluation_numbers(report)
    recomputed = harness.reevaluate_artifacts(fullstrong_seed7_cell)
    mismatches = {k: (expected[k], recomputed[k]) for k in expected
                  if expected[k] != recomputed[k]}
    _criterion(12, not mismatches,
               "reloaded artifacts reproduce every evaluation number exactly"
               + ("" if not mismatches else f"; mismatches: {mismatches}"))


class TestDeskScaleInvariants:
    """Module invariants that need full-scale runs; they share the fixtures."""

    def test_classifier_accuracy_floors(self, acceptance_matrix):
        for r in _scenario_reports(acceptance_matrix, Scenario.FULL_STRONG):
            assert r.target_report.test_accuracy >= 0.98
            assert r.surrogate_report.test_accuracy >= 0.98
        for r in _scenario_reports(acceptance_matrix, Scenario.WEAK_AUTHORIZED):
            assert r.target_report.test_accuracy >= 0.90
            assert r.surrogate_report.test_accuracy >= 0.90

    def test_target_fits_its_training_data(self, acceptance_matrix):
        for r in _scenario_reports(acceptance_matrix, Scenario.FULL_STRONG):
            assert r.target_report.train_accuracy >= 0.99
            assert r.target_report.loss_history[-1] < r.target_report.loss_history[0]

    def test_paired_label_agreement_strong(self, acceptance_matrix):
        agreements = [r.evaluation.paired_agreement
                      for r in _scenario_reports(acceptance_matrix, Scenario.FULL_STRONG)]
        assert min(agreements) >= 0.95
        assert statistics.median(agreements) >= 0.98

    def test_dataset_budgets_match_protocol(self, acceptance_matrix):
        for r in acceptance_matrix["reports"]:
            assert r.target_report.dataset_sizes == {"train": 8000, "test": 10000}
            assert r.surrogate_report.dataset_sizes == {"train": 1000, "test": 10000}
            # 500 members + 500 nonmembers held out
            assert r.evaluation.confusion.counts.sum() == 1000

    def test_gain_history_rises_at_desk_scale(self, fullstrong_seed7_cell):
        # minibatch ascent oscillates; require a clear overall rise with
        # dips small relative to it rather than a strictly monotone average
        report = harness.load_report_file(fullstrong_seed7_cell / "report.json")
        train = np.asarray(report.gain_history["train"])
        ma = np.convolve(train, np.ones(5) / 5, mode="valid")
        rise = ma[-1] - ma[0]
        assert rise > 0.05
        assert np.diff(ma).min() > -0.1 * rise

    def test_unauthorized_grant_rate_recorded(self, acceptance_matrix):
        for r in acceptance_matrix["reports"]:
            assert 0.0 <= r.evaluation.unauthorized_grant_rate <= 1.0
