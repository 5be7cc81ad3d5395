import math

import numpy as np
import pytest

from airmia import classify, mia
from airmia.errors import ArtifactError, InvalidConfigError, InvalidInputError
from airmia.rfsim import SignalSample
from airmia.tinynn import OutputHead, TrainHyper, init_network
from conftest import small_config

REFERENCE_STRONG_RATES = [[0.9152, 0.0848], [0.1429, 0.8571]]
REFERENCE_WEAK_RATES = [[0.9129, 0.0871], [0.3728, 0.6272]]


def zero_mia_model():
    net = init_network(mia.MIA_DIMS, OutputHead.SIGMOID_SCALAR, 0)
    for w in net.weights:
        w[:] = 0.0
    return mia.MiaModel(network=net)


def random_surrogate(seed=0):
    return init_network(classify.CLASSIFIER_DIMS, OutputHead.SOFTMAX2, seed)


class TestMiaInput:
    def test_shape_and_posterior_tail(self, small_bundle, small_classifiers):
        surrogate = small_classifiers["surrogate"]
        vec = mia.mia_inputs([small_bundle.member_eval[0]], surrogate)[0]
        assert vec.shape == (34,)
        assert abs(vec[32] + vec[33] - 1.0) < 1e-12
        feats = classify.sample_features(small_bundle.member_eval[0])
        assert np.array_equal(vec[:32], feats)

    def test_identical_features_identical_input(self, small_bundle, small_classifiers):
        s = small_bundle.member_eval[0]
        twin = SignalSample(phases=s.phases.copy(), powers=s.powers.copy(),
                            class_label=s.class_label, tx_id=s.tx_id,
                            member=False, view=s.view)
        surrogate = small_classifiers["surrogate"]
        assert np.array_equal(mia.mia_inputs([s], surrogate), mia.mia_inputs([twin], surrogate))

    def test_wrong_network_shape_rejected(self):
        with pytest.raises(InvalidInputError):
            mia.MiaModel(network=init_network([10, 4, 1], OutputHead.SIGMOID_SCALAR, 0))
        with pytest.raises(InvalidInputError):
            mia.MiaModel(network=init_network([34, 4, 2], OutputHead.SOFTMAX2, 0))


class TestEmpiricalGain:
    def test_constant_half_model(self):
        gain = mia.empirical_gain(np.full(10, 0.5), np.full(7, 0.5))
        assert abs(gain - math.log(0.5)) < 1e-12

    def test_two_sample_hand_example(self):
        # 1/2 ln 0.9 + 1/2 ln 0.8, evaluated independently
        gain = mia.empirical_gain([0.9], [0.2])
        hand = 0.5 * math.log(0.9) + 0.5 * math.log(0.8)
        assert abs(gain - hand) < 1e-15
        assert abs(gain - (-0.16425)) <= 1e-5

    def test_perfect_separator_reaches_zero(self):
        assert mia.empirical_gain([1.0, 1.0], [0.0]) == 0.0

    def test_empty_sets_rejected(self):
        with pytest.raises(InvalidInputError):
            mia.empirical_gain([], [0.5])
        with pytest.raises(InvalidInputError):
            mia.empirical_gain([0.5], [])

    def test_gain_never_positive(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            m = rng.uniform(0, 1, size=rng.integers(1, 40))
            nm = rng.uniform(0, 1, size=rng.integers(1, 40))
            assert mia.empirical_gain(m, nm) <= 0.0

    def test_constant_model_grid_maximized_at_half(self):
        # G(c) = 1/2 ln c + 1/2 ln(1 - c) peaks at c = 0.5
        grid = np.linspace(0.01, 0.99, 99)
        values = [mia.empirical_gain(np.full(5, c), np.full(5, c)) for c in grid]
        assert grid[int(np.argmax(values))] == pytest.approx(0.5, abs=1e-9)
        assert max(values) == pytest.approx(math.log(0.5), abs=1e-9)

    def test_balance_symmetry(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            m = rng.uniform(0.01, 0.99, size=8)
            nm = rng.uniform(0.01, 0.99, size=13)
            direct = mia.empirical_gain(m, nm)
            swapped = mia.empirical_gain(1.0 - nm, 1.0 - m)
            assert abs(direct - swapped) < 1e-12


class TestSplitMembership:
    def test_partitions_disjoint_exhaustive(self, small_bundle):
        ds = mia.split_membership(small_bundle.member_eval,
                                  small_bundle.nonmember_eval, seed=3)
        for train, test, pool in (
                (ds.member_train_idx, ds.member_test_idx, ds.members),
                (ds.nonmember_train_idx, ds.nonmember_test_idx, ds.nonmembers)):
            assert len(set(train) & set(test)) == 0
            assert len(train) + len(test) == len(pool)
            assert len(train) == len(pool) // 2

    def test_overlap_detected(self, small_bundle):
        with pytest.raises(InvalidConfigError, match="overlap"):
            mia.split_membership(small_bundle.member_eval,
                                 small_bundle.member_eval, seed=0)

    def test_overlap_escape_hatch(self, small_bundle):
        ds = mia.split_membership(small_bundle.member_eval,
                                  small_bundle.member_eval, seed=0,
                                  allow_overlap=True)
        assert len(ds.members) == len(ds.nonmembers)


class TestTrainMia:
    def test_identical_sets_drive_output_to_half(self, small_bundle):
        # D^A = D-bar^A: the same finite set on both sides, so every training
        # sample carries both targets and the optimum is the constant 0.5
        members = small_bundle.member_eval[:40]
        surrogate = random_surrogate(3)
        idx = np.arange(len(members))
        ds = mia.MembershipDataset(
            members=members, nonmembers=list(members),
            member_train_idx=idx[:20], member_test_idx=idx[20:],
            nonmember_train_idx=idx[:20].copy(), nonmember_test_idx=idx[20:].copy(),
            allow_overlap=True)
        model, _ = mia.train_mia(surrogate, ds, TrainHyper(epochs=200, seed=5))
        probs = mia.membership_probabilities(model, surrogate, members)
        assert np.abs(probs - 0.5).mean() < 0.05

    def test_gain_history_shape_and_overall_increase(self, small_bundle, small_classifiers):
        # strict 5-epoch moving-average check runs at desk scale in acceptance
        ds = mia.split_membership(small_bundle.member_eval,
                                  small_bundle.nonmember_eval, seed=7)
        _, history = mia.train_mia(small_classifiers["surrogate"], ds,
                                   TrainHyper(epochs=60, seed=7))
        train = np.asarray(history["train"])
        assert len(train) == 60 and len(history["test"]) == 60
        assert (train <= 0).all()
        ma = np.convolve(train, np.ones(5) / 5, mode="valid")
        assert ma[-1] > ma[0]
        assert (np.diff(ma) >= -2e-3).all()

    def test_degenerate_split_rejected(self, small_bundle):
        ds = mia.split_membership(small_bundle.member_eval,
                                  small_bundle.nonmember_eval, seed=3)
        broken = mia.MembershipDataset(
            members=ds.members, nonmembers=ds.nonmembers,
            member_train_idx=np.arange(len(ds.members)),
            member_test_idx=np.arange(0),
            nonmember_train_idx=ds.nonmember_train_idx,
            nonmember_test_idx=ds.nonmember_test_idx)
        with pytest.raises(InvalidConfigError, match="empty member test"):
            mia.train_mia(random_surrogate(), broken, TrainHyper(epochs=1))


class TestInferMembership:
    def test_zero_model_is_fail_closed(self, small_bundle):
        surrogate = random_surrogate()
        model = zero_mia_model()
        prob = mia.membership_probabilities(model, surrogate, small_bundle.member_eval[:1])[0]
        decision = bool(prob > model.decision_threshold)
        assert prob == 0.5 and decision is False

    def test_probability_strictly_inside_unit_interval(self, small_bundle):
        surrogate = random_surrogate(1)
        model = mia.MiaModel(network=init_network(mia.MIA_DIMS,
                                                  OutputHead.SIGMOID_SCALAR, 2))
        probs = mia.membership_probabilities(model, surrogate, small_bundle.nonmember_eval[:30])
        for prob in probs:
            decision = prob > model.decision_threshold
            assert 0.0 < prob < 1.0
            assert decision == (prob > 0.5)


class TestEvaluateMia:
    def test_counts_from_known_decisions(self, small_bundle):
        model = zero_mia_model()  # prob 0.5 everywhere -> everything non-member
        surrogate = random_surrogate()
        cm = mia.evaluate_mia(model, surrogate, small_bundle.member_eval[:10],
                              small_bundle.nonmember_eval[:20])
        assert cm.counts.tolist() == [[20, 0], [10, 0]]
        assert cm.accuracy == 0.5

    def test_rates_rows_sum_to_one(self, small_bundle, small_classifiers):
        ds = mia.split_membership(small_bundle.member_eval,
                                  small_bundle.nonmember_eval, seed=1)
        model, _ = mia.train_mia(small_classifiers["surrogate"], ds,
                                 TrainHyper(epochs=20, seed=1))
        cm = mia.evaluate_mia(model, small_classifiers["surrogate"],
                              [ds.members[i] for i in ds.member_test_idx],
                              [ds.nonmembers[i] for i in ds.nonmember_test_idx])
        assert np.abs(cm.rates.sum(axis=1) - 1.0).max() < 1e-9
        assert cm.accuracy == (cm.rates[0, 0] + cm.rates[1, 1]) / 2

    def test_empty_partition_rejected(self, small_bundle):
        with pytest.raises(InvalidInputError):
            mia.evaluate_mia(zero_mia_model(), random_surrogate(),
                             [], small_bundle.nonmember_eval[:5])

    def test_reference_rate_arithmetic(self):
        assert abs(mia.accuracy_from_rates(REFERENCE_STRONG_RATES) - 0.8862) <= 5e-5
        assert abs(mia.accuracy_from_rates(REFERENCE_WEAK_RATES) - 0.7701) <= 5e-5

    def test_coin_flip_predictor_near_half(self):
        rng = np.random.default_rng(9)
        accs = []
        for _ in range(20):
            non_pred = rng.integers(0, 2, size=1000).astype(bool)
            mem_pred = rng.integers(0, 2, size=1000).astype(bool)
            counts = [[int((~non_pred).sum()), int(non_pred.sum())],
                      [int((~mem_pred).sum()), int(mem_pred.sum())]]
            accs.append(mia.ConfusionMatrix.from_counts(counts).accuracy)
        assert all(0.45 < a < 0.55 for a in accs)

    def test_confusion_csv_layout(self):
        cm = mia.ConfusionMatrix.from_counts([[9152, 848], [1429, 8571]])
        text = cm.to_csv_text()
        lines = text.strip().split("\n")
        assert lines[0] == "real\\predicted,non-member,member"
        assert lines[1].startswith("non-member,0.9152")
        assert lines[2].startswith("member,0.1429")


class TestMiaModelPersistence:
    def test_round_trip(self, tmp_path):
        model = mia.MiaModel(network=init_network(mia.MIA_DIMS,
                                                  OutputHead.SIGMOID_SCALAR, 4))
        path = tmp_path / "mia.json"
        mia.save_mia_model(model, path)
        back = mia.load_mia_model(path)
        assert back.decision_threshold == 0.5
        assert all(np.array_equal(a, b) for a, b in
                   zip(model.network.weights, back.network.weights))

    def test_unknown_version_rejected(self, tmp_path):
        model = mia.MiaModel(network=init_network(mia.MIA_DIMS,
                                                  OutputHead.SIGMOID_SCALAR, 4))
        path = tmp_path / "mia.json"
        mia.save_mia_model(model, path)
        import json as _json
        doc = _json.loads(path.read_text())
        doc["version"] = "7"
        path.write_text(_json.dumps(doc))
        with pytest.raises(ArtifactError, match="version"):
            mia.load_mia_model(path)


class TestNullAttackSmallScale:
    def test_same_distribution_sets_give_chance_accuracy(self):
        # members and "nonmembers" drawn from one pool: no privacy signal
        from airmia.scenarios import generate_scenario_data

        config = small_config(seed=21)
        bundle = generate_scenario_data(config)
        pool = [p.adversary_view for p in bundle.train_pairs_class1]
        members, nonmembers = pool[:60], pool[60:120]
        surrogate = random_surrogate(8)
        ds = mia.split_membership(members, nonmembers, seed=8, allow_overlap=True)
        model, _ = mia.train_mia(surrogate, ds, TrainHyper(epochs=60, seed=8))
        cm = mia.evaluate_mia(model, surrogate,
                              [ds.members[i] for i in ds.member_test_idx],
                              [ds.nonmembers[i] for i in ds.nonmember_test_idx])
        assert 0.3 <= cm.accuracy <= 0.7  # small-n sanity; full check in acceptance
