import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from airmia import classify, mia, tinynn
from airmia.errors import ArtifactError, InvalidConfigError, InvalidInputError
from airmia.tinynn import SIGMOID_Z_CLIP, OutputHead, TrainHyper, init_network
from conftest import _head_loss_and_grad, small_config

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
        first = small_bundle.member_eval.take([0])
        vec = mia.mia_inputs(first, surrogate)[0]
        assert vec.shape == (34,)
        assert abs(vec[32] + vec[33] - 1.0) < 1e-12
        feats = classify.features_matrix(first)[0]
        assert np.array_equal(vec[:32], feats)

    def test_identical_features_identical_input(self, small_bundle, small_classifiers):
        s = small_bundle.member_eval.take([0])
        twin = dataclasses.replace(s, phases=s.phases.copy(), powers=s.powers.copy(),
                                   member=False)
        surrogate = small_classifiers["surrogate"]
        assert np.array_equal(mia.mia_inputs(s, surrogate), mia.mia_inputs(twin, surrogate))

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


class TestGainLogitGrad:
    """mia.gain_logit_grad against the criterion-9 oracle, one row at a time."""

    # pre-activations inside the clip, past |z| = 30, and where the floor binds:
    # a member's m <= 1e-12 from z = -27.7; a nonmember's 1 - m <= 1e-12 from
    # z = 27.7 in float64 and from z = 16.7 in float32, where m rounds to 1.0
    LOGITS = [-45.0, -31.0, -30.0, -29.9, -28.0, -5.0, 0.0, 0.3, 2.0, 16.0, 17.0,
              28.0, 29.9, 30.0, 31.0, 45.0]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_rows_equal_the_oracle_times_weight_over_n(self, dtype):
        # z = x through one unit weight, so each row's logit is its input
        net = tinynn.DenseNetwork(layer_dims=[1, 1], params=np.array([1.0, 0.0], dtype),
                                  output_head=OutputHead.SIGMOID_SCALAR)
        x = np.array(self.LOGITS, dtype)[:, None]
        out, (_, pre_acts) = tinynn.forward_batch(net, x)
        n = len(x)
        floor_zeros = {True: 0, False: 0}
        for is_member in (np.arange(n) % 2 == 0, np.arange(n) % 2 == 1,
                          np.ones(n, bool), np.zeros(n, bool)):
            weights = np.where(is_member, 0.75, 1.5)
            g = mia.gain_logit_grad(out, pre_acts[-1], is_member, weights)
            assert g.dtype == dtype and g.shape == (n, 1)
            for i in range(n):
                _, _, oracle = _head_loss_and_grad(net, x[i], int(is_member[i]))
                assert g[i, 0] == oracle[0, 0] * dtype(weights[i]) / dtype(n), (i, is_member[i])
                if oracle[0, 0] == 0 and abs(self.LOGITS[i]) < SIGMOID_Z_CLIP:
                    floor_zeros[bool(is_member[i])] += 1
        # the floor binds inside the clip on each side
        assert floor_zeros[True] > 0 and floor_zeros[False] > 0


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

    @pytest.mark.parametrize("side", ["member", "nonmember"])
    @pytest.mark.parametrize("part", ["train", "test"])
    def test_each_empty_partition_rejected_at_construction(self, small_bundle, side, part):
        ds = mia.split_membership(small_bundle.member_eval,
                                  small_bundle.nonmember_eval, seed=3)
        pool = ds.members if side == "member" else ds.nonmembers
        everything, nothing = np.arange(len(pool)), np.arange(0)
        fields = {f"{side}_train_idx": nothing if part == "train" else everything,
                  f"{side}_test_idx": nothing if part == "test" else everything}
        with pytest.raises(InvalidConfigError,
                           match=f"degenerate split: empty {side} {part} partition"):
            dataclasses.replace(ds, **fields)

    def test_overlap_detected(self, small_bundle):
        with pytest.raises(InvalidConfigError, match="overlap"):
            mia.split_membership(small_bundle.member_eval,
                                 small_bundle.member_eval, seed=0)

    def test_overlap_of_one_row_detected(self, small_bundle):
        # disjoint tables but for one nonmember row copied from a member row
        members = small_bundle.member_eval
        nonmembers = dataclasses.replace(
            small_bundle.nonmember_eval,
            phases=np.vstack([small_bundle.nonmember_eval.phases[:-1], members.phases[7:8]]),
            powers=np.vstack([small_bundle.nonmember_eval.powers[:-1], members.powers[7:8]]))
        with pytest.raises(InvalidConfigError, match="member and nonmember sets overlap"):
            mia.split_membership(members, nonmembers, seed=0)


class TestTrainMia:
    def test_identical_sets_drive_output_to_half(self, small_bundle):
        # D^A = D-bar^A: the same finite set on both sides, so every training
        # sample carries both targets and the optimum is the constant 0.5
        members = small_bundle.member_eval.take(np.s_[:40])
        surrogate = random_surrogate(3)
        idx = np.arange(len(members))
        ds = mia.MembershipDataset(
            members=members, nonmembers=members,
            member_train_idx=idx[:20], member_test_idx=idx[20:],
            nonmember_train_idx=idx[:20].copy(), nonmember_test_idx=idx[20:].copy())
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

    def test_logit_gradient_is_the_weighted_gain_derivative(self, small_bundle, monkeypatch):
        # d(-G)/dz per row: (m - 1) w / B for a member, m w / B for a nonmember,
        # with side weight w = n_train / (2 n_side) and batch size B, on float32 batches
        ds = mia.split_membership(small_bundle.member_eval.take(np.s_[:40]),
                                  small_bundle.nonmember_eval, seed=2)
        surrogate = random_surrogate(4)
        member_rows = {row.tobytes()
                       for row in mia.mia_inputs(ds.members, surrogate).astype(np.float32)}
        n_mem, n_non = len(ds.member_train_idx), len(ds.nonmember_train_idx)
        w_mem, w_non = (n_mem + n_non) / (2 * n_mem), (n_mem + n_non) / (2 * n_non)
        steps = []
        real_backward = tinynn.backward

        def recording_backward(net, cache, grad_logits, *space):
            # copies: the step's workspace is overwritten by the next step
            steps.append((cache[0][0].copy(), cache[0][-1][:, 0].copy(), grad_logits))
            return real_backward(net, cache, grad_logits, *space)

        monkeypatch.setattr(tinynn, "backward", recording_backward)
        mia.train_mia(surrogate, ds, TrainHyper(epochs=2, batch_size=16, seed=2))
        assert len(steps) == 2 * math.ceil((n_mem + n_non) / 16)
        members_seen = 0
        for x, m, grad in steps:
            assert grad.dtype == x.dtype == np.float32 and grad.shape == (len(x), 1)
            member = np.array([row.tobytes() in member_rows for row in x])
            members_seen += int(member.sum())
            expected = (m.astype(float) - member) * np.where(member, w_mem, w_non) / len(x)
            np.testing.assert_allclose(grad[:, 0], expected, rtol=1e-6, atol=0)
        assert members_seen == 2 * n_mem

    def test_all_training_runs_in_float32_and_writes_back_float64(self, small_bundle,
                                                                  monkeypatch):
        seen = set()
        real_adam = tinynn.adam_step

        def traced_adam(net, grads, state):
            seen.update(a.dtype for a in (net.params, grads, state.first_moment))
            return real_adam(net, grads, state)

        monkeypatch.setattr(tinynn, "adam_step", traced_adam)
        ds = mia.split_membership(small_bundle.member_eval, small_bundle.nonmember_eval, seed=4)
        surrogate = random_surrogate(5)
        model, history = mia.train_mia(surrogate, ds, TrainHyper(epochs=5, seed=4))
        assert seen == {np.dtype(np.float32)}
        params = model.network.params
        assert params.dtype == np.float64
        assert np.array_equal(params.astype(np.float32).astype(np.float64), params)
        # the gains score the float32 training copy on the float32-rounded inputs
        work = tinynn.DenseNetwork(layer_dims=mia.MIA_DIMS, params=params.astype(np.float32),
                                   output_head=OutputHead.SIGMOID_SCALAR)

        def probs(samples):
            x = tinynn.training_inputs(mia.mia_inputs(samples, surrogate))
            return tinynn.infer(work, x)[:, 0]

        mem, non = probs(ds.members), probs(ds.nonmembers)
        assert history["train"][-1] == mia.empirical_gain(mem[ds.member_train_idx],
                                                          non[ds.nonmember_train_idx])
        assert history["test"][-1] == mia.empirical_gain(mem[ds.member_test_idx],
                                                         non[ds.nonmember_test_idx])

    def test_non_finite_training_names_the_epoch(self, small_bundle):
        ds = mia.split_membership(small_bundle.member_eval, small_bundle.nonmember_eval, seed=1)
        with pytest.raises(InvalidInputError, match=r"non-finite gain .* after epoch \d"):
            mia.train_mia(random_surrogate(), ds,
                          TrainHyper(epochs=3, learning_rate=1e300, seed=1))

    def test_degenerate_split_rejected(self, small_bundle):
        ds = mia.split_membership(small_bundle.member_eval,
                                  small_bundle.nonmember_eval, seed=3)
        with pytest.raises(InvalidConfigError, match="empty member test"):
            mia.MembershipDataset(
                members=ds.members, nonmembers=ds.nonmembers,
                member_train_idx=np.arange(len(ds.members)),
                member_test_idx=np.arange(0),
                nonmember_train_idx=ds.nonmember_train_idx,
                nonmember_test_idx=ds.nonmember_test_idx)


class TestInferMembership:
    def test_zero_model_is_fail_closed(self, small_bundle):
        surrogate = random_surrogate()
        model = zero_mia_model()
        prob = mia.membership_probabilities(model, surrogate, small_bundle.member_eval.take([0]))[0]
        decision = bool(prob > model.decision_threshold)
        assert prob == 0.5 and decision is False

    def test_probability_strictly_inside_unit_interval(self, small_bundle):
        surrogate = random_surrogate(1)
        model = mia.MiaModel(network=init_network(mia.MIA_DIMS,
                                                  OutputHead.SIGMOID_SCALAR, 2))
        probs = mia.membership_probabilities(model, surrogate, small_bundle.nonmember_eval.take(np.s_[:30]))
        for prob in probs:
            decision = prob > model.decision_threshold
            assert 0.0 < prob < 1.0
            assert decision == (prob > 0.5)


class TestEvaluateMia:
    def test_counts_from_known_decisions(self, small_bundle):
        model = zero_mia_model()  # prob 0.5 everywhere -> everything non-member
        surrogate = random_surrogate()
        cm = mia.evaluate_mia(model, surrogate, small_bundle.member_eval.take(np.s_[:10]),
                              small_bundle.nonmember_eval.take(np.s_[:20]))
        assert cm.counts.tolist() == [[20, 0], [10, 0]]
        assert cm.accuracy == 0.5

    def test_rates_rows_sum_to_one(self, small_bundle, small_classifiers):
        ds = mia.split_membership(small_bundle.member_eval,
                                  small_bundle.nonmember_eval, seed=1)
        model, _ = mia.train_mia(small_classifiers["surrogate"], ds,
                                 TrainHyper(epochs=20, seed=1))
        cm = mia.evaluate_mia(model, small_classifiers["surrogate"],
                              ds.members.take(ds.member_test_idx),
                              ds.nonmembers.take(ds.nonmember_test_idx))
        assert np.abs(cm.rates.sum(axis=1) - 1.0).max() < 1e-9
        assert cm.accuracy == (cm.rates[0, 0] + cm.rates[1, 1]) / 2

    def test_empty_partition_rejected(self, small_bundle):
        with pytest.raises(InvalidInputError):
            mia.evaluate_mia(zero_mia_model(), random_surrogate(),
                             small_bundle.member_eval.take([]),
                             small_bundle.nonmember_eval.take(np.s_[:5]))

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

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 10 ** 6), min_size=4, max_size=4).filter(
        lambda c: c[0] + c[1] > 0 and c[2] + c[3] > 0))
    def test_from_counts_arithmetic_property(self, flat):
        cm = mia.ConfusionMatrix.from_counts(np.reshape(flat, (2, 2)))
        assert np.abs(cm.rates.sum(axis=1) - 1.0).max() <= 1e-12
        assert cm.accuracy == np.diag(cm.rates).mean()
        back = mia.confusion_from_document(json.loads(json.dumps(cm.to_document())))
        assert np.array_equal(back.counts, cm.counts)
        assert np.array_equal(back.rates, cm.rates)
        assert back.accuracy == cm.accuracy

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 10 ** 6), min_size=4, max_size=4),
           st.integers(0, 3), st.integers(1, 10 ** 6))
    def test_negative_count_or_empty_row_rejected(self, flat, cell, magnitude):
        negative = np.reshape(flat, (2, 2))
        negative.flat[cell] = -magnitude
        empty = np.reshape(flat, (2, 2))
        empty[cell // 2] = 0
        for counts in (negative, empty):
            with pytest.raises(ArtifactError, match="confusion"):
                mia.confusion_from_document({"counts": counts.tolist()})

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

    @pytest.mark.parametrize("threshold", [math.nan, 7.0, -1.0, "0.5"])
    def test_threshold_outside_unit_interval_names_the_file(self, tmp_path, threshold):
        model = mia.MiaModel(network=init_network(mia.MIA_DIMS,
                                                  OutputHead.SIGMOID_SCALAR, 4))
        path = tmp_path / "mia.json"
        mia.save_mia_model(model, path)
        doc = json.loads(path.read_text())
        path.write_text(json.dumps({**doc, "decision_threshold": threshold}))
        with pytest.raises(ArtifactError, match="mia.json.*decision_threshold"):
            mia.load_mia_model(path)


class TestNullAttackSmallScale:
    def test_same_distribution_sets_give_chance_accuracy(self):
        # members and "nonmembers" drawn from one pool: no privacy signal
        from airmia.scenarios import generate_scenario_data

        counts = small_config().counts
        # member_eval at the class-1 training count is every class-1 adversary view
        config = small_config(seed=21, counts=dataclasses.replace(
            counts, member_eval=counts.provider_train // 2))
        bundle = generate_scenario_data(config)
        pool = bundle.member_eval
        members, nonmembers = pool.take(np.s_[:60]), pool.take(np.s_[60:120])
        surrogate = random_surrogate(8)
        ds = mia.split_membership(members, nonmembers, seed=8)
        model, _ = mia.train_mia(surrogate, ds, TrainHyper(epochs=60, seed=8))
        cm = mia.evaluate_mia(model, surrogate,
                              ds.members.take(ds.member_test_idx),
                              ds.nonmembers.take(ds.nonmember_test_idx))
        assert 0.3 <= cm.accuracy <= 0.7  # small-n sanity; full check in acceptance
