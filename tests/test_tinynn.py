import json
import math

import numpy as np
import pytest

from airmia.errors import ArtifactError, InvalidInputError
from airmia.tinynn import (
    AdamState,
    OutputHead,
    TrainHyper,
    adam_step,
    backward,
    cross_entropy_loss,
    forward_batch,
    grad_check,
    init_network,
    load_model,
    model_document,
    network_from_document,
    numeric_gradient,
    save_model,
    train_supervised,
)


def zero_network(dims, head):
    net = init_network(dims, head, seed=0)
    for w in net.weights:
        w[:] = 0.0
    for b in net.biases:
        b[:] = 0.0
    return net


def random_small_net(rng, head):
    depth = int(rng.integers(1, 4))
    dims = [int(rng.integers(2, 9)) for _ in range(depth + 1)]
    dims.append(2 if head is OutputHead.SOFTMAX2 else 1)
    return init_network(dims, head, seed=int(rng.integers(0, 2 ** 31)))


class TestInit:
    def test_deterministic_per_seed(self):
        a = init_network([32, 100, 100, 100, 2], OutputHead.SOFTMAX2, 7)
        b = init_network([32, 100, 100, 100, 2], OutputHead.SOFTMAX2, 7)
        assert all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights))
        assert all(np.array_equal(x, y) for x, y in zip(a.biases, b.biases))

    def test_parameter_count_matches_shape_arithmetic(self):
        dims = [32, 100, 100, 100, 2]
        net = init_network(dims, OutputHead.SOFTMAX2, 0)
        expected = sum(a * b + b for a, b in zip(dims[:-1], dims[1:]))
        assert net.parameter_count() == expected == 23702

    def test_zero_biases_and_he_scale(self):
        net = init_network([64, 128, 2], OutputHead.SOFTMAX2, 1)
        assert all((b == 0).all() for b in net.biases)
        std = net.weights[0].std()
        assert 0.7 * math.sqrt(2 / 64) < std < 1.3 * math.sqrt(2 / 64)

    @pytest.mark.parametrize("dims,head", [
        ([], OutputHead.SOFTMAX2),
        ([5], OutputHead.SOFTMAX2),
        ([3, 0, 2], OutputHead.SOFTMAX2),
        ([2, 2], OutputHead.SIGMOID_SCALAR),  # output dim must be 1
        ([2, 3], OutputHead.SOFTMAX2),  # output dim must be 2
    ])
    def test_invalid_dims_rejected(self, dims, head):
        with pytest.raises(InvalidInputError):
            init_network(dims, head, 0)


class TestForward:
    def test_zero_softmax_is_uniform(self):
        net = zero_network([8, 4, 2], OutputHead.SOFTMAX2)
        out, _ = forward_batch(net, np.ones((1, 8)))
        assert out[0].tolist() == [0.5, 0.5]

    def test_zero_sigmoid_is_half(self):
        net = zero_network([8, 4, 1], OutputHead.SIGMOID_SCALAR)
        out, _ = forward_batch(net, np.ones((1, 8)))
        assert out[0, 0] == 0.5

    def test_softmax_normalization_over_random_nets(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            net = random_small_net(rng, OutputHead.SOFTMAX2)
            batch, _ = forward_batch(net, rng.normal(size=net.input_dim)[None, :])
            out = batch[0]
            assert abs(out.sum() - 1.0) < 1e-12
            assert (out >= 0).all()

    def test_sigmoid_strictly_inside_unit_interval(self):
        net = init_network([4, 3, 1], OutputHead.SIGMOID_SCALAR, 5)
        for scale in (1, 1e3, 1e6):
            for sign in (-1, 1):
                out, _ = forward_batch(net, sign * scale * np.ones((1, 4)))
                assert 0.0 < out[0, 0] < 1.0

    def test_dimension_mismatch_rejected(self):
        net = init_network([8, 4, 2], OutputHead.SOFTMAX2, 0)
        with pytest.raises(InvalidInputError):
            forward_batch(net, np.ones((1, 9)))


class TestCrossEntropy:
    def test_uniform_posterior(self):
        assert abs(cross_entropy_loss([0.5, 0.5], 1) - math.log(2)) < 1e-12

    def test_confident_correct_is_zero(self):
        assert cross_entropy_loss([1.0, 0.0], 0) == 0.0

    def test_direct_evaluation(self):
        assert abs(cross_entropy_loss([0.9, 0.1], 1) - 2.302585092994046) < 1e-12

    def test_flooring_prevents_infinity(self):
        assert cross_entropy_loss([1.0, 0.0], 1) == -math.log(1e-12)

    def test_label_validated(self):
        with pytest.raises(InvalidInputError):
            cross_entropy_loss([0.5, 0.5], 2)


class TestBackward:
    def test_zero_output_gradient_gives_zero_parameter_gradients(self):
        net = init_network([6, 5, 2], OutputHead.SOFTMAX2, 3)
        x = np.random.default_rng(0).normal(size=(4, 6))
        _, cache = forward_batch(net, x)
        grads = backward(net, cache, np.zeros((4, 2)))
        assert all((g == 0).all() for g in grads.parameter_arrays())

    def test_single_sigmoid_layer_matches_hand_formula(self):
        # 1x1 layer: m = sigmoid(w x + b); dL/dw = g m (1 - m) x, dL/db = g m (1 - m)
        net = init_network([1, 1], OutputHead.SIGMOID_SCALAR, 0)
        net.weights[0][0, 0], net.biases[0][0] = 0.8, -0.3
        x, g = 1.7, 2.5
        out, cache = forward_batch(net, np.array([[x]]))
        m = out[0, 0]
        hand_m = 1 / (1 + math.exp(-(0.8 * x - 0.3)))
        assert abs(m - hand_m) < 1e-15
        grads = backward(net, cache, np.array([[g]]))
        assert abs(grads.weights[0][0, 0] - g * m * (1 - m) * x) < 1e-12
        assert abs(grads.biases[0][0] - g * m * (1 - m)) < 1e-12

    def test_symmetric_loss_at_zero_network_has_zero_gradient(self):
        # CE summed over both labels is stationary at the uniform posterior
        net = zero_network([5, 4, 2], OutputHead.SOFTMAX2)
        x = np.random.default_rng(1).normal(size=(1, 5))
        out, cache = forward_batch(net, x)
        g = -1.0 / out  # d/dp of -log p0 - log p1
        analytic = backward(net, cache, g).parameter_arrays()
        assert max(np.abs(a).max() for a in analytic) < 1e-12

        def loss():
            o, _ = forward_batch(net, x)
            return float(-np.log(o).sum())

        numeric = numeric_gradient(loss, net.parameter_arrays(), 1e-5)
        assert max(np.abs(n).max() for n in numeric) < 1e-9

    def test_shape_mismatch_rejected(self):
        net = init_network([3, 2], OutputHead.SOFTMAX2, 0)
        _, cache = forward_batch(net, np.ones((2, 3)))
        with pytest.raises(InvalidInputError):
            backward(net, cache, np.zeros((3, 2)))


class TestNumericGradient:
    def test_exact_for_quadratics(self):
        # central differences are exact for quadratics up to rounding
        rng = np.random.default_rng(2)
        w = rng.normal(size=(5,))
        x = rng.normal(size=(5,))

        def f():
            return float((w @ x) ** 2)

        numeric = numeric_gradient(f, [w], 1e-5)[0]
        analytic = 2 * (w @ x) * x
        rel = np.abs(numeric - analytic) / np.maximum(np.abs(analytic), 1e-8)
        assert rel.max() < 1e-9

    def test_epsilon_validated(self):
        with pytest.raises(InvalidInputError):
            numeric_gradient(lambda: 0.0, [np.zeros(2)], 0.0)


class TestGradCheck:
    @pytest.mark.parametrize("head", [OutputHead.SOFTMAX2, OutputHead.SIGMOID_SCALAR])
    def test_random_networks_both_heads(self, head):
        from conftest import sample_checkable_network

        rng = np.random.default_rng(42)
        for _ in range(6):
            net, x = sample_checkable_network(rng, head)
            target = int(rng.integers(0, 2))
            assert grad_check(net, x, target, epsilon=1e-5) < 1e-4

    def test_zero_network_softmax(self):
        net = zero_network([4, 3, 2], OutputHead.SOFTMAX2)
        assert grad_check(net, np.ones(4), 0, epsilon=1e-5) < 1e-4


class TestAdam:
    def test_null_step_changes_nothing(self):
        net = init_network([4, 3, 2], OutputHead.SOFTMAX2, 9)
        before = [p.copy() for p in net.parameter_arrays()]
        grads = backward(net, forward_batch(net, np.ones((1, 4)))[1], np.zeros((1, 2)))
        state = AdamState.for_network(net)
        adam_step(net, grads, state)
        assert all(np.array_equal(b, p) for b, p in zip(before, net.parameter_arrays()))
        assert state.step_count == 1

    def test_first_step_magnitude_hand_example(self):
        # g = 1, lr = 0.1: bias-corrected ratio is 1, delta = -lr / (1 + eps)
        net = zero_network([1, 1], OutputHead.SIGMOID_SCALAR)
        state = AdamState.for_network(net, learning_rate=0.1)
        grads = backward(net, forward_batch(net, np.ones((1, 1)))[1], np.zeros((1, 1)))
        grads.weights[0][0, 0] = 1.0
        adam_step(net, grads, state)
        expected = -0.1 / (1 + 1e-8)
        assert abs(net.weights[0][0, 0] - expected) < 1e-15

    def test_step_count_after_k_updates(self):
        net = init_network([2, 1], OutputHead.SIGMOID_SCALAR, 0)
        state = AdamState.for_network(net)
        _, cache = forward_batch(net, np.ones((1, 2)))
        for _ in range(5):
            adam_step(net, backward(net, cache, np.ones((1, 1))), state)
        assert state.step_count == 5

    def test_shape_mismatch_rejected(self):
        net = init_network([2, 1], OutputHead.SIGMOID_SCALAR, 0)
        other = init_network([3, 1], OutputHead.SIGMOID_SCALAR, 0)
        _, cache = forward_batch(other, np.ones((1, 3)))
        grads = backward(other, cache, np.ones((1, 1)))
        with pytest.raises(InvalidInputError):
            adam_step(net, grads, AdamState.for_network(net))


class TestTrainSupervised:
    def separable_blobs(self, n=200):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(n // 2, 2)) + np.array([5.0, 5.0])
        b = rng.normal(size=(n // 2, 2)) + np.array([-5.0, -5.0])
        x = np.concatenate([a, b])
        y = np.concatenate([np.ones(n // 2, dtype=int), np.zeros(n // 2, dtype=int)])
        return x, y

    def test_separable_blobs_reach_full_accuracy(self):
        x, y = self.separable_blobs()
        net = init_network([2, 16, 2], OutputHead.SOFTMAX2, 4)
        net, history = train_supervised(net, x, y, TrainHyper(epochs=50, seed=4))
        out, _ = forward_batch(net, x)
        assert ((out[:, 1] > out[:, 0]).astype(int) == y).mean() == 1.0
        assert history[-1] < history[0]

    def test_same_seed_identical_weights(self):
        x, y = self.separable_blobs(80)
        runs = []
        for _ in range(2):
            net = init_network([2, 8, 2], OutputHead.SOFTMAX2, 6)
            net, _ = train_supervised(net, x, y, TrainHyper(epochs=10, seed=6))
            runs.append([p.copy() for p in net.parameter_arrays()])
        assert all(np.array_equal(a, b) for a, b in zip(*runs))

    def test_empty_dataset_rejected(self):
        net = init_network([2, 2, 2], OutputHead.SOFTMAX2, 0)
        with pytest.raises(InvalidInputError):
            train_supervised(net, np.zeros((0, 2)), np.zeros(0, dtype=int), TrainHyper())

    def test_bad_labels_rejected(self):
        net = init_network([2, 2, 2], OutputHead.SOFTMAX2, 0)
        with pytest.raises(InvalidInputError):
            train_supervised(net, np.zeros((3, 2)), np.array([0, 1, 2]), TrainHyper())

    def test_sigmoid_head_rejected(self):
        net = init_network([2, 2, 1], OutputHead.SIGMOID_SCALAR, 0)
        with pytest.raises(InvalidInputError):
            train_supervised(net, np.zeros((2, 2)), np.array([0, 1]), TrainHyper())

    def test_hyper_validation(self):
        with pytest.raises(InvalidInputError):
            TrainHyper(epochs=0)


def moving_average(values, window=5):
    v = np.asarray(values, dtype=float)
    return np.convolve(v, np.ones(window) / window, mode="valid")


class TestTrainingTrend:
    def test_loss_moving_average_non_increasing_on_scenario_data(self, small_bundle):
        from airmia.classify import features_matrix, labels_vector

        x = features_matrix(small_bundle.provider_train)
        y = labels_vector(small_bundle.provider_train)
        net = init_network([32, 100, 100, 100, 2], OutputHead.SOFTMAX2, 13)
        _, history = train_supervised(net, x, y, TrainHyper(epochs=40, seed=13))
        ma = moving_average(history)
        assert (np.diff(ma) <= 1e-7).all()


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path):
        net = init_network([6, 5, 4, 2], OutputHead.SOFTMAX2, 8)
        path = tmp_path / "net.json"
        save_model(net, path)
        back = load_model(path)
        assert back.layer_dims == net.layer_dims
        assert back.output_head is net.output_head
        assert all(np.array_equal(a, b) for a, b in zip(net.weights, back.weights))
        assert all(np.array_equal(a, b) for a, b in zip(net.biases, back.biases))

    def test_unknown_version_rejected(self, tmp_path):
        net = init_network([3, 1], OutputHead.SIGMOID_SCALAR, 0)
        doc = model_document(net)
        doc["version"] = "2"
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ArtifactError, match="version"):
            load_model(path)

    def test_corrupt_file_names_path(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{ not json")
        with pytest.raises(ArtifactError, match="broken.json"):
            load_model(path)

    def test_shape_mismatch_rejected(self):
        net = init_network([3, 2], OutputHead.SOFTMAX2, 0)
        doc = model_document(net)
        doc["layer_dims"] = [4, 2]
        with pytest.raises(ArtifactError, match="shapes"):
            network_from_document(doc)

    def test_foreign_scaling_rejected(self):
        net = init_network([3, 2], OutputHead.SOFTMAX2, 0)
        doc = model_document(net)
        doc["scaling"]["power"] = 99.0
        with pytest.raises(ArtifactError, match="scaling"):
            network_from_document(doc)
