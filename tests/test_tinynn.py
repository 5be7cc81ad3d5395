import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from airmia.classify import CLASSIFIER_DIMS
from airmia.errors import ArtifactError, InvalidInputError
from airmia.mia import MIA_DIMS, gain_logit_grad
from airmia.scenarios import ScenarioCounts
from airmia import tinynn
from airmia.tinynn import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPSILON,
    INFER_ROWS,
    PROB_FLOOR,
    AdamState,
    DenseNetwork,
    OutputHead,
    TrainHyper,
    adam_step,
    backward,
    cross_entropy_logit_grad,
    forward_batch,
    infer,
    init_network,
    load_model,
    minibatch_adam,
    model_document,
    network_from_document,
    save_model,
    train_supervised,
)
from conftest import (
    cross_entropy_loss,
    grad_check,
    numeric_gradient,
    reference_cross_entropy_fit,
    reference_minibatch_adam,
    sample_checkable_network,
    traced_peak_mb,
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
        assert net.params.size == expected == 23702

    def test_weights_and_biases_are_views_of_params(self):
        net = init_network([5, 4, 2], OutputHead.SOFTMAX2, 3)
        for a in net.weights + net.biases:
            assert np.shares_memory(a, net.params)
        assert np.array_equal(
            np.concatenate([a.ravel() for w, b in zip(net.weights, net.biases) for a in (w, b)]),
            net.params)

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
        for forward in (forward_batch, infer):
            with pytest.raises(InvalidInputError):
                forward(net, np.ones((1, 9)))

    @pytest.mark.parametrize("head", list(OutputHead))
    def test_infer_equals_forward_batch_bit_for_bit(self, head):
        rng = np.random.default_rng(3)
        for _ in range(50):
            net = random_small_net(rng, head)
            x = rng.normal(size=(int(rng.integers(1, 40)), net.input_dim))
            assert infer(net, x).tobytes() == forward_batch(net, x)[0].tobytes()


class TestInferBlocks:
    """infer runs INFER_ROWS-row blocks: forward_batch bit for bit per block."""

    HEAD_DIMS = {OutputHead.SOFTMAX2: CLASSIFIER_DIMS, OutputHead.SIGMOID_SCALAR: MIA_DIMS}

    @pytest.mark.parametrize("n", [INFER_ROWS + 1, 2 * INFER_ROWS + 7, 3 * INFER_ROWS])
    @pytest.mark.parametrize("head", list(OutputHead))
    def test_each_block_equals_forward_batch(self, head, n):
        net = init_network(self.HEAD_DIMS[head], head, seed=n)
        x = np.random.default_rng(n).normal(size=(n, net.input_dim))
        out = infer(net, x)
        blocks = [forward_batch(net, x[start:start + INFER_ROWS])[0]
                  for start in range(0, n, INFER_ROWS)]
        assert out.tobytes() == np.concatenate(blocks).tobytes()
        np.testing.assert_allclose(out, forward_batch(net, x)[0], rtol=0, atol=1e-12)

    def test_shipped_evaluation_tables_are_one_block(self):
        # their surrogate posteriors train the inference model, so they must
        # equal forward_batch's bit for bit
        counts = ScenarioCounts()
        assert INFER_ROWS >= max(counts.member_eval, counts.nonmember_eval)

    def test_peak_memory_stays_bounded(self):
        net = init_network(CLASSIFIER_DIMS, OutputHead.SOFTMAX2, 0)
        x = np.random.default_rng(0).normal(size=(20_000, net.input_dim))
        peak = traced_peak_mb(lambda: infer(net, x))
        assert peak < 8, f"infer peaked {peak:.1f} MB above its start"


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
        assert grads.shape == net.params.shape
        assert (grads == 0).all()

    def test_single_sigmoid_layer_matches_hand_formula(self):
        # 1x1 layer: m = sigmoid(z), z = w x + b. backward takes dL/dz, which
        # for dL/dm = g is g m (1 - m); then dL/dw = g m (1 - m) x, dL/db = g m (1 - m)
        net = init_network([1, 1], OutputHead.SIGMOID_SCALAR, 0)
        net.weights[0][0, 0], net.biases[0][0] = 0.8, -0.3
        x, g = 1.7, 2.5
        out, cache = forward_batch(net, np.array([[x]]))
        m = out[0, 0]
        hand_m = 1 / (1 + math.exp(-(0.8 * x - 0.3)))
        assert abs(m - hand_m) < 1e-15
        grads = backward(net, cache, np.array([[g * m * (1 - m)]]))
        # layout [w00, b0], like net.params
        assert abs(grads[0] - g * m * (1 - m) * x) < 1e-12
        assert abs(grads[1] - g * m * (1 - m)) < 1e-12

    def test_symmetric_loss_at_zero_network_has_zero_gradient(self):
        # CE summed over both labels is stationary at the uniform posterior
        net = zero_network([5, 4, 2], OutputHead.SOFTMAX2)
        x = np.random.default_rng(1).normal(size=(1, 5))
        out, cache = forward_batch(net, x)
        g = 2.0 * out - 1.0  # d/dz of -log p0 - log p1: (p - e0) + (p - e1)
        analytic = backward(net, cache, g)
        assert np.abs(analytic).max() < 1e-12

        def loss():
            o, _ = forward_batch(net, x)
            return float(-np.log(o).sum())

        numeric = numeric_gradient(loss, net.params, 1e-5)
        assert np.abs(numeric).max() < 1e-9

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

        numeric = numeric_gradient(f, w, 1e-5)
        analytic = 2 * (w @ x) * x
        rel = np.abs(numeric - analytic) / np.maximum(np.abs(analytic), 1e-8)
        assert rel.max() < 1e-9

    def test_epsilon_validated(self):
        with pytest.raises(InvalidInputError):
            numeric_gradient(lambda: 0.0, np.zeros(2), 0.0)


class TestGradCheck:
    @pytest.mark.parametrize("head", [OutputHead.SOFTMAX2, OutputHead.SIGMOID_SCALAR])
    def test_random_networks_both_heads(self, head):
        rng = np.random.default_rng(42)
        for _ in range(6):
            net, x = sample_checkable_network(rng, head)
            target = int(rng.integers(0, 2))
            assert grad_check(net, x, target, epsilon=1e-5) < 1e-4

    def test_zero_network_softmax(self):
        net = zero_network([4, 3, 2], OutputHead.SOFTMAX2)
        assert grad_check(net, np.ones(4), 0, epsilon=1e-5) < 1e-4


@st.composite
def gradient_sequences(draw):
    """(steps, size) gradients for a network with size parameters."""
    steps, size = draw(st.integers(1, 30)), draw(st.integers(2, 12))
    return draw(hnp.arrays(np.float64, (steps, size), elements=st.floats(-1e3, 1e3)))


def unflushed_step(params, m, v, g, t, lr):
    """adam_step's update without the subnormal flush, in its per-element order, in place."""
    m *= ADAM_BETA1
    m += g * (1 - ADAM_BETA1)
    v *= ADAM_BETA2
    v += g * (1 - ADAM_BETA2) * g
    a = m / (1 - ADAM_BETA1 ** t)
    a *= lr
    b = np.sqrt(v / (1 - ADAM_BETA2 ** t))
    b += ADAM_EPSILON
    params -= a / b


def subnormal(a: np.ndarray) -> np.ndarray:
    return (a != 0) & (np.abs(a) < np.finfo(a.dtype).tiny)


class TestAdam:
    @settings(max_examples=200, deadline=None)
    @given(gradient_sequences(), st.floats(1e-6, 1.0), st.booleans())
    @example(np.ones((3, 4)), 1e-3, True)
    def test_step_is_bit_identical_to_the_allocating_update(self, grads, lr, direct):
        net = init_network([grads.shape[1] - 1, 1], OutputHead.SIGMOID_SCALAR, 0)
        if direct:
            state = AdamState(first_moment=np.zeros_like(net.params),
                              second_moment=np.zeros_like(net.params),
                              step_count=0, learning_rate=lr)
        else:
            state = AdamState.for_network(net, learning_rate=lr)
        params, m, v = net.params.copy(), np.zeros_like(net.params), np.zeros_like(net.params)
        for t, g in enumerate(grads, start=1):
            adam_step(net, g, state)
            # the allocating expression, in its per-element order
            m *= ADAM_BETA1
            m += (1 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1 - ADAM_BETA2) * g * g
            params -= (lr * (m / (1 - ADAM_BETA1 ** t))
                       / (np.sqrt(v / (1 - ADAM_BETA2 ** t)) + ADAM_EPSILON))
        assert np.array_equal(net.params, params)
        assert np.array_equal(state.first_moment, m)
        assert np.array_equal(state.second_moment, v)
        assert state.step_count == len(grads)

    def test_null_step_changes_nothing(self):
        net = init_network([4, 3, 2], OutputHead.SOFTMAX2, 9)
        before = net.params.copy()
        grads = backward(net, forward_batch(net, np.ones((1, 4)))[1], np.zeros((1, 2)))
        state = AdamState.for_network(net)
        adam_step(net, grads, state)
        assert np.array_equal(before, net.params)
        assert state.step_count == 1

    def test_first_step_magnitude_hand_example(self):
        # g = 1, lr = 0.1: bias-corrected ratio is 1, delta = -lr / (1 + eps)
        net = zero_network([1, 1], OutputHead.SIGMOID_SCALAR)
        state = AdamState.for_network(net, learning_rate=0.1)
        grads = backward(net, forward_batch(net, np.ones((1, 1)))[1], np.zeros((1, 1)))
        grads[0] = 1.0  # the single weight; grads[1] is the bias
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

    def test_update_shows_through_weight_views(self):
        net = init_network([3, 2], OutputHead.SOFTMAX2, 2)
        w0, before = net.weights[0], net.weights[0].copy()
        _, cache = forward_batch(net, np.ones((1, 3)))
        adam_step(net, backward(net, cache, np.array([[-1.0, 0.0]])),
                  AdamState.for_network(net))
        assert w0 is net.weights[0] and not np.array_equal(w0, before)
        assert np.array_equal(net.weights[0].ravel(), net.params[:6])

    def test_shape_mismatch_rejected(self):
        net = init_network([2, 1], OutputHead.SIGMOID_SCALAR, 0)
        other = init_network([3, 1], OutputHead.SIGMOID_SCALAR, 0)
        _, cache = forward_batch(other, np.ones((1, 3)))
        grads = backward(other, cache, np.ones((1, 1)))
        with pytest.raises(InvalidInputError):
            adam_step(net, grads, AdamState.for_network(net))


    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_step_after_bias_correction_rounds_to_one_is_the_two_operation_form(self, dtype):
        # from t = 356 on, 1 - beta1 ** t is 1.0 and m / 1.0 is skipped
        assert 1 - ADAM_BETA1 ** 355 != 1.0 and 1 - ADAM_BETA1 ** 356 == 1.0
        rng = np.random.default_rng(7)
        net = DenseNetwork(layer_dims=[5, 3, 1], params=rng.normal(size=22).astype(dtype),
                           output_head=OutputHead.SIGMOID_SCALAR)
        state = AdamState.for_network(net, learning_rate=3e-3)
        state.first_moment[:] = rng.normal(size=22)
        state.second_moment[:] = rng.random(22)
        state.step_count = 350
        params, m, v = net.params.copy(), state.first_moment.copy(), state.second_moment.copy()
        for t in range(351, 361):
            g = rng.normal(size=22).astype(dtype)
            adam_step(net, g, state)
            unflushed_step(params, m, v, g, t, state.learning_rate)
            assert net.params.tobytes() == params.tobytes()
        assert net.params.dtype == state.first_moment.dtype == dtype
        assert state.first_moment.tobytes() == m.tobytes()
        assert state.second_moment.tobytes() == v.tobytes()


class TestSubnormalFlush:
    """A float32 step sets first moments below finfo(float32).tiny to zero."""

    def test_float32_moments_flushed_and_params_equal_the_unflushed_update(self):
        rng = np.random.default_rng(5)
        net = DenseNetwork(layer_dims=[4, 3, 1], params=rng.normal(size=19).astype(np.float32),
                           output_head=OutputHead.SIGMOID_SCALAR)
        state = AdamState.for_network(net, learning_rate=1e-3)
        params, m, v = net.params.copy(), np.zeros_like(net.params), np.zeros_like(net.params)
        dead = np.arange(19) % 2 == 0
        steps_with_subnormal_m = 0
        # from step 6 on the dead entries' gradient is exactly 0, so the
        # unflushed m decays by beta1 past tiny (about 830 steps from 0.5)
        for t in range(1, 1201):
            g = rng.normal(size=19).astype(np.float32)
            if t > 5:
                g[dead] = 0
            adam_step(net, g, state)
            unflushed_step(params, m, v, g, t, state.learning_rate)
            fm = state.first_moment
            assert not subnormal(fm).any(), f"step {t}"
            assert np.array_equal(fm, np.where(subnormal(m), 0, m)), f"step {t}"
            assert net.params.tobytes() == params.tobytes(), f"step {t}"
            steps_with_subnormal_m += bool(subnormal(m).any())
        assert steps_with_subnormal_m > 0
        assert not subnormal(m[~dead]).any() and (fm[dead] == 0).all()
        assert state.second_moment.tobytes() == v.tobytes()

    def test_float64_subnormal_moments_left_as_the_unflushed_update(self):
        rng = np.random.default_rng(6)
        net = DenseNetwork(layer_dims=[4, 3, 1], params=rng.normal(size=19),
                           output_head=OutputHead.SIGMOID_SCALAR)
        state = AdamState.for_network(net, learning_rate=1e-3)
        # 1e-307 decays below float64's tiny (2.2e-308) within 50 steps
        state.first_moment[:] = rng.normal(size=19) * 1e-307
        state.second_moment[:] = rng.random(19)
        state.step_count = 400
        params, m, v = net.params.copy(), state.first_moment.copy(), state.second_moment.copy()
        dead = np.arange(19) % 2 == 0
        for t in range(401, 461):
            g = rng.normal(size=19)
            g[dead] = 0
            adam_step(net, g, state)
            unflushed_step(params, m, v, g, t, state.learning_rate)
        assert subnormal(m[dead]).all()
        assert state.first_moment.tobytes() == m.tobytes()
        assert net.params.tobytes() == params.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_step_allocates_nothing(self, dtype):
        net = init_network(CLASSIFIER_DIMS, OutputHead.SOFTMAX2, 3)
        net = DenseNetwork(layer_dims=net.layer_dims, params=net.params.astype(dtype),
                           output_head=net.output_head)
        rng = np.random.default_rng(3)
        n = net.params.size
        state = AdamState.for_network(net)
        # half the entries get no gradient, so their m decays from 1e5 * tiny
        # past tiny in about 110 steps
        state.first_moment[:] = rng.normal(size=n) * (np.finfo(dtype).tiny * 1e5)
        state.second_moment[:] = rng.random(n)
        grads = rng.normal(size=n).astype(dtype)
        grads[: n // 2] = 0

        def steps():
            for _ in range(300):
                adam_step(net, grads, state)

        peak = traced_peak_mb(steps)
        if dtype is np.float32:
            assert (state.first_moment[: n // 2] == 0).all()
        else:
            assert subnormal(state.first_moment[: n // 2]).all()
        vector_mb = net.params.nbytes / 2 ** 20
        assert peak < vector_mb / 4, f"300 steps rose {peak:.4f} MB; one vector is {vector_mb:.4f} MB"


def separable_blobs(n=200):
    rng = np.random.default_rng(3)
    a = rng.normal(size=(n // 2, 2)) + np.array([5.0, 5.0])
    b = rng.normal(size=(n // 2, 2)) + np.array([-5.0, -5.0])
    x = np.concatenate([a, b])
    y = np.concatenate([np.ones(n // 2, dtype=int), np.zeros(n // 2, dtype=int)])
    return x, y


class TestTrainSupervised:
    def test_separable_blobs_reach_full_accuracy(self):
        x, y = separable_blobs()
        net = init_network([2, 16, 2], OutputHead.SOFTMAX2, 4)
        net, history = train_supervised(net, x, y, TrainHyper(epochs=50, seed=4))
        out, _ = forward_batch(net, x)
        assert ((out[:, 1] > out[:, 0]).astype(int) == y).mean() == 1.0
        assert history[-1] < history[0]

    def test_same_seed_identical_weights(self):
        x, y = separable_blobs(80)
        runs = []
        for _ in range(2):
            net = init_network([2, 8, 2], OutputHead.SOFTMAX2, 6)
            net, _ = train_supervised(net, x, y, TrainHyper(epochs=10, seed=6))
            runs.append(net.params.copy())
        assert np.array_equal(*runs)

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

    def test_float32_overflow_names_the_input(self):
        # finite in float64, inf once rounded to float32
        x = np.ones((4, 2))
        x[2, 1] = 1e40
        net = init_network([2, 2, 2], OutputHead.SOFTMAX2, 0)
        before = net.params.copy()
        with pytest.raises(InvalidInputError, match=r"training inputs .* float32's range"):
            train_supervised(net, x, np.array([0, 1, 0, 1]), TrainHyper(epochs=1))
        assert np.array_equal(net.params, before)

    def test_non_finite_training_names_the_epoch(self):
        x = np.random.default_rng(2).normal(size=(64, 32))
        y = np.arange(64) % 2
        net = init_network([32, 8, 2], OutputHead.SOFTMAX2, 2)
        with pytest.raises(InvalidInputError, match=r"non-finite loss .* after epoch \d"):
            train_supervised(net, x, y, TrainHyper(epochs=3, learning_rate=1e300, seed=2))


class TestFloat32Training:
    """Networks train on minibatch_adam's float32 copy; classifiers on the fused
    cross-entropy logit gradient."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_classifier_step_keeps_the_network_dtype(self, dtype):
        net = init_network(CLASSIFIER_DIMS, OutputHead.SOFTMAX2, 1)
        net = DenseNetwork(layer_dims=net.layer_dims, params=net.params.astype(dtype),
                           output_head=net.output_head)
        rng = np.random.default_rng(1)
        out, cache = forward_batch(net, rng.normal(size=(64, 32)))  # float64 inputs
        activations, pre_acts = cache
        assert {a.dtype for a in activations + pre_acts} == {np.dtype(dtype)}
        g = cross_entropy_logit_grad(out, rng.integers(0, 2, size=64))
        grads = backward(net, cache, g)
        state = AdamState.for_network(net)
        adam_step(net, grads, state)
        for a in (g, grads, net.params, state.first_moment, state.second_moment, *state.scratch):
            assert a.dtype == dtype

    def test_train_supervised_steps_in_float32(self, monkeypatch):
        seen = set()
        real_backward, real_adam = tinynn.backward, tinynn.adam_step

        def traced_backward(net, cache, grad_logits, *space):
            grads = real_backward(net, cache, grad_logits, *space)
            seen.update(a.dtype for a in (*cache[0][1:], *cache[1], grad_logits, grads))
            return grads

        def traced_adam(net, grads, state):
            seen.update(a.dtype for a in (net.params, state.first_moment, state.second_moment))
            return real_adam(net, grads, state)

        monkeypatch.setattr(tinynn, "backward", traced_backward)
        monkeypatch.setattr(tinynn, "adam_step", traced_adam)
        x, y = separable_blobs(80)
        train_supervised(init_network([2, 8, 2], OutputHead.SOFTMAX2, 2), x, y,
                         TrainHyper(epochs=2, seed=2))
        assert seen == {np.dtype(np.float32)}

    def test_training_flushes_dead_units_decayed_moments(self, monkeypatch):
        would_be_subnormal, stored_subnormal = 0, 0
        real_adam = tinynn.adam_step

        def traced_adam(net, grads, state):
            nonlocal would_be_subnormal, stored_subnormal
            m = state.first_moment
            would_be_subnormal += int(subnormal(m * ADAM_BETA1 + grads * (1 - ADAM_BETA1)).sum())
            result = real_adam(net, grads, state)
            stored_subnormal += int(subnormal(m).sum())
            return result

        monkeypatch.setattr(tinynn, "adam_step", traced_adam)
        x, y = separable_blobs(80)
        # 1000 steps: long enough for a dead unit's m to decay from about 1e-4
        # past tiny, which takes over 750
        net, _ = train_supervised(init_network([2, 16, 16, 2], OutputHead.SOFTMAX2, 6), x, y,
                                  TrainHyper(epochs=100, batch_size=8, learning_rate=1e-2, seed=6))
        _, (_, pre_acts) = forward_batch(net, x)
        assert (pre_acts[1] <= 0).all(axis=0).any(), "no second-layer unit is dead"
        assert would_be_subnormal > 0
        assert stored_subnormal == 0

    def test_returns_the_callers_float64_network_of_float32_values(self):
        x, y = separable_blobs(80)
        runs = []
        for _ in range(2):
            net = init_network([2, 8, 2], OutputHead.SOFTMAX2, 6)
            trained, _ = train_supervised(net, x, y, TrainHyper(epochs=10, seed=6))
            assert trained is net and net.params.dtype == np.float64
            assert all(np.shares_memory(a, net.params) for a in net.weights + net.biases)
            assert np.array_equal(net.params.astype(np.float32).astype(np.float64), net.params)
            runs.append(net.params.tobytes())
        assert runs[0] == runs[1]

    def test_minibatch_adam_writes_the_copy_back_after_every_epoch(self):
        x, y = separable_blobs(80)
        net = init_network([2, 8, 2], OutputHead.SOFTMAX2, 3)
        seen = []

        def epoch_end():
            seen.append(net.params.copy())
            return 0.0

        minibatch_adam(net, x, TrainHyper(epochs=3, seed=3),
                       lambda idx, out, z: cross_entropy_logit_grad(out, y[idx]),
                       epoch_end, "loss")
        assert len(seen) == 3
        assert not np.array_equal(seen[0], seen[1]) and not np.array_equal(seen[1], seen[2])
        for params in seen:
            assert params.dtype == np.float64
            assert np.array_equal(params.astype(np.float32).astype(np.float64), params)
        assert np.array_equal(seen[-1], net.params)

    def test_underflowed_label_probability_gets_minus_one_over_n(self):
        # a logit gap of 200 underflows p to exactly 0 in float32
        net = DenseNetwork(layer_dims=[1, 2], params=np.array([0, 200, 0, 0], np.float32),
                           output_head=OutputHead.SOFTMAX2)
        out, _ = forward_batch(net, np.ones((4, 1)))
        labels = np.array([0, 1, 1, 1])
        assert out[0, 0] == 0.0
        g = cross_entropy_logit_grad(out, labels)
        assert g.dtype == np.float32
        assert g[0].tolist() == [-0.25, 0.25]
        # the chain rule through the posterior gives that row nothing to learn from
        g_post = -np.eye(2, dtype=np.float32)[labels] / np.maximum(out, PROB_FLOOR) / 4
        chain = out * (g_post - (g_post * out).sum(axis=1, keepdims=True))
        assert (chain[0] == 0).all()

    def test_fused_gradient_equals_the_chain_rule_in_float64(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            net = random_small_net(rng, OutputHead.SOFTMAX2)
            n = int(rng.integers(1, 65))
            out, _ = forward_batch(net, rng.normal(size=(n, net.input_dim)))
            labels = rng.integers(0, 2, size=n)
            onehot = np.eye(2)[labels]
            g_post = -(onehot / np.maximum(out, PROB_FLOOR)) / n
            chain = out * (g_post - (g_post * out).sum(axis=1, keepdims=True))
            keep = out[np.arange(n), labels] > PROB_FLOOR
            # the chain rule's -1/(p n) + 1/n cancels as p nears 1, leaving it an
            # absolute error of about one ulp of 1/n there
            np.testing.assert_allclose(cross_entropy_logit_grad(out, labels)[keep],
                                       chain[keep], rtol=1e-12,
                                       atol=np.finfo(float).eps / n)


class TestStepWorkspace:
    """minibatch_adam steps through one preallocated workspace per fit; every
    step equals the allocating reference loop bit for bit."""

    # 1000 rows at batch 64 end on a 40-row batch, as the surrogate's and the
    # inference model's do; 128 rows have no short batch; 40 rows are one
    # batch shorter than batch_size
    @pytest.mark.parametrize("n", [1000, 128, 40])
    def test_train_supervised_equals_the_allocating_loop(self, n):
        rng = np.random.default_rng(n)
        x, y = rng.normal(size=(n, CLASSIFIER_DIMS[0])), rng.integers(0, 2, size=n)
        hyper = TrainHyper(epochs=3, seed=n)
        net, history = train_supervised(
            init_network(CLASSIFIER_DIMS, OutputHead.SOFTMAX2, 1), x, y, hyper)
        reference = init_network(CLASSIFIER_DIMS, OutputHead.SOFTMAX2, 1)
        reference_history = reference_cross_entropy_fit(reference, x, y, hyper)
        assert net.params.tobytes() == reference.params.tobytes()
        assert history == reference_history

    @pytest.mark.parametrize("n", [1000, 40])
    def test_sigmoid_head_equals_the_allocating_loop(self, n):
        rng = np.random.default_rng(n)
        # wide inputs push some rows past the sigmoid's clip
        x = rng.normal(scale=4.0, size=(n, MIA_DIMS[0]))
        is_member, weights = rng.random(n) < 0.5, rng.uniform(0.5, 2.0, size=n)
        hyper = TrainHyper(epochs=3, seed=n)
        runs = []
        for fit in (minibatch_adam, reference_minibatch_adam):
            net = init_network(MIA_DIMS, OutputHead.SIGMOID_SCALAR, 2)
            history = fit(net, x, hyper,
                          lambda idx, out, z: gain_logit_grad(out, z, is_member[idx], weights[idx]),
                          lambda: float(infer(net, x).sum()), "gain")
            runs.append((net.params.tobytes(), history))
        assert runs[0] == runs[1]

    def test_steps_after_the_first_epoch_allocate_nothing(self):
        rng = np.random.default_rng(7)
        x, y = rng.normal(size=(1000, CLASSIFIER_DIMS[0])), rng.integers(0, 2, size=1000)
        net = init_network(CLASSIFIER_DIMS, OutputHead.SOFTMAX2, 7)
        start = []

        def epoch_end():
            if not start:  # trace from the end of the first epoch on
                tracemalloc.start()
                start.append(tracemalloc.get_traced_memory()[0])
            return 0.0

        try:
            minibatch_adam(net, x, TrainHyper(epochs=6, seed=7),
                           lambda idx, out, z: cross_entropy_logit_grad(out, y[idx]),
                           epoch_end, "loss")
            rise = tracemalloc.get_traced_memory()[1] - start[0]
        finally:
            tracemalloc.stop()
        # 80 steps; one allocated gradient vector alone is 4 * params.size bytes
        assert rise < net.params.nbytes / 4, f"80 steps rose {rise} bytes"


def moving_average(values, window=5):
    v = np.asarray(values, dtype=float)
    return np.convolve(v, np.ones(window) / window, mode="valid")


class TestTrainingTrend:
    def test_loss_moving_average_non_increasing_on_scenario_data(self, small_bundle):
        from airmia.classify import features_matrix

        x = features_matrix(small_bundle.provider_train)
        y = small_bundle.provider_train.class_label
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
        assert np.array_equal(net.params, back.params)
        for a in back.weights + back.biases:
            assert np.shares_memory(a, back.params)

    @pytest.mark.parametrize("prefix", [b"\xff", b"\xc3"])
    def test_undecodable_bytes_name_the_file(self, tmp_path, prefix):
        path = tmp_path / "net.json"
        save_model(init_network([3, 2], OutputHead.SOFTMAX2, 0), path)
        path.write_bytes(prefix + path.read_bytes())
        with pytest.raises(ArtifactError, match="cannot load model from .*net.json"):
            load_model(path)

    def test_shape_mismatch_rejected(self):
        net = init_network([3, 2], OutputHead.SOFTMAX2, 0)
        doc = model_document(net)
        doc["layer_dims"] = [4, 2]
        with pytest.raises(ArtifactError, match="shapes"):
            network_from_document(doc)
        doc.update(layer_dims=[3], weights=[], biases=[])  # no layer at all
        with pytest.raises(ArtifactError, match="shapes"):
            network_from_document(doc)

    def test_foreign_scaling_rejected(self):
        net = init_network([3, 2], OutputHead.SOFTMAX2, 0)
        doc = model_document(net)
        doc["scaling"]["power"] = 99.0
        with pytest.raises(ArtifactError, match="scaling"):
            network_from_document(doc)
