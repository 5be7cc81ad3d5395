import csv
import io
import tracemalloc
from itertools import chain

import numpy as np
import pytest

from airmia import classify, harness, scenarios, tinynn
from airmia.errors import InvalidInputError
from airmia.scenarios import Scenario, ScenarioConfig, ScenarioCounts
from airmia.tinynn import PROB_FLOOR, SIGMOID_Z_CLIP, DenseNetwork, OutputHead


# ---------------------------------------------------------------------------
# Gradient oracle: central differences against tinynn.backward
# ---------------------------------------------------------------------------

def cross_entropy_loss(posterior, label: int) -> float:
    """-log posterior[label], probabilities floored at 1e-12 before the log."""
    posterior = np.asarray(posterior, dtype=float)
    if label not in (0, 1):
        raise InvalidInputError(f"label must be 0 or 1, got {label}")
    return float(-np.log(max(posterior[label], PROB_FLOOR)))


def numeric_gradient(loss_fn, arr: np.ndarray, epsilon: float) -> np.ndarray:
    """Central-difference gradient of loss_fn with respect to each entry of arr."""
    if not epsilon > 0:
        raise InvalidInputError("epsilon must be positive")
    g = np.zeros_like(arr)
    for idx in np.ndindex(arr.shape):
        orig = arr[idx]
        arr[idx] = orig + epsilon
        f_plus = loss_fn()
        arr[idx] = orig - epsilon
        f_minus = loss_fn()
        arr[idx] = orig
        g[idx] = (f_plus - f_minus) / (2 * epsilon)
    return g


def _head_loss_and_grad(net: DenseNetwork, x: np.ndarray, target: int):
    # d(loss)/d(logits) of the floored loss: zero once the probability hits the
    # floor, and for the sigmoid head zero outside its clip
    out, cache = tinynn.forward_batch(net, x[None, :])
    if net.output_head is OutputHead.SOFTMAX2:
        loss = cross_entropy_loss(out[0], target)
        p = out[0, target]
        g = out - np.eye(2)[target] if p > PROB_FLOOR else np.zeros((1, 2))
    else:
        m = out[0, 0]
        inside = abs(cache[1][-1][0, 0]) < SIGMOID_Z_CLIP
        if target == 1:  # -log m, with dm/dz = m (1 - m)
            loss = float(-np.log(max(m, PROB_FLOOR)))
            g = np.array([[-(1.0 - m) if m > PROB_FLOOR and inside else 0.0]])
        else:  # -log(1 - m)
            loss = float(-np.log(max(1.0 - m, PROB_FLOOR)))
            g = np.array([[m if 1.0 - m > PROB_FLOOR and inside else 0.0]])
    return loss, cache, g


def grad_check(net: DenseNetwork, x, target: int, epsilon: float = 1e-5) -> float:
    """Max relative error between backward and central differences.

    The loss is the head's natural per-sample loss: cross-entropy against
    `target` for softmax2, the membership log term (target = 1 for member)
    for the sigmoid head. backward gets that loss's gradient with respect to
    the output logits.
    """
    x = np.asarray(x, dtype=float)
    _, cache, g_logits = _head_loss_and_grad(net, x, target)
    analytic = tinynn.backward(net, cache, g_logits)
    numeric = numeric_gradient(
        lambda: _head_loss_and_grad(net, x, target)[0], net.params, epsilon)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float((np.abs(analytic - numeric) / denom).max())


def sample_checkable_network(rng, head):
    """Random net and input with pre-activations clear of the ReLU kink.

    Central differences are invalid within epsilon of a kink, and He-init
    nets this narrow can leave a whole layer dead (pinning deeper
    pre-activations at exactly 0), so resample until every |z| > 1e-3.
    """
    while True:
        depth = int(rng.integers(1, 4))
        dims = [int(rng.integers(2, 10)) for _ in range(depth + 1)]
        dims.append(2 if head is OutputHead.SOFTMAX2 else 1)
        net = tinynn.init_network(dims, head, int(rng.integers(0, 2 ** 31)))
        x = rng.normal(size=net.input_dim)
        out, (_, pre_acts) = tinynn.forward_batch(net, x[None, :])
        if min(np.abs(z).min() for z in pre_acts) <= 1e-3:
            continue
        if head is OutputHead.SOFTMAX2 and out.min() < 1e-9:
            continue
        if head is OutputHead.SIGMOID_SCALAR and np.abs(pre_acts[-1]).max() > 29:
            continue
        return net, x


# ---------------------------------------------------------------------------
# Training oracle: minibatch_adam's fit with every array allocated per step
# ---------------------------------------------------------------------------

def reference_minibatch_adam(net: DenseNetwork, inputs, hyper: tinynn.TrainHyper,
                             logit_grad, epoch_end, what: str = "") -> list:
    """minibatch_adam written plainly: a @ w + b, ReLU, the head, backward, adam_step.

    The same float32 copy, permutation stream (hyper.seed, 1), batches,
    epoch_end(work) calls and one write-back after the last epoch; every
    array is a fresh one.
    `what`, minibatch_adam's name for the metric in its errors, is unused.
    """
    x = np.asarray(inputs, dtype=np.float32)
    work = DenseNetwork(layer_dims=net.layer_dims, params=net.params.astype(np.float32),
                        output_head=net.output_head)
    state = tinynn.AdamState.for_network(work, learning_rate=hyper.learning_rate)
    rng = np.random.default_rng((hyper.seed, 1))
    history = []
    for _ in range(hyper.epochs):
        order = rng.permutation(len(x))
        for start in range(0, len(x), hyper.batch_size):
            idx = order[start:start + hyper.batch_size]
            activations, pre_acts = [x[idx]], []
            for i, (w, b) in enumerate(zip(work.weights, work.biases)):
                z = activations[-1] @ w + b
                if i < len(work.weights) - 1:
                    a = np.maximum(0.0, z)
                elif work.output_head is OutputHead.SOFTMAX2:
                    e = np.exp(z - z.max(axis=1, keepdims=True))
                    a = e / e.sum(axis=1, keepdims=True)
                else:
                    a = 1.0 / (1.0 + np.exp(-np.clip(z, -SIGMOID_Z_CLIP, SIGMOID_Z_CLIP)))
                pre_acts.append(z)
                activations.append(a)
            dz = logit_grad(idx, activations[-1], pre_acts[-1])
            layer_grads = []
            for i in range(len(work.weights) - 1, -1, -1):
                layer_grads[:0] = [activations[i].T @ dz, dz.sum(axis=0)]
                if i > 0:
                    dz = (dz @ work.weights[i].T) * (pre_acts[i - 1] > 0)
            grads = np.concatenate([g.ravel() for g in layer_grads])
            tinynn.adam_step(work, grads, state)
        history.append(epoch_end(work))
    net.params[...] = work.params
    return history


def reference_cross_entropy_fit(net: DenseNetwork, inputs, labels, hyper: tinynn.TrainHyper):
    """train_supervised's per-epoch mean loss and fused gradient (p - onehot) / n, on the oracle."""
    y = np.asarray(labels)
    loss_sum = [0.0]

    def logit_grad(idx, p, z):
        n = idx.size
        loss_sum[0] += float(-np.log(np.maximum(p[np.arange(n), y[idx]], PROB_FLOOR)).sum())
        return (p - np.eye(2, dtype=p.dtype)[y[idx]]) / n

    def mean_loss(_work):
        mean, loss_sum[0] = loss_sum[0] / len(y), 0.0
        return mean

    return reference_minibatch_adam(net, inputs, hyper, logit_grad, mean_loss)


# ---------------------------------------------------------------------------
# CSV oracle: the csv.writer export that the format template replaces
# ---------------------------------------------------------------------------

def _csv_writer_rows(signals):
    view, member = signals.view.value, int(signals.member)
    for i, (tx_id, label, phases, powers) in enumerate(zip(
            signals.tx_id.tolist(), signals.class_label.tolist(),
            signals.phases.tolist(), signals.powers.tolist())):
        yield [i, tx_id, label, member, view, *phases, *powers]


def csv_writer_samples(samples) -> bytes:
    """The bytes csv.writer writes for write_samples_csv's table."""
    with io.StringIO(newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(scenarios.CSV_HEADER)
        writer.writerows(_csv_writer_rows(samples))
        return fh.getvalue().encode("utf-8")


def csv_writer_pairs(pairs) -> bytes:
    """The bytes csv.writer writes for write_pairs_csv's table."""
    with io.StringIO(newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(scenarios.CSV_HEADER)
        writer.writerows(chain.from_iterable(zip(_csv_writer_rows(pairs.provider),
                                                 _csv_writer_rows(pairs.adversary))))
        return fh.getvalue().encode("utf-8")


# ---------------------------------------------------------------------------
# Noise oracle: one default_rng per row, the loop scenarios.stream_noise replaces
# ---------------------------------------------------------------------------

def stream_noise_oracle(noise, seed: int, stream: int, n: int, views: int) -> np.ndarray:
    """Observation noise of n transmissions seen by views receivers: (n, views, 2, 16).

    Row i is drawn from its own substream (seed, stream, i): per view, the
    phase noise and then the power noise, uniform per symbol within the
    model's bounds.
    """
    bound = np.array([[noise.phase_bound_rad], [noise.power_bound]])
    block = np.empty((n, views, 2, scenarios.SYMBOLS_PER_SAMPLE))
    for i in range(n):
        block[i] = np.random.default_rng((seed, stream, i)).uniform(
            -bound, bound, size=block.shape[1:])
    return block


def traced_peak_mb(call) -> float:
    """How far traced memory rose above its starting level while call() ran, in MB."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        call()
        return (tracemalloc.get_traced_memory()[1] - start) / 2 ** 20
    finally:
        tracemalloc.stop()


def small_config(scenario=Scenario.FULL_STRONG, seed=11, **overrides) -> ScenarioConfig:
    """Reduced-count config for fast pipeline tests."""
    kwargs = dict(
        scenario=scenario,
        seed=seed,
        counts=ScenarioCounts(provider_train=240, surrogate_train=120,
                              provider_test=200, member_eval=60, nonmember_eval=60),
    )
    kwargs.update(overrides)
    return ScenarioConfig(**kwargs)


def small_hyper(config, classifier_epochs=40, mia_epochs=60) -> harness.PipelineHyper:
    return harness.PipelineHyper.for_config(config, classifier_epochs=classifier_epochs,
                                            mia_epochs=mia_epochs)


@pytest.fixture(scope="session")
def small_bundle():
    return scenarios.generate_scenario_data(small_config())


@pytest.fixture(scope="session")
def small_classifiers(small_bundle):
    """Target and surrogate trained on the small bundle."""
    config = small_bundle.config
    hyper = small_hyper(config)
    target, target_report = classify.train_target(
        small_bundle.provider_train, small_bundle.test_pairs.provider, hyper.target)
    surrogate, surrogate_report = classify.train_surrogate(
        small_bundle.surrogate_pairs, target, small_bundle.test_pairs.adversary,
        hyper.surrogate)
    return {"target": target, "target_report": target_report,
            "surrogate": surrogate, "surrogate_report": surrogate_report,
            "hyper": hyper}


@pytest.fixture(scope="session")
def acceptance_matrix():
    """All four scenarios at seeds 1..5 with the shipped defaults (slow)."""
    reports, summary = harness.run_all(seeds=[1, 2, 3, 4, 5])
    return {"reports": reports, "summary": summary}


@pytest.fixture(scope="session")
def fullstrong_seed7_cell(tmp_path_factory):
    """One persisted full-scale run of `run --scenario full-strong --seed 7`."""
    from airmia.cli import dispatch

    out = tmp_path_factory.mktemp("seed7")
    status = dispatch(["run", "--scenario", "full-strong", "--seed", "7",
                       "--out", str(out)])
    assert status == 0
    return out / "full-strong" / "7"
