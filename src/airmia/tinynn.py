"""Minimal dense feedforward network engine.

Double-precision numpy throughout: plain matmul forward, hand-written
reverse-mode gradients, Adam updates, and a central-difference gradient
oracle used by the test suite. Two output heads are supported: a two-way
softmax posterior and a scalar sigmoid.
"""

from __future__ import annotations

import enum
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import ArtifactError, InvalidInputError
from .rfsim import TWO_PI

PROB_FLOOR = 1e-12

# Feature scaling applied before any network input: phases are angles in
# [0, 2*pi), powers sit near the strong-scenario received power of 10.0.
PHASE_SCALE = TWO_PI
POWER_SCALE = 10.0

# Pre-activation clip for the sigmoid head keeps outputs strictly inside (0, 1).
SIGMOID_Z_CLIP = 30.0

MODEL_FORMAT_VERSION = "1"


class OutputHead(str, enum.Enum):
    SOFTMAX2 = "softmax2"
    SIGMOID_SCALAR = "sigmoid-scalar"


@dataclass
class DenseNetwork:
    layer_dims: list[int]
    weights: list[np.ndarray]  # per layer, shape (fan_in, fan_out)
    biases: list[np.ndarray]  # per layer, shape (fan_out,)
    output_head: OutputHead

    @property
    def input_dim(self) -> int:
        return self.layer_dims[0]

    def parameter_count(self) -> int:
        return sum(w.size + b.size for w, b in zip(self.weights, self.biases))

    def parameter_arrays(self) -> list[np.ndarray]:
        """All parameter arrays in a fixed order (weights and biases per layer)."""
        out = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out


@dataclass
class Gradients:
    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def parameter_arrays(self) -> list[np.ndarray]:
        out = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out


@dataclass
class AdamState:
    first_moment: list[np.ndarray]
    second_moment: list[np.ndarray]
    step_count: int
    learning_rate: float
    beta1: float
    beta2: float
    epsilon: float

    @classmethod
    def for_network(cls, net: DenseNetwork, learning_rate: float = 1e-3,
                    beta1: float = 0.9, beta2: float = 0.999, epsilon: float = 1e-8):
        params = net.parameter_arrays()
        return cls(
            first_moment=[np.zeros_like(p) for p in params],
            second_moment=[np.zeros_like(p) for p in params],
            step_count=0,
            learning_rate=learning_rate,
            beta1=beta1,
            beta2=beta2,
            epsilon=epsilon,
        )


@dataclass(frozen=True)
class TrainHyper:
    epochs: int = 100
    batch_size: int = 64
    learning_rate: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        if self.epochs <= 0 or self.batch_size <= 0 or self.learning_rate <= 0:
            raise InvalidInputError("epochs, batch_size and learning_rate must be positive")


def init_network(layer_dims, output_head: OutputHead, seed: int) -> DenseNetwork:
    """He-initialized network: N(0, 2/fan_in) weights, zero biases."""
    dims = [int(d) for d in layer_dims]
    if len(dims) < 2 or any(d <= 0 for d in dims):
        raise InvalidInputError(f"layer_dims must have >= 2 positive entries, got {layer_dims}")
    output_head = OutputHead(output_head)
    if output_head is OutputHead.SOFTMAX2 and dims[-1] != 2:
        raise InvalidInputError("softmax2 head requires output dim 2")
    if output_head is OutputHead.SIGMOID_SCALAR and dims[-1] != 1:
        raise InvalidInputError("sigmoid-scalar head requires output dim 1")
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        weights.append(rng.normal(0.0, math.sqrt(2.0 / fan_in), size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return DenseNetwork(layer_dims=dims, weights=weights, biases=biases, output_head=output_head)


def _softmax_rows(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _sigmoid_clipped(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -SIGMOID_Z_CLIP, SIGMOID_Z_CLIP)))


def forward_batch(net: DenseNetwork, inputs: np.ndarray):
    """Forward pass over a batch. Returns (outputs, cache) for backward."""
    x = np.asarray(inputs, dtype=float)
    if x.ndim != 2 or x.shape[1] != net.input_dim:
        raise InvalidInputError(
            f"expected input of shape (n, {net.input_dim}), got {x.shape}")
    activations = [x]
    pre_acts = []
    a = x
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = a @ w + b
        pre_acts.append(z)
        if i < last:
            a = np.maximum(0.0, z)
        elif net.output_head is OutputHead.SOFTMAX2:
            a = _softmax_rows(z)
        else:
            a = _sigmoid_clipped(z)
        activations.append(a)
    return activations[-1], (activations, pre_acts)


def cross_entropy_loss(posterior, label: int) -> float:
    """-log posterior[label], probabilities floored at 1e-12 before the log."""
    posterior = np.asarray(posterior, dtype=float)
    if label not in (0, 1):
        raise InvalidInputError(f"label must be 0 or 1, got {label}")
    return float(-np.log(max(posterior[label], PROB_FLOOR)))


def backward(net: DenseNetwork, cache, grad_output: np.ndarray) -> Gradients:
    """Reverse-mode gradients given d(loss)/d(output) per batch row.

    Returned gradients are sums over the batch; callers scale grad_output
    for mean losses. ReLU subgradient at exactly 0 is taken as 0.
    """
    activations, pre_acts = cache
    g_out = np.asarray(grad_output, dtype=float)
    out = activations[-1]
    if g_out.shape != out.shape:
        raise InvalidInputError(f"grad_output shape {g_out.shape} != output shape {out.shape}")

    if net.output_head is OutputHead.SOFTMAX2:
        # Jacobian of softmax: dz_i = p_i * (g_i - sum_j g_j p_j)
        dz = out * (g_out - (g_out * out).sum(axis=1, keepdims=True))
    else:
        z = pre_acts[-1]
        inside = (np.abs(z) < SIGMOID_Z_CLIP).astype(float)
        dz = g_out * out * (1.0 - out) * inside

    grads_w = [None] * len(net.weights)
    grads_b = [None] * len(net.biases)
    for i in range(len(net.weights) - 1, -1, -1):
        grads_w[i] = activations[i].T @ dz
        grads_b[i] = dz.sum(axis=0)
        if i > 0:
            da = dz @ net.weights[i].T
            dz = da * (pre_acts[i - 1] > 0)
    return Gradients(weights=grads_w, biases=grads_b)


def adam_step(net: DenseNetwork, grads: Gradients, state: AdamState):
    """Standard Adam update with bias correction, applied in place."""
    params = net.parameter_arrays()
    gs = grads.parameter_arrays()
    if len(params) != len(state.first_moment) or any(
            p.shape != g.shape for p, g in zip(params, gs)):
        raise InvalidInputError("gradient shapes do not match network parameters")
    state.step_count += 1
    t = state.step_count
    b1, b2 = state.beta1, state.beta2
    for p, g, m, v in zip(params, gs, state.first_moment, state.second_moment):
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * g * g
        m_hat = m / (1 - b1 ** t)
        v_hat = v / (1 - b2 ** t)
        p -= state.learning_rate * m_hat / (np.sqrt(v_hat) + state.epsilon)
    return net, state


def train_supervised(net: DenseNetwork, inputs, labels, hyper: TrainHyper):
    """Mini-batch Adam on cross-entropy. Returns (net, per-epoch loss history)."""
    if net.output_head is not OutputHead.SOFTMAX2:
        raise InvalidInputError("train_supervised requires a softmax2 head")
    x = np.asarray(inputs, dtype=float)
    y = np.asarray(labels, dtype=int)
    if x.ndim != 2 or x.shape[0] == 0:
        raise InvalidInputError("training set must be a non-empty (n, d) array")
    if y.shape != (x.shape[0],) or not np.isin(y, (0, 1)).all():
        raise InvalidInputError("labels must be a vector of 0/1 matching the inputs")
    n = x.shape[0]
    rng = np.random.default_rng((hyper.seed, 1))
    state = AdamState.for_network(net, learning_rate=hyper.learning_rate)
    onehot = np.eye(2)[y]
    history = []
    for _ in range(hyper.epochs):
        order = rng.permutation(n)
        loss_sum = 0.0
        for start in range(0, n, hyper.batch_size):
            idx = order[start:start + hyper.batch_size]
            out, cache = forward_batch(net, x[idx])
            p_label = np.maximum(out[np.arange(idx.size), y[idx]], PROB_FLOOR)
            loss_sum += float(-np.log(p_label).sum())
            # d(mean CE)/d(posterior): -onehot/p per row, averaged over the batch
            g_out = -(onehot[idx] / np.maximum(out, PROB_FLOOR)) / idx.size
            g_out[onehot[idx] == 0] = 0.0
            grads = backward(net, cache, g_out)
            adam_step(net, grads, state)
        history.append(loss_sum / n)
    return net, history


def numeric_gradient(loss_fn, arrays, epsilon: float):
    """Central-difference gradient of loss_fn with respect to each array entry."""
    if not epsilon > 0:
        raise InvalidInputError("epsilon must be positive")
    grads = []
    for arr in arrays:
        g = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + epsilon
            f_plus = loss_fn()
            arr[idx] = orig - epsilon
            f_minus = loss_fn()
            arr[idx] = orig
            g[idx] = (f_plus - f_minus) / (2 * epsilon)
            it.iternext()
        grads.append(g)
    return grads


def _head_loss_and_grad(net: DenseNetwork, x: np.ndarray, target: int):
    # gradient of the floored loss: zero once the probability hits the floor
    out, cache = forward_batch(net, x[None, :])
    if net.output_head is OutputHead.SOFTMAX2:
        loss = cross_entropy_loss(out[0], target)
        g = np.zeros((1, 2))
        p = out[0, target]
        g[0, target] = -1.0 / p if p > PROB_FLOOR else 0.0
    else:
        m = out[0, 0]
        if target == 1:
            loss = float(-np.log(max(m, PROB_FLOOR)))
            g = np.array([[-1.0 / m if m > PROB_FLOOR else 0.0]])
        else:
            loss = float(-np.log(max(1.0 - m, PROB_FLOOR)))
            g = np.array([[1.0 / (1.0 - m) if 1.0 - m > PROB_FLOOR else 0.0]])
    return loss, cache, g


def grad_check(net: DenseNetwork, x, target: int, epsilon: float = 1e-5) -> float:
    """Max relative error between backward and central differences.

    The loss is the head's natural per-sample loss: cross-entropy against
    `target` for softmax2, the membership log term (target = 1 for member)
    for the sigmoid head.
    """
    x = np.asarray(x, dtype=float)
    _, cache, g_out = _head_loss_and_grad(net, x, target)
    analytic = backward(net, cache, g_out).parameter_arrays()
    numeric = numeric_gradient(
        lambda: _head_loss_and_grad(net, x, target)[0],
        net.parameter_arrays(), epsilon)
    worst = 0.0
    for a, nu in zip(analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(nu)), 1e-8)
        worst = max(worst, float((np.abs(a - nu) / denom).max()))
    return worst


def model_document(net: DenseNetwork) -> dict:
    return {
        "version": MODEL_FORMAT_VERSION,
        "layer_dims": list(net.layer_dims),
        "output_head": net.output_head.value,
        "weights": [w.tolist() for w in net.weights],
        "biases": [b.tolist() for b in net.biases],
        "scaling": {"phase": PHASE_SCALE, "power": POWER_SCALE},
    }


def network_from_document(doc: dict, source: str = "<document>") -> DenseNetwork:
    try:
        version = doc["version"]
        if version != MODEL_FORMAT_VERSION:
            raise ArtifactError(f"{source}: unknown model format version {version!r}")
        dims = [int(d) for d in doc["layer_dims"]]
        head = OutputHead(doc["output_head"])
        weights = [np.asarray(w, dtype=float) for w in doc["weights"]]
        biases = [np.asarray(b, dtype=float) for b in doc["biases"]]
        scaling = doc["scaling"]
    except ArtifactError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ArtifactError(f"{source}: malformed model document ({exc})") from exc
    if scaling != {"phase": PHASE_SCALE, "power": POWER_SCALE}:
        raise ArtifactError(f"{source}: unsupported feature scaling {scaling}")
    expected = list(zip(dims[:-1], dims[1:]))
    if [w.shape for w in weights] != expected or [b.shape for b in biases] != [
            (d,) for d in dims[1:]]:
        raise ArtifactError(f"{source}: parameter shapes do not match layer_dims")
    if not all(np.isfinite(w).all() for w in weights + biases):
        raise ArtifactError(f"{source}: non-finite parameters")
    return DenseNetwork(layer_dims=dims, weights=weights, biases=biases, output_head=head)


def atomic_write(path, write) -> None:
    """Call write(tmp) on `<path>.tmp`, then rename the finished file over path."""
    tmp = f"{path}.tmp"
    write(tmp)
    os.replace(tmp, path)


def atomic_write_text(path, text: str) -> None:
    def write(tmp):
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)

    atomic_write(path, write)


def save_model(net: DenseNetwork, path: str) -> None:
    atomic_write_text(path, json.dumps(model_document(net), sort_keys=True))


def load_model(path: str) -> DenseNetwork:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ArtifactError(f"cannot load model from {path}: {exc}") from exc
    return network_from_document(doc, source=str(path))
