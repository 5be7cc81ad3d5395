"""Minimal dense feedforward network engine.

Plain matmul forward, hand-written reverse-mode gradients, Adam updates, and
one mini-batch Adam loop (minibatch_adam) that fits every network. Two output
heads are supported: a two-way softmax posterior and a scalar sigmoid. Every
step runs in the network's own dtype. Networks are built, scored and stored in
float64; minibatch_adam trains a float32 copy and writes it back, so each
stored weight is a float64 holding a float32 value. A float32 Adam step
flushes subnormal first moments to zero (see adam_step): dead units' decayed
moments would otherwise run every step on the CPU's slow subnormal arithmetic.
Beyond its loss's gradient, a training step allocates no array:
minibatch_adam steps forward_batch, backward and adam_step through one
StepWorkspace per fit.

Importing this module pins the loaded OpenBLAS to one thread for the whole
process, whatever OPENBLAS_NUM_THREADS says: summation order, and so every
trained weight and report byte, depends on the BLAS thread count. They
depend on the kernel OpenBLAS picks for the CPU at runtime as well. BLAS
records the thread count, the setter used and that kernel.
"""

from __future__ import annotations

import copy
import ctypes
import enum
import json
import math
import os
from dataclasses import dataclass, field

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

# Rows per infer block. A row's matmul result can depend on the call's total
# row count (BLAS picks kernels by shape), so the shipped member_eval and
# nonmember_eval tables (1000 rows), whose surrogate posteriors train the
# inference model, must stay one block: keep this at least 1000.
INFER_ROWS = 1024

# Adam's moment decay rates and denominator guard (Kingma & Ba, arXiv 1412.6980).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8
# Smallest normal float32; adam_step flushes float32 first moments below it.
FLOAT32_TINY = np.finfo(np.float32).tiny


# Thread-count setters exported by the OpenBLAS builds numpy ships or links,
# in order of preference; each has a getter of the same name with "get", and
# a kernel-name getter with "get_corename" for "set_num_threads".
_BLAS_THREAD_SETTERS = ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
                        "openblas_set_num_threads64_", "openblas_set_num_threads")


def _loaded_blas_libraries() -> list[str]:
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "blas" in line.lower()}
    except OSError:
        return []
    return sorted(p for p in paths if p.startswith("/"))


def _pin_blas_threads() -> dict:
    """Set the loaded OpenBLAS to one thread; the count read back, the setter used
    and the runtime kernel (None if the library has no corename getter).

    Without a setter (numpy built on another BLAS) nothing is set and every
    entry is None.
    """
    for path in _loaded_blas_libraries():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _BLAS_THREAD_SETTERS:
            setter = getattr(lib, symbol, None)
            if setter is None:
                continue
            setter.argtypes, setter.restype = [ctypes.c_int], None
            setter(1)
            getter = getattr(lib, symbol.replace("_set_", "_get_"), None)
            count = 1
            if getter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_int
                count = int(getter())
            corename = getattr(lib, symbol.replace("_set_num_threads", "_get_corename"), None)
            kernel = None
            if corename is not None:
                corename.argtypes, corename.restype = [], ctypes.c_char_p
                kernel = corename().decode()
            return {"count": count, "setter": f"{symbol} in {os.path.basename(path)}",
                    "kernel": kernel}
    return {"count": None, "setter": None, "kernel": None}


BLAS = _pin_blas_threads()


class OutputHead(str, enum.Enum):
    SOFTMAX2 = "softmax2"
    SIGMOID_SCALAR = "sigmoid-scalar"


def _layer_views(flat: np.ndarray, dims):
    """Per-layer (fan_in, fan_out) weight and (fan_out,) bias views into a flat vector.

    The vector holds each layer's weights (row-major) and then its biases,
    layer by layer; parameters and gradients share this layout.
    """
    weights, biases, start = [], [], 0
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        stop = start + fan_in * fan_out
        weights.append(flat[start:stop].reshape(fan_in, fan_out))
        biases.append(flat[stop:stop + fan_out])
        start = stop + fan_out
    return weights, biases


@dataclass
class DenseNetwork:
    layer_dims: list[int]
    params: np.ndarray  # every weight and bias in one vector, see _layer_views
    output_head: OutputHead
    weights: list[np.ndarray] = field(init=False, repr=False)  # views, (fan_in, fan_out)
    biases: list[np.ndarray] = field(init=False, repr=False)  # views, (fan_out,)

    def __post_init__(self):
        self.weights, self.biases = _layer_views(self.params, self.layer_dims)

    @property
    def input_dim(self) -> int:
        return self.layer_dims[0]


@dataclass
class AdamState:
    first_moment: np.ndarray
    second_moment: np.ndarray
    step_count: int
    learning_rate: float
    # scratch vectors that adam_step computes into, so a step allocates nothing
    scratch: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.scratch = (np.empty_like(self.first_moment), np.empty_like(self.first_moment))

    @classmethod
    def for_network(cls, net: DenseNetwork, learning_rate: float = 1e-3):
        return cls(first_moment=np.zeros_like(net.params),
                   second_moment=np.zeros_like(net.params),
                   step_count=0, learning_rate=learning_rate)


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
    size = sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(dims[:-1], dims[1:]))
    net = DenseNetwork(layer_dims=dims, params=np.zeros(size), output_head=output_head)
    rng = np.random.default_rng(seed)
    for w in net.weights:
        w[...] = rng.normal(0.0, math.sqrt(2.0 / w.shape[0]), size=w.shape)
    return net


def _softmax_rows(z: np.ndarray, out=None, column=None) -> np.ndarray:
    """Row-wise softmax of z, written into out and using column (n, 1) if given."""
    column = np.maximum.reduce(z, axis=1, keepdims=True, out=column)
    e = np.subtract(z, column, out=out)
    np.exp(e, out=e)
    np.add.reduce(e, axis=1, keepdims=True, out=column)
    return np.divide(e, column, out=e)


def _sigmoid_clipped(z: np.ndarray, out=None) -> np.ndarray:
    s = np.clip(z, -SIGMOID_Z_CLIP, SIGMOID_Z_CLIP, out=out)
    np.negative(s, out=s)
    np.exp(s, out=s)
    np.add(1.0, s, out=s)
    return np.divide(1.0, s, out=s)


class StepWorkspace:
    """The arrays of one training step, allocated once for batches of up to `rows` rows.

    Per layer: the pre-activation, the activation (the last is the head's
    output) and, for hidden layers, the ReLU mask and the gradient with
    respect to the pre-activation. Then the gathered input batch, the
    softmax's (rows, 1) column, and one gradient vector laid out like the
    network's params with its per-layer views. leading(k) views the first k
    rows of every array, for a shorter batch; it shares the gradient vector.
    """

    def __init__(self, net: DenseNetwork, rows: int):
        dims, dtype = net.layer_dims, net.params.dtype
        self.inputs = np.empty((rows, dims[0]), dtype)
        self.pre_acts = [np.empty((rows, d), dtype) for d in dims[1:]]
        self.activations = [np.empty((rows, d), dtype) for d in dims[1:]]
        self.masks = [np.empty((rows, d), bool) for d in dims[1:-1]]
        self.deltas = [np.empty((rows, d), dtype) for d in dims[1:-1]]
        self.column = np.empty((rows, 1), dtype)
        self.grads = np.empty_like(net.params)
        self.grads_w, self.grads_b = _layer_views(self.grads, dims)

    def leading(self, rows: int) -> "StepWorkspace":
        view = copy.copy(self)
        for name in ("pre_acts", "activations", "masks", "deltas"):
            setattr(view, name, [a[:rows] for a in getattr(self, name)])
        view.inputs, view.column = self.inputs[:rows], self.column[:rows]
        return view


def _input_batch(net: DenseNetwork, inputs) -> np.ndarray:
    x = np.asarray(inputs, dtype=net.params.dtype)
    if x.ndim != 2 or x.shape[1] != net.input_dim:
        raise InvalidInputError(
            f"expected input of shape (n, {net.input_dim}), got {x.shape}")
    return x


def _layers(net: DenseNetwork, x: np.ndarray, space: StepWorkspace | None = None):
    """Yield each layer's (pre-activation, activation) for the batch x, in order.

    With a workspace, each layer writes into its arrays; without one, each
    layer allocates its own.
    """
    if space is None:
        outs, column = [(None, None)] * len(net.weights), None
    else:
        outs, column = zip(space.pre_acts, space.activations), space.column
    a = x
    last = len(net.weights) - 1
    for i, (w, b, (z_out, a_out)) in enumerate(zip(net.weights, net.biases, outs)):
        z = np.matmul(a, w, out=z_out)
        z += b  # the same rounding as a @ w + b, without its temporary
        if i < last:
            a = np.maximum(0.0, z, out=a_out)  # this argument order sets the sign of a zero
        elif net.output_head is OutputHead.SOFTMAX2:
            a = _softmax_rows(z, a_out, column)
        else:
            a = _sigmoid_clipped(z, a_out)
        yield z, a


def forward_batch(net: DenseNetwork, inputs: np.ndarray, space: StepWorkspace | None = None):
    """Forward pass over a batch. Returns (outputs, cache) for backward.

    The cache is (activations, pre_acts): the input batch and then each
    layer's activation, and each layer's pre-activation. Given a workspace
    sized to the batch, the layers write into its arrays, so the outputs
    and the cache stay valid only until the workspace's next step; the
    values are the same bit for bit.
    """
    x = _input_batch(net, inputs)
    activations = [x]
    pre_acts = []
    for z, a in _layers(net, x, space):
        pre_acts.append(z)
        activations.append(a)
    return activations[-1], (activations, pre_acts)


def infer(net: DenseNetwork, inputs: np.ndarray) -> np.ndarray:
    """Outputs for every row, INFER_ROWS rows at a time into one (n, out_dim) array.

    Each block's rows equal forward_batch's over that block, bit for bit. A
    call of at most INFER_ROWS rows is one block, so it equals forward_batch.
    Beside the output, at most three of one block's layer arrays are alive:
    the previous activation, the pre-activation and the new activation.
    """
    x = _input_batch(net, inputs)
    out = np.empty((x.shape[0], net.layer_dims[-1]), dtype=x.dtype)
    for start in range(0, x.shape[0], INFER_ROWS):
        for z, a in _layers(net, x[start:start + INFER_ROWS]):
            del z  # the next layer needs only the activation
        out[start:start + INFER_ROWS] = a
    return out


def backward(net: DenseNetwork, cache, grad_logits: np.ndarray,
             space: StepWorkspace | None = None) -> np.ndarray:
    """Reverse-mode gradients given d(loss)/d(z) per batch row.

    z is the output layer's pre-activation, so each loss owns its head's
    derivative. Returns one vector laid out like net.params, in its dtype.
    Gradients are sums over the batch; callers scale grad_logits for mean
    losses. ReLU subgradient at exactly 0 is taken as 0. Given the workspace
    that forward_batch filled for cache, the gradient is computed into its
    arrays and the returned vector is its gradient vector, overwritten by
    the next step.
    """
    activations, pre_acts = cache
    dz = np.asarray(grad_logits, dtype=net.params.dtype)
    if dz.shape != pre_acts[-1].shape:
        raise InvalidInputError(
            f"grad_logits shape {dz.shape} != output shape {pre_acts[-1].shape}")

    if space is None:
        grads = np.empty_like(net.params)
        grads_w, grads_b = _layer_views(grads, net.layer_dims)
        masks = deltas = [None] * len(pre_acts)
    else:
        grads, grads_w, grads_b = space.grads, space.grads_w, space.grads_b
        masks, deltas = space.masks, space.deltas
    for i in range(len(net.weights) - 1, -1, -1):
        np.matmul(activations[i].T, dz, out=grads_w[i])
        np.add.reduce(dz, axis=0, out=grads_b[i])
        if i > 0:
            dz = np.matmul(dz, net.weights[i].T, out=deltas[i - 1])
            np.multiply(dz, np.greater(pre_acts[i - 1], 0, out=masks[i - 1]), out=dz)
    return grads


def adam_step(net: DenseNetwork, grads: np.ndarray, state: AdamState):
    """Standard Adam update with bias correction, applied in place to net.params.

    Computes params -= lr * (m / c1) / (sqrt(v / c2) + eps) in that
    per-element order, with c = 1 - beta ** t, entirely in place. Once c1
    rounds to 1.0 (t >= 356) the divide is skipped: m / 1.0 is m bit for bit.

    In float32, m entries below finfo(float32).tiny in magnitude are set to
    zero after the moment update. A dead ReLU unit's gradient is exactly 0,
    so its m decays by beta1 into subnormals, which make every elementwise
    pass several times slower; the update such an m makes is about
    m * lr / eps < 1e-33, far below half an ulp of the trained weights.
    No network trains in float64; float64 moments are left as they are.
    """
    if grads.shape != net.params.shape or any(
            a.shape != net.params.shape
            for a in (state.first_moment, state.second_moment, *state.scratch)):
        raise InvalidInputError("gradient shapes do not match network parameters")
    state.step_count += 1
    t = state.step_count
    m, v = state.first_moment, state.second_moment
    a, b = state.scratch
    np.multiply(grads, 1 - ADAM_BETA1, out=a)
    m *= ADAM_BETA1
    m += a
    if m.dtype == np.float32:
        np.abs(m, out=a)
        np.greater_equal(a, FLOAT32_TINY, out=a)
        m *= a  # x * 1.0 is x; a subnormal * 0.0 is a signed zero
    np.multiply(grads, 1 - ADAM_BETA2, out=a)
    a *= grads
    v *= ADAM_BETA2
    v += a
    c1 = 1 - ADAM_BETA1 ** t
    if c1 == 1.0:
        np.multiply(m, state.learning_rate, out=a)
    else:
        np.divide(m, c1, out=a)
        a *= state.learning_rate
    np.divide(v, 1 - ADAM_BETA2 ** t, out=b)
    np.sqrt(b, out=b)
    b += ADAM_EPSILON
    a /= b
    net.params -= a
    return net, state


def minibatch_adam(net: DenseNetwork, inputs, hyper: TrainHyper, logit_grad,
                   epoch_end, what: str) -> list:
    """Mini-batch Adam over the rows of inputs, in float32; net.params is updated in place.

    The inputs are rounded once to float32 (training_inputs). A float32 copy
    of net trains and is written back into net.params after every epoch, so
    epoch_end scores the float64 network, whose weights hold float32 values.
    Each epoch visits the rows in a fresh permutation drawn from
    (hyper.seed, 1), hyper.batch_size rows at a time. logit_grad(idx, out, z)
    returns d(loss)/d(z) for the rows idx given their float32 outputs out and
    the output layer's pre-activations z; out and z are overwritten by the
    next step. epoch_end() returns the epoch's metric (a number or a tuple
    of numbers), which must be finite, as must the parameters; the error
    names `what`. Returns the per-epoch metrics.

    Each step gathers its rows into one StepWorkspace, built once per fit
    for batch_size rows (a shorter last batch uses its leading rows), and
    calls forward_batch, backward and adam_step on it once each, so a step
    allocates nothing beyond what logit_grad does.
    """
    work = DenseNetwork(layer_dims=net.layer_dims, params=net.params.astype(np.float32),
                        output_head=net.output_head)
    x = _input_batch(work, training_inputs(inputs))
    n, batch = x.shape[0], hyper.batch_size
    full = StepWorkspace(work, min(batch, n))
    last = full.leading(n - (n - 1) // batch * batch)  # the last batch's rows
    rng = np.random.default_rng((hyper.seed, 1))
    state = AdamState.for_network(work, learning_rate=hyper.learning_rate)
    history = []
    for epoch in range(1, hyper.epochs + 1):
        order = rng.permutation(n)
        for start in range(0, n, batch):
            idx = order[start:start + batch]
            space = full if idx.size == batch else last
            # the indices are a permutation's, so "clip" never clips; it
            # lets take write straight into out, where "raise" buffers
            np.take(x, idx, axis=0, out=space.inputs, mode="clip")
            out, cache = forward_batch(work, space.inputs, space)
            grads = backward(work, cache, logit_grad(idx, out, cache[1][-1]), space)
            adam_step(work, grads, state)
        net.params[...] = work.params
        history.append(epoch_end())
        if not (np.isfinite(history[-1]).all() and np.isfinite(net.params).all()):
            raise InvalidInputError(f"non-finite {what} or parameters after epoch {epoch}")
    return history


def cross_entropy_logit_grad(posteriors: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """d(mean cross-entropy)/d(logits) of a softmax batch: (p - onehot) / n, in p's dtype.

    The fused form. The chain rule through the posterior, p * (g - <g, p>)
    with g = -onehot / p, is exactly 0 for a row whose label probability has
    underflowed to 0 (a logit gap past about 104 in float32), so such a row
    would never recover; here it gets -1/n on its label.
    """
    n = posteriors.shape[0]
    g = posteriors.copy()
    g[np.arange(n), labels] -= 1
    g /= n
    return g


def training_inputs(inputs) -> np.ndarray:
    """inputs rounded once to float32, the dtype minibatch_adam trains in.

    A value that is finite in float64 but outside float32's range would
    become inf here, so any non-finite result is an InvalidInputError.
    """
    with np.errstate(over="ignore"):
        x = np.asarray(inputs, dtype=np.float32)
    if not np.isfinite(x).all():
        raise InvalidInputError(
            "training inputs must be finite and within float32's range "
            f"(|x| <= {np.finfo(np.float32).max:.4g})")
    return x


def train_supervised(net: DenseNetwork, inputs, labels, hyper: TrainHyper):
    """Mini-batch Adam on cross-entropy. Returns (net, per-epoch loss history)."""
    if net.output_head is not OutputHead.SOFTMAX2:
        raise InvalidInputError("train_supervised requires a softmax2 head")
    x = training_inputs(inputs)
    y = np.asarray(labels, dtype=int)
    if x.ndim != 2 or x.shape[0] == 0:
        raise InvalidInputError("training set must be a non-empty (n, d) array")
    if y.shape != (x.shape[0],) or not np.isin(y, (0, 1)).all():
        raise InvalidInputError("labels must be a vector of 0/1 matching the inputs")
    loss_sum = 0.0

    def logit_grad(idx, out, z):
        nonlocal loss_sum
        p_label = np.maximum(out[np.arange(idx.size), y[idx]], PROB_FLOOR)
        loss_sum += float(-np.log(p_label).sum())
        return cross_entropy_logit_grad(out, y[idx])

    def mean_loss():
        nonlocal loss_sum
        mean, loss_sum = loss_sum / x.shape[0], 0.0
        return mean

    return net, minibatch_adam(net, x, hyper, logit_grad, mean_loss, "loss")


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
    def build(doc):
        dims = [int(d) for d in doc["layer_dims"]]
        weights = [np.asarray(w, dtype=float) for w in doc["weights"]]
        biases = [np.asarray(b, dtype=float) for b in doc["biases"]]
        if doc["scaling"] != {"phase": PHASE_SCALE, "power": POWER_SCALE}:
            raise ValueError(f"unsupported feature scaling {doc['scaling']}")
        expected = list(zip(dims[:-1], dims[1:]))
        if not expected or [w.shape for w in weights] != expected or [
                b.shape for b in biases] != [(d,) for d in dims[1:]]:
            raise ValueError("parameter shapes do not match layer_dims")
        params = np.concatenate([a.ravel() for w, b in zip(weights, biases) for a in (w, b)])
        if not np.isfinite(params).all():
            raise ValueError("non-finite parameters")
        return DenseNetwork(layer_dims=dims, params=params,
                            output_head=OutputHead(doc["output_head"]))

    return parse_document(doc, MODEL_FORMAT_VERSION, source, "model", build)


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


def read_json(path, what: str):
    """The JSON value in the file at path; a missing or invalid file is an ArtifactError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: bytes not UTF-8, or text not JSON
        raise ArtifactError(f"cannot load {what} from {path}: {exc}") from exc


def parse_document(doc, version: str, source, what: str, build):
    """build(doc) for a document of the given format version.

    A wrong version, or a missing key or bad value that build meets (KeyError,
    TypeError, ValueError), is an ArtifactError naming source.
    """
    try:
        if doc["version"] != version:
            raise ArtifactError(f"{source}: unknown {what} version {doc['version']!r}")
        return build(doc)
    except (KeyError, TypeError, ValueError) as exc:
        raise ArtifactError(f"{source}: malformed {what} ({exc})") from exc


def save_model(net: DenseNetwork, path: str) -> None:
    atomic_write_text(path, json.dumps(model_document(net), sort_keys=True))


def load_model(path: str) -> DenseNetwork:
    return network_from_document(read_json(path, "model"), source=str(path))
