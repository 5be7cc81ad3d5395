"""Microbenchmarks of one training step of each network at batch 64.

Times forward_batch, backward and adam_step separately over repeated steps
on a fixed random batch and reports the median of each, plus the median of
the whole step. The floating-point operation count makes an achieved rate
computable from a step time.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from airmia import classify, mia, tinynn

BATCH = 64
REPEATS = 300
WARMUP = 20

# Elementwise flops per parameter in one Adam update: two moment updates
# (3 + 4), two bias corrections, sqrt, epsilon add, divide, scale, subtract.
ADAM_FLOPS_PER_PARAM = 14


def step_flops(dims, batch: int = BATCH) -> int:
    """Flops of one step: forward and backward matrix products, bias terms, Adam.

    Forward: 2*b*i*o per layer plus b*o for the bias. Backward: 2*b*i*o for
    the weight gradient and b*o for the bias gradient per layer, and 2*b*i*o
    for the input gradient of every layer but the first. Activations, the
    softmax or sigmoid head and the ReLU masks are left out.
    """
    pairs = list(zip(dims[:-1], dims[1:]))
    forward = sum(2 * batch * i * o + batch * o for i, o in pairs)
    backward = sum(2 * batch * i * o + batch * o for i, o in pairs)
    backward += sum(2 * batch * i * o for i, o in pairs[1:])
    params = sum(i * o + o for i, o in pairs)
    return forward + backward + ADAM_FLOPS_PER_PARAM * params


def time_step(dims, head, seed: int, repeats: int = REPEATS) -> dict:
    """Median microseconds of forward, backward, Adam and the whole step."""
    rng = np.random.default_rng(seed)
    net = tinynn.init_network(dims, head, seed)
    state = tinynn.AdamState.for_network(net)
    x = rng.random((BATCH, dims[0]))
    if head is tinynn.OutputHead.SOFTMAX2:
        labels = rng.integers(0, 2, size=BATCH)
        grad = np.zeros((BATCH, 2))
    else:
        grad = rng.uniform(-1.0, 1.0, size=(BATCH, 1)) / BATCH
    samples = {"forward": [], "backward": [], "adam": [], "step": []}
    clock = time.perf_counter
    for r in range(WARMUP + repeats):
        t0 = clock()
        out, cache = tinynn.forward_batch(net, x)
        t1 = clock()
        if head is tinynn.OutputHead.SOFTMAX2:
            grad[:] = 0.0
            grad[np.arange(BATCH), labels] = -1.0 / np.maximum(
                out[np.arange(BATCH), labels], tinynn.PROB_FLOOR) / BATCH
        t2 = clock()
        grads = tinynn.backward(net, cache, grad)
        t3 = clock()
        tinynn.adam_step(net, grads, state)
        t4 = clock()
        if r >= WARMUP:
            samples["forward"].append(t1 - t0)
            samples["backward"].append(t3 - t2)
            samples["adam"].append(t4 - t3)
            samples["step"].append((t1 - t0) + (t4 - t2))
    return {k: statistics.median(v) * 1e6 for k, v in samples.items()}


def step_metrics(seed: int) -> dict:
    """Per-layer microbenchmark values for the classifier and the inference model."""
    out = {}
    for prefix, dims, head in (
            ("classifier", classify.CLASSIFIER_DIMS, tinynn.OutputHead.SOFTMAX2),
            ("mia", mia.MIA_DIMS, tinynn.OutputHead.SIGMOID_SCALAR)):
        t = time_step(dims, head, seed)
        out[f"tinynn.{prefix}_step_us"] = t["step"]
        out[f"tinynn.{prefix}_forward_us"] = t["forward"]
        out[f"tinynn.{prefix}_backward_us"] = t["backward"]
        out[f"tinynn.{prefix}_adam_us"] = t["adam"]
        out[f"tinynn.{prefix}_step_flops"] = step_flops(dims)
    return out
