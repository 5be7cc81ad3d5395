import json
import math

import numpy as np
import pytest

from airmia import classify, mia, scenarios, tinynn
from airmia.scenarios import ScenarioConfig, ScenarioCounts
from airbench import checks, layers, micro, tracing
from conftest import ROOT, SMALL_COUNTS


@pytest.mark.parametrize("head,out_dim", [(tinynn.OutputHead.SOFTMAX2, 2),
                                          (tinynn.OutputHead.SIGMOID_SCALAR, 1)])
def test_own_forward_pass_matches_forward_batch(head, out_dim):
    rng = np.random.default_rng(5)
    for trial in range(20):
        dims = [int(d) for d in rng.integers(1, 40, size=int(rng.integers(1, 4)) + 1)]
        net = tinynn.init_network(dims + [out_dim], head, seed=trial)
        for b in net.biases:
            b += rng.normal(size=b.shape)
        x = rng.normal(scale=3.0, size=(50, dims[0]))
        expected, _ = tinynn.forward_batch(net, x)
        got = checks.forward(tinynn.model_document(net), x)
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-14)


def _traced(fn):
    tracer = tracing.Tracer()
    tracer.install(layers.MODULES, layers.TARGETS, layers.COUNTERS)
    try:
        fn()
    finally:
        tracer.uninstall()
    return tracer.totals()


def test_tracer_counts_adam_steps_of_train_supervised():
    rng = np.random.default_rng(0)
    x, y = rng.normal(size=(100, 32)), np.arange(100) % 2
    hyper = tinynn.TrainHyper(epochs=3, batch_size=32, seed=1)
    net = tinynn.init_network([32, 8, 2], tinynn.OutputHead.SOFTMAX2, seed=1)
    totals = _traced(lambda: tinynn.train_supervised(net, x, y, hyper))
    steps = 3 * math.ceil(100 / 32)
    for name in ("tinynn.adam_step", "tinynn.backward", "tinynn.forward_batch"):
        assert totals[name]["calls"] == steps
    assert totals["tinynn.train_supervised"]["calls"] == 1


def test_tracer_catches_calls_made_from_mia():
    config = ScenarioConfig(scenario="full-strong", seed=11,
                            counts=ScenarioCounts(**SMALL_COUNTS))
    bundle = scenarios.generate_scenario_data(config)
    dataset = mia.split_membership(bundle.member_eval, bundle.nonmember_eval, seed=4)
    surrogate = tinynn.init_network(classify.CLASSIFIER_DIMS, tinynn.OutputHead.SOFTMAX2, 2)
    hyper = tinynn.TrainHyper(epochs=3, batch_size=16, seed=3)
    totals = _traced(lambda: mia.train_mia(surrogate, dataset, hyper))
    n_train = len(dataset.member_train_idx) + len(dataset.nonmember_train_idx)
    assert totals["tinynn.adam_step"]["calls"] == 3 * math.ceil(n_train / 16)
    assert totals["tinynn.backward"]["calls"] == 3 * math.ceil(n_train / 16)
    assert totals["mia.train_mia"]["calls"] == 1
    # uninstall put every reference back
    assert mia.adam_step is tinynn.adam_step and tinynn.adam_step.__module__ == "airmia.tinynn"
    assert not hasattr(mia.adam_step, "__wrapped__")


def test_self_time_subtracts_children():
    tracer = tracing.Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    totals = tracer.totals()
    outer, inner = totals["outer"], totals["inner"]
    assert outer["self_s"] == pytest.approx(outer["total_s"] - inner["total_s"], abs=1e-12)
    assert list(tracer.parent) == [-1, 0]


def test_per_layer_metrics_cover_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert declared == layers.PER_LAYER_UNITS
    metrics = layers.per_layer_metrics({}, {}, 1, dict.fromkeys(layers.MEASURED_APART, 1.0))
    assert list(metrics) == list(declared)
    assert all(isinstance(m["value"], (int, float)) for m in metrics.values())


def test_step_flops_by_hand():
    # [3, 4, 2] at batch 2: forward 2*2*(12+8) + 2*(4+2) = 92; backward
    # 80 + 12 + input gradient of layer 2 only 2*2*8 = 32; Adam 14 * 26 params.
    assert micro.step_flops([3, 4, 2], batch=2) == 92 + 92 + 32 + 14 * 26
