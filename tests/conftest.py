import numpy as np
import pytest

from airmia import classify, harness, scenarios, tinynn
from airmia.scenarios import Scenario, ScenarioConfig, ScenarioCounts
from airmia.tinynn import OutputHead


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
