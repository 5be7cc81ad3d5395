import dataclasses

import numpy as np
import pytest

from airmia import classify
from airmia.errors import InvalidConfigError, InvalidInputError
from airmia.rfsim import Pairs, Receiver, Signals
from airmia.scenarios import Scenario, ScenarioConfig, generate_scenario_data
from airmia.tinynn import (
    INFER_ROWS,
    PHASE_SCALE,
    POWER_SCALE,
    OutputHead,
    TrainHyper,
    infer,
    init_network,
)
from conftest import traced_peak_mb


def synthetic_samples(rng, labels):
    return Signals(phases=rng.uniform(0, PHASE_SCALE, (len(labels), 16)),
                   powers=rng.uniform(0, 20, (len(labels), 16)),
                   tx_id=labels, class_label=labels, view=Receiver.PROVIDER)


def zero_classifier():
    net = init_network(classify.CLASSIFIER_DIMS, OutputHead.SOFTMAX2, 0)
    for w in net.weights:
        w[:] = 0.0
    return net


@pytest.fixture(scope="module")
def default_bundle():
    """A full-strong bundle at the shipped counts."""
    return generate_scenario_data(ScenarioConfig(scenario=Scenario.FULL_STRONG, seed=3))


class TestFeatures:
    def test_scaling(self, small_bundle):
        s = small_bundle.provider_train
        feats = classify.features_matrix(s)
        assert feats.shape == (len(s), 32)
        assert np.array_equal(feats[:, :16], s.phases / PHASE_SCALE)
        assert np.array_equal(feats[:, 16:], s.powers / POWER_SCALE)

    def test_empty_list_rejected(self, small_bundle):
        with pytest.raises(InvalidInputError):
            classify.features_matrix(small_bundle.provider_train.take([]))


class TestPredict:
    def test_zero_network_ties_deny_service(self):
        rng = np.random.default_rng(0)
        net = zero_classifier()
        sample = synthetic_samples(rng, [0])
        assert classify.posterior_matrix(net, sample).tolist() == [[0.5, 0.5]]
        assert classify.predicted_labels(net, sample).tolist() == [0]

    def test_posterior_sums_to_one(self, small_bundle, small_classifiers):
        post = classify.posterior_matrix(small_classifiers["target"],
                                         small_bundle.test_pairs.provider.take(np.s_[:50]))
        assert np.abs(post.sum(axis=1) - 1.0).max() < 1e-12

    @pytest.mark.parametrize("n", [INFER_ROWS, INFER_ROWS + 1, 2 * INFER_ROWS + 7])
    def test_blocks_equal_infer_over_the_whole_matrix(self, n):
        rng = np.random.default_rng(n)
        samples = synthetic_samples(rng, rng.integers(0, 2, size=n))
        net = init_network(classify.CLASSIFIER_DIMS, OutputHead.SOFTMAX2, n)
        post = classify.posterior_matrix(net, samples)
        assert post.tobytes() == infer(net, classify.features_matrix(samples)).tobytes()

    def test_empty_table_is_an_error_not_an_empty_result(self, small_bundle, small_classifiers):
        empty = small_bundle.test_pairs.provider.take([])
        for score in (classify.posterior_matrix, classify.predicted_labels,
                      classify.classification_accuracy):
            with pytest.raises(InvalidInputError, match="empty sample list"):
                score(small_classifiers["target"], empty)

    def test_peak_memory_stays_bounded(self, default_bundle):
        net = init_network(classify.CLASSIFIER_DIMS, OutputHead.SOFTMAX2, 0)
        samples = default_bundle.test_pairs.provider
        assert len(samples) == 10_000
        peak = traced_peak_mb(lambda: classify.posterior_matrix(net, samples))
        assert peak < 4, f"scoring peaked {peak:.1f} MB above its start"


class TestAccuracy:
    def test_single_correct_sample(self, small_bundle, small_classifiers):
        target = small_classifiers["target"]
        sample = small_bundle.provider_train.take([0])
        if classify.predicted_labels(target, sample)[0] == sample.class_label[0]:
            assert classify.classification_accuracy(target, sample) == 1.0

    def test_empty_dataset_rejected(self, small_bundle, small_classifiers):
        with pytest.raises(InvalidInputError):
            classify.classification_accuracy(small_classifiers["target"],
                                             small_bundle.provider_train.take([]))

    def test_flipped_labels_complement(self, small_bundle, small_classifiers):
        # exact identity: acc(flipped) = 1 - acc(original) for binary argmax
        target = small_classifiers["target"]
        samples = small_bundle.test_pairs.provider.take(np.s_[:400])
        acc = classify.classification_accuracy(target, samples)
        flipped = dataclasses.replace(samples, class_label=1 - samples.class_label)
        assert classify.classification_accuracy(target, flipped) == 1.0 - acc

    def test_random_labels_score_near_half(self):
        # features carry no label information, so any fixed net sits near 0.5
        rng = np.random.default_rng(5)
        samples = synthetic_samples(rng, rng.integers(0, 2, size=10000))
        net = init_network(classify.CLASSIFIER_DIMS, OutputHead.SOFTMAX2, 12)
        acc = classify.classification_accuracy(net, samples)
        assert 0.45 < acc < 0.55


class TestTraining:
    def test_target_balance_precondition(self, small_bundle):
        train = small_bundle.provider_train
        biased = train.take(np.concatenate([np.flatnonzero(train.class_label == 1),
                                            np.arange(40)]))
        with pytest.raises(InvalidConfigError):
            classify.train_target(biased, small_bundle.test_pairs.provider,
                                  TrainHyper(epochs=1))

    def test_reports_on_small_bundle(self, small_bundle, small_classifiers):
        t_rep = small_classifiers["target_report"]
        s_rep = small_classifiers["surrogate_report"]
        assert t_rep.role == "target" and s_rep.role == "surrogate"
        for rep in (t_rep, s_rep):
            assert 0.0 <= rep.train_accuracy <= 1.0
            assert 0.0 <= rep.test_accuracy <= 1.0
            assert len(rep.loss_history) > 0
        assert t_rep.dataset_sizes["train"] == len(small_bundle.provider_train)
        assert s_rep.dataset_sizes["train"] == len(small_bundle.surrogate_pairs)

    def test_peak_memory_stays_bounded(self, default_bundle):
        b = default_bundle
        peak = traced_peak_mb(lambda: classify.train_target(
            b.provider_train, b.test_pairs.provider, TrainHyper(epochs=1)))
        assert peak < 6, f"one epoch of target training peaked {peak:.1f} MB above its start"

    def test_architectures_match(self, small_classifiers):
        assert small_classifiers["target"].layer_dims == \
            small_classifiers["surrogate"].layer_dims == [32, 100, 100, 100, 2]

    def test_same_seed_identical_report(self, small_bundle, small_classifiers):
        hyper = small_classifiers["hyper"]
        net, rep = classify.train_target(small_bundle.provider_train,
                                         small_bundle.test_pairs.provider, hyper.target)
        first = small_classifiers["target_report"]
        assert rep.train_accuracy == first.train_accuracy
        assert rep.test_accuracy == first.test_accuracy
        assert rep.loss_history == first.loss_history

    def test_surrogate_labels_follow_observed_access(self, small_bundle, small_classifiers):
        labels = classify.surrogate_training_set(small_bundle.surrogate_pairs,
                                                 small_classifiers["target"]).class_label
        assert labels.shape == (len(small_bundle.surrogate_pairs),)
        assert set(np.unique(labels)) <= {0, 1}

    def test_surrogate_training_set_is_the_labeled_adversary_view(self, small_bundle,
                                                                  small_classifiers):
        pairs, target = small_bundle.surrogate_pairs, small_classifiers["target"]
        table = classify.surrogate_training_set(pairs, target)
        adversary = pairs.adversary
        assert np.array_equal(table.phases, adversary.phases)
        assert np.array_equal(table.powers, adversary.powers)
        assert np.array_equal(table.tx_id, adversary.tx_id)
        assert (table.view, table.member) == (adversary.view, adversary.member)
        assert np.array_equal(table.class_label,
                              classify.predicted_labels(target, pairs.provider))

    def test_paired_agreement_bounds(self, small_bundle, small_classifiers):
        agreement = classify.paired_agreement(small_classifiers["target"],
                                              small_classifiers["surrogate"],
                                              small_bundle.test_pairs)
        assert 0.0 <= agreement <= 1.0
        test = small_bundle.test_pairs
        empty = Pairs(provider=test.provider.take([]), adversary=test.adversary.take([]))
        with pytest.raises(InvalidInputError):
            classify.paired_agreement(small_classifiers["target"],
                                      small_classifiers["surrogate"], empty)


class TestReportPersistence:
    def test_round_trip(self, small_classifiers, tmp_path):
        path = tmp_path / "report.json"
        classify.save_report(small_classifiers["target_report"], path)
        back = classify.load_report(path)
        assert back.to_document() == small_classifiers["target_report"].to_document()
