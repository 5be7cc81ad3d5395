import dataclasses
import json

import numpy as np
import pytest

from airmia import classify
from airmia.errors import ArtifactError, InvalidConfigError, InvalidInputError
from airmia.rfsim import Receiver, SignalSample
from airmia.tinynn import PHASE_SCALE, POWER_SCALE, OutputHead, TrainHyper, init_network


def synthetic_sample(rng, label=0):
    return SignalSample(phases=rng.uniform(0, PHASE_SCALE, 16),
                        powers=rng.uniform(0, 20, 16),
                        class_label=label, tx_id=label, member=False,
                        view=Receiver.PROVIDER)


def zero_classifier():
    net = init_network(classify.CLASSIFIER_DIMS, OutputHead.SOFTMAX2, 0)
    for w in net.weights:
        w[:] = 0.0
    return net


class TestFeatures:
    def test_scaling(self, small_bundle):
        s = small_bundle.provider_train[0]
        feats = classify.sample_features(s)
        assert np.array_equal(feats[:16], s.phases / PHASE_SCALE)
        assert np.array_equal(feats[16:], s.powers / POWER_SCALE)

    def test_empty_list_rejected(self):
        with pytest.raises(InvalidInputError):
            classify.features_matrix([])


class TestPredict:
    def test_zero_network_ties_deny_service(self):
        rng = np.random.default_rng(0)
        net = zero_classifier()
        sample = synthetic_sample(rng)
        assert classify.posterior_matrix(net, [sample]).tolist() == [[0.5, 0.5]]
        assert classify.predicted_labels(net, [sample]).tolist() == [0]

    def test_posterior_sums_to_one(self, small_bundle, small_classifiers):
        post = classify.posterior_matrix(small_classifiers["target"],
                                         small_bundle.provider_test[:50])
        assert np.abs(post.sum(axis=1) - 1.0).max() < 1e-12


class TestAccuracy:
    def test_single_correct_sample(self, small_bundle, small_classifiers):
        target = small_classifiers["target"]
        sample = small_bundle.provider_train[0]
        if classify.predicted_labels(target, [sample])[0] == sample.class_label:
            assert classify.classification_accuracy(target, [sample]) == 1.0

    def test_empty_dataset_rejected(self, small_classifiers):
        with pytest.raises(InvalidInputError):
            classify.classification_accuracy(small_classifiers["target"], [])

    def test_flipped_labels_complement(self, small_bundle, small_classifiers):
        # exact identity: acc(flipped) = 1 - acc(original) for binary argmax
        target = small_classifiers["target"]
        samples = small_bundle.provider_test[:400]
        acc = classify.classification_accuracy(target, samples)
        flipped = [dataclasses.replace(s, class_label=1 - s.class_label) for s in samples]
        assert classify.classification_accuracy(target, flipped) == 1.0 - acc

    def test_random_labels_score_near_half(self):
        # features carry no label information, so any fixed net sits near 0.5
        rng = np.random.default_rng(5)
        samples = [synthetic_sample(rng, label=int(rng.integers(0, 2)))
                   for _ in range(10000)]
        net = init_network(classify.CLASSIFIER_DIMS, OutputHead.SOFTMAX2, 12)
        acc = classify.classification_accuracy(net, samples)
        assert 0.45 < acc < 0.55


class TestTraining:
    def test_target_balance_precondition(self, small_bundle):
        biased = [s for s in small_bundle.provider_train if s.class_label == 1]
        biased += small_bundle.provider_train[:40]
        with pytest.raises(InvalidConfigError):
            classify.train_target(biased, small_bundle.provider_test, TrainHyper(epochs=1))

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

    def test_architectures_match(self, small_classifiers):
        assert small_classifiers["target"].layer_dims == \
            small_classifiers["surrogate"].layer_dims == [32, 100, 100, 100, 2]

    def test_same_seed_identical_report(self, small_bundle, small_classifiers):
        hyper = small_classifiers["hyper"]
        net, rep = classify.train_target(small_bundle.provider_train,
                                         small_bundle.provider_test, hyper.target)
        first = small_classifiers["target_report"]
        assert rep.train_accuracy == first.train_accuracy
        assert rep.test_accuracy == first.test_accuracy
        assert rep.loss_history == first.loss_history

    def test_surrogate_labels_follow_observed_access(self, small_bundle, small_classifiers):
        labels = classify.observed_access_labels(small_bundle.surrogate_pairs,
                                                 small_classifiers["target"])
        assert labels.shape == (len(small_bundle.surrogate_pairs),)
        assert set(np.unique(labels)) <= {0, 1}

    def test_paired_agreement_bounds(self, small_bundle, small_classifiers):
        agreement = classify.paired_agreement(small_classifiers["target"],
                                              small_classifiers["surrogate"],
                                              small_bundle.test_pairs)
        assert 0.0 <= agreement <= 1.0
        with pytest.raises(InvalidInputError):
            classify.paired_agreement(small_classifiers["target"],
                                      small_classifiers["surrogate"], [])


class TestReportPersistence:
    def test_round_trip(self, small_classifiers, tmp_path):
        path = tmp_path / "report.json"
        classify.save_report(small_classifiers["target_report"], path)
        back = classify.load_report(path)
        assert back.to_document() == small_classifiers["target_report"].to_document()

    def test_unknown_version_rejected(self, small_classifiers, tmp_path):
        path = tmp_path / "report.json"
        doc = small_classifiers["target_report"].to_document()
        doc["version"] = "9"
        path.write_text(json.dumps(doc))
        with pytest.raises(ArtifactError, match="version"):
            classify.load_report(path)

    def test_corrupt_file_names_path(self, tmp_path):
        path = tmp_path / "mangled.json"
        path.write_text("][")
        with pytest.raises(ArtifactError, match="mangled.json"):
            classify.load_report(path)
