"""Training and evaluation of the provider's classifier and the adversary's surrogate.

Both networks share the [32, 100, 100, 100, 2] architecture. The provider's
target is fit on its own received training data with ground-truth labels;
the surrogate is fit on adversary-side views of fresh transmissions, labeled
by whether the provider's classifier granted access to the matching
provider-side view.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

import numpy as np

from .errors import ArtifactError, InvalidConfigError, InvalidInputError
from .rfsim import SignalSample
from .tinynn import (
    DenseNetwork,
    OutputHead,
    PHASE_SCALE,
    POWER_SCALE,
    TrainHyper,
    atomic_write_text,
    forward_batch,
    init_network,
    train_supervised,
)

CLASSIFIER_DIMS = [32, 100, 100, 100, 2]

REPORT_FORMAT_VERSION = "1"


def sample_features(sample: SignalSample) -> np.ndarray:
    """Scaled 32-feature vector: phases / 2pi then powers / 10."""
    return np.concatenate([sample.phases / PHASE_SCALE, sample.powers / POWER_SCALE])


def features_matrix(samples) -> np.ndarray:
    if len(samples) == 0:
        raise InvalidInputError("empty sample list")
    return np.stack([sample_features(s) for s in samples])


def labels_vector(samples) -> np.ndarray:
    return np.array([s.class_label for s in samples], dtype=int)


@dataclass
class ClassifierReport:
    role: str
    train_accuracy: float
    test_accuracy: float
    loss_history: list[float]
    dataset_sizes: dict
    seed: int
    train_seconds: float = 0.0  # kept out of the persisted document

    def to_document(self) -> dict:
        return {
            "version": REPORT_FORMAT_VERSION,
            "role": self.role,
            "train_accuracy": self.train_accuracy,
            "test_accuracy": self.test_accuracy,
            "loss_history": self.loss_history,
            "dataset_sizes": self.dataset_sizes,
            "seed": self.seed,
        }


def report_from_document(doc: dict, source: str = "<document>") -> ClassifierReport:
    try:
        if doc["version"] != REPORT_FORMAT_VERSION:
            raise ArtifactError(f"{source}: unknown report version {doc['version']!r}")
        return ClassifierReport(
            role=doc["role"],
            train_accuracy=float(doc["train_accuracy"]),
            test_accuracy=float(doc["test_accuracy"]),
            loss_history=[float(v) for v in doc["loss_history"]],
            dataset_sizes=dict(doc["dataset_sizes"]),
            seed=int(doc["seed"]),
        )
    except ArtifactError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ArtifactError(f"{source}: malformed classifier report ({exc})") from exc


def save_report(report: ClassifierReport, path) -> None:
    atomic_write_text(path, json.dumps(report.to_document(), sort_keys=True))


def load_report(path) -> ClassifierReport:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ArtifactError(f"cannot load report from {path}: {exc}") from exc
    return report_from_document(doc, source=str(path))


def posterior_matrix(net: DenseNetwork, samples) -> np.ndarray:
    out, _ = forward_batch(net, features_matrix(samples))
    return out


def predicted_labels(net: DenseNetwork, samples) -> np.ndarray:
    """Argmax labels; an exact posterior tie denies service (class 0)."""
    post = posterior_matrix(net, samples)
    return (post[:, 1] > post[:, 0]).astype(int)


def classification_accuracy(net: DenseNetwork, samples) -> float:
    if len(samples) == 0:
        raise InvalidInputError("cannot score an empty dataset")
    return float(np.mean(predicted_labels(net, samples) == labels_vector(samples)))


def _check_balance(labels: np.ndarray, role: str) -> None:
    frac = float(np.mean(labels))
    if not 0.45 <= frac <= 0.55:
        raise InvalidConfigError(
            f"{role} training data class balance {frac:.3f} outside [0.45, 0.55]")


def train_target(train_samples, test_samples, hyper: TrainHyper):
    """Fit the provider's classifier; report held-out accuracy on test_samples."""
    x = features_matrix(train_samples)
    y = labels_vector(train_samples)
    _check_balance(y, "target")
    started = time.perf_counter()
    net = init_network(CLASSIFIER_DIMS, OutputHead.SOFTMAX2, hyper.seed)
    net, history = train_supervised(net, x, y, hyper)
    elapsed = time.perf_counter() - started
    report = ClassifierReport(
        role="target",
        train_accuracy=classification_accuracy(net, train_samples),
        test_accuracy=classification_accuracy(net, test_samples),
        loss_history=history,
        dataset_sizes={"train": len(train_samples), "test": len(test_samples)},
        seed=hyper.seed,
        train_seconds=elapsed,
    )
    return net, report


def observed_access_labels(pairs, target: DenseNetwork) -> np.ndarray:
    """Labels as the adversary observes them: the target's grant decisions."""
    return predicted_labels(target, [p.provider_view for p in pairs])


def train_surrogate(pairs, target: DenseNetwork, test_samples, hyper: TrainHyper):
    """Fit the adversary's stand-in classifier from observed access grants.

    Inputs are adversary-side views; labels come from the target's decision
    on the matching provider-side view. test_samples are fresh adversary
    views scored against ground-truth classes.
    """
    y = observed_access_labels(pairs, target)
    _check_balance(y, "surrogate")
    adversary_views = [p.adversary_view for p in pairs]
    x = features_matrix(adversary_views)
    started = time.perf_counter()
    net = init_network(CLASSIFIER_DIMS, OutputHead.SOFTMAX2, hyper.seed)
    net, history = train_supervised(net, x, y, hyper)
    elapsed = time.perf_counter() - started
    train_acc = float(np.mean(predicted_labels(net, adversary_views) == y))
    report = ClassifierReport(
        role="surrogate",
        train_accuracy=train_acc,
        test_accuracy=classification_accuracy(net, test_samples),
        loss_history=history,
        dataset_sizes={"train": len(pairs), "test": len(test_samples)},
        seed=hyper.seed,
        train_seconds=elapsed,
    )
    return net, report


def paired_agreement(target: DenseNetwork, surrogate: DenseNetwork, pairs) -> float:
    """Fraction of paired observations where both classifiers issue one label."""
    if len(pairs) == 0:
        raise InvalidInputError("empty pair list")
    t = predicted_labels(target, [p.provider_view for p in pairs])
    s = predicted_labels(surrogate, [p.adversary_view for p in pairs])
    return float(np.mean(t == s))


def grant_rate(net: DenseNetwork, samples) -> float:
    """Fraction of samples the classifier would grant access (class 1)."""
    if len(samples) == 0:
        raise InvalidInputError("empty sample list")
    return float(np.mean(predicted_labels(net, samples) == 1))
