"""Training and evaluation of the provider's classifier and the adversary's surrogate.

Both networks share the [32, 100, 100, 100, 2] architecture and one fit. The
provider's target is fit on its own received training data with ground-truth
labels; the surrogate is fit on adversary-side views of fresh transmissions,
labeled by whether the provider's classifier granted access to the matching
provider-side view (surrogate_training_set).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidConfigError, InvalidInputError
from .rfsim import SYMBOLS_PER_SAMPLE, Pairs, Signals
from .tinynn import (
    INFER_ROWS,
    DenseNetwork,
    OutputHead,
    PHASE_SCALE,
    POWER_SCALE,
    TrainHyper,
    atomic_write_text,
    infer,
    init_network,
    parse_document,
    read_json,
    train_supervised,
    training_inputs,
)

CLASSIFIER_DIMS = [2 * SYMBOLS_PER_SAMPLE, 100, 100, 100, 2]

REPORT_FORMAT_VERSION = "1"


def features_matrix(samples: Signals) -> np.ndarray:
    """Scaled (n, 32) features: phases / 2pi then powers / 10, one row per sample."""
    if len(samples) == 0:
        raise InvalidInputError("empty sample list")
    x = np.empty((len(samples), 2 * SYMBOLS_PER_SAMPLE))
    np.divide(samples.phases, PHASE_SCALE, out=x[:, :SYMBOLS_PER_SAMPLE])
    np.divide(samples.powers, POWER_SCALE, out=x[:, SYMBOLS_PER_SAMPLE:])
    return x


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
    def build(doc):
        return ClassifierReport(
            role=doc["role"],
            train_accuracy=float(doc["train_accuracy"]),
            test_accuracy=float(doc["test_accuracy"]),
            loss_history=[float(v) for v in doc["loss_history"]],
            dataset_sizes=dict(doc["dataset_sizes"]),
            seed=int(doc["seed"]),
        )

    return parse_document(doc, REPORT_FORMAT_VERSION, source, "classifier report", build)


def save_report(report: ClassifierReport, path) -> None:
    atomic_write_text(path, json.dumps(report.to_document(), sort_keys=True))


def load_report(path) -> ClassifierReport:
    return report_from_document(read_json(path, "classifier report"), source=str(path))


def posterior_matrix(net: DenseNetwork, samples) -> np.ndarray:
    """Posteriors of every sample, featurized and scored INFER_ROWS rows at a time.

    The blocks are infer's own, so this equals infer(net,
    features_matrix(samples)) bit for bit without holding the whole matrix.
    """
    if len(samples) == 0:
        raise InvalidInputError("empty sample list")
    post = np.empty((len(samples), net.layer_dims[-1]))
    for start in range(0, len(samples), INFER_ROWS):
        block = samples.take(slice(start, start + INFER_ROWS))
        post[start:start + INFER_ROWS] = infer(net, features_matrix(block))
    return post


def predicted_labels(net: DenseNetwork, samples) -> np.ndarray:
    """The labels net grants samples; an exact posterior tie denies service (class 0)."""
    post = posterior_matrix(net, samples)
    return (post[:, 1] > post[:, 0]).astype(int)


def classification_accuracy(net: DenseNetwork, samples: Signals) -> float:
    return float(np.mean(predicted_labels(net, samples) == samples.class_label))


def _check_balance(labels: np.ndarray, role: str) -> None:
    frac = float(np.mean(labels))
    if not 0.45 <= frac <= 0.55:
        raise InvalidConfigError(
            f"{role} training data class balance {frac:.3f} outside [0.45, 0.55]")


def _fit(role: str, train_samples: Signals, test_samples: Signals, hyper: TrainHyper):
    """Fit one classifier on train_samples' labels; report accuracy on both sets.

    It trains in float32 (tinynn.minibatch_adam); the training matrix is rounded
    to float32 at once, so only that copy is alive while it trains.
    """
    x = training_inputs(features_matrix(train_samples))
    _check_balance(train_samples.class_label, role)
    started = time.perf_counter()
    net = init_network(CLASSIFIER_DIMS, OutputHead.SOFTMAX2, hyper.seed)
    net, history = train_supervised(net, x, train_samples.class_label, hyper)
    elapsed = time.perf_counter() - started
    del x  # freed before either set is scored
    report = ClassifierReport(
        role=role,
        train_accuracy=classification_accuracy(net, train_samples),
        test_accuracy=classification_accuracy(net, test_samples),
        loss_history=history,
        dataset_sizes={"train": len(train_samples), "test": len(test_samples)},
        seed=hyper.seed,
        train_seconds=elapsed,
    )
    return net, report


def train_target(train_samples: Signals, test_samples: Signals, hyper: TrainHyper):
    """Fit the provider's classifier; report held-out accuracy on test_samples."""
    return _fit("target", train_samples, test_samples, hyper)


def surrogate_training_set(pairs: Pairs, target: DenseNetwork) -> Signals:
    """The adversary's views, labeled by the target's grant on the provider's views."""
    return replace(pairs.adversary, class_label=predicted_labels(target, pairs.provider))


def train_surrogate(pairs: Pairs, target: DenseNetwork, test_samples, hyper: TrainHyper):
    """Fit the adversary's stand-in classifier from observed access grants.

    test_samples are fresh adversary views scored against ground-truth classes.
    """
    return _fit("surrogate", surrogate_training_set(pairs, target), test_samples, hyper)


def paired_agreement(target: DenseNetwork, surrogate: DenseNetwork, pairs: Pairs) -> float:
    """Fraction of paired observations where both classifiers issue one label."""
    t = predicted_labels(target, pairs.provider)
    s = predicted_labels(surrogate, pairs.adversary)
    return float(np.mean(t == s))


def grant_rate(net: DenseNetwork, samples: Signals) -> float:
    """Fraction of samples the classifier would grant access (class 1)."""
    return float(np.mean(predicted_labels(net, samples) == 1))
