"""Membership inference: gain objective, inference model, evaluation.

The inference model m maps a sample's 32 scaled features plus the surrogate
classifier's posterior pair (34 inputs in total) to a probability that the
matching provider-side signal was in the target classifier's training data.
It is fit by gradient ascent on the equally weighted empirical gain
    G = 1/2 * mean_members log m + 1/2 * mean_nonmembers log(1 - m),
which is maximized at 0 by a perfect separator and at log 1/2 by any
constant model when the two sets share one distribution.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ArtifactError, InvalidConfigError, InvalidInputError
from .tinynn import (
    AdamState,
    DenseNetwork,
    OutputHead,
    PROB_FLOOR,
    TrainHyper,
    adam_step,
    atomic_write_text,
    backward,
    forward_batch,
    init_network,
    model_document,
    network_from_document,
)
from .classify import features_matrix, posterior_matrix

MIA_DIMS = [34, 100, 100, 1]
MIA_INPUT_DIM = 34

MIA_FORMAT_VERSION = "1"


@dataclass
class MiaModel:
    network: DenseNetwork
    decision_threshold: float = 0.5

    def __post_init__(self):
        if self.network.output_head is not OutputHead.SIGMOID_SCALAR:
            raise InvalidInputError("inference model needs a sigmoid-scalar head")
        if self.network.input_dim != MIA_INPUT_DIM:
            raise InvalidInputError(
                f"inference model input dim must be {MIA_INPUT_DIM}, "
                f"got {self.network.input_dim}")


def mia_inputs(samples, surrogate: DenseNetwork) -> np.ndarray:
    """Scaled features concatenated with the surrogate's full posterior, per row."""
    feats = features_matrix(samples)
    post = posterior_matrix(surrogate, samples)
    return np.concatenate([feats, post], axis=1)


def membership_probabilities(model: MiaModel, surrogate: DenseNetwork, samples) -> np.ndarray:
    out, _ = forward_batch(model.network, mia_inputs(samples, surrogate))
    return out[:, 0]


def empirical_gain(member_probs, nonmember_probs) -> float:
    """Equally weighted empirical gain over finite member/nonmember sets.

    Log inputs are floored at 1e-12, so the value is finite and <= 0.
    """
    m = np.asarray(member_probs, dtype=float)
    nm = np.asarray(nonmember_probs, dtype=float)
    if m.size == 0 or nm.size == 0:
        raise InvalidInputError("member and nonmember sets must both be non-empty")
    term_members = np.log(np.maximum(m, PROB_FLOOR)).mean()
    term_nonmembers = np.log(np.maximum(1.0 - nm, PROB_FLOOR)).mean()
    return float(0.5 * term_members + 0.5 * term_nonmembers)


@dataclass(frozen=True)
class MembershipDataset:
    """Member/nonmember sample pools with a train/test partition per side."""

    members: list
    nonmembers: list
    member_train_idx: np.ndarray
    member_test_idx: np.ndarray
    nonmember_train_idx: np.ndarray
    nonmember_test_idx: np.ndarray
    allow_overlap: bool = False  # only for equal-distribution diagnostics

    def __post_init__(self):
        for pool, train, test, side in (
                (self.members, self.member_train_idx, self.member_test_idx, "member"),
                (self.nonmembers, self.nonmember_train_idx, self.nonmember_test_idx,
                 "nonmember")):
            merged = np.sort(np.concatenate([train, test]))
            if not np.array_equal(merged, np.arange(len(pool))):
                raise InvalidConfigError(
                    f"{side} split is not a disjoint, exhaustive partition")
        if not self.allow_overlap:
            seen = {s.features().tobytes() for s in self.members}
            if any(s.features().tobytes() in seen for s in self.nonmembers):
                raise InvalidConfigError("member and nonmember sets overlap")


def split_membership(members, nonmembers, seed: int,
                     allow_overlap: bool = False) -> MembershipDataset:
    """Shuffle each side and split it in half into train/test partitions."""
    rng = np.random.default_rng((seed, 0))
    mem_order = rng.permutation(len(members))
    non_order = rng.permutation(len(nonmembers))
    n_mem_train = round(len(members) / 2)
    n_non_train = round(len(nonmembers) / 2)
    return MembershipDataset(
        members=list(members),
        nonmembers=list(nonmembers),
        member_train_idx=np.sort(mem_order[:n_mem_train]),
        member_test_idx=np.sort(mem_order[n_mem_train:]),
        nonmember_train_idx=np.sort(non_order[:n_non_train]),
        nonmember_test_idx=np.sort(non_order[n_non_train:]),
        allow_overlap=allow_overlap,
    )


def train_mia(surrogate: DenseNetwork, dataset: MembershipDataset, hyper: TrainHyper):
    """Gradient ascent on the empirical gain over the train partition.

    Implemented as Adam descent on the negated gain; per-sample terms are
    weighted so each side contributes 1/2 regardless of partition sizes.
    Returns the model and the per-epoch gain on both partitions.
    """
    for idx, side in ((dataset.member_train_idx, "member train"),
                      (dataset.nonmember_train_idx, "nonmember train"),
                      (dataset.member_test_idx, "member test"),
                      (dataset.nonmember_test_idx, "nonmember test")):
        if len(idx) == 0:
            raise InvalidConfigError(f"degenerate split: empty {side} partition")

    x_members = mia_inputs(dataset.members, surrogate)
    x_nonmembers = mia_inputs(dataset.nonmembers, surrogate)
    x_train = np.concatenate([x_members[dataset.member_train_idx],
                              x_nonmembers[dataset.nonmember_train_idx]])
    is_member = np.concatenate([
        np.ones(len(dataset.member_train_idx), dtype=bool),
        np.zeros(len(dataset.nonmember_train_idx), dtype=bool)])
    n_train = x_train.shape[0]
    # Side weights keep the two halves of the gain balanced under mini-batching.
    weights = np.where(is_member,
                       n_train / (2.0 * is_member.sum()),
                       n_train / (2.0 * (~is_member).sum()))

    net = init_network(MIA_DIMS, OutputHead.SIGMOID_SCALAR, hyper.seed)
    state = AdamState.for_network(net, learning_rate=hyper.learning_rate)
    rng = np.random.default_rng((hyper.seed, 1))
    history = {"train": [], "test": []}

    def gains():
        mem_out, _ = forward_batch(net, x_members)
        non_out, _ = forward_batch(net, x_nonmembers)
        mem_probs, non_probs = mem_out[:, 0], non_out[:, 0]
        return (
            empirical_gain(mem_probs[dataset.member_train_idx],
                           non_probs[dataset.nonmember_train_idx]),
            empirical_gain(mem_probs[dataset.member_test_idx],
                           non_probs[dataset.nonmember_test_idx]),
        )

    for _ in range(hyper.epochs):
        order = rng.permutation(n_train)
        for start in range(0, n_train, hyper.batch_size):
            idx = order[start:start + hyper.batch_size]
            out, cache = forward_batch(net, x_train[idx])
            m = out[:, 0]
            g = np.where(is_member[idx],
                         -1.0 / np.maximum(m, PROB_FLOOR),
                         1.0 / np.maximum(1.0 - m, PROB_FLOOR))
            g_out = (g * weights[idx] / idx.size)[:, None]
            grads = backward(net, cache, g_out)
            adam_step(net, grads, state)
        train_gain, test_gain = gains()
        history["train"].append(train_gain)
        history["test"].append(test_gain)

    return MiaModel(network=net), history


@dataclass(frozen=True)
class ConfusionMatrix:
    """2x2 matrix, rows true (non-member, member), columns predicted likewise."""

    counts: np.ndarray
    rates: np.ndarray
    accuracy: float

    @classmethod
    def from_counts(cls, counts) -> "ConfusionMatrix":
        counts = np.asarray(counts, dtype=int)
        if counts.shape != (2, 2) or (counts < 0).any():
            raise InvalidInputError("confusion counts must be a non-negative 2x2 matrix")
        row_sums = counts.sum(axis=1)
        if (row_sums == 0).any():
            raise InvalidInputError("confusion matrix has an empty true-label row")
        rates = counts / row_sums[:, None]
        return cls(counts=counts, rates=rates, accuracy=accuracy_from_rates(rates))

    def to_document(self, scenario=None, seed=None) -> dict:
        doc = {
            "counts": self.counts.tolist(),
            "rates": self.rates.tolist(),
            "accuracy": self.accuracy,
        }
        if scenario is not None:
            doc["scenario"] = str(scenario)
        if seed is not None:
            doc["seed"] = int(seed)
        return doc

    def to_csv_text(self) -> str:
        lines = ["real\\predicted,non-member,member"]
        for name, row in zip(("non-member", "member"), self.rates):
            lines.append(f"{name},{row[0]:.4f},{row[1]:.4f}")
        return "\n".join(lines) + "\n"


def accuracy_from_rates(rates) -> float:
    """Average of the two per-class recalls (the diagonal of the rate matrix)."""
    rates = np.asarray(rates, dtype=float)
    return float((rates[0, 0] + rates[1, 1]) / 2.0)


def confusion_from_document(doc: dict, source: str = "<document>") -> ConfusionMatrix:
    try:
        cm = ConfusionMatrix.from_counts(np.asarray(doc["counts"], dtype=int))
    except (KeyError, TypeError, ValueError, InvalidInputError) as exc:
        raise ArtifactError(f"{source}: malformed confusion matrix ({exc})") from exc
    return cm


def evaluate_mia(model: MiaModel, surrogate: DenseNetwork, members_test, nonmembers_test):
    """Row-normalized confusion matrix over held-out member/nonmember samples."""
    if len(members_test) == 0 or len(nonmembers_test) == 0:
        raise InvalidInputError("evaluation partitions must be non-empty")
    mem_probs = membership_probabilities(model, surrogate, members_test)
    non_probs = membership_probabilities(model, surrogate, nonmembers_test)
    mem_pred = mem_probs > model.decision_threshold
    non_pred = non_probs > model.decision_threshold
    counts = np.array([
        [int((~non_pred).sum()), int(non_pred.sum())],
        [int((~mem_pred).sum()), int(mem_pred.sum())],
    ])
    return ConfusionMatrix.from_counts(counts)


def save_mia_model(model: MiaModel, path) -> None:
    doc = {
        "version": MIA_FORMAT_VERSION,
        "decision_threshold": model.decision_threshold,
        "network": model_document(model.network),
    }
    atomic_write_text(path, json.dumps(doc, sort_keys=True))


def load_mia_model(path) -> MiaModel:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ArtifactError(f"cannot load inference model from {path}: {exc}") from exc
    try:
        if doc["version"] != MIA_FORMAT_VERSION:
            raise ArtifactError(f"{path}: unknown inference model version {doc['version']!r}")
        network = network_from_document(doc["network"], source=str(path))
        threshold = float(doc["decision_threshold"])
    except ArtifactError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ArtifactError(f"{path}: malformed inference model ({exc})") from exc
    return MiaModel(network=network, decision_threshold=threshold)
