"""Scenario configuration, user population resolution, and dataset generation.

A scenario fixes the user groups (authorized QPSK users, other BPSK users,
and unauthorized QPSK users that only appear at evaluation time), draws one
static channel per (user, receiver) pair, and generates every dataset the
pipeline needs. Each sample derives from its own counter-based random
substream keyed by (seed, stream, index), so generation order or
parallelism cannot change the output.

Signals collected while the authentication classifier's training data was
recorded see the training-epoch channel state; everything fresh (surrogate
collection, evaluation, test traffic) sees the same links after a small
per-link drift in phase and gain. That training-time/collection-time
mismatch is the distribution difference a membership attack feeds on.
"""

from __future__ import annotations

import csv
import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ArtifactError, InvalidConfigError, InvalidInputError
from .rfsim import (
    SYMBOLS_PER_SAMPLE,
    TWO_PI,
    ChannelLink,
    DeviceProfile,
    Modulation,
    NoiseModel,
    PairedObservation,
    Receiver,
    SignalSample,
    mark_member,
    mark_member_pair,
    modulate,
    propagate,
    snr_to_received_power,
    transmit_paired,
    wrap_phase,
)

# Stream tags for counter-based substreams: (seed, stream, index).
S_POPULATION = 0
S_TRAIN_C1 = 1
S_TRAIN_C0 = 2
S_SURROGATE = 3
S_NONMEMBER_AUTH = 4
S_NONMEMBER_UNAUTH = 5
S_TEST = 6
S_MEMBER_CHOICE = 7

DEFAULT_PHASE_DRIFT_RAD = 0.06
DEFAULT_POWER_DRIFT_FRACTION = 0.035

# Fixed pilot bit patterns, one per modulation. Authentication samples are
# collected from a known sounding sequence, so each feature dimension sits at
# a stable constellation point per user instead of hopping with the payload.
PILOT_BITS = {
    Modulation.BPSK: tuple([0, 1] * (SYMBOLS_PER_SAMPLE // 2)),
    Modulation.QPSK: tuple([0, 0, 0, 1, 1, 1, 1, 0] * (SYMBOLS_PER_SAMPLE // 4)),
}


class Scenario(str, enum.Enum):
    FULL_STRONG = "full-strong"
    SAME_POWER = "same-power"
    SAME_PHASE = "same-phase"
    WEAK_AUTHORIZED = "weak-authorized"


class Epoch(str, enum.Enum):
    TRAIN = "train"  # while the target classifier's training data was collected
    TEST = "test"  # fresh traffic observed afterwards


@dataclass(frozen=True)
class ScenarioCounts:
    provider_train: int = 8000
    surrogate_train: int = 1000
    provider_test: int = 10000
    member_eval: int = 1000
    nonmember_eval: int = 1000


@dataclass(frozen=True)
class UserCounts:
    authorized: int = 3
    other_bpsk: int = 3
    unauthorized_qpsk: int = 3


@dataclass(frozen=True)
class DriftModel:
    """Per-link channel drift between the training and collection epochs.

    Magnitudes are drawn uniformly from [0.7 * bound, bound] with a random
    sign, once per (user, receiver) link. Power drift is relative to the
    link's received power, so it shrinks with the scenario SNR.
    """

    phase_bound_rad: float = DEFAULT_PHASE_DRIFT_RAD
    power_fraction: float = DEFAULT_POWER_DRIFT_FRACTION


@dataclass(frozen=True)
class MimicModel:
    """How closely unauthorized users imitate an authorized phase signature.

    Each unauthorized QPSK user picks one authorized user and reproduces its
    observed combined phase up to this calibration error (uniform, drawn per
    receiver). Received power stays whatever the mimic's own transmitter and
    channel give it; phase is the part of the fingerprint a spoofing device
    can steer.
    """

    phase_err_rad: float = 0.05


@dataclass(frozen=True)
class ScenarioConfig:
    scenario: Scenario
    seed: int
    counts: ScenarioCounts = field(default_factory=ScenarioCounts)
    users: UserCounts = field(default_factory=UserCounts)
    noise: NoiseModel = field(default_factory=NoiseModel)
    snr_authorized_db: float = 10.0
    snr_others_db: float = 10.0
    provider_snr_spread_db: float = 2.0
    adversary_snr_jitter_db: float = 0.25
    drift: DriftModel = field(default_factory=DriftModel)
    mimic: MimicModel = field(default_factory=MimicModel)

    def __post_init__(self):
        object.__setattr__(self, "scenario", Scenario(self.scenario))
        c, u = self.counts, self.users
        if isinstance(self.seed, bool) or not isinstance(self.seed, int) or self.seed < 0:
            raise InvalidConfigError(f"seed must be a non-negative integer, got {self.seed!r}")
        for name in ("provider_train", "surrogate_train", "provider_test",
                     "member_eval", "nonmember_eval"):
            if getattr(c, name) <= 0:
                raise InvalidConfigError(f"counts.{name} must be positive")
        for name in ("provider_train", "surrogate_train", "provider_test", "nonmember_eval"):
            if getattr(c, name) % 2 != 0:
                raise InvalidConfigError(
                    f"counts.{name} must split evenly between the two sample sources")
        if c.member_eval > c.provider_train // 2:
            raise InvalidConfigError(
                "counts.member_eval cannot exceed the class-1 training count")
        if min(u.authorized, u.other_bpsk, u.unauthorized_qpsk) < 1:
            raise InvalidConfigError("every user group needs at least one user")
        if self.provider_snr_spread_db < 0 or self.adversary_snr_jitter_db < 0:
            raise InvalidConfigError("SNR spread and jitter must be >= 0")
        if self.drift.phase_bound_rad < 0:
            raise InvalidConfigError("drift.phase_bound_rad must be >= 0")
        if not 0 <= self.drift.power_fraction < 1:
            raise InvalidConfigError("drift.power_fraction must be in [0, 1)")
        if self.mimic.phase_err_rad < 0:
            raise InvalidConfigError("mimic phase error must be >= 0")
        if self.scenario is Scenario.SAME_POWER and \
                self.effective_snr_authorized_db != self.snr_others_db:
            raise InvalidConfigError(
                "same-power requires equal authorized and other SNR; "
                f"got {self.effective_snr_authorized_db} vs {self.snr_others_db} dB")

    @property
    def effective_snr_authorized_db(self) -> float:
        if self.scenario is Scenario.WEAK_AUTHORIZED:
            return 3.0
        return self.snr_authorized_db


@dataclass(frozen=True)
class UserChannels:
    """One user's device plus its static links at both receivers and epochs."""

    device: DeviceProfile
    links: dict  # {(Receiver, Epoch): ChannelLink}

    def link(self, rx: Receiver, epoch: Epoch) -> ChannelLink:
        return self.links[(rx, epoch)]

    def received_power(self, rx: Receiver, epoch: Epoch) -> float:
        return self.link(rx, epoch).gain * self.device.transmit_power

    def combined_phase(self, rx: Receiver, epoch: Epoch) -> float:
        return float(wrap_phase(
            self.device.phase_shift_rad + self.link(rx, epoch).phase_offset_rad))


@dataclass(frozen=True)
class Population:
    authorized: list[UserChannels]
    other_bpsk: list[UserChannels]
    unauthorized_qpsk: list[UserChannels]

    @property
    def qpsk_users(self) -> list[UserChannels]:
        return self.authorized + self.unauthorized_qpsk


def _signed_magnitude(r: float, bound: float) -> float:
    """Map a U(-1, 1) draw to a signed magnitude in [0.7 * bound, bound]."""
    if bound == 0.0:
        return 0.0
    return math.copysign(0.7 * bound + 0.3 * abs(r) * bound, r)


def _spaced_snrs(nominal_db: float, count: int, spread_db: float, rng) -> list[float]:
    """Evenly spaced per-user SNRs inside nominal +- spread, jittered and shuffled.

    Deliberate spacing keeps received powers distinct across the users a
    classifier must tell apart; a uniform draw would collide users within
    the noise resolution far too often at these population sizes.
    """
    if count == 1:
        slots = np.array([0.0])
    else:
        slots = spread_db * (2.0 * (np.arange(count) + 0.5) / count - 1.0)
    jitter = rng.uniform(-0.25, 0.25, size=count)
    return list(nominal_db + rng.permutation(slots) + jitter)


def _build_user(uid, provider_snr_db, modulation, authorized, config, rng):
    """Draw one user's device, links at both receivers, and epoch drift."""
    dev_phase = rng.uniform(0.0, TWO_PI)
    offsets = {Receiver.PROVIDER: rng.uniform(0.0, TWO_PI),
               Receiver.ADVERSARY: rng.uniform(0.0, TWO_PI)}
    adversary_snr = provider_snr_db + rng.uniform(-config.adversary_snr_jitter_db,
                                                  config.adversary_snr_jitter_db)
    snrs = {Receiver.PROVIDER: provider_snr_db, Receiver.ADVERSARY: adversary_snr}
    drift_phase = {rx: _signed_magnitude(rng.uniform(-1, 1), config.drift.phase_bound_rad)
                   for rx in Receiver}
    drift_power = {rx: _signed_magnitude(rng.uniform(-1, 1), config.drift.power_fraction)
                   for rx in Receiver}
    device = DeviceProfile(id=uid, phase_shift_rad=dev_phase, transmit_power=1.0,
                           modulation=modulation, authorized=authorized)
    links = {}
    for rx in Receiver:
        gain = snr_to_received_power(snrs[rx], config.noise.noise_floor) / device.transmit_power
        links[(rx, Epoch.TRAIN)] = ChannelLink(
            tx_id=uid, rx_id=rx, gain=gain, phase_offset_rad=offsets[rx])
        links[(rx, Epoch.TEST)] = ChannelLink(
            tx_id=uid, rx_id=rx, gain=gain * (1.0 + drift_power[rx]),
            phase_offset_rad=wrap_phase(offsets[rx] + drift_phase[rx]))
    return UserChannels(device=device, links=links)


def _mimic_authorized(unauthorized, authorized, config, rng) -> list[UserChannels]:
    """Rewrite unauthorized users' phases to imitate an authorized signature.

    Each mimic matches its chosen target's collection-epoch combined phase
    per receiver, up to the configured calibration error. Gains are left as
    drawn; mimic links are identical at both epochs since these users never
    transmit while the training data is recorded.
    """
    mimics = []
    for user in unauthorized:
        target = authorized[int(rng.integers(0, len(authorized)))]
        links = {}
        for rx in Receiver:
            phase_err = rng.uniform(-config.mimic.phase_err_rad, config.mimic.phase_err_rad)
            combined = wrap_phase(target.combined_phase(rx, Epoch.TEST) + phase_err)
            link = ChannelLink(
                tx_id=user.device.id, rx_id=rx,
                gain=user.link(rx, Epoch.TEST).gain,
                phase_offset_rad=wrap_phase(combined - user.device.phase_shift_rad))
            for epoch in Epoch:
                links[(rx, epoch)] = link
        mimics.append(UserChannels(device=user.device, links=links))
    return mimics


def _replace_link(user: UserChannels, rx: Receiver, epoch: Epoch, *,
                  gain=None, phase_offset=None) -> UserChannels:
    old = user.link(rx, epoch)
    new = ChannelLink(
        tx_id=old.tx_id, rx_id=rx,
        gain=old.gain if gain is None else gain,
        phase_offset_rad=old.phase_offset_rad if phase_offset is None else phase_offset)
    links = dict(user.links)
    links[(rx, epoch)] = new
    return UserChannels(device=user.device, links=links)


def apply_scenario_constraints(config: ScenarioConfig) -> Population:
    """Resolve the user population with the scenario's equality constraints.

    same-power pins every QPSK user's received power to the nominal scenario
    power at the provider, to one shared draw at the adversary, and freezes
    it across epochs. same-phase does the analogous thing for the combined
    device-plus-channel phase shift. BPSK users are never constrained.
    """
    rng = np.random.default_rng((config.seed, S_POPULATION))
    snr_auth = config.effective_snr_authorized_db
    spread = config.provider_snr_spread_db

    # The classifier-relevant users (authorized QPSK and other BPSK) get
    # deliberately spaced provider-side powers within one cohort per nominal
    # SNR. Unauthorized users are drawn uniformly in the same band, so their
    # powers may collide with authorized ones.
    cohort_snrs = []
    if snr_auth == config.snr_others_db:
        joint = _spaced_snrs(snr_auth, config.users.authorized + config.users.other_bpsk,
                             spread, rng)
        cohort_snrs = [joint[:config.users.authorized], joint[config.users.authorized:]]
    else:
        cohort_snrs = [_spaced_snrs(snr_auth, config.users.authorized, spread, rng),
                       _spaced_snrs(config.snr_others_db, config.users.other_bpsk,
                                    spread, rng)]
    unauth_snrs = [config.snr_others_db + rng.uniform(-spread, spread)
                   for _ in range(config.users.unauthorized_qpsk)]

    groups = []
    uid = 1
    for snr_list, modulation, authorized in (
            (cohort_snrs[0], Modulation.QPSK, True),
            (cohort_snrs[1], Modulation.BPSK, False),
            (unauth_snrs, Modulation.QPSK, False)):
        group = []
        for snr_db in snr_list:
            group.append(_build_user(uid, snr_db, modulation, authorized, config, rng))
            uid += 1
        groups.append(group)
    population = Population(authorized=groups[0], other_bpsk=groups[1],
                            unauthorized_qpsk=_mimic_authorized(groups[2], groups[0],
                                                                config, rng))

    if config.scenario is Scenario.SAME_POWER:
        nominal = snr_to_received_power(snr_auth, config.noise.noise_floor)
        adv_shared = snr_to_received_power(
            snr_auth + rng.uniform(-config.adversary_snr_jitter_db,
                                   config.adversary_snr_jitter_db),
            config.noise.noise_floor)
        target = {Receiver.PROVIDER: nominal, Receiver.ADVERSARY: adv_shared}

        def constrain(user):
            for rx in Receiver:
                gain = target[rx] / user.device.transmit_power
                for epoch in Epoch:
                    user = _replace_link(user, rx, epoch, gain=gain)
            return user
    elif config.scenario is Scenario.SAME_PHASE:
        shared = {Receiver.PROVIDER: rng.uniform(0.0, TWO_PI),
                  Receiver.ADVERSARY: rng.uniform(0.0, TWO_PI)}

        def constrain(user):
            for rx in Receiver:
                offset = wrap_phase(shared[rx] - user.device.phase_shift_rad)
                for epoch in Epoch:
                    user = _replace_link(user, rx, epoch, phase_offset=offset)
            return user
    else:
        return population

    return Population(
        authorized=[constrain(u) for u in population.authorized],
        other_bpsk=list(population.other_bpsk),
        unauthorized_qpsk=[constrain(u) for u in population.unauthorized_qpsk])


@dataclass(frozen=True)
class DataBundle:
    """Every dataset one scenario run needs, generated or loaded from CSV."""

    config: ScenarioConfig
    provider_train: list[SignalSample]
    train_pairs_class1: list[PairedObservation]
    member_eval: list[SignalSample]
    nonmember_eval: list[SignalSample]
    surrogate_pairs: list[PairedObservation]
    test_pairs: list[PairedObservation]
    unauthorized_provider_views: list[SignalSample]

    @property
    def provider_test(self) -> list[SignalSample]:
        return [p.provider_view for p in self.test_pairs]

    @property
    def adversary_test(self) -> list[SignalSample]:
        return [p.adversary_view for p in self.test_pairs]


def _sample_rng(seed: int, stream: int, index: int) -> np.random.Generator:
    return np.random.default_rng((seed, stream, index))


def _paired_sample(user: UserChannels, epoch: Epoch, noise, rng) -> PairedObservation:
    return transmit_paired(
        user.device,
        user.link(Receiver.PROVIDER, epoch),
        user.link(Receiver.ADVERSARY, epoch),
        PILOT_BITS[user.device.modulation], noise, rng)


def _single_sample(user: UserChannels, rx: Receiver, epoch: Epoch, noise, rng) -> SignalSample:
    bits = PILOT_BITS[user.device.modulation]
    base = modulate(bits, user.device.modulation)
    return propagate(base, user.device, user.link(rx, epoch), noise, rng)


def generate_scenario_data(config: ScenarioConfig) -> DataBundle:
    """Generate all datasets for one scenario seed.

    provider_train: half authorized QPSK (class 1, training epoch, also kept
    as paired observations) and half other-user BPSK (class 0). member_eval:
    adversary views of randomly chosen class-1 training transmissions.
    nonmember_eval: half fresh authorized QPSK, half unauthorized QPSK, all
    adversary views at the collection epoch. surrogate and test traffic are
    fresh paired transmissions at the collection epoch.
    """
    population = apply_scenario_constraints(config)
    noise = config.noise
    seed = config.seed
    counts = config.counts
    auth = population.authorized
    others = population.other_bpsk
    unauth = population.unauthorized_qpsk

    n_class1 = counts.provider_train // 2
    n_class0 = counts.provider_train - n_class1

    train_pairs = []
    for i in range(n_class1):
        rng = _sample_rng(seed, S_TRAIN_C1, i)
        pair = _paired_sample(auth[i % len(auth)], Epoch.TRAIN, noise, rng)
        train_pairs.append(mark_member_pair(pair))
    provider_train = [p.provider_view for p in train_pairs]
    for i in range(n_class0):
        rng = _sample_rng(seed, S_TRAIN_C0, i)
        sample = _single_sample(others[i % len(others)], Receiver.PROVIDER,
                                Epoch.TRAIN, noise, rng)
        provider_train.append(mark_member(sample))

    choice_rng = np.random.default_rng((seed, S_MEMBER_CHOICE))
    member_indices = np.sort(choice_rng.permutation(n_class1)[:counts.member_eval])
    member_eval = [train_pairs[int(j)].adversary_view for j in member_indices]

    nonmember_eval = []
    unauthorized_provider_views = []
    n_fresh_auth = counts.nonmember_eval // 2
    for i in range(n_fresh_auth):
        rng = _sample_rng(seed, S_NONMEMBER_AUTH, i)
        nonmember_eval.append(_single_sample(auth[i % len(auth)], Receiver.ADVERSARY,
                                             Epoch.TEST, noise, rng))
    for i in range(counts.nonmember_eval - n_fresh_auth):
        rng = _sample_rng(seed, S_NONMEMBER_UNAUTH, i)
        pair = _paired_sample(unauth[i % len(unauth)], Epoch.TEST, noise, rng)
        nonmember_eval.append(pair.adversary_view)
        unauthorized_provider_views.append(pair.provider_view)

    surrogate_pairs = []
    n_surr1 = counts.surrogate_train // 2
    for i in range(counts.surrogate_train):
        rng = _sample_rng(seed, S_SURROGATE, i)
        user = auth[i % len(auth)] if i < n_surr1 else others[(i - n_surr1) % len(others)]
        surrogate_pairs.append(_paired_sample(user, Epoch.TEST, noise, rng))

    test_pairs = []
    n_test1 = counts.provider_test // 2
    for i in range(counts.provider_test):
        rng = _sample_rng(seed, S_TEST, i)
        user = auth[i % len(auth)] if i < n_test1 else others[(i - n_test1) % len(others)]
        test_pairs.append(_paired_sample(user, Epoch.TEST, noise, rng))

    bundle = DataBundle(
        config=config,
        provider_train=provider_train,
        train_pairs_class1=train_pairs,
        member_eval=member_eval,
        nonmember_eval=nonmember_eval,
        surrogate_pairs=surrogate_pairs,
        test_pairs=test_pairs,
        unauthorized_provider_views=unauthorized_provider_views,
    )
    _validate_bundle(bundle)
    return bundle


def _validate_bundle(bundle: DataBundle) -> None:
    for sample in bundle.provider_train + bundle.member_eval + bundle.nonmember_eval:
        if sample.phases.size != SYMBOLS_PER_SAMPLE:
            raise InvalidConfigError("generated sample does not carry 32 features")
    labels = [s.class_label for s in bundle.provider_train]
    if sum(labels) != bundle.config.counts.provider_train // 2:
        raise InvalidConfigError("provider training data is not half class 1")


# ---------------------------------------------------------------------------
# CSV export/import
# ---------------------------------------------------------------------------

CSV_HEADER = (
    ["sample_id", "tx_id", "class", "member", "view"]
    + [f"phase_{i}" for i in range(SYMBOLS_PER_SAMPLE)]
    + [f"power_{i}" for i in range(SYMBOLS_PER_SAMPLE)]
)


def _sample_row(sample_id: int, s: SignalSample) -> list[str]:
    return (
        [str(sample_id), str(s.tx_id), str(s.class_label), str(int(s.member)), s.view.value]
        + [f"{p:.9f}" for p in s.phases]
        + [repr(float(p)) for p in s.powers]
    )


def write_samples_csv(samples, path) -> None:
    """Export samples, one row each; sample_id is the list position."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for i, s in enumerate(samples):
            writer.writerow(_sample_row(i, s))


def write_pairs_csv(pairs, path) -> None:
    """Export paired observations, two rows per pair sharing a sample_id."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for i, pair in enumerate(pairs):
            writer.writerow(_sample_row(i, pair.provider_view))
            writer.writerow(_sample_row(i, pair.adversary_view))


def _parse_rows(path):
    try:
        with open(path, "r", newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != CSV_HEADER:
                raise ArtifactError(f"{path}: unexpected CSV header")
            rows = list(reader)
    except OSError as exc:
        raise ArtifactError(f"cannot read dataset {path}: {exc}") from exc
    n = SYMBOLS_PER_SAMPLE
    parsed = []
    for row in rows:
        if len(row) != len(CSV_HEADER):
            raise ArtifactError(f"{path}: malformed row of {len(row)} fields")
        try:
            sample = SignalSample(
                phases=np.array([float(v) for v in row[5:5 + n]]),
                powers=np.array([float(v) for v in row[5 + n:5 + 2 * n]]),
                class_label=int(row[2]),
                tx_id=int(row[1]),
                member=bool(int(row[3])),
                view=Receiver(row[4]),
            )
        except (ValueError, InvalidInputError) as exc:
            raise ArtifactError(f"{path}: malformed row ({exc})") from exc
        parsed.append((int(row[0]), sample))
    return parsed


def read_samples_csv(path) -> list[SignalSample]:
    return [s for _, s in _parse_rows(path)]


def read_pairs_csv(path) -> list[PairedObservation]:
    parsed = _parse_rows(path)
    if len(parsed) % 2 != 0:
        raise ArtifactError(f"{path}: paired dataset has an odd row count")
    pairs = []
    for k in range(0, len(parsed), 2):
        (id_a, first), (id_b, second) = parsed[k], parsed[k + 1]
        if id_a != id_b or first.view is not Receiver.PROVIDER \
                or second.view is not Receiver.ADVERSARY:
            raise ArtifactError(f"{path}: rows {k},{k + 1} do not form a provider/adversary pair")
        pairs.append(PairedObservation(provider_view=first, adversary_view=second))
    return pairs


# ---------------------------------------------------------------------------
# Config documents (JSON-facing)
# ---------------------------------------------------------------------------

def _check_keys(doc: dict, allowed, context: str) -> None:
    unknown = set(doc) - set(allowed)
    if unknown:
        raise InvalidConfigError(f"unknown {context} keys: {sorted(unknown)}")


def config_to_document(config: ScenarioConfig) -> dict:
    return {
        "scenario": config.scenario.value,
        "seed": config.seed,
        "counts": {
            "provider_train": config.counts.provider_train,
            "surrogate_train": config.counts.surrogate_train,
            "provider_test": config.counts.provider_test,
            "member_eval": config.counts.member_eval,
            "nonmember_eval": config.counts.nonmember_eval,
        },
        "users": {
            "authorized": config.users.authorized,
            "other_bpsk": config.users.other_bpsk,
            "unauthorized_qpsk": config.users.unauthorized_qpsk,
        },
        "noise": {
            "phase_bound_rad": config.noise.phase_bound_rad,
            "power_bound": config.noise.power_bound,
            "noise_floor": config.noise.noise_floor,
        },
        "snr_authorized_db": config.snr_authorized_db,
        "snr_others_db": config.snr_others_db,
        "provider_snr_spread_db": config.provider_snr_spread_db,
        "adversary_snr_jitter_db": config.adversary_snr_jitter_db,
        "drift": {
            "phase_bound_rad": config.drift.phase_bound_rad,
            "power_fraction": config.drift.power_fraction,
        },
        "mimic": {
            "phase_err_rad": config.mimic.phase_err_rad,
        },
    }


def config_from_document(doc: dict) -> ScenarioConfig:
    """Build a ScenarioConfig from a JSON document, rejecting unknown keys."""
    if not isinstance(doc, dict):
        raise InvalidConfigError("scenario config must be a JSON object")
    _check_keys(doc, config_to_document(
        ScenarioConfig(scenario=Scenario.FULL_STRONG, seed=0)).keys(), "config")
    try:
        kwargs = {}
        if "counts" in doc:
            _check_keys(doc["counts"], ScenarioCounts().__dict__, "counts")
            kwargs["counts"] = ScenarioCounts(**doc["counts"])
        if "users" in doc:
            _check_keys(doc["users"], UserCounts().__dict__, "users")
            kwargs["users"] = UserCounts(**doc["users"])
        if "noise" in doc:
            _check_keys(doc["noise"], NoiseModel().__dict__, "noise")
            kwargs["noise"] = NoiseModel(**doc["noise"])
        if "drift" in doc:
            _check_keys(doc["drift"], DriftModel().__dict__, "drift")
            kwargs["drift"] = DriftModel(**doc["drift"])
        if "mimic" in doc:
            _check_keys(doc["mimic"], MimicModel().__dict__, "mimic")
            kwargs["mimic"] = MimicModel(**doc["mimic"])
        for key in ("snr_authorized_db", "snr_others_db",
                    "provider_snr_spread_db", "adversary_snr_jitter_db"):
            if key in doc:
                kwargs[key] = float(doc[key])
        return ScenarioConfig(scenario=Scenario(doc["scenario"]), seed=doc["seed"], **kwargs)
    except KeyError as exc:
        raise InvalidConfigError(f"missing config key: {exc}") from exc
    except (TypeError, ValueError) as exc:
        if isinstance(exc, InvalidConfigError):
            raise
        raise InvalidConfigError(f"invalid config value: {exc}") from exc
