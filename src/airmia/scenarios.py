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
from dataclasses import asdict, dataclass, field, fields
from itertools import chain

import numpy as np

from .errors import ArtifactError, InvalidConfigError, InvalidInputError
from .rfsim import (
    SYMBOLS_PER_SAMPLE,
    TWO_PI,
    ChannelLink,
    DeviceProfile,
    Modulation,
    NoiseModel,
    Pairs,
    Receiver,
    Signals,
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

# Bound of the uniform jitter added to each evenly spaced per-user SNR.
SPACING_JITTER_DB = 0.25

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
        for group, values in (("counts", c), ("users", u)):  # every user group is non-empty
            for name, value in vars(values).items():
                if isinstance(value, bool) or not isinstance(value, int) or value <= 0:
                    raise InvalidConfigError(
                        f"{group}.{name} must be a positive integer, got {value!r}")
        reals = {name: getattr(self, name) for name in (
            "snr_authorized_db", "snr_others_db", "provider_snr_spread_db",
            "adversary_snr_jitter_db")}
        for group in ("drift", "mimic"):  # NoiseModel checks its own fields
            reals.update({f"{group}.{name}": value
                          for name, value in vars(getattr(self, group)).items()})
        for name, value in reals.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)) \
                    or not math.isfinite(value):
                raise InvalidConfigError(f"{name} must be a finite number, got {value!r}")
        for name in ("provider_train", "surrogate_train", "provider_test", "nonmember_eval"):
            if getattr(c, name) % 2 != 0:
                raise InvalidConfigError(
                    f"counts.{name} must split evenly between the two sample sources")
        if c.member_eval > c.provider_train // 2:
            raise InvalidConfigError(
                "counts.member_eval cannot exceed the class-1 training count")
        if self.provider_snr_spread_db < 0 or self.adversary_snr_jitter_db < 0:
            raise InvalidConfigError("SNR spread and jitter must be >= 0")
        if self.drift.phase_bound_rad < 0:
            raise InvalidConfigError("drift.phase_bound_rad must be >= 0")
        if not 0 <= self.drift.power_fraction < 1:
            raise InvalidConfigError("drift.power_fraction must be in [0, 1)")
        if self.mimic.phase_err_rad < 0:
            raise InvalidConfigError("mimic phase error must be >= 0")
        for name in ("snr_authorized_db", "snr_others_db"):
            # the largest SNR a user can draw, and the largest epoch drift on top of it
            largest_db = (getattr(self, name) + self.provider_snr_spread_db
                          + SPACING_JITTER_DB + self.adversary_snr_jitter_db)
            try:
                power = (snr_to_received_power(largest_db, self.noise.noise_floor)
                         * (1.0 + self.drift.power_fraction))
            except OverflowError:
                power = math.inf
            if not math.isfinite(power):
                raise InvalidConfigError(
                    f"{name} must be a finite number with a finite received power, got "
                    f"{getattr(self, name)!r}: its largest draw, {largest_db!r} dB, overflows "
                    f"at noise.noise_floor {self.noise.noise_floor!r}")
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
    jitter = rng.uniform(-SPACING_JITTER_DB, SPACING_JITTER_DB, size=count)
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
    provider_train: Signals
    train_pairs_class1: Pairs
    member_eval: Signals
    nonmember_eval: Signals
    surrogate_pairs: Pairs
    test_pairs: Pairs
    unauthorized_provider_views: Signals


def dataset_lengths(config: ScenarioConfig) -> dict:
    """len() of each DataBundle table that config implies."""
    c = config.counts
    return {"provider_train": c.provider_train, "train_pairs_class1": c.provider_train // 2,
            "member_eval": c.member_eval, "nonmember_eval": c.nonmember_eval,
            "surrogate_pairs": c.surrogate_train, "test_pairs": c.provider_test,
            "unauthorized_provider_views": c.nonmember_eval - c.nonmember_eval // 2}


def _sample_rng(seed: int, stream: int, index: int) -> np.random.Generator:
    return np.random.default_rng((seed, stream, index))


def _paired_sample(user: UserChannels, epoch: Epoch, noise, rng):
    """(provider, adversary) observations of one transmission, each (phases, powers)."""
    return transmit_paired(
        user.device,
        user.link(Receiver.PROVIDER, epoch),
        user.link(Receiver.ADVERSARY, epoch),
        PILOT_BITS[user.device.modulation], noise, rng)


def _single_sample(user: UserChannels, rx: Receiver, epoch: Epoch, noise, rng):
    base = modulate(PILOT_BITS[user.device.modulation], user.device.modulation)
    return propagate(base, user.device, user.link(rx, epoch), noise, rng)


def _signals(observations, users, view: Receiver, member: bool = False) -> Signals:
    """Stack (phases, powers) observations, one per user in users, into a table."""
    phases, powers = zip(*observations)
    return Signals(phases=np.array(phases), powers=np.array(powers),
                   tx_id=[u.device.id for u in users],
                   class_label=[int(u.device.authorized) for u in users],
                   view=view, member=member)


def _pairs(observations, users, member: bool = False) -> Pairs:
    return Pairs(
        provider=_signals([p for p, _ in observations], users, Receiver.PROVIDER, member),
        adversary=_signals([a for _, a in observations], users, Receiver.ADVERSARY, member))


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
    noise, seed, counts = config.noise, config.seed, config.counts
    auth = population.authorized
    others = population.other_bpsk
    unauth = population.unauthorized_qpsk

    def cycle(users, n):
        return [users[i % len(users)] for i in range(n)]

    def draw(sample, users, stream, *where):
        """One observation per user, the i-th on substream (seed, stream, i)."""
        return [sample(user, *where, noise, _sample_rng(seed, stream, i))
                for i, user in enumerate(users)]

    def fresh_pairs(stream, n):
        """Half authorized, then half other users, at the collection epoch."""
        users = cycle(auth, n // 2) + cycle(others, n - n // 2)
        return _pairs(draw(_paired_sample, users, stream, Epoch.TEST), users)

    n_class1 = counts.provider_train // 2
    class1 = cycle(auth, n_class1)
    class0 = cycle(others, counts.provider_train - n_class1)
    class1_obs = draw(_paired_sample, class1, S_TRAIN_C1, Epoch.TRAIN)
    class0_obs = draw(_single_sample, class0, S_TRAIN_C0, Receiver.PROVIDER, Epoch.TRAIN)
    train_pairs = _pairs(class1_obs, class1, member=True)

    choice_rng = np.random.default_rng((seed, S_MEMBER_CHOICE))
    member_indices = np.sort(choice_rng.permutation(n_class1)[:counts.member_eval])

    n_fresh_auth = counts.nonmember_eval // 2
    fresh_auth = cycle(auth, n_fresh_auth)
    mimics = cycle(unauth, counts.nonmember_eval - n_fresh_auth)
    fresh_obs = draw(_single_sample, fresh_auth, S_NONMEMBER_AUTH, Receiver.ADVERSARY,
                     Epoch.TEST)
    mimic_obs = draw(_paired_sample, mimics, S_NONMEMBER_UNAUTH, Epoch.TEST)

    return DataBundle(
        config=config,
        provider_train=_signals([p for p, _ in class1_obs] + class0_obs, class1 + class0,
                                Receiver.PROVIDER, member=True),
        train_pairs_class1=train_pairs,
        member_eval=train_pairs.adversary.take(member_indices),
        nonmember_eval=_signals(fresh_obs + [a for _, a in mimic_obs], fresh_auth + mimics,
                                Receiver.ADVERSARY),
        surrogate_pairs=fresh_pairs(S_SURROGATE, counts.surrogate_train),
        test_pairs=fresh_pairs(S_TEST, counts.provider_test),
        unauthorized_provider_views=_signals([p for p, _ in mimic_obs], mimics,
                                             Receiver.PROVIDER),
    )


# ---------------------------------------------------------------------------
# CSV export/import
# ---------------------------------------------------------------------------

CSV_HEADER = (
    ["sample_id", "tx_id", "class", "member", "view"]
    + [f"phase_{i}" for i in range(SYMBOLS_PER_SAMPLE)]
    + [f"power_{i}" for i in range(SYMBOLS_PER_SAMPLE)]
)


def _rows(signals: Signals):
    """CSV rows of a table; sample_id is the row position.

    Values come from .tolist() columns, so csv.writer prints each float with
    repr, the shortest string that reads back to the same float.
    """
    view, member = signals.view.value, int(signals.member)
    for i, (tx_id, label, phases, powers) in enumerate(zip(
            signals.tx_id.tolist(), signals.class_label.tolist(),
            signals.phases.tolist(), signals.powers.tolist())):
        yield [i, tx_id, label, member, view, *phases, *powers]


def write_samples_csv(samples: Signals, path) -> None:
    """Export a table, one row per sample."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        writer.writerows(_rows(samples))


def write_pairs_csv(pairs: Pairs, path) -> None:
    """Export paired observations: provider row, then adversary row, sharing a sample_id."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        writer.writerows(chain.from_iterable(zip(_rows(pairs.provider), _rows(pairs.adversary))))


def _parse_rows(path, rows_per_id: int):
    """Parse a dataset CSV once into columns: (ints, values, views).

    ints is the (n, 4) block sample_id, tx_id, class, member; values the
    (n, 32) phases then powers; views the (n,) view names. sample_id must
    count up from 0, rows_per_id rows at a time.
    """
    try:
        with open(path, "r", newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            if next(reader, None) != CSV_HEADER:
                raise ArtifactError(f"{path}: unexpected CSV header")
            rows = list(reader)
    except OSError as exc:
        raise ArtifactError(f"cannot read dataset {path}: {exc}") from exc
    if not rows:
        raise ArtifactError(f"{path}: dataset has no rows")
    if any(len(row) != len(CSV_HEADER) for row in rows):
        raise ArtifactError(f"{path}: malformed row, not {len(CSV_HEADER)} fields")
    n, width = len(rows), 2 * SYMBOLS_PER_SAMPLE
    try:
        ints = np.array([row[:4] for row in rows], dtype=int)
        values = np.fromiter(map(float, chain.from_iterable(row[5:] for row in rows)),
                             dtype=float, count=n * width).reshape(n, width)
    except ValueError as exc:
        raise ArtifactError(f"{path}: malformed row ({exc})") from exc
    if not np.array_equal(ints[:, 0], np.arange(n) // rows_per_id):
        raise ArtifactError(f"{path}: sample_id does not count up from 0")
    return ints, values, np.array([row[4] for row in rows])


def _table(path, columns, rows=slice(None)) -> Signals:
    """The selected rows as Signals; they must share one view and one member flag."""
    ints, values, views = (column[rows] for column in columns)
    members, view = np.unique(ints[:, 3]), np.unique(views)
    if members.tolist() not in ([0], [1]) or len(view) != 1:
        raise ArtifactError(f"{path}: rows mix views or member flags, or a flag is not 0/1")
    try:
        return Signals(phases=values[:, :SYMBOLS_PER_SAMPLE],
                       powers=values[:, SYMBOLS_PER_SAMPLE:],
                       tx_id=ints[:, 1], class_label=ints[:, 2],
                       view=Receiver(view[0]), member=bool(members[0]))
    except (ValueError, InvalidInputError) as exc:
        raise ArtifactError(f"{path}: malformed rows ({exc})") from exc


def read_samples_csv(path) -> Signals:
    return _table(path, _parse_rows(path, rows_per_id=1))


def read_pairs_csv(path) -> Pairs:
    """Even rows are the provider views, odd rows the adversary views."""
    columns = _parse_rows(path, rows_per_id=2)
    try:
        return Pairs(provider=_table(path, columns, slice(0, None, 2)),
                     adversary=_table(path, columns, slice(1, None, 2)))
    except InvalidInputError as exc:
        raise ArtifactError(f"{path}: rows do not form pairs ({exc})") from exc


# ---------------------------------------------------------------------------
# Config documents (JSON-facing)
# ---------------------------------------------------------------------------

# The config sections: nested documents, each built into its own dataclass.
_SECTIONS = {"counts": ScenarioCounts, "users": UserCounts, "noise": NoiseModel,
             "drift": DriftModel, "mimic": MimicModel}


def _check_keys(doc: dict, cls, context: str) -> None:
    unknown = set(doc) - {f.name for f in fields(cls)}
    if unknown:
        raise InvalidConfigError(f"unknown {context} keys: {sorted(unknown)}")


def config_to_document(config: ScenarioConfig) -> dict:
    return {**asdict(config), "scenario": config.scenario.value}


def config_from_document(doc: dict) -> ScenarioConfig:
    """Build a ScenarioConfig from a JSON document, rejecting unknown keys.

    Values pass through unconverted; ScenarioConfig validates them.
    """
    if not isinstance(doc, dict):
        raise InvalidConfigError("scenario config must be a JSON object")
    _check_keys(doc, ScenarioConfig, "config")
    try:
        sections = {}
        for name, cls in _SECTIONS.items():
            if name in doc:
                _check_keys(doc[name], cls, name)
                sections[name] = cls(**doc[name])
        return ScenarioConfig(**{**doc, **sections})
    except (TypeError, ValueError) as exc:
        if isinstance(exc, InvalidConfigError):
            raise
        raise InvalidConfigError(f"invalid config value: {exc}") from exc
