"""Scenario configuration, the user population table, and dataset generation.

A scenario fixes the user groups (authorized QPSK users, other BPSK users,
and unauthorized QPSK users that only appear at evaluation time) and draws
one static channel per (user, receiver) pair. The result is one table,
`Population`, with a row per user: its device phase, and its link phase and
received power per receiver and epoch. Every dataset is a run of table
rows observed through `rfsim.transmit_paired`, BLOCK_ROWS rows at a time.
Each sample's noise derives from its own counter-based random substream
keyed by (seed, stream, index), so generation order, blocking or
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
import warnings
from dataclasses import asdict, dataclass, field, fields, replace
from itertools import chain

import numpy as np

from .errors import ArtifactError, InvalidConfigError, InvalidInputError
from .rfsim import (
    SYMBOLS_PER_SAMPLE,
    TWO_PI,
    Modulation,
    NoiseModel,
    Pairs,
    Receiver,
    Signals,
    is_finite_real,
    modulate,
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

# Rows observed by generate_scenario_data, and converted to Python values by
# the CSV export, at a time: no stage holds a whole table's temporaries.
BLOCK_ROWS = 1024

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


# The modulated pilots: each modulation's 16 base phases.
PILOT_PHASES = {m: tuple(modulate(bits, m).tolist()) for m, bits in PILOT_BITS.items()}


class Scenario(str, enum.Enum):
    FULL_STRONG = "full-strong"
    SAME_POWER = "same-power"
    SAME_PHASE = "same-phase"
    WEAK_AUTHORIZED = "weak-authorized"


class Epoch(enum.IntEnum):
    """The epoch axis of the population table."""

    TRAIN = 0  # while the target classifier's training data was collected
    TEST = 1  # fresh traffic observed afterwards


# The receiver axis of the population table and of paired noise blocks.
RECEIVERS = tuple(Receiver)


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
            if not is_finite_real(value):
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
class Population:
    """Every user as one table row, in tx_id order (tx_id = row + 1).

    The rows are the authorized QPSK users, then the other BPSK users, then
    the unauthorized QPSK users. device_phase is (users,); link_phase and
    power (the received power) are (users, receiver, epoch), indexed in
    RECEIVERS and Epoch order.
    """

    device_phase: np.ndarray
    link_phase: np.ndarray
    power: np.ndarray


def _groups(users: UserCounts):
    """Table rows of the authorized, other BPSK and unauthorized users."""
    a, o = users.authorized, users.other_bpsk
    return np.arange(a), np.arange(a, a + o), np.arange(a + o, a + o + users.unauthorized_qpsk)


def _signed_magnitude(r, bound: float):
    """Map U(-1, 1) draws to signed magnitudes in [0.7 * bound, bound]."""
    return np.copysign(0.7 * bound + 0.3 * np.abs(r) * bound, r)


def _spaced_snrs(nominal_db: float, count: int, spread_db: float, rng) -> np.ndarray:
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
    return nominal_db + rng.permutation(slots) + jitter


def apply_scenario_constraints(config: ScenarioConfig) -> Population:
    """Resolve the user population with the scenario's equality constraints.

    Every user draws a device phase, a link phase per receiver, an adversary
    SNR jitter and a signed epoch drift in phase and power per receiver; the
    collection-epoch links are the training-epoch links after that drift.
    Unauthorized users then mimic an authorized user's collection-epoch
    combined phase (MimicModel) with the same link at both epochs, since
    they never transmit while the training data is recorded.

    same-power pins every QPSK user's received power to the nominal scenario
    power at the provider, to one shared draw at the adversary, and freezes
    it across epochs. same-phase does the analogous thing for the combined
    device-plus-channel phase shift. BPSK users are never constrained.
    """
    rng = np.random.default_rng((config.seed, S_POPULATION))
    users, floor = config.users, config.noise.noise_floor
    snr_auth = config.effective_snr_authorized_db
    spread, jitter = config.provider_snr_spread_db, config.adversary_snr_jitter_db
    auth, _, unauth = _groups(users)

    # The classifier-relevant users (authorized QPSK and other BPSK) get
    # deliberately spaced provider-side powers within one cohort per nominal
    # SNR. Unauthorized users are drawn uniformly in the same band, so their
    # powers may collide with authorized ones.
    if snr_auth == config.snr_others_db:
        cohorts = [_spaced_snrs(snr_auth, users.authorized + users.other_bpsk, spread, rng)]
    else:
        cohorts = [_spaced_snrs(snr_auth, users.authorized, spread, rng),
                   _spaced_snrs(config.snr_others_db, users.other_bpsk, spread, rng)]
    provider_snr = list(np.concatenate(cohorts)) + [
        config.snr_others_db + rng.uniform(-spread, spread)
        for _ in range(users.unauthorized_qpsk)]

    # Per user, in row order: device phase, provider and adversary link
    # phases, adversary SNR jitter, then phase and power drift per receiver.
    draws = rng.uniform([0.0, 0.0, 0.0, -jitter, -1, -1, -1, -1],
                        [TWO_PI, TWO_PI, TWO_PI, jitter, 1, 1, 1, 1],
                        size=(len(provider_snr), 8))
    device_phase, offsets = draws[:, 0], draws[:, 1:3]
    drift_phase = _signed_magnitude(draws[:, 4:6], config.drift.phase_bound_rad)
    drift_power = _signed_magnitude(draws[:, 6:8], config.drift.power_fraction)
    # one scalar power per link: numpy's array power can differ in the last bit
    gain = np.array([[snr_to_received_power(snr, floor), snr_to_received_power(snr + dj, floor)]
                     for snr, dj in zip(provider_snr, draws[:, 3])])
    link_phase = np.stack([offsets, wrap_phase(offsets + drift_phase)], axis=-1)
    power = np.stack([gain, gain * (1.0 + drift_power)], axis=-1)

    targets, errors = [], []
    for _ in unauth:
        targets.append(int(rng.integers(0, len(auth))))
        errors.append(rng.uniform(-config.mimic.phase_err_rad, config.mimic.phase_err_rad,
                                  size=len(RECEIVERS)))
    combined = wrap_phase(device_phase[targets, None] + link_phase[targets, :, Epoch.TEST])
    mimic = wrap_phase(wrap_phase(combined + errors) - device_phase[unauth, None])
    link_phase[unauth] = mimic[:, :, None]
    power[unauth] = power[unauth, :, Epoch.TEST, None]

    qpsk = np.concatenate([auth, unauth])
    if config.scenario is Scenario.SAME_POWER:
        nominal = snr_to_received_power(snr_auth, floor)
        adv_shared = snr_to_received_power(snr_auth + rng.uniform(-jitter, jitter), floor)
        power[qpsk] = np.array([nominal, adv_shared])[:, None]
    elif config.scenario is Scenario.SAME_PHASE:
        shared = rng.uniform(0.0, TWO_PI, size=len(RECEIVERS))
        link_phase[qpsk] = wrap_phase(shared - device_phase[qpsk, None])[:, :, None]
    return Population(device_phase=device_phase, link_phase=link_phase, power=power)


@dataclass(frozen=True)
class DataBundle:
    """Every dataset one scenario run needs, generated or loaded from CSV."""

    config: ScenarioConfig
    provider_train: Signals
    member_eval: Signals
    nonmember_eval: Signals
    surrogate_pairs: Pairs
    test_pairs: Pairs
    unauthorized_provider_views: Signals


def dataset_tables(config: ScenarioConfig) -> dict:
    """Each DataBundle table in field order: its CSV kind and the len() config implies."""
    c = config.counts
    return {"provider_train": ("samples", c.provider_train),
            "member_eval": ("samples", c.member_eval),
            "nonmember_eval": ("samples", c.nonmember_eval),
            "surrogate_pairs": ("pairs", c.surrogate_train),
            "test_pairs": ("pairs", c.provider_test),
            "unauthorized_provider_views": ("samples",
                                            c.nonmember_eval - c.nonmember_eval // 2)}


# numpy's SeedSequence hash constants, as (initial value, multiplier) pairs
# for mixing entropy into the pool and for drawing state out of it, and its
# pool mixing multipliers (numpy/random/bit_generator.pyx).
_POOL_HASH = (0x43B0D7E5, 0x931E8875)
_STATE_HASH = (0x8B51F9DD, 0x58F38DED)
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_POOL_SIZE = 4
# PCG64's 128-bit LCG multiplier as (high, low) 64-bit halves (numpy/random/src/pcg64).
_PCG_MULT = (np.uint64(0x2360ED051FC65DA4), np.uint64(0x4385DF649FCCF645))
_LOW32, _SHIFT32 = np.uint64(0xFFFFFFFF), np.uint64(32)


def _entropy_words(value: int) -> list[int]:
    """An entropy integer as SeedSequence splits it: uint32 words, least significant first."""
    value = int(value)
    if value < 0:
        raise ValueError("expected non-negative integer")
    words = [value & 0xFFFFFFFF]
    while value > 0xFFFFFFFF:
        value >>= 32
        words.append(value & 0xFFFFFFFF)
    return words


def _hasher(init: int, mult: int):
    """SeedSequence's hashmix over uint32 arrays; its constant advances per call.

    The constant's sequence depends only on the number of calls, never on
    the data, so one call hashes the same word position of every row.
    """
    const = init

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & 0xFFFFFFFF
        value = value * np.uint32(const)
        return value ^ (value >> np.uint32(16))

    return hashmix


def _mix(x, y):
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> np.uint32(16))


def _seed_states(seed: int, stream: int, n: int, start: int) -> list:
    """SeedSequence((seed, stream, i)).generate_state(4, np.uint64) for start <= i < start + n.

    Returns the four state words, each an (n,) uint64 array. Row i's entropy
    is the words of seed, then of stream, then i (one word for i < 2**32).
    """
    entropy = [np.full(n, word, dtype=np.uint32)
               for word in _entropy_words(seed) + _entropy_words(stream)]
    entropy.append(np.arange(start, start + n, dtype=np.uint32))
    hashmix = _hasher(*_POOL_HASH)
    pool = [hashmix(entropy[k] if k < len(entropy) else np.zeros(n, dtype=np.uint32))
            for k in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    draw = _hasher(*_STATE_HASH)
    halves = [draw(pool[k % _POOL_SIZE]).astype(np.uint64) for k in range(8)]
    return [halves[2 * k] | (halves[2 * k + 1] << _SHIFT32) for k in range(4)]


def _mulhi64(a, b):
    """High 64 bits of the 128-bit products of the uint64 array a and the uint64 b."""
    a0, a1, b0, b1 = a & _LOW32, a >> _SHIFT32, b & _LOW32, b >> _SHIFT32
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    carry = (p00 >> _SHIFT32) + (p01 & _LOW32) + (p10 & _LOW32)
    return a1 * b1 + (p01 >> _SHIFT32) + (p10 >> _SHIFT32) + (carry >> _SHIFT32)


def _add128(hi, lo, add_hi, add_lo):
    lo = lo + add_lo
    return hi + add_hi + (lo < add_lo), lo


def _pcg_step(hi, lo, inc_hi, inc_lo):
    """state * multiplier + inc, modulo 2**128, on (high, low) uint64 halves."""
    mult_hi, mult_lo = _PCG_MULT
    return _add128(_mulhi64(lo, mult_lo) + lo * mult_hi + hi * mult_lo, lo * mult_lo,
                   inc_hi, inc_lo)


def _substream_doubles(seed: int, stream: int, n: int, start: int, count: int):
    """Yield default_rng((seed, stream, start + i)).random() draws, one (n,) array per draw.

    Lane i is PCG64 seeded by the SeedSequence of (seed, stream, start + i):
    the generator's srandom step, then per draw one LCG step, the XSL-RR
    output and next_double's top 53 bits times 2**-53.
    """
    state_hi, state_lo, seq_hi, seq_lo = _seed_states(seed, stream, n, start)
    inc_hi = (seq_hi << np.uint64(1)) | (seq_lo >> np.uint64(63))
    inc_lo = (seq_lo << np.uint64(1)) | np.uint64(1)
    hi, lo = _pcg_step(*_add128(inc_hi, inc_lo, state_hi, state_lo), inc_hi, inc_lo)
    for _ in range(count):
        hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
        word, rot = hi ^ lo, hi >> np.uint64(58)
        word = (word >> rot) | (word << ((np.uint64(64) - rot) & np.uint64(63)))
        yield (word >> np.uint64(11)).astype(np.float64) * (1.0 / 9007199254740992.0)


def stream_noise(noise: NoiseModel, seed: int, stream: int, n: int, views: int,
                 start: int = 0) -> np.ndarray:
    """Observation noise of n transmissions seen by views receivers: (n, views, 2, 16).

    Row i is drawn from its own substream (seed, stream, start + i): per
    view, the phase noise and then the power noise, uniform per symbol
    within the model's bounds. So any sample can be regenerated alone, and
    a call with start equals rows start:start + n of a call from 0.

    Row i equals np.random.default_rng((seed, stream, start + i)).uniform(
    -bound, bound, size=(views, 2, 16)), with bound the (phase, power) bounds
    as a (2, 1) column; the tests keep that per-row loop as the oracle. All
    rows of a call are drawn at once: numpy's SeedSequence hash, PCG64
    seeding and stepping, next_double and uniform's low + (high - low) * d
    run as array arithmetic over the rows, one output word at a time. The
    match is bit for bit where numpy's C uniform rounds the multiply and the
    add separately, as here; a numpy build that fuses them (FMA contraction)
    may differ in the last bit. Checked on x86-64 with numpy 2.4.
    """
    bound = np.array([noise.phase_bound_rad, noise.power_bound], dtype=float)
    low = -bound
    span = bound - low  # finite: NoiseModel rejects a bound whose range overflows
    block = np.empty((n, views, 2, SYMBOLS_PER_SAMPLE))
    lanes = block.reshape(n, views * 2 * SYMBOLS_PER_SAMPLE)  # each row's draws in order
    for j, d in enumerate(_substream_doubles(seed, stream, n, start, lanes.shape[1])):
        kind = j // SYMBOLS_PER_SAMPLE % 2  # phase or power
        lanes[:, j] = low[kind] + span[kind] * d
    return block


def generate_scenario_data(config: ScenarioConfig) -> DataBundle:
    """Generate all datasets for one scenario seed.

    provider_train: half authorized QPSK (class 1) and half other-user BPSK
    (class 0), at the training epoch. member_eval: adversary views of
    randomly chosen class-1 training transmissions; the adversary views of
    the other class-1 rows are not kept, and regenerate exactly from the seed.
    nonmember_eval: half fresh authorized QPSK, half unauthorized QPSK, all
    adversary views at the collection epoch. surrogate and test traffic are
    fresh paired transmissions at the collection epoch.

    Each dataset stream is one run of population rows: the i-th row's noise
    comes from substream (seed, stream, i). Rows are observed BLOCK_ROWS at
    a time.
    """
    population = apply_scenario_constraints(config)
    seed, counts = config.seed, config.counts
    auth, others, unauth = _groups(config.users)
    pilots = np.array([PILOT_PHASES[Modulation.QPSK]] * len(auth)
                      + [PILOT_PHASES[Modulation.BPSK]] * len(others)
                      + [PILOT_PHASES[Modulation.QPSK]] * len(unauth))

    def cycle(group, n):
        return group[np.arange(n) % len(group)]

    def observe(stream, rows, epoch, views=RECEIVERS, member=False):
        """Every row's transmission as one Signals table per receiver in views."""
        rx = [RECEIVERS.index(view) for view in views]
        out = [(np.empty((len(rows), SYMBOLS_PER_SAMPLE)),
                np.empty((len(rows), SYMBOLS_PER_SAMPLE))) for _ in rx]
        for start in range(0, len(rows), BLOCK_ROWS):
            block = rows[start:start + BLOCK_ROWS]
            noise = stream_noise(config.noise, seed, stream, len(block), len(rx), start)
            base, device = pilots[block], population.device_phase[block]
            link = population.link_phase[block[:, None], rx, epoch]
            power = population.power[block[:, None], rx, epoch]
            for (phases, powers), (block_phases, block_powers) in zip(
                    out, transmit_paired(base, device, link, power, noise)):
                phases[start:start + len(block)] = block_phases
                powers[start:start + len(block)] = block_powers
        return [Signals(phases=phases, powers=powers, tx_id=rows + 1,
                        class_label=rows < len(auth), view=view, member=member)
                for view, (phases, powers) in zip(views, out)]

    def joined(first, second):
        """One table of two that share a view and member flag, rows in order."""
        return replace(first, **{name: np.concatenate([getattr(first, name),
                                                       getattr(second, name)])
                                 for name in ("phases", "powers", "tx_id", "class_label")})

    def fresh_pairs(stream, n):
        """Half authorized, then half other users, at the collection epoch."""
        rows = np.concatenate([cycle(auth, n // 2), cycle(others, n - n // 2)])
        return Pairs(*observe(stream, rows, Epoch.TEST))

    n_class1 = counts.provider_train // 2
    class1_provider, class1_adversary = observe(
        S_TRAIN_C1, cycle(auth, n_class1), Epoch.TRAIN, member=True)
    [class0] = observe(S_TRAIN_C0, cycle(others, counts.provider_train - n_class1),
                       Epoch.TRAIN, [Receiver.PROVIDER], member=True)
    provider_train = joined(class1_provider, class0)
    choice_rng = np.random.default_rng((seed, S_MEMBER_CHOICE))
    member_indices = np.sort(choice_rng.permutation(n_class1)[:counts.member_eval])
    member_eval = class1_adversary.take(member_indices)
    del class1_provider, class1_adversary, class0  # freed before the fresh streams

    n_fresh_auth = counts.nonmember_eval // 2
    fresh_auth = cycle(auth, n_fresh_auth)
    mimics = cycle(unauth, counts.nonmember_eval - n_fresh_auth)
    [fresh] = observe(S_NONMEMBER_AUTH, fresh_auth, Epoch.TEST, [Receiver.ADVERSARY])
    mimic_provider, mimic_adversary = observe(S_NONMEMBER_UNAUTH, mimics, Epoch.TEST)

    return DataBundle(
        config=config,
        provider_train=provider_train,
        member_eval=member_eval,
        nonmember_eval=joined(fresh, mimic_adversary),
        surrogate_pairs=fresh_pairs(S_SURROGATE, counts.surrogate_train),
        test_pairs=fresh_pairs(S_TEST, counts.provider_test),
        unauthorized_provider_views=mimic_provider,
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
    repr, the shortest string that reads back to the same float. Columns are
    converted BLOCK_ROWS rows at a time, so no whole table is ever held as
    Python floats.
    """
    view, member = signals.view.value, int(signals.member)
    for start in range(0, len(signals), BLOCK_ROWS):
        block = slice(start, start + BLOCK_ROWS)
        for i, (tx_id, label, phases, powers) in enumerate(zip(
                signals.tx_id[block].tolist(), signals.class_label[block].tolist(),
                signals.phases[block].tolist(), signals.powers[block].tolist()), start):
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


# One parsed CSV row: sample_id, tx_id, class, member; the view's RECEIVERS
# index; the phases then the powers.
_CSV_ROW = np.dtype([("ints", int, (4,)), ("view", int),
                     ("values", float, (2 * SYMBOLS_PER_SAMPLE,))])


def _view_index(name: str) -> int:
    return RECEIVERS.index(Receiver(name))  # an unknown name is a ValueError


def _parse_rows(path, rows_per_id: int):
    """Parse a dataset CSV once into columns: (ints, values, views).

    ints is the (n, 4) block sample_id, tx_id, class, member; values the
    (n, 32) phases then powers; views the (n,) RECEIVERS indices. sample_id
    must count up from 0, rows_per_id rows at a time. np.loadtxt parses
    each float as float() does, and skips empty lines.
    """
    try:
        with open(path, "r", newline="", encoding="utf-8") as fh:
            if next(csv.reader([fh.readline()]), None) != CSV_HEADER:
                raise ArtifactError(f"{path}: unexpected CSV header")
            start = fh.tell()
            if not any(line.strip() for line in iter(fh.readline, "")):
                # checked here: np.loadtxt warns on input without data
                raise ArtifactError(f"{path}: dataset has no rows")
            fh.seek(start)
            try:
                with warnings.catch_warnings():
                    # numpy 1.23-1.26 parse an integer field such as "1.5" as a
                    # float and truncate it, with only this warning; as an
                    # error, loadtxt reports the field as unconvertible
                    warnings.filterwarnings("error", category=DeprecationWarning)
                    rows = np.loadtxt(fh, dtype=_CSV_ROW, delimiter=",", comments=None,
                                      converters={4: _view_index}, ndmin=1,
                                      encoding="utf-8")
            except (ValueError, DeprecationWarning) as exc:
                if "columns" in str(exc):  # numpy's message for a wrong field count
                    raise ArtifactError(
                        f"{path}: malformed row, not {len(CSV_HEADER)} fields ({exc})") from exc
                raise ArtifactError(f"{path}: malformed row ({exc})") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ArtifactError(f"cannot read dataset {path}: {exc}") from exc
    ints = rows["ints"]
    if not np.array_equal(ints[:, 0], np.arange(len(rows)) // rows_per_id):
        raise ArtifactError(f"{path}: sample_id does not count up from 0")
    return ints, rows["values"], rows["view"]


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
                       view=RECEIVERS[view[0]], member=bool(members[0]))
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
