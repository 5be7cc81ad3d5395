"""Signal-level simulation: modulation, row-wise propagation, bounded noise.

The feature model is one (phase, power) pair per transmitted symbol and 16
symbols per sample, so a full sample carries 32 features. Every transmission
can be observed twice -- once at the service provider and once at the
eavesdropping adversary -- through two different static links with
independent noise draws. `propagate` is arithmetic over rows: each row's
device phase, link phase and received power, plus noise drawn by the caller.
Datasets are column tables: `Signals` holds one row per observation, `Pairs`
the provider and adversary rows of the same transmissions.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidInputError

TWO_PI = 2.0 * math.pi

SYMBOLS_PER_SAMPLE = 16


class Modulation(str, enum.Enum):
    BPSK = "bpsk"
    QPSK = "qpsk"


class Receiver(str, enum.Enum):
    PROVIDER = "provider"
    ADVERSARY = "adversary"


# Gray-mapped QPSK constellation anchored at 00 -> pi/4.
QPSK_GRAY_PHASES = {
    (0, 0): math.pi / 4,
    (0, 1): 3 * math.pi / 4,
    (1, 1): 5 * math.pi / 4,
    (1, 0): 7 * math.pi / 4,
}
BPSK_PHASES = {0: 0.0, 1: math.pi}


def wrap_phase(x):
    """Wrap an angle (scalar or array) into [0, 2*pi)."""
    wrapped = np.mod(x, TWO_PI)  # rounds a tiny negative x up to exactly 2*pi
    return np.where(wrapped == TWO_PI, 0.0, wrapped)[()]


def is_finite_real(value) -> bool:
    """Whether value is an int or float (not a bool) with a finite float value.

    An int too large for a float counts as not finite.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


@dataclass(frozen=True)
class NoiseModel:
    """Bounded observation noise, uniform per feature in [-bound, +bound]."""

    phase_bound_rad: float = 0.1
    power_bound: float = 1.0
    noise_floor: float = 1.0

    def __post_init__(self):
        for name, value in vars(self).items():
            if not is_finite_real(value):
                raise InvalidInputError(f"noise.{name} must be a finite number, got {value!r}")
        if self.phase_bound_rad < 0 or self.power_bound < 0:
            raise InvalidInputError("noise bounds must be >= 0")
        for name in ("phase_bound_rad", "power_bound"):
            value = getattr(self, name)
            if not math.isfinite(2.0 * value):  # the draw's range, bound - (-bound)
                raise InvalidInputError(
                    f"noise.{name} must be a finite number with a finite range, got {value!r}")
        if not self.noise_floor > 0:
            raise InvalidInputError("noise floor must be > 0")


@dataclass(frozen=True)
class Signals:
    """Received observations as columns: one row per sample, one view per table.

    phases and powers are (n, 16) per-symbol arrays; tx_id and class_label
    hold one integer per row. Every row of a table was seen at the same
    receiver and shares one membership ground-truth flag.
    """

    phases: np.ndarray
    powers: np.ndarray
    tx_id: np.ndarray
    class_label: np.ndarray
    view: Receiver
    member: bool = False

    def __post_init__(self):
        for name, dtype in (("phases", float), ("powers", float),
                            ("tx_id", int), ("class_label", int)):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=dtype))
        object.__setattr__(self, "view", Receiver(self.view))
        object.__setattr__(self, "member", bool(self.member))
        if self.phases.ndim != 2 or self.phases.shape[1] != SYMBOLS_PER_SAMPLE \
                or self.powers.shape != self.phases.shape:
            raise InvalidInputError(
                f"phases and powers must both be (n, {SYMBOLS_PER_SAMPLE}) arrays")
        if self.tx_id.shape != (len(self),) or self.class_label.shape != (len(self),):
            raise InvalidInputError("tx_id and class_label need one entry per row")
        if not np.isin(self.class_label, (0, 1)).all():
            raise InvalidInputError("class_label must be 0 or 1")
        if not (np.isfinite(self.phases).all() and np.isfinite(self.powers).all()):
            raise InvalidInputError("phases and powers must be finite")

    def __len__(self) -> int:
        return len(self.phases)

    def take(self, idx) -> "Signals":
        """The rows at idx, in that order."""
        return replace(self, phases=self.phases[idx], powers=self.powers[idx],
                       tx_id=self.tx_id[idx], class_label=self.class_label[idx])


@dataclass(frozen=True)
class Pairs:
    """Provider and adversary views of the same transmissions, row for row."""

    provider: Signals
    adversary: Signals

    def __post_init__(self):
        p, a = self.provider, self.adversary
        if p.view is not Receiver.PROVIDER or a.view is not Receiver.ADVERSARY:
            raise InvalidInputError("paired views must be (provider, adversary)")
        if not (np.array_equal(p.tx_id, a.tx_id)
                and np.array_equal(p.class_label, a.class_label)):
            raise InvalidInputError("paired views must share tx_id and class_label")

    def __len__(self) -> int:
        return len(self.provider)


def modulate(bits, scheme: Modulation) -> np.ndarray:
    """Map a bit sequence to per-symbol base phases.

    BPSK consumes one bit per symbol (0 -> 0, 1 -> pi); QPSK consumes two
    bits per symbol with the Gray map 00 -> pi/4, 01 -> 3pi/4, 11 -> 5pi/4,
    10 -> 7pi/4.
    """
    scheme = Modulation(scheme)
    bits = [int(b) for b in bits]
    if any(b not in (0, 1) for b in bits):
        raise InvalidInputError("bits must be 0 or 1")
    if len(bits) == 0:
        raise InvalidInputError("empty bit sequence")
    if scheme is Modulation.BPSK:
        return np.array([BPSK_PHASES[b] for b in bits], dtype=float)
    if len(bits) % 2 != 0:
        raise InvalidInputError("QPSK requires an even number of bits")
    pairs = zip(bits[0::2], bits[1::2])
    return np.array([QPSK_GRAY_PHASES[p] for p in pairs], dtype=float)


def propagate(base_phases, device_phase, link_phase, power, noise):
    """Observe n transmissions through one receiver's links: (phases, powers).

    base_phases is (n, 16) or (16,); device_phase, link_phase and power (the
    received power) hold one value per row; noise is (n, 2, 16), each row's
    phase noise and then its power noise. Device and link phases are taken
    modulo 2*pi before they are added.

    phase_k = wrap(base_k + device phase + link phase + phase noise_k)
    power_k = max(0, power + power noise_k)
    """
    device, link = wrap_phase(device_phase)[:, None], wrap_phase(link_phase)[:, None]
    phases = wrap_phase(base_phases + device + link + noise[:, 0])
    powers = np.maximum(0.0, power[:, None] + noise[:, 1])
    return phases, powers


def transmit_paired(base_phases, device_phase, link_phase, power, noise):
    """Observe the same transmissions at any number of receivers (views).

    link_phase and power are (n, views) and noise is (n, views, 2, 16): each
    view's links and noise in one column and block. Returns one (phases,
    powers) per view, in order.
    """
    return tuple(propagate(base_phases, device_phase, link_phase[:, v], power[:, v], noise[:, v])
                 for v in range(link_phase.shape[1]))


def snr_to_received_power(snr_db: float, noise_floor: float) -> float:
    """Received power g*p that realizes the given SNR over the noise floor."""
    if not noise_floor > 0:
        raise InvalidInputError(f"noise floor must be > 0, got {noise_floor}")
    return noise_floor * 10.0 ** (snr_db / 10.0)

