"""Signal-level simulation: modulation, device and channel effects, bounded noise.

The feature model is one (phase, power) pair per transmitted symbol and 16
symbols per sample, so a full sample carries 32 features. Every transmission
can be observed twice -- once at the service provider and once at the
eavesdropping adversary -- through two different static links with
independent noise draws. Datasets are column tables: `Signals` holds one row
per observation, `Pairs` the provider and adversary rows of the same
transmissions.
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
    return np.mod(x, TWO_PI)


@dataclass(frozen=True)
class DeviceProfile:
    """A transmitter: intrinsic phase shift, power, modulation, authorization."""

    id: int
    phase_shift_rad: float
    transmit_power: float
    modulation: Modulation
    authorized: bool

    def __post_init__(self):
        if not self.transmit_power > 0:
            raise InvalidInputError(f"transmit_power must be > 0, got {self.transmit_power}")
        object.__setattr__(self, "phase_shift_rad", float(wrap_phase(self.phase_shift_rad)))
        object.__setattr__(self, "modulation", Modulation(self.modulation))


@dataclass(frozen=True)
class ChannelLink:
    """Static per-(tx, rx) channel: linear power gain and phase offset."""

    tx_id: int
    rx_id: Receiver
    gain: float
    phase_offset_rad: float

    def __post_init__(self):
        if self.gain < 0:
            raise InvalidInputError(f"channel gain must be >= 0, got {self.gain}")
        object.__setattr__(self, "phase_offset_rad", float(wrap_phase(self.phase_offset_rad)))
        object.__setattr__(self, "rx_id", Receiver(self.rx_id))


@dataclass(frozen=True)
class NoiseModel:
    """Bounded observation noise, uniform per feature in [-bound, +bound]."""

    phase_bound_rad: float = 0.1
    power_bound: float = 1.0
    noise_floor: float = 1.0

    def __post_init__(self):
        for name, value in vars(self).items():
            if isinstance(value, bool) or not isinstance(value, (int, float)) \
                    or not math.isfinite(value):
                raise InvalidInputError(f"noise.{name} must be a finite number, got {value!r}")
        if self.phase_bound_rad < 0 or self.power_bound < 0:
            raise InvalidInputError("noise bounds must be >= 0")
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


def propagate(
    base_phases,
    device: DeviceProfile,
    link: ChannelLink,
    noise: NoiseModel,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Apply device and channel effects plus bounded noise: (phases, powers).

    phase_k = wrap(base_k + device phase + link phase + U[-e_phi, e_phi])
    power_k = max(0, gain * transmit_power + U[-e_p, e_p])
    """
    if link.tx_id != device.id:
        raise InvalidInputError(f"link tx_id {link.tx_id} does not match device id {device.id}")
    base = np.asarray(base_phases, dtype=float)
    n = base.size
    phase_noise = rng.uniform(-noise.phase_bound_rad, noise.phase_bound_rad, size=n)
    power_noise = rng.uniform(-noise.power_bound, noise.power_bound, size=n)
    phases = wrap_phase(base + device.phase_shift_rad + link.phase_offset_rad + phase_noise)
    powers = np.maximum(0.0, link.gain * device.transmit_power + power_noise)
    return phases, powers


def transmit_paired(
    device: DeviceProfile,
    provider_link: ChannelLink,
    adversary_link: ChannelLink,
    bits,
    noise: NoiseModel,
    rng: np.random.Generator,
):
    """Modulate once, then observe through both links with independent noise.

    Returns the provider's (phases, powers), then the adversary's.
    """
    if provider_link.tx_id != device.id or adversary_link.tx_id != device.id:
        raise InvalidInputError("both links must carry the transmitting device id")
    base = modulate(bits, device.modulation)
    return (propagate(base, device, provider_link, noise, rng),
            propagate(base, device, adversary_link, noise, rng))


def snr_to_received_power(snr_db: float, noise_floor: float) -> float:
    """Received power g*p that realizes the given SNR over the noise floor."""
    if not noise_floor > 0:
        raise InvalidInputError(f"noise floor must be > 0, got {noise_floor}")
    return noise_floor * 10.0 ** (snr_db / 10.0)

