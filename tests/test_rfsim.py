import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from airmia.errors import InvalidInputError
from airmia.rfsim import (
    Modulation,
    NoiseModel,
    Pairs,
    Receiver,
    Signals,
    TWO_PI,
    modulate,
    propagate,
    snr_to_received_power,
    transmit_paired,
    wrap_phase,
)
from airmia.scenarios import stream_noise

PI = math.pi


def circular_distance(a, b):
    """Shortest angular distance between two wrapped phases."""
    d = np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float)) % TWO_PI
    return np.minimum(d, TWO_PI - d)


def rows(n, value):
    return np.full(n, value, dtype=float)


def zero_noise(n, views=None):
    return np.zeros((n, 2, 16) if views is None else (n, views, 2, 16))


NOISE = NoiseModel(phase_bound_rad=0.1, power_bound=1.0)


def make_signals(rng, n, tx_id=None, class_label=None, view=Receiver.PROVIDER):
    return Signals(phases=rng.uniform(0, TWO_PI, (n, 16)), powers=rng.uniform(0, 20, (n, 16)),
                   tx_id=[1] * n if tx_id is None else tx_id,
                   class_label=[0] * n if class_label is None else class_label, view=view)


class TestModulate:
    def test_qpsk_example_00(self):
        assert modulate([0, 0], Modulation.QPSK).tolist() == [PI / 4]

    def test_bpsk_example_zero(self):
        assert modulate([0], Modulation.BPSK).tolist() == [0.0]

    def test_qpsk_two_symbols(self):
        assert modulate([1, 1, 0, 0], Modulation.QPSK).tolist() == [5 * PI / 4, PI / 4]

    def test_qpsk_gray_map_enumeration(self):
        # independent enumeration of the Gray map anchored at 00 -> pi/4
        expected = {(0, 0): PI / 4, (0, 1): 3 * PI / 4,
                    (1, 1): 5 * PI / 4, (1, 0): 7 * PI / 4}
        for bits, phase in expected.items():
            assert modulate(list(bits), Modulation.QPSK).tolist() == [phase]

    def test_bpsk_both_symbols(self):
        assert modulate([0, 1], Modulation.BPSK).tolist() == [0.0, PI]

    @pytest.mark.parametrize("bits,scheme", [
        ([0, 1, 1], Modulation.QPSK),  # odd length
        ([], Modulation.QPSK),
        ([], Modulation.BPSK),
        ([0, 2], Modulation.BPSK),  # non-bit value
    ])
    def test_invalid_inputs(self, bits, scheme):
        with pytest.raises(InvalidInputError):
            modulate(bits, scheme)


class TestPropagate:
    def test_zero_offsets_pass_through(self):
        phases, powers = propagate(np.array([PI / 4]), rows(1, 0.0), rows(1, 0.0),
                                   rows(1, 10.0), zero_noise(1)[:, :, :1])
        assert phases.tolist() == [[PI / 4]]
        assert powers.tolist() == [[10.0]]

    def test_additive_phase_composition(self):
        phases, _ = propagate(np.zeros((2, 16)), np.array([1.0, 0.25]), np.array([0.5, 2.0]),
                              rows(2, 1.0), zero_noise(2))
        assert (phases[0] == 1.5).all() and (phases[1] == 2.25).all()

    def test_noise_stays_within_bounds(self):
        # Monte-Carlo bound check: 700 rows x 16 symbols > 1e4 draws
        n = 700
        args = (np.zeros(16), rows(n, 2.0), rows(n, 1.0), rows(n, 10.0))
        clean, _ = propagate(*args, zero_noise(n))
        phases, powers = propagate(*args, stream_noise(NOISE, 0, 0, n, 1)[:, 0])
        assert circular_distance(phases, clean).max() <= 0.1 + 1e-12
        assert np.abs(powers - 10.0).max() <= 1.0 + 1e-12

    def test_powers_clipped_at_zero(self):
        noise = stream_noise(NoiseModel(phase_bound_rad=0.0, power_bound=1.0), 0, 0, 50, 1)
        _, powers = propagate(np.zeros(16), rows(50, 0.0), rows(50, 0.0), rows(50, 0.5),
                              noise[:, 0])
        assert (powers >= 0.0).all() and (powers == 0.0).any()

    def test_deterministic_per_seed(self):
        args = (np.zeros(16), rows(20, 1.2), rows(20, 0.7), rows(20, 3.0))
        a = propagate(*args, stream_noise(NoiseModel(), 42, 3, 20, 1)[:, 0])
        b = propagate(*args, stream_noise(NoiseModel(), 42, 3, 20, 1)[:, 0])
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


class TestPhaseWrapInvariance:
    @given(st.floats(allow_nan=False, allow_infinity=False))
    @example(-1e-17)
    @example(-1e-300)
    @example(-4e-16)
    def test_wrap_lands_in_half_open_range(self, x):
        # np.mod alone rounds a tiny negative angle up to exactly 2*pi
        wrapped = wrap_phase(x)
        assert isinstance(wrapped, np.floating)
        assert 0.0 <= wrapped < TWO_PI
        assert wrap_phase(np.array([x])).tolist() == [wrapped]

    def test_adding_two_pi_leaves_features_unchanged(self):
        # float addition of 2*pi is itself lossy, so compare at a few ulps
        n = 200
        draws = np.random.default_rng(7)
        phase, link_phase = draws.uniform(0, TWO_PI, n), draws.uniform(0, TWO_PI, n)
        base = draws.uniform(0, TWO_PI, size=(n, 16))
        noise = stream_noise(NoiseModel(), 7, 0, n, 1)[:, 0]
        samples = [propagate(base, dev_phase, lk_phase, rows(n, 2.0), noise)
                   for dev_phase, lk_phase in ((phase, link_phase),
                                               (phase + TWO_PI, link_phase),
                                               (phase, link_phase + TWO_PI))]
        for phases, powers in samples[1:]:
            assert circular_distance(samples[0][0], phases).max() < 5e-15
            assert np.array_equal(samples[0][1], powers)


class TestTransmitPaired:
    def test_identical_links_zero_noise_match(self):
        provider, adversary = transmit_paired(
            np.zeros(16), rows(3, 0.3), np.full((3, 2), 1.0), np.full((3, 2), 2.0),
            zero_noise(3, views=2))
        assert np.array_equal(provider[0], adversary[0])
        assert np.array_equal(provider[1], adversary[1])

    def test_per_link_power_scaling(self):
        (_, provider_powers), (_, adversary_powers) = transmit_paired(
            np.zeros(16), rows(3, 0.0), np.zeros((3, 2)), np.array([[10.0, 5.0]] * 3),
            zero_noise(3, views=2))
        assert (provider_powers == 10.0).all()
        assert (adversary_powers == 5.0).all()

    def test_one_view_equals_propagate_bit_for_bit(self):
        rng = np.random.default_rng(4)
        base, device = rng.uniform(0, TWO_PI, (5, 16)), rng.uniform(-10, 10, 5)
        link, power = rng.uniform(-10, 10, (5, 1)), rng.uniform(0, 20, (5, 1))
        noise = stream_noise(NOISE, 4, 0, 5, 1)
        [(phases, powers)] = transmit_paired(base, device, link, power, noise)
        want_phases, want_powers = propagate(base, device, link[:, 0], power[:, 0], noise[:, 0])
        assert phases.tobytes() == want_phases.tobytes()
        assert powers.tobytes() == want_powers.tobytes()

    def test_views_come_back_in_order(self):
        powers = np.array([[1.0, 2.0, 3.0]] * 2)
        observed = transmit_paired(np.zeros(16), rows(2, 0.0), np.zeros((2, 3)), powers,
                                   zero_noise(2, views=3))
        assert [view_powers[0, 0] for _, view_powers in observed] == [1.0, 2.0, 3.0]

    def test_independent_noise_differs_in_every_feature(self):
        for seed in range(20):
            provider, adversary = transmit_paired(
                np.zeros(16), rows(1, 0.0), np.zeros((1, 2)), np.full((1, 2), 2.0),
                stream_noise(NOISE, seed, 0, 1, 2))
            assert (provider[0] != adversary[0]).all()
            assert (provider[1] != adversary[1]).all()


class TestSnrToReceivedPower:
    def test_ten_db(self):
        assert snr_to_received_power(10.0, 1.0) == 10.0

    def test_three_db(self):
        assert abs(snr_to_received_power(3.0, 1.0) - 1.9953) < 1e-4

    def test_zero_db_identity(self):
        assert snr_to_received_power(0.0, 2.0) == 2.0

    @pytest.mark.parametrize("floor", [0.0, -1.0])
    def test_invalid_noise_floor(self, floor):
        with pytest.raises(InvalidInputError):
            snr_to_received_power(10.0, floor)


class TestTypes:
    def test_noise_model_validation(self):
        with pytest.raises(InvalidInputError):
            NoiseModel(phase_bound_rad=-0.1)
        with pytest.raises(InvalidInputError):
            NoiseModel(noise_floor=0.0)
        for name in ("phase_bound_rad", "power_bound"):  # finite, but 2 * bound overflows
            with pytest.raises(InvalidInputError, match=f"noise.{name} must be a finite "
                                                        "number with a finite range"):
                NoiseModel(**{name: 1e308})

    def test_sample_feature_layout(self):
        rng = np.random.default_rng(0)
        s = make_signals(rng, 5, tx_id=[1, 2, 3, 4, 5], class_label=[1, 0, 1, 0, 1])
        assert len(s) == 5 and s.phases.shape == s.powers.shape == (5, 16)
        assert s.view is Receiver.PROVIDER and s.member is False
        picked = s.take([4, 0])
        assert picked.tx_id.tolist() == [5, 1] and picked.class_label.tolist() == [1, 1]
        assert np.array_equal(picked.phases, s.phases[[4, 0]])
        assert np.array_equal(picked.powers, s.powers[[4, 0]])
        assert picked.view is s.view and picked.member == s.member

    def test_sample_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(InvalidInputError):  # phases and powers disagree
            Signals(phases=np.zeros((2, 16)), powers=np.zeros((2, 15)), tx_id=[1, 1],
                    class_label=[0, 0], view=Receiver.PROVIDER)
        with pytest.raises(InvalidInputError):  # not 16 symbols per sample
            Signals(phases=np.zeros((2, 4)), powers=np.zeros((2, 4)), tx_id=[1, 1],
                    class_label=[0, 0], view=Receiver.PROVIDER)
        with pytest.raises(InvalidInputError):  # not 0/1 labels
            make_signals(rng, 2, class_label=[0, 2])
        with pytest.raises(InvalidInputError):  # one label per row
            make_signals(rng, 2, class_label=[0])
        with pytest.raises(ValueError):
            make_signals(rng, 2, view="elsewhere")
        for column in ("phases", "powers"):
            for bad in (np.nan, np.inf, -np.inf):
                values = np.zeros((2, 16))
                values[1, 7] = bad
                kwargs = {"phases": np.zeros((2, 16)), "powers": np.zeros((2, 16)),
                          column: values}
                with pytest.raises(InvalidInputError, match="finite"):
                    Signals(**kwargs, tx_id=[1, 1], class_label=[0, 0],
                            view=Receiver.PROVIDER)

    def test_paired_observation_validation(self):
        rng = np.random.default_rng(0)
        provider = make_signals(rng, 3, tx_id=[1, 2, 3], class_label=[1, 0, 1])
        adversary = make_signals(rng, 3, tx_id=[1, 2, 3], class_label=[1, 0, 1],
                                 view=Receiver.ADVERSARY)
        assert len(Pairs(provider=provider, adversary=adversary)) == 3
        with pytest.raises(InvalidInputError):  # views swapped
            Pairs(provider=provider, adversary=provider)
        with pytest.raises(InvalidInputError):  # tx ids disagree
            Pairs(provider=provider, adversary=make_signals(
                rng, 3, tx_id=[1, 2, 4], class_label=[1, 0, 1], view=Receiver.ADVERSARY))
        with pytest.raises(InvalidInputError):  # labels disagree
            Pairs(provider=provider, adversary=make_signals(
                rng, 3, tx_id=[1, 2, 3], class_label=[1, 1, 1], view=Receiver.ADVERSARY))
        with pytest.raises(InvalidInputError):  # row counts disagree
            Pairs(provider=provider, adversary=adversary.take([0, 1]))
