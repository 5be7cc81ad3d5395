import dataclasses
import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from airmia.errors import ArtifactError, InvalidConfigError
from airmia.rfsim import (
    SYMBOLS_PER_SAMPLE,
    TWO_PI,
    Modulation,
    NoiseModel,
    Pairs,
    Receiver,
    Signals,
    modulate,
    snr_to_received_power,
    transmit_paired,
    wrap_phase,
)
from airmia.scenarios import (
    BLOCK_ROWS,
    CSV_HEADER,
    PILOT_BITS,
    S_TEST,
    S_TRAIN_C1,
    DataBundle,
    DriftModel,
    Epoch,
    MimicModel,
    Scenario,
    ScenarioConfig,
    ScenarioCounts,
    UserCounts,
    apply_scenario_constraints,
    config_from_document,
    config_to_document,
    dataset_tables,
    generate_scenario_data,
    read_pairs_csv,
    read_samples_csv,
    stream_noise,
    write_pairs_csv,
    write_samples_csv,
)
from conftest import small_config, stream_noise_oracle, traced_peak_mb


def features_set(samples):
    return {row.tobytes() for row in np.hstack([samples.phases, samples.powers])}


def user_rows(config):
    """Population table rows of the authorized, other BPSK and unauthorized users."""
    a, o, u = config.users.authorized, config.users.other_bpsk, config.users.unauthorized_qpsk
    return np.arange(a), np.arange(a, a + o), np.arange(a + o, a + o + u)


def combined_phase(population):
    """Device plus link phase per (user, receiver, epoch)."""
    return wrap_phase(population.device_phase[:, None, None] + population.link_phase)


PROVIDER, ADVERSARY = 0, 1  # the receiver axis of the population table


class TestConfigValidation:
    def test_default_counts_match_protocol(self):
        c = ScenarioCounts()
        assert (c.provider_train, c.surrogate_train, c.provider_test,
                c.member_eval, c.nonmember_eval) == (8000, 1000, 10000, 1000, 1000)

    @pytest.mark.parametrize("field,value", [
        ("provider_train", 0), ("provider_train", 241),
        ("surrogate_train", 3), ("nonmember_eval", 7), ("provider_test", -2),
        ("provider_train", 240.0), ("member_eval", True),
    ])
    def test_bad_counts_rejected(self, field, value):
        counts = {"provider_train": 240, "surrogate_train": 120,
                  "provider_test": 200, "member_eval": 60, "nonmember_eval": 60}
        counts[field] = value
        with pytest.raises(InvalidConfigError):
            ScenarioConfig(scenario=Scenario.FULL_STRONG, seed=0,
                           counts=ScenarioCounts(**counts))

    def test_member_eval_capped_by_class1_pool(self):
        with pytest.raises(InvalidConfigError):
            small_config(counts=ScenarioCounts(provider_train=100, surrogate_train=20,
                                               provider_test=20, member_eval=51,
                                               nonmember_eval=20))

    def test_negative_seed_rejected(self):
        # booleans and non-integral numbers are rejected too, also from a document
        for seed in (-1, True, 3.7):
            with pytest.raises(InvalidConfigError):
                small_config(seed=seed)
            doc = config_to_document(small_config())
            doc["seed"] = seed
            with pytest.raises(InvalidConfigError, match="seed"):
                config_from_document(doc)

    def test_empty_user_group_rejected(self):
        with pytest.raises(InvalidConfigError):
            small_config(users=UserCounts(authorized=0))

    @pytest.mark.parametrize("field,value", [
        ("authorized", 3.0), ("other_bpsk", True), ("unauthorized_qpsk", "3"),
    ])
    def test_non_integer_user_counts_rejected(self, field, value):
        with pytest.raises(InvalidConfigError, match=f"users.{field}"):
            small_config(users=UserCounts(**{field: value}))

    def test_same_power_with_weak_authorized_snr_contradicts(self):
        with pytest.raises(InvalidConfigError):
            small_config(scenario=Scenario.SAME_POWER, snr_authorized_db=3.0)

    def test_drift_bounds_validated(self):
        with pytest.raises(InvalidConfigError):
            small_config(drift=DriftModel(phase_bound_rad=-0.1))
        with pytest.raises(InvalidConfigError):
            small_config(drift=DriftModel(power_fraction=1.0))

    @pytest.mark.parametrize("key", [
        "snr_authorized_db", "snr_others_db", "provider_snr_spread_db",
        "adversary_snr_jitter_db", "noise.phase_bound_rad", "noise.power_bound",
        "noise.noise_floor", "drift.phase_bound_rad", "drift.power_fraction",
        "mimic.phase_err_rad",
    ])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), True, "12"])
    def test_non_finite_values_rejected(self, key, value):
        # through JSON text, as the CLI reads a config file
        doc = config_to_document(small_config())
        *group, name = key.split(".")
        (doc[group[0]] if group else doc)[name] = value
        with pytest.raises(InvalidConfigError, match=f"{key} must be a finite number"):
            config_from_document(json.loads(json.dumps(doc)))

    @pytest.mark.parametrize("value", ["nan", "Infinity", "-inf"])
    def test_non_finite_strings_rejected(self, value):
        doc = config_to_document(small_config())
        doc["snr_authorized_db"] = value
        with pytest.raises(InvalidConfigError, match="snr_authorized_db must be a finite"):
            config_from_document(doc)

    def test_overflowing_snr_is_a_config_error(self):
        # 1e308 dB is finite, but its received power overflows to infinity
        for field in ("snr_authorized_db", "snr_others_db"):
            with pytest.raises(InvalidConfigError, match=f"{field} .*received power"):
                small_config(**{field: 1e308})

    def test_non_finite_nested_value_names_its_field(self):
        with pytest.raises(InvalidConfigError, match="mimic.phase_err_rad"):
            small_config(mimic=MimicModel(phase_err_rad=float("inf")))
        with pytest.raises(InvalidConfigError, match="drift.phase_bound_rad"):
            small_config(drift=DriftModel(phase_bound_rad=float("nan")))


class TestScenarioConstraints:
    def test_same_power_pins_qpsk_received_power(self):
        config = small_config(scenario=Scenario.SAME_POWER)
        pop = apply_scenario_constraints(config)
        auth, others, unauth = user_rows(config)
        qpsk = np.concatenate([auth, unauth])
        for rx in (PROVIDER, ADVERSARY):
            for epoch in Epoch:
                powers = pop.power[qpsk, rx, epoch]
                assert max(powers) - min(powers) == 0.0
        # provider side sits exactly at the nominal scenario power
        nominal = snr_to_received_power(10.0, 1.0)
        assert pop.power[auth[0], PROVIDER, Epoch.TRAIN] == nominal
        # BPSK users stay unconstrained
        bpsk = pop.power[others, PROVIDER, Epoch.TRAIN]
        assert max(bpsk) - min(bpsk) > 0.0

    def test_same_phase_pins_combined_phase(self):
        config = small_config(scenario=Scenario.SAME_PHASE)
        pop = apply_scenario_constraints(config)
        auth, _, unauth = user_rows(config)
        combined = combined_phase(pop)
        for rx in (PROVIDER, ADVERSARY):
            for epoch in Epoch:
                phases = combined[np.concatenate([auth, unauth]), rx, epoch]
                assert max(phases) - min(phases) < 1e-12
        # powers still differ across users
        powers = pop.power[auth, PROVIDER, Epoch.TRAIN]
        assert max(powers) - min(powers) > 0.0

    def test_weak_authorized_snr_levels(self):
        config = small_config(scenario=Scenario.WEAK_AUTHORIZED)
        pop = apply_scenario_constraints(config)
        auth, others, _ = user_rows(config)
        weak_nominal = snr_to_received_power(3.0, 1.0)
        assert abs(weak_nominal - 1.9953) < 1e-4
        lo, hi = 10 ** ((3 - 2.25) / 10), 10 ** ((3 + 2.25) / 10)
        for power in pop.power[auth, PROVIDER, Epoch.TRAIN]:
            assert lo <= power <= hi
        for power in pop.power[others, PROVIDER, Epoch.TRAIN]:
            assert power > hi

    def test_full_strong_leaves_powers_distinct(self):
        config = small_config()
        pop = apply_scenario_constraints(config)
        auth, others, _ = user_rows(config)
        powers = sorted(pop.power[np.concatenate([auth, others]), PROVIDER, Epoch.TRAIN])
        assert all(b - a > 0.1 for a, b in zip(powers, powers[1:]))

    def test_drift_moves_test_epoch_links(self):
        config = small_config()
        pop = apply_scenario_constraints(config)
        for u in user_rows(config)[0]:
            for rx in (PROVIDER, ADVERSARY):
                assert pop.power[u, rx, Epoch.TRAIN] != pop.power[u, rx, Epoch.TEST]
                assert pop.link_phase[u, rx, Epoch.TRAIN] != pop.link_phase[u, rx, Epoch.TEST]

    def test_mimics_track_an_authorized_phase(self):
        config = small_config(mimic=MimicModel(phase_err_rad=0.05))
        combined = combined_phase(apply_scenario_constraints(config))[:, ADVERSARY, Epoch.TEST]
        auth, _, unauth = user_rows(config)
        for mimic in unauth:
            gaps = [abs(combined[mimic] - combined[u]) for u in auth]
            assert min(gaps) <= 0.05 + 1e-12


@pytest.fixture(scope="module")
def every_member_bundle():
    """small_config's bundle with member_eval = every class-1 training row, in order."""
    counts = small_config().counts
    return generate_scenario_data(small_config(
        counts=dataclasses.replace(counts, member_eval=counts.provider_train // 2)))


class TestGenerateScenarioData:
    def test_bundle_counts_and_composition(self, small_bundle):
        c = small_bundle.config.counts
        assert len(small_bundle.provider_train) == c.provider_train
        assert len(small_bundle.member_eval) == c.member_eval
        assert len(small_bundle.nonmember_eval) == c.nonmember_eval
        assert len(small_bundle.surrogate_pairs) == c.surrogate_train
        assert len(small_bundle.test_pairs) == c.provider_test
        assert small_bundle.provider_train.class_label.sum() == c.provider_train // 2

    def test_dataset_tables_follow_the_bundle_fields(self):
        tables = [f.name for f in dataclasses.fields(DataBundle) if f.name != "config"]
        assert list(dataset_tables(small_config())) == tables

    def test_every_table_has_its_declared_kind_and_length(self, small_bundle):
        kinds = {"samples": Signals, "pairs": Pairs}
        for name, (kind, length) in dataset_tables(small_bundle.config).items():
            table = getattr(small_bundle, name)
            assert type(table) is kinds[kind], name
            assert len(table) == length, name

    def test_class_one_exactly_on_authorized_rows(self, small_bundle):
        population = apply_scenario_constraints(small_bundle.config)
        authorized = user_rows(small_bundle.config)[0] + 1
        devices = set(range(1, len(population.device_phase) + 1))
        b = small_bundle
        for table in (b.provider_train, b.member_eval, b.nonmember_eval,
                      b.unauthorized_provider_views, b.surrogate_pairs.adversary,
                      b.test_pairs.provider):
            assert set(table.tx_id.tolist()) <= devices
            assert np.array_equal(table.class_label, np.isin(table.tx_id, authorized))

    def test_tables_carry_their_view_and_member_flag(self, small_bundle):
        b = small_bundle
        for table, view, member in (
                (b.provider_train, Receiver.PROVIDER, True),
                (b.member_eval, Receiver.ADVERSARY, True),
                (b.nonmember_eval, Receiver.ADVERSARY, False),
                (b.unauthorized_provider_views, Receiver.PROVIDER, False)):
            assert table.view is view and table.member is member
        for pairs in (b.surrogate_pairs, b.test_pairs):
            assert pairs.provider.view is Receiver.PROVIDER
            assert pairs.adversary.view is Receiver.ADVERSARY
            assert pairs.provider.member is pairs.adversary.member is False
            assert np.array_equal(pairs.provider.tx_id, pairs.adversary.tx_id)
            assert np.array_equal(pairs.provider.class_label, pairs.adversary.class_label)

    def test_nonmember_composition_half_and_half(self, small_bundle):
        c = small_bundle.config.counts
        labels = small_bundle.nonmember_eval.class_label
        assert labels.sum() == c.nonmember_eval // 2  # fresh authorized half
        assert small_bundle.nonmember_eval.view is Receiver.ADVERSARY
        assert not small_bundle.nonmember_eval.member
        unauth_ids = set((user_rows(small_bundle.config)[2] + 1).tolist())
        assert set(small_bundle.nonmember_eval.tx_id[labels == 0].tolist()) <= unauth_ids

    def test_member_eval_are_training_adversary_views(self, small_bundle, every_member_bundle):
        train_adv = features_set(every_member_bundle.member_eval)
        assert features_set(small_bundle.member_eval) <= train_adv
        assert small_bundle.member_eval.member
        assert small_bundle.member_eval.view is Receiver.ADVERSARY

    def test_member_and_nonmember_sets_disjoint(self, small_bundle):
        assert not (features_set(small_bundle.member_eval)
                    & features_set(small_bundle.nonmember_eval))

    def test_every_sample_has_32_features(self, small_bundle):
        for table in (small_bundle.provider_train, small_bundle.member_eval,
                      small_bundle.nonmember_eval, small_bundle.test_pairs.provider):
            assert np.hstack([table.phases, table.powers]).shape == (len(table), 32)

    def test_pilot_bit_patterns_cover_constellations(self):
        assert len(PILOT_BITS[Modulation.BPSK]) == 16
        assert len(PILOT_BITS[Modulation.QPSK]) == 32
        assert set(PILOT_BITS[Modulation.BPSK]) == {0, 1}

    def test_same_seed_bit_identical(self):
        a = generate_scenario_data(small_config(seed=5))
        b = generate_scenario_data(small_config(seed=5))
        assert np.array_equal(a.provider_train.phases, b.provider_train.phases)
        assert np.array_equal(a.provider_train.powers, b.provider_train.powers)
        assert np.array_equal(a.nonmember_eval.phases, b.nonmember_eval.phases)
        assert a.member_eval.phases.tobytes() == b.member_eval.phases.tobytes()
        assert a.member_eval.powers.tobytes() == b.member_eval.powers.tobytes()

    def test_largest_accepted_snr_generates_finite_powers(self):
        # 3079 dB is accepted: its largest draw, 3081.5 dB, has a finite received power
        bundle = generate_scenario_data(
            small_config(snr_authorized_db=3079.0, snr_others_db=3079.0))
        assert np.isfinite(bundle.provider_train.powers).all()
        assert np.isfinite(bundle.test_pairs.adversary.powers).all()
        with pytest.raises(InvalidConfigError, match="snr_authorized_db"):
            small_config(snr_authorized_db=3080.0)

    def test_different_seeds_differ(self):
        a = generate_scenario_data(small_config(seed=5))
        b = generate_scenario_data(small_config(seed=6))
        assert not np.array_equal(a.provider_train.phases[0], b.provider_train.phases[0])

    def test_peak_memory_at_the_shipped_defaults(self):
        config = ScenarioConfig(scenario=Scenario.FULL_STRONG, seed=3)
        peak = traced_peak_mb(lambda: generate_scenario_data(config))
        # the bundle itself is about 8.4 MB of it
        assert peak < 14, f"generation peaked {peak:.1f} MB above its start"

    def test_samples_reproducible_from_their_substream(self, every_member_bundle):
        # counter-based substreams: any sample can be regenerated standalone,
        # so generation order or parallelism cannot change the output
        b = every_member_bundle
        stored = Pairs(b.provider_train.take(slice(0, len(b.member_eval))), b.member_eval)
        authorized = b.config.users.authorized
        assert_pairs_regenerate(b.config, stored, S_TRAIN_C1, Epoch.TRAIN,
                                {index: index % authorized  # class 1 cycles the authorized rows
                                 for index in (0, 7, len(stored) - 1)})

    def test_samples_reproducible_across_generation_blocks(self):
        # 2 * BLOCK_ROWS + 8 rows: the test pairs span three generation
        # blocks (provider_test must be even, so not + 7)
        config = small_config(counts=ScenarioCounts(
            provider_train=240, surrogate_train=120, provider_test=2 * BLOCK_ROWS + 8,
            member_eval=60, nonmember_eval=60))
        stored = generate_scenario_data(config).test_pairs
        half, users = len(stored) // 2, config.users
        # the first half cycles the authorized rows, the second the other users'
        rows = {index: index % users.authorized if index < half
                else users.authorized + (index - half) % users.other_bpsk
                for index in (0, BLOCK_ROWS - 1, BLOCK_ROWS, 2 * BLOCK_ROWS - 1,
                              2 * BLOCK_ROWS, len(stored) - 1)}
        assert_pairs_regenerate(config, stored, S_TEST, Epoch.TEST, rows)


def assert_pairs_regenerate(config, stored, stream, epoch, rows):
    """Each stored pair at index i equals its transmission regenerated alone.

    rows maps each index to check to the population row it observes. The
    noise comes from the pair's own default_rng((seed, stream, i)).
    """
    population = apply_scenario_constraints(config)
    e_phi, e_p = config.noise.phase_bound_rad, config.noise.power_bound
    for index, row in rows.items():
        rng = np.random.default_rng((config.seed, stream, index))
        provider_phase = rng.uniform(-e_phi, e_phi, 16)
        provider_power = rng.uniform(-e_p, e_p, 16)
        adversary_phase = rng.uniform(-e_phi, e_phi, 16)
        adversary_power = rng.uniform(-e_p, e_p, 16)
        noise = np.array([[[provider_phase, provider_power],
                           [adversary_phase, adversary_power]]])
        modulation = Modulation.QPSK if row < config.users.authorized else Modulation.BPSK
        provider, adversary = transmit_paired(
            modulate(PILOT_BITS[modulation], modulation),
            population.device_phase[[row]], population.link_phase[[row], :, epoch],
            population.power[[row], :, epoch], noise)
        assert stored.provider.tx_id[index] == row + 1
        assert np.array_equal(provider[0][0], stored.provider.phases[index])
        assert np.array_equal(provider[1][0], stored.provider.powers[index])
        assert np.array_equal(adversary[0][0], stored.adversary.phases[index])
        assert np.array_equal(adversary[1][0], stored.adversary.powers[index])


class TestStreamNoise:
    """stream_noise draws every row at once; the per-row default_rng loop is the oracle."""

    @pytest.mark.parametrize("seed", [0, 7, 21, 2 ** 32 - 1, 2 ** 32, 2 ** 40 + 5,
                                      2 ** 64 + 3, 2 ** 130 + 7])
    @pytest.mark.parametrize("stream", [1, 6])
    @pytest.mark.parametrize("views", [1, 2])
    def test_equals_per_row_generators(self, seed, stream, views):
        noise = NoiseModel()
        assert stream_noise(noise, seed, stream, 40, views).tobytes() == \
            stream_noise_oracle(noise, seed, stream, 40, views).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 130), stream=st.integers(0, 2 ** 70),
           n=st.integers(0, 300), views=st.sampled_from([1, 2]),
           bounds=st.tuples(*[st.one_of(st.just(0.0), st.floats(0.0, 1e300))] * 2))
    def test_equals_per_row_generators_property(self, seed, stream, n, views, bounds):
        noise = NoiseModel(phase_bound_rad=bounds[0], power_bound=bounds[1])
        fast = stream_noise(noise, seed, stream, n, views)
        assert fast.shape == (n, views, 2, 16)
        assert fast.tobytes() == stream_noise_oracle(noise, seed, stream, n, views).tobytes()

    @pytest.mark.parametrize("start, n", [(1, 40), (BLOCK_ROWS - 5, 10), (BLOCK_ROWS, 7),
                                          (2 * BLOCK_ROWS - 3, BLOCK_ROWS + 6)])
    @pytest.mark.parametrize("views", [1, 2])
    def test_row_offset_equals_rows_of_a_whole_call(self, start, n, views):
        noise = NoiseModel()
        rows = stream_noise(noise, 21, S_TEST, n, views, start)
        whole = stream_noise(noise, 21, S_TEST, start + n, views)
        assert rows.tobytes() == whole[start:].tobytes()
        oracle = stream_noise_oracle(noise, 21, S_TEST, start + n, views)
        assert rows.tobytes() == oracle[start:].tobytes()

    def test_largest_accepted_bound_draws_like_uniform(self):
        largest = np.finfo(float).max / 2  # its range, 2 * bound, is the largest float
        noise = NoiseModel(phase_bound_rad=largest, power_bound=largest)
        for views in (1, 2):
            fast = stream_noise(noise, 3, 1, 20, views)
            assert np.isfinite(fast).all()
            assert fast.tobytes() == stream_noise_oracle(noise, 3, 1, 20, views).tobytes()


class TestCsvRoundTrip:
    def test_samples_round_trip_value_exact(self, small_bundle, tmp_path):
        path = tmp_path / "samples.csv"
        orig = small_bundle.member_eval
        write_samples_csv(orig, path)
        back = read_samples_csv(path)
        first = path.read_bytes()
        write_samples_csv(back, path)
        assert path.read_bytes() == first
        assert np.array_equal(orig.phases, back.phases)  # full precision
        assert np.array_equal(orig.powers, back.powers)
        assert np.array_equal(orig.tx_id, back.tx_id)
        assert np.array_equal(orig.class_label, back.class_label)
        assert (orig.member, orig.view) == (back.member, back.view)

    def test_pairs_round_trip(self, small_bundle, tmp_path):
        path = tmp_path / "pairs.csv"
        orig = small_bundle.surrogate_pairs
        write_pairs_csv(orig, path)
        back = read_pairs_csv(path)
        assert len(back) == len(orig)
        assert back.provider.view is Receiver.PROVIDER
        assert back.adversary.view is Receiver.ADVERSARY
        assert np.array_equal(orig.provider.tx_id, back.provider.tx_id)
        assert np.array_equal(orig.adversary.powers, back.adversary.powers)

    def test_pairs_export_streams_row_blocks(self, tmp_path):
        rng = np.random.default_rng(5)
        n = 10_000
        tx_id, class_label = rng.integers(1, 10, size=n), rng.integers(0, 2, size=n)

        def table(view):
            return Signals(phases=rng.uniform(0, 6, size=(n, SYMBOLS_PER_SAMPLE)),
                           powers=rng.uniform(0, 20, size=(n, SYMBOLS_PER_SAMPLE)),
                           tx_id=tx_id, class_label=class_label, view=view)

        pairs = Pairs(table(Receiver.PROVIDER), table(Receiver.ADVERSARY))
        path = tmp_path / "pairs.csv"
        peak = traced_peak_mb(lambda: write_pairs_csv(pairs, path))
        assert peak < 6, f"export peaked {peak:.1f} MB above its start"
        back = read_pairs_csv(path)  # sample_id counts on across block boundaries
        assert_same_table(pairs.provider, back.provider)
        assert_same_table(pairs.adversary, back.adversary)

    def test_malformed_csv_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("not,a,dataset\n1,2,3\n")
        with pytest.raises(ArtifactError, match="bad.csv"):
            read_samples_csv(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ArtifactError, match="absent.csv"):
            read_samples_csv(tmp_path / "absent.csv")

    def test_header_without_rows_rejected(self, small_bundle, tmp_path):
        path = tmp_path / "empty.csv"
        write_samples_csv(small_bundle.member_eval, path)
        path.write_text(path.read_text().splitlines(keepends=True)[0])
        for read in (read_samples_csv, read_pairs_csv):
            with pytest.raises(ArtifactError, match="empty.csv"):
                read(path)

    def test_header_only_raises_without_warning(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text(",".join(CSV_HEADER) + "\r\n\r\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for read in (read_samples_csv, read_pairs_csv):
                with pytest.raises(ArtifactError, match="header.csv: dataset has no rows"):
                    read(path)

    # the header and the first data row, both in the chunk the header check
    # decodes; then the last row, which np.loadtxt decodes as a malformed row
    @pytest.mark.parametrize("line", [0, 1, -1])
    @pytest.mark.parametrize("byte", [b"\xff", b"\xc3"])
    def test_undecodable_byte_names_the_file(self, small_bundle, tmp_path, line, byte):
        path = tmp_path / "bytes.csv"
        write_pairs_csv(small_bundle.surrogate_pairs, path)
        lines = path.read_bytes().splitlines(keepends=True)
        lines[line] = byte + lines[line]
        path.write_bytes(b"".join(lines))
        for read in (read_samples_csv, read_pairs_csv):
            with pytest.raises(ArtifactError, match="bytes.csv.*can't decode byte"):
                read(path)

    def test_unknown_view_rejected(self, small_bundle, tmp_path):
        path = tmp_path / "view.csv"
        write_samples_csv(small_bundle.member_eval, path)
        path.write_text(path.read_text().replace(",adversary,", ",eavesdropper,", 1))
        with pytest.raises(ArtifactError, match="view.csv: malformed row .*eavesdropper"):
            read_samples_csv(path)

    # line 1 is the first data row, where numpy words a field-count error
    # differently from a later row such as line 3
    @pytest.mark.parametrize("line", [1, 3])
    @pytest.mark.parametrize("edit,message", [
        (lambda fields: fields[:-1], "malformed row, not 37 fields"),  # a field short
        (lambda fields: fields + ["0.5"], "malformed row, not 37 fields"),  # a field too many
        (lambda fields: fields[:1] + ["1.5"] + fields[2:], "malformed row"),  # a float tx_id
        (lambda fields: fields[:5] + ["x"] + fields[6:], "malformed row"),  # a phase
    ])
    def test_malformed_row_rejected(self, small_bundle, tmp_path, edit, message, line):
        path = tmp_path / "row.csv"
        write_samples_csv(small_bundle.member_eval, path)
        lines = path.read_text().splitlines(keepends=True)
        lines[line] = ",".join(edit(lines[line].rstrip("\r\n").split(","))) + "\r\n"
        path.write_text("".join(lines))
        with pytest.raises(ArtifactError, match=f"row.csv: {message}"):
            read_samples_csv(path)

    def test_integer_parsed_via_float_is_malformed_row(self, small_bundle, tmp_path,
                                                       monkeypatch):
        # numpy 1.23-1.26 read "1.5" in an integer field as 1 and only warn
        path = tmp_path / "row.csv"
        write_samples_csv(small_bundle.member_eval, path)
        loadtxt = np.loadtxt

        def truncating_loadtxt(*args, **kwargs):
            warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                          DeprecationWarning)
            return loadtxt(*args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", truncating_loadtxt)
        with pytest.raises(ArtifactError, match="row.csv: malformed row .*via a float"):
            read_samples_csv(path)

    @pytest.mark.parametrize("column,value", [(3, "0"), (4, "provider")])
    def test_mixed_member_flags_or_views_rejected(self, small_bundle, tmp_path,
                                                  column, value):
        path = tmp_path / "mixed.csv"
        write_samples_csv(small_bundle.member_eval, path)
        lines = path.read_text().splitlines(keepends=True)
        fields = lines[2].split(",")
        fields[column] = value
        lines[2] = ",".join(fields)
        path.write_text("".join(lines))
        with pytest.raises(ArtifactError, match="mixed.csv"):
            read_samples_csv(path)

    @pytest.mark.parametrize("rows,column,value", [
        (slice(1, None), 3, "2"),  # a member flag that is not 0/1
        (slice(5, 6), 0, "7"),  # a sample_id out of sequence
    ])
    def test_member_flags_and_sample_ids_validated(self, small_bundle, tmp_path,
                                                   rows, column, value):
        path = tmp_path / "flags.csv"
        write_samples_csv(small_bundle.member_eval, path)
        lines = path.read_text().splitlines(keepends=True)
        for k in range(len(lines))[rows]:
            fields = lines[k].split(",")
            fields[column] = value
            lines[k] = ",".join(fields)
        path.write_text("".join(lines))
        with pytest.raises(ArtifactError, match="flags.csv"):
            read_samples_csv(path)

    def test_odd_row_count_pairs_rejected(self, small_bundle, tmp_path):
        path = tmp_path / "odd.csv"
        write_pairs_csv(small_bundle.surrogate_pairs, path)
        path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))
        with pytest.raises(ArtifactError, match="odd.csv"):
            read_pairs_csv(path)

    def test_pairs_in_wrong_order_rejected(self, small_bundle, tmp_path):
        path = tmp_path / "swapped.csv"
        write_pairs_csv(small_bundle.surrogate_pairs, path)
        lines = path.read_text().splitlines(keepends=True)
        lines[1], lines[2] = lines[2], lines[1]
        path.write_text("".join(lines))
        with pytest.raises(ArtifactError, match="swapped.csv"):
            read_pairs_csv(path)


@st.composite
def signal_tables(draw, n=None, tx_id=None, class_label=None, view=None):
    """Random Signals: phases in [0, 2pi), non-negative finite powers, 0/1 labels."""
    n = draw(st.integers(1, 12)) if n is None else n
    phase = st.floats(0.0, TWO_PI, exclude_max=True)
    power = st.floats(min_value=0.0, allow_infinity=False)
    return Signals(
        phases=draw(arrays(float, (n, 16), elements=phase)),
        powers=draw(arrays(float, (n, 16), elements=power)),
        tx_id=draw(arrays(int, n, elements=st.integers(0, 2 ** 31))) if tx_id is None
        else tx_id,
        class_label=draw(arrays(int, n, elements=st.integers(0, 1))) if class_label is None
        else class_label,
        view=draw(st.sampled_from(Receiver)) if view is None else view,
        member=draw(st.booleans()))


@st.composite
def pair_tables(draw):
    provider = draw(signal_tables(view=Receiver.PROVIDER))
    adversary = draw(signal_tables(n=len(provider), tx_id=provider.tx_id,
                                   class_label=provider.class_label, view=Receiver.ADVERSARY))
    return Pairs(provider=provider, adversary=adversary)


def assert_same_table(a: Signals, b: Signals):
    for column in ("phases", "powers", "tx_id", "class_label"):
        assert np.array_equal(getattr(a, column), getattr(b, column)), column
    assert (a.view, a.member) == (b.view, b.member)


class TestCsvProperties:
    @settings(max_examples=60, deadline=None)
    @given(signal_tables())
    def test_samples_round_trip_exactly(self, table):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "samples.csv"
            write_samples_csv(table, path)
            first = path.read_bytes()
            back = read_samples_csv(path)
            assert_same_table(table, back)
            write_samples_csv(back, path)
            assert path.read_bytes() == first

    @settings(max_examples=60, deadline=None)
    @given(pair_tables())
    def test_pairs_round_trip_exactly(self, pairs):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "pairs.csv"
            write_pairs_csv(pairs, path)
            first = path.read_bytes()
            back = read_pairs_csv(path)
            assert_same_table(pairs.provider, back.provider)
            assert_same_table(pairs.adversary, back.adversary)
            write_pairs_csv(back, path)
            assert path.read_bytes() == first


@st.composite
def scenario_configs(draw):
    """Random valid ScenarioConfigs: even split counts, finite non-negative bounds."""
    def even():
        return st.integers(1, 5000).map(lambda k: 2 * k)

    def real(lo=None, hi=None, **kw):
        return st.floats(lo, hi, allow_nan=False, allow_infinity=False, **kw)

    provider_train = draw(even())
    counts = ScenarioCounts(
        provider_train=provider_train, surrogate_train=draw(even()),
        provider_test=draw(even()), member_eval=draw(st.integers(1, provider_train // 2)),
        nonmember_eval=draw(even()))
    users = UserCounts(*(draw(st.integers(1, 20)) for _ in range(3)))
    # The floor and SNR bounds keep the largest received power finite (< 1e307);
    # a noise bound above max / 2 has an infinite range and is rejected.
    largest_bound = np.finfo(float).max / 2
    noise = NoiseModel(phase_bound_rad=draw(real(0.0, largest_bound)),
                       power_bound=draw(real(0.0, largest_bound)),
                       noise_floor=draw(real(0.0, 1e6, exclude_min=True)))
    scenario = draw(st.sampled_from(Scenario))
    snr_others = draw(real(None, 1e3))
    snr_auth = snr_others if scenario is Scenario.SAME_POWER else draw(real(None, 1e3))
    return ScenarioConfig(
        scenario=scenario, seed=draw(st.integers(0, 2 ** 63)), counts=counts, users=users,
        noise=noise, snr_authorized_db=snr_auth, snr_others_db=snr_others,
        provider_snr_spread_db=draw(real(0.0, 1e3)),
        adversary_snr_jitter_db=draw(real(0.0, 1e3)),
        drift=DriftModel(draw(real(0.0)), draw(real(0.0, 1.0, exclude_max=True))),
        mimic=MimicModel(draw(real(0.0))))


class TestConfigDocuments:
    def test_round_trip(self):
        config = small_config(scenario=Scenario.WEAK_AUTHORIZED, seed=3)
        assert config_from_document(config_to_document(config)) == config

    @settings(max_examples=200, deadline=None)
    @given(scenario_configs())
    def test_round_trip_property(self, config):
        doc = config_to_document(config)
        assert config_from_document(doc) == config
        assert config_from_document(json.loads(json.dumps(doc))) == config

    def test_unknown_top_level_key_rejected(self):
        doc = config_to_document(small_config())
        doc["surprise"] = 1
        with pytest.raises(InvalidConfigError, match="surprise"):
            config_from_document(doc)

    def test_unknown_nested_key_rejected(self):
        doc = config_to_document(small_config())
        doc["counts"]["extra"] = 2
        with pytest.raises(InvalidConfigError, match="extra"):
            config_from_document(doc)

    def test_unknown_scenario_rejected(self):
        doc = config_to_document(small_config())
        doc["scenario"] = "bogus"
        with pytest.raises(InvalidConfigError):
            config_from_document(doc)

    def test_shipped_default_config_parses(self):
        with open("configs/default.json", "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        doc.pop("out_dir")
        doc.pop("seeds")
        config = config_from_document(doc)
        assert config.counts.provider_train == 8000
