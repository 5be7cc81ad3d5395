import json

import numpy as np
import pytest

from airmia.errors import ArtifactError, InvalidConfigError
from airmia.rfsim import Modulation, Receiver, snr_to_received_power
from airmia.scenarios import (
    PILOT_BITS,
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
    generate_scenario_data,
    read_pairs_csv,
    read_samples_csv,
    write_pairs_csv,
    write_samples_csv,
)
from conftest import small_config


def features_set(samples):
    return {s.features().tobytes() for s in samples}


class TestConfigValidation:
    def test_default_counts_match_protocol(self):
        c = ScenarioCounts()
        assert (c.provider_train, c.surrogate_train, c.provider_test,
                c.member_eval, c.nonmember_eval) == (8000, 1000, 10000, 1000, 1000)

    @pytest.mark.parametrize("field,value", [
        ("provider_train", 0), ("provider_train", 241),
        ("surrogate_train", 3), ("nonmember_eval", 7), ("provider_test", -2),
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

    def test_same_power_with_weak_authorized_snr_contradicts(self):
        with pytest.raises(InvalidConfigError):
            small_config(scenario=Scenario.SAME_POWER, snr_authorized_db=3.0)

    def test_drift_bounds_validated(self):
        with pytest.raises(InvalidConfigError):
            small_config(drift=DriftModel(phase_bound_rad=-0.1))
        with pytest.raises(InvalidConfigError):
            small_config(drift=DriftModel(power_fraction=1.0))


class TestScenarioConstraints:
    def test_same_power_pins_qpsk_received_power(self):
        config = small_config(scenario=Scenario.SAME_POWER)
        pop = apply_scenario_constraints(config)
        for rx in Receiver:
            for epoch in Epoch:
                powers = [u.received_power(rx, epoch) for u in pop.qpsk_users]
                assert max(powers) - min(powers) == 0.0
        # provider side sits exactly at the nominal scenario power
        nominal = snr_to_received_power(10.0, 1.0)
        assert pop.authorized[0].received_power(Receiver.PROVIDER, Epoch.TRAIN) == nominal
        # BPSK users stay unconstrained
        bpsk = [u.received_power(Receiver.PROVIDER, Epoch.TRAIN) for u in pop.other_bpsk]
        assert max(bpsk) - min(bpsk) > 0.0

    def test_same_phase_pins_combined_phase(self):
        config = small_config(scenario=Scenario.SAME_PHASE)
        pop = apply_scenario_constraints(config)
        for rx in Receiver:
            for epoch in Epoch:
                phases = [u.combined_phase(rx, epoch) for u in pop.qpsk_users]
                assert max(phases) - min(phases) < 1e-12
        # powers still differ across users
        powers = [u.received_power(Receiver.PROVIDER, Epoch.TRAIN) for u in pop.authorized]
        assert max(powers) - min(powers) > 0.0

    def test_weak_authorized_snr_levels(self):
        config = small_config(scenario=Scenario.WEAK_AUTHORIZED)
        pop = apply_scenario_constraints(config)
        weak_nominal = snr_to_received_power(3.0, 1.0)
        assert abs(weak_nominal - 1.9953) < 1e-4
        lo, hi = 10 ** ((3 - 2.25) / 10), 10 ** ((3 + 2.25) / 10)
        for u in pop.authorized:
            assert lo <= u.received_power(Receiver.PROVIDER, Epoch.TRAIN) <= hi
        for u in pop.other_bpsk:
            assert u.received_power(Receiver.PROVIDER, Epoch.TRAIN) > hi

    def test_full_strong_leaves_powers_distinct(self):
        pop = apply_scenario_constraints(small_config())
        powers = sorted(u.received_power(Receiver.PROVIDER, Epoch.TRAIN)
                        for u in pop.authorized + pop.other_bpsk)
        assert all(b - a > 0.1 for a, b in zip(powers, powers[1:]))

    def test_drift_moves_test_epoch_links(self):
        pop = apply_scenario_constraints(small_config())
        for u in pop.authorized:
            for rx in Receiver:
                assert u.link(rx, Epoch.TRAIN).gain != u.link(rx, Epoch.TEST).gain
                assert u.link(rx, Epoch.TRAIN).phase_offset_rad != \
                    u.link(rx, Epoch.TEST).phase_offset_rad

    def test_mimics_track_an_authorized_phase(self):
        config = small_config(mimic=MimicModel(phase_err_rad=0.05))
        pop = apply_scenario_constraints(config)
        for mimic in pop.unauthorized_qpsk:
            phase = mimic.combined_phase(Receiver.ADVERSARY, Epoch.TEST)
            gaps = [abs(phase - u.combined_phase(Receiver.ADVERSARY, Epoch.TEST))
                    for u in pop.authorized]
            assert min(gaps) <= 0.05 + 1e-12


class TestGenerateScenarioData:
    def test_bundle_counts_and_composition(self, small_bundle):
        c = small_bundle.config.counts
        assert len(small_bundle.provider_train) == c.provider_train
        assert len(small_bundle.train_pairs_class1) == c.provider_train // 2
        assert len(small_bundle.member_eval) == c.member_eval
        assert len(small_bundle.nonmember_eval) == c.nonmember_eval
        assert len(small_bundle.surrogate_pairs) == c.surrogate_train
        assert len(small_bundle.test_pairs) == c.provider_test
        assert sum(s.class_label for s in small_bundle.provider_train) == c.provider_train // 2

    def test_nonmember_composition_half_and_half(self, small_bundle):
        c = small_bundle.config.counts
        labels = [s.class_label for s in small_bundle.nonmember_eval]
        assert sum(labels) == c.nonmember_eval // 2  # fresh authorized half
        assert all(s.view is Receiver.ADVERSARY for s in small_bundle.nonmember_eval)
        assert all(not s.member for s in small_bundle.nonmember_eval)
        population = apply_scenario_constraints(small_bundle.config)
        unauth_ids = {u.device.id for u in population.unauthorized_qpsk}
        assert {s.tx_id for s in small_bundle.nonmember_eval if s.class_label == 0} \
            <= unauth_ids

    def test_member_eval_are_training_adversary_views(self, small_bundle):
        train_adv = features_set(p.adversary_view for p in small_bundle.train_pairs_class1)
        assert features_set(small_bundle.member_eval) <= train_adv
        assert all(s.member and s.view is Receiver.ADVERSARY
                   for s in small_bundle.member_eval)

    def test_member_and_nonmember_sets_disjoint(self, small_bundle):
        assert not (features_set(small_bundle.member_eval)
                    & features_set(small_bundle.nonmember_eval))

    def test_every_sample_has_32_features(self, small_bundle):
        pools = (small_bundle.provider_train + small_bundle.member_eval
                 + small_bundle.nonmember_eval + small_bundle.provider_test)
        assert all(s.features().shape == (32,) for s in pools)

    def test_pilot_bit_patterns_cover_constellations(self):
        assert len(PILOT_BITS[Modulation.BPSK]) == 16
        assert len(PILOT_BITS[Modulation.QPSK]) == 32
        assert set(PILOT_BITS[Modulation.BPSK]) == {0, 1}

    def test_same_seed_bit_identical(self):
        a = generate_scenario_data(small_config(seed=5))
        b = generate_scenario_data(small_config(seed=5))
        for sa, sb in zip(a.provider_train, b.provider_train):
            assert np.array_equal(sa.phases, sb.phases)
            assert np.array_equal(sa.powers, sb.powers)
        for sa, sb in zip(a.nonmember_eval, b.nonmember_eval):
            assert np.array_equal(sa.phases, sb.phases)
        assert [s.features().tobytes() for s in a.member_eval] == \
            [s.features().tobytes() for s in b.member_eval]

    def test_different_seeds_differ(self):
        a = generate_scenario_data(small_config(seed=5))
        b = generate_scenario_data(small_config(seed=6))
        assert not np.array_equal(a.provider_train[0].phases, b.provider_train[0].phases)

    def test_samples_reproducible_from_their_substream(self, small_bundle):
        # counter-based substreams: any sample can be regenerated standalone,
        # so generation order or parallelism cannot change the output
        from airmia.scenarios import Epoch, S_TRAIN_C1, _paired_sample, _sample_rng

        config = small_bundle.config
        auth = apply_scenario_constraints(config).authorized
        for index in (0, 7, len(small_bundle.train_pairs_class1) - 1):
            rng = _sample_rng(config.seed, S_TRAIN_C1, index)
            standalone = _paired_sample(auth[index % len(auth)], Epoch.TRAIN,
                                        config.noise, rng)
            stored = small_bundle.train_pairs_class1[index]
            assert np.array_equal(standalone.provider_view.phases,
                                  stored.provider_view.phases)
            assert np.array_equal(standalone.adversary_view.powers,
                                  stored.adversary_view.powers)


class TestCsvRoundTrip:
    def test_samples_round_trip_value_exact(self, small_bundle, tmp_path):
        path = tmp_path / "samples.csv"
        write_samples_csv(small_bundle.member_eval, path)
        loaded = read_samples_csv(path)
        first = path.read_bytes()
        write_samples_csv(loaded, path)
        assert path.read_bytes() == first  # exact at printed precision
        for orig, back in zip(small_bundle.member_eval, loaded):
            assert np.abs(orig.phases - back.phases).max() < 5e-10  # 9 decimals
            assert np.array_equal(orig.powers, back.powers)  # full precision
            assert (orig.tx_id, orig.class_label, orig.member, orig.view) == \
                (back.tx_id, back.class_label, back.member, back.view)

    def test_pairs_round_trip(self, small_bundle, tmp_path):
        path = tmp_path / "pairs.csv"
        write_pairs_csv(small_bundle.surrogate_pairs, path)
        loaded = read_pairs_csv(path)
        assert len(loaded) == len(small_bundle.surrogate_pairs)
        for orig, back in zip(small_bundle.surrogate_pairs, loaded):
            assert back.provider_view.view is Receiver.PROVIDER
            assert orig.provider_view.tx_id == back.provider_view.tx_id
            assert np.array_equal(orig.adversary_view.powers, back.adversary_view.powers)

    def test_malformed_csv_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("not,a,dataset\n1,2,3\n")
        with pytest.raises(ArtifactError, match="bad.csv"):
            read_samples_csv(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ArtifactError, match="absent.csv"):
            read_samples_csv(tmp_path / "absent.csv")


class TestConfigDocuments:
    def test_round_trip(self):
        config = small_config(scenario=Scenario.WEAK_AUTHORIZED, seed=3)
        assert config_from_document(config_to_document(config)) == config

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
