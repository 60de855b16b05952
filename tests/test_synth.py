import json
from dataclasses import replace

import numpy as np
import pytest

from csibio.errors import InvalidSpec
from csibio.model import Hand
from csibio.synth import (
    ATTACKER_ID,
    AttackKind,
    AttackSpec,
    ChannelSpec,
    PathComponent,
    ScenarioSpec,
    bundled_scenario,
    generate_dataset,
    model_response,
    scenario_from_dict,
    scenario_to_dict,
    split_attack,
    synthesize_matrix,
)
from conftest import extract_window


def _freqs(k):
    return 5.18e9 + 312_500.0 * np.arange(k)


def _clean_spec(paths, **kw):
    return ChannelSpec(paths=tuple(PathComponent(*p) for p in paths), **kw)


class TestSynthesizeMatrix:
    def test_flat_channel_identity(self):
        spec = _clean_spec([(1.0, 0.0, 0.0)])
        m = synthesize_matrix(spec, 8, 5, _freqs(8))
        assert np.allclose(m.values, 1.0 + 0.0j, atol=0, rtol=0)

    def test_single_path_closed_form(self):
        # One path with gain 2 and 50 ns delay: H(f) = 2 exp(-j 2 pi f tau).
        tau = 50e-9
        spec = _clean_spec([(2.0, 0.0, tau)])
        freqs = _freqs(16)
        m = synthesize_matrix(spec, 16, 4, freqs)
        expected = 2.0 * np.exp(-1j * 2.0 * np.pi * freqs * tau)
        assert np.max(np.abs(m.values - expected[:, None])) < 1e-9

    def test_destructive_interference_null(self):
        # Two equal paths, phase difference pi at every subcarrier (tau = 0).
        spec = _clean_spec([(1.0, 0.0, 0.0), (1.0, np.pi, 0.0)])
        m = synthesize_matrix(spec, 4, 3, _freqs(4))
        assert np.max(np.abs(m.values)) < 1e-12

    def test_noiseless_amplitude_matches_model(self):
        spec = _clean_spec([(1.0, 0.3, 20e-9), (0.5, 1.0, 60e-9)],
                           cfo_offset=0.4, sfo_slope=0.01)
        freqs = _freqs(32)
        m = synthesize_matrix(spec, 32, 6, freqs)
        assert np.allclose(np.abs(m.values),
                           np.abs(model_response(spec, freqs))[:, None])

    def test_artifacts_shift_phase_only(self):
        base = _clean_spec([(1.0, 0.0, 30e-9)])
        with_artifacts = _clean_spec([(1.0, 0.0, 30e-9)], cfo_offset=0.7, sfo_slope=0.02)
        freqs = _freqs(8)
        m0 = synthesize_matrix(base, 8, 3, freqs)
        m1 = synthesize_matrix(with_artifacts, 8, 3, freqs)
        k = np.arange(8)
        expected = 0.7 + 0.02 * k
        delta = np.angle(m1.values / m0.values)[:, 0]
        assert np.allclose(delta, expected, atol=1e-12)

    def test_seed_determinism(self):
        spec = _clean_spec([(1.0, 0.0, 10e-9)], noise_sigma=0.2,
                           temporal_jitter_sigma=0.05, seed=7)
        a = synthesize_matrix(spec, 8, 10, _freqs(8))
        b = synthesize_matrix(spec, 8, 10, _freqs(8))
        assert np.array_equal(a.values, b.values)

    def test_invalid_specs(self):
        with pytest.raises(InvalidSpec):
            _clean_spec([])
        with pytest.raises(InvalidSpec):
            _clean_spec([(0.0, 0.0, 0.0)])
        with pytest.raises(InvalidSpec):
            _clean_spec([(1.0, 0.0, -1e-9)])
        with pytest.raises(InvalidSpec):
            synthesize_matrix(_clean_spec([(1.0, 0.0, 0.0)]), 1, 5, _freqs(1))


def _two_subject_scenario(noise=0.0, attack=None, **kw):
    a = _clean_spec([(1.0, 0.0, 10e-9)], noise_sigma=noise)
    b = _clean_spec([(1.5, 0.5, 40e-9)], noise_sigma=noise)
    return ScenarioSpec(
        subjects=(("a", a), ("b", b)),
        samples_per_subject=kw.pop("samples_per_subject", 1),
        n_samples=kw.pop("n_samples", 12),
        n_subcarriers=kw.pop("n_subcarriers", 8),
        attack=attack,
        seed=kw.pop("seed", 3),
        **kw,
    )


class TestGenerateDataset:
    def test_record_count(self):
        d = generate_dataset(_two_subject_scenario())
        assert len(d) == 2

    def test_determinism_bit_identical(self):
        s = _two_subject_scenario(noise=0.3, samples_per_subject=3)
        assert generate_dataset(s).digest() == generate_dataset(s).digest()

    def test_requires_two_subjects(self):
        chan = _clean_spec([(1.0, 0.0, 0.0)])
        with pytest.raises(InvalidSpec, match="at least two subjects"):
            ScenarioSpec(subjects=(("solo", chan),), n_samples=8, n_subcarriers=8)

    def test_zero_noise_replay_is_exact_copy(self):
        s = _two_subject_scenario(attack=AttackSpec(AttackKind.REPLAY, 0.0))
        d = generate_dataset(s)
        genuine, attack = split_attack(d)
        victim = [m for m, lab in genuine if lab.subject_id == "a"][0]
        assert len(attack) == 1
        assert np.array_equal(attack.records[0][0].values, victim.values)

    def test_zero_perturbation_mimicry_keeps_model(self):
        s = _two_subject_scenario(attack=AttackSpec(AttackKind.MIMICRY, 0.0))
        d = generate_dataset(s)
        _, attack = split_attack(d)
        victim_model = model_response(s.subjects[0][1], s.freqs())
        assert np.allclose(attack.records[0][0].values,
                           victim_model[:, None])

    def test_drift_applies_gain_slope(self):
        s = _two_subject_scenario(attack=AttackSpec(AttackKind.DRIFT, 0.01))
        _, attack = split_attack(generate_dataset(s))
        m = attack.records[0][0]
        base = model_response(s.subjects[0][1], s.freqs())
        ratio = np.abs(m.values[0]) / np.abs(base[0])
        assert np.allclose(ratio, 1.0 + 0.01 * np.arange(s.n_samples))

    def test_attack_labels_reserved(self):
        s = _two_subject_scenario(attack=AttackSpec(AttackKind.REPLAY, 0.0))
        _, attack = split_attack(generate_dataset(s))
        assert all(lab.subject_id == ATTACKER_ID for _, lab in attack)


class TestStaticChannelProperty:
    def test_temporal_features_exactly_zero(self):
        # No noise, no jitter: every column identical, so every
        # time-variability descriptor must be exactly 0.
        spec = _clean_spec([(1.0, 0.2, 25e-9), (0.7, 1.1, 70e-9)])
        m = synthesize_matrix(spec, 12, 9, _freqs(12))
        vec = extract_window(m)
        for name in (
            "temporal_variability_mean", "temporal_variability_std",
            "temporal_variability_cv", "stability_mean_cv", "stability_std_cv",
            "dphi_std_mean", "dphi_std_std", "phase_std_mean", "phase_std_std",
        ):
            assert vec[name] == 0.0, name


class TestScenarioSerialization:
    def test_round_trip(self):
        s = bundled_scenario(n_subjects=3, samples_per_subject=2,
                             n_samples=50, n_subcarriers=16)
        again = scenario_from_dict(scenario_to_dict(s))
        assert generate_dataset(again).digest() == generate_dataset(s).digest()

    @pytest.mark.parametrize("attack", [None, AttackSpec(AttackKind.DRIFT, 0.002)])
    def test_json_round_trip_is_exact(self, attack):
        s = replace(bundled_scenario(n_subjects=3, attack=attack), hand=Hand.LEFT)
        assert scenario_from_dict(json.loads(json.dumps(scenario_to_dict(s)))) == s

    def test_malformed_config_rejected(self):
        with pytest.raises(InvalidSpec):
            scenario_from_dict({"subjects": "nope"})
