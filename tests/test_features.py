import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from csibio.errors import FeatureGroupError, ZeroEnergyWindow, ZeroSpectrum
from csibio.features import (
    extract_all,
    amplitude_features,
    correlation_features,
    curvature_features,
    empirical_energy_features,
    energy_features,
    feature_names,
    phase_features,
    roughness_features,
    spectral_features,
    stability_features,
    temporal_features,
)
from csibio.model import CsiMatrix
from conftest import extract_window, random_matrix, run_group
from oracles import reference_features


def _matrix(values, freqs=None):
    values = np.asarray(values, dtype=complex)
    if freqs is None:
        freqs = 5.18e9 + 312_500.0 * np.arange(values.shape[0])
    return CsiMatrix(values=values, freqs=freqs)


def _matrix_from_amps(amps):
    return _matrix(np.asarray(amps, dtype=float).astype(complex))


class TestAmplitude:
    def test_constant_matrix(self):
        vals, flags = run_group(amplitude_features, _matrix_from_amps(np.full((4, 5), 2.5)))
        assert vals["amp_mean"] == 2.5
        assert vals["amp_mean_std"] == 0.0
        assert vals["amp_var_mean"] == 0.0
        assert vals["amp_skew_mean"] == 0.0
        assert vals["amp_kurt_mean"] == 0.0
        assert "amplitude:degenerate_moment" in flags

    def test_hand_computed_two_subcarriers(self):
        # Rows {1,1,1} and {1,3,5}: means 1 and 3, T-1 variances 0 and 4.
        vals, _ = run_group(amplitude_features, _matrix_from_amps([[1, 1, 1], [1, 3, 5]]))
        assert vals["amp_mean"] == pytest.approx(2.0, abs=1e-15)
        assert vals["amp_var_mean"] == pytest.approx(2.0, abs=1e-15)

    def test_scale_covariance(self, rng):
        m = random_matrix(rng, 6, 9)
        scaled = m.with_values(m.values * 3.0)
        base, _ = run_group(amplitude_features, m)
        big, _ = run_group(amplitude_features, scaled)
        assert big["amp_mean"] == pytest.approx(3.0 * base["amp_mean"], rel=1e-12)
        assert big["amp_skew_mean"] == pytest.approx(base["amp_skew_mean"], rel=1e-9)


class TestPhase:
    def test_all_zero_phases(self):
        vals, _ = run_group(phase_features, _matrix_from_amps(np.ones((4, 5))))
        assert all(v == 0.0 for v in vals.values())

    def test_static_linear_phase(self):
        k = np.arange(6)[:, None]
        m = _matrix(np.exp(1j * 0.1 * k) * np.ones((6, 4)))
        vals, _ = run_group(phase_features, m)
        assert vals["dphi_std_mean"] == 0.0
        assert vals["phase_std_mean"] == 0.0


class TestEnergy:
    def test_uniform_energy_entropy(self):
        m = _matrix_from_amps(np.full((8, 3), 1.7))
        vals, flags = run_group(energy_features, m)
        assert vals["energy_entropy"] == pytest.approx(3.0, abs=1e-12)
        assert vals["energy_skewness"] == 0.0
        assert "energy:degenerate_moment" in flags

    def test_single_hot_bin_entropy_zero(self):
        amps = np.zeros((4, 3))
        amps[2] = 2.0
        vals, _ = run_group(energy_features, _matrix_from_amps(amps))
        assert vals["energy_entropy"] == pytest.approx(0.0, abs=1e-12)

    def test_zero_energy_raises(self):
        with pytest.raises(ZeroEnergyWindow):
            run_group(energy_features, _matrix_from_amps(np.zeros((4, 3))))


class TestSpectral:
    def test_flat_spectrum(self):
        k_count = 9
        m = _matrix_from_amps(np.full((k_count, 4), 2.0))
        vals, _ = run_group(spectral_features, m)
        assert vals["spec_flatness"] == pytest.approx(1.0, rel=1e-12)
        assert vals["spectral_centroid_amp"] == pytest.approx((k_count + 1) / 2)
        idx = np.arange(1, k_count + 1)
        assert vals["spectral_width"] == pytest.approx(np.std(idx), rel=1e-12)
        assert vals["spec_entropy"] == pytest.approx(np.log2(k_count), rel=1e-12)

    def test_single_bin(self):
        amps = np.zeros((5, 3))
        amps[3] = 1.0
        vals, _ = run_group(spectral_features, _matrix_from_amps(amps))
        assert vals["spectral_centroid_amp"] == pytest.approx(4.0)  # 1-based
        assert vals["spectral_width"] == pytest.approx(0.0, abs=1e-9)
        assert vals["spec_flatness"] < 1e-3

    def test_flatness_bounds(self, rng):
        for _ in range(20):
            m = random_matrix(rng, int(rng.integers(4, 24)), 5)
            vals, _ = run_group(spectral_features, m)
            assert 0.0 < vals["spec_flatness"] <= 1.0 + 1e-12

    def test_zero_spectrum_raises(self):
        with pytest.raises(ZeroSpectrum):
            run_group(spectral_features, _matrix_from_amps(np.zeros((4, 3))))


class TestEmpiricalEnergy:
    def test_printed_formula_case(self):
        # Energies {2,2,4,4}, static phases: R=4/3, A=2/3, T=0 -> (2/3, 1/3, 0).
        amps = np.sqrt(np.array([[2.0], [2.0], [4.0], [4.0]])) * np.ones((4, 3))
        vals, flags = run_group(empirical_energy_features, _matrix_from_amps(amps))
        assert vals["energy_reflected_emp"] == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert vals["energy_absorbed_emp"] == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert vals["energy_refracted_emp"] == 0.0
        assert flags == []

    def test_sum_to_one(self, rng):
        for _ in range(20):
            m = random_matrix(rng, 8, 6)
            vals, _ = run_group(empirical_energy_features, m)
            assert sum(vals.values()) == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_split_convention(self):
        vals, flags = run_group(empirical_energy_features, _matrix_from_amps(np.ones((4, 3))))
        assert "empirical_energy:degenerate_split" in flags
        # R = A = 1, T = 0: reflected == absorbed == 0.5.
        assert vals["energy_reflected_emp"] == pytest.approx(0.5)
        assert vals["energy_absorbed_emp"] == pytest.approx(0.5)


class TestTemporal:
    def test_static_matrix_zero(self):
        vals, _ = run_group(temporal_features, _matrix_from_amps(np.full((3, 6), 1.3)))
        assert all(v == 0.0 for v in vals.values())

    def test_hand_computed_alternating(self):
        # Row {1,3}: sample std sqrt(2); other row constant; K = 2.
        m = _matrix_from_amps([[1.0, 3.0], [1.0, 1.0]])
        vals, _ = run_group(temporal_features, m)
        assert vals["temporal_variability_mean"] == pytest.approx(np.sqrt(2) / 2)


class TestStability:
    def test_static_zero(self):
        vals, _ = run_group(stability_features, _matrix_from_amps(np.full((4, 5), 2.0)))
        assert vals == {"stability_mean_cv": 0.0, "stability_std_cv": 0.0}

    def test_scale_invariance(self, rng):
        m = random_matrix(rng, 7, 11)
        scaled = m.with_values(m.values * 4.0)
        a, _ = run_group(stability_features, m)
        b, _ = run_group(stability_features, scaled)
        assert b["stability_mean_cv"] == pytest.approx(a["stability_mean_cv"], rel=1e-12)
        assert b["stability_std_cv"] == pytest.approx(a["stability_std_cv"], rel=1e-12)


class TestCorrelation:
    def test_identical_series_correlate_fully(self, rng):
        row = rng.normal(2.0, 0.5, 8)
        m = _matrix_from_amps(np.vstack([row, row, row]))
        vals, _ = run_group(correlation_features, m)
        assert vals["adjacent_correlation_mean"] == pytest.approx(1.0, abs=1e-12)

    def test_negated_series(self, rng):
        row = rng.normal(0.0, 1.0, 10)
        m = _matrix_from_amps(np.vstack([row + 5.0, -row + 5.0, row + 5.0]))
        vals, _ = run_group(correlation_features, m)
        assert vals["adjacent_correlation_mean"] == pytest.approx(-1.0, abs=1e-12)


class TestRoughnessCurvature:
    def test_flat_spectrum_zero(self):
        m = _matrix_from_amps(np.full((6, 4), 1.5))
        r, _ = run_group(roughness_features, m)
        c, _ = run_group(curvature_features, m)
        assert r == {"spectral_roughness_mean": 0.0, "spectral_roughness_std": 0.0}
        assert c == {"spectral_curvature_mean": 0.0, "spectral_curvature_std": 0.0}

    def test_ramp_spectrum(self):
        amps = np.outer(1.0 + 0.25 * np.arange(8), np.ones(3))
        r, _ = run_group(roughness_features, _matrix_from_amps(amps))
        assert r["spectral_roughness_mean"] == pytest.approx(0.25, abs=1e-12)
        assert r["spectral_roughness_std"] == pytest.approx(0.0, abs=1e-12)
        c, _ = run_group(curvature_features, _matrix_from_amps(amps))
        assert c["spectral_curvature_mean"] == pytest.approx(0.0, abs=1e-12)

    def test_quadratic_spectrum(self):
        a = 0.1
        amps = np.outer(5.0 + a * np.arange(8) ** 2, np.ones(3))
        c, _ = run_group(curvature_features, _matrix_from_amps(amps))
        assert c["spectral_curvature_mean"] == pytest.approx(2 * a, rel=1e-9)
        assert c["spectral_curvature_std"] == pytest.approx(0.0, abs=1e-9)


class TestExtractAll:
    def test_name_order_stable(self, rng):
        m = random_matrix(rng, 8, 6)
        vec = extract_window(m)
        assert vec.names == feature_names()
        assert len(vec.names) == 34

    def test_group_subset(self, rng):
        groups = frozenset({"amplitude", "energy"})
        vec = extract_window(random_matrix(rng, 6, 5), groups)
        assert vec.names == feature_names(groups)
        assert len(vec.names) == 10

    def test_group_error_carries_group_name(self):
        m = _matrix_from_amps(np.zeros((6, 5)))
        with pytest.raises(FeatureGroupError) as err:
            extract_window(m)
        assert err.value.group == "energy"

    def test_matches_dict_of_groups(self, rng):
        m = random_matrix(rng, 9, 7)
        vec = extract_window(m)
        vals, _ = run_group(amplitude_features, m)
        for name, v in vals.items():
            assert vec[name] == v


class TestBatch:
    def test_feature_names_unique(self):
        names = feature_names()
        assert len(set(names)) == len(names)

    @pytest.mark.parametrize("n,k,w,stride", [
        (1, 4, 6, 6), (3, 9, 7, 7), (5, 6, 12, 4), (4, 17, 20, 1), (2, 32, 9, 9),
    ], ids=["one", "contiguous", "overlapping", "stride-1", "wide"])
    def test_rows_match_reference_and_batch_of_one(self, rng, n, k, w, stride):
        record = random_matrix(rng, k, w + (n - 1) * stride)
        view = sliding_window_view(record.values, w, axis=1)[:, ::stride]
        batch = np.moveaxis(view, 1, 0)  # strided, as windowing hands it over
        assert batch.shape == (n, k, w)
        rows, flags = extract_all(batch, record.freqs)
        names = feature_names()
        assert rows.shape == (n, len(names))
        for i, window in enumerate(batch):
            expected = reference_features([list(r) for r in window], list(record.freqs))
            for j, name in enumerate(names):
                assert rows[i, j] == pytest.approx(expected[name], rel=1e-9, abs=1e-12), name
            one, one_flags = extract_all(window[None], record.freqs)
            assert one[0].tobytes() == rows[i].tobytes()
            assert {f: v[i] for f, v in flags.items()} == {f: v[0] for f, v in one_flags.items()}

    def test_zero_window_in_good_batch_names_energy(self, rng):
        m = random_matrix(rng, 6, 5)
        batch = np.stack([m.values] * 4)
        batch[2] = 0
        with pytest.raises(FeatureGroupError) as err:
            extract_all(batch, m.freqs)
        assert err.value.group == "energy"
        assert "window 2" in str(err.value)

    def test_non_finite_value_names_feature(self, rng):
        m = random_matrix(rng, 6, 5)
        batch = np.stack([m.values] * 3)
        batch[1, 2, 3] = np.inf
        with np.errstate(invalid="ignore"), pytest.raises(ValueError) as err:
            extract_all(batch, m.freqs)
        assert "non-finite feature value: amp_mean (window 1)" in str(err.value)

    def test_entropies_sum_only_nonzero_bins(self, rng):
        # Null subcarriers (zero energy) must not change the summation order.
        names = feature_names()
        for _ in range(20):
            m = random_matrix(rng, 24, 6)
            values = np.array(m.values)
            values[rng.choice(24, 5, replace=False)] = 0
            rows, _ = extract_all(np.stack([m.values, values]), m.freqs)
            amps = np.abs(values)
            for name, per_k in (("energy_entropy", np.mean(amps**2, axis=1)),
                                ("spec_entropy", amps.mean(axis=1))):
                p = per_k / per_k.sum()
                assert rows[1, names.index(name)] == -np.sum(p[p > 0] * np.log2(p[p > 0]))

    @pytest.mark.parametrize("shape,k", [((6, 5), 6), ((2, 6, 5), 5)], ids=["2-d", "freqs"])
    def test_batch_shape_checked(self, rng, shape, k):
        with pytest.raises(ValueError, match=r"\[N, K, W\]"):
            extract_all(np.ones(shape, dtype=complex), random_matrix(rng, k, 2).freqs)


class TestOracleEquivalence:
    def test_random_matrices_match_reference(self, rng):
        # 40 draws here; the full 200-matrix sweep runs in the acceptance suite.
        for _ in range(40):
            k = int(rng.integers(4, 33))
            t = int(rng.integers(4, 65))
            m = random_matrix(rng, k, t)
            expected = reference_features(
                [list(row) for row in m.values], list(m.freqs)
            )
            got = extract_window(m).as_dict()
            assert set(got) == set(expected)
            for name, ref in expected.items():
                assert got[name] == pytest.approx(ref, rel=1e-9, abs=1e-12), name
