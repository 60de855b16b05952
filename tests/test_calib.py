import numpy as np
import pytest

from csibio.calib import (
    calibrate,
    detrend_phase,
    normalize_phase,
    remove_cfo,
    unwrap_phase,
)
from csibio.synth import ChannelSpec, PathComponent, synthesize_matrix
from conftest import random_matrix


def _rotated_chain(m, scope="per_sample"):
    """The calibrate that rotated H by exp(-1j*offset) and took its angle again:
    (phase, amplitude, offsets, slopes)."""
    phases = m.phase()
    if scope == "per_sample":
        offsets = np.median(phases, axis=0)
    else:
        offsets = np.full(m.n_samples, float(np.median(phases)))
    rotated = m.values * np.exp(-1j * offsets)[None, :]
    detrended, slopes, _ = detrend_phase(unwrap_phase(np.angle(rotated)))
    return normalize_phase(detrended), np.abs(rotated), offsets, slopes


def _mod_two_pi(x):
    """x folded into [-pi, pi): the distance of a phase difference from a 2*pi multiple."""
    return np.mod(x + np.pi, 2 * np.pi) - np.pi


class TestRemoveCfo:
    def test_constant_offset_removed(self):
        out, offsets = remove_cfo(np.full((5, 3), 0.7))
        assert np.allclose(offsets, 0.7)
        assert np.max(np.abs(out)) < 1e-12

    def test_odd_k_median_subtracted(self):
        out, offsets = remove_cfo(np.array([[0.1], [0.2], [0.9]]))
        assert offsets[0] == pytest.approx(0.2, abs=1e-15)
        assert np.allclose(out[:, 0], [-0.1, 0.0, 0.7], atol=1e-12)
        assert np.median(out[:, 0]) == pytest.approx(0.0, abs=1e-12)

    def test_wrapped_into_principal_range(self, rng):
        phases = rng.uniform(-np.pi, np.pi, (9, 40))
        # Medians -pi and pi: an opposite edge lands on +-2*pi and is shifted to 0.
        phases[:, 0] = [np.pi] + [-np.pi] * 5 + [0.0] * 3
        phases[:, 1] = [-np.pi] + [np.pi] * 5 + [3.0] * 3
        out, offsets = remove_cfo(phases)
        assert np.all(out > -np.pi) and np.all(out <= np.pi)
        assert np.max(np.abs(_mod_two_pi(out - (phases - offsets)))) < 1e-12
        assert np.array_equal(out[:, 0], [0.0] * 6 + [np.pi] * 3)
        assert np.array_equal(out[:, 1], [0.0] * 6 + [3.0 - np.pi] * 3)

    def test_global_scope_single_offset(self, rng):
        _, offsets = remove_cfo(random_matrix(rng, 5, 4).phase(), scope="global")
        assert np.unique(offsets).size == 1


class TestUnwrap:
    def test_wrapped_ramp_reconstructed(self):
        ramp = np.array([0.0, 1.0, 2.0, 3.0 - 2 * np.pi, 4.0 - 2 * np.pi])
        assert np.allclose(unwrap_phase(ramp), [0, 1, 2, 3, 4], atol=1e-12)

    def test_identity_on_smooth_input(self):
        x = np.array([0.5, 0.5, 0.5])
        assert np.array_equal(unwrap_phase(x), x)

    def test_round_trip_recovers_smooth_phase(self, rng):
        for _ in range(20):
            k = rng.integers(8, 64)
            smooth = np.cumsum(rng.uniform(-2.5, 2.5, k))
            wrapped = np.angle(np.exp(1j * smooth))
            unwrapped = unwrap_phase(wrapped)
            # Same profile up to one global 2 pi multiple of the first element.
            shift = smooth[0] - unwrapped[0]
            assert np.max(np.abs(unwrapped + shift - smooth)) < 1e-9

    def test_postconditions(self, rng):
        x = rng.uniform(-np.pi, np.pi, 50)
        out = unwrap_phase(x)
        d = np.diff(out)
        assert np.all(d > -np.pi - 1e-12) and np.all(d <= np.pi + 1e-12)
        assert out[0] == x[0]
        assert np.allclose(np.angle(np.exp(1j * (out - x))), 0.0, atol=1e-9)

    def test_bits_match_the_mod_wrap(self, rng):
        edges = [np.pi, -np.pi, 0.0, -0.0, np.pi, np.pi, -np.pi, -np.pi, 1e-300, -1e-300,
                 np.nextafter(np.pi, 0.0), np.nextafter(-np.pi, 0.0), 3.0 - 2 * np.pi, 2.0]
        x = np.concatenate([rng.uniform(-np.pi, np.pi, 100_000), edges])
        wrapped = np.mod(np.diff(x) + np.pi, 2 * np.pi) - np.pi
        wrapped = np.where(wrapped == -np.pi, np.pi, wrapped)
        expected = np.empty_like(x)
        expected[0] = x[0]
        np.cumsum(wrapped, out=expected[1:])
        expected[1:] += x[0]
        assert unwrap_phase(x).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("x", [[0.0, 10.0], [5.0, -5.0], [0.0, np.nan]])
    def test_differences_beyond_three_pi_rejected(self, x):
        with pytest.raises(ValueError, match="3\\*pi"):
            unwrap_phase(np.array(x))


class TestDetrend:
    def test_pure_line_removed(self):
        k = np.arange(10)
        resid, slope, intercept = detrend_phase(0.3 * k + 1.0)
        assert np.max(np.abs(resid)) < 1e-12
        assert slope == pytest.approx(0.3, abs=1e-12)
        assert intercept == pytest.approx(1.0, abs=1e-12)

    def test_zero_vector(self):
        resid, slope, intercept = detrend_phase(np.zeros(6))
        assert np.array_equal(resid, np.zeros(6))
        assert slope == 0.0 and intercept == 0.0

    def test_line_plus_sine_returns_sine(self):
        k = np.arange(32, dtype=float)
        sine = 0.2 * np.sin(2 * np.pi * k / 7.0)
        # Normal-equations fit of line + residual as the oracle.
        x = np.vstack([k, np.ones_like(k)]).T
        beta = np.linalg.solve(x.T @ x, x.T @ (0.05 * k + 2.0 + sine))
        expected = (0.05 * k + 2.0 + sine) - x @ beta
        resid, _, _ = detrend_phase(0.05 * k + 2.0 + sine)
        assert np.allclose(resid, expected, atol=1e-10)

    def test_residual_uncorrelated_with_index(self, rng):
        x = rng.normal(0, 1, 40)
        resid, _, _ = detrend_phase(x)
        k = np.arange(40)
        r = np.corrcoef(resid, k)[0, 1]
        assert abs(r) < 1e-10


class TestNormalize:
    def test_simple(self):
        assert np.allclose(normalize_phase(np.array([1.0, 2.0, 3.0])), [-1, 0, 1])

    def test_idempotent(self, rng):
        x = rng.normal(0, 1, 20)
        once = normalize_phase(x)
        assert np.allclose(normalize_phase(once), once, atol=1e-15)

    def test_zero_mean_property(self, rng):
        for _ in range(10):
            out = normalize_phase(rng.normal(3, 2, 33))
            assert abs(out.mean()) < 1e-12


def _flat_phase_channel(cfo=0.0, sfo=0.0, k=64, t=8):
    # Single zero-delay path: intrinsic phase is constant, so the fitted
    # trend slope is exactly the injected SFO slope.
    spec = ChannelSpec(
        paths=(PathComponent(1.3, 0.2, 0.0),), cfo_offset=cfo, sfo_slope=sfo
    )
    freqs = 5.18e9 + 312_500.0 * np.arange(k)
    return synthesize_matrix(spec, k, t, freqs)


class TestCalibrate:
    def test_injected_slope_recovered(self):
        m = _flat_phase_channel(cfo=0.4, sfo=0.01)
        _, report = calibrate(m)
        assert np.allclose(report.trend_slope, 0.01, atol=1e-9)

    def test_zero_artifact_channel_slope_zero(self):
        m = _flat_phase_channel()
        calibrated, report = calibrate(m)
        assert np.allclose(report.trend_slope, 0.0, atol=1e-12)
        assert np.max(np.abs(calibrated.phase())) < 1e-12

    def test_output_phases_zero_mean_and_trend_free(self, rng):
        m = random_matrix(rng, 17, 6)
        calibrated, _ = calibrate(m)
        phases = calibrated.phase()
        assert np.max(np.abs(phases.mean(axis=0))) < 1e-12
        k = np.arange(17)
        for t in range(6):
            slope = np.polyfit(k, phases[:, t], 1)[0]
            assert abs(slope) < 1e-12

    def test_amplitude_invariance_random(self, rng):
        m = random_matrix(rng, 33, 11)
        calibrated, _ = calibrate(m)
        rel = np.abs(np.abs(calibrated.values) - np.abs(m.values)) / np.abs(m.values)
        assert np.max(rel) <= 1e-12

    def test_output_bits_are_amplitude_times_exp(self, rng):
        # Rebuilt from cos and sin; zero amplitudes keep the complex product's signed zeros.
        m = random_matrix(rng, 12, 40)
        vals = np.array(m.values)
        vals[3] = 0.0
        vals[7, ::3] = 0.0
        m = m.with_values(vals)
        phase = normalize_phase(detrend_phase(unwrap_phase(remove_cfo(m.phase())[0]))[0])
        expected = m.amplitude() * np.exp(1j * phase)
        assert calibrate(m)[0].values.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("scope", ["per_sample", "global"])
    def test_phase_matches_rotate_then_angle_chain(self, rng, scope):
        """Offsets subtracted from one phase array: the rotated chain's phase and amplitude."""
        for k, t in [(12, 40), (64, 100), (3, 5)]:
            m = random_matrix(rng, k, t)
            phase = normalize_phase(
                detrend_phase(unwrap_phase(remove_cfo(m.phase(), scope=scope)[0]))[0]
            )
            old_phase, old_amp, old_offsets, old_slopes = _rotated_chain(m, scope)
            assert np.max(np.abs(_mod_two_pi(phase - old_phase))) < 1e-12
            calibrated, report = calibrate(m, cfo_scope=scope)
            assert np.allclose(calibrated.values, old_amp * np.exp(1j * old_phase),
                               rtol=1e-12, atol=0)
            assert np.array_equal(report.cfo_offset_removed, old_offsets)
            assert np.allclose(report.trend_slope, old_slopes, rtol=0, atol=1e-12)

    def test_idempotence(self):
        m = _flat_phase_channel(cfo=0.3, sfo=0.004, k=32, t=5)
        once, _ = calibrate(m)
        twice, _ = calibrate(once)
        assert np.max(np.abs(once.phase() - twice.phase())) < 1e-9

    def test_matches_per_vector_chain(self, rng):
        from csibio.calib import detrend_phase as dp, unwrap_phase as up

        m = random_matrix(rng, 12, 5)
        calibrated, report = calibrate(m)
        phases, _ = remove_cfo(m.phase())
        for t in range(5):
            unwrapped = up(phases[:, t])
            detrended, slope, _ = dp(unwrapped)
            expected = detrended - detrended.mean()
            assert np.allclose(calibrated.phase()[:, t], expected, atol=1e-12)
            assert report.trend_slope[t] == pytest.approx(slope, abs=1e-12)
