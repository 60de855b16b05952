"""Handcrafted CSI descriptors computed over a batch of cleaned, calibrated windows.

Ten groups of scalar features per K x W complex window, each computed
for all N windows of a ``[N, K, W]`` batch at once: amplitude
statistics, phase texture, per-subcarrier energy distribution, spectral
shape of the time-averaged magnitude, an empirical reflected/absorbed/
refracted energy split, temporal variability, stability (coefficient of
variation), adjacent-subcarrier correlation, spectral roughness, and
spectral curvature.

Normalization conventions (fixed, tested against naive references):

* "sample" moments divide by K-1 / T-1 exactly where a formula calls
  for it (all std/variance aggregates across subcarriers or time);
* skewness/kurtosis use population moments; kurtosis is excess (-3);
* any skew/kurt with a near-zero sigma contributes 0 and raises a flag;
* entropies are in bits with 0*log(0) := 0;
* spectral-shape features operate on the time-averaged magnitude;
* spectral-shape indices are 1-based (k = 1..K).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import FeatureGroupError, ZeroEnergyWindow, ZeroSpectrum

EPSILON = 1e-12  # degenerate-denominator floor


def _require(cond: bool, msg: str):
    if not cond:
        raise ValueError(msg)


def _sample_var(x: np.ndarray) -> np.ndarray:
    """Sample variance over the last axis, with an exact-zero fast path for constant series.

    Plain ``np.var`` of a bitwise-constant series leaves ~1e-17 residue
    from mean rounding; static channels must yield exact zeros.
    """
    var = np.var(x, axis=-1, ddof=1)
    return np.where(np.all(x == x[..., :1], axis=-1), 0.0, var)


def _sample_std(x: np.ndarray) -> np.ndarray:
    return np.sqrt(_sample_var(x))


def _mean_spread(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean over the last axis and the n-1 normalized spread of ``x`` about it."""
    mean = x.mean(axis=-1)
    return mean, np.sqrt(np.sum((x - mean[..., None]) ** 2, axis=-1) / (x.shape[-1] - 1))


def _entropy_bits(p: np.ndarray) -> np.ndarray:
    """Entropy in bits of each row of ``p``, with 0*log(0) := 0. Zero bins are
    dropped row by row: masking them would sum the other terms in another order."""
    nonzero = [row[row > 0] for row in p]
    return np.array([-np.sum(q * np.log2(q)) for q in nonzero])


def _pop_skew_kurt(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-row population skewness and excess kurtosis over the last axis.

    Rows with sigma < EPSILON yield (0, 0) and are marked degenerate.
    """
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    sigma = np.sqrt(np.mean(centered**2, axis=-1))
    degenerate = sigma < EPSILON
    safe = np.where(degenerate, 1.0, sigma)
    m3 = np.mean(centered**3, axis=-1)
    m4 = np.mean(centered**4, axis=-1)
    skew = np.where(degenerate, 0.0, m3 / safe**3)
    kurt = np.where(degenerate, 0.0, m4 / safe**4 - 3.0)
    return skew, kurt, degenerate


def subcarrier_energy(amps: np.ndarray) -> np.ndarray:
    """E(f_k): mean over time (the last axis) of the squared magnitude ``amps``."""
    return np.mean(amps**2, axis=-1)


class WindowBatch(NamedTuple):
    """N windows with |H|, its angle and their time averages, each computed once."""

    amps: np.ndarray  # |H|, [N, K, W]
    phases: np.ndarray  # angle of H, [N, K, W]
    energies: np.ndarray  # E(f_k), [N, K]
    spectrum: np.ndarray  # time-averaged magnitude, [N, K]
    freqs: np.ndarray  # subcarrier centre frequencies in Hz, [K]

    @property
    def n_subcarriers(self) -> int:
        return self.amps.shape[-2]

    @property
    def n_samples(self) -> int:
        return self.amps.shape[-1]


def window_batch(values: np.ndarray, freqs: np.ndarray) -> WindowBatch:
    """Batch the complex windows ``values[N, K, W]`` on the subcarrier axis ``freqs[K]``.

    The batch is made C-contiguous: a last-axis reduction over a strided
    view sums in another order, so the features would differ in their last bits.
    """
    values = np.ascontiguousarray(values, dtype=np.complex128)
    freqs = np.asarray(freqs, dtype=np.float64)
    if values.ndim != 3 or freqs.shape != values.shape[1:2]:
        raise ValueError(
            f"values must be [N, K, W] with K == len(freqs), got {values.shape} and {freqs.shape}"
        )
    amps = np.abs(values)
    return WindowBatch(amps, np.angle(values), subcarrier_energy(amps), amps.mean(axis=-1), freqs)


# Each group maps a WindowBatch to (feature name -> float[N], flag name -> bool[N]).

def amplitude_features(b: WindowBatch):
    """Moments of |H|: grand mean, cross-subcarrier spread, skew, kurtosis."""
    _require(b.n_subcarriers >= 2 and b.n_samples >= 2, "need K >= 2 and T >= 2")
    amp_var_mean, amp_var_std = _mean_spread(_sample_var(b.amps))
    skew, kurt, degenerate = _pop_skew_kurt(b.amps)
    values = {
        "amp_mean": b.spectrum.mean(axis=-1),
        "amp_mean_std": _sample_std(b.spectrum),
        "amp_var_mean": amp_var_mean,
        "amp_var_std": amp_var_std,
        "amp_skew_mean": skew.mean(axis=-1),
        "amp_kurt_mean": kurt.mean(axis=-1),
    }
    return values, {"amplitude:degenerate_moment": degenerate.any(axis=-1)}


def phase_features(b: WindowBatch):
    """Phase level and texture: per-subcarrier stds and adjacent-difference stds."""
    _require(b.n_subcarriers >= 3 and b.n_samples >= 2, "need K >= 3 and T >= 2")
    phase_std_mean, phase_std_std = _mean_spread(_sample_std(b.phases))
    dphi_std_mean, dphi_std_std = _mean_spread(_sample_std(np.diff(b.phases, axis=-2)))
    values = {
        "phase_mean_mean": b.phases.mean(axis=(-2, -1)),
        "phase_std_mean": phase_std_mean,
        "phase_std_std": phase_std_std,
        "dphi_std_mean": dphi_std_mean,
        "dphi_std_std": dphi_std_std,
    }
    return values, {}


def energy_features(b: WindowBatch):
    """Distribution of E(f_k) over subcarriers: level, shape, entropy in bits."""
    _require(b.n_subcarriers >= 2, "need K >= 2")
    total = b.energies.sum(axis=-1)
    if (total <= 0).any():
        raise ZeroEnergyWindow(f"window {np.argmax(total <= 0)} has zero total energy")
    skew, kurt, degenerate = _pop_skew_kurt(b.energies)
    values = {
        "energy_mean": b.energies.mean(axis=-1),
        "energy_skewness": skew,
        "energy_kurtosis": kurt,
        "energy_entropy": _entropy_bits(b.energies / total[:, None]),
    }
    return values, {"energy:degenerate_moment": degenerate}


def spectral_features(b: WindowBatch):
    """Shape of the time-averaged magnitude: centroids, entropy, flatness, width.

    spec_centroid weights physical frequencies (Hz); spectral_centroid_amp
    and spectral_width weight the 1-based subcarrier index. Flatness is
    the geometric/arithmetic mean ratio with bins floored at EPSILON.
    """
    _require(b.n_subcarriers >= 2, "need K >= 2")
    spectrum = b.spectrum
    total = spectrum.sum(axis=-1)
    if (total <= 0).any():
        raise ZeroSpectrum(f"window {np.argmax(total <= 0)} has a zero mean magnitude spectrum")
    floored = np.maximum(spectrum, EPSILON)
    k = np.arange(1, b.n_subcarriers + 1, dtype=np.float64)
    centroid_amp = np.sum(k * spectrum, axis=-1) / total
    values = {
        "spec_centroid": np.sum(b.freqs * spectrum, axis=-1) / total,
        "spec_entropy": _entropy_bits(spectrum / total[:, None]),
        "spec_flatness": np.exp(np.mean(np.log(floored), axis=-1)) / floored.mean(axis=-1),
        "spectral_centroid_amp": centroid_amp,
        "spectral_width": np.sqrt(
            np.sum((k - centroid_amp[:, None]) ** 2 * spectrum, axis=-1) / total
        ),
    }
    return values, {}


def empirical_energy_features(b: WindowBatch):
    """Reflected/absorbed/refracted energy split, normalized to sum to 1.

    Reflected pools subcarriers with energy >= the mean, absorbed those
    below it, refracted maps mean per-subcarrier phase std onto [0, 1]
    via division by pi. If all energies are equal the mean split is
    empty on one side; the documented convention sets both energy ratios
    to 1 and flags the window.
    """
    _require(b.n_subcarriers >= 2 and b.n_samples >= 2, "need K >= 2 and T >= 2")
    energies = b.energies
    mu = energies.mean(axis=-1)
    if (mu <= 0).any():
        raise ZeroEnergyWindow(f"window {np.argmax(mu <= 0)} has zero total energy")
    above = energies >= mu[:, None]
    degenerate = above.all(axis=-1)
    reflected = np.ones(len(mu))
    absorbed = np.ones(len(mu))
    # One boolean-indexed mean per window: a masked sum over the whole
    # row would add the same energies in another order.
    for i in np.flatnonzero(~degenerate):
        reflected[i] = energies[i, above[i]].mean() / mu[i]
        absorbed[i] = energies[i, ~above[i]].mean() / mu[i]
    refracted = _sample_std(b.phases).mean(axis=-1) / np.pi
    total = reflected + absorbed + refracted
    values = {
        "energy_reflected_emp": reflected / total,
        "energy_absorbed_emp": absorbed / total,
        "energy_refracted_emp": refracted / total,
    }
    return values, {"empirical_energy:degenerate_split": degenerate}


def temporal_features(b: WindowBatch):
    """Amplitude fluctuation over time: mean/spread of per-subcarrier stds."""
    _require(b.n_subcarriers >= 2 and b.n_samples >= 2, "need K >= 2 and T >= 2")
    v_mean, v_std = _mean_spread(_sample_std(b.amps))
    grand_mean = b.amps.mean(axis=(-2, -1))
    moving = grand_mean > EPSILON
    values = {
        "temporal_variability_mean": v_mean,
        "temporal_variability_std": v_std,
        "temporal_variability_cv": np.where(
            moving, v_mean / np.where(moving, grand_mean, 1.0), 0.0
        ),
    }
    return values, {"temporal:zero_mean_amplitude": ~moving}


def stability_features(b: WindowBatch):
    """Per-subcarrier coefficient of variation of |H|, aggregated over k."""
    _require(b.n_subcarriers >= 2 and b.n_samples >= 2, "need K >= 2 and T >= 2")
    mean_k = b.spectrum
    degenerate = mean_k <= EPSILON
    cv = np.where(degenerate, 0.0, _sample_std(b.amps) / np.where(degenerate, 1.0, mean_k))
    cv_mean, cv_std = _mean_spread(cv)
    values = {"stability_mean_cv": cv_mean, "stability_std_cv": cv_std}
    return values, {"stability:zero_mean_subcarrier": degenerate.any(axis=-1)}


def correlation_features(b: WindowBatch):
    """Pearson correlation between adjacent subcarriers' amplitude series."""
    _require(b.n_subcarriers >= 3, "need K >= 3")
    _require(b.n_samples >= 3, "need T >= 3")
    centered = b.amps - b.spectrum[..., None]
    var = np.mean(centered**2, axis=-1)
    cov = np.mean(centered[:, :-1] * centered[:, 1:], axis=-1)
    denom = np.sqrt(var[:, :-1] * var[:, 1:])
    degenerate = denom < EPSILON
    rho = np.where(degenerate, 0.0, cov / np.where(degenerate, 1.0, denom))
    rho_mean, rho_std = _mean_spread(rho)
    values = {"adjacent_correlation_mean": rho_mean, "adjacent_correlation_std": rho_std}
    return values, {"correlation:zero_variance_pair": degenerate.any(axis=-1)}


def roughness_features(b: WindowBatch):
    """First-order absolute differences of the time-averaged magnitude."""
    _require(b.n_subcarriers >= 3, "need K >= 3")
    r_mean, r_std = _mean_spread(np.abs(np.diff(b.spectrum, axis=-1)))
    return {"spectral_roughness_mean": r_mean, "spectral_roughness_std": r_std}, {}


def curvature_features(b: WindowBatch):
    """Second-order absolute differences of the time-averaged magnitude."""
    _require(b.n_subcarriers >= 4, "need K >= 4")
    c_mean, c_std = _mean_spread(np.abs(np.diff(b.spectrum, n=2, axis=-1)))
    return {"spectral_curvature_mean": c_mean, "spectral_curvature_std": c_std}, {}


# Group name -> (function, the names it emits in order), in output order.
GROUPS = {
    "amplitude": (amplitude_features, (
        "amp_mean", "amp_mean_std", "amp_var_mean",
        "amp_var_std", "amp_skew_mean", "amp_kurt_mean",
    )),
    "phase": (phase_features, (
        "phase_mean_mean", "phase_std_mean", "phase_std_std",
        "dphi_std_mean", "dphi_std_std",
    )),
    "energy": (energy_features, (
        "energy_mean", "energy_skewness", "energy_kurtosis", "energy_entropy",
    )),
    "spectral": (spectral_features, (
        "spec_centroid", "spec_entropy", "spec_flatness",
        "spectral_centroid_amp", "spectral_width",
    )),
    "empirical_energy": (empirical_energy_features, (
        "energy_reflected_emp", "energy_absorbed_emp", "energy_refracted_emp",
    )),
    "temporal": (temporal_features, (
        "temporal_variability_mean", "temporal_variability_std", "temporal_variability_cv",
    )),
    "stability": (stability_features, ("stability_mean_cv", "stability_std_cv")),
    "correlation": (correlation_features, (
        "adjacent_correlation_mean", "adjacent_correlation_std",
    )),
    "roughness": (roughness_features, ("spectral_roughness_mean", "spectral_roughness_std")),
    "curvature": (curvature_features, ("spectral_curvature_mean", "spectral_curvature_std")),
}
ALL_GROUPS = tuple(GROUPS)


def feature_names(groups=ALL_GROUPS) -> tuple[str, ...]:
    """The deterministic output order of extract_all for the feature ``groups``."""
    unknown = set(groups) - set(ALL_GROUPS)
    if unknown:
        raise ValueError(f"unknown feature groups: {sorted(unknown)}")
    return tuple(name for group, (_, names) in GROUPS.items() if group in groups for name in names)


def extract_all(
    values: np.ndarray, freqs: np.ndarray, groups=ALL_GROUPS
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Feature rows ``[N, F]`` of the windows ``values[N, K, W]``, one column per
    ``feature_names(groups)`` entry, and every enabled group's flags (name -> bool[N]).

    Group failures are re-raised as FeatureGroupError naming the group; a
    non-finite feature value raises ValueError naming the feature.
    """
    b = window_batch(values, freqs)
    columns: list[np.ndarray] = []
    flags: dict[str, np.ndarray] = {}
    for group, (fn, _) in GROUPS.items():
        if group not in groups:
            continue
        try:
            group_values, group_flags = fn(b)
        except (ValueError, ZeroEnergyWindow, ZeroSpectrum) as exc:
            raise FeatureGroupError(group, exc) from exc
        columns.extend(group_values.values())
        flags.update(group_flags)
    rows = np.column_stack(columns) if columns else np.empty((len(b.amps), 0))
    bad = np.argwhere(~np.isfinite(rows))
    if bad.size:
        window, column = bad[0]
        name = feature_names(groups)[column]
        raise ValueError(f"non-finite feature value: {name} (window {window})")
    return rows, flags
