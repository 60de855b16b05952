"""Handcrafted CSI descriptors computed over one cleaned, calibrated window.

Ten groups of scalar features over a K x T complex window: amplitude
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
* spectral-shape indices are 1-based (k = 1..K).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FeatureGroupError, ZeroEnergyWindow, ZeroSpectrum
from .model import CsiMatrix, FeatureVector

EPSILON = 1e-12  # default degenerate-denominator floor


def _require(cond: bool, msg: str):
    if not cond:
        raise ValueError(msg)


def _sample_var(x: np.ndarray, axis: int = 1) -> np.ndarray:
    """Sample variance with an exact-zero fast path for constant series.

    Plain ``np.var`` of a bitwise-constant series leaves ~1e-17 residue
    from mean rounding; static channels must yield exact zeros.
    """
    var = np.var(x, axis=axis, ddof=1)
    constant = np.all(x == np.take(x, [0], axis=axis), axis=axis)
    return np.where(constant, 0.0, var)


def _sample_std(x: np.ndarray, axis: int = 1) -> np.ndarray:
    return np.sqrt(_sample_var(x, axis=axis))


def _pop_skew_kurt(
    x: np.ndarray, epsilon: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-row population skewness and excess kurtosis over the last axis.

    Rows with sigma < epsilon yield (0, 0) and are marked degenerate.
    """
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    sigma = np.sqrt(np.mean(centered**2, axis=-1))
    degenerate = sigma < epsilon
    safe = np.where(degenerate, 1.0, sigma)
    m3 = np.mean(centered**3, axis=-1)
    m4 = np.mean(centered**4, axis=-1)
    skew = np.where(degenerate, 0.0, m3 / safe**3)
    kurt = np.where(degenerate, 0.0, m4 / safe**4 - 3.0)
    return skew, kurt, degenerate


def amplitude_features(m: CsiMatrix, epsilon: float = EPSILON):
    """Moments of |H|: grand mean, cross-subcarrier spread, skew, kurtosis."""
    _require(m.n_subcarriers >= 2 and m.n_samples >= 2, "need K >= 2 and T >= 2")
    amps = m.amplitude()
    per_k_mean = amps.mean(axis=1)
    per_k_var = _sample_var(amps)
    amp_mean = per_k_mean.mean()
    amp_var_mean = per_k_var.mean()
    skew, kurt, degenerate = _pop_skew_kurt(amps, epsilon)
    flags = ["amplitude:degenerate_moment"] if degenerate.any() else []
    values = {
        "amp_mean": amp_mean,
        "amp_mean_std": float(_sample_std(per_k_mean, axis=0)),
        "amp_var_mean": amp_var_mean,
        "amp_var_std": np.sqrt(np.sum((per_k_var - amp_var_mean) ** 2) / (m.n_subcarriers - 1)),
        "amp_skew_mean": skew.mean(),
        "amp_kurt_mean": kurt.mean(),
    }
    return values, flags


def phase_features(m: CsiMatrix, epsilon: float = EPSILON):
    """Phase level and texture: per-subcarrier stds and adjacent-difference stds."""
    _require(m.n_subcarriers >= 3 and m.n_samples >= 2, "need K >= 3 and T >= 2")
    phases = m.phase()
    per_k_std = _sample_std(phases, axis=1)
    phase_std_mean = per_k_std.mean()
    dphi = np.diff(phases, axis=0)  # [K-1, T]
    dphi_std = _sample_std(dphi, axis=1)
    dphi_std_mean = dphi_std.mean()
    k1 = m.n_subcarriers - 1
    values = {
        "phase_mean_mean": phases.mean(),
        "phase_std_mean": phase_std_mean,
        "phase_std_std": np.sqrt(
            np.sum((per_k_std - phase_std_mean) ** 2) / (m.n_subcarriers - 1)
        ),
        "dphi_std_mean": dphi_std_mean,
        "dphi_std_std": np.sqrt(np.sum((dphi_std - dphi_std_mean) ** 2) / (k1 - 1)),
    }
    return values, []


def subcarrier_energy(m: CsiMatrix) -> np.ndarray:
    """E(f_k): time-averaged squared magnitude per subcarrier."""
    return np.mean(np.abs(m.values) ** 2, axis=1)


def energy_features(m: CsiMatrix, epsilon: float = EPSILON):
    """Distribution of E(f_k) over subcarriers: level, shape, entropy in bits."""
    _require(m.n_subcarriers >= 2, "need K >= 2")
    energies = subcarrier_energy(m)
    total = energies.sum()
    if total <= 0:
        raise ZeroEnergyWindow("window has zero total energy")
    skew, kurt, degenerate = _pop_skew_kurt(energies[None, :], epsilon)
    p = energies / total
    nz = p > 0
    entropy = float(-np.sum(p[nz] * np.log2(p[nz])))
    flags = ["energy:degenerate_moment"] if degenerate.any() else []
    values = {
        "energy_mean": energies.mean(),
        "energy_skewness": float(skew[0]),
        "energy_kurtosis": float(kurt[0]),
        "energy_entropy": entropy,
    }
    return values, flags


def mean_magnitude_spectrum(m: CsiMatrix) -> np.ndarray:
    """Time-averaged magnitude response, one value per subcarrier."""
    return m.amplitude().mean(axis=1)


def spectral_features(m: CsiMatrix, epsilon: float = EPSILON):
    """Shape of the time-averaged magnitude: centroids, entropy, flatness, width.

    spec_centroid weights physical frequencies (Hz); spectral_centroid_amp
    and spectral_width weight the 1-based subcarrier index. Flatness is
    the geometric/arithmetic mean ratio with bins floored at epsilon.
    """
    _require(m.n_subcarriers >= 2, "need K >= 2")
    spectrum = mean_magnitude_spectrum(m)
    total = spectrum.sum()
    if total <= 0:
        raise ZeroSpectrum("time-averaged magnitude sums to zero")
    w = spectrum / total
    nz = w > 0
    entropy = float(-np.sum(w[nz] * np.log2(w[nz])))
    floored = np.maximum(spectrum, epsilon)
    flatness = float(np.exp(np.mean(np.log(floored))) / floored.mean())
    k = np.arange(1, m.n_subcarriers + 1, dtype=np.float64)
    centroid_amp = float(np.sum(k * spectrum) / total)
    values = {
        "spec_centroid": float(np.sum(m.freqs * spectrum) / total),
        "spec_entropy": entropy,
        "spec_flatness": flatness,
        "spectral_centroid_amp": centroid_amp,
        "spectral_width": float(np.sqrt(np.sum((k - centroid_amp) ** 2 * spectrum) / total)),
    }
    return values, []


def empirical_energy_features(m: CsiMatrix, epsilon: float = EPSILON):
    """Reflected/absorbed/refracted energy split, normalized to sum to 1.

    Reflected pools subcarriers with energy >= the mean, absorbed those
    below it, refracted maps mean per-subcarrier phase std onto [0, 1]
    via division by pi. If all energies are equal the mean split is
    empty on one side; the documented convention sets both energy ratios
    to 1 and flags the window.
    """
    _require(m.n_subcarriers >= 2 and m.n_samples >= 2, "need K >= 2 and T >= 2")
    energies = subcarrier_energy(m)
    mu = energies.mean()
    if mu <= 0:
        raise ZeroEnergyWindow("window has zero total energy")
    above = energies >= mu
    below = ~above
    flags = []
    if not below.any():
        reflected, absorbed = 1.0, 1.0
        flags.append("empirical_energy:degenerate_split")
    else:
        reflected = energies[above].mean() / mu
        absorbed = energies[below].mean() / mu
    sigma_phi = _sample_std(m.phase(), axis=1)
    refracted = sigma_phi.mean() / np.pi
    total = reflected + absorbed + refracted
    values = {
        "energy_reflected_emp": reflected / total,
        "energy_absorbed_emp": absorbed / total,
        "energy_refracted_emp": refracted / total,
    }
    return values, flags


def temporal_features(m: CsiMatrix, epsilon: float = EPSILON):
    """Amplitude fluctuation over time: mean/spread of per-subcarrier stds."""
    _require(m.n_subcarriers >= 2 and m.n_samples >= 2, "need K >= 2 and T >= 2")
    amps = m.amplitude()
    variability = _sample_std(amps, axis=1)
    v_mean = variability.mean()
    grand_mean = amps.mean()
    flags = []
    if grand_mean > epsilon:
        cv = v_mean / grand_mean
    else:
        cv = 0.0
        flags.append("temporal:zero_mean_amplitude")
    values = {
        "temporal_variability_mean": v_mean,
        "temporal_variability_std": np.sqrt(
            np.sum((variability - v_mean) ** 2) / (m.n_subcarriers - 1)
        ),
        "temporal_variability_cv": cv,
    }
    return values, flags


def stability_features(m: CsiMatrix, epsilon: float = EPSILON):
    """Per-subcarrier coefficient of variation of |H|, aggregated over k."""
    _require(m.n_subcarriers >= 2 and m.n_samples >= 2, "need K >= 2 and T >= 2")
    amps = m.amplitude()
    mean_k = amps.mean(axis=1)
    std_k = _sample_std(amps, axis=1)
    degenerate = mean_k <= epsilon
    cv = np.where(degenerate, 0.0, std_k / np.where(degenerate, 1.0, mean_k))
    flags = ["stability:zero_mean_subcarrier"] if degenerate.any() else []
    cv_mean = cv.mean()
    values = {
        "stability_mean_cv": cv_mean,
        "stability_std_cv": np.sqrt(np.sum((cv - cv_mean) ** 2) / (m.n_subcarriers - 1)),
    }
    return values, flags


def correlation_features(m: CsiMatrix, epsilon: float = EPSILON):
    """Pearson correlation between adjacent subcarriers' amplitude series."""
    _require(m.n_subcarriers >= 3, "need K >= 3")
    _require(m.n_samples >= 3, "need T >= 3")
    amps = m.amplitude()
    centered = amps - amps.mean(axis=1, keepdims=True)
    var = np.mean(centered**2, axis=1)
    cov = np.mean(centered[:-1] * centered[1:], axis=1)
    denom = np.sqrt(var[:-1] * var[1:])
    degenerate = denom < epsilon
    rho = np.where(degenerate, 0.0, cov / np.where(degenerate, 1.0, denom))
    flags = ["correlation:zero_variance_pair"] if degenerate.any() else []
    rho_mean = rho.mean()
    k1 = m.n_subcarriers - 1
    values = {
        "adjacent_correlation_mean": rho_mean,
        "adjacent_correlation_std": np.sqrt(np.sum((rho - rho_mean) ** 2) / (k1 - 1)),
    }
    return values, flags


def roughness_features(m: CsiMatrix, epsilon: float = EPSILON):
    """First-order absolute differences of the time-averaged magnitude."""
    _require(m.n_subcarriers >= 3, "need K >= 3")
    spectrum = mean_magnitude_spectrum(m)
    rough = np.abs(np.diff(spectrum))
    r_mean = rough.mean()
    k1 = m.n_subcarriers - 1
    values = {
        "spectral_roughness_mean": r_mean,
        "spectral_roughness_std": np.sqrt(np.sum((rough - r_mean) ** 2) / (k1 - 1)),
    }
    return values, []


def curvature_features(m: CsiMatrix, epsilon: float = EPSILON):
    """Second-order absolute differences of the time-averaged magnitude."""
    _require(m.n_subcarriers >= 4, "need K >= 4")
    spectrum = mean_magnitude_spectrum(m)
    curve = np.abs(np.diff(spectrum, n=2))
    c_mean = curve.mean()
    k2 = m.n_subcarriers - 2
    values = {
        "spectral_curvature_mean": c_mean,
        "spectral_curvature_std": np.sqrt(np.sum((curve - c_mean) ** 2) / (k2 - 1)),
    }
    return values, []


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


@dataclass(frozen=True)
class FeatureSetConfig:
    """Which groups to compute and the degenerate-denominator floor."""

    enabled_groups: frozenset[str] = frozenset(ALL_GROUPS)
    epsilon: float = EPSILON

    def __post_init__(self):
        object.__setattr__(self, "enabled_groups", frozenset(self.enabled_groups))
        unknown = self.enabled_groups - set(ALL_GROUPS)
        if unknown:
            raise ValueError(f"unknown feature groups: {sorted(unknown)}")
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")


DEFAULT_CONFIG = FeatureSetConfig()


def feature_names(cfg: FeatureSetConfig = DEFAULT_CONFIG) -> tuple[str, ...]:
    """The deterministic output order of extract_all for this config."""
    out: list[str] = []
    for group, (_, names) in GROUPS.items():
        if group in cfg.enabled_groups:
            out.extend(names)
    return tuple(out)


def extract_all(m: CsiMatrix, cfg: FeatureSetConfig = DEFAULT_CONFIG) -> FeatureVector:
    """Concatenate every enabled group in the fixed documented order.

    Group failures are re-raised as FeatureGroupError naming the group.
    """
    names: list[str] = []
    values: list[float] = []
    flags: list[str] = []
    for group, (fn, _) in GROUPS.items():
        if group not in cfg.enabled_groups:
            continue
        try:
            group_values, group_flags = fn(m, cfg.epsilon)
        except (ValueError, ZeroEnergyWindow, ZeroSpectrum) as exc:
            raise FeatureGroupError(group, exc) from exc
        names.extend(group_values)
        values.extend(float(v) for v in group_values.values())
        flags.extend(group_flags)
    return FeatureVector(tuple(names), np.array(values), tuple(flags))
