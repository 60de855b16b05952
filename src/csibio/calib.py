"""Phase calibration: strip hardware phase artifacts, keep amplitudes intact.

Stages, applied per time sample along the subcarrier axis:

1. constant-offset removal (median phase subtracted from the one phase
   array and wrapped back into (-pi, pi], a standard CFO fix),
2. unwrapping of the +-pi principal values into a continuous profile,
3. removal of the least-squares linear trend over subcarrier index
   (absorbs SFO and packet-detection-delay slopes),
4. mean-centering.

The output is rebuilt from the input's own |H| and the calibrated
phase, so amplitudes change only by that rebuild's rounding; all
removed quantities are returned in a CalibReport so synthetic-injection
tests can check recovery.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import CsiMatrix

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class CalibReport:
    """Per-time-sample record of everything the chain removed."""

    cfo_offset_removed: np.ndarray
    trend_slope: np.ndarray
    trend_intercept: np.ndarray
    mean_removed: np.ndarray


CFO_SCOPES = ("per_sample", "global")


def remove_cfo(phases: np.ndarray, scope: str = "per_sample") -> tuple[np.ndarray, np.ndarray]:
    """Subtract the median phase bias from principal phases ``[K, T]``.

    ``scope='per_sample'`` uses one median per time sample (per packet);
    ``scope='global'`` uses a single median over the whole capture.
    Returns the phases less the offsets, wrapped into (-pi, pi], and the
    removed offset per time sample. The zero-median property of the
    output assumes the phase spread at each t stays within one wrap of
    the median.
    """
    phases = np.asarray(phases, dtype=np.float64)
    if scope == "per_sample":
        offsets = np.median(phases, axis=0)
    elif scope == "global":
        offsets = np.full(phases.shape[-1], float(np.median(phases)))
    else:
        raise ValueError(f"unknown scope {scope!r}")
    out = phases - offsets
    # A principal value less a principal offset lies in [-2*pi, 2*pi]:
    # one conditional 2*pi shift brings it into (-pi, pi].
    shift = (out <= -np.pi).astype(np.float64)
    shift -= out > np.pi
    shift *= TWO_PI
    out += shift
    return out, offsets


def unwrap_phase(phases: np.ndarray) -> np.ndarray:
    """Reconstruct a continuous phase profile from principal values.

    Works along axis 0, so a 1-D profile and a [K, T] matrix (one profile
    per column) take the same code. Consecutive differences of the output
    lie in (-pi, pi]; the first element is preserved and every element
    stays congruent to the input modulo 2*pi. Consecutive input
    differences must lie in [-3*pi, 3*pi), as those of principal values
    do; anything else (NaN included) raises ValueError.
    """
    phases = np.asarray(phases, dtype=np.float64)
    u = np.diff(phases, axis=0) + np.pi
    if u.size and not (u.min() >= -TWO_PI and u.max() < 2 * TWO_PI):
        raise ValueError("unwrap_phase needs consecutive differences in [-3*pi, 3*pi)")
    # On [-2*pi, 4*pi), np.mod(u, 2*pi) is u + 2*pi for u < 0 and fmod's
    # exact u - 2*pi for u >= 2*pi: one conditional shift gives its bits.
    shift = (u < 0).astype(np.float64)
    shift -= u >= TWO_PI
    shift *= TWO_PI
    u += shift
    wrapped = u - np.pi
    wrapped[wrapped == -np.pi] = np.pi
    out = np.empty_like(phases)
    out[0] = phases[0]
    np.cumsum(wrapped, axis=0, out=out[1:])
    out[1:] += phases[0]
    return out


def detrend_phase(phases: np.ndarray) -> tuple[np.ndarray, np.ndarray | float, np.ndarray | float]:
    """Remove the least-squares line over subcarrier index k (axis 0).

    Returns (residual, slope, intercept) with residual = phase - (slope*k
    + intercept); slope and intercept are scalars for a 1-D profile and
    one value per column for a [K, T] matrix. The fit is over the integer
    index, not Hz; under uniform spacing the two differ only by an affine
    reparameterization.
    """
    phases = np.asarray(phases, dtype=np.float64)
    shape = (-1,) + (1,) * (phases.ndim - 1)  # k broadcasts along axis 0
    k = np.arange(phases.shape[0], dtype=np.float64).reshape(shape)
    k_mean = k.mean()
    p_mean = phases.mean(axis=0)
    denom = np.sum((k - k_mean) ** 2)
    slope = np.sum((k - k_mean) * (phases - p_mean), axis=0) / denom
    intercept = p_mean - slope * k_mean
    return phases - (slope * k + intercept), slope, intercept


def normalize_phase(phases: np.ndarray) -> np.ndarray:
    """Mean-center the phase profile along axis 0."""
    phases = np.asarray(phases, dtype=np.float64)
    return phases - phases.mean(axis=0)


def calibrate(m: CsiMatrix, cfo_scope: str = "per_sample") -> tuple[CsiMatrix, CalibReport]:
    """Run the full chain on every time sample of a CSI matrix.

    Output phases are trend-free and zero-mean along k for each t; the
    output is the input's |H| times exp(1j * phase), so its amplitudes
    match the input to within float rounding (<= 1e-12 relative). Each
    column goes through the same unwrap, detrend and normalize functions
    that a single profile does.
    """
    phases, offsets = remove_cfo(m.phase(), scope=cfo_scope)
    detrended, slopes, intercepts = detrend_phase(unwrap_phase(phases))
    out_phase = normalize_phase(detrended)
    amp = m.amplitude()
    values = np.empty(amp.shape, dtype=np.complex128)
    # amp * exp(1j * phase), part by part: exp's parts are cos and sin, and
    # only a zero product can differ from the complex one, in its sign.
    np.multiply(amp, np.cos(out_phase), out=values.real)
    np.multiply(amp, np.sin(out_phase), out=values.imag)
    zero = (values.real == 0) | (values.imag == 0)
    if zero.any():
        values[zero] = amp[zero] * np.exp(1j * out_phase[zero])
    calibrated = m.with_values(values)
    report = CalibReport(
        cfo_offset_removed=offsets,
        trend_slope=slopes,
        trend_intercept=intercepts,
        mean_removed=detrended.mean(axis=0),
    )
    return calibrated, report
