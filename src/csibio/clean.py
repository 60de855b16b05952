"""Outlier removal: IQR filtering over subcarriers, rolling-MAD repair over time.

The subcarrier filter drops frequency bins whose mean energy falls
outside [Q1 - 1.5*IQR, Q3 + 1.5*IQR] (single pass, closed fences, so a
constant spectrum survives untouched). The temporal filter flags
amplitude samples more than 6x the rolling-window MAD away from the
rolling median and replaces them by linear interpolation between the
nearest unflagged neighbors, preserving phase.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import TooFewSubcarriersRemain, WindowTooLarge
from .features import subcarrier_energy
from .model import CsiMatrix

MAD_FACTOR = 6.0


def iqr_fences(energies: np.ndarray) -> tuple[float, float]:
    """[Q1 - 1.5*IQR, Q3 + 1.5*IQR] with linear-interpolation quartiles."""
    q1, q3 = np.percentile(energies, [25.0, 75.0])
    iqr = q3 - q1
    return float(q1 - 1.5 * iqr), float(q3 + 1.5 * iqr)


def iqr_subcarrier_filter(m: CsiMatrix) -> tuple[CsiMatrix, list[int]]:
    """Drop subcarriers whose mean energy lies outside the IQR fences.

    Returns the filtered matrix (freqs updated) and the removed indices
    in ascending order. Raises TooFewSubcarriersRemain if fewer than two
    subcarriers survive.
    """
    if m.n_subcarriers < 4:
        raise TooFewSubcarriersRemain(
            f"IQR filter needs K >= 4 for meaningful quartiles, got K={m.n_subcarriers}"
        )
    energies = subcarrier_energy(m.amplitude())
    lo, hi = iqr_fences(energies)
    keep = (energies >= lo) & (energies <= hi)
    removed = [int(i) for i in np.flatnonzero(~keep)]
    if keep.sum() < 2:
        raise TooFewSubcarriersRemain(
            f"only {int(keep.sum())} subcarriers inside the energy fences"
        )
    if not removed:
        return m, []
    return CsiMatrix(values=m.values[keep, :], freqs=m.freqs[keep], meta=m.meta), removed


@dataclass(frozen=True)
class MadRepairReport:
    """Outcome of one rolling-MAD pass."""

    repaired_count: int
    flags: np.ndarray  # bool [K, T], True where a sample was replaced
    untouched_subcarriers: tuple[int, ...]  # rows left as-is (all samples flagged)


# Most window elements the MAD sort buffer holds: a [rows, T - w + 1, w]
# float64 block of about 4 MB, the size of prepare_windows' feature slices.
# Rows do not depend on their block, so blocking keeps the bits.
_MAD_SORT_ELEMENTS = 1 << 19


def _mad_flags(x: np.ndarray, window: int) -> np.ndarray:
    """Flag entries of ``x`` [K, T] more than MAD_FACTOR rolling MADs from the rolling median.

    Both statistics are centered over time and the MAD is raw. The window
    is odd, so each median is the middle entry of one sort. Rows are
    sorted in blocks of at most ``_MAD_SORT_ELEMENTS`` window elements (one
    row at the least), each in the same buffer. Edge positions reuse the
    nearest full-width window (a shrunken window would lose rejection
    power: with two samples |x - median| always equals the MAD).
    """
    n = x.shape[-1]
    half = window // 2
    # Position t uses the window starting at clamp(t - half, 0, n - window).
    starts = np.clip(np.arange(n) - half, 0, n - window)
    flags = np.empty(x.shape, dtype=bool)
    step = max(1, _MAD_SORT_ELEMENTS // ((n - window + 1) * window))
    # One buffer holds each block's windows, sorted in place: first the
    # values, then their absolute deviations from the median.
    buf = np.empty((min(step, x.shape[0]), n - window + 1, window))
    for i in range(0, x.shape[0], step):
        rows = x[i : i + step]
        view = np.lib.stride_tricks.sliding_window_view(rows, window, axis=-1)
        block = buf[: view.shape[0]]
        block[...] = view
        block.sort(axis=-1)
        med = block[..., half].copy()
        np.subtract(view, med[..., None], out=block)
        np.abs(block, out=block)
        block.sort(axis=-1)
        flags[i : i + step] = np.abs(rows - med[:, starts]) > MAD_FACTOR * block[:, starts, half]
    return flags


def _interpolate_flagged(x: np.ndarray, flagged: np.ndarray) -> np.ndarray:
    """Replace flagged entries by interpolating between valid neighbors.

    Leading/trailing flagged runs clamp to the nearest valid value.
    """
    valid = np.flatnonzero(~flagged)
    out = x.copy()
    bad = np.flatnonzero(flagged)
    out[bad] = np.interp(bad, valid, x[valid])
    return out


def mad_temporal_repair(m: CsiMatrix, window: int = 9) -> tuple[CsiMatrix, MadRepairReport]:
    """Repair per-subcarrier amplitude spikes beyond 6x the rolling MAD.

    The MAD is raw (no consistency constant). Flagged amplitudes are
    replaced, the original phase is preserved, and unflagged entries are
    returned bit-identical. A subcarrier whose samples are all flagged is
    left untouched and reported.
    """
    if window % 2 == 0 or window < 3:
        raise ValueError(f"window must be odd and >= 3, got {window}")
    if window > m.n_samples:
        raise WindowTooLarge(f"window {window} exceeds T={m.n_samples}")

    amps = m.amplitude()
    flags = _mad_flags(amps, window)
    untouched = np.flatnonzero(flags.all(axis=1))
    flags[untouched] = False
    values = np.array(m.values)
    for k in np.flatnonzero(flags.any(axis=1)):
        x = amps[k]
        repaired = _interpolate_flagged(x, flags[k])
        idx = np.flatnonzero(flags[k])
        old = x[idx]
        scale = np.where(old > 0, repaired[idx] / np.where(old > 0, old, 1.0), 0.0)
        values[k, idx] = np.where(old > 0, values[k, idx] * scale, repaired[idx] + 0j)

    report = MadRepairReport(
        repaired_count=int(flags.sum()),
        flags=flags,
        untouched_subcarriers=tuple(int(k) for k in untouched),
    )
    return m.with_values(values), report
