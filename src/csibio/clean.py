"""Outlier removal: IQR filtering over subcarriers, rolling-MAD repair over time.

The subcarrier filter drops frequency bins whose mean energy falls
outside [Q1 - 1.5*IQR, Q3 + 1.5*IQR] (single pass, closed fences, so a
constant spectrum survives untouched). The temporal filter flags
amplitude samples more than 6x the rolling-window MAD away from the
rolling median and replaces them by linear interpolation between the
nearest unflagged neighbors, preserving phase.

Neither stage sorts, yet both give a sort's bits: the rolling median
comes from a min/max selection network shared by neighbouring windows,
the MAD test counts scaled deviations instead of forming the MAD, and
the repair is one batched np.interp-formula pass over the record.
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


# Most float64 elements the MAD scratch buffers hold at once, about 2 MB;
# a row needs (window + 8) * T / 2 of them, so a 128x1000 record at
# w=9 runs in blocks of 30 rows. Rows do not depend on their block, so
# blocking keeps the bits.
_MAD_BLOCK_ELEMENTS = 1 << 18


def _median_network(lanes: int) -> list[tuple[int, int, bool, bool]]:
    """Batcher's odd-even merge sort on ``lanes`` inputs, cut to the two middle outputs.

    Each entry is a compare-exchange (i, j, keep_min, keep_max) with
    i < j: the min goes to lane i, the max to lane j, and an output no
    later exchange reads is not kept. Comparators past ``lanes`` compare
    against +inf padding and are left out.
    """
    pairs = []
    p = 1
    while p < lanes:
        k = p
        while k >= 1:
            for j in range(k % p, lanes - k, 2 * k):
                for i in range(min(k, lanes - j - k)):
                    if (i + j) // (2 * p) == (i + j + k) // (2 * p):
                        pairs.append((i + j, i + j + k))
            k //= 2
        p *= 2
    needed = {lanes // 2 - 1, lanes // 2}
    network = []
    for i, j in reversed(pairs):
        keep_min, keep_max = i in needed, j in needed
        if keep_min or keep_max:
            network.append((i, j, keep_min, keep_max))
            needed |= {i, j}
    return network[::-1]


def _mad_flags(x: np.ndarray, window: int) -> np.ndarray:
    """Flag entries of ``x`` [K, T] more than MAD_FACTOR rolling MADs from the rolling median.

    Both statistics are centered over time and the MAD is raw. Edge
    positions reuse the nearest full-width window (a shrunken window
    would lose rejection power: with two samples |x - median| always
    equals the MAD).

    The median of an odd window is one order statistic, so min/max
    selection returns it bit for bit. Windows s and s+1 share w-1
    samples; a Batcher network over those lanes, cut to its middle pair
    lo <= hi, gives both medians as max(lo, min(extra, hi)), where extra
    is each window's unshared sample. The MAD is never formed:
    fl(6*d) is monotone in d, so |x_t - med| > 6*MAD holds exactly when
    more than half of the window's MAD_FACTOR * |x_j - med| fall below
    |x_t - med|. Rows go in blocks of at most ``_MAD_BLOCK_ELEMENTS``
    scratch elements (one row at the least). ``x`` must hold no NaN,
    which sorts last but makes min/max return NaN; amplitudes of a
    validated matrix never do, as read_portable rejects non-finite
    entries.
    """
    n_rows, n = x.shape
    half = window // 2
    n_win = n - window + 1
    n_pairs = (n_win + 1) // 2  # window pairs (2p, 2p+1); the last may be single
    n_odd = n_win // 2
    network = _median_network(window - 1)
    rows = max(1, min(n_rows, _MAD_BLOCK_ELEMENTS // ((window + 8) * n // 2)))
    lane_buf = np.empty((window - 1, rows, n_pairs))
    spare = np.empty((rows, n_pairs))
    med = np.empty((rows, n_win))
    target = np.empty((rows, n_win))
    dev = np.empty((rows, n_win))
    below = np.empty((rows, n_win), dtype=bool)
    count = np.empty((rows, n_win), dtype=np.min_scalar_type(window))
    flags = np.empty(x.shape, dtype=bool)
    for r0 in range(0, n_rows, rows):
        xb = x[r0 : r0 + rows]
        b = xb.shape[0]
        # Lane j of pair p holds x[2p + 1 + j], a sample both windows share.
        lanes = [lane_buf[j, :b] for j in range(window - 1)]
        for j, lane in enumerate(lanes):
            lane[...] = xb[:, 1 + j : 2 * n_pairs + j : 2]
        tmp = spare[:b]
        for i, j, keep_min, keep_max in network:
            if keep_min and keep_max:
                np.minimum(lanes[i], lanes[j], out=tmp)
                np.maximum(lanes[i], lanes[j], out=lanes[j])
                lanes[i], tmp = tmp, lanes[i]
            elif keep_min:
                np.minimum(lanes[i], lanes[j], out=lanes[i])
            else:
                np.maximum(lanes[i], lanes[j], out=lanes[j])
        lo, hi = lanes[half - 1], lanes[half]
        mb = med[:b]
        np.minimum(xb[:, 0 : 2 * n_pairs : 2], hi, out=tmp)
        np.maximum(lo, tmp, out=mb[:, 0::2])
        np.minimum(xb[:, window : window + 2 * n_odd : 2], hi[:, :n_odd], out=tmp[:, :n_odd])
        np.maximum(lo[:, :n_odd], tmp[:, :n_odd], out=mb[:, 1::2])

        # Window s judges its center t = s + half: count the window's
        # scaled deviations below |x_t - med_s| (the center's own never is).
        tb, db, below_b, cb = target[:b], dev[:b], below[:b], count[:b]
        np.subtract(xb[:, half : half + n_win], mb, out=tb)
        np.abs(tb, out=tb)
        cb[...] = 0
        for j in range(window):
            if j == half:
                continue
            np.subtract(xb[:, j : j + n_win], mb, out=db)
            np.abs(db, out=db)
            np.multiply(db, MAD_FACTOR, out=db)
            np.less(db, tb, out=below_b)
            np.add(cb, below_b, out=cb)
        np.greater(cb, half, out=flags[r0 : r0 + b, half : n - half])
        # The first and last half positions reuse the first and last window.
        for edge, s in ((slice(0, half), 0), (slice(n - half, n), n_win - 1)):
            m = mb[:, s : s + 1]
            scaled = MAD_FACTOR * np.abs(xb[:, s : s + window] - m)
            t = np.abs(xb[:, edge] - m)
            flags[r0 : r0 + b, edge] = (scaled[:, None, :] < t[:, :, None]).sum(axis=-1) > half
    return flags


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
    rows, cols = np.nonzero(flags)
    if rows.size:
        # np.interp over each row's valid samples, for every flagged entry
        # at once: the nearest valid index on each side, its formula
        # slope*(t - t0) + a0, and a clamp to the one valid side at an edge.
        n = m.n_samples
        t = np.arange(n)
        before = np.maximum.accumulate(np.where(flags, -1, t), axis=1)[rows, cols]
        after = np.minimum.accumulate(np.where(flags, n, t)[:, ::-1], axis=1)[:, ::-1][rows, cols]
        inside = (before >= 0) & (after < n)
        a0 = amps[rows, np.where(before >= 0, before, after)]
        a1 = amps[rows, np.where(inside, after, before)]
        slope = (a1 - a0) / np.where(inside, after - before, 1)
        repaired = np.where(inside, slope * (cols - before) + a0, a0)
        old = amps[rows, cols]
        scale = np.where(old > 0, repaired / np.where(old > 0, old, 1.0), 0.0)
        values[rows, cols] = np.where(old > 0, values[rows, cols] * scale, repaired + 0j)

    report = MadRepairReport(
        repaired_count=int(flags.sum()),
        flags=flags,
        untouched_subcarriers=tuple(int(k) for k in untouched),
    )
    return m.with_values(values), report
