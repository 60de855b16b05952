import tracemalloc

import numpy as np
import pytest

from csibio import clean
from csibio.clean import (
    iqr_fences,
    iqr_subcarrier_filter,
    mad_temporal_repair,
    subcarrier_energy,
)
from csibio.errors import TooFewSubcarriersRemain, WindowTooLarge
from csibio.model import CsiMatrix
from conftest import random_matrix
from oracles import mad_flags_sorted, mad_repair_per_row


def _matrix_from_amps(amps):
    amps = np.asarray(amps, dtype=float)
    freqs = 5.18e9 + 312_500.0 * np.arange(amps.shape[0])
    return CsiMatrix(values=amps.astype(complex), freqs=freqs)


class TestIqrFilter:
    def test_constant_spectrum_untouched(self):
        m = _matrix_from_amps(np.ones((8, 4)))
        out, removed = iqr_subcarrier_filter(m)
        assert removed == []
        assert out.n_subcarriers == 8

    def test_single_hot_subcarrier_removed(self):
        amps = np.ones((17, 5))
        amps[9] = 10.0  # energy 100 vs 1
        m = _matrix_from_amps(amps)
        out, removed = iqr_subcarrier_filter(m)
        assert removed == [9]
        assert out.n_subcarriers == 16
        assert out.freqs.shape == (16,)
        # Brute-force fence check.
        e = subcarrier_energy(m.amplitude())
        lo, hi = iqr_fences(e)
        expected = [int(i) for i in np.flatnonzero((e < lo) | (e > hi))]
        assert removed == expected

    def test_ramp_energies_match_bruteforce(self, rng):
        for _ in range(20):
            k = int(rng.integers(4, 40))
            amps = rng.uniform(0.1, 3.0, (k, 6))
            m = _matrix_from_amps(amps)
            e = subcarrier_energy(m.amplitude())
            q1, q3 = np.percentile(e, [25, 75])
            lo, hi = q1 - 1.5 * (q3 - q1), q3 + 1.5 * (q3 - q1)
            expected = [int(i) for i in np.flatnonzero((e < lo) | (e > hi))]
            try:
                _, removed = iqr_subcarrier_filter(m)
            except TooFewSubcarriersRemain:
                assert k - len(expected) < 2
                continue
            assert removed == expected

    def test_single_pass_idempotent_when_no_outliers(self, rng):
        m = random_matrix(rng, 16, 8)
        once, _ = iqr_subcarrier_filter(m)
        twice, removed = iqr_subcarrier_filter(once)
        # A second pass may remove more (fences move); on survivors of a
        # clean matrix it typically removes nothing.
        assert twice.n_subcarriers + len(removed) == once.n_subcarriers

    def test_too_few_subcarriers(self):
        m = _matrix_from_amps(np.ones((3, 4)))
        with pytest.raises(TooFewSubcarriersRemain):
            iqr_subcarrier_filter(m)


class TestMadRepair:
    def test_constant_series_spike_repaired(self):
        amps = np.ones((2, 21))
        amps[0, 10] = 100.0
        m = _matrix_from_amps(amps)
        out, report = mad_temporal_repair(m, window=5)
        assert report.repaired_count == 1
        assert np.abs(out.values[0, 10]) == pytest.approx(1.0)

    def test_phase_preserved_during_repair(self):
        amps = np.ones((2, 15))
        amps[0, 7] = 50.0
        phases = np.full((2, 15), 0.3)
        freqs = 5.18e9 + 312_500.0 * np.arange(2)
        m = CsiMatrix(values=amps * np.exp(1j * phases), freqs=freqs)
        out, report = mad_temporal_repair(m, window=5)
        assert report.repaired_count == 1
        assert np.angle(out.values[0, 7]) == pytest.approx(0.3, abs=1e-12)
        assert np.abs(out.values[0, 7]) == pytest.approx(1.0, abs=1e-9)

    def test_clean_monotone_series_untouched(self):
        amps = np.tile(np.linspace(1.0, 2.0, 31), (3, 1))
        m = _matrix_from_amps(amps)
        out, report = mad_temporal_repair(m, window=7)
        assert report.repaired_count == 0
        assert np.array_equal(out.values, m.values)

    def test_edge_spike_clamped_to_neighbor(self):
        amps = np.ones((2, 11))
        amps[1, 0] = 30.0
        m = _matrix_from_amps(amps)
        out, report = mad_temporal_repair(m, window=3)
        assert report.repaired_count == 1
        assert np.abs(out.values[1, 0]) == pytest.approx(1.0)

    def test_unflagged_entries_bit_identical(self, rng):
        m = random_matrix(rng, 6, 40)
        amps = np.abs(m.values)
        spiked = np.array(m.values)
        spiked[2, 13] *= 25.0
        spiked[4, 31] *= 25.0
        m2 = m.with_values(spiked)
        out, report = mad_temporal_repair(m2, window=9)
        assert report.flags[2, 13] and report.flags[4, 31]
        untouched = ~report.flags
        assert np.array_equal(out.values[untouched], spiked[untouched])
        assert report.repaired_count == int(report.flags.sum())

    def test_window_validation(self, rng):
        m = random_matrix(rng, 4, 10)
        with pytest.raises(ValueError):
            mad_temporal_repair(m, window=4)
        with pytest.raises(WindowTooLarge):
            mad_temporal_repair(m, window=11)

    def test_oracle_window_fences(self, rng):
        # Per-window median/MAD computed with explicit slices.
        m = random_matrix(rng, 3, 25)
        amps = np.abs(np.array(m.values))
        amps[1, 12] *= 40.0
        m2 = m.with_values(amps.astype(complex))
        _, report = mad_temporal_repair(m2, window=5)
        half, window = 2, 5
        for k in range(3):
            x = np.abs(m2.values[k])
            for t in range(25):
                start = min(max(0, t - half), 25 - window)
                w = x[start : start + window]
                med = np.median(w)
                mad = np.median(np.abs(w - med))
                assert report.flags[k, t] == (abs(x[t] - med) > 6.0 * mad)

    @pytest.mark.parametrize("cap", [50, 700])
    def test_blocked_sort_keeps_the_bits(self, rng, monkeypatch, cap):
        # A row takes 340 scratch elements here: cap 50 runs one row a block,
        # 700 two rows; the default runs all 7 at once.
        m = random_matrix(rng, 7, 40)
        vals = np.array(m.values)
        vals[[1, 4, 6], [20, 3, 39]] *= 30.0
        spiked = m.with_values(vals)
        out, report = mad_temporal_repair(spiked, window=9)
        monkeypatch.setattr(clean, "_MAD_BLOCK_ELEMENTS", cap)
        out2, report2 = mad_temporal_repair(spiked, window=9)
        assert out2.values.tobytes() == out.values.tobytes()
        assert np.array_equal(report2.flags, report.flags) and report.repaired_count >= 3

    def test_sort_memory_is_bounded(self, rng):
        # Scratch for all 64 rows at once would take 17 MB.
        x = rng.random((64, 4000))
        tracemalloc.start()
        try:
            clean._mad_flags(x, 9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * x.nbytes + clean._MAD_BLOCK_ELEMENTS * x.itemsize

    def test_repair_reduces_max_z(self, rng):
        # Per-subcarrier amplitude z-scores over time: the spike's |z| falls after repair.
        def max_abs_z(m):
            amps = m.amplitude()
            return np.max(np.abs(amps - amps.mean(axis=1, keepdims=True))
                          / amps.std(axis=1, keepdims=True))

        m = random_matrix(rng, 4, 50)
        vals = np.array(m.values)
        vals[1, 20] *= 30.0
        spiked = m.with_values(vals)
        repaired, _ = mad_temporal_repair(spiked, window=9)
        assert max_abs_z(repaired) < max_abs_z(spiked)


class TestMadOracles:
    """The selection-network flags and the batched repair against the code they replaced."""

    @pytest.mark.parametrize("window", range(3, 32, 2))
    def test_flags_match_sorting_reference(self, rng, window):
        for n in (window, window + 1, window + 2, 2 * window + 3, 200):
            for levels in (2, 4, 50):
                # Integer grids: tie-heavy windows, many with a zero MAD.
                x = rng.integers(0, levels, (6, n)).astype(float)
                spikes = rng.random((6, n)) < 0.05
                x[spikes] += rng.integers(10, 100, int(spikes.sum()))
                x[5] = 3.0
                assert np.array_equal(clean._mad_flags(x, window), mad_flags_sorted(x, window))
            x = rng.gamma(2.0, 1.0, (4, n)) * np.where(rng.random((4, n)) < 0.03, 40.0, 1.0)
            assert np.array_equal(clean._mad_flags(x, window), mad_flags_sorted(x, window))

    def test_batched_repair_matches_per_row_interp(self, rng, monkeypatch):
        k, n = 8, 30
        freqs = 5.18e9 + 312_500.0 * np.arange(k)
        for _ in range(10):
            vals = rng.uniform(0.5, 2.0, (k, n)) * np.exp(1j * rng.uniform(-np.pi, np.pi, (k, n)))
            vals[2, 5:9] = 0.0  # zero amplitudes: repaired values get zero phase
            vals[6, [0, 3]] = 0.0  # zero amplitudes as interpolation anchors
            flags = rng.random((k, n)) < 0.2
            flags[0, :4] = True  # a leading run clamps to the first valid sample
            flags[1, -5:] = True  # a trailing run clamps to the last
            flags[2, 4:10] = True
            flags[3] = True  # all flagged: left untouched
            flags[4] = False
            flags[4, [0, n - 1]] = True
            flags[5] = True
            flags[5, 17] = False  # a single valid sample
            flags[6, 1:3] = True
            monkeypatch.setattr(clean, "_mad_flags", lambda x, w, f=flags: f.copy())
            out, report = mad_temporal_repair(CsiMatrix(vals, freqs), window=3)
            cleared = flags.copy()
            cleared[3] = False
            assert report.untouched_subcarriers == (3,)
            assert np.array_equal(report.flags, cleared)
            assert out.values.tobytes() == mad_repair_per_row(vals, cleared).tobytes()
