import numpy as np
import pytest

from csibio import select
from csibio.errors import DegenerateInput
from csibio.model import FeatureMatrix
from csibio.select import MrmrConfig, mrmr_rank

CFG = MrmrConfig(k_select=3, bins=10)


def _relevance(x, y, cfg):
    """MI (bits) of a real column against labels, as mrmr_rank's relevance."""
    return select._discrete_mi(select._column_codes(x, cfg), select._codes(y))


def _redundancy(a, b, cfg):
    """MI (bits) of a candidate column against a selected one, as mrmr_rank's redundancy."""
    return select._discrete_mi(select._column_codes(a, cfg), select._column_codes(b, cfg))


class TestMutualInformation:
    def test_perfect_dependence_equals_label_entropy(self):
        y = np.repeat(np.arange(4), 25)
        x = y.astype(float)
        assert _relevance(x, y, CFG) == pytest.approx(2.0, abs=1e-12)

    def test_constant_feature_is_zero(self):
        y = np.array([0, 1] * 10)
        assert _relevance(np.ones(20), y, CFG) == 0.0

    def test_independent_noise_small(self):
        rng = np.random.default_rng(11)
        n = 10000
        y = rng.integers(0, 4, n)
        x = rng.normal(0, 1, n)
        mi = _relevance(x, y, CFG)
        assert 0.0 <= mi < 0.05
        # Cross-check against an independent plug-in estimator.
        edges = np.quantile(x, np.linspace(0, 1, 11)[1:-1])
        codes = np.searchsorted(edges, x, side="right")
        joint = np.zeros((codes.max() + 1, 4))
        for c, cls in zip(codes, y):
            joint[c, cls] += 1
        joint /= n
        px = joint.sum(axis=1)
        py = joint.sum(axis=0)
        ref = sum(
            joint[i, j] * np.log2(joint[i, j] / (px[i] * py[j]))
            for i in range(joint.shape[0])
            for j in range(4)
            if joint[i, j] > 0
        )
        assert mi == pytest.approx(ref, abs=1e-12)

    def test_upper_bound(self):
        rng = np.random.default_rng(5)
        y = rng.integers(0, 3, 400)
        x = y + rng.normal(0, 0.2, 400)
        mi = _relevance(x, y, CFG)
        p = np.bincount(y) / 400
        h_y = -np.sum(p * np.log2(p))
        assert 0.0 <= mi <= h_y + 1e-12

    def test_length_mismatch_rejected(self):
        fm = FeatureMatrix(("a", "b"), np.ones((5, 2)), ("0",) * 5)
        with pytest.raises(DegenerateInput, match="equal length"):
            mrmr_rank(fm, np.arange(6) % 2, CFG)

    def test_too_few_samples_rejected(self):
        fm = FeatureMatrix(("a", "b"), np.arange(10.0).reshape(5, 2), ("0",) * 5)
        with pytest.raises(DegenerateInput, match="at least 10 samples"):
            mrmr_rank(fm, np.arange(5) % 2, CFG)

    def test_equal_width_binning(self):
        cfg = MrmrConfig(k_select=1, bins=4, binning="equal_width")
        y = np.repeat([0, 1], 20)
        x = np.concatenate([np.zeros(20), np.ones(20) * 3.0])
        assert _relevance(x, y, cfg) == pytest.approx(1.0, abs=1e-12)


def _feature_matrix(columns: dict[str, np.ndarray], labels):
    names = tuple(columns)
    values = np.column_stack([columns[n] for n in names])
    return FeatureMatrix(names, values, tuple(str(l) for l in labels))


class TestMrmrRank:
    def test_label_copy_ranked_first(self):
        rng = np.random.default_rng(2)
        y = np.repeat([0, 1, 2], 30)
        fm = _feature_matrix(
            {"noise": rng.normal(0, 1, 90), "y_copy": y.astype(float)}, y
        )
        ranking = mrmr_rank(fm, np.array(fm.labels), MrmrConfig(k_select=2))
        assert ranking[0].name == "y_copy"

    def test_duplicate_penalized_after_first_pick(self):
        rng = np.random.default_rng(3)
        y = np.repeat([0, 1], 50)
        weak = y + rng.normal(0, 1.2, 100)
        fm = _feature_matrix(
            {
                "y_copy": y.astype(float),
                "y_copy_dup": y.astype(float),
                "weak_signal": weak,
            },
            y,
        )
        cfg = MrmrConfig(k_select=3)
        ranking = mrmr_rank(fm, np.array(fm.labels), cfg)
        assert ranking[0].name == "y_copy"  # lexicographic tie-break vs dup
        assert ranking[1].name == "weak_signal"

    @staticmethod
    def _bruteforce_columns(seed):
        rng = np.random.default_rng(seed)
        y = np.repeat([0, 1, 2], 40)
        cols = {
            "a": y + rng.normal(0, 0.3, 120),
            "b": rng.normal(0, 1, 120),
            "c": (y == 2).astype(float) + rng.normal(0, 0.4, 120),
        }
        return cols, y

    @staticmethod
    def _wide_tie_heavy_columns(seed):
        # 13 columns of a few repeated values (one constant), so equal-frequency
        # bin edges collapse; the last picks average more than 8 MIs, where
        # np.mean sums pairwise and the list order sets the bits.
        rng = np.random.default_rng(seed)
        y = np.repeat([0, 1, 2, 3], 15)
        cols = {f"q{i:02d}": (y * (i % 3) + rng.integers(0, 3, 60)) // 2 * 0.5
                for i in range(12)}
        cols["q_const"] = np.full(60, 2.0)
        return cols, y

    # On seed 3, MI(c; a) and MI(a; c) differ in the last bit, so the
    # redundancies only match when each pair is taken as (candidate, selected).
    @pytest.mark.parametrize("seed,wide", [pytest.param(4, False, id="4"),
                                           pytest.param(3, False, id="3"),
                                           pytest.param(8, True, id="wide")])
    def test_greedy_steps_match_bruteforce(self, seed, wide):
        # Exhaustive re-derivation of every greedy pick; the wide case asks
        # for more features than there are columns and ranks all 13.
        columns = self._wide_tie_heavy_columns if wide else self._bruteforce_columns
        cols, y = columns(seed)
        fm = _feature_matrix(cols, y)
        cfg = MrmrConfig(k_select=16 if wide else 3)
        ranking = mrmr_rank(fm, np.array(fm.labels), cfg)
        assert len(ranking) == len(cols)

        labels = np.array(fm.labels)
        relevance = {n: _relevance(cols[n], labels, cfg) for n in cols}
        selected = []
        for step in range(len(cols)):
            best_name, best_key, best_red = None, None, None
            for name in sorted(cols):
                if name in selected:
                    continue
                red = (
                    np.mean([_redundancy(cols[name], cols[s], cfg) for s in selected])
                    if selected
                    else 0.0
                )
                key = (-(relevance[name] - red), name)
                if best_key is None or key < best_key:
                    best_key, best_name, best_red = key, name, red
            assert ranking[step].name == best_name
            assert ranking[step].relevance == relevance[best_name]
            assert ranking[step].redundancy == best_red
            assert ranking[step].score == relevance[best_name] - best_red
            selected.append(best_name)

    def test_bruteforce_case_has_an_asymmetric_pair(self):
        cols, _ = self._bruteforce_columns(3)
        cfg = MrmrConfig(k_select=3)
        assert _redundancy(cols["c"], cols["a"], cfg) != _redundancy(cols["a"], cols["c"], cfg)

    def test_k_select_one(self):
        y = np.repeat([0, 1], 30)
        fm = _feature_matrix(
            {"good": y.astype(float), "bad": np.arange(60.0) % 7}, y
        )
        ranking = mrmr_rank(fm, np.array(fm.labels), MrmrConfig(k_select=1))
        assert len(ranking) == 1
        assert ranking[0].name == "good"

    def test_joint_permutation_invariance(self):
        rng = np.random.default_rng(6)
        y = np.repeat([0, 1, 2], 20)
        cols = {f"f{i}": rng.normal(0, 1, 60) + (y * (i % 3)) for i in range(5)}
        fm = _feature_matrix(cols, y)
        cfg = MrmrConfig(k_select=4)
        base = [r.name for r in mrmr_rank(fm, np.array(fm.labels), cfg)]
        perm = rng.permutation(60)
        fm2 = FeatureMatrix(
            fm.feature_names, fm.values[perm], tuple(np.array(fm.labels)[perm])
        )
        shuffled = [r.name for r in mrmr_rank(fm2, np.array(fm2.labels), cfg)]
        assert base == shuffled

    def test_scores_decompose(self):
        rng = np.random.default_rng(7)
        y = np.repeat([0, 1], 40)
        fm = _feature_matrix(
            {"a": y + rng.normal(0, 0.5, 80), "b": rng.normal(0, 1, 80)}, y
        )
        for r in mrmr_rank(fm, np.array(fm.labels), MrmrConfig(k_select=2)):
            assert r.score == pytest.approx(r.relevance - r.redundancy, abs=1e-15)
