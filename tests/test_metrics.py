import numpy as np
import pytest

from csibio.errors import DegenerateClass, TooFewScores
from csibio.metrics import (
    aggregate_metrics,
    auc_from_scores,
    bioquake_from_scores,
    build_security_report,
    class_pools,
    eer_from_scores,
    fcs,
    gini,
    gini_report,
)
from csibio.model import ScoreMatrix
from oracles import (
    auc_pair_count,
    bootstrap_eer_spread,
    class_pools_per_row,
    eer_operating_point,
    eer_sweep,
    far_frr,
    gini_pairwise,
)


def _scores(rows, true_labels, class_ids=("a", "b", "c")):
    return ScoreMatrix(class_ids, np.asarray(rows, dtype=float), tuple(true_labels))


class TestAggregateMetrics:
    def test_perfect_predictions(self):
        s = _scores(np.eye(3), ["a", "b", "c"])
        m = aggregate_metrics(s)
        for key in ("accuracy", "macro_precision", "macro_recall",
                    "macro_f1", "macro_specificity"):
            assert m[key] == 1.0

    def test_always_predict_one_class(self):
        rows = [[0.9, 0.1], [0.9, 0.1], [0.9, 0.1], [0.9, 0.1]]
        s = _scores(rows, ["a", "a", "b", "b"], class_ids=("a", "b"))
        m = aggregate_metrics(s)
        assert m["accuracy"] == 0.5
        assert m["macro_recall"] == 0.5
        assert "absent_prediction:b" == m["flags"]

    def test_random_case_against_confusion_oracle(self, rng):
        n, c = 60, 3
        rows = rng.dirichlet(np.ones(c), size=n)
        true = [f"s{i}" for i in rng.integers(0, c, n)]
        s = _scores(rows, true, class_ids=("s0", "s1", "s2"))
        m = aggregate_metrics(s)
        pred = [f"s{i}" for i in np.argmax(rows, axis=1)]
        acc = np.mean([p == t for p, t in zip(pred, true)])
        assert m["accuracy"] == pytest.approx(acc, abs=1e-15)
        precisions, recalls, specs = [], [], []
        for cls in ("s0", "s1", "s2"):
            tp = sum(1 for p, t in zip(pred, true) if p == cls and t == cls)
            fp = sum(1 for p, t in zip(pred, true) if p == cls and t != cls)
            fn = sum(1 for p, t in zip(pred, true) if p != cls and t == cls)
            tn = n - tp - fp - fn
            precisions.append(tp / (tp + fp) if tp + fp else 0.0)
            recalls.append(tp / (tp + fn) if tp + fn else 0.0)
            specs.append(tn / (tn + fp) if tn + fp else 0.0)
        assert m["macro_precision"] == pytest.approx(np.mean(precisions), abs=1e-12)
        assert m["macro_recall"] == pytest.approx(np.mean(recalls), abs=1e-12)
        assert m["macro_specificity"] == pytest.approx(np.mean(specs), abs=1e-12)


class TestAuc:
    def test_perfect_separation(self):
        assert auc_from_scores(np.array([0.8, 0.9]), np.array([0.1, 0.2])) == 1.0

    def test_mirrored_sets_exactly_half(self):
        x = np.array([0.2, 0.5, 0.8])
        assert auc_from_scores(x, x) == 0.5

    def test_handcrafted_vs_pair_counting(self):
        genuine = [0.9, 0.7, 0.5, 0.5, 0.3]
        impostor = [0.6, 0.5, 0.4, 0.2, 0.1]
        got = auc_from_scores(np.array(genuine), np.array(impostor))
        assert got == auc_pair_count(genuine, impostor)

    def test_random_vs_pair_counting(self, rng):
        for _ in range(25):
            g = rng.normal(0.6, 0.2, rng.integers(2, 30))
            i = rng.normal(0.4, 0.2, rng.integers(2, 30))
            assert auc_from_scores(g, i) == auc_pair_count(list(g), list(i))

    def test_tie_heavy_knn_scores_vs_pair_counting(self, rng):
        # k=5 uniform votes: every score is a multiple of 1/5; most impostor scores are 0.
        for _ in range(25):
            g = rng.choice(6, rng.integers(1, 40), p=[0.1, 0.1, 0.1, 0.1, 0.2, 0.4]) / 5
            i = rng.choice(6, rng.integers(1, 300), p=[0.6, 0.2, 0.1, 0.05, 0.03, 0.02]) / 5
            assert auc_from_scores(g, i) == auc_pair_count(list(g), list(i))

    def test_ovr_macro(self, rng):
        rows = rng.dirichlet(np.ones(3), size=30)
        true = [f"s{i}" for i in rng.integers(0, 3, 30)]
        s = _scores(rows, true, class_ids=("s0", "s1", "s2"))
        report = build_security_report("demo", s, resamples=20)
        assert report.auc_macro == pytest.approx(
            np.mean(list(report.auc_per_class.values())), abs=1e-15
        )


class TestEer:
    def test_perfect_separation_midpoint_threshold(self):
        r = eer_from_scores(np.array([0.9, 0.95]), np.array([0.1, 0.2]))
        assert r.eer == 0.0
        assert r.threshold == pytest.approx(0.55, abs=1e-12)
        assert r.far == 0.0 and r.frr == 0.0
        assert not r.interpolated

    def test_identical_sets_half(self):
        x = np.array([0.2, 0.4, 0.6, 0.8])
        r = eer_from_scores(x, x)
        assert r.eer == pytest.approx(0.5, abs=1e-12)

    def test_exact_crossing_one_third(self):
        r = eer_from_scores(np.array([0.8, 0.6, 0.4]), np.array([0.5, 0.3, 0.1]))
        assert r.eer == 1.0 / 3.0
        assert not r.interpolated
        # FAR == FRR == 1/3 holds on the whole interval (0.4, 0.5].
        assert r.threshold == pytest.approx(0.45, abs=1e-12)
        assert r.far == r.frr == 1.0 / 3.0

    def test_random_vs_exhaustive_sweep(self, rng):
        for _ in range(50):
            g = np.round(rng.uniform(0, 1, rng.integers(3, 25)), 2)
            i = np.round(rng.uniform(0, 1, rng.integers(3, 25)), 2)
            got = eer_from_scores(g, i)
            assert got.eer == pytest.approx(eer_sweep(list(g), list(i)), abs=1e-12)
            assert 0.0 <= got.eer <= 1.0
            # The [0, 0.5] bound is guaranteed when genuine scores
            # stochastically dominate impostor scores in the realized sample.
            cuts = np.unique(np.concatenate([g, i]))
            dominated = all(
                np.mean(g >= t) >= np.mean(i >= t) for t in cuts
            )
            if dominated:
                assert got.eer <= 0.5 + 1e-12

    def test_interpolated_threshold_vs_oracle(self, rng):
        seen = 0
        for _ in range(200):
            g = np.round(rng.uniform(0, 1, rng.integers(3, 25)), 1)
            i = np.round(rng.uniform(0, 1, rng.integers(3, 25)), 1)
            got = eer_from_scores(g, i)
            expected = eer_operating_point(list(g), list(i))
            assert got.interpolated == (expected is not None)
            if expected is None:
                continue
            seen += 1
            assert (got.far, got.frr) == expected
            assert far_frr(list(g), list(i), got.threshold) == expected
        assert seen > 20

    def test_interpolated_keeps_lower_side_when_it_is_better(self):
        # Intervals (0.4, 0.5] with FAR 1/2, FRR 0 and (0.5, 0.6] with
        # FAR 1/2, FRR 1 bracket the jump; the lower one has the smaller max.
        r = eer_from_scores(np.array([0.5]), np.array([0.4, 0.6]))
        assert r.interpolated
        assert r.threshold == 0.5
        assert (r.far, r.frr) == (0.5, 0.0)

    def test_interpolated_takes_upper_side_when_it_is_better(self):
        # Three impostors tie at 0.5: FAR 3/4, FRR 1/4 at 0.5 against
        # FAR 0, FRR 1/4 at 0.6.
        r = eer_from_scores(np.array([0.3, 0.6, 0.7, 0.8]), np.array([0.5, 0.5, 0.5, 0.1]))
        assert r.interpolated
        assert r.threshold == 0.6
        assert (r.far, r.frr) == (0.0, 0.25)

    def test_interpolated_tie_takes_lower_far_side(self):
        # FAR 1/2, FRR 1/4 at 0.5 and FAR 0, FRR 1/2 at 0.9: max 1/2 on both.
        r = eer_from_scores(np.array([0.3, 0.5, 0.9, 0.9]), np.array([0.1, 0.5]))
        assert r.interpolated
        assert r.threshold == 0.9
        assert (r.far, r.frr) == (0.0, 0.5)

    def test_interpolated_above_the_largest_score(self):
        # Every impostor sits at the top score: FAR 1, FRR 1/2 there ties
        # max(FAR, FRR) = 1 with rejecting everything.
        r = eer_from_scores(np.array([0.5, 0.9]), np.array([0.9, 0.9]))
        assert r.interpolated
        assert r.threshold == np.nextafter(0.9, np.inf)
        assert (r.far, r.frr) == (0.0, 1.0)

    def test_monotonicity_adding_good_genuine(self, rng):
        for _ in range(20):
            g = rng.uniform(0.2, 0.9, 10)
            i = rng.uniform(0.0, 0.7, 12)
            base = eer_from_scores(g, i).eer
            better = eer_from_scores(np.append(g, 0.95), i).eer
            assert better <= base + 1e-12

    def test_degenerate_class(self):
        with pytest.raises(DegenerateClass):
            eer_from_scores(np.array([]), np.array([0.1]))

    def test_per_class_extraction(self):
        rows = [[0.9, 0.1], [0.2, 0.8], [0.7, 0.3], [0.4, 0.6]]
        s = _scores(rows, ["a", "b", "a", "b"], class_ids=("a", "b"))
        genuine, impostor = class_pools(s)["a"]
        r = eer_from_scores(genuine, impostor, "a")
        assert r.class_id == "a"
        assert r.eer == 0.0


def _knn_like_scores(rng, n, c, k=5):
    """Vote shares of k neighbours, biased toward the true class: scores on {0, 1/k, ..., 1}."""
    true_idx = rng.permutation(np.arange(n) % c)
    rows = np.empty((n, c))
    for r, t in enumerate(true_idx):
        p = np.full(c, 0.5 / (c - 1))
        p[t] = 0.5
        rows[r] = np.bincount(rng.choice(c, size=k, p=p), minlength=c) / k
    return _scores(rows, [f"s{i}" for i in true_idx], class_ids=tuple(f"s{i}" for i in range(c)))


def _dirichlet_scores(rng, n, c):
    true_idx = rng.permutation(np.arange(n) % c)
    rows = rng.dirichlet(np.ones(c), size=n)
    return _scores(rows, [f"s{i}" for i in true_idx], class_ids=tuple(f"s{i}" for i in range(c)))


class TestClassPools:
    @pytest.mark.parametrize("make", [_dirichlet_scores, _knn_like_scores])
    def test_matches_per_row_oracle(self, rng, make):
        s = make(rng, 37, 4)
        pools = class_pools(s)
        expected = class_pools_per_row(s.class_ids, s.rows.tolist(), s.true_labels)
        assert list(pools) == list(s.class_ids)
        for c in s.class_ids:
            genuine, impostor = pools[c]
            assert genuine.tolist() == expected[c][0]
            assert impostor.tolist() == expected[c][1]

    def test_class_without_genuine_rows(self):
        s = _scores([[0.9, 0.1], [0.8, 0.2]], ["a", "a"], class_ids=("a", "b"))
        with pytest.raises(DegenerateClass, match="class 'a' lacks genuine or impostor"):
            class_pools(s)

    @pytest.mark.parametrize("make", [_dirichlet_scores, _knn_like_scores])
    def test_gini_counts_are_the_eer_operating_points(self, rng, make):
        for _ in range(10):
            s = make(rng, 60, 5)
            report = build_security_report("demo", s, resamples=20)
            pools = class_pools(s)
            gini_data = report.gini_data
            for e in report.eer_results:
                genuine, impostor = pools[e.class_id]
                assert gini_data.fa_counts[e.class_id] / impostor.size == e.far
                assert gini_data.fr_counts[e.class_id] / genuine.size == e.frr


class TestFcs:
    def test_identity_predictions(self):
        s = _scores(np.eye(3), ["a", "b", "c"])
        data = fcs(s)
        assert np.all(data.genuine_scores == 1.0)
        assert np.all(data.impostor_scores == 0.0)

    def test_uniform_probabilities(self):
        rows = np.full((4, 4), 0.25)
        s = _scores(rows, ["a", "b", "c", "d"], class_ids=("a", "b", "c", "d"))
        data = fcs(s)
        assert np.all(data.genuine_scores == 0.25)

    def test_counting_identity(self, rng):
        n, c = 17, 5
        rows = rng.dirichlet(np.ones(c), size=n)
        true = [f"s{i}" for i in rng.integers(0, c, n)]
        s = _scores(rows, true, class_ids=tuple(f"s{i}" for i in range(c)))
        data = fcs(s)
        assert data.genuine_scores.shape[0] == n
        assert data.impostor_scores.shape[0] == n * (c - 1)
        assert data.genuine_counts.sum() == n
        assert data.impostor_counts.sum() == n * (c - 1)


class TestGini:
    def test_uniform_vector_zero(self):
        assert gini([3, 3, 3, 3]) == 0.0

    def test_single_concentration_extreme(self):
        assert gini([0, 0, 0, 5]) == pytest.approx(0.75, abs=1e-15)

    def test_zero_sum_convention(self):
        assert gini([0.0, 0.0, 0.0]) == 0.0

    def test_random_vs_pairwise_oracle(self, rng):
        for _ in range(30):
            x = rng.uniform(0, 10, rng.integers(2, 40))
            assert gini(x) == pytest.approx(gini_pairwise(list(x)), abs=1e-12)

    def test_scale_invariance(self, rng):
        x = rng.uniform(0, 5, 20)
        assert gini(4.0 * x) == pytest.approx(gini(x), abs=0)
        assert gini(3.1 * x) == pytest.approx(gini(x), abs=1e-12)

    def test_bounds(self, rng):
        for _ in range(20):
            x = rng.uniform(0, 1, rng.integers(2, 15))
            n = len(x)
            assert -1e-15 <= gini(x) <= (n - 1) / n + 1e-15


class TestGiniReport:
    def test_perfect_classifier_zero_gini(self):
        s = _scores(np.eye(3), ["a", "b", "c"])
        pools = class_pools(s)
        rep = gini_report(pools, tuple(eer_from_scores(g, i, c) for c, (g, i) in pools.items()))
        assert rep.gc_far == 0.0 and rep.gc_frr == 0.0 and rep.gc_mean == 0.0
        assert "gini:no_false_acceptances" in rep.flags

    def test_concentrated_false_accepts(self):
        # All impostor mass lands above victim a's threshold, nowhere else.
        rows = [
            [0.9, 0.1, 0.0],   # a genuine, high
            [0.55, 0.45, 0.0], # b genuine but scores 0.55 on a -> FA on a
            [0.6, 0.0, 0.4],   # c genuine, also FA on a
            [0.1, 0.8, 0.1],   # b genuine fine
            [0.0, 0.1, 0.9],   # c genuine fine
            [0.2, 0.75, 0.05], # b genuine fine
        ]
        s = _scores(rows, ["a", "b", "c", "b", "c", "b"])
        pools = class_pools(s)
        rep = gini_report(pools, tuple(eer_from_scores(g, i, c) for c, (g, i) in pools.items()))
        counts = np.array([rep.fa_counts[c] for c in s.class_ids], dtype=float)
        assert rep.gc_far == pytest.approx(gini_pairwise(list(counts)), abs=1e-12)
        assert rep.gc_mean == pytest.approx((rep.gc_far + rep.gc_frr) / 2, abs=1e-15)


class TestBioquake:
    def test_perfectly_separated_all_zero(self):
        g = np.linspace(0.8, 0.99, 8)
        i = np.linspace(0.01, 0.3, 9)
        b = bioquake_from_scores(g, i, resamples=64, seed=5)
        assert b.eer == 0.0
        assert b.uncertainty == 0.0
        assert b.ci_width == 0.0

    def test_matches_independent_bootstrap(self, rng):
        g = rng.uniform(0.3, 1.0, 10)
        i = rng.uniform(0.0, 0.7, 10)
        b = bioquake_from_scores(g, i, resamples=80, seed=42)
        unc, width = bootstrap_eer_spread(list(g), list(i), resamples=80, seed=42)
        assert b.uncertainty == pytest.approx(unc, abs=1e-12)
        assert b.ci_width == pytest.approx(width, abs=1e-12)

    def test_too_few_scores(self):
        with pytest.raises(TooFewScores):
            bioquake_from_scores(np.ones(3), np.zeros(10))

    def test_uncertainty_shrinks_with_separation(self, rng):
        i = rng.uniform(0.0, 0.4, 30)
        overlapping = bioquake_from_scores(
            rng.uniform(0.2, 0.7, 30), i, resamples=100, seed=1
        )
        separated = bioquake_from_scores(
            rng.uniform(0.8, 1.0, 30), i, resamples=100, seed=1
        )
        assert separated.uncertainty <= overlapping.uncertainty


class TestSecurityReport:
    def test_assembly_and_serialization(self, rng):
        n, c = 40, 3
        centers = np.eye(c) * 0.8 + 0.1
        true_idx = rng.integers(0, c, n)
        rows = np.abs(centers[true_idx] + rng.normal(0, 0.05, (n, c)))
        rows /= rows.sum(axis=1, keepdims=True)
        s = _scores(rows, [f"s{i}" for i in true_idx],
                    class_ids=("s0", "s1", "s2"))
        report = build_security_report("demo", s, resamples=50, seed=3)
        d = report.to_dict()
        assert d["model"] == "demo"
        assert len(d["eer_per_class"]) == c
        assert d["gini"]["gc_mean"] == pytest.approx(
            (d["gini"]["gc_far"] + d["gini"]["gc_frr"]) / 2, abs=1e-12
        )

    def test_eer_pooled_is_the_fcs_pool_eer(self, rng):
        """eer_pooled and BioQuake's point estimate are one EER of the FCS pools."""
        n, c = 60, 3
        true_idx = rng.integers(0, c, n)
        rows = rng.uniform(0.0, 1.0, (n, c))
        rows[np.arange(n), true_idx] += 0.4
        rows /= rows.sum(axis=1, keepdims=True)
        s = _scores(rows, [f"s{i}" for i in true_idx], class_ids=("s0", "s1", "s2"))
        d = build_security_report("demo", s, resamples=20, seed=1).to_dict()
        pools = fcs(s)
        pooled = eer_from_scores(pools.genuine_scores, pools.impostor_scores).eer
        assert 0.0 < pooled < 0.5
        assert d["eer_pooled"] == d["bioquake"]["eer"] == pooled
