import numpy as np
import pytest

import oracles
from conftest import fitted_digest
from csibio import classify
from csibio.classify import (
    ModelSpec,
    fit,
    mlp_init,
    mlp_loss_and_grads,
    MODEL_KINDS,
)
from csibio.errors import DegenerateFeature, SchemaMismatch, SingleClass
from csibio.model import FeatureMatrix


def _blobs(rng, n_per_class=60, n_classes=3, d=4, separation=6.0):
    """Gaussian blobs with means 'separation' sigmas apart."""
    rows, labels = [], []
    for c in range(n_classes):
        center = np.zeros(d)
        center[c % d] = c * separation
        rows.append(rng.normal(center, 1.0, (n_per_class, d)))
        labels.extend([f"s{c}"] * n_per_class)
    values = np.vstack(rows)
    names = tuple(f"f{i}" for i in range(d))
    return FeatureMatrix(names, values, tuple(labels))


def _accuracy(model, matrix):
    scores = model.predict_proba(matrix)
    return np.mean(
        [p == t for p, t in zip(scores.predicted_labels(), scores.true_labels)]
    )


class TestFitContracts:
    def test_single_class_rejected(self, rng):
        fm = FeatureMatrix(("a",), rng.normal(0, 1, (10, 1)), ("x",) * 10)
        with pytest.raises(SingleClass):
            fit(ModelSpec("knn"), fm)

    def test_nan_rejected(self):
        values = np.array([[1.0], [np.nan], [2.0], [3.0]])
        fm = FeatureMatrix(("a",), values, ("x", "x", "y", "y"))
        with pytest.raises(DegenerateFeature):
            fit(ModelSpec("knn"), fm)

    def test_schema_mismatch_on_predict(self, rng):
        fm = _blobs(rng)
        model = fit(ModelSpec("gaussian_nb"), fm)
        other = FeatureMatrix(("z0", "z1", "z2", "z3"), fm.values, fm.labels)
        with pytest.raises(SchemaMismatch):
            model.predict_proba(other)

    def test_hyperparam_validation(self):
        with pytest.raises(ValueError):
            ModelSpec("knn", {"k": 0})
        with pytest.raises(ValueError):
            ModelSpec("random_forest", {"n_trees": 0})
        with pytest.raises(ValueError):
            ModelSpec("mlp", {"hidden_layers": ()})
        with pytest.raises(ValueError):
            ModelSpec("decision_tree", {"max_depth": 0})
        with pytest.raises(ValueError):
            ModelSpec("svm")
        with pytest.raises(ValueError):
            ModelSpec("knn", {"bogus": 1})


@pytest.mark.parametrize("kind,hp", [
    ("knn", {"k": 3}),
    ("gaussian_nb", {}),
    ("decision_tree", {}),
    ("random_forest", {"n_trees": 15}),
    ("mlp", {"max_epochs": 120}),
])
class TestAllModels:
    def test_separable_blobs_high_training_accuracy(self, rng, kind, hp):
        fm = _blobs(rng, n_per_class=100)
        model = fit(ModelSpec(kind, hp), fm, seed=1)
        assert _accuracy(model, fm) >= 0.99

    def test_probability_rows_valid(self, rng, kind, hp):
        fm = _blobs(rng, n_per_class=30)
        scores = fit(ModelSpec(kind, hp), fm, seed=1).predict_proba(fm)
        assert np.all(scores.rows >= 0)
        assert np.allclose(scores.rows.sum(axis=1), 1.0, atol=1e-9)

    def test_seed_determinism(self, rng, kind, hp):
        fm = _blobs(rng, n_per_class=40)
        a = fit(ModelSpec(kind, hp), fm, seed=9)
        b = fit(ModelSpec(kind, hp), fm, seed=9)
        assert np.array_equal(a.predict_proba(fm).rows, b.predict_proba(fm).rows)
        assert fitted_digest(a) == fitted_digest(b)


class TestKnn:
    def test_k1_training_accuracy_is_one(self, rng):
        fm = _blobs(rng, n_per_class=30, separation=1.0)
        model = fit(ModelSpec("knn", {"k": 1}), fm)
        assert _accuracy(model, fm) == 1.0

    def test_k1_probability_one_on_true_class(self, rng):
        fm = _blobs(rng, n_per_class=10)
        scores = fit(ModelSpec("knn", {"k": 1}), fm).predict_proba(fm)
        idx = [scores.class_ids.index(t) for t in scores.true_labels]
        assert np.all(scores.rows[np.arange(scores.n_rows), idx] == 1.0)

    @pytest.mark.parametrize("weights", ["uniform", "distance"])
    @pytest.mark.parametrize("chunk_elements", [1 << 20, 50])
    def test_chunked_votes_match_per_row_loop(self, monkeypatch, weights, chunk_elements):
        # Rounded values and repeated training rows make exact matches and distance ties.
        monkeypatch.setattr(classify, "_KNN_CHUNK_ELEMENTS", chunk_elements)
        rng = np.random.default_rng(17)
        train = np.round(rng.normal(size=(40, 3)), 1)
        train[20:30] = train[:10]
        codes = rng.integers(0, 5, size=40)
        test = np.concatenate([train[::3], np.round(rng.normal(size=(25, 3)), 1)])
        model = classify._Knn(train, codes, 5, 7, weights)
        expected = oracles.knn_proba_per_row(train, codes, 5, 7, weights, test)
        assert model.predict_proba(test).tobytes() == expected.tobytes()


class TestGaussianNb:
    def test_uninformative_features_return_priors(self, rng):
        values = rng.normal(0, 1, (90, 3))
        labels = tuple(["a"] * 60 + ["b"] * 30)
        fm = FeatureMatrix(("x", "y", "z"), values, labels)
        scores = fit(ModelSpec("gaussian_nb"), fm).predict_proba(fm)
        mean_probs = scores.rows.mean(axis=0)
        assert mean_probs[0] == pytest.approx(2 / 3, abs=0.08)
        assert mean_probs[1] == pytest.approx(1 / 3, abs=0.08)

    def test_zero_variance_feature_tolerated(self, rng):
        values = np.column_stack([np.ones(40), rng.normal(0, 1, 40) + np.repeat([0, 4], 20)])
        fm = FeatureMatrix(("const", "good"), values, tuple(np.repeat(["a", "b"], 20)))
        model = fit(ModelSpec("gaussian_nb"), fm)
        assert _accuracy(model, fm) > 0.9


class TestTreesAndForest:
    def test_single_tree_pure_leaves(self, rng):
        fm = _blobs(rng, n_per_class=20, separation=2.0)
        model = fit(ModelSpec("decision_tree"), fm)
        scores = model.predict_proba(fm)
        assert set(np.unique(scores.rows)) <= {0.0, 1.0}

    def test_forest_of_one_equals_tree_without_bootstrap(self, rng):
        fm = _blobs(rng, n_per_class=25, separation=1.5)
        tree = fit(ModelSpec("decision_tree", {}), fm, seed=3)
        forest = fit(
            ModelSpec(
                "random_forest",
                {"n_trees": 1, "bootstrap": False, "max_features": None},
            ),
            fm,
            seed=3,
        )
        assert np.array_equal(
            tree.predict_proba(fm).rows, forest.predict_proba(fm).rows
        )

    def test_forest_single_tree_bootstrap_pure_probs(self, rng):
        fm = _blobs(rng, n_per_class=20)
        forest = fit(ModelSpec("random_forest", {"n_trees": 1}), fm)
        probs = forest.predict_proba(fm).rows
        assert set(np.unique(probs)) <= {0.0, 1.0}

    @pytest.mark.parametrize("kind,hyperparams", [("decision_tree", {}),
                                                  ("random_forest", {"n_trees": 3})])
    def test_no_features_fit_one_leaf(self, kind, hyperparams):
        fm = FeatureMatrix((), np.zeros((6, 0)), ("a", "b") * 3)
        spec = ModelSpec(kind, hyperparams)
        _assert_same_fit(spec, fm, 0)
        model = fit(spec, fm)
        trees = model.impl.trees if kind == "random_forest" else [model.impl]
        assert all(t.feature.tolist() == [-1] for t in trees)

    def test_max_depth_limits_tree(self, rng):
        fm = _blobs(rng, n_per_class=50, separation=0.5)
        stump = fit(ModelSpec("decision_tree", {"max_depth": 1}), fm)
        assert stump.impl.feature.shape[0] <= 3  # root + two leaves


def _tie_heavy_node(rng):
    """A random split-search input: values on a 0.5 grid, some constant columns."""
    n = int(rng.choice([2, 2, 3, 5, 12, 40, 120]))
    d = int(rng.integers(1, 9))
    n_classes = int(rng.integers(2, 21))
    x = rng.integers(-4, 5, size=(n, d)) * 0.5
    x[:, rng.random(d) < 0.25] = 1.5
    codes = rng.integers(0, n_classes, size=n)
    idx = rng.integers(0, n, size=n) if rng.random() < 0.5 else np.arange(n)
    max_features = None if rng.random() < 0.25 else int(rng.integers(1, d + 1))
    return x, codes, idx, n_classes, max_features


def _tie_heavy_batch(rng):
    """A batch of split-search nodes over one ``_tie_heavy_node`` matrix.

    Each node comes from its own tree (a bootstrap or the identity sample,
    with its own generator) and holds a sorted subset of >= 2 positions.
    """
    x, codes, idx, n_classes, max_features = _tie_heavy_node(rng)
    n = x.shape[0]
    samples, positions = [idx], []
    for t in range(int(rng.integers(1, 7))):
        if t:
            samples.append(rng.integers(0, n, size=n) if rng.random() < 0.5 else np.arange(n))
        size = n if rng.random() < 0.4 else int(rng.integers(2, n + 1))
        positions.append(np.sort(rng.choice(n, size=size, replace=False)))
    return x, codes, np.array(samples), positions, n_classes, max_features


def _best_splits(x, codes, samples, positions, n_classes, max_features, rngs):
    """Score one node per tree with one batched call, drawing as the grower does."""
    n, d = samples.shape[1], x.shape[1]
    sample = classify._Sample(x, samples, codes, n_classes)
    pos = np.concatenate([t * n + p for t, p in enumerate(positions)])
    totals = np.array([np.bincount(codes[s[p]], minlength=n_classes)
                       for s, p in zip(samples, positions)])
    sizes = totals.sum(axis=1)
    candidates = np.array([classify._candidates(d, max_features, r) for r in rngs])
    feature, threshold, left = classify._best_splits(sample, pos, sizes.cumsum() - sizes,
                                                     totals, candidates)
    return [None if f < 0 else (int(f), thr.tobytes()) for f, thr in zip(feature, threshold)]


def _oracle_model(spec, fm, seed):
    """The model that the recursive per-node grower fits, for digest comparison."""
    class_ids, codes = np.unique(np.asarray(fm.labels), return_inverse=True)
    args = (fm.values, codes, len(class_ids), spec.hyperparams)
    if spec.kind == "decision_tree":
        impl = classify._Tree(*oracles.tree_fit_per_node(*args))
    else:
        impl = classify._Forest([classify._Tree(*arrays)
                                 for arrays in oracles.forest_fit_per_node(*args, seed)])
    return classify.TrainedModel(spec, tuple(map(str, class_ids)), fm.feature_names, impl)


def _assert_same_fit(spec, fm, seed):
    assert fitted_digest(fit(spec, fm, seed=seed)) == fitted_digest(_oracle_model(spec, fm, seed))


class TestSplitSearchOracle:
    """The lockstep grower and its batched split search keep the per-node bits."""

    def test_batches_match_per_feature_search_on_tie_heavy_nodes(self):
        rng = np.random.default_rng(2005)
        for case in range(150):
            x, codes, samples, positions, n_classes, max_features = _tie_heavy_batch(rng)
            seeds = rng.integers(2**31, size=len(positions))
            ref_rngs = [np.random.default_rng(s) for s in seeds]
            new_rngs = [np.random.default_rng(s) for s in seeds]
            expected = []
            for sample, p, r in zip(samples, positions, ref_rngs):
                split = oracles.best_split_per_feature(x, codes, sample[p], n_classes,
                                                       max_features, r)
                expected.append(None if split is None
                                else (split[0], np.float64(split[1]).tobytes()))
            got = _best_splits(x, codes, samples, positions, n_classes, max_features, new_rngs)
            assert got == expected, case
            for a, b in zip(new_rngs, ref_rngs):
                assert a.bit_generator.state == b.bit_generator.state, case

    def test_every_node_of_a_step_constant(self):
        x = np.ones((6, 4))
        codes = np.arange(6) % 2
        samples = np.array([np.arange(6), [0, 1, 1, 2, 4, 5], [5, 4, 3, 2, 1, 0]])
        positions = [np.arange(6), np.array([0, 1, 3]), np.array([2, 3, 4, 5])]
        got = [np.random.default_rng(s) for s in range(3)]
        ref = [np.random.default_rng(s) for s in range(3)]
        assert _best_splits(x, codes, samples, positions, 2, 2, got) == [None] * 3
        for a, b in zip(got, ref):
            b.choice(4, size=2, replace=False)
            assert a.bit_generator.state == b.bit_generator.state
        # Every tree's root is such a node: each tree is one leaf.
        fm = FeatureMatrix(("a", "b", "c", "d"), x, ("s0", "s1") * 3)
        spec = ModelSpec("random_forest", {"n_trees": 4})
        _assert_same_fit(spec, fm, 3)
        assert all(t.feature.tolist() == [-1] for t in fit(spec, fm, seed=3).impl.trees)

    @pytest.mark.parametrize("kind,hyperparams", [
        ("decision_tree", {}),
        ("decision_tree", {"max_depth": 3, "min_samples_split": 10}),
        ("random_forest", {"n_trees": 6}),
        ("random_forest", {"n_trees": 3, "max_features": 1, "bootstrap": False}),
        ("random_forest", {"n_trees": 4, "max_features": None}),
    ])
    @pytest.mark.parametrize("chunk", [1 << 18, 200])
    def test_fits_save_the_per_feature_bytes(self, monkeypatch, kind, hyperparams, chunk):
        # 200 elements split most steps into runs of one or two nodes.
        monkeypatch.setattr(classify, "_SPLIT_CHUNK_ELEMENTS", chunk)
        rng = np.random.default_rng(11)
        x = rng.integers(-3, 4, size=(120, 6)) * 0.5
        x[:, 4] = 2.0
        labels = tuple(f"s{c}" for c in rng.integers(0, 7, size=120))
        fm = FeatureMatrix(tuple(f"f{i}" for i in range(6)), x, labels)
        _assert_same_fit(ModelSpec(kind, hyperparams), fm, 5)

    def test_wide_forest_keys_past_16_bits(self):
        # 25 root nodes of 3,000 distinct values: (node, rank) keys exceed 2^16.
        rng = np.random.default_rng(23)
        x = rng.normal(size=(3000, 4))
        labels = tuple(f"s{c}" for c in np.digitize(x[:, 0] + 0.3 * x[:, 1], [-0.5, 0.5]))
        fm = FeatureMatrix(tuple(f"f{i}" for i in range(4)), x, labels)
        assert 25 * np.unique(x[:, 0]).size > 1 << 16
        _assert_same_fit(ModelSpec("random_forest", {"n_trees": 25, "max_depth": 5}), fm, 2)


class TestMlp:
    def test_gradient_check_against_central_differences(self, rng):
        n, d, c = 12, 5, 3
        x = rng.normal(0, 1, (n, d))
        codes = rng.integers(0, c, n)
        params = mlp_init(d, (8,), c, rng)
        _, grads = mlp_loss_and_grads(params, x, codes, c)
        eps = 1e-6
        worst = 0.0
        for p, g in zip(params, grads):
            flat_p = p.ravel()
            flat_g = g.ravel()
            for i in range(flat_p.size):
                orig = flat_p[i]
                flat_p[i] = orig + eps
                up, _ = mlp_loss_and_grads(params, x, codes, c)
                flat_p[i] = orig - eps
                down, _ = mlp_loss_and_grads(params, x, codes, c)
                flat_p[i] = orig
                numeric = (up - down) / (2 * eps)
                denom = max(abs(numeric), abs(flat_g[i]), 1e-8)
                worst = max(worst, abs(numeric - flat_g[i]) / denom)
        assert worst < 1e-5

    def test_loss_decreases_monotonically_first_ten_epochs(self, rng):
        fm = _blobs(rng, n_per_class=60)
        scaled = FeatureMatrix(
            fm.feature_names,
            (fm.values - fm.values.mean(axis=0)) / fm.values.std(axis=0),
            fm.labels,
        )
        model = fit(ModelSpec("mlp", {"max_epochs": 12}), scaled, seed=4)
        curve = model.impl.loss_curve[:10]
        assert all(b < a for a, b in zip(curve, curve[1:]))

    def test_multi_hidden_layer(self, rng):
        fm = _blobs(rng, n_per_class=40)
        model = fit(
            ModelSpec("mlp", {"hidden_layers": (16, 8), "max_epochs": 150}),
            fm,
            seed=5,
        )
        assert _accuracy(model, fm) >= 0.98


def test_all_kinds_constructible():
    for kind in MODEL_KINDS:
        ModelSpec(kind)
