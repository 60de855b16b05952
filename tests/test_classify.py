import numpy as np
import pytest

import oracles
from csibio import classify
from csibio.classify import (
    ModelSpec,
    fit,
    load_model,
    mlp_init,
    mlp_loss_and_grads,
    save_model,
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
        a = fit(ModelSpec(kind, hp), fm, seed=9).predict_proba(fm)
        b = fit(ModelSpec(kind, hp), fm, seed=9).predict_proba(fm)
        assert np.array_equal(a.rows, b.rows)

    def test_save_load_round_trip(self, rng, kind, hp, tmp_path):
        fm = _blobs(rng, n_per_class=25)
        model = fit(ModelSpec(kind, hp), fm, seed=2)
        path = tmp_path / "model.bin"
        save_model(model, path)
        again = load_model(path)
        assert again.class_ids == model.class_ids
        assert np.array_equal(
            again.predict_proba(fm).rows, model.predict_proba(fm).rows
        )
        # Deterministic bytes: writing twice gives identical files.
        save_model(model, tmp_path / "model2.bin")
        assert (tmp_path / "model.bin").read_bytes() == (tmp_path / "model2.bin").read_bytes()


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


def _split_bits(split):
    return None if split is None else (split[0], np.float64(split[1]).tobytes())


class TestSplitSearchOracle:
    """The batched split search picks the per-feature search's split, bit for bit."""

    def test_matches_per_feature_search_on_tie_heavy_nodes(self):
        rng = np.random.default_rng(2005)
        for case in range(300):
            x, codes, idx, n_classes, max_features = _tie_heavy_node(rng)
            seed = int(rng.integers(2**31))
            ref_rng, new_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            expected = oracles.best_split_per_feature(x, codes, idx, n_classes, max_features,
                                                      ref_rng)
            got = classify._best_split(x, codes, idx, n_classes, max_features, new_rng)
            assert _split_bits(got) == _split_bits(expected), case
            assert new_rng.bit_generator.state == ref_rng.bit_generator.state, case

    def test_all_constant_candidates_still_draw(self):
        x = np.ones((6, 4))
        a, b = np.random.default_rng(1), np.random.default_rng(1)
        assert classify._best_split(x, np.arange(6) % 2, np.arange(6), 2, 2, a) is None
        b.choice(4, size=2, replace=False)
        assert a.bit_generator.state == b.bit_generator.state

    @pytest.mark.parametrize("kind,hyperparams", [
        ("decision_tree", {}),
        ("random_forest", {"n_trees": 6}),
        ("random_forest", {"n_trees": 3, "max_features": 1, "bootstrap": False}),
    ])
    def test_fits_save_the_per_feature_bytes(self, tmp_path, monkeypatch, kind, hyperparams):
        rng = np.random.default_rng(11)
        x = rng.integers(-3, 4, size=(120, 6)) * 0.5
        x[:, 4] = 2.0
        labels = tuple(f"s{c}" for c in rng.integers(0, 7, size=120))
        fm = FeatureMatrix(tuple(f"f{i}" for i in range(6)), x, labels)
        spec = ModelSpec(kind, hyperparams)
        save_model(fit(spec, fm, seed=5), tmp_path / "batched.bin")
        monkeypatch.setattr(classify, "_best_split", oracles.best_split_per_feature)
        save_model(fit(spec, fm, seed=5), tmp_path / "per_feature.bin")
        assert (tmp_path / "batched.bin").read_bytes() == (tmp_path / "per_feature.bin").read_bytes()


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
