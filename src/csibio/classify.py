"""From-scratch classifiers behind one train/predict-probability interface.

Five model families: k-nearest neighbors, Gaussian naive Bayes, a CART
decision tree (Gini impurity, midpoint thresholds), a bootstrap random
forest with sqrt-feature subsampling, and a feed-forward network with
ReLU hidden layers, softmax output, and momentum SGD.

Everything is deterministic given (spec, data, seed): bootstrap draws,
feature subsampling, network init, and batch shuffles all derive from
seeded generators; tie-breaks are resolved toward lower thresholds and
lower feature indices.

Models that need scale-comparable features (knn, gaussian_nb, mlp)
expect pre-standardized inputs; the evaluation harness owns that step.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DegenerateFeature, SchemaMismatch, SingleClass
from .model import JSON_TYPES, FeatureMatrix, ScoreMatrix

@dataclass(frozen=True)
class ModelSpec:
    kind: str
    hyperparams: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        impl = _IMPLS[self.kind]
        merged = dict(impl.defaults)
        unknown = set(self.hyperparams) - set(merged)
        if unknown:
            raise ValueError(f"unknown {self.kind} hyperparams: {sorted(unknown)}")
        merged.update(self.hyperparams)
        for name, default in impl.defaults.items():
            expected = type(default)  # a str default names one of several choices: check() owns it
            if expected in (bool, int, float) and not JSON_TYPES[expected](merged[name]):
                raise TypeError(f"{self.kind} hyperparam {name!r} must be a JSON "
                                f"{expected.__name__}, got {merged[name]!r}")
        impl.check(merged)
        object.__setattr__(self, "hyperparams", merged)

    def name(self) -> str:
        return self.kind


def _positive_int(v) -> bool:
    return JSON_TYPES[int](v) and v >= 1


def _validate_training(x: np.ndarray, codes: np.ndarray, n_classes: int):
    if n_classes < 2:
        raise SingleClass("training labels contain fewer than two classes")
    if not np.all(np.isfinite(x)):
        raise DegenerateFeature("feature matrix contains non-finite values")
    if x.shape[0] < n_classes:
        raise DegenerateFeature("need at least one row per class")


# --- k-nearest neighbors ----------------------------------------------------

_KNN_CHUNK_ELEMENTS = 1 << 20


class _Knn:
    defaults = {"k": 5, "weights": "uniform"}

    def __init__(self, x, codes, n_classes, k, weights):
        self.x = x
        self.codes = codes
        self.n_classes = n_classes
        self.k = min(k, x.shape[0])
        self.weights = weights

    @staticmethod
    def check(hp):
        if hp["k"] < 1:
            raise ValueError("knn requires k >= 1")
        if hp["weights"] not in ("uniform", "distance"):
            raise ValueError("knn weights must be 'uniform' or 'distance'")

    @staticmethod
    def fit(x, codes, n_classes, hp, seed):
        return _Knn(x.copy(), codes, n_classes, hp["k"], hp["weights"])

    def predict_proba(self, x):
        probs = np.zeros((x.shape[0], self.n_classes))
        # Test rows per chunk keep the [rows, n_train, d] difference array near 8 MB.
        step = max(1, _KNN_CHUNK_ELEMENTS // max(1, self.x.size))
        for start in range(0, x.shape[0], step):
            chunk = x[start : start + step]
            d2 = np.sum((chunk[:, None, :] - self.x[None, :, :]) ** 2, axis=2)
            order = np.argsort(d2, axis=1, kind="stable")[:, : self.k]
            if self.weights == "distance":
                dist = np.sqrt(np.take_along_axis(d2, order, axis=1))
                exact = dist == 0
                with np.errstate(divide="ignore"):
                    # A row with an exact match votes 1.0 per exact neighbour only.
                    w = np.where(exact.any(axis=1, keepdims=True), exact * 1.0, 1.0 / dist)
            else:
                w = 1.0
            # add.at adds in neighbour order, as a per-row loop would.
            rows = np.arange(start, start + chunk.shape[0])[:, None]
            np.add.at(probs, (rows, self.codes[order]), w)
        probs /= probs.sum(axis=1, keepdims=True)
        return probs

    def arrays(self):
        return {"x": self.x, "codes": self.codes.astype(np.int64)}

    @staticmethod
    def from_arrays(arrays, hp, n_classes):
        return _Knn(arrays["x"], arrays["codes"].astype(np.intp), n_classes,
                    hp["k"], hp["weights"])


# --- Gaussian naive Bayes ---------------------------------------------------

class _GaussianNb:
    defaults = {"var_smoothing": 1e-9}

    def __init__(self, priors, means, variances):
        self.priors = priors
        self.means = means
        self.variances = variances

    @staticmethod
    def check(hp):
        pass

    @staticmethod
    def fit(x, codes, n_classes, hp, seed):
        n, d = x.shape
        priors = np.bincount(codes, minlength=n_classes) / n
        means = np.zeros((n_classes, d))
        variances = np.zeros((n_classes, d))
        for c in range(n_classes):
            xc = x[codes == c]
            means[c] = xc.mean(axis=0)
            variances[c] = xc.var(axis=0)
        # Variance floor keeps zero-variance features usable.
        floor = hp["var_smoothing"] * max(float(x.var(axis=0).max()), 1.0)
        variances += floor
        return _GaussianNb(priors, means, variances)

    def predict_proba(self, x):
        log_lik = -0.5 * (
            np.log(2.0 * np.pi * self.variances[None, :, :])
            + (x[:, None, :] - self.means[None, :, :]) ** 2 / self.variances[None, :, :]
        ).sum(axis=2)
        log_post = log_lik + np.log(self.priors)[None, :]
        log_post -= log_post.max(axis=1, keepdims=True)
        probs = np.exp(log_post)
        return probs / probs.sum(axis=1, keepdims=True)

    def arrays(self):
        return {"priors": self.priors, "means": self.means, "variances": self.variances}

    @staticmethod
    def from_arrays(arrays, hp, n_classes):
        return _GaussianNb(arrays["priors"], arrays["means"], arrays["variances"])


# --- CART decision tree -----------------------------------------------------

class _Tree:
    """Flat-array binary tree: feature < 0 marks a leaf."""

    defaults = {"max_depth": None, "min_samples_split": 2}

    def __init__(self, feature, threshold, left, right, probs):
        self.feature = feature
        self.threshold = threshold
        self.left = left
        self.right = right
        self.probs = probs

    @staticmethod
    def check(hp):
        if hp["max_depth"] is not None and not _positive_int(hp["max_depth"]):
            raise ValueError("max_depth must be an integer >= 1 or None for unlimited")

    @staticmethod
    def fit(x, codes, n_classes, hp, seed, max_features=None, rng=None):
        """Grow one tree; a forest passes its feature subsampling and rng."""
        max_depth, min_samples_split = hp["max_depth"], hp["min_samples_split"]
        n, d = x.shape
        feature: list[int] = []
        threshold: list[float] = []
        left: list[int] = []
        right: list[int] = []
        probs: list[np.ndarray] = []

        def leaf(idx):
            counts = np.bincount(codes[idx], minlength=n_classes).astype(float)
            node = len(feature)
            feature.append(-1)
            threshold.append(0.0)
            left.append(-1)
            right.append(-1)
            probs.append(counts / counts.sum())
            return node

        def grow(idx, depth):
            counts = np.bincount(codes[idx], minlength=n_classes)
            if (
                (max_depth is not None and depth >= max_depth)
                or idx.shape[0] < min_samples_split
                or np.count_nonzero(counts) <= 1
            ):
                return leaf(idx)
            split = _best_split(x, codes, idx, n_classes, max_features, rng)
            if split is None:
                return leaf(idx)
            f, thr = split
            node = len(feature)
            feature.append(f)
            threshold.append(thr)
            left.append(-1)
            right.append(-1)
            probs.append(np.zeros(n_classes))
            go_left = x[idx, f] <= thr
            left[node] = grow(idx[go_left], depth + 1)
            right[node] = grow(idx[~go_left], depth + 1)
            return node

        grow(np.arange(n), 0)
        return _Tree(
            np.array(feature, dtype=np.int64),
            np.array(threshold, dtype=np.float64),
            np.array(left, dtype=np.int64),
            np.array(right, dtype=np.int64),
            np.vstack(probs),
        )

    def predict_proba(self, x):
        out = np.empty(x.shape[0], dtype=np.intp)
        stack = [(0, np.arange(x.shape[0]))]
        while stack:
            node, idx = stack.pop()
            if idx.size == 0:
                continue
            if self.feature[node] < 0:
                out[idx] = node
                continue
            go_left = x[idx, self.feature[node]] <= self.threshold[node]
            stack.append((self.left[node], idx[go_left]))
            stack.append((self.right[node], idx[~go_left]))
        return self.probs[out]

    def arrays(self, prefix=""):
        return {
            f"{prefix}feature": self.feature,
            f"{prefix}threshold": self.threshold,
            f"{prefix}left": self.left,
            f"{prefix}right": self.right,
            f"{prefix}probs": self.probs,
        }

    @staticmethod
    def from_arrays(arrays, hp, n_classes, prefix=""):
        return _Tree(
            arrays[f"{prefix}feature"],
            arrays[f"{prefix}threshold"],
            arrays[f"{prefix}left"],
            arrays[f"{prefix}right"],
            arrays[f"{prefix}probs"],
        )


def _best_split(x, codes, idx, n_classes, max_features, rng):
    """Lowest weighted Gini cost over candidate (feature, midpoint) splits.

    Ties resolve toward the lower threshold, then the lower feature
    index. All candidate features are scored at once as [m, n] arrays in
    each feature's stable sort order.
    """
    n, d = idx.shape[0], x.shape[1]
    if max_features is None or max_features >= d:
        candidates = np.arange(d)
    else:
        candidates = np.sort(rng.choice(d, size=max_features, replace=False))
    rows = np.arange(len(candidates))[:, None]
    cols = x.T[candidates[:, None], idx]
    order = cols.argsort(axis=1, kind="stable")
    xs = cols[rows, order]
    distinct = xs[:, :-1] != xs[:, 1:]  # [m, n - 1]: boundary after sorted row p
    if not distinct.any():
        return None
    node_codes = codes[idx]
    ys = node_codes[order]
    totals = np.bincount(node_codes, minlength=n_classes)
    starts = totals.cumsum() - totals
    # Rows grouped by class, in sort order within each class (a radix sort on small codes).
    by_class = ys.astype(np.min_scalar_type(n_classes)).argsort(axis=1, kind="stable")
    slot_class = np.repeat(np.arange(n_classes), totals)
    rank = np.empty_like(by_class)
    rank[rows, by_class] = np.arange(n) - starts[slot_class]
    # S_l grows by 2 * rank + 1 per row; S_r = sum T^2 - 2 sum_c T_c L_c + S_l.
    s_left = (2 * rank + 1).cumsum(axis=1)[:, :-1]
    s_right = totals @ totals - 2 * totals[ys].cumsum(axis=1)[:, :-1] + s_left
    # n * cost from the exact S_l and S_r is off by a few ulp, and so is the
    # Gini expression below, whose float value sets the tie-breaks. Both
    # errors are far below 1e-9 * n, so every boundary left off this
    # shortlist has a larger float cost than the one chosen.
    nl = np.arange(1.0, n)
    bound = np.where(distinct, n - s_left / nl - s_right / (n - nl), np.inf)
    f_i, p_i = np.nonzero(bound <= bound.min() + 1e-9 * n)

    # Left class counts of each shortlisted boundary, from the class-grouped order.
    keys = ((rows * n_classes + slot_class) * n + by_class).ravel()
    queries = (f_i[:, None] * n_classes + np.arange(n_classes)) * n + p_i[:, None]
    left_counts = (np.searchsorted(keys, queries, side="right")
                   - (f_i[:, None] * n + starts)).astype(float)
    nl = (p_i + 1).astype(float)
    nr = n - nl
    right_counts = totals.astype(float)[None, :] - left_counts
    gini_l = 1.0 - np.sum((left_counts / nl[:, None]) ** 2, axis=1)
    gini_r = 1.0 - np.sum((right_counts / nr[:, None]) ** 2, axis=1)
    cost = (nl * gini_l + nr * gini_r) / n
    thresholds = 0.5 * (xs[f_i, p_i] + xs[f_i, p_i + 1])
    j = np.lexsort((thresholds, cost))[0]  # stable: the lower feature wins a full tie
    return int(candidates[f_i[j]]), thresholds[j]


# --- random forest ------------------------------------------------------------

class _Forest:
    defaults = {
        "n_trees": 50,
        "max_depth": None,
        "min_samples_split": 2,
        "max_features": "sqrt",
        "bootstrap": True,
    }

    def __init__(self, trees):
        self.trees = trees

    @staticmethod
    def check(hp):
        _Tree.check(hp)
        if hp["n_trees"] < 1:
            raise ValueError("random_forest requires n_trees >= 1")
        if hp["max_features"] not in ("sqrt", None) and not _positive_int(hp["max_features"]):
            raise ValueError("random_forest max_features must be 'sqrt', None or an integer >= 1")

    @staticmethod
    def fit(x, codes, n_classes, hp, seed):
        n, d = x.shape
        if hp["max_features"] == "sqrt":
            max_features = max(1, int(np.sqrt(d)))
        else:
            max_features = hp["max_features"]
        trees = []
        for i in range(hp["n_trees"]):
            rng = np.random.default_rng([seed, i])
            idx = rng.integers(0, n, size=n) if hp["bootstrap"] else np.arange(n)
            trees.append(_Tree.fit(x[idx], codes[idx], n_classes, hp, seed, max_features, rng))
        return _Forest(trees)

    def predict_proba(self, x):
        acc = self.trees[0].predict_proba(x).copy()
        for tree in self.trees[1:]:
            acc += tree.predict_proba(x)
        return acc / len(self.trees)

    def arrays(self):
        out = {"n_trees": np.array([len(self.trees)], dtype=np.int64)}
        for i, tree in enumerate(self.trees):
            out.update(tree.arrays(prefix=f"t{i}_"))
        return out

    @staticmethod
    def from_arrays(arrays, hp, n_classes):
        trees = range(int(arrays["n_trees"][0]))
        return _Forest([_Tree.from_arrays(arrays, hp, n_classes, f"t{i}_") for i in trees])


# --- multi-layer perceptron ---------------------------------------------------

def mlp_init(n_features: int, hidden_layers: Sequence[int], n_classes: int,
             rng: np.random.Generator) -> list[np.ndarray]:
    """He-initialized parameter list [W0, b0, W1, b1, ...]."""
    sizes = [n_features, *hidden_layers, n_classes]
    params: list[np.ndarray] = []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        params.append(rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_in, fan_out)))
        params.append(np.zeros(fan_out))
    return params


def mlp_forward(params: list[np.ndarray], x: np.ndarray):
    """Return (softmax probabilities, list of post-ReLU activations)."""
    activations = [x]
    h = x
    n_layers = len(params) // 2
    for layer in range(n_layers):
        w, b = params[2 * layer], params[2 * layer + 1]
        z = h @ w + b
        h = np.maximum(z, 0.0) if layer < n_layers - 1 else z
        activations.append(h)
    logits = activations[-1]
    logits = logits - logits.max(axis=1, keepdims=True)
    expz = np.exp(logits)
    probs = expz / expz.sum(axis=1, keepdims=True)
    return probs, activations


def mlp_loss_and_grads(params: list[np.ndarray], x: np.ndarray, codes: np.ndarray,
                       n_classes: int) -> tuple[float, list[np.ndarray]]:
    """Mean cross-entropy and its analytic gradient for every parameter."""
    n = x.shape[0]
    probs, activations = mlp_forward(params, x)
    loss = float(-np.mean(np.log(probs[np.arange(n), codes] + 1e-300)))
    delta = probs.copy()
    delta[np.arange(n), codes] -= 1.0
    delta /= n
    grads: list[np.ndarray] = [None] * len(params)
    n_layers = len(params) // 2
    for layer in range(n_layers - 1, -1, -1):
        a_prev = activations[layer]
        grads[2 * layer] = a_prev.T @ delta
        grads[2 * layer + 1] = delta.sum(axis=0)
        if layer > 0:
            delta = (delta @ params[2 * layer].T) * (activations[layer] > 0)
    return loss, grads


class _Mlp:
    defaults = {
        "hidden_layers": (64,),
        "learning_rate": 0.01,
        "momentum": 0.9,
        "batch_size": 32,
        "max_epochs": 300,
        "patience": 20,
        "tol": 1e-6,
    }

    def __init__(self, params, n_classes):
        self.params = params
        self.n_classes = n_classes
        self.loss_curve: list[float] = []

    @staticmethod
    def check(hp):
        layers = hp["hidden_layers"]
        if not isinstance(layers, (list, tuple)) or not layers \
                or not all(_positive_int(h) for h in layers):
            raise ValueError("mlp requires >= 1 hidden layer with integer sizes >= 1")
        hp["hidden_layers"] = tuple(int(h) for h in layers)

    @staticmethod
    def fit(x, codes, n_classes, hp, seed):
        rng = np.random.default_rng(seed)
        params = mlp_init(x.shape[1], hp["hidden_layers"], n_classes, rng)
        velocity = [np.zeros_like(p) for p in params]
        model = _Mlp(params, n_classes)
        n = x.shape[0]
        batch = min(hp["batch_size"], n)
        best_loss = np.inf
        stale = 0
        for _epoch in range(hp["max_epochs"]):
            order = rng.permutation(n)
            for start in range(0, n, batch):
                idx = order[start : start + batch]
                _, grads = mlp_loss_and_grads(params, x[idx], codes[idx], n_classes)
                for p, v, g in zip(params, velocity, grads):
                    v *= hp["momentum"]
                    v -= hp["learning_rate"] * g
                    p += v
            loss, _ = mlp_loss_and_grads(params, x, codes, n_classes)
            model.loss_curve.append(loss)
            if loss < best_loss - hp["tol"]:
                best_loss = loss
                stale = 0
            else:
                stale += 1
                if stale >= hp["patience"]:
                    break
        return model

    def predict_proba(self, x):
        probs, _ = mlp_forward(self.params, x)
        return probs

    def arrays(self):
        out = {"n_params": np.array([len(self.params)], dtype=np.int64)}
        for i, p in enumerate(self.params):
            out[f"p{i}"] = p
        return out

    @staticmethod
    def from_arrays(arrays, hp, n_classes):
        n_params = int(arrays["n_params"][0])
        return _Mlp([arrays[f"p{i}"] for i in range(n_params)], n_classes)


# The one place a model kind is registered. Each class carries its default
# hyperparameters and the shared interface: check(hp) validates merged
# hyperparameters in place, fit(x, codes, n_classes, hp, seed) and
# from_arrays(arrays, hp, n_classes) build an instance, which provides
# predict_proba(x) and arrays().
_IMPLS = {
    "knn": _Knn,
    "gaussian_nb": _GaussianNb,
    "decision_tree": _Tree,
    "random_forest": _Forest,
    "mlp": _Mlp,
}
MODEL_KINDS = tuple(_IMPLS)


@dataclass(frozen=True)
class TrainedModel:
    spec: ModelSpec
    class_ids: tuple[str, ...]
    feature_names: tuple[str, ...]
    impl: object

    def predict_proba(self, matrix: FeatureMatrix) -> ScoreMatrix:
        """Score every row; true labels are carried through from the matrix."""
        if matrix.feature_names != self.feature_names:
            raise SchemaMismatch(
                f"expected features {self.feature_names}, got {matrix.feature_names}"
            )
        probs = self.impl.predict_proba(matrix.values)
        return ScoreMatrix(self.class_ids, probs, matrix.labels)


def fit(spec: ModelSpec, matrix: FeatureMatrix, y: Sequence[str] | None = None) -> TrainedModel:
    """Train one model on a feature matrix; labels default to the matrix's own."""
    labels = tuple(y) if y is not None else matrix.labels
    class_ids, codes = np.unique(np.asarray(labels), return_inverse=True)
    x = matrix.values
    _validate_training(x, codes, len(class_ids))
    impl = _IMPLS[spec.kind].fit(x, codes, len(class_ids), spec.hyperparams, spec.seed)
    return TrainedModel(spec, tuple(str(c) for c in class_ids), matrix.feature_names, impl)


# --- versioned binary container ----------------------------------------------

_MODEL_MAGIC = b"CSIBMDL1"


def save_model(model: TrainedModel, path) -> None:
    """Write a deterministic versioned container: JSON header + raw arrays."""
    arrays = model.impl.arrays()
    manifest = []
    blobs = []
    for name in arrays:
        arr = np.ascontiguousarray(arrays[name])
        dtype = arr.dtype.newbyteorder("<")
        blobs.append(arr.astype(dtype, copy=False).tobytes())
        manifest.append({"name": name, "shape": list(arr.shape), "dtype": dtype.str})
    header = {
        "format_version": 1,
        "kind": model.spec.kind,
        "hyperparams": model.spec.hyperparams,
        "seed": model.spec.seed,
        "class_ids": list(model.class_ids),
        "feature_names": list(model.feature_names),
        "arrays": manifest,
    }
    payload = json.dumps(header, sort_keys=True).encode()
    with open(path, "wb") as fh:
        fh.write(_MODEL_MAGIC)
        fh.write(struct.pack("<I", len(payload)))
        fh.write(payload)
        for blob in blobs:
            fh.write(blob)


def load_model(path) -> TrainedModel:
    with open(path, "rb") as fh:
        magic = fh.read(len(_MODEL_MAGIC))
        if magic != _MODEL_MAGIC:
            raise ValueError(f"not a model container: bad magic {magic!r}")
        (header_len,) = np.frombuffer(fh.read(4), dtype="<u4")
        header = json.loads(fh.read(int(header_len)).decode())
        if header["format_version"] != 1:
            raise ValueError(f"unsupported model format {header['format_version']}")
        arrays = {}
        for entry in header["arrays"]:
            count = int(np.prod(entry["shape"])) if entry["shape"] else 1
            dtype = np.dtype(entry["dtype"])
            raw = fh.read(count * dtype.itemsize)
            arrays[entry["name"]] = np.frombuffer(raw, dtype=dtype).reshape(entry["shape"])
    spec = ModelSpec(header["kind"], header["hyperparams"], header["seed"])
    impl = _IMPLS[spec.kind].from_arrays(arrays, spec.hyperparams, len(header["class_ids"]))
    return TrainedModel(
        spec, tuple(header["class_ids"]), tuple(header["feature_names"]), impl
    )
