"""From-scratch classifiers behind one train/predict-probability interface.

Five model families: k-nearest neighbors, Gaussian naive Bayes, a CART
decision tree (Gini impurity, midpoint thresholds), a bootstrap random
forest with sqrt-feature subsampling, and a feed-forward network with
ReLU hidden layers, softmax output, and momentum SGD.

Everything is deterministic given (spec, data, seed): ``fit`` takes the
seed, and the evaluation harness passes its protocol seed. Bootstrap draws,
feature subsampling, network init, and batch shuffles all derive from
seeded generators; tie-breaks are resolved toward lower thresholds and
lower feature indices.

A decision tree is the one-tree case of the forest's grower, which grows
every tree in lockstep: each step takes the next node that needs a split
from each tree's own depth-first stack and scores them all in one
segmented split search. Nodes are sorted by each column's dense value
rank, computed once per fit, so no node argsorts its values; each tree's
nodes are born, and its draws made, in the preorder of a tree grown alone.

Models that need scale-comparable features (knn, gaussian_nb, mlp)
expect pre-standardized inputs; the evaluation harness owns that step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DegenerateFeature, Diverged, SchemaMismatch, SingleClass
from .model import JSON_TYPES, FeatureMatrix, ScoreMatrix

@dataclass(frozen=True)
class ModelSpec:
    kind: str
    hyperparams: dict = field(default_factory=dict)

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


# --- Gaussian naive Bayes ---------------------------------------------------

class _GaussianNb:
    defaults = {"var_smoothing": 1e-9}

    def __init__(self, priors, means, variances):
        self.priors = priors
        self.means = means
        self.variances = variances

    @staticmethod
    def check(hp):
        if hp["var_smoothing"] < 0:
            raise ValueError("gaussian_nb requires var_smoothing >= 0")

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


# --- CART decision tree -----------------------------------------------------

class _Tree:
    """Flat-array binary tree in depth-first preorder: feature < 0 marks a leaf."""

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
        if hp["min_samples_split"] < 2:
            raise ValueError("min_samples_split must be an integer >= 2")

    @staticmethod
    def fit(x, codes, n_classes, hp, seed):
        return _grow(x, codes, n_classes, hp, np.arange(x.shape[0])[None, :], None, [None])[0]

    def predict_proba(self, x):
        # Every row not yet at a leaf steps down one level per pass.
        node = np.zeros(x.shape[0], dtype=np.intp)
        inner = np.arange(x.shape[0])
        while inner.size:
            inner = inner[self.feature[node[inner]] >= 0]
            n = node[inner]
            node[inner] = np.where(x[inner, self.feature[n]] <= self.threshold[n],
                                   self.left[n], self.right[n])
        return self.probs[node]

    @staticmethod
    def from_nodes(nodes):
        """Build from [feature, threshold, left, right, class counts] node records.

        The records are in depth-first preorder; a leaf's probabilities are
        its class shares, and an inner node's are zero.
        """
        feature, threshold, left, right, counts = zip(*nodes)
        feature = np.array(feature, dtype=np.int64)
        counts = np.array(counts)
        probs = counts / counts.sum(axis=1, keepdims=True)
        probs[feature >= 0] = 0.0
        return _Tree(feature, np.array(threshold, dtype=np.float64),
                     np.array(left, dtype=np.int64), np.array(right, dtype=np.int64), probs)


class _Sample:
    """The forest-level tables that the split search reads by flat index.

    Position i of tree t's sample is flat position t * n + i; ``rows`` maps
    it to its training row and ``codes`` to its class. ``rank`` is each
    entry's dense rank within its column of ``x`` (equal values share a
    rank). A node's positions stay in increasing order, so a stable sort of
    a node by rank is the stable sort of its values. For 50 trees of 800
    rows and 16 features the tables take about 0.4 MB: rank 26 KB (uint16),
    rows 320 KB (int64), codes 40 KB (uint8).
    """

    def __init__(self, x, samples, codes, n_classes):
        order = x.argsort(axis=0, kind="stable")
        xs = np.take_along_axis(x, order, axis=0)
        dense = np.zeros(x.shape, dtype=np.intp)
        dense[1:] = (xs[1:] != xs[:-1]).cumsum(axis=0)
        self.n_ranks = int(dense.max(initial=0)) + 1
        self.rank = np.empty(x.shape, dtype=np.min_scalar_type(self.n_ranks - 1))
        np.put_along_axis(self.rank, order, dense, axis=0)
        self.x = x
        self.rows = samples.ravel()
        self.codes = codes[self.rows].astype(np.min_scalar_type(n_classes - 1))


# Most [m, N] elements one split search scores (about 2 MB an int64 array).
# A larger step is scored in runs of consecutive nodes, each at most this
# plus one node; nodes do not depend on their run, so the bits stay the same.
_SPLIT_CHUNK_ELEMENTS = 1 << 18


def _grow(x, codes, n_classes, hp, samples, max_features, rngs):
    """Grow one tree per row of ``samples`` (training rows), all trees in lockstep.

    Each step, each tree pops its own depth-first stack up to the first node
    that needs a split, making leaves on the way. A node is recorded when it
    is popped and its children are pushed before the next step, so records
    and rng draws come in the preorder of a tree grown alone. One
    ``_best_splits`` call scores the step's nodes (a few calls when they
    exceed ``_SPLIT_CHUNK_ELEMENTS``).
    """
    max_depth, min_samples_split = hp["max_depth"], hp["min_samples_split"]
    n_trees, n = samples.shape
    d = x.shape[1]
    sample = _Sample(x, samples, codes, n_classes)
    trees = [[] for _ in range(n_trees)]
    # A stack entry: (flat positions, depth, class counts, parent node, slot in its record).
    stacks = [[(t * n + np.arange(n), 0, np.bincount(codes[samples[t]], minlength=n_classes),
                -1, 0)] for t in range(n_trees)]
    while True:
        batch = []
        for t, stack in enumerate(stacks):
            nodes = trees[t]
            while stack:
                pos, depth, counts, parent, slot = stack.pop()
                if parent >= 0:
                    nodes[parent][slot] = len(nodes)
                nodes.append([-1, 0.0, -1, -1, counts])
                if (
                    (max_depth is not None and depth >= max_depth)
                    or pos.shape[0] < min_samples_split
                    or np.count_nonzero(counts) <= 1
                ):
                    continue
                batch.append((t, len(nodes) - 1, pos, depth, counts))
                break
        if not batch:
            return [_Tree.from_nodes(nodes) for nodes in trees]
        candidates = np.array([_candidates(d, max_features, rngs[t]) for t, *_ in batch])
        sizes = np.array([p.shape[0] for _, _, p, _, _ in batch])
        bucket = (sizes.cumsum() - sizes) * candidates.shape[1] // _SPLIT_CHUNK_ELEMENTS
        cuts = [0, *(np.flatnonzero(np.diff(bucket)) + 1), len(batch)]
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            part = batch[lo:hi]
            totals = np.array([counts for *_, counts in part])
            starts = sizes[lo:hi].cumsum() - sizes[lo:hi]
            pos = np.concatenate([p for _, _, p, _, _ in part])
            feature, threshold, left_counts = _best_splits(sample, pos, starts, totals,
                                                           candidates[lo:hi])
            for (t, node, node_pos, depth, counts), f, thr, lc in zip(
                    part, feature, threshold, left_counts):
                if f < 0:
                    continue
                trees[t][node][:2] = int(f), thr
                g = x[sample.rows[node_pos], f] <= thr
                stacks[t].append((node_pos[~g], depth + 1, counts - lc, node, 3))
                stacks[t].append((node_pos[g], depth + 1, lc, node, 2))


def _candidates(d, max_features, rng):
    """A node's sorted candidate features: a draw from its tree's rng, or all of them."""
    if max_features is None or max_features >= d:
        return np.arange(d)
    return np.sort(rng.choice(d, size=max_features, replace=False))


def _best_splits(sample, pos, starts, totals, candidates):
    """Lowest weighted Gini cost (feature, midpoint) split of each node in a batch.

    Node s holds the flat positions ``pos[starts[s]:starts[s] + n_s]`` in
    increasing order, class counts ``totals[s]`` and sorted candidate
    features ``candidates[s]``. All nodes and candidates are scored at once
    as segments of [m, N] arrays in each node's stable value order. Ties
    resolve toward the lower threshold, then the lower feature index.
    Returns per node the feature (-1 when every candidate column is
    constant), the threshold and the left class counts.
    """
    n_nodes, n_classes = totals.shape
    big_n = pos.shape[0]
    sizes = totals.sum(axis=1)
    seg = np.repeat(np.arange(n_nodes), sizes)  # the node of each batch row
    rows = sample.rows[pos]
    line = np.arange(candidates.shape[1])[:, None]
    # (node, rank) keys: a radix sort while they fit in 16 bits.
    key = (seg * sample.n_ranks).astype(np.min_scalar_type(n_nodes * sample.n_ranks - 1))
    key = key + sample.rank[rows, candidates[seg].T]
    order = key.argsort(axis=1, kind="stable")
    key = np.take_along_axis(key, order, axis=1)
    distinct = key[:, :-1] != key[:, 1:]  # [m, N - 1]: boundary after sorted row p
    distinct[:, starts[1:] - 1] = False  # the last row of a node bounds nothing
    ys = sample.codes[pos][order]
    # Rows grouped by (node, class), in sort order within each group.
    group = (seg * n_classes).astype(np.min_scalar_type(n_nodes * n_classes - 1)) + ys
    by_class = group.argsort(axis=1, kind="stable")
    flat_totals = totals.ravel()
    slot = np.repeat(np.arange(flat_totals.shape[0]), flat_totals)
    group_start = flat_totals.cumsum() - flat_totals
    rank = np.empty_like(by_class)
    rank[line, by_class] = np.arange(big_n) - group_start[slot]
    # S_l grows by 2 * rank + 1 per row; S_r = sum T^2 - 2 sum_c T_c L_c + S_l.
    # Both cumsums run over the whole batch, so each node's share starts after
    # the sum of T^2 over the nodes before it. In-place steps keep the [m, N]
    # temporaries few.
    squares = np.sum(totals * totals, axis=1)
    before = (squares.cumsum() - squares)[seg[:-1]]
    rank *= 2
    rank += 1
    s_left = rank.cumsum(axis=1)[:, :-1]
    del rank
    s_left -= before
    s_right = flat_totals[group].cumsum(axis=1)[:, :-1]
    s_right -= before
    s_right *= -2
    s_right += squares[seg[:-1]]
    s_right += s_left
    # n * cost from the exact S_l and S_r is off by a few ulp, and so is the
    # Gini expression below, whose float value sets the tie-breaks. Both
    # errors are far below 1e-9 * n, so every boundary left off this
    # shortlist has a larger float cost than the one chosen.
    n = sizes[seg[:-1]]
    nl = (np.arange(1, big_n) - starts[seg[:-1]]).astype(float)
    with np.errstate(divide="ignore", invalid="ignore"):  # nr is 0 at a node's last row
        bound = np.subtract(n, s_left / nl)
        del s_left
        bound -= s_right / (n - nl)
    del s_right
    bound[~distinct] = np.inf
    best = np.minimum.reduceat(bound.min(axis=0, initial=np.inf), starts)
    limit = np.where(np.isfinite(best), best + 1e-9 * sizes, -np.inf)
    f_i, p_i = np.nonzero(bound <= limit[seg[:-1]])
    s_i = seg[p_i]

    # Left class counts of each shortlisted boundary, from the class-grouped order.
    keys = line * flat_totals.shape[0] + slot
    keys *= big_n
    keys += by_class
    keys = keys.ravel()
    groups = s_i[:, None] * n_classes + np.arange(n_classes)
    queries = (f_i[:, None] * flat_totals.shape[0] + groups) * big_n + p_i[:, None]
    left_counts = (np.searchsorted(keys, queries, side="right")
                   - (f_i[:, None] * big_n + group_start[groups])).astype(float)
    n = sizes[s_i]
    nl = (p_i - starts[s_i] + 1).astype(float)
    nr = n - nl
    right_counts = totals[s_i] - left_counts
    gini_l = 1.0 - np.sum((left_counts / nl[:, None]) ** 2, axis=1)
    gini_r = 1.0 - np.sum((right_counts / nr[:, None]) ** 2, axis=1)
    cost = (nl * gini_l + nr * gini_r) / n
    feats = candidates[s_i, f_i]
    thresholds = 0.5 * (sample.x[rows[order[f_i, p_i]], feats]
                        + sample.x[rows[order[f_i, p_i + 1]], feats])
    j = np.lexsort((thresholds, cost, s_i))  # stable: the lower feature wins a full tie
    first = np.ones(j.shape[0], dtype=bool)
    first[1:] = s_i[j[1:]] != s_i[j[:-1]]
    j = j[first]  # the best boundary of each node with one
    feature = np.full(n_nodes, -1)
    feature[s_i[j]] = feats[j]
    threshold = np.zeros(n_nodes)
    threshold[s_i[j]] = thresholds[j]
    left = np.zeros_like(totals)
    left[s_i[j]] = left_counts[j]
    return feature, threshold, left


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
        rngs = [np.random.default_rng([seed, i]) for i in range(hp["n_trees"])]
        samples = np.array([rng.integers(0, n, size=n) if hp["bootstrap"] else np.arange(n)
                            for rng in rngs])
        return _Forest(_grow(x, codes, n_classes, hp, samples, max_features, rngs))

    def predict_proba(self, x):
        return sum(tree.predict_proba(x) for tree in self.trees) / len(self.trees)


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
        for name in ("batch_size", "max_epochs", "patience"):
            if hp[name] < 1:
                raise ValueError(f"mlp requires {name} >= 1")
        if not hp["learning_rate"] > 0:
            raise ValueError("mlp requires learning_rate > 0")
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
        for epoch in range(hp["max_epochs"]):
            order = rng.permutation(n)
            # A diverging epoch overflows quietly here and is caught below.
            with np.errstate(over="ignore", invalid="ignore"):
                for start in range(0, n, batch):
                    idx = order[start : start + batch]
                    _, grads = mlp_loss_and_grads(params, x[idx], codes[idx], n_classes)
                    for p, v, g in zip(params, velocity, grads):
                        v *= hp["momentum"]
                        v -= hp["learning_rate"] * g
                        p += v
                loss, _ = mlp_loss_and_grads(params, x, codes, n_classes)
            if not (np.isfinite(loss) and all(np.isfinite(p).all() for p in params)):
                raise Diverged(f"mlp training diverged in epoch {epoch + 1}: non-finite "
                               "loss or parameters (try a smaller learning_rate)")
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


# The one place a model kind is registered. Each class carries its default
# hyperparameters and the shared interface: check(hp) validates merged
# hyperparameters in place, fit(x, codes, n_classes, hp, seed) builds an
# instance, and the instance provides predict_proba(x).
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


def fit(spec: ModelSpec, matrix: FeatureMatrix, seed: int = 0) -> TrainedModel:
    """Train one model on a feature matrix and its labels; ``seed`` drives every draw."""
    class_ids, codes = np.unique(np.asarray(matrix.labels), return_inverse=True)
    x = matrix.values
    _validate_training(x, codes, len(class_ids))
    impl = _IMPLS[spec.kind].fit(x, codes, len(class_ids), spec.hyperparams, seed)
    return TrainedModel(spec, tuple(str(c) for c in class_ids), matrix.feature_names, impl)
