"""Independent reference implementations used as test oracles.

Most of what is here is a deliberately naive transcription of the
defining formulas: explicit Python loops over matrix entries, pairwise
counting for rank statistics, exhaustive threshold sweeps. No code is
shared with the package implementations and no algebraic shortcuts are
taken, so agreement is meaningful evidence. The classifier references
are instead the code that the batched versions replaced, compared byte
for byte: the per-feature split search, the recursive per-node tree
grower with its split search over all candidate features at once, and
the per-row knn vote. So are the preprocessing references: the rolling
MAD by two sorts per window, the per-row np.interp repair, and the
per-frame pcap decode.
"""

from __future__ import annotations

import math

import numpy as np

EPS = 1e-12


# --- feature references -------------------------------------------------------

def _amp(values):
    return [[abs(v) for v in row] for row in values]


def _phase(values):
    return [[math.atan2(v.imag, v.real) for v in row] for row in values]


def _mean(xs):
    return sum(xs) / len(xs)


def _sample_std(xs):
    m = _mean(xs)
    return math.sqrt(sum((x - m) ** 2 for x in xs) / (len(xs) - 1))


def _pop_std(xs):
    m = _mean(xs)
    return math.sqrt(sum((x - m) ** 2 for x in xs) / len(xs))


def _skew(xs, epsilon=EPS):
    m = _mean(xs)
    s = _pop_std(xs)
    if s < epsilon:
        return 0.0
    return _mean([(x - m) ** 3 for x in xs]) / s**3


def _kurt(xs, epsilon=EPS):
    m = _mean(xs)
    s = _pop_std(xs)
    if s < epsilon:
        return 0.0
    return _mean([(x - m) ** 4 for x in xs]) / s**4 - 3.0


def reference_features(values, freqs, epsilon=EPS) -> dict[str, float]:
    """All 34 descriptors computed with explicit loops; values is K x T complex."""
    K = len(values)
    T = len(values[0])
    amp = _amp(values)
    phase = _phase(values)
    out: dict[str, float] = {}

    # amplitude
    k_means = [_mean(amp[k]) for k in range(K)]
    k_vars = [sum((a - k_means[k]) ** 2 for a in amp[k]) / (T - 1) for k in range(K)]
    amp_mean = _mean(k_means)
    amp_var_mean = _mean(k_vars)
    out["amp_mean"] = amp_mean
    out["amp_mean_std"] = math.sqrt(
        sum((m - amp_mean) ** 2 for m in k_means) / (K - 1)
    )
    out["amp_var_mean"] = amp_var_mean
    out["amp_var_std"] = math.sqrt(
        sum((v - amp_var_mean) ** 2 for v in k_vars) / (K - 1)
    )
    out["amp_skew_mean"] = _mean([_skew(amp[k], epsilon) for k in range(K)])
    out["amp_kurt_mean"] = _mean([_kurt(amp[k], epsilon) for k in range(K)])

    # phase
    out["phase_mean_mean"] = _mean([_mean(phase[k]) for k in range(K)])
    p_stds = [_sample_std(phase[k]) for k in range(K)]
    psm = _mean(p_stds)
    out["phase_std_mean"] = psm
    out["phase_std_std"] = math.sqrt(sum((s - psm) ** 2 for s in p_stds) / (K - 1))
    dphi = [
        [phase[k + 1][t] - phase[k][t] for t in range(T)] for k in range(K - 1)
    ]
    d_stds = [_sample_std(dphi[k]) for k in range(K - 1)]
    dsm = _mean(d_stds)
    out["dphi_std_mean"] = dsm
    out["dphi_std_std"] = math.sqrt(sum((s - dsm) ** 2 for s in d_stds) / (K - 2))

    # energy
    energies = [_mean([a**2 for a in amp[k]]) for k in range(K)]
    total_e = sum(energies)
    out["energy_mean"] = _mean(energies)
    out["energy_skewness"] = _skew(energies, epsilon)
    out["energy_kurtosis"] = _kurt(energies, epsilon)
    out["energy_entropy"] = -sum(
        (e / total_e) * math.log2(e / total_e) for e in energies if e > 0
    )

    # spectral (time-averaged magnitude)
    hbar = [_mean(amp[k]) for k in range(K)]
    total_h = sum(hbar)
    out["spec_centroid"] = sum(freqs[k] * hbar[k] for k in range(K)) / total_h
    out["spec_entropy"] = -sum(
        (h / total_h) * math.log2(h / total_h) for h in hbar if h > 0
    )
    floored = [max(h, epsilon) for h in hbar]
    product = 1.0
    for h in floored:
        product *= h
    out["spec_flatness"] = product ** (1.0 / K) / _mean(floored)
    centroid_amp = sum((k + 1) * hbar[k] for k in range(K)) / total_h
    out["spectral_centroid_amp"] = centroid_amp
    out["spectral_width"] = math.sqrt(
        sum((k + 1 - centroid_amp) ** 2 * hbar[k] for k in range(K)) / total_h
    )

    # empirical energy split
    mu_e = _mean(energies)
    above = [e for e in energies if e >= mu_e]
    below = [e for e in energies if e < mu_e]
    if not below:
        reflected, absorbed = 1.0, 1.0
    else:
        reflected = _mean(above) / mu_e
        absorbed = _mean(below) / mu_e
    sigma_phi = [_sample_std(phase[k]) for k in range(K)]
    refracted = _mean(sigma_phi) / math.pi
    denom = reflected + absorbed + refracted
    out["energy_reflected_emp"] = reflected / denom
    out["energy_absorbed_emp"] = absorbed / denom
    out["energy_refracted_emp"] = refracted / denom

    # temporal variability
    tv = [_sample_std(amp[k]) for k in range(K)]
    tvm = _mean(tv)
    out["temporal_variability_mean"] = tvm
    out["temporal_variability_std"] = math.sqrt(
        sum((v - tvm) ** 2 for v in tv) / (K - 1)
    )
    grand = _mean([a for row in amp for a in row])
    out["temporal_variability_cv"] = tvm / grand if grand > epsilon else 0.0

    # stability
    cv = [tv[k] / k_means[k] if k_means[k] > epsilon else 0.0 for k in range(K)]
    scm = _mean(cv)
    out["stability_mean_cv"] = scm
    out["stability_std_cv"] = math.sqrt(sum((c - scm) ** 2 for c in cv) / (K - 1))

    # adjacent correlation (population cov/var; the ratio is normalization-free)
    rhos = []
    for k in range(K - 1):
        a, b = amp[k], amp[k + 1]
        ma, mb = _mean(a), _mean(b)
        cov = _mean([(a[t] - ma) * (b[t] - mb) for t in range(T)])
        va = _mean([(a[t] - ma) ** 2 for t in range(T)])
        vb = _mean([(b[t] - mb) ** 2 for t in range(T)])
        d = math.sqrt(va * vb)
        rhos.append(cov / d if d >= epsilon else 0.0)
    rm = _mean(rhos)
    out["adjacent_correlation_mean"] = rm
    out["adjacent_correlation_std"] = math.sqrt(
        sum((r - rm) ** 2 for r in rhos) / (K - 2)
    )

    # roughness
    rough = [abs(hbar[k + 1] - hbar[k]) for k in range(K - 1)]
    rgm = _mean(rough)
    out["spectral_roughness_mean"] = rgm
    out["spectral_roughness_std"] = math.sqrt(
        sum((r - rgm) ** 2 for r in rough) / (K - 2)
    )

    # curvature
    curve = [abs(hbar[k + 2] - 2 * hbar[k + 1] + hbar[k]) for k in range(K - 2)]
    cm = _mean(curve)
    out["spectral_curvature_mean"] = cm
    out["spectral_curvature_std"] = math.sqrt(
        sum((c - cm) ** 2 for c in curve) / (K - 3)
    )
    return out


# --- metric references ------------------------------------------------------------

def class_pools_per_row(class_ids, rows, true_labels):
    """{class: (genuine, impostor)} lists built one matrix entry at a time."""
    pools = {}
    for j, class_id in enumerate(class_ids):
        genuine, impostor = [], []
        for row, label in zip(rows, true_labels):
            (genuine if label == class_id else impostor).append(float(row[j]))
        pools[class_id] = (genuine, impostor)
    return pools


def auc_pair_count(genuine, impostor) -> float:
    """O(n^2) pair statistic: wins + half-ties over all pairs."""
    wins = 0.0
    for g in genuine:
        for i in impostor:
            if g > i:
                wins += 1.0
            elif g == i:
                wins += 0.5
    return wins / (len(genuine) * len(impostor))


def far_frr(genuine, impostor, threshold) -> tuple[float, float]:
    far = sum(1 for s in impostor if s >= threshold) / len(impostor)
    frr = sum(1 for s in genuine if s < threshold) / len(genuine)
    return far, frr


def eer_sweep(genuine, impostor) -> float:
    """Exhaustive interval sweep; interpolates the crossing like the contract."""
    cuts = sorted(set(list(genuine) + list(impostor)))
    points = []
    for t in cuts:
        points.append(far_frr(genuine, impostor, t))
    points.append((0.0, 1.0))  # any threshold above the max score
    for far, frr in points:
        if far == frr:
            return far
    for j in range(len(points) - 1):
        d0 = points[j][0] - points[j][1]
        d1 = points[j + 1][0] - points[j + 1][1]
        if d0 > 0 and d1 < 0:
            lam = d0 / (d0 - d1)
            return points[j][0] + lam * (points[j + 1][0] - points[j][0])
    raise AssertionError("no crossing found")


def eer_operating_point(genuine, impostor):
    """(FAR, FRR) at the EER threshold of an interpolated crossing, else None.

    Of the two intervals around the jump, the one with the smaller
    max(FAR, FRR) is the operating point; a tie goes to the upper one,
    whose FAR is lower.
    """
    cuts = sorted(set(list(genuine) + list(impostor)))
    points = [far_frr(genuine, impostor, t) for t in cuts]
    points.append((0.0, 1.0))  # any threshold above the max score
    if any(far == frr for far, frr in points):
        return None
    for lower, upper in zip(points, points[1:]):
        if lower[0] > lower[1] and upper[0] < upper[1]:
            return upper if max(upper) <= max(lower) else lower
    raise AssertionError("no crossing found")


def gini_pairwise(xs) -> float:
    total = sum(xs)
    if total == 0:
        return 0.0
    n = len(xs)
    acc = 0.0
    for a in xs:
        for b in xs:
            acc += abs(a - b)
    return acc / (2.0 * n * total)


def bootstrap_eer_spread(genuine, impostor, resamples, seed, ci=0.95):
    """Re-implementation of the documented bootstrap protocol."""
    genuine = np.asarray(genuine, dtype=float)
    impostor = np.asarray(impostor, dtype=float)
    eers = []
    for r in range(resamples):
        rng = np.random.default_rng([seed, r])
        g = genuine[rng.integers(0, genuine.size, genuine.size)]
        i = impostor[rng.integers(0, impostor.size, impostor.size)]
        eers.append(eer_sweep(list(g), list(i)))
    eers = np.asarray(eers)
    lo, hi = np.percentile(eers, [50 * (1 - ci), 100 - 50 * (1 - ci)])
    return float(np.std(eers, ddof=1)), float(hi - lo)


# --- classifier references --------------------------------------------------------

def best_split_per_feature(x, codes, idx, n_classes, max_features, rng):
    """The per-feature CART split search: one sort and one-hot cumsum per feature.

    Returns (feature, threshold) of the lowest weighted Gini cost; ties go
    to the lower threshold, then the lower feature index.
    """
    n, d = idx.shape[0], x.shape[1]
    if max_features is None or max_features >= d:
        candidates = range(d)
    else:
        candidates = np.sort(rng.choice(d, size=max_features, replace=False))
    best = None  # (cost, threshold, feature)
    onehot = np.zeros((n, n_classes))
    for f in candidates:
        col = x[idx, f]
        order = np.argsort(col, kind="stable")
        xs = col[order]
        boundaries = np.flatnonzero(xs[:-1] != xs[1:])
        if boundaries.size == 0:
            continue
        onehot[:] = 0.0
        onehot[np.arange(n), codes[idx[order]]] = 1.0
        prefix = np.cumsum(onehot, axis=0)
        total = prefix[-1]
        nl = (boundaries + 1).astype(float)
        nr = n - nl
        left_counts = prefix[boundaries]
        right_counts = total[None, :] - left_counts
        gini_l = 1.0 - np.sum((left_counts / nl[:, None]) ** 2, axis=1)
        gini_r = 1.0 - np.sum((right_counts / nr[:, None]) ** 2, axis=1)
        cost = (nl * gini_l + nr * gini_r) / n
        thresholds = 0.5 * (xs[boundaries] + xs[boundaries + 1])
        j = np.lexsort((thresholds, cost))[0]
        key = (cost[j], thresholds[j], int(f))
        if best is None or key < best:
            best = key
    if best is None:
        return None
    return best[2], best[1]


def tree_fit_per_node(x, codes, n_classes, hp, max_features=None, rng=None):
    """The recursive CART grower: one ``best_split_per_node`` call per node, depth first.

    Returns the (feature, threshold, left, right, probs) arrays of the tree.
    """
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
        split = best_split_per_node(x, codes, idx, n_classes, max_features, rng)
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
    return (
        np.array(feature, dtype=np.int64),
        np.array(threshold, dtype=np.float64),
        np.array(left, dtype=np.int64),
        np.array(right, dtype=np.int64),
        np.vstack(probs),
    )


def forest_fit_per_node(x, codes, n_classes, hp, seed):
    """Random-forest trees grown one after another, each from its own generator."""
    n, d = x.shape
    max_features = max(1, int(np.sqrt(d))) if hp["max_features"] == "sqrt" else hp["max_features"]
    trees = []
    for i in range(hp["n_trees"]):
        rng = np.random.default_rng([seed, i])
        idx = rng.integers(0, n, size=n) if hp["bootstrap"] else np.arange(n)
        trees.append(tree_fit_per_node(x[idx], codes[idx], n_classes, hp, max_features, rng))
    return trees


def best_split_per_node(x, codes, idx, n_classes, max_features, rng):
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


def knn_proba_per_row(train_x, train_codes, n_classes, k, weights, test_x):
    """knn class probabilities scored one test row at a time."""
    d2 = np.sum((test_x[:, None, :] - train_x[None, :, :]) ** 2, axis=2)
    order = np.argsort(d2, axis=1, kind="stable")[:, :k]
    probs = np.zeros((test_x.shape[0], n_classes))
    for i in range(test_x.shape[0]):
        idx = order[i]
        if weights == "distance":
            dist = np.sqrt(d2[i, idx])
            exact = dist == 0
            if exact.any():
                np.add.at(probs[i], train_codes[idx[exact]], 1.0)
            else:
                np.add.at(probs[i], train_codes[idx], 1.0 / dist)
        else:
            np.add.at(probs[i], train_codes[idx], 1.0)
        probs[i] /= probs[i].sum()
    return probs


# --- preprocessing references -----------------------------------------------------

MAD_FACTOR = 6.0
_MAD_SORT_ELEMENTS = 1 << 19


def mad_flags_sorted(x, window):
    """The rolling median and MAD by sorting every window twice, in row blocks."""
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


def _interpolate_flagged(x, flagged):
    """Replace flagged entries by np.interp between valid neighbors, clamped at the edges."""
    valid = np.flatnonzero(~flagged)
    out = x.copy()
    bad = np.flatnonzero(flagged)
    out[bad] = np.interp(bad, valid, x[valid])
    return out


def mad_repair_per_row(values, flags):
    """Phase-preserving amplitude repair, one np.interp call per flagged row.

    ``flags`` must leave at least one valid sample in every row it flags.
    """
    amps = np.abs(values)
    values = np.array(values)
    for k in np.flatnonzero(flags.any(axis=1)):
        x = amps[k]
        repaired = _interpolate_flagged(x, flags[k])
        idx = np.flatnonzero(flags[k])
        old = x[idx]
        scale = np.where(old > 0, repaired[idx] / np.where(old > 0, old, 1.0), 0.0)
        values[k, idx] = np.where(old > 0, values[k, idx] * scale, repaired[idx] + 0j)
    return values


def parse_pcap_per_frame(src):
    """parse_pcap's (values, skip counts), decoding each accepted frame on its own."""
    from csibio.ingest import CSI_HEADER_LEN, CSI_MAGIC, _iter_udp_payloads

    with open(src.path, "rb") as fh:
        payloads = list(_iter_udp_payloads(fh.read(), src.udp_port))
    columns = []
    skipped = {"skipped_truncated": 0, "skipped_wrong_subcarriers": 0, "skipped_non_csi": 0}
    for payload in payloads:
        if not payload.startswith(CSI_MAGIC):
            skipped["skipped_non_csi"] += 1
            continue
        if len(payload) < CSI_HEADER_LEN:
            skipped["skipped_truncated"] += 1
            continue
        data_len = len(payload) - CSI_HEADER_LEN
        if data_len == 4 * src.expected_subcarriers:
            raw = np.frombuffer(payload, dtype="<i2", offset=CSI_HEADER_LEN)
            pairs = raw.astype(np.float64).reshape(-1, 2)
            columns.append(pairs[:, 0] + 1j * pairs[:, 1])
        elif data_len % 4 == 0 and data_len > 0:
            skipped["skipped_wrong_subcarriers"] += 1
        else:
            skipped["skipped_truncated"] += 1
    return (np.column_stack(columns) if columns else None), skipped
