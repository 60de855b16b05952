"""Security-oriented evaluation metrics over one-vs-rest score matrices.

Conventions fixed across the whole package:

* acceptance means score >= threshold, so FAR(t) is the share of
  impostor scores >= t and FRR(t) the share of genuine scores < t;
* per-class analysis treats the probability column of a class as its
  one-vs-rest score, "genuine" rows being those whose true label is
  that class;
* false acceptances are attributed to the victim class whose threshold
  admitted them;
* the Gini coefficient uses the mean-absolute-difference form
  G = sum_ij |x_i - x_j| / (2 n sum_k x_k), 0 when there are no errors.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import DegenerateClass, TooFewScores
from .model import ScoreMatrix


# --- aggregate classification metrics --------------------------------------

def aggregate_metrics(scores: ScoreMatrix) -> dict[str, float]:
    """Accuracy plus macro precision/recall/F1/specificity from argmax labels.

    A class never predicted contributes precision 0 (reported under the
    ``flags`` key).
    """
    if len(scores.class_ids) < 2:
        raise DegenerateClass("need at least two classes")
    classes = scores.class_ids
    true = _true_codes(scores)
    pred = np.argmax(scores.rows, axis=1)
    n = true.shape[0]
    c = len(classes)
    confusion = np.zeros((c, c))
    np.add.at(confusion, (true, pred), 1.0)

    tp = np.diag(confusion)
    fp = confusion.sum(axis=0) - tp
    fn = confusion.sum(axis=1) - tp
    tn = n - tp - fp - fn

    never_predicted = (tp + fp) == 0
    precision = np.where(never_predicted, 0.0, tp / np.maximum(tp + fp, 1.0))
    recall = np.where((tp + fn) == 0, 0.0, tp / np.maximum(tp + fn, 1.0))
    pr = precision + recall
    f1 = np.where(pr == 0, 0.0, 2.0 * precision * recall / np.maximum(pr, 1.0))
    specificity = np.where((tn + fp) == 0, 0.0, tn / np.maximum(tn + fp, 1.0))

    out = {
        "accuracy": float(tp.sum() / n),
        "macro_precision": float(precision.mean()),
        "macro_recall": float(recall.mean()),
        "macro_f1": float(f1.mean()),
        "macro_specificity": float(specificity.mean()),
    }
    if never_predicted.any():
        out["flags"] = "absent_prediction:" + ",".join(
            classes[i] for i in np.flatnonzero(never_predicted)
        )
    return out


# --- genuine / impostor decomposition ---------------------------------------

def _true_codes(scores: ScoreMatrix) -> np.ndarray:
    """Column index of each row's true class."""
    idx = {c: i for i, c in enumerate(scores.class_ids)}
    return np.array([idx[t] for t in scores.true_labels], dtype=np.intp)


def class_pools(scores: ScoreMatrix) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Each class's (genuine, impostor) scores of its own column, in row order.

    The one split that AUC, EER and the Gini counts all read.
    """
    true = _true_codes(scores)
    pools = {}
    for j, class_id in enumerate(scores.class_ids):
        is_genuine = true == j
        if is_genuine.all() or not is_genuine.any():
            raise DegenerateClass(f"class {class_id!r} lacks genuine or impostor scores")
        pools[class_id] = (scores.rows[is_genuine, j], scores.rows[~is_genuine, j])
    return pools


def _average_ranks(x: np.ndarray) -> np.ndarray:
    _, inverse, counts = np.unique(x, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    starts = ends - counts + 1
    return ((starts + ends) / 2.0)[inverse]


def auc_from_scores(genuine: np.ndarray, impostor: np.ndarray) -> float:
    """Rank-statistic AUC: P(random genuine > random impostor), ties 1/2."""
    n_g, n_i = genuine.shape[0], impostor.shape[0]
    if n_g == 0 or n_i == 0:
        raise DegenerateClass("AUC needs both genuine and impostor scores")
    ranks = _average_ranks(np.concatenate([genuine, impostor]))
    u = ranks[:n_g].sum() - n_g * (n_g + 1) / 2.0
    return float(u / (n_g * n_i))


# --- equal error rate --------------------------------------------------------

@dataclass(frozen=True)
class EerResult:
    class_id: str
    eer: float
    threshold: float
    far: float
    frr: float
    interpolated: bool = False


def far_frr_at(genuine: np.ndarray, impostor: np.ndarray, threshold: float) -> tuple[float, float]:
    """Discrete FAR/FRR at one threshold (accept iff score >= threshold)."""
    far = float(np.mean(impostor >= threshold))
    frr = float(np.mean(genuine < threshold))
    return far, frr


def eer_from_scores(genuine: np.ndarray, impostor: np.ndarray,
                    class_id: str = "") -> EerResult:
    """Equal error rate via an exhaustive sweep of the score step functions.

    FAR and FRR are piecewise constant on the intervals between distinct
    scores. If some interval attains FAR == FRR exactly, the EER is that
    common value and the returned threshold is the midpoint of the
    (possibly merged) flat region. Otherwise the crossing falls on a
    jump and the EER is the linear interpolation between the bracketing
    intervals and ``interpolated=True``. The returned threshold is that of
    whichever of the two bracketing intervals has the smaller discrete
    max(FAR, FRR), the upper (lower-FAR) one on a tie; above the largest
    score it is the next float after that score.

    The crossing lies in [0, 0.5] whenever genuine scores stochastically
    dominate impostor scores; a value above 0.5 is reported as-is and
    signals inverted score polarity.
    """
    genuine = np.asarray(genuine, dtype=np.float64)
    impostor = np.asarray(impostor, dtype=np.float64)
    if genuine.size == 0 or impostor.size == 0:
        raise DegenerateClass(f"class {class_id!r} lacks genuine or impostor scores")

    cuts = np.unique(np.concatenate([genuine, impostor]))
    # FAR/FRR are constant on interval j = (cuts[j-1], cuts[j]]; cuts[j]
    # itself is a representative threshold. One extra interval above max.
    # Both are direct integer ratios so exact FAR == FRR crossings are
    # detected exactly (equal rationals round to equal floats).
    far = np.empty(cuts.size + 1)
    frr = np.empty(cuts.size + 1)
    far[:-1] = (
        impostor.size - np.searchsorted(np.sort(impostor), cuts, side="left")
    ) / impostor.size
    far[-1] = 0.0
    frr[:-1] = np.searchsorted(np.sort(genuine), cuts, side="left") / genuine.size
    frr[-1] = 1.0
    diff = far - frr

    zero = np.flatnonzero(diff == 0.0)
    if zero.size:
        first, last = zero[0], zero[-1]
        # Zero runs are interior (diff starts at 1 and ends at -1), and the
        # EER is constant across the run; report the midpoint threshold.
        lo = cuts[first - 1]
        hi = cuts[last]
        threshold = 0.5 * (lo + hi)
        f, r = far_frr_at(genuine, impostor, threshold)
        return EerResult(class_id, float(far[first]), float(threshold), f, r)

    j = int(np.flatnonzero(diff > 0)[-1])
    lam = diff[j] / (diff[j] - diff[j + 1])
    eer = far[j] + lam * (far[j + 1] - far[j])
    if max(far[j + 1], frr[j + 1]) <= max(far[j], frr[j]):
        j += 1
    threshold = float(cuts[j]) if j < cuts.size else float(np.nextafter(cuts[-1], np.inf))
    f, r = far_frr_at(genuine, impostor, threshold)
    return EerResult(class_id, float(eer), threshold, f, r, interpolated=True)


# --- frequency count of scores ----------------------------------------------

@dataclass(frozen=True)
class FcsData:
    genuine_scores: np.ndarray
    impostor_scores: np.ndarray
    bin_edges: np.ndarray
    genuine_counts: np.ndarray
    impostor_counts: np.ndarray


def fcs(scores: ScoreMatrix, bins: int = 50) -> FcsData:
    """Split every probability into genuine (true-class) vs impostor pools.

    Returns the raw score lists plus aligned histograms over [0, 1].
    """
    true_idx = _true_codes(scores)
    rows = np.arange(scores.n_rows)
    genuine = scores.rows[rows, true_idx]
    mask = np.ones_like(scores.rows, dtype=bool)
    mask[rows, true_idx] = False
    impostor = scores.rows[mask]
    edges = np.linspace(0.0, 1.0, bins + 1)
    g_counts, _ = np.histogram(genuine, bins=edges)
    i_counts, _ = np.histogram(impostor, bins=edges)
    return FcsData(genuine, impostor, edges, g_counts, i_counts)


# --- Gini coefficient ---------------------------------------------------------

def gini(errors_per_user) -> float:
    """Mean-absolute-difference Gini of a nonnegative vector; 0 if it sums to 0."""
    x = np.asarray(errors_per_user, dtype=np.float64)
    if x.ndim != 1 or x.shape[0] < 2:
        raise ValueError("need a 1-D vector with n >= 2")
    if np.any(x < 0):
        raise ValueError("error counts must be nonnegative")
    total = x.sum()
    if total == 0:
        return 0.0
    n = x.shape[0]
    xs = np.sort(x)
    i = np.arange(1, n + 1, dtype=np.float64)
    return float((2.0 * np.sum(i * xs) - (n + 1) * total) / (n * total))


@dataclass(frozen=True)
class GiniReport:
    gc_far: float
    gc_frr: float
    gc_mean: float
    far_rate: float
    frr_rate: float
    fa_counts: dict[str, int]
    fr_counts: dict[str, int]
    flags: tuple[str, ...] = ()


def gini_report(pools: dict, eer_results: tuple[EerResult, ...]) -> GiniReport:
    """Inequality of per-user error counts at each class's own EER threshold.

    Counts come from ``class_pools``, so they are the results' own FAR/FRR.
    False acceptances are counted against the victim class whose
    threshold admitted the impostor score; false rejections against the
    genuine class itself.
    """
    fa = {}
    fr = {}
    total_imp = 0
    total_gen = 0
    for e in eer_results:
        genuine, impostor = pools[e.class_id]
        fa[e.class_id] = int(np.sum(impostor >= e.threshold))
        fr[e.class_id] = int(np.sum(genuine < e.threshold))
        total_imp += impostor.size
        total_gen += genuine.size
    fa_vec = np.array(list(fa.values()), dtype=np.float64)
    fr_vec = np.array(list(fr.values()), dtype=np.float64)
    flags = []
    if fa_vec.sum() == 0:
        flags.append("gini:no_false_acceptances")
    if fr_vec.sum() == 0:
        flags.append("gini:no_false_rejections")
    gc_far = gini(fa_vec)
    gc_frr = gini(fr_vec)
    return GiniReport(
        gc_far=gc_far,
        gc_frr=gc_frr,
        gc_mean=(gc_far + gc_frr) / 2.0,
        far_rate=float(fa_vec.sum() / total_imp),
        frr_rate=float(fr_vec.sum() / total_gen),
        fa_counts=fa,
        fr_counts=fr,
        flags=tuple(flags),
    )


# --- BioQuake ------------------------------------------------------------------

@dataclass(frozen=True)
class BioQuake:
    eer: float
    uncertainty: float
    ci_width: float


def bioquake_from_scores(genuine: np.ndarray, impostor: np.ndarray,
                         resamples: int = 1000, ci: float = 0.95,
                         seed: int = 0) -> BioQuake:
    """Point EER plus bootstrap spread (std and central-interval width).

    Resample r draws genuine and impostor pools independently with
    replacement from generator ``default_rng([seed, r])`` (genuine
    indices first), recomputes the EER, and the spread of those EERs
    gives the uncertainty (sample std) and CI width.
    """
    genuine = np.asarray(genuine, dtype=np.float64)
    impostor = np.asarray(impostor, dtype=np.float64)
    if genuine.size < 5 or impostor.size < 5:
        raise TooFewScores("bootstrap needs >= 5 genuine and >= 5 impostor scores")
    point = eer_from_scores(genuine, impostor).eer
    eers = np.empty(resamples)
    for r in range(resamples):
        rng = np.random.default_rng([seed, r])
        g = genuine[rng.integers(0, genuine.size, genuine.size)]
        i = impostor[rng.integers(0, impostor.size, impostor.size)]
        eers[r] = eer_from_scores(g, i).eer
    lo, hi = np.percentile(eers, [50.0 * (1.0 - ci), 100.0 - 50.0 * (1.0 - ci)])
    return BioQuake(
        eer=float(point),
        uncertainty=float(np.std(eers, ddof=1)),
        ci_width=float(hi - lo),
    )


# --- assembled report -----------------------------------------------------------

@dataclass(frozen=True)
class SecurityReport:
    model_name: str
    aggregate: dict[str, float]
    auc_per_class: dict[str, float]
    auc_macro: float
    eer_results: tuple[EerResult, ...]
    eer_mean: float
    fcs_data: FcsData
    gini_data: GiniReport
    bioquake_data: BioQuake

    def to_dict(self) -> dict:
        return {
            "model": self.model_name,
            "aggregate": self.aggregate,
            "auc_per_class": self.auc_per_class,
            "auc_macro": self.auc_macro,
            "eer_per_class": [asdict(e) for e in self.eer_results],
            "eer_mean": self.eer_mean,
            "eer_pooled": self.bioquake_data.eer,
            "gini": {
                "gc_far": self.gini_data.gc_far,
                "gc_frr": self.gini_data.gc_frr,
                "gc_mean": self.gini_data.gc_mean,
                "far_rate": self.gini_data.far_rate,
                "frr_rate": self.gini_data.frr_rate,
                "flags": list(self.gini_data.flags),
            },
            "bioquake": asdict(self.bioquake_data),
        }


def build_security_report(model_name: str, scores: ScoreMatrix,
                          fcs_bins: int = 50, resamples: int = 1000,
                          seed: int = 0) -> SecurityReport:
    """Compute the full metric battery for one model's pooled CV scores."""
    aggregate = aggregate_metrics(scores)
    pools = class_pools(scores)
    auc_per_class = {c: auc_from_scores(g, i) for c, (g, i) in pools.items()}
    eer_results = tuple(eer_from_scores(g, i, c) for c, (g, i) in pools.items())
    fcs_data = fcs(scores, bins=fcs_bins)
    gini_data = gini_report(pools, eer_results)
    bq = bioquake_from_scores(
        fcs_data.genuine_scores, fcs_data.impostor_scores, resamples=resamples, seed=seed
    )
    return SecurityReport(
        model_name=model_name,
        aggregate=aggregate,
        auc_per_class=auc_per_class,
        auc_macro=float(np.mean(list(auc_per_class.values()))),
        eer_results=eer_results,
        eer_mean=float(np.mean([e.eer for e in eer_results])),
        fcs_data=fcs_data,
        gini_data=gini_data,
        bioquake_data=bq,
    )
