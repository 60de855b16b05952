"""mRMR feature ranking on a plug-in (histogram) mutual-information estimator.

Continuous features are discretized into a fixed number of bins
(equal-frequency by default); labels stay categorical. The greedy
ranking uses the difference criterion

    score(f) = MI(f; y) - mean_{s in selected} MI(f; s)

with lexicographic feature-name tie-breaking, so rankings are fully
deterministic and invariant to joint row permutations. Each unselected
column keeps the list of its MI with the selected columns, in selection
order, and its redundancy is that list's mean.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput
from .model import FeatureMatrix


@dataclass(frozen=True)
class MrmrConfig:
    k_select: int
    bins: int = 10
    binning: str = "equal_frequency"

    def __post_init__(self):
        if self.k_select < 1:
            raise ValueError("k_select must be >= 1")
        if self.bins < 2:
            raise ValueError("bins must be >= 2")
        if self.binning not in ("equal_frequency", "equal_width"):
            raise ValueError(f"unknown binning {self.binning!r}")


@dataclass(frozen=True)
class RankedFeature:
    name: str
    relevance: float
    redundancy: float
    score: float


def discretize(x: np.ndarray, cfg: MrmrConfig) -> np.ndarray:
    """Map a real vector to integer bin codes; constant vectors map to one bin."""
    x = np.asarray(x, dtype=np.float64)
    lo, hi = x.min(), x.max()
    if hi == lo:
        return np.zeros(x.shape[0], dtype=np.intp)
    if cfg.binning == "equal_frequency":
        qs = np.linspace(0.0, 1.0, cfg.bins + 1)[1:-1]
        edges = np.unique(np.quantile(x, qs))
    else:
        edges = lo + (hi - lo) * np.linspace(0.0, 1.0, cfg.bins + 1)[1:-1]
    return np.searchsorted(edges, x, side="right")


def _codes(labels) -> np.ndarray:
    _, codes = np.unique(np.asarray(labels), return_inverse=True)
    return codes


def _column_codes(x: np.ndarray, cfg: MrmrConfig) -> np.ndarray | None:
    """Bin codes of a real column, or None when it is constant."""
    x = np.asarray(x, dtype=np.float64)
    return None if x.max() == x.min() else discretize(x, cfg)


def _discrete_mi(a: np.ndarray | None, b: np.ndarray | None) -> float:
    """MI in bits between two integer-coded vectors via the joint histogram.

    None stands for a constant column, which carries no information.
    """
    if a is None or b is None:
        return 0.0
    n = a.shape[0]
    n_a = int(a.max()) + 1
    n_b = int(b.max()) + 1
    joint = np.bincount(a * n_b + b, minlength=n_a * n_b).reshape(n_a, n_b) / n
    pa = joint.sum(axis=1, keepdims=True)
    pb = joint.sum(axis=0, keepdims=True)
    nz = joint > 0
    return float(np.sum(joint[nz] * np.log2(joint[nz] / (pa @ pb)[nz])))


def _check_samples(n: int, n_labels: int, cfg: MrmrConfig) -> None:
    if n != n_labels:
        raise DegenerateInput("x and y must have equal length")
    if n < cfg.bins:
        raise DegenerateInput(f"need at least {cfg.bins} samples for {cfg.bins} bins")


def mrmr_rank(matrix: FeatureMatrix, y, cfg: MrmrConfig) -> list[RankedFeature]:
    """Greedy minimum-redundancy maximum-relevance ranking of the columns.

    Returns the top ``cfg.k_select`` features in selection order; the
    first is the max-relevance feature, each subsequent one maximizes
    relevance minus mean MI against the already-selected set.
    """
    names = matrix.feature_names
    if len(names) < 2:
        raise DegenerateInput("need at least two features to rank")
    y_codes = _codes(y)
    if len(np.unique(y_codes)) < 2:
        raise DegenerateInput("need at least two classes")
    k_select = min(cfg.k_select, len(names))

    _check_samples(matrix.values.shape[0], y_codes.shape[0], cfg)
    # Each column is discretized once per ranking; every MI below reads these codes.
    codes = [_column_codes(c, cfg) for c in matrix.values.T]
    relevance = np.array([_discrete_mi(c, y_codes) for c in codes])

    # The candidate is always MI's first argument: MI is not bit-symmetric.
    mi_with_selected: dict[int, list[float]] = {i: [] for i in range(len(names))}
    ranking: list[RankedFeature] = []
    for step in range(k_select):
        red = {i: float(np.mean(mi)) if mi else 0.0 for i, mi in mi_with_selected.items()}
        # Maximize score; break ties by feature name.
        best = min(red, key=lambda i: (-(relevance[i] - red[i]), names[i]))
        del mi_with_selected[best]
        ranking.append(
            RankedFeature(
                name=names[best],
                relevance=float(relevance[best]),
                redundancy=red[best],
                score=float(relevance[best] - red[best]),
            )
        )
        if step + 1 < k_select:
            for i, mi in mi_with_selected.items():
                mi.append(_discrete_mi(codes[i], codes[best]))
    return ranking
