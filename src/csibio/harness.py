"""Evaluation protocol: windowing, leakage-free cross-validation, leakage audit.

The pipeline per acquisition is calibrate -> IQR subcarrier filter ->
rolling-MAD repair, then non-overlapping windows batched per record,
then one feature row per window. Cross-validation folds operate on the
feature matrix; the z-score scaler and the mRMR ranking are fit
strictly inside the training rows of each fold (the deliberately leaky
variant fits them on everything and exists only to power the leakage
audit).

Two split modes:

* ``per_acquisition_holdout`` - one fold per distinct sample index, so
  windows of a held-out acquisition can never sit in training (the
  4-train / 1-test design);
* ``per_window_stratified`` - seeded stratified k-fold over windows.

Every fold records which row ids its fit touched and which it scored
(``Fold``), making the no-test-rows-at-fit-time invariant directly checkable.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import deque
from dataclasses import asdict, dataclass, field, replace
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import calib, clean, features, metrics, select
from .classify import ModelSpec, fit
from .errors import InsufficientData, RecordTooShort
from .model import CsiMatrix, Dataset, FeatureMatrix, Hand, ScoreMatrix, SubjectLabel
from .model import from_dict, hash_record
from .synth import split_attack

SPLIT_MODES = ("per_acquisition_holdout", "per_window_stratified")
NORMALIZATIONS = ("within_fold_zscore", "global_zscore_leaky")
HAND_FILTERS = ("right", "left", "pooled")


@dataclass(frozen=True)
class PreprocessConfig:
    calibrate: bool = True
    cfo_scope: str = "per_sample"
    iqr_filter: bool = True
    mad_window: int | None = 9

    def __post_init__(self):
        if self.cfo_scope not in calib.CFO_SCOPES:
            raise ValueError(f"cfo_scope must be one of {calib.CFO_SCOPES}")
        w = self.mad_window
        if w is not None and (w < 3 or w % 2 == 0):
            raise ValueError(f"mad_window must be null or odd and >= 3, got {w}")


@dataclass(frozen=True)
class ProtocolConfig:
    window_size: int = 50
    window_stride: int | None = None  # None means non-overlapping
    folds: int = 10
    split_mode: str = "per_acquisition_holdout"
    normalization: str = "within_fold_zscore"
    selection_k: int = 16
    mi_bins: int = 10
    binning: str = "equal_frequency"
    hand_filter: str = "right"
    feature_groups: frozenset[str] = frozenset(features.ALL_GROUPS)
    preprocess: PreprocessConfig = PreprocessConfig()
    fcs_bins: int = 50
    bioquake_resamples: int = 200
    seed: int = 0

    def __post_init__(self):
        if self.window_size < 8:
            raise ValueError("window_size must be >= 8")
        if self.folds < 2:
            raise ValueError("folds must be >= 2")
        stride = self.window_stride
        if stride is not None and stride < 1:
            raise ValueError("window_stride must be >= 1")
        if self.split_mode not in SPLIT_MODES:
            raise ValueError(f"split_mode must be one of {SPLIT_MODES}")
        if self.normalization not in NORMALIZATIONS:
            raise ValueError(f"normalization must be one of {NORMALIZATIONS}")
        if self.hand_filter not in HAND_FILTERS:
            raise ValueError(f"hand_filter must be one of {HAND_FILTERS}")
        if self.fcs_bins < 1:
            raise ValueError("fcs_bins must be >= 1")
        if self.bioquake_resamples < 2:
            raise ValueError("bioquake_resamples must be >= 2")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        object.__setattr__(self, "feature_groups", frozenset(self.feature_groups))
        if not self.feature_groups:
            raise ValueError("feature_groups must name at least one group")
        self.mrmr_config()  # checks selection_k, mi_bins and binning
        features.feature_names(self.feature_groups)  # checks the feature groups

    @property
    def stride(self) -> int:
        return self.window_stride if self.window_stride is not None else self.window_size

    def mrmr_config(self) -> select.MrmrConfig:
        return select.MrmrConfig(self.selection_k, self.mi_bins, self.binning)

    def to_dict(self) -> dict:
        return {**asdict(self), "feature_groups": sorted(self.feature_groups)}

    def digest(self) -> str:
        return hashlib.sha256(
            json.dumps(self.to_dict(), sort_keys=True).encode()
        ).hexdigest()


def protocol_from_dict(d: dict) -> ProtocolConfig:
    """Inverse of ``ProtocolConfig.to_dict``; a key that is not a field raises,
    except ``grids`` (read by the retired grid search)."""
    return from_dict(ProtocolConfig, d, ignore=("grids",))


# --- windowing -----------------------------------------------------------------

class RecordWindows(NamedTuple):
    """One record's windows ``values[N, K, W]`` with their provenance."""

    values: np.ndarray
    freqs: np.ndarray
    starts: tuple[int, ...]
    record_index: int
    label: SubjectLabel


def _check_lengths(dataset: Dataset, window_size: int) -> None:
    """Raise RecordTooShort for the first record shorter than one window; loads none."""
    for record_index, (matrix, label) in enumerate(dataset.records):
        if matrix.n_samples < window_size:
            raise RecordTooShort(
                f"record {record_index} ({label.subject_id}/sample {label.sample_index}) "
                f"has T={matrix.n_samples} < window_size={window_size}"
            )


def window_dataset(dataset: Dataset, cfg: ProtocolConfig) -> list[RecordWindows]:
    """Cut every acquisition into windows of ``window_size``, one batch per record.

    Default stride equals the window size (non-overlapping); a trailing
    remainder shorter than one window is dropped. Each batch is a strided
    view of its record, so overlapping windows are never copied here;
    ``prepare_windows`` calls this on one preprocessed record at a time.
    """
    _check_lengths(dataset, cfg.window_size)
    out = []
    for record_index, (matrix, label) in enumerate(dataset):
        view = sliding_window_view(matrix.values, cfg.window_size, axis=1)[:, :: cfg.stride]
        batch = np.moveaxis(view, 1, 0)  # [N, K, W]
        starts = tuple(range(0, matrix.n_samples - cfg.window_size + 1, cfg.stride))
        out.append(RecordWindows(batch, matrix.freqs, starts, record_index, label))
    return out


def preprocess_record(matrix: CsiMatrix, cfg: PreprocessConfig) -> CsiMatrix:
    """calibrate -> IQR subcarrier filter -> rolling-MAD temporal repair."""
    if cfg.calibrate:
        matrix, _ = calib.calibrate(matrix, cfo_scope=cfg.cfo_scope)
    if cfg.iqr_filter:
        matrix, _ = clean.iqr_subcarrier_filter(matrix)
    if cfg.mad_window is not None:
        matrix, _ = clean.mad_temporal_repair(matrix, cfg.mad_window)
    return matrix


@dataclass(frozen=True)
class WindowSet:
    """Feature matrix for all windows plus per-window provenance, and the
    ``Dataset.digest()`` of the dataset they were cut from."""

    matrix: FeatureMatrix
    sample_indices: tuple[int, ...]
    record_indices: tuple[int, ...]
    window_starts: tuple[int, ...]
    dataset_digest: str


def _keeps_hand(hand_filter: str):
    """The hand filter as a predicate on labels."""
    if hand_filter == "pooled":
        return lambda label: True
    wanted = Hand.RIGHT if hand_filter == "right" else Hand.LEFT
    return lambda label: label.hand in (wanted, Hand.UNSPECIFIED)


# Most elements of the [n, K, W] window slice one extract_all call sees, about
# 4 MB of complex128; rows do not depend on their batch, so slicing keeps the bits.
# A whole record of every benchmark workload fits in one slice.
_EXTRACT_CHUNK_ELEMENTS = 1 << 18


def _record_rows(matrix: CsiMatrix, label: SubjectLabel,
                 cfg: ProtocolConfig) -> tuple[list[np.ndarray], tuple[int, ...]]:
    """One record's feature rows and window starts; the processed record dies on return."""
    (r,) = window_dataset(Dataset(((preprocess_record(matrix, cfg.preprocess), label),)), cfg)
    step = max(1, _EXTRACT_CHUNK_ELEMENTS // r.values[0].size)
    rows = [features.extract_all(r.values[i : i + step], r.freqs, cfg.feature_groups)[0]
            for i in range(0, len(r.values), step)]
    return rows, r.starts


def _pool_size(n_records: int) -> int:
    """Threads for the per-record pipeline: one per CPU this process may use, at
    most one per record."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, min(cpus or 1, n_records))


def _ordered_map(fn, items, workers: int):
    """Yield ``fn(item)`` for each item in order, computed on ``workers`` threads.

    At most ``workers + 1`` calls are queued, running or waiting to be yielded.
    A call's error is raised at its own turn, so the first failing item in order
    is the one reported, whichever failed first; calls not yet started are then
    cancelled.
    """
    from concurrent.futures import ThreadPoolExecutor  # kept off the --print-config path

    pool = ThreadPoolExecutor(workers)
    pending = deque()
    try:
        for item in items:
            pending.append(pool.submit(fn, item))
            if len(pending) > workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)


def prepare_windows(dataset: Dataset, cfg: ProtocolConfig) -> WindowSet:
    """Run the per-record pipeline and extract one feature row per window.

    One pass reads each stored record once, at its turn: it loads (so checks)
    every record, the ones the hand filter drops included, hashes it into
    ``dataset_digest``, and preprocesses, windows and extracts the kept ones.
    Records run on ``_pool_size`` threads and join in dataset order, so a
    failure is raised at its record's place in that order. Preprocessing never
    changes T, so every kept length is checked, from the headers, before any work.
    """
    keeps = _keeps_hand(cfg.hand_filter)
    kept = dataset.filter(keeps)
    if len(kept) == 0:
        raise InsufficientData("no records left after the hand filter")
    _check_lengths(kept, cfg.window_size)

    def run(record):
        stored, label = record
        matrix = stored.load()
        return matrix, label, _record_rows(matrix, label, cfg) if keeps(label) else None

    digest = hashlib.sha256()
    rows, windows = [], []  # windows: (label, record index, start) per row
    record_index = 0  # position among the kept records
    for matrix, label, kept_rows in _ordered_map(run, dataset.records, _pool_size(len(dataset))):
        hash_record(digest, matrix, label)
        if kept_rows is not None:
            record_rows, starts = kept_rows
            rows += record_rows
            windows += [(label, record_index, start) for start in starts]
            record_index += 1
    labels, record_indices, window_starts = zip(*windows)
    names = features.feature_names(cfg.feature_groups)
    return WindowSet(
        matrix=FeatureMatrix(names, np.vstack(rows), tuple(lab.subject_id for lab in labels)),
        sample_indices=tuple(lab.sample_index for lab in labels),
        record_indices=record_indices,
        window_starts=window_starts,
        dataset_digest=digest.hexdigest(),
    )


# --- fold construction -----------------------------------------------------------

def stratified_kfold(labels, folds: int, seed: int) -> list[np.ndarray]:
    """Deterministic stratified fold assignment; returns test-index arrays.

    Per class, indices are shuffled and dealt round-robin with a
    rotating starting fold so remainders spread evenly: every fold gets
    the proportional share of each class, off by at most one window.
    """
    labels = np.asarray(labels)
    rng = np.random.default_rng([seed, 7919])
    assignment = np.empty(labels.shape[0], dtype=np.intp)
    offset = 0
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        rng.shuffle(idx)
        assignment[idx] = (np.arange(idx.size) + offset) % folds
        offset += idx.size % folds
    return [np.flatnonzero(assignment == f) for f in range(folds)]


def make_folds(ws: WindowSet, cfg: ProtocolConfig) -> list[tuple[np.ndarray, np.ndarray]]:
    """(train_idx, test_idx) pairs; a true partition of all windows."""
    n = ws.matrix.n_rows
    if len(set(ws.matrix.labels)) < 2:
        raise InsufficientData("need at least two subjects")
    if cfg.split_mode == "per_acquisition_holdout":
        sample_ids = sorted(set(ws.sample_indices))
        if len(sample_ids) < 2:
            raise InsufficientData("per_acquisition_holdout needs >= 2 acquisitions per subject")
        sample_arr = np.asarray(ws.sample_indices)
        test_sets = [np.flatnonzero(sample_arr == s) for s in sample_ids]
    else:
        if n < cfg.folds:
            raise InsufficientData(f"{n} windows cannot fill {cfg.folds} folds")
        test_sets = stratified_kfold(ws.matrix.labels, cfg.folds, cfg.seed)
    all_idx = np.arange(n)
    folds = []
    subjects = np.asarray(ws.matrix.labels)
    all_subjects = set(ws.matrix.labels)
    for fold_id, test_idx in enumerate(test_sets):
        train_idx = np.setdiff1d(all_idx, test_idx)
        if set(subjects[train_idx]) != all_subjects:
            raise InsufficientData(
                f"fold {fold_id} training set is missing a subject entirely"
            )
        folds.append((train_idx, test_idx))
    return folds


# --- scaling -----------------------------------------------------------------------

@dataclass(frozen=True)
class Scaler:
    mean: np.ndarray
    std: np.ndarray

    @staticmethod
    def fit(values: np.ndarray) -> "Scaler":
        std = values.std(axis=0)
        return Scaler(values.mean(axis=0), np.where(std > 0, std, 1.0))

    def transform(self, values: np.ndarray) -> np.ndarray:
        return (values - self.mean) / self.std


# --- cross-validation ------------------------------------------------------------

@dataclass(frozen=True)
class Fold:
    """Row ids touched at fit time vs rows scored; a fold's id is its position."""

    fit_rows: tuple[int, ...]
    test_rows: tuple[int, ...]
    selected_features: tuple[str, ...]


class CvPass(NamedTuple):
    """One cross-validation pass: per model, its scores over every test row in fold
    order and its accuracy on each fold; and one ``Fold`` per fold."""

    scores: dict[str, ScoreMatrix]
    accuracies: dict[str, tuple[float, ...]]
    folds: tuple[Fold, ...]


@dataclass(frozen=True)
class LeakageAudit:
    leaky_accuracy: float
    clean_accuracy: float
    delta: float
    flagged: bool


@dataclass(frozen=True, eq=False)
class RunResult:
    """One ``run_cv`` pass, with the protocol and the windows it ran on."""

    reports: dict[str, metrics.SecurityReport]
    cv: CvPass
    feature_ranking: tuple[select.RankedFeature, ...]
    leakage_audit: LeakageAudit | None
    protocol: ProtocolConfig
    windows: WindowSet = field(repr=False)
    # The scaler of the full-data fit that ranked ``feature_ranking``; not reported.
    full_scaler: Scaler = field(repr=False)

    def payload(self) -> dict:
        """Every reported number, keyed as in ``run_result.json``."""
        return {
            "seed": self.protocol.seed,
            "reports": {name: r.to_dict() for name, r in sorted(self.reports.items())},
            "fold_accuracies": {k: list(v) for k, v in sorted(self.cv.accuracies.items())},
        }

    def digest(self) -> str:
        """Stable digest over every reported number plus provenance."""
        payload = {"config": self.protocol.digest(), "dataset": self.windows.dataset_digest,
                   **self.payload()}
        return hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode()
        ).hexdigest()


def _scaled_rows(matrix: FeatureMatrix, scaler: Scaler, rows=slice(None),
                 selected: tuple[str, ...] | None = None) -> FeatureMatrix:
    """Scaled copy of a row subset, restricted to ``selected`` columns if given."""
    out = FeatureMatrix(
        matrix.feature_names,
        scaler.transform(matrix.values[rows]),
        tuple(np.asarray(matrix.labels)[rows]),
    )
    return out if selected is None else out.select(selected)


def _scale_and_rank(matrix: FeatureMatrix, cfg: ProtocolConfig, rows=slice(None)
                    ) -> tuple[Scaler, list[select.RankedFeature]]:
    """Fit the scaler and the mRMR ranking on ``rows`` only."""
    scaler = Scaler.fit(matrix.values[rows])
    ranking = select.mrmr_rank(
        _scaled_rows(matrix, scaler, rows), np.asarray(matrix.labels)[rows], cfg.mrmr_config()
    )
    return scaler, ranking


def _accuracy(scores: ScoreMatrix) -> float:
    correct = sum(p == t for p, t in zip(scores.predicted_labels(), scores.true_labels))
    return correct / max(scores.n_rows, 1)


def _cv_scores(ws: WindowSet, cfg: ProtocolConfig, models: list[ModelSpec],
               full_fit: tuple[Scaler, list[select.RankedFeature]]) -> CvPass:
    """Cross-validate ``models``; a leaky ``cfg`` fits every fold on every row, with
    ``full_fit`` (``_scale_and_rank`` of all rows)."""
    parts: dict[str, list[ScoreMatrix]] = {m.name(): [] for m in models}  # one per fold
    if len(parts) != len(models):
        raise ValueError(f"duplicate model names in one run: {[m.name() for m in models]}")
    folds = []
    leaky = cfg.normalization == "global_zscore_leaky"
    all_rows = np.arange(ws.matrix.n_rows)
    for train_idx, test_idx in make_folds(ws, cfg):
        if leaky:  # every fold fits on every row: one fit serves them all
            fit_rows, (scaler, ranking) = all_rows, full_fit
        else:
            fit_rows = train_idx
            scaler, ranking = _scale_and_rank(ws.matrix, cfg, fit_rows)
        selected = tuple(r.name for r in ranking)
        folds.append(Fold(tuple(map(int, fit_rows)), tuple(map(int, test_idx)), selected))
        train_matrix = _scaled_rows(ws.matrix, scaler, train_idx, selected)
        test_matrix = _scaled_rows(ws.matrix, scaler, test_idx, selected)
        for spec in models:
            model = fit(spec, train_matrix, seed=cfg.seed)
            parts[spec.name()].append(model.predict_proba(test_matrix))
    return CvPass(
        scores={name: ScoreMatrix.concatenate(p) for name, p in parts.items()},
        accuracies={name: tuple(map(_accuracy, p)) for name, p in parts.items()},
        folds=tuple(folds),
    )


def run_cv(ws: WindowSet, cfg: ProtocolConfig, models: list[ModelSpec]) -> RunResult:
    """Full leak-audited cross-validation of ``ws`` for a list of model specs.

    Every window is scored exactly once; pooled scores feed the metric
    battery. A descriptive full-dataset mRMR ranking is attached for
    plotting; it feeds a classifier only under the leaky normalization,
    whose every fold fits on all rows, the leaky audit arm and the attack fit.
    """
    if len(set(ws.matrix.labels)) < 2:
        raise InsufficientData("need at least two subjects")
    scaler, ranking = _scale_and_rank(ws.matrix, cfg)
    cv = _cv_scores(ws, cfg, models, (scaler, ranking))
    reports = {
        name: metrics.build_security_report(
            name, scores, fcs_bins=cfg.fcs_bins, resamples=cfg.bioquake_resamples, seed=cfg.seed
        )
        for name, scores in cv.scores.items()
    }
    return RunResult(
        reports=reports,
        cv=cv,
        feature_ranking=tuple(ranking),
        leakage_audit=None,
        protocol=cfg,
        windows=ws,
        full_scaler=scaler,
    )


def _check_ran(result: RunResult, model: ModelSpec) -> None:
    if model.name() not in result.cv.accuracies:
        raise ValueError(f"result did not run model {model.name()!r}; "
                         f"it ran {sorted(result.cv.accuracies)}")


def leakage_audit(result: RunResult, model: ModelSpec) -> LeakageAudit:
    """Clean pipeline vs global-fit baseline, flagged on the 1 p.p. rule.

    Each arm's pooled accuracy weights its fold accuracies by its folds' test
    sizes. The arm that the result's protocol ran is read from ``result``; only
    the other arm is cross-validated, on the result's windows.
    """
    _check_ran(result, model)
    cfg = result.protocol

    def pooled_accuracy(normalization):
        if normalization == cfg.normalization:
            cv = result.cv
        else:
            cv = _cv_scores(result.windows, replace(cfg, normalization=normalization), [model],
                            (result.full_scaler, result.feature_ranking))
        sizes = np.array([len(f.test_rows) for f in cv.folds], dtype=np.float64)
        return float(np.sum(np.asarray(cv.accuracies[model.name()]) * sizes) / sizes.sum())

    clean_value = pooled_accuracy("within_fold_zscore")
    leaky_value = pooled_accuracy("global_zscore_leaky")
    delta = leaky_value - clean_value
    return LeakageAudit(
        leaky_accuracy=leaky_value,
        clean_accuracy=clean_value,
        delta=delta,
        flagged=bool(abs(delta) > 0.01),
    )


# --- attack evaluation ---------------------------------------------------------------

@dataclass(frozen=True)
class AttackReport:
    victim: str
    attack_kind: str
    n_attack_windows: int
    victim_threshold: float
    far_on_attack: float
    attack_scores: np.ndarray
    victim_fullfit_scores: np.ndarray


def attack_report(dataset: Dataset, result: RunResult, model: ModelSpec) -> AttackReport:
    """FAR of the dataset's attack windows at the victim's own EER threshold.

    ``result`` is the ``run_cv`` pass over the dataset's genuine records; the
    victim threshold comes from it. The scoring model is then fit on all
    genuine windows, under the result's full-data scaler and selection, and
    applied to the attack windows. The victim's own windows are scored under
    the same full fit so attack and genuine score distributions are comparable.
    """
    _check_ran(result, model)
    _, attack_d = split_attack(dataset)
    if len(attack_d) == 0:
        raise InsufficientData("dataset contains no attack records")
    first_attack, _ = next(iter(attack_d))
    victim = first_attack.meta.get("victim")
    if victim is None:
        raise InsufficientData("the attack records name no victim")
    attack_kind = first_attack.meta.get("attack", "unknown")
    cfg, genuine_ws = result.protocol, result.windows
    report = result.reports[model.name()]
    thresholds = {e.class_id: e.threshold for e in report.eer_results}
    if victim not in thresholds:
        raise InsufficientData(f"the result holds no windows of victim {victim!r}")
    threshold = thresholds[victim]

    scaler = result.full_scaler
    selected = tuple(r.name for r in result.feature_ranking)
    train = _scaled_rows(genuine_ws.matrix, scaler, selected=selected)
    trained = fit(model, train, seed=cfg.seed)

    attack_ws = prepare_windows(attack_d, cfg)
    scores = trained.predict_proba(_scaled_rows(attack_ws.matrix, scaler, selected=selected))
    victim_scores = scores.column(victim)
    self_scores = trained.predict_proba(train).column(victim)
    victim_rows = np.array([s == victim for s in genuine_ws.matrix.labels])
    return AttackReport(
        victim=victim,
        attack_kind=attack_kind,
        n_attack_windows=int(victim_scores.shape[0]),
        victim_threshold=float(threshold),
        far_on_attack=float(np.mean(victim_scores >= threshold)),
        attack_scores=victim_scores,
        victim_fullfit_scores=self_scores[victim_rows],
    )
