"""Core domain types shared by every pipeline stage.

Conventions fixed here and relied on everywhere else:

* CSI values are stored as a single complex128 matrix of shape
  ``[K subcarriers, T time samples]``; amplitude and phase are always
  derived with ``np.abs`` / ``np.angle``, never stored separately.
* Subcarrier index 0 maps to the lowest center frequency; ``freqs`` is
  strictly increasing and has length K.
* All types are frozen after construction and safe to share across
  threads.

``from_dict`` is the one JSON codec for every config dataclass.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, is_dataclass, replace
from enum import Enum, EnumMeta
from numbers import Integral, Real
from types import UnionType
from typing import Sequence, get_args, get_origin, get_type_hints

import numpy as np


class Hand(str, Enum):
    LEFT = "left"
    RIGHT = "right"
    UNSPECIFIED = "unspecified"


@dataclass(frozen=True)
class SubjectLabel:
    """Identity of one acquisition: who, which repeat, which hand."""

    subject_id: str
    sample_index: int = 0
    hand: Hand = Hand.UNSPECIFIED

    def __post_init__(self):
        if not self.subject_id:
            raise ValueError("subject_id must be non-empty")
        if self.sample_index < 0:
            raise ValueError("sample_index must be >= 0")


@dataclass(frozen=True)
class CsiMatrix:
    """Complex channel matrix H(f_k, t) with its frequency axis.

    ``values[k, t]`` is the channel response of subcarrier ``k`` at time
    sample ``t`` (linear amplitude, phase in radians). ``freqs[k]`` is
    the subcarrier center frequency in Hz.
    """

    values: np.ndarray
    freqs: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.complex128)
        freqs = np.asarray(self.freqs, dtype=np.float64)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "freqs", freqs)
        values.flags.writeable = False
        freqs.flags.writeable = False
        if values.ndim != 2:
            raise ValueError(f"values must be 2-D [K, T], got shape {values.shape}")
        if freqs.ndim != 1 or freqs.shape[0] != values.shape[0]:
            raise ValueError("freqs length must equal the subcarrier count K")

    @property
    def n_subcarriers(self) -> int:
        return self.values.shape[0]

    @property
    def n_samples(self) -> int:
        return self.values.shape[1]

    def amplitude(self) -> np.ndarray:
        return np.abs(self.values)

    def phase(self) -> np.ndarray:
        return np.angle(self.values)

    def with_values(self, values: np.ndarray) -> "CsiMatrix":
        return replace(self, values=values)

    def load(self) -> "CsiMatrix":
        """A held matrix is its own record; a stored one (see ``Dataset``) reads its file."""
        return self


def validate_grid(k: int, t: int, freqs: np.ndarray) -> list[str]:
    """The CsiMatrix invariants that the shape and frequency axis alone fix."""
    violations: list[str] = []
    if k < 2:
        violations.append(f"too-few-subcarriers: K={k} < 2")
    if t < 2:
        violations.append(f"too-few-samples: T={t} < 2")
    diffs = np.diff(freqs)
    if np.any(diffs <= 0):
        bad = int(np.argmax(diffs <= 0))
        violations.append(f"non-increasing-freqs at index {bad}")
    if not np.all(np.isfinite(freqs)):
        bad = int(np.argmax(~np.isfinite(freqs)))
        violations.append(f"non-finite-freq at index {bad}")
    return violations


def validate_matrix(m: CsiMatrix) -> list[str]:
    """Check every CsiMatrix invariant; return one descriptor per violation.

    Total function: never raises, an empty list means the matrix is valid.
    """
    violations = validate_grid(*m.values.shape, m.freqs)
    finite = np.isfinite(m.values.real) & np.isfinite(m.values.imag)
    if not finite.all():
        bad_k, bad_t = np.argwhere(~finite)[0]
        violations.append(f"non-finite-entry at ({int(bad_k)},{int(bad_t)})")
    return violations


def hash_record(h, matrix: CsiMatrix, label: SubjectLabel) -> None:
    """Feed one record's canonical little-endian encoding to the hash ``h``."""
    h.update(label.subject_id.encode())
    h.update(np.int64(label.sample_index).tobytes())
    h.update(label.hand.value.encode())
    h.update(np.ascontiguousarray(matrix.freqs, dtype="<f8"))
    h.update(np.ascontiguousarray(matrix.values, dtype="<c16"))


@dataclass(frozen=True)
class Dataset:
    """Ordered collection of labeled acquisitions.

    Each record's matrix is a held ``CsiMatrix`` or a stored one: any object
    with ``n_subcarriers``, ``n_samples`` and a ``load()`` that returns the
    CsiMatrix (``ingest.read_dataset_dir`` stores each record in its file).
    Iterating loads one record at a time; ``records`` gives them unloaded.
    """

    records: tuple[tuple[CsiMatrix, SubjectLabel], ...]

    def __post_init__(self):
        object.__setattr__(self, "records", tuple(self.records))

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return ((matrix.load(), label) for matrix, label in self.records)

    def subject_ids(self) -> list[str]:
        """Distinct subject ids in first-appearance order."""
        seen: dict[str, None] = {}
        for _, label in self.records:
            seen.setdefault(label.subject_id, None)
        return list(seen)

    def filter(self, keep) -> "Dataset":
        return Dataset(tuple(r for r in self.records if keep(r[1])))

    def digest(self) -> str:
        """SHA-256 over the canonical little-endian encoding of all records."""
        h = hashlib.sha256()
        for matrix, label in self:
            hash_record(h, matrix, label)
        return h.hexdigest()


@dataclass(frozen=True)
class FeatureMatrix:
    """Feature rows: one row per window, one named column per feature."""

    feature_names: tuple[str, ...]
    values: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "feature_names", tuple(self.feature_names))
        object.__setattr__(self, "labels", tuple(self.labels))
        values.flags.writeable = False
        if values.ndim != 2 or values.shape[1] != len(self.feature_names):
            raise ValueError("values must be [n_windows, n_features]")
        if values.shape[0] != len(self.labels):
            raise ValueError("one label required per row")

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    def select(self, names: Sequence[str]) -> "FeatureMatrix":
        idx = [self.feature_names.index(n) for n in names]
        return FeatureMatrix(tuple(names), self.values[:, idx], self.labels)


PROBABILITY_ATOL = 1e-9


@dataclass(frozen=True)
class ScoreMatrix:
    """Per-window one-vs-rest probabilities aligned with true labels."""

    class_ids: tuple[str, ...]
    rows: np.ndarray
    true_labels: tuple[str, ...]

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=np.float64)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "class_ids", tuple(self.class_ids))
        object.__setattr__(self, "true_labels", tuple(self.true_labels))
        rows.flags.writeable = False
        if rows.ndim != 2 or rows.shape[1] != len(self.class_ids):
            raise ValueError("rows must be [n_windows, n_classes]")
        if rows.shape[0] != len(self.true_labels):
            raise ValueError("row count must equal label count")
        if rows.size:
            if not np.isfinite(rows).all():
                raise ValueError("probabilities must be finite")
            if rows.min() < -PROBABILITY_ATOL or rows.max() > 1 + PROBABILITY_ATOL:
                raise ValueError("probabilities must lie in [0, 1]")
            sums = rows.sum(axis=1)
            if np.max(np.abs(sums - 1.0)) > PROBABILITY_ATOL:
                raise ValueError("every probability row must sum to 1")

    @property
    def n_rows(self) -> int:
        return self.rows.shape[0]

    def column(self, class_id: str) -> np.ndarray:
        return self.rows[:, self.class_ids.index(class_id)]

    def predicted_labels(self) -> list[str]:
        return [self.class_ids[i] for i in np.argmax(self.rows, axis=1)]

    @staticmethod
    def concatenate(parts: Sequence["ScoreMatrix"]) -> "ScoreMatrix":
        if not parts:
            raise ValueError("nothing to concatenate")
        class_ids = parts[0].class_ids
        for p in parts[1:]:
            if p.class_ids != class_ids:
                raise ValueError("all parts must share one class-id order")
        rows = np.vstack([p.rows for p in parts])
        labels = tuple(l for p in parts for l in p.true_labels)
        return ScoreMatrix(class_ids, rows, labels)


# --- config codec -----------------------------------------------------------------

# JSON value checks by field type: a bool is not a number and a float is not an int.
JSON_TYPES = {
    bool: lambda v: isinstance(v, bool),
    int: lambda v: isinstance(v, Integral) and not isinstance(v, bool),
    float: lambda v: isinstance(v, Real) and not isinstance(v, bool),
    str: lambda v: isinstance(v, str),
}


def _coerce(tp, value, where: str):
    """Check a JSON value against a field type; build numbers, enums and nested dataclasses."""
    if isinstance(tp, UnionType):  # ``X | None``
        if value is None:
            return None
        tp = get_args(tp)[0]
    if tp in JSON_TYPES and not JSON_TYPES[tp](value):
        raise TypeError(f"{where} must be a JSON {tp.__name__}, got {value!r}")
    if isinstance(tp, EnumMeta) and value not in [m.value for m in tp]:
        raise ValueError(f"{where} must be one of {[m.value for m in tp]}, got {value!r}")
    if isinstance(tp, EnumMeta) or tp in (int, float):
        return tp(value)
    if get_origin(tp) is tuple and is_dataclass(get_args(tp)[0]):  # ``tuple[X, ...]``
        if not isinstance(value, (list, tuple)):
            raise TypeError(f"{where} must be a JSON list, got {value!r}")
        return tuple(from_dict(get_args(tp)[0], v) for v in value)
    return from_dict(tp, value) if is_dataclass(tp) else value


def from_dict(cls, d: dict, ignore=()):
    """Build config dataclass ``cls`` from a JSON object; absent keys keep their defaults.

    A key that is neither a field nor in ``ignore`` raises; every error names ``cls``.
    An already-built ``cls`` passes through unchanged.
    """
    if isinstance(d, cls):
        return d
    if not isinstance(d, dict):
        raise TypeError(f"{cls.__name__} must be a JSON object, got {type(d).__name__}")
    hints = get_type_hints(cls)
    unknown = sorted(set(d) - set(hints) - set(ignore))
    if unknown:
        raise ValueError(f"{cls.__name__} has no field(s) {unknown}")
    where = cls.__name__ + "."
    return cls(**{k: _coerce(hints[k], v, where + k) for k, v in d.items() if k in hints})
