import numpy as np
import pytest

from csibio.model import (
    CsiMatrix,
    Dataset,
    FeatureMatrix,
    Hand,
    ScoreMatrix,
    SubjectLabel,
    validate_matrix,
)
from conftest import random_matrix


def _matrix(values, freqs=None):
    values = np.asarray(values, dtype=complex)
    if freqs is None:
        freqs = 5.18e9 + 312_500.0 * np.arange(values.shape[0])
    return CsiMatrix(values=values, freqs=freqs)


class TestValidateMatrix:
    def test_minimal_valid_matrix(self):
        m = _matrix([[1 + 1j, 2], [3, 4j]])
        assert validate_matrix(m) == []

    def test_duplicate_frequency_flagged(self):
        m = _matrix([[1, 2], [3, 4]], freqs=np.array([5.18e9, 5.18e9]))
        violations = validate_matrix(m)
        assert any("non-increasing-freqs" in v for v in violations)

    def test_nan_entry_located(self):
        vals = np.ones((3, 3), dtype=complex)
        vals[1, 2] = np.nan
        violations = validate_matrix(_matrix(vals))
        assert violations == ["non-finite-entry at (1,2)"]

    def test_too_small(self):
        m = _matrix(np.ones((1, 2)), freqs=np.array([5.18e9]))
        assert any("too-few-subcarriers" in v for v in validate_matrix(m))

    def test_deterministic_order(self, rng):
        m = random_matrix(rng, 4, 4)
        assert validate_matrix(m) == validate_matrix(m)


class TestLabels:
    def test_empty_subject_rejected(self):
        with pytest.raises(ValueError):
            SubjectLabel("")

    def test_negative_sample_rejected(self):
        with pytest.raises(ValueError):
            SubjectLabel("a", -1)

    def test_hand_default(self):
        assert SubjectLabel("a").hand is Hand.UNSPECIFIED


class TestDataset:
    def test_counts_and_subjects(self, rng):
        m = random_matrix(rng)
        d = Dataset(
            (
                (m, SubjectLabel("a", 0)),
                (m, SubjectLabel("a", 1)),
                (m, SubjectLabel("b", 0)),
            )
        )
        assert d.subject_ids() == ["a", "b"]

    def test_digest_sensitive_to_values(self, rng):
        m1 = random_matrix(rng)
        m2 = m1.with_values(m1.values + 1e-12)
        d1 = Dataset(((m1, SubjectLabel("a")),))
        d2 = Dataset(((m2, SubjectLabel("a")),))
        assert d1.digest() != d2.digest()
        assert d1.digest() == Dataset(((m1, SubjectLabel("a")),)).digest()


class TestFeatureTypes:
    def test_select_reorders_columns(self):
        fm = FeatureMatrix(("a", "b"), np.array([[1.0, 2.0]]), ("x",))
        sel = fm.select(["b", "a"])
        assert sel.feature_names == ("b", "a")
        assert sel.values.tolist() == [[2.0, 1.0]]


class TestScoreMatrix:
    def test_rows_must_sum_to_one(self):
        with pytest.raises(ValueError):
            ScoreMatrix(("a", "b"), np.array([[0.6, 0.6]]), ("a",))

    def test_probabilities_in_unit_interval(self):
        with pytest.raises(ValueError):
            ScoreMatrix(("a", "b"), np.array([[1.5, -0.5]]), ("a",))

    @pytest.mark.parametrize("row", [[np.nan, np.nan], [np.nan, 1.0], [np.inf, 0.0]])
    def test_non_finite_probabilities_rejected(self, row):
        with pytest.raises(ValueError, match="finite"):
            ScoreMatrix(("a", "b"), [row], ("a",))

    def test_concatenate_preserves_order(self):
        a = ScoreMatrix(("x", "y"), np.array([[1.0, 0.0]]), ("x",))
        b = ScoreMatrix(("x", "y"), np.array([[0.0, 1.0]]), ("y",))
        c = ScoreMatrix.concatenate([a, b])
        assert c.true_labels == ("x", "y")
        assert c.predicted_labels() == ["x", "y"]
