import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def rng():
    return np.random.default_rng(0xC51)


def random_matrix(rng, k=8, t=16, scale=1.0):
    """Random complex CSI window with a strictly increasing frequency axis."""
    from csibio.model import CsiMatrix

    values = scale * (rng.normal(1.0, 0.5, (k, t)) + 1j * rng.normal(0.0, 0.5, (k, t)))
    freqs = 5.16e9 + 312_500.0 * np.arange(k)
    return CsiMatrix(values=values, freqs=freqs)


def run_group(fn, m):
    """One feature group on the single window ``m`` (a batch of one).

    Returns the group's values as name -> float and the names of the flags it raised.
    """
    from csibio.features import window_batch

    values, flags = fn(window_batch(m.values[None], m.freqs))
    return {k: float(v[0]) for k, v in values.items()}, [f for f, hit in flags.items() if hit[0]]


class FeatureRow(dict):
    """``features.extract_all`` of one window, keyed by feature name in column order."""

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self)

    def as_dict(self) -> dict[str, float]:
        return dict(self)


def extract_window(m, groups=None):
    """``features.extract_all`` of the single window ``m`` (a batch of one)."""
    from csibio import features

    groups = groups or features.ALL_GROUPS
    rows, _ = features.extract_all(m.values[None], m.freqs, groups)
    return FeatureRow(zip(features.feature_names(groups), rows[0]))
