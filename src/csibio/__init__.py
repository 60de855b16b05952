"""Wi-Fi CSI biometric evaluation toolkit.

Pipeline stages: ingest (pcap / portable files) or synth (multipath
generator) -> calib (phase calibration) -> clean (outlier removal) ->
features (handcrafted descriptors) -> select (mRMR) -> classify ->
metrics (EER / FCS / Gini / BioQuake) under the leakage-guarded
cross-validation harness. The ``csibio`` CLI wires the stages together.
"""

__version__ = "0.1.0"

from .model import (  # noqa: F401
    CsiMatrix,
    Dataset,
    FeatureMatrix,
    Hand,
    ScoreMatrix,
    SubjectLabel,
    validate_matrix,
)
