"""Report emission: CSV tables and JSON results for one evaluation run.

Every file starts with a ``#`` provenance line (tool version, config
digest, dataset digest, seed). Nothing time-dependent is written into
the CSVs, so identical runs produce byte-identical tables; the JSON
result carries a ``generated_at`` timestamp which is excluded from the
result digest.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import asdict
from pathlib import Path

from . import __version__
from .harness import RunResult


def provenance_line(config_digest: str, dataset_digest: str, seed: int) -> str:
    """The ``#`` first line of every CSV this package writes."""
    return f"# csibio {__version__} config={config_digest} dataset={dataset_digest} seed={seed}"


def _fmt(x: float, digits: int = 12) -> str:
    return f"{float(x):.{digits}g}"


def _metrics_summary(result: RunResult):
    """Model-level table: precision/specificity/recall/F1/ROC-AUC/EER."""
    for name, r in sorted(result.reports.items()):
        a = r.aggregate
        yield [name, _fmt(a["accuracy"]), _fmt(a["macro_precision"]),
               _fmt(a["macro_specificity"]), _fmt(a["macro_recall"]),
               _fmt(a["macro_f1"]), _fmt(r.auc_macro), _fmt(r.bioquake_data.eer),
               _fmt(r.eer_mean)]


def _gini(result: RunResult):
    """Per-model FAR/FRR rates and Gini coefficients at EER thresholds."""
    for name, r in sorted(result.reports.items()):
        g = r.gini_data
        yield [name, _fmt(g.far_rate), _fmt(g.frr_rate), _fmt(g.gc_far),
               _fmt(g.gc_frr), _fmt(g.gc_mean), ";".join(g.flags)]


def _bioquake(result: RunResult):
    """Per-model EER with bootstrap uncertainty and CI width."""
    for name, r in sorted(result.reports.items()):
        b = r.bioquake_data
        yield [name, _fmt(b.eer), _fmt(b.uncertainty), _fmt(b.ci_width)]


def _eer_per_class(result: RunResult):
    """Per-subject EER operating points for every model."""
    for name, r in sorted(result.reports.items()):
        for e in r.eer_results:
            yield [name, e.class_id, _fmt(e.eer), _fmt(e.threshold),
                   _fmt(e.far), _fmt(e.frr), int(e.interpolated)]


def _fcs_histogram(result: RunResult):
    """Genuine/impostor score histograms for external plotting."""
    for name, r in sorted(result.reports.items()):
        f = r.fcs_data
        for i in range(f.genuine_counts.shape[0]):
            yield [name, _fmt(f.bin_edges[i]), _fmt(f.bin_edges[i + 1]),
                   int(f.genuine_counts[i]), int(f.impostor_counts[i])]


def _feature_ranking(result: RunResult):
    """Descriptive full-dataset mRMR ranking (plot data, not a fit input)."""
    for rank, r in enumerate(result.feature_ranking, start=1):
        yield [rank, r.name, _fmt(r.relevance), _fmt(r.redundancy), _fmt(r.score)]


# File name -> (header, row generator), in bundle order.
_TABLES = {
    "metrics_summary.csv": (
        ["model", "accuracy", "precision", "specificity", "recall", "f1",
         "roc_auc", "eer_pooled", "eer_mean"],
        _metrics_summary,
    ),
    "gini.csv": (["model", "far", "frr", "gc_far", "gc_frr", "gc_mean", "flags"], _gini),
    "bioquake.csv": (["model", "eer", "uncertainty", "ci_width"], _bioquake),
    "eer_per_class.csv": (
        ["model", "class_id", "eer", "threshold", "far", "frr", "interpolated"],
        _eer_per_class,
    ),
    "fcs_histogram.csv": (
        ["model", "bin_lo", "bin_hi", "genuine_count", "impostor_count"],
        _fcs_histogram,
    ),
    "feature_ranking.csv": (
        ["rank", "name", "relevance", "redundancy", "score"],
        _feature_ranking,
    ),
}


def write_run_result(path, result: RunResult) -> None:
    """Full JSON result; ``generated_at`` is excluded from the digest.

    A NaN or infinite value raises ValueError instead of writing invalid JSON.
    """
    audit = result.leakage_audit
    payload = {
        "tool": f"csibio {__version__}",
        "config_digest": result.config_digest,
        "dataset_digest": result.dataset_digest,
        "result_digest": result.digest(),
        **result.payload(),
        "leakage_audit": None if audit is None else asdict(audit),
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")


def write_all(out_dir, result: RunResult) -> list[str]:
    """Emit the full report bundle; returns the written file names."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    first_line = provenance_line(result.config_digest, result.dataset_digest, result.seed)
    for name, (header, rows) in _TABLES.items():
        with open(out / name, "w", newline="") as fh:
            fh.write(first_line + "\n")
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(header)
            w.writerows(rows(result))
    write_run_result(out / "run_result.json", result)
    return [*_TABLES, "run_result.json"]
