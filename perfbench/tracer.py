"""Span tracer installed around csibio's layer functions from outside the package.

Each wrapper is bound where the caller looks the function up (a module
attribute such as ``harness.fit`` or a class attribute such as
``TrainedModel.predict_proba``), so the package itself is untouched.
A span records its name, start, end and the index of the span that was
open when it began; a layer's self time is its duration minus the time
its child spans cover. Hot, tiny functions (``select.discretize``,
``metrics.eer_from_scores``) are counted, not timed, so the tracer does
not distort the layers that call them.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict
from pathlib import Path


class Tracer:
    """In-memory spans and counters for one process."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def timed(self, fn, name, observe=None):
        """Wrap ``fn`` in a span; ``name`` may be a callable of the call's args."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            index = len(self.spans)
            self.spans.append([label, time.perf_counter(), None,
                               self._stack[-1] if self._stack else -1])
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[index][2] = time.perf_counter()
            if observe is not None:
                observe(self.counts, args, kwargs, result)
            return result

        return wrapper

    def counted(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}


# --- what each layer reports besides its time ----------------------------------

SKIP_KINDS = ("non_csi", "wrong_subcarriers", "truncated")  # parse_pcap's skipped_* meta


def _parse_pcap(counts, args, kwargs, matrix):
    counts["ingest.frames_accepted"] += matrix.n_samples
    for kind in SKIP_KINDS:
        counts[f"ingest.skipped_{kind}"] += matrix.meta[f"skipped_{kind}"]


def _iqr_filter(counts, args, kwargs, result):
    counts["clean.subcarriers_dropped"] += len(result[1])


def _mad_repair(counts, args, kwargs, result):
    counts["clean.samples_repaired"] += result[1].repaired_count


def _prepare_windows(counts, args, kwargs, ws):
    counts["harness.windows"] += ws.matrix.n_rows


def _cv_scores(counts, args, kwargs, result):
    counts["harness.folds"] += len(result[2])  # one FoldAudit per fold


def _mrmr(counts, args, kwargs, ranking):
    counts["select.mrmr_calls"] += 1
    counts["select.columns_ranked"] += len(args[0].feature_names)


def _fit(counts, args, kwargs, model):
    counts["classify.fits"] += 1


def _write_all(counts, args, kwargs, names):
    out = Path(args[0])
    counts["report.bytes_written"] += sum((out / n).stat().st_size for n in names)


def _cmd_features(counts, args, kwargs, code):
    if not args[0].print_config:
        counts["report.bytes_written"] += (Path(args[0].out) / "features.csv").stat().st_size


# (module, attribute or Class.attribute, span name or None to count only, observer)
LAYERS = (
    ("ingest", "parse_pcap", "ingest.parse_pcap", _parse_pcap),
    ("ingest", "write_dataset_dir", "ingest.write_dataset", None),
    ("ingest", "read_dataset_dir", "ingest.read_dataset", None),
    ("calib", "calibrate", "calib.calibrate", None),
    ("clean", "iqr_subcarrier_filter", "clean.iqr_filter", _iqr_filter),
    ("clean", "mad_temporal_repair", "clean.mad_repair", _mad_repair),
    ("features", "extract_all", "features.extract", None),
    ("harness", "window_dataset", "harness.window", None),
    ("harness", "prepare_windows", "harness.prepare_windows", _prepare_windows),
    ("harness", "run_cv", "harness.run_cv", None),
    ("harness", "leakage_audit", "harness.leakage_audit", None),
    ("harness", "_cv_scores", "harness.cv_scores", _cv_scores),
    ("harness", "fit", lambda spec, *a, **k: f"classify.fit.{spec.kind}", _fit),
    ("classify", "TrainedModel.predict_proba",
     lambda model, *a, **k: f"classify.predict.{model.spec.kind}", None),
    ("select", "mrmr_rank", "select.mrmr", _mrmr),
    ("select", "discretize", None, "select.discretize_calls"),
    ("metrics", "build_security_report", "metrics.security_report", None),
    ("metrics", "eer_from_scores", None, "metrics.eer_calls"),
    ("report", "write_all", "report.write", _write_all),
    ("cli", "_cmd_features", "cli.features", _cmd_features),
)


def install(tracer: Tracer, layers=LAYERS):
    """Replace each layer function with its wrapper; returns an undo callable."""
    undo = []
    for module_name, attr, name, extra in layers:
        owner = importlib.import_module(f"csibio.{module_name}")
        *path, fn_name = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = getattr(owner, fn_name)
        if name is None:
            wrapper = tracer.counted(original, extra)
        else:
            wrapper = tracer.timed(original, name, extra)
        setattr(owner, fn_name, wrapper)
        undo.append((owner, fn_name, original))

    def uninstall():
        for owner, fn_name, original in reversed(undo):
            setattr(owner, fn_name, original)

    return uninstall


def self_and_inclusive(spans) -> tuple[dict, dict]:
    """Per span name: summed self time and summed inclusive time, in seconds."""
    incl = defaultdict(float)
    own = defaultdict(float)
    for name, start, end, _ in spans:
        incl[name] += end - start
        own[name] += end - start
    for name, start, end, parent in spans:
        if parent >= 0:
            own[spans[parent][0]] -= end - start
    return dict(own), dict(incl)


# Counters that must repeat exactly across traced runs of one input.
STEADY_COUNTERS = (
    "select.mrmr_calls",
    "select.discretize_calls",
    "metrics.eer_calls",
    "classify.fits",
    "harness.windows",
    "ingest.frames_accepted",
    "ingest.frames_skipped",
    "clean.subcarriers_dropped",
    "clean.samples_repaired",
)

MODEL_KINDS = ("random_forest", "knn")


def layer_metrics(dumps: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced chain, from the dumps of its processes."""
    spans_own: Counter = Counter()
    spans_incl: Counter = Counter()
    counts: Counter = Counter()
    for dump in dumps:
        own, incl = self_and_inclusive(dump["spans"])
        spans_own.update(own)
        spans_incl.update(incl)
        counts.update(dump["counts"])

    def own(name):
        return spans_own.get(name, 0.0)

    extract_calls = sum(1 for d in dumps for s in d["spans"] if s[0] == "features.extract")
    out = {
        "ingest.parse_pcap_s": own("ingest.parse_pcap"),
        "ingest.frames_accepted": counts["ingest.frames_accepted"],
        "ingest.frames_skipped": sum(counts[f"ingest.skipped_{k}"] for k in SKIP_KINDS),
        "ingest.write_dataset_s": own("ingest.write_dataset"),
        "ingest.read_dataset_s": own("ingest.read_dataset"),
        "synth.generate_s": own("synth.generate"),
        "calib.calibrate_s": own("calib.calibrate"),
        "clean.iqr_filter_s": own("clean.iqr_filter"),
        "clean.subcarriers_dropped": counts["clean.subcarriers_dropped"],
        "clean.mad_repair_s": own("clean.mad_repair"),
        "clean.samples_repaired": counts["clean.samples_repaired"],
        "features.extract_s": own("features.extract"),
        "features.us_per_window": 1e6 * own("features.extract") / max(extract_calls, 1),
        "harness.window_s": own("harness.window"),
        "harness.windows": counts["harness.windows"],
        "harness.prepare_windows_s_incl": spans_incl.get("harness.prepare_windows", 0.0),
        "harness.run_cv_s_incl": spans_incl.get("harness.run_cv", 0.0),
        "harness.leakage_audit_s_incl": spans_incl.get("harness.leakage_audit", 0.0),
        "harness.folds": counts["harness.folds"],
        "select.mrmr_s": own("select.mrmr"),
        "select.mrmr_calls": counts["select.mrmr_calls"],
        "select.discretize_calls": counts["select.discretize_calls"],
        "select.discretize_per_column": (
            counts["select.discretize_calls"] / counts["select.columns_ranked"]
            if counts["select.columns_ranked"] else 0.0
        ),
        **{f"classify.fit_s.{k}": own(f"classify.fit.{k}") for k in MODEL_KINDS},
        **{f"classify.predict_s.{k}": own(f"classify.predict.{k}") for k in MODEL_KINDS},
        "classify.fits": counts["classify.fits"],
        "metrics.security_report_s": own("metrics.security_report"),
        "metrics.eer_calls": counts["metrics.eer_calls"],
        "report.write_s": own("report.write"),
        "report.bytes_written": counts["report.bytes_written"],
        "cli.features_csv_s": own("cli.features"),
    }
    for kind in SKIP_KINDS:
        out[f"ingest.skipped_{kind}"] = counts[f"ingest.skipped_{kind}"]
    return out
