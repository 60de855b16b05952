"""The benchmark's layer tracer still binds every function it wraps.

perfbench/tracer.py looks each layer function up by module and name
(``harness.fit``, ``features.extract_all``, ``report.write_all``, ...).
A rename or a changed return shape would only surface when the traced
benchmark runs; these tests install the tracer, drive a tiny evaluate
and features run through it, and check that uninstall restores every
original.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from csibio import ingest, synth
from csibio.cli import main

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bound(layers):
    out = []
    for module_name, attr, *_ in layers:
        owner = importlib.import_module(f"csibio.{module_name}")
        *path, name = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        out.append(getattr(owner, name))
    return out


def test_install_and_uninstall_resolve_every_layer(tracer_module):
    before = _bound(tracer_module.LAYERS)
    uninstall = tracer_module.install(tracer_module.Tracer())
    try:
        wrapped = _bound(tracer_module.LAYERS)
        assert all(w is not b for w, b in zip(wrapped, before))
    finally:
        uninstall()
    assert all(a is b for a, b in zip(_bound(tracer_module.LAYERS), before))


def test_traced_run_observes_every_layer(tracer_module, tmp_path, capsys):
    scenario = synth.bundled_scenario(
        n_subjects=3, samples_per_subject=2, n_samples=64, n_subcarriers=8
    )
    ingest.write_dataset_dir(synth.generate_dataset(scenario), tmp_path / "ds")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "protocol": {"window_size": 32, "selection_k": 4, "mi_bins": 4, "bioquake_resamples": 5},
        "models": [{"kind": "random_forest", "hyperparams": {"n_trees": 2}},
                   {"kind": "knn", "hyperparams": {"k": 1}}],
        "audit_model": "knn",
    }))
    ds = str(tmp_path / "ds")
    tracer = tracer_module.Tracer()
    uninstall = tracer_module.install(tracer)
    try:
        assert main(["evaluate", ds, "--config", str(cfg), "--out", str(tmp_path / "e")]) == 0
        assert main(["features", ds, "--config", str(cfg), "--out", str(tmp_path / "f")]) == 0
    finally:
        uninstall()
    metrics = tracer_module.layer_metrics([tracer.dump()])
    assert metrics["harness.windows"] == 2 * 6 * 2  # two commands, 6 records x 2 windows
    assert metrics["harness.folds"] == 2 * 2  # run_cv plus the audit's leaky pass
    assert metrics["classify.fits"] == 2 * 2 + 2  # 2 folds x (2 models + 1 audit pass)
    assert metrics["report.bytes_written"] > 0
    assert metrics["select.mrmr_calls"] > 0
    assert metrics["metrics.eer_calls"] > 0
    spans = {s[0] for s in tracer.spans}
    for name in ("calib.calibrate", "clean.iqr_filter", "clean.mad_repair",
                 "features.extract", "harness.window", "harness.run_cv",
                 "harness.leakage_audit", "classify.fit.random_forest",
                 "classify.predict.knn", "metrics.security_report", "report.write",
                 "cli.features", "ingest.read_dataset"):
        assert name in spans, name
