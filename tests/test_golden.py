"""Byte-level golden pins for one small fixed scenario.

Every digest below was computed once and is compared exactly, so a
change that shifts any reported number, any CSV byte or any saved model
byte fails here. Run-to-run determinism is tested elsewhere; these pins
also hold across refactors. Pins were recorded with Python 3.11 and
numpy 2.4.6; a different numpy or BLAS may legitimately change the
floating-point digests.
"""

import hashlib
import json

import numpy as np
import pytest

from csibio import harness, ingest, synth
from csibio.classify import MODEL_KINDS, ModelSpec, fit, save_model
from csibio.cli import main
from csibio.model import FeatureMatrix

PROTOCOL = {
    "window_size": 40,
    "selection_k": 8,
    "bioquake_resamples": 20,
    "preprocess": {"mad_window": 7},
}
MODELS = [
    {"kind": "knn", "hyperparams": {"k": 3}},
    {"kind": "gaussian_nb"},
]
CONFIG = {"protocol": PROTOCOL, "models": MODELS, "audit_model": "knn"}
# Every protocol field away from its default, to pin config round-trips.
RICH_PROTOCOL = {
    "window_size": 64,
    "window_stride": 16,
    "folds": 4,
    "split_mode": "per_window_stratified",
    "normalization": "global_zscore_leaky",
    "selection_k": 5,
    "mi_bins": 6,
    "binning": "equal_width",
    "hand_filter": "pooled",
    "feature_groups": ["phase", "amplitude"],
    "preprocess": {
        "calibrate": False, "cfo_scope": "global", "iqr_filter": False, "mad_window": None,
    },
    "grids": {"knn": {"k": [1, 3]}},
    "fcs_bins": 20,
    "bioquake_resamples": 30,
    "seed": 9,
}

DATASET_DIGEST = "9b645cb9100197c9ed0baf4738757d229057299b21680e80cde1707920bc80bb"
CONFIG_DIGEST = "93ae6ae10c999d1c9d437dff207f0dba0cee2e9d5a07640ab28ad9bf1b177da6"
RESULT_DIGEST = "f9d5ed14e0d0571a70c33f7b67526905da403a076541f99df730e9e0a6feec26"
PRINT_CONFIG_SHA = {
    "features": "6198ca2449a3b42985089b14a81858aebd8aea1ff124dcd060732e5ae32a526c",
    "evaluate": "97b523ff8e460b50dda45188f10e5b120a2a93840d26852ad6a6358b4b149065",
}
# (command, config file contents, extra arguments) -> --print-config sha256
RICH_PRINT_CONFIG = [
    ("features", RICH_PROTOCOL, [],
     "e5bb9c03a3084d2c3a12e8a4744f274f094953e7f714f2e897f27c5f90f03334"),
    ("features", {"protocol": RICH_PROTOCOL}, ["--window-size", "32", "--seed", "5"],
     "e78c9160d09391cc9adaa6bf21435b3052a9834a168630534e0d749e60e10129"),
    ("evaluate", {"protocol": RICH_PROTOCOL, "models": MODELS, "audit": False}, [],
     "d5a3ddf4f35337e0bbc4a7cdd2b7f3feedea187c9788b911bb5336885c50c2a7"),
    ("evaluate", {"protocol": RICH_PROTOCOL}, ["--window-size", "32", "--seed", "5"],
     "556d449e4fae8b7a76d4474bef98c8a23ec30f383c0aec1d588f19d2feb14eb6"),
    ("evaluate", RICH_PROTOCOL, [],
     "ed8032e2a14a61275772c68be3cf0aeac9c9ed08879e218348f3e73393ab2e64"),
]
REPORT_SHA = {
    "metrics_summary.csv": "71a21a83994e0bac201f9b2b7f53b44f881ccf96aa568c6503019579181b6489",
    "gini.csv": "6ecad36c29fb218e8064d01e0e100b760e47751cf3ebb50bd3b4bbae352f26cf",
    "bioquake.csv": "561bee4999403acf2c58d013d3081c856efff94e7202677e050e4ed9d061b1ae",
    "eer_per_class.csv": "d61fa2257676ed878f6f8dd484c0fe8c7bc0a989b5e796dea16d9fb9c6567ff2",
    "fcs_histogram.csv": "6d183d47c9894bc7b4f9730077547e5909e742a2f2100909f914b7e0a2f01033",
    "feature_ranking.csv": "0be79379742e819d95c1e9e2f1ed9014238c5cf47d2f51162f1b052f63d772d6",
}
# run_result.json without its generated_at line
RUN_RESULT_SHA = "5de2bbb8606736577cb24e62cece4ee34abe0639f7a7c85030af7decc3a8e345"
FEATURES_CSV_SHA = "858c28794206eacaa1cb6c73804d92fd2913a1b5942a2edff79c79236b842617"
MODEL_SHA = {
    "knn": "530258ab7b377d93442c0c8968ecd18463fb66a1557531d8a25e037a1cf6fba4",
    "gaussian_nb": "5e7b358b3a951cc7d53613e00100e3595900df30eb1e64109eeebf65c0759616",
    "decision_tree": "12b483512c611a085713854aeaebdbde7ac564b9557f2e85f5f1575f3ccf9887",
    "random_forest": "f4c7560a0788c30c63a9f243e5dd46ff9b5093aba50cafb357a23f154d6aa63d",
    "mlp": "e8ac21646208a3242a1c3f5a48fe8fcdb76d2a537055884164a9dd7936b599a1",
}


def _sha(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def golden(tmp_path_factory):
    """Run synth, features and evaluate once through the CLI."""
    root = tmp_path_factory.mktemp("golden")
    scenario = synth.bundled_scenario(
        n_subjects=4, samples_per_subject=3, n_samples=120, n_subcarriers=16
    )
    dataset = synth.generate_dataset(scenario)
    ingest.write_dataset_dir(dataset, root / "ds")
    config = root / "config.json"
    config.write_text(json.dumps(CONFIG))
    ds, cfg = str(root / "ds"), str(config)
    assert main(["features", ds, "--config", cfg, "--out", str(root / "feat")]) == 0
    assert main(["evaluate", ds, "--config", cfg, "--out", str(root / "eval")]) == 0
    return root, dataset


def test_dataset_and_config_digests(golden):
    _, dataset = golden
    assert dataset.digest() == DATASET_DIGEST
    assert harness.protocol_from_dict(PROTOCOL).digest() == CONFIG_DIGEST


@pytest.mark.parametrize("command", ["features", "evaluate"])
def test_print_config_bytes(golden, command, capsys):
    root, _ = golden
    capsys.readouterr()
    assert main([command, "--config", str(root / "config.json"), "--print-config"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == PRINT_CONFIG_SHA[command]


@pytest.mark.parametrize("command,config,extra,expected", RICH_PRINT_CONFIG)
def test_rich_print_config_bytes(tmp_path, command, config, extra, expected, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main([command, "--config", str(path), *extra, "--print-config"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == expected


def test_result_digest(golden):
    root, _ = golden
    result = json.loads((root / "eval" / "run_result.json").read_text())
    assert result["result_digest"] == RESULT_DIGEST
    assert result["config_digest"] == CONFIG_DIGEST
    assert result["dataset_digest"] == DATASET_DIGEST


def test_report_and_feature_csv_bytes(golden):
    root, _ = golden
    got = {name: _sha(root / "eval" / name) for name in REPORT_SHA}
    assert got == REPORT_SHA
    lines = (root / "eval" / "run_result.json").read_text().splitlines(keepends=True)
    kept = "".join(line for line in lines if '"generated_at"' not in line)
    assert hashlib.sha256(kept.encode()).hexdigest() == RUN_RESULT_SHA
    assert _sha(root / "feat" / "features.csv") == FEATURES_CSV_SHA


def test_saved_model_bytes(golden, tmp_path):
    _, dataset = golden
    protocol = harness.protocol_from_dict(PROTOCOL)
    ws = harness.prepare_windows(dataset, protocol)
    values = harness.Scaler.fit(ws.matrix.values).transform(ws.matrix.values)
    matrix = FeatureMatrix(ws.matrix.feature_names, values, ws.matrix.labels)
    assert np.isfinite(values).all()
    got = {}
    for kind in MODEL_KINDS:
        path = tmp_path / f"{kind}.mdl"
        save_model(fit(ModelSpec(kind, seed=protocol.seed), matrix), path)
        got[kind] = _sha(path)
    assert got == MODEL_SHA
