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
    "fcs_bins": 20,
    "bioquake_resamples": 30,
    "seed": 9,
}

DATASET_DIGEST = "9b645cb9100197c9ed0baf4738757d229057299b21680e80cde1707920bc80bb"
CONFIG_DIGEST = "95da47d662f035baddbe3ebf959739b32e0d2b24523bc402c562320332b94107"
RESULT_DIGEST = "9a67213e9cbfde53baacca7c8a0ddbe89d76bd3f67d44d156a01b2a99d3c877f"
PRINT_CONFIG_SHA = {
    "features": "216b03a5c9062e8eca08a4be8925815a6cf27e874a17bed9815bcadab81deb8b",
    "evaluate": "1ca4a6bd59ffc02c4c54a52226a9df2ab1577de3b9bbb0697eea2336088c35e3",
}
# (command, config file contents, extra arguments) -> --print-config sha256
RICH_PRINT_CONFIG = [
    ("features", RICH_PROTOCOL, [],
     "61fc2a8dbba0c2f7321c648b30e9f803417f9a25ed2ac0dfcc5ade7fcc024c5d"),
    ("features", {"protocol": RICH_PROTOCOL}, ["--window-size", "32", "--seed", "5"],
     "db75f8197b65c7ef707c0288e4cf7a140d18f9e2ce4600b14a044414a56ebbb3"),
    ("evaluate", {"protocol": RICH_PROTOCOL, "models": MODELS, "audit": False}, [],
     "7311d19ea2301b001e8da05b4c379402036093fa268140bf8cb266578ea56db2"),
    ("evaluate", {"protocol": RICH_PROTOCOL}, ["--window-size", "32", "--seed", "5"],
     "bee0233e1fdffc54d221e8746d0d9d67d9502c4a4c6488ce781b180dc61ff946"),
    ("evaluate", RICH_PROTOCOL, [],
     "61fbed2bef0a6aa6e66a4f86743be88646d9cbf774a3ff9a53c97382c0907b60"),
]
# A partial scenario: ints in float fields, defaults left out, an attack, hand left.
SCENARIO = {
    "subjects": [
        {"subject_id": "a", "paths": [[1, 0.5, 2e-8]], "noise_sigma": 0.01, "seed": 3},
        {"subject_id": "b", "paths": [[0.8, 1, 0], [0.3, 2.5, 5e-8]]},
    ],
    "n_samples": 100,
    "freq_step": 625000,
    "hand": "left",
    "attack": {"kind": "mimicry", "param": 0.25},
}
# (scenario file contents or None for the bundled one, extra arguments) -> sha256
SYNTH_PRINT_CONFIG = [
    (None, [], "7e4d4ac6c32f2ba7bbb257dc8e8cd734fdcdbb094d88d963424664cd57e18fef"),
    (SCENARIO, ["--seed", "7"], "fba0b4788b99f9c965cca5a7bb0f20b20cd435e33dcc4c36221f525246ac63b6"),
]
REPORT_SHA = {
    "metrics_summary.csv": "f18f5c42ced23cd26fb9f68e7f093b44b177679d98b92f183a3a58b7364b1e71",
    "gini.csv": "5d611ba87bd97e65865d49810397ee41c9bad9f6dbfc6075e5b3b00531c9b11d",
    "bioquake.csv": "b8b836e15c030675d6b91b3f99f499596bd21447b2a92d7b96f0e23b604cc703",
    "eer_per_class.csv": "b958c4d2811ea0a951359223cbfcefa3478335955c94d964288b81ec0fd86a55",
    "fcs_histogram.csv": "e999deffa6deb3f6b6b9ed07b96f7f2ebcf30d8c6f820b7b1a155e4f1cefa672",
    "feature_ranking.csv": "5a6d4274d2a9d4cb6a0f862254fbcfe5898907bf5b07ad674fe6dbe1162ec4af",
}
# run_result.json without its generated_at line
RUN_RESULT_SHA = "bc50f72f23e9a2a949a415e6705a177bdd41fadb1bd7f54c2233f39c6c7bf7f4"
FEATURES_CSV_SHA = "7f36925f38f4f42361a5a95ac6c9557e36360f2a7c38e55494265453bd3923b2"
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


# Ids leave the digest out, so a moved pin does not rename the test.
@pytest.mark.parametrize(
    "command,config,extra,expected",
    RICH_PRINT_CONFIG,
    ids=["features-bare", "features-overrides", "evaluate-audit-off",
         "evaluate-overrides", "evaluate-bare"],
)
def test_rich_print_config_bytes(tmp_path, command, config, extra, expected, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main([command, "--config", str(path), *extra, "--print-config"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == expected


@pytest.mark.parametrize(
    "scenario,extra,expected", SYNTH_PRINT_CONFIG, ids=["bundled", "attack-left-hand"]
)
def test_synth_print_config_bytes(tmp_path, scenario, extra, expected, capsys):
    if scenario is not None:
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
        extra = ["--scenario", str(path), *extra]
    assert main(["synth", *extra, "--print-config"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == expected


def _keys(config: dict) -> set:
    """The keys a config sets, a wrapped protocol's keys counted beside the others."""
    return set(config) - {"protocol"} | set(config.get("protocol", {}))


# (command, config file contents or None, extra arguments): every pinned --print-config input.
ROUND_TRIPS = [
    ("evaluate", CONFIG, []),
    *(row[:3] for row in RICH_PRINT_CONFIG),
    *(("synth", scenario, extra) for scenario, extra, _ in SYNTH_PRINT_CONFIG),
]


@pytest.mark.parametrize(
    "command,config,extra",
    ROUND_TRIPS,
    ids=["evaluate-config", "features-bare", "features-overrides", "evaluate-audit-off",
         "evaluate-overrides", "evaluate-bare", "synth-bundled", "synth-attack-left-hand"],
)
def test_print_config_round_trip(tmp_path, command, config, extra, capsys):
    """A printed config keeps every key its file set and prints itself again byte for byte."""
    flag = "--scenario" if command == "synth" else "--config"

    def printed(config, extra):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        source = [] if config is None else [flag, str(path)]
        assert main([command, *source, *extra, "--print-config"]) == 0
        return capsys.readouterr().out

    first = printed(config, extra)
    assert _keys(config or {}) <= _keys(json.loads(first))
    assert printed(json.loads(first), []) == first


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
        save_model(fit(ModelSpec(kind), matrix, seed=protocol.seed), path)
        got[kind] = _sha(path)
    assert got == MODEL_SHA
