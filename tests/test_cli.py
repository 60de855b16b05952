import csv
import json
import threading
from pathlib import Path

import numpy as np
import pytest

from csibio.classify import MODEL_KINDS
from csibio.cli import main
from csibio.synth import bundled_scenario, scenario_to_dict
from pcap_util import udp_packet, write_csi_capture


def _small_scenario_file(tmp_path, **kw) -> Path:
    scenario = bundled_scenario(
        n_subjects=kw.pop("n_subjects", 4),
        samples_per_subject=kw.pop("samples_per_subject", 3),
        n_samples=kw.pop("n_samples", 160),
        n_subcarriers=kw.pop("n_subcarriers", 16),
        noise_sigma=kw.pop("noise_sigma", 0.02),
    )
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario_to_dict(scenario)))
    return path


REPORT_FILES = ("metrics_summary.csv", "gini.csv", "bioquake.csv", "eer_per_class.csv",
                "fcs_histogram.csv", "feature_ranking.csv", "run_result.json")


def _protocol_file(tmp_path, **overrides) -> Path:
    cfg = {
        "protocol": {
            "window_size": 40,
            "selection_k": 8,
            "bioquake_resamples": 20,
            **overrides.pop("protocol", {}),
        },
        "models": overrides.pop(
            "models", [{"kind": "knn", "hyperparams": {"k": 3}}]
        ),
        **overrides,
    }
    path = tmp_path / "evaluate.json"
    path.write_text(json.dumps(cfg))
    return path


@pytest.fixture
def dataset_dir(tmp_path):
    scenario = _small_scenario_file(tmp_path)
    out = tmp_path / "ds"
    assert main(["synth", "--scenario", str(scenario), "--out", str(out)]) == 0
    return out


class TestSynthCommand:
    def test_bundled_scenario_writes_dataset(self, tmp_path, capsys):
        out = tmp_path / "ds"
        scenario = _small_scenario_file(tmp_path)
        code = main(["synth", "--scenario", str(scenario), "--out", str(out)])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["records"] == 12
        assert (out / "manifest.json").exists()

    def test_same_seed_identical_digests(self, tmp_path, capsys):
        scenario = _small_scenario_file(tmp_path)
        main(["synth", "--scenario", str(scenario), "--out", str(tmp_path / "a")])
        d1 = json.loads(capsys.readouterr().out)["digest"]
        main(["synth", "--scenario", str(scenario), "--out", str(tmp_path / "b")])
        d2 = json.loads(capsys.readouterr().out)["digest"]
        assert d1 == d2

    def test_invalid_scenario_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"subjects": []}))
        code = main(["synth", "--scenario", str(bad), "--out", str(tmp_path / "o")])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert "error" in err

    def test_print_config(self, tmp_path, capsys):
        assert main(["synth", "--print-config"]) == 0
        cfg = json.loads(capsys.readouterr().out)
        assert len(cfg["subjects"]) == 20


class TestIngestCommand:
    def test_pcap_to_dataset(self, tmp_path, rng, capsys):
        cap = tmp_path / "cap.pcap"
        frames = [
            [(int(a), int(b)) for a, b in rng.integers(-500, 500, (64, 2))]
            for _ in range(120)
        ]
        write_csi_capture(cap, frames)
        out = tmp_path / "ds"
        code = main(
            ["ingest", str(cap), "--subject", "p1", "--subcarriers", "64",
             "--out", str(out)]
        )
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["records"][0]["subject_id"] == "p1"
        assert manifest["records"][0]["subcarriers"] == 64

    def test_empty_input_exits_2(self, tmp_path, capsys):
        assert main(["ingest", "--out", str(tmp_path / "o")]) == 2

    def test_corrupt_file_exits_1_and_names_file(self, tmp_path, capsys):
        bad = tmp_path / "corrupt.pcap"
        bad.write_bytes(b"garbage")
        code = main(["ingest", str(bad), "--subject", "x", "--out", str(tmp_path / "o")])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert "corrupt.pcap" in err["detail"]


class TestFeaturesCommand:
    def test_features_csv_round_trip(self, dataset_dir, tmp_path, capsys):
        out = tmp_path / "feat"
        code = main(
            ["features", str(dataset_dir), "--window-size", "40", "--out", str(out)]
        )
        assert code == 0
        path = out / "features.csv"
        with open(path) as fh:
            assert fh.readline().startswith("#")
            rows = list(csv.DictReader(fh))
        assert len(rows) == 48  # 12 records x 4 windows of 40 from 160 samples
        # Round-trip precision of the emitted floats.
        from csibio import harness, ingest

        protocol = harness.protocol_from_dict({"window_size": 40})
        ws = harness.prepare_windows(ingest.read_dataset_dir(dataset_dir), protocol)
        for i, row in enumerate(rows[:5]):
            for j, name in enumerate(ws.matrix.feature_names):
                assert float(row[name]) == pytest.approx(
                    ws.matrix.values[i, j], abs=1e-12, rel=1e-12
                )

    def test_missing_dataset_exits_1(self, tmp_path):
        assert main(["features", str(tmp_path / "nope"), "--out", str(tmp_path / "o")]) == 1

    def test_static_dataset_temporal_columns_zero(self, tmp_path):
        scenario = _small_scenario_file(
            tmp_path, noise_sigma=0.0, n_samples=80, samples_per_subject=2
        )
        # Zero out jitter too so the channel is fully static.
        raw = json.loads(scenario.read_text())
        for s in raw["subjects"]:
            s["temporal_jitter_sigma"] = 0.0
        scenario.write_text(json.dumps(raw))
        ds = tmp_path / "static_ds"
        assert main(["synth", "--scenario", str(scenario), "--out", str(ds)]) == 0
        out = tmp_path / "feat"
        assert main(["features", str(ds), "--window-size", "40", "--out", str(out)]) == 0
        with open(out / "features.csv") as fh:
            fh.readline()
            rows = list(csv.DictReader(fh))
        for row in rows:
            for col in ("temporal_variability_mean", "temporal_variability_std",
                        "temporal_variability_cv", "stability_mean_cv"):
                assert float(row[col]) == 0.0

    def test_feature_csv_matches_reference_oracle(self, dataset_dir, tmp_path):
        # One emitted row re-derived with the naive reference implementation.
        out = tmp_path / "feat"
        assert main(["features", str(dataset_dir), "--window-size", "40",
                     "--out", str(out)]) == 0
        with open(out / "features.csv") as fh:
            fh.readline()
            row = next(csv.DictReader(fh))

        from csibio import harness, ingest
        from oracles import reference_features

        protocol = harness.protocol_from_dict({"window_size": 40})
        dataset = ingest.read_dataset_dir(dataset_dir)
        record = dataset.records[int(row["record_index"])][0].load()
        cleaned = harness.preprocess_record(record, protocol.preprocess)
        start = int(row["window_start"])
        window_values = cleaned.values[:, start : start + 40]
        expected = reference_features(
            [list(r) for r in window_values], list(cleaned.freqs)
        )
        for name, ref in expected.items():
            assert float(row[name]) == pytest.approx(ref, rel=1e-9, abs=1e-12), name


class TestEvaluateCommand:
    def test_end_to_end_reports(self, dataset_dir, tmp_path, capsys):
        cfg = _protocol_file(tmp_path)
        out = tmp_path / "rep"
        code = main(
            ["evaluate", str(dataset_dir), "--config", str(cfg), "--out", str(out)]
        )
        assert code == 0
        for name in (
            "metrics_summary.csv", "gini.csv", "bioquake.csv",
            "eer_per_class.csv", "fcs_histogram.csv", "feature_ranking.csv",
            "run_result.json",
        ):
            assert (out / name).exists(), name
        with open(out / "metrics_summary.csv") as fh:
            assert fh.readline().startswith("# csibio")
            rows = list(csv.DictReader(fh))
        assert rows[0]["model"] == "knn"
        assert float(rows[0]["accuracy"]) > 0.9
        result = json.loads((out / "run_result.json").read_text())
        assert result["leakage_audit"]["flagged"] is False
        assert "generated_at" in result

    def test_nan_result_exits_1_without_json(self, dataset_dir, tmp_path, capsys, monkeypatch):
        from dataclasses import replace

        from csibio import harness

        real_run_cv = harness.run_cv

        def run_cv_with_nan(*args, **kwargs):
            result = real_run_cv(*args, **kwargs)
            return replace(result, cv=result.cv._replace(accuracies={"knn": (float("nan"),)}))

        monkeypatch.setattr(harness, "run_cv", run_cv_with_nan)
        cfg = _protocol_file(tmp_path, audit=False)
        out = tmp_path / "rep"
        assert main(["evaluate", str(dataset_dir), "--config", str(cfg), "--out", str(out)]) == 1
        err = _one_json_error_line(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert not (out / "run_result.json").exists()

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_every_model_kind_runs(self, dataset_dir, tmp_path, capsys, kind):
        small = {"random_forest": {"n_trees": 5}, "mlp": {"hidden_layers": [8], "max_epochs": 20}}
        cfg = _protocol_file(tmp_path, models=[{"kind": kind, "hyperparams": small.get(kind, {})}],
                             audit=False)
        out = tmp_path / "rep"
        assert main(["evaluate", str(dataset_dir), "--config", str(cfg), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        for name in REPORT_FILES:
            assert (out / name).exists(), name

    def test_diverging_mlp_exits_1(self, tmp_path, capsys):
        scenario = _small_scenario_file(tmp_path, n_samples=500)
        data = tmp_path / "ds"
        assert main(["synth", "--scenario", str(scenario), "--out", str(data)]) == 0
        mlp = {"kind": "mlp", "hyperparams": {"learning_rate": 1e6, "max_epochs": 50}}
        cfg = _protocol_file(tmp_path, models=[mlp], audit=False)
        out = tmp_path / "rep"
        capsys.readouterr()
        assert main(["evaluate", str(data), "--config", str(cfg), "--out", str(out)]) == 1
        err = _one_json_error_line(capsys.readouterr().err)
        assert err["error"] == "Diverged"
        assert not (out / "run_result.json").exists()

    def test_library_run_matches_cli_under_one_seed(self, dataset_dir, tmp_path, capsys):
        """The protocol seed is the only seed: run_cv and evaluate share it."""
        from csibio import harness
        from csibio.classify import ModelSpec
        from csibio.ingest import read_dataset_dir

        forest = {"kind": "random_forest", "hyperparams": {"n_trees": 3}}
        cfg = _protocol_file(tmp_path, models=[forest], audit=False)
        argv = ["evaluate", str(dataset_dir), "--config", str(cfg), "--seed", "7",
                "--out", str(tmp_path / "rep")]
        capsys.readouterr()
        assert main(argv) == 0
        cli_digest = json.loads(capsys.readouterr().out)["result_digest"]
        protocol = harness.ProtocolConfig(window_size=40, selection_k=8, bioquake_resamples=20,
                                          seed=7)
        result = harness.run_cv(read_dataset_dir(dataset_dir), protocol, [ModelSpec(**forest)])
        assert result.digest() == cli_digest

    def test_missing_dataset_exits_1(self, tmp_path):
        cfg = _protocol_file(tmp_path)
        code = main(
            ["evaluate", str(tmp_path / "missing"), "--config", str(cfg),
             "--out", str(tmp_path / "o")]
        )
        assert code == 1

    def test_determinism_byte_identical_csvs(self, dataset_dir, tmp_path):
        cfg = _protocol_file(tmp_path)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["evaluate", str(dataset_dir), "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["evaluate", str(dataset_dir), "--config", str(cfg), "--out", str(out2)]) == 0
        for name in (
            "metrics_summary.csv", "gini.csv", "bioquake.csv",
            "eer_per_class.csv", "fcs_histogram.csv", "feature_ranking.csv",
        ):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
        r1 = json.loads((out1 / "run_result.json").read_text())
        r2 = json.loads((out2 / "run_result.json").read_text())
        assert r1["result_digest"] == r2["result_digest"]

    def test_print_config(self, dataset_dir, tmp_path, capsys):
        cfg = _protocol_file(tmp_path)
        assert main(["evaluate", "--config", str(cfg), "--print-config"]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed["protocol"]["window_size"] == 40

    def test_bad_model_kind_exits_2(self, dataset_dir, tmp_path):
        cfg = _protocol_file(tmp_path, models=[{"kind": "svm"}])
        code = main(
            ["evaluate", str(dataset_dir), "--config", str(cfg), "--out", str(tmp_path / "o")]
        )
        assert code == 2

    def test_leakage_flag_propagates_to_exit_3(self, tmp_path, capsys):
        from csibio.ingest import write_dataset_dir
        from test_harness import leakage_fixture

        ds = tmp_path / "leaky_ds"
        write_dataset_dir(leakage_fixture(), ds)
        cfg = _protocol_file(
            tmp_path,
            protocol={
                "window_size": 50,
                "selection_k": 1,
                "feature_groups": ["amplitude", "spectral"],
                "preprocess": {"calibrate": False, "iqr_filter": False,
                               "mad_window": None},
                "bioquake_resamples": 20,
            },
        )
        out = tmp_path / "rep"
        code = main(["evaluate", str(ds), "--config", str(cfg), "--out", str(out)])
        assert code == 3
        result = json.loads((out / "run_result.json").read_text())
        assert result["leakage_audit"]["flagged"] is True
        assert result["leakage_audit"]["delta"] > 0.01


def _one_json_error_line(err: str) -> dict:
    lines = err.splitlines()
    assert len(lines) == 1, err
    return json.loads(lines[0])


class TestConfigErrors:
    """Config errors exit 2 with one JSON line, before any dataset is read."""

    @pytest.mark.parametrize("command", ["features", "evaluate"])
    @pytest.mark.parametrize("print_config", [False, True])
    @pytest.mark.parametrize("top", [[1, 2], "text"])
    def test_non_object_config_exits_2(self, tmp_path, capsys, command, print_config, top):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(top))
        argv = [command, str(tmp_path / "missing"), "--config", str(cfg),
                "--out", str(tmp_path / "o")]
        assert main(argv + (["--print-config"] if print_config else [])) == 2
        err = _one_json_error_line(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert "JSON object" in err["detail"]

    @pytest.mark.parametrize("command", ["features", "evaluate"])
    @pytest.mark.parametrize("protocol,needle", [
        ({"mi_bins": 1}, "bins"),
        ({"binning": "quantum"}, "binning"),
        ({"feature_groups": ["amplitude", "nope"]}, "unknown feature groups"),
        ({"preprocess": {"mad_window": 8}}, "mad_window"),
        ({"preprocess": {"mad_window": 1}}, "mad_window"),
        ({"bioquake_resamples": 0}, "bioquake_resamples"),
        ({"bioquake_resamples": 1}, "bioquake_resamples"),
        ({"fcs_bins": 0}, "fcs_bins"),
        ({"fcs_bins": -3}, "fcs_bins"),
    ])
    def test_bad_protocol_value_exits_2(self, tmp_path, capsys, command, protocol, needle):
        cfg = _protocol_file(tmp_path, protocol=protocol)
        argv = [command, str(tmp_path / "missing"), "--config", str(cfg),
                "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        err = _one_json_error_line(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert needle in err["detail"]

    def test_bare_protocol_read_by_evaluate(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"window_size": 64, "models": [{"kind": "knn"}]}))
        assert main(["evaluate", "--config", str(cfg), "--print-config"]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed["protocol"]["window_size"] == 64
        assert [m["kind"] for m in printed["models"]] == ["knn"]

    def test_non_object_protocol_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"protocol": [1]}))
        assert main(["evaluate", "--config", str(cfg), "--print-config"]) == 2
        assert _one_json_error_line(capsys.readouterr().err)["error"] == "ConfigError"

    @pytest.mark.parametrize("print_config", [False, True])
    def test_audit_model_not_listed_exits_2(self, tmp_path, capsys, print_config):
        cfg = _protocol_file(tmp_path, audit_model="random_forest")
        argv = ["evaluate", str(tmp_path / "missing"), "--config", str(cfg),
                "--out", str(tmp_path / "o")]
        assert main(argv + (["--print-config"] if print_config else [])) == 2
        err = _one_json_error_line(capsys.readouterr().err)
        assert "audit_model" in err["detail"]

    def test_audit_model_unchecked_when_audit_off(self, tmp_path, capsys):
        cfg = _protocol_file(tmp_path, audit=False, audit_model="random_forest")
        assert main(["evaluate", "--config", str(cfg), "--print-config"]) == 0

    def test_duplicate_model_kinds_exit_2(self, tmp_path, capsys):
        cfg = _protocol_file(
            tmp_path,
            models=[{"kind": "knn", "hyperparams": {"k": 1}},
                    {"kind": "knn", "hyperparams": {"k": 5}}],
        )
        argv = ["evaluate", str(tmp_path / "missing"), "--config", str(cfg),
                "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        err = _one_json_error_line(capsys.readouterr().err)
        assert "twice" in err["detail"]


    @pytest.mark.parametrize("command,config,needle", [
        ("features", {"window_sise": 64}, "ProtocolConfig has no field(s) ['window_sise']"),
        ("evaluate", {"protocol": {"window_sise": 64}}, "window_sise"),
        ("features", {"window_size": 64.7}, "ProtocolConfig.window_size"),
        ("features", {"window_size": "64"}, "ProtocolConfig.window_size"),
        ("evaluate", {"protocol": {"folds": True}}, "ProtocolConfig.folds"),
        ("features", {"preprocess": {"calibrate": "false"}}, "PreprocessConfig.calibrate"),
        ("features", {"preprocess": {"cfo_scope": "nope"}}, "cfo_scope"),
        ("evaluate", {"preprocess": {"mad_widow": 9}}, "PreprocessConfig has no field"),
        ("features", {"protocol": {}, "modles": []}, "['modles']"),
        ("evaluate", {"protocol": {}, "audit": "no"}, "EvaluateConfig.audit must be a JSON bool"),
        ("evaluate", {"protocol": {}, "models": [{"kind": "knn", "hyperparameters": {"k": 1}}]},
         "ModelSpec has no field(s) ['hyperparameters']"),
        ("evaluate", {"protocol": {}, "models": [{"kind": "knn", "seed": 3}]}, "seed"),
        ("evaluate", {"protocol": {}, "models": ["knn"]}, "ModelSpec must be a JSON object"),
        # One loader serves both commands, so features checks the models too.
        ("features", {"protocol": {}, "models": [{"kind": "svm"}]}, "unknown model kind 'svm'"),
    ], ids=["protocol-key", "wrapped-protocol-key", "float-int", "string-int", "bool-int",
            "string-bool", "cfo-scope", "preprocess-key", "top-level-key", "audit-string",
            "model-key", "model-seed", "model-not-object", "features-model-kind"])
    def test_unknown_key_or_wrong_type_exits_2(self, tmp_path, capsys, command, config, needle):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = [command, str(tmp_path / "missing"), "--config", str(cfg),
                "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        err = _one_json_error_line(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert needle in err["detail"]


    @pytest.mark.parametrize("print_config", [False, True])
    @pytest.mark.parametrize("kind,hyperparams,needle", [
        ("knn", {"k": 2.5}, "'k'"),
        ("knn", {"k": True}, "'k'"),
        ("knn", {"k": "5"}, "'k'"),
        ("knn", {"weights": 1}, "weights"),
        ("gaussian_nb", {"var_smoothing": "1e-9"}, "'var_smoothing'"),
        ("gaussian_nb", {"var_smoothing": False}, "'var_smoothing'"),
        ("decision_tree", {"max_depth": 2.5}, "max_depth"),
        ("decision_tree", {"max_depth": True}, "max_depth"),
        ("decision_tree", {"min_samples_split": 2.0}, "'min_samples_split'"),
        ("random_forest", {"n_trees": 10.0}, "'n_trees'"),
        ("random_forest", {"max_features": "log2"}, "max_features"),
        ("random_forest", {"max_features": 1.5}, "max_features"),
        ("random_forest", {"bootstrap": "yes"}, "'bootstrap'"),
        ("mlp", {"hidden_layers": [8.5]}, "hidden layer"),
        ("mlp", {"hidden_layers": [True]}, "hidden layer"),
        ("mlp", {"hidden_layers": 8}, "hidden layer"),
        ("mlp", {"batch_size": 32.0}, "'batch_size'"),
        ("mlp", {"max_epochs": True}, "'max_epochs'"),
        ("mlp", {"patience": "20"}, "'patience'"),
        ("mlp", {"learning_rate": "0.1"}, "'learning_rate'"),
        # Well typed but out of range: rejected before any data is read.
        ("mlp", {"batch_size": 0}, "batch_size >= 1"),
        ("gaussian_nb", {"var_smoothing": -1}, "var_smoothing >= 0"),
        ("mlp", {"max_epochs": 0}, "max_epochs >= 1"),
        ("mlp", {"patience": 0}, "patience >= 1"),
        ("mlp", {"learning_rate": -0.5}, "learning_rate > 0"),
        ("mlp", {"learning_rate": 0}, "learning_rate > 0"),
        ("random_forest", {"min_samples_split": -3}, "min_samples_split must be an integer >= 2"),
        ("decision_tree", {"min_samples_split": 1}, "min_samples_split must be an integer >= 2"),
    ])
    def test_mistyped_hyperparam_exits_2(self, tmp_path, capsys, kind, hyperparams, needle,
                                         print_config):
        cfg = _protocol_file(tmp_path, models=[{"kind": kind, "hyperparams": hyperparams}],
                             audit=False)
        argv = ["evaluate", str(tmp_path / "missing"), "--config", str(cfg),
                "--out", str(tmp_path / "o")]
        assert main(argv + ["--print-config"] * print_config) == 2
        err = _one_json_error_line(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert needle in err["detail"]

    def test_well_typed_hyperparams_load(self, tmp_path, capsys):
        models = [
            {"kind": "gaussian_nb", "hyperparams": {"var_smoothing": 1}},
            {"kind": "random_forest", "hyperparams": {"max_depth": None, "max_features": 3}},
            {"kind": "mlp", "hyperparams": {"hidden_layers": [8, 4], "tol": 0}},
        ]
        cfg = _protocol_file(tmp_path, models=models, audit=False)
        assert main(["evaluate", "--config", str(cfg), "--print-config"]) == 0
        printed = json.loads(capsys.readouterr().out)["models"]
        assert printed[2]["hyperparams"]["hidden_layers"] == [8, 4]
        assert printed[1]["hyperparams"]["max_features"] == 3


SUBJECTS = [
    {"subject_id": "a", "paths": [[1.0, 0.0, 0.0]]},
    {"subject_id": "b", "paths": [[0.5, 1.0, 0.0]]},
]


@pytest.mark.parametrize("scenario,needle", [
    ({"subjects": SUBJECTS, "colour": 1}, "ScenarioSpec has no field(s) ['colour']"),
    ({"subjects": SUBJECTS, "n_samples": 100.5}, "ScenarioSpec.n_samples"),
    ({"subjects": SUBJECTS, "hand": "both"}, "ScenarioSpec.hand"),
    ({"subjects": [{**SUBJECTS[0], "noise": 0.1}, SUBJECTS[1]]}, "ChannelSpec has no field"),
    ({"subjects": [{**SUBJECTS[0], "subject_id": 5}, SUBJECTS[1]]}, "subject_id"),
    ({"subjects": [{**SUBJECTS[0], "subject_id": ""}, SUBJECTS[1]]}, "subject_id"),
    ({"subjects": [{**SUBJECTS[0], "seed": "1"}, SUBJECTS[1]]}, "ChannelSpec.seed"),
    ({"subjects": [{**SUBJECTS[0], "paths": [[1.0, 0.0]]}, SUBJECTS[1]]}, "[gain, phase, delay]"),
    ({"subjects": SUBJECTS, "attack": {"kind": "replay", "strength": 1}}, "AttackSpec has no"),
    ({"subjects": SUBJECTS, "attack": {"kind": "zap"}}, "AttackSpec.kind"),
], ids=["top-key", "float-int", "hand", "subject-key", "subject-id-int", "subject-id-empty",
        "subject-seed", "path-length",
        "attack-key", "attack-kind"])
def test_bad_scenario_exits_2_before_writing(tmp_path, capsys, scenario, needle):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    out = tmp_path / "ds"
    assert main(["synth", "--scenario", str(path), "--out", str(out)]) == 2
    err = _one_json_error_line(capsys.readouterr().err)
    assert err["error"] == "InvalidSpec"
    assert needle in err["detail"]
    assert not out.exists()


def test_one_subject_scenario_exits_2_on_print_config(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"subjects": SUBJECTS[:1]}))
    assert main(["synth", "--scenario", str(path), "--print-config"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = _one_json_error_line(captured.err)
    assert err["error"] == "InvalidSpec"
    assert "at least two subjects" in err["detail"]


@pytest.mark.parametrize("entry,needle", [
    ({"subject_id": "p1"}, "'path'"),
    ("cap.pcap", "JSON object"),
    ({"path": "x.pcap", "hand": "both"}, "SubjectLabel.hand"),
    ({"path": "x.pcap", "sample_index": 1.5}, "SubjectLabel.sample_index"),
    ({"path": "x.pcap", "sample_index": -1}, "sample_index"),
    ({"path": "x.pcap", "udp_port": 0}, "udp_port"),
    ({"path": "x.pcap", "udp_port": "5500"}, "PcapSource.udp_port"),
    ({"path": "x.pcap", "subject": "p1"}, "['subject']"),
], ids=["no-path", "not-object", "hand", "float-index", "negative-index", "port-range",
        "string-port", "unknown-key"])
def test_bad_manifest_entry_exits_2_before_reading(tmp_path, capsys, entry, needle):
    corrupt = tmp_path / "corrupt.pcap"
    corrupt.write_bytes(b"garbage")  # exits 1 once parsed
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps([{"path": str(corrupt), "subject_id": "p0"}, entry]))
    out = tmp_path / "ds"
    assert main(["ingest", "--manifest", str(manifest), "--out", str(out)]) == 2
    err = _one_json_error_line(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert needle in err["detail"]
    assert not out.exists()


def test_dataset_manifest_mismatch_exits_1(dataset_dir, tmp_path, capsys):
    path = dataset_dir / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["records"][0]["subject_id"] = "someone-else"
    path.write_text(json.dumps(manifest))
    assert main(["features", str(dataset_dir), "--out", str(tmp_path / "f")]) == 1
    err = _one_json_error_line(capsys.readouterr().err)
    assert err["error"] == "ManifestMismatch"
    assert manifest["records"][0]["file"] in err["detail"]
    assert not (tmp_path / "f").exists()


@pytest.mark.parametrize("preprocess", [None, {"calibrate": False, "iqr_filter": False}],
                         ids=["default", "raw"])
@pytest.mark.parametrize("sample", [complex("nan"), complex("inf")], ids=["nan", "inf"])
def test_non_finite_sample_exits_1_naming_file(dataset_dir, tmp_path, capsys, preprocess, sample):
    # Before it was rejected on read, such a sample reached preprocessing:
    # a misleading IQR error, or RuntimeWarnings on stderr ahead of the JSON line.
    name = json.loads((dataset_dir / "manifest.json").read_text())["records"][3]["file"]
    path = dataset_dir / name
    path.write_bytes(path.read_bytes()[:-16] + np.array([sample], dtype="<c16").tobytes())
    args = ["features", str(dataset_dir), "--window-size", "40", "--out", str(tmp_path / "f")]
    if preprocess is not None:
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"preprocess": preprocess}))
        args += ["--config", str(cfg)]
    assert main(args) == 1
    err = _one_json_error_line(capsys.readouterr().err)
    assert err["error"] == "NonFiniteSample"
    assert err["detail"] == f"{path}: non-finite-entry at (15,159)"
    assert not (tmp_path / "f").exists()


@pytest.mark.parametrize("manifest,needle", [
    ([], "'records' list"),
    ({}, "'records' list"),
    ({"records": {"file": "0000_p0_00.csi"}}, "'records' list"),
    ({"records": ["0000_p0_00.csi"]}, "record 0 must be an object"),
    ({"records": [{"subject_id": "p0"}]}, "string 'file'"),
    ({"records": [{"file": 7}]}, "string 'file'"),
], ids=["array", "empty-object", "records-object", "entry-string", "no-file", "file-int"])
def test_malformed_dataset_manifest_exits_1(tmp_path, capsys, manifest, needle):
    ds = tmp_path / "ds"
    ds.mkdir()
    (ds / "manifest.json").write_text(json.dumps(manifest))
    assert main(["features", str(ds), "--out", str(tmp_path / "f")]) == 1
    err = _one_json_error_line(capsys.readouterr().err)
    assert err["error"] == "ManifestMismatch"
    assert needle in err["detail"]
    assert not (tmp_path / "f").exists()


def test_manifest_missing_input_exits_1(tmp_path, capsys):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps([{"path": str(tmp_path / "absent.pcap")}]))
    assert main(["ingest", "--manifest", str(manifest), "--out", str(tmp_path / "o")]) == 1
    assert _one_json_error_line(capsys.readouterr().err)["error"] == "FileNotFoundError"


class TestUsage:
    def test_missing_out_flag(self):
        assert main(["synth"]) == 2

    def test_unknown_command(self):
        assert main(["frobnicate"]) == 2

    def test_version(self, capsys):
        assert main(["--version"]) == 0


def _dataset_of(tmp_path, samples_per_subject) -> tuple[Path, list[str]]:
    """A 4-subject synth dataset directory and its record file names, in order."""
    out = tmp_path / "ds"
    scenario = _small_scenario_file(tmp_path, samples_per_subject=samples_per_subject)
    assert main(["synth", "--scenario", str(scenario), "--out", str(out)]) == 0
    names = [r["file"] for r in json.loads((out / "manifest.json").read_text())["records"]]
    return out, names


def _put_nan(path: Path) -> None:
    path.write_bytes(path.read_bytes()[:-16] + np.array([np.nan], dtype="<c16").tobytes())


def _run(command, ds, tmp_path, out="out") -> int:
    """``features`` or ``evaluate`` on ``ds`` with window size 40, out to ``tmp_path / out``."""
    args = [command, str(ds), "--window-size", "40", "--out", str(tmp_path / out)]
    if command == "evaluate":
        args += ["--config", str(_protocol_file(tmp_path))]
    return main(args)


@pytest.mark.parametrize("command", ["features", "evaluate"])
def test_non_finite_fifth_record_fails_before_output(tmp_path, capsys, command):
    ds, names = _dataset_of(tmp_path, samples_per_subject=2)
    assert len(names) == 8
    _put_nan(ds / names[4])
    capsys.readouterr()
    assert _run(command, ds, tmp_path) == 1
    err = _one_json_error_line(capsys.readouterr().err)
    assert err["error"] == "NonFiniteSample"
    assert err["detail"].startswith(f"{ds / names[4]}: non-finite-entry")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["features", "evaluate"])
def test_non_finite_record_the_hand_filter_drops_still_fails(tmp_path, capsys, command):
    # The dataset digest covers every record, so every record is checked.
    ds, names = _dataset_of(tmp_path, samples_per_subject=3)
    path = ds / names[4]
    data = bytearray(path.read_bytes())
    data[10] = 1  # hand: left, which the default right-hand filter drops
    path.write_bytes(bytes(data))
    manifest = json.loads((ds / "manifest.json").read_text())
    manifest["records"][4]["hand"] = "left"
    (ds / "manifest.json").write_text(json.dumps(manifest))
    from csibio import harness, ingest

    kept = harness._apply_hand_filter(ingest.read_dataset_dir(ds), "right")
    assert len(kept) == len(names) - 1
    assert _run(command, ds, tmp_path, out="sound") == 0
    _put_nan(path)
    capsys.readouterr()
    assert _run(command, ds, tmp_path) == 1
    err = _one_json_error_line(capsys.readouterr().err)
    assert err["error"] == "NonFiniteSample"
    assert str(path) in err["detail"]
    assert not (tmp_path / "out").exists()


def _shorten(ds: Path, names: list[str], i: int, samples: int) -> None:
    from csibio.ingest import read_portable, write_portable

    matrix, label = read_portable(ds / names[i])
    write_portable(matrix.with_values(matrix.values[:, :samples]), label, ds / names[i])
    manifest = json.loads((ds / "manifest.json").read_text())
    manifest["records"][i]["samples"] = samples
    (ds / "manifest.json").write_text(json.dumps(manifest))


def _bad_magic(ds, names):
    path = ds / names[4]
    path.write_bytes(b"XXXXXXXX" + path.read_bytes()[8:])


def _truncated(ds, names):
    path = ds / names[4]
    path.write_bytes(path.read_bytes()[:-16])


def _unsupported_version(ds, names):
    path = ds / names[4]
    data = path.read_bytes()
    path.write_bytes(data[:8] + b"\x02" + data[9:])


def _manifest_mismatch(ds, names):
    manifest = json.loads((ds / "manifest.json").read_text())
    manifest["records"][4]["sample_index"] = 9
    (ds / "manifest.json").write_text(json.dumps(manifest))


@pytest.mark.parametrize("command", ["features", "evaluate"])
@pytest.mark.parametrize("fault, error", [
    (_bad_magic, "BadMagic"),
    (_truncated, "LengthMismatch"),
    (_unsupported_version, "UnsupportedVersion"),
    (_manifest_mismatch, "ManifestMismatch"),
    (lambda ds, names: _shorten(ds, names, 4, 30), "RecordTooShort"),
], ids=["magic", "truncated", "version", "manifest", "too-short"])
def test_header_faults_fail_before_any_calibration(tmp_path, capsys, monkeypatch, command,
                                                   fault, error):
    from csibio import calib

    ds, names = _dataset_of(tmp_path, samples_per_subject=2)
    fault(ds, names)
    calls = []
    calibrate = calib.calibrate
    monkeypatch.setattr(calib, "calibrate", lambda *a, **kw: calls.append(1) or calibrate(*a, **kw))
    capsys.readouterr()
    assert _run(command, ds, tmp_path) == 1
    assert _one_json_error_line(capsys.readouterr().err)["error"] == error
    assert calls == []
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, field", [
    ("evaluate", "seed"), ("features", "seed"), ("synth", "seed"),
    ("evaluate", "feature_groups"), ("features", "feature_groups"),
])
def test_negative_seed_or_no_feature_groups_exits_2_before_any_calibration(
        tmp_path, capsys, monkeypatch, command, field):
    from csibio import calib

    ds, _ = _dataset_of(tmp_path, samples_per_subject=2)
    calls = []
    calibrate = calib.calibrate
    monkeypatch.setattr(calib, "calibrate", lambda *a, **kw: calls.append(1) or calibrate(*a, **kw))
    args = [command] if command == "synth" else [command, str(ds)]
    if field == "seed":
        args += ["--seed", "-1"]
    else:
        args += ["--config", str(_protocol_file(tmp_path, protocol={"feature_groups": []}))]
    capsys.readouterr()
    assert main([*args, "--out", str(tmp_path / "out")]) == 2
    assert field in _one_json_error_line(capsys.readouterr().err)["detail"]
    assert calls == []
    assert not (tmp_path / "out").exists()


def test_too_short_record_beats_an_earlier_non_finite_one(tmp_path, capsys):
    # Lengths come from the headers, checked before any payload is read.
    ds, names = _dataset_of(tmp_path, samples_per_subject=2)
    _put_nan(ds / names[1])
    _shorten(ds, names, 4, 30)
    capsys.readouterr()
    assert _run("features", ds, tmp_path) == 1
    err = _one_json_error_line(capsys.readouterr().err)
    assert err["error"] == "RecordTooShort"
    assert "record 4 " in err["detail"]


@pytest.mark.parametrize("command", ["features", "evaluate"])
def test_earlier_fault_wins_when_a_later_record_fails_first(tmp_path, capsys, monkeypatch,
                                                             command):
    # Records run on a pool: record 1 fails only after record 3's load has failed.
    from csibio import calib, harness, ingest
    from csibio.errors import NonFiniteSample

    ds, names = _dataset_of(tmp_path, samples_per_subject=2)
    _put_nan(ds / names[3])
    read, calibrate = ingest.read_portable, calib.calibrate
    record_1 = read(ds / names[1])[0].values
    record_3_failed = threading.Event()

    def read_portable(path):
        try:
            return read(path)
        except NonFiniteSample:
            record_3_failed.set()
            raise

    def calibrate_failing_late(matrix, **kw):
        if np.array_equal(matrix.values, record_1):
            assert record_3_failed.wait(10)
            raise ValueError("record 1 failed last")
        return calibrate(matrix, **kw)

    monkeypatch.setattr(ingest, "read_portable", read_portable)
    monkeypatch.setattr(calib, "calibrate", calibrate_failing_late)
    monkeypatch.setattr(harness, "_pool_size", lambda n_records: 3)
    capsys.readouterr()
    assert _run(command, ds, tmp_path) == 1
    assert record_3_failed.is_set()
    err = _one_json_error_line(capsys.readouterr().err)
    assert err == {"error": "ValueError", "detail": "record 1 failed last"}
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["features", "evaluate"])
def test_faulty_dropped_record_is_reported_at_its_place(tmp_path, capsys, command):
    # One pass loads every record in dataset order, the ones the hand filter drops
    # included, so a dropped record's fault comes before a later kept record's.
    ds, names = _dataset_of(tmp_path, samples_per_subject=2)
    dropped = ds / names[2]
    data = bytearray(dropped.read_bytes())
    data[10] = 1  # hand: left, which the default right-hand filter drops
    dropped.write_bytes(bytes(data))
    manifest = json.loads((ds / "manifest.json").read_text())
    manifest["records"][2]["hand"] = "left"
    (ds / "manifest.json").write_text(json.dumps(manifest))
    _put_nan(dropped)
    _put_nan(ds / names[5])
    capsys.readouterr()
    assert _run(command, ds, tmp_path) == 1
    err = _one_json_error_line(capsys.readouterr().err)
    assert err["error"] == "NonFiniteSample"
    assert err["detail"].startswith(f"{dropped}: non-finite-entry")
    assert not (tmp_path / "out").exists()


def _capture_manifest(tmp_path, rng, bad=None, missing=None) -> Path:
    """An ingest manifest of four 64-subcarrier captures; ``bad`` has no CSI frame."""
    entries = []
    for i in range(4):
        path = tmp_path / f"cap{i}.pcap"
        if i == bad:
            write_csi_capture(path, [], extra_packets=[udp_packet(b"\x00\x00junk")])
        elif i != missing:
            write_csi_capture(path, [[tuple(p) for p in rng.integers(-500, 500, (64, 2))]
                                     for _ in range(60)])
        entries.append({"path": str(path), "subject_id": f"p{i % 2}", "sample_index": i // 2,
                        "expected_subcarriers": 64})
    manifest = tmp_path / "ingest.json"
    manifest.write_text(json.dumps(entries))
    return manifest


def test_failed_ingest_leaves_out_as_it_was(tmp_path, rng, capsys):
    out = tmp_path / "ds"
    assert main(["ingest", "--manifest", str(_capture_manifest(tmp_path, rng)),
                 "--out", str(out)]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert len(before) == 5
    for target in (out, tmp_path / "fresh"):
        capsys.readouterr()
        manifest = _capture_manifest(tmp_path, rng, bad=2)
        assert main(["ingest", "--manifest", str(manifest), "--out", str(target)]) == 1
        err = _one_json_error_line(capsys.readouterr().err)
        assert err["error"] == "NoCsiFrames" and "cap2.pcap" in err["detail"]
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    assert not (tmp_path / "fresh").exists()


def test_missing_input_found_before_any_capture_is_parsed(tmp_path, rng, capsys):
    manifest = _capture_manifest(tmp_path, rng, bad=0, missing=3)
    assert main(["ingest", "--manifest", str(manifest), "--out", str(tmp_path / "o")]) == 1
    err = _one_json_error_line(capsys.readouterr().err)
    assert err["error"] == "FileNotFoundError" and "cap3.pcap" in err["detail"]
    assert not (tmp_path / "o").exists()
