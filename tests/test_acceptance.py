"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines; the whole module is also part of the default suite.
"""

import json
import time

import numpy as np
import pytest

from csibio import calib, clean, harness, metrics, synth
from csibio.classify import ModelSpec, mlp_init, mlp_loss_and_grads
from csibio.cli import main as cli_main
from csibio.model import CsiMatrix
from conftest import extract_window, random_matrix
from oracles import (
    auc_pair_count,
    eer_sweep,
    gini_pairwise,
    reference_features,
)
from test_harness import leakage_fixture

RF = ModelSpec("random_forest", {"n_trees": 50})
KNN = ModelSpec("knn", {"k": 5})

PROTOCOL_50 = harness.ProtocolConfig(
    window_size=50,
    split_mode="per_acquisition_holdout",
    selection_k=16,
    bioquake_resamples=100,
    seed=11,
)


def _verdict(criterion: int, ok: bool, detail: str):
    print(f"\n[criterion {criterion:2d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def bundled_dataset():
    return synth.generate_dataset(synth.bundled_scenario())


@pytest.fixture(scope="module")
def bundled_windows(bundled_dataset):
    return harness.prepare_windows(bundled_dataset, PROTOCOL_50)


@pytest.fixture(scope="module")
def bundled_run(bundled_dataset, bundled_windows):
    return harness.run_cv(bundled_windows, PROTOCOL_50, [RF, KNN])


def test_criterion_1_feature_oracle_suite():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    worst_name = ""
    for _ in range(200):
        k = int(rng.integers(4, 33))
        t = int(rng.integers(4, 65))
        m = random_matrix(rng, k, t)
        expected = reference_features([list(row) for row in m.values], list(m.freqs))
        got = extract_window(m).as_dict()
        assert len(got) == 34 and set(got) == set(expected)
        for name, ref in expected.items():
            err = abs(got[name] - ref) / max(abs(ref), 1e-12)
            if err > worst:
                worst, worst_name = err, name
    elapsed = time.perf_counter() - start
    _verdict(
        1,
        worst < 1e-9 and elapsed < 10.0,
        f"200 matrices x 34 features, worst rel err {worst:.2e} ({worst_name}), "
        f"{elapsed:.1f}s (budget 10s)",
    )


def test_criterion_2_calibration_recovery():
    start = time.perf_counter()
    # Injected artifacts on a flat-phase (zero-delay) channel.
    spec = synth.ChannelSpec(
        paths=(synth.PathComponent(1.3, 0.2, 0.0),), cfo_offset=0.4, sfo_slope=0.01
    )
    freqs = 5.18e9 + 312_500.0 * np.arange(64)
    m = synth.synthesize_matrix(spec, 64, 8, freqs)
    _, report = calib.calibrate(m)
    slope_err = float(np.max(np.abs(report.trend_slope - 0.01)))

    rng = np.random.default_rng(202)
    m_rand = random_matrix(rng, 33, 11)
    calibrated, _ = calib.calibrate(m_rand)
    amp_err = float(
        np.max(np.abs(np.abs(calibrated.values) - np.abs(m_rand.values))
               / np.abs(m_rand.values))
    )

    wrap_err = 0.0
    for _ in range(50):
        smooth = np.cumsum(rng.uniform(-2.5, 2.5, int(rng.integers(8, 80))))
        smooth -= smooth[0]  # anchor start inside [-pi, pi]
        unwrapped = calib.unwrap_phase(np.angle(np.exp(1j * smooth)))
        wrap_err = max(wrap_err, float(np.max(np.abs(unwrapped - smooth))))
    elapsed = time.perf_counter() - start
    _verdict(
        2,
        slope_err < 1e-9 and amp_err <= 1e-12 and wrap_err <= 1e-12 and elapsed < 1.0,
        f"sfo recovery {slope_err:.2e} (<1e-9), amp invariance {amp_err:.2e} "
        f"(<=1e-12), unwrap round-trip {wrap_err:.2e} (<=1e-12), {elapsed:.2f}s",
    )


def test_criterion_3_cleaning():
    start = time.perf_counter()
    rng = np.random.default_rng(303)
    k, t = 32, 400
    base = 1.0 + 0.3 * np.sin(2 * np.pi * np.arange(k) / k)[:, None]
    amps = base * (1.0 + rng.normal(0.0, 0.01, (k, t)))
    values = amps * np.exp(1j * rng.uniform(-0.5, 0.5, (k, t)))
    freqs = 5.18e9 + 312_500.0 * np.arange(k)

    # 1% spikes at 20x amplitude, spaced so each sits alone in its window.
    n_spikes = int(0.01 * k * t)
    positions = set()
    while len(positions) < n_spikes:
        kk, tt = int(rng.integers(0, k)), int(rng.integers(0, t))
        if all(not (kk == pk and abs(tt - pt) < 9) for pk, pt in positions):
            positions.add((kk, tt))
    spiked = values.copy()
    for kk, tt in positions:
        spiked[kk, tt] *= 20.0
    m = CsiMatrix(values=spiked, freqs=freqs)

    repaired, report = clean.mad_temporal_repair(m, window=9)
    flagged = {(int(a), int(b)) for a, b in np.argwhere(report.flags)}
    all_spikes_flagged = positions <= flagged
    untouched = ~report.flags
    unflagged_identical = bool(
        np.array_equal(repaired.values[untouched], spiked[untouched])
    )

    # IQR filter equals the brute-force fence set on energies with outliers.
    amps2 = np.ones((24, 30))
    amps2[3] = 9.0
    amps2[17] = 0.01
    m2 = CsiMatrix(values=amps2.astype(complex),
                   freqs=5.18e9 + 312_500.0 * np.arange(24))
    energies = clean.subcarrier_energy(m2.amplitude())
    q1, q3 = np.percentile(energies, [25, 75])
    lo, hi = q1 - 1.5 * (q3 - q1), q3 + 1.5 * (q3 - q1)
    expected_removed = [int(i) for i in np.flatnonzero((energies < lo) | (energies > hi))]
    _, removed = clean.iqr_subcarrier_filter(m2)
    elapsed = time.perf_counter() - start
    _verdict(
        3,
        all_spikes_flagged and unflagged_identical
        and removed == expected_removed and elapsed < 1.0,
        f"{n_spikes} spikes all flagged={all_spikes_flagged}, unflagged "
        f"bit-identical={unflagged_identical}, IQR removal == oracle "
        f"{removed == expected_removed}, {elapsed:.2f}s",
    )


def test_criterion_4_metric_oracles():
    start = time.perf_counter()
    rng = np.random.default_rng(404)
    auc_err = 0.0
    eer_err = 0.0
    gini_err = 0.0
    for _ in range(40):
        g = rng.normal(0.65, 0.2, int(rng.integers(3, 30)))
        i = rng.normal(0.35, 0.2, int(rng.integers(3, 30)))
        auc_err = max(
            auc_err,
            abs(metrics.auc_from_scores(g, i) - auc_pair_count(list(g), list(i))),
        )
        eer_err = max(
            eer_err,
            abs(metrics.eer_from_scores(g, i).eer - eer_sweep(list(g), list(i))),
        )
        x = rng.uniform(0, 10, int(rng.integers(2, 30)))
        gini_err = max(gini_err, abs(metrics.gini(x) - gini_pairwise(list(x))))

    extremes_ok = (
        metrics.gini([5.0, 5.0, 5.0, 5.0]) == 0.0
        and metrics.gini([0.0, 0.0, 0.0, 7.0]) == pytest.approx(0.75, abs=1e-15)
    )

    c = 5
    rows = rng.dirichlet(np.ones(c), size=37)
    labels = [f"s{j}" for j in rng.integers(0, c, 37)]
    from csibio.model import ScoreMatrix

    scores = ScoreMatrix(tuple(f"s{j}" for j in range(c)), rows, tuple(labels))
    pools = metrics.fcs(scores)
    counting_ok = (
        pools.genuine_scores.shape[0] == 37
        and pools.impostor_scores.shape[0] == 37 * (c - 1)
        and pools.genuine_counts.sum() + pools.impostor_counts.sum() == 37 * c
    )
    elapsed = time.perf_counter() - start
    _verdict(
        4,
        auc_err <= 1e-12 and eer_err <= 1e-12 and gini_err <= 1e-12
        and extremes_ok and counting_ok and elapsed < 5.0,
        f"auc err {auc_err:.1e}, eer err {eer_err:.1e}, gini err {gini_err:.1e} "
        f"(all <=1e-12), extremes {extremes_ok}, FCS counting {counting_ok}, "
        f"{elapsed:.2f}s",
    )


def test_criterion_5_end_to_end_separability(bundled_run):
    start = time.perf_counter()
    ok = True
    details = []
    for name in ("random_forest", "knn"):
        rep = bundled_run.reports[name]
        acc = rep.aggregate["accuracy"]
        eers = [e.eer for e in rep.eer_results]
        under_gate = sum(1 for e in eers if e <= 0.05)
        ok = ok and acc >= 0.95 and under_gate >= 18
        details.append(
            f"{name}: acc {acc:.3f} (>=0.95), per-class EER<=5% for "
            f"{under_gate}/20 (>=18)"
        )
    elapsed = time.perf_counter() - start
    _verdict(5, ok, "; ".join(details) + f", check {elapsed:.1f}s")


def test_criterion_6_window_size_effect(bundled_dataset, bundled_run):
    eer_50 = bundled_run.reports["random_forest"].eer_mean
    protocol_500 = harness.ProtocolConfig(
        window_size=500,
        split_mode="per_acquisition_holdout",
        selection_k=16,
        bioquake_resamples=100,
        seed=11,
    )
    run_500 = harness.run_cv(harness.prepare_windows(bundled_dataset, protocol_500),
                             protocol_500, [RF])
    eer_500 = run_500.reports["random_forest"].eer_mean
    _verdict(
        6,
        eer_50 <= eer_500,
        f"RF mean per-class EER: window 50 -> {eer_50:.4f}, "
        f"window 500 -> {eer_500:.4f} (50 must be <=)",
    )


def test_criterion_7_leakage_guard(bundled_run):
    adversarial_cfg = harness.ProtocolConfig(
        window_size=50,
        selection_k=1,
        feature_groups=frozenset({"amplitude", "spectral"}),
        preprocess=harness.PreprocessConfig(
            calibrate=False, iqr_filter=False, mad_window=None
        ),
        bioquake_resamples=20,
    )
    adversarial_ws = harness.prepare_windows(leakage_fixture(), adversarial_cfg)
    knn_3 = ModelSpec("knn", {"k": 3})
    bad = harness.leakage_audit(harness.run_cv(adversarial_ws, adversarial_cfg, [knn_3]), knn_3)
    good = harness.leakage_audit(bundled_run, KNN)
    _verdict(
        7,
        bad.delta > 0.01 and bad.flagged and abs(good.delta) <= 0.01 and not good.flagged,
        f"adversarial delta {bad.delta:.3f} flagged={bad.flagged} (>0.01); "
        f"clean delta {good.delta:.4f} flagged={good.flagged} (<=0.01)",
    )


def test_criterion_8_attack_surface(bundled_run):
    # Replay with zero noise: impostor scores identical to victim's own.
    replay_scenario = synth.bundled_scenario(
        n_subjects=6,
        samples_per_subject=3,
        n_samples=150,
        n_subcarriers=32,
        noise_sigma=0.0,
        jitter_sigma=0.0,
        attack=synth.AttackSpec(synth.AttackKind.REPLAY, 0.0),
        seed=5,
    )
    replay_cfg = harness.ProtocolConfig(
        window_size=50, selection_k=12, bioquake_resamples=20, seed=5
    )
    replay_d = synth.generate_dataset(replay_scenario)
    replay_ws = harness.prepare_windows(synth.split_attack(replay_d)[0], replay_cfg)
    knn_3 = ModelSpec("knn", {"k": 3})
    rep = harness.attack_report(replay_d, harness.run_cv(replay_ws, replay_cfg, [knn_3]), knn_3)
    replay_identical = set(np.round(rep.attack_scores, 12)) == set(
        np.round(rep.victim_fullfit_scores, 12)
    )
    replay_total = rep.far_on_attack == 1.0

    # Mimicry FAR non-decreasing as the perturbation fraction shrinks to 0.
    fars = []
    for f in (0.5, 0.2, 0.05, 0.0):
        scenario = synth.bundled_scenario(
            attack=synth.AttackSpec(synth.AttackKind.MIMICRY, f)
        )
        d = synth.generate_dataset(scenario)
        r = harness.attack_report(d, bundled_run, KNN)
        fars.append(r.far_on_attack)
    non_decreasing = all(a <= b + 1e-12 for a, b in zip(fars, fars[1:]))
    _verdict(
        8,
        replay_identical and replay_total and non_decreasing,
        f"replay scores identical={replay_identical}, replay FAR "
        f"{rep.far_on_attack:.2f} (=1.0); mimicry FAR at f=0.5,0.2,0.05,0 -> "
        f"{[round(x, 3) for x in fars]} non-decreasing={non_decreasing}",
    )


def test_criterion_9_mlp_gradient_check():
    rng = np.random.default_rng(909)
    x = rng.normal(0, 1, (10, 6))
    codes = rng.integers(0, 3, 10)
    params = mlp_init(6, (8,), 3, rng)
    _, grads = mlp_loss_and_grads(params, x, codes, 3)
    eps = 1e-6
    worst = 0.0
    for p, g in zip(params, grads):
        flat_p, flat_g = p.ravel(), g.ravel()
        for i in range(flat_p.size):
            orig = flat_p[i]
            flat_p[i] = orig + eps
            up, _ = mlp_loss_and_grads(params, x, codes, 3)
            flat_p[i] = orig - eps
            down, _ = mlp_loss_and_grads(params, x, codes, 3)
            flat_p[i] = orig
            numeric = (up - down) / (2 * eps)
            denom = max(abs(numeric), abs(flat_g[i]), 1e-8)
            worst = max(worst, abs(numeric - flat_g[i]) / denom)
    _verdict(9, worst < 1e-5, f"max rel grad error {worst:.2e} (<1e-5)")


def test_criterion_10_determinism(tmp_path):
    scenario = synth.bundled_scenario(
        n_subjects=4, samples_per_subject=3, n_samples=160,
        n_subcarriers=16, noise_sigma=0.02,
    )
    scen_path = tmp_path / "scenario.json"
    scen_path.write_text(json.dumps(synth.scenario_to_dict(scenario)))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps(
            {
                "protocol": {"window_size": 40, "selection_k": 8,
                             "bioquake_resamples": 20, "seed": 1},
                "models": [{"kind": "knn", "hyperparams": {"k": 3}}],
            }
        )
    )
    ds = tmp_path / "ds"
    assert cli_main(["synth", "--scenario", str(scen_path), "--out", str(ds)]) == 0
    outs = []
    for run in ("r1", "r2"):
        out = tmp_path / run
        assert cli_main(
            ["evaluate", str(ds), "--config", str(cfg_path), "--out", str(out)]
        ) == 0
        outs.append(out)
    csvs = [
        "metrics_summary.csv", "gini.csv", "bioquake.csv",
        "eer_per_class.csv", "fcs_histogram.csv", "feature_ranking.csv",
    ]
    identical = all((outs[0] / n).read_bytes() == (outs[1] / n).read_bytes() for n in csvs)
    d1 = json.loads((outs[0] / "run_result.json").read_text())["result_digest"]
    d2 = json.loads((outs[1] / "run_result.json").read_text())["result_digest"]
    _verdict(
        10,
        identical and d1 == d2,
        f"byte-identical CSVs={identical}, result digests equal={d1 == d2}",
    )
