from dataclasses import replace

import numpy as np
import pytest

from csibio import features, harness
from csibio.classify import ModelSpec
from csibio.errors import InsufficientData, RecordTooShort
from csibio.harness import (
    PreprocessConfig,
    ProtocolConfig,
    attack_report,
    leakage_audit,
    make_folds,
    prepare_windows,
    preprocess_record,
    protocol_from_dict,
    run_cv,
    stratified_kfold,
    window_dataset,
)
from csibio.model import CsiMatrix, Dataset, SubjectLabel
from csibio.synth import (
    AttackKind,
    AttackSpec,
    ChannelSpec,
    PathComponent,
    bundled_scenario,
    generate_dataset,
    synthesize_matrix,
)

KNN = ModelSpec("knn", {"k": 3})
FAST = dict(selection_k=8, bioquake_resamples=20)


def small_scenario(**kw):
    return bundled_scenario(
        n_subjects=kw.pop("n_subjects", 4),
        samples_per_subject=kw.pop("samples_per_subject", 3),
        n_samples=kw.pop("n_samples", 150),
        n_subcarriers=kw.pop("n_subcarriers", 16),
        **kw,
    )


@pytest.fixture(scope="module")
def small_dataset():
    return generate_dataset(small_scenario())


class TestWindowing:
    def _dataset(self, rng, t):
        values = rng.normal(1, 0.1, (8, t)) + 0j
        freqs = 5.18e9 + 312_500.0 * np.arange(8)
        m = CsiMatrix(values=values, freqs=freqs)
        return Dataset(((m, SubjectLabel("a")), (m, SubjectLabel("b"))))

    def test_exact_division(self, rng):
        cfg = ProtocolConfig(window_size=50)
        records = window_dataset(self._dataset(rng, 500), cfg)
        assert sum(len(r.values) for r in records) == 20  # 10 per record
        starts = list(records[0].starts)
        assert starts == list(range(0, 500, 50))

    def test_remainder_dropped(self, rng):
        cfg = ProtocolConfig(window_size=50)
        records = window_dataset(self._dataset(rng, 120), cfg)
        assert sum(len(r.values) for r in records) == 4  # 2 per record, 20 samples dropped

    def test_record_too_short(self, rng):
        cfg = ProtocolConfig(window_size=50)
        with pytest.raises(RecordTooShort) as err:
            window_dataset(self._dataset(rng, 49), cfg)
        assert "record 0" in str(err.value)

    def test_overlapping_stride(self, rng):
        cfg = ProtocolConfig(window_size=50, window_stride=25)
        records = window_dataset(self._dataset(rng, 100), cfg)
        assert list(records[0].starts[:3]) == [0, 25, 50]

    def test_batch_holds_each_window(self, rng):
        dataset = self._dataset(rng, 110)
        records = window_dataset(dataset, ProtocolConfig(window_size=50, window_stride=20))
        for record_index, (record, (m, label)) in enumerate(zip(records, dataset)):
            assert record.values.shape == (4, 8, 50)
            assert record.starts == (0, 20, 40, 60)
            assert (record.record_index, record.label) == (record_index, label)
            for window, start in zip(record.values, record.starts):
                assert np.array_equal(window, m.values[:, start : start + 50])


def test_overlapping_windows_extracted_in_bounded_slices(monkeypatch):
    """Stride 1 feeds extract_all bounded slices whose rows are the whole record's rows."""
    dataset = generate_dataset(small_scenario(n_subjects=2, samples_per_subject=1, n_samples=500))
    cfg = ProtocolConfig(window_size=40, window_stride=1)
    extract = features.extract_all
    seen = []
    monkeypatch.setattr(features, "extract_all",
                        lambda values, *a: seen.append(values.size) or extract(values, *a))
    ws = prepare_windows(dataset, cfg)
    assert max(seen) <= harness._EXTRACT_CHUNK_ELEMENTS and len(seen) > len(dataset)
    processed = Dataset(tuple((preprocess_record(m, cfg.preprocess), lab) for m, lab in dataset))
    whole = [extract(r.values, r.freqs, cfg.feature_groups)[0]
             for r in window_dataset(processed, cfg)]
    assert np.array_equal(ws.matrix.values, np.vstack(whole))


class TestStratifiedKfold:
    def test_partition_and_balance(self, rng):
        labels = np.array(["a"] * 25 + ["b"] * 17 + ["c"] * 8)
        folds = stratified_kfold(labels, 5, seed=3)
        all_idx = np.sort(np.concatenate(folds))
        assert np.array_equal(all_idx, np.arange(50))
        for cls, count in (("a", 25), ("b", 17), ("c", 8)):
            per_fold = [np.sum(labels[f] == cls) for f in folds]
            assert max(per_fold) - min(per_fold) <= 1
            assert sum(per_fold) == count

    def test_deterministic(self):
        labels = np.array(["a", "b"] * 20)
        a = stratified_kfold(labels, 4, seed=9)
        b = stratified_kfold(labels, 4, seed=9)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))


class TestFolds:
    def test_acquisition_holdout_partition(self, small_dataset):
        cfg = ProtocolConfig(window_size=50, **FAST)
        ws = prepare_windows(small_dataset, cfg)
        folds = make_folds(ws, cfg)
        assert len(folds) == 3  # one per sample index
        tested = np.sort(np.concatenate([t for _, t in folds]))
        assert np.array_equal(tested, np.arange(ws.matrix.n_rows))
        sample_arr = np.asarray(ws.sample_indices)
        for fold_id, (train, test) in enumerate(folds):
            held_out = set(sample_arr[test])
            assert held_out == {sorted(set(sample_arr))[fold_id]}
            assert not held_out & set(sample_arr[train])

    def test_stratified_mode_partition(self, small_dataset):
        cfg = ProtocolConfig(
            window_size=50, split_mode="per_window_stratified", folds=5, **FAST
        )
        ws = prepare_windows(small_dataset, cfg)
        folds = make_folds(ws, cfg)
        assert len(folds) == 5
        tested = np.sort(np.concatenate([t for _, t in folds]))
        assert np.array_equal(tested, np.arange(ws.matrix.n_rows))

    def test_single_acquisition_rejected(self):
        d = generate_dataset(small_scenario(samples_per_subject=1))
        cfg = ProtocolConfig(window_size=50, **FAST)
        with pytest.raises(InsufficientData):
            make_folds(prepare_windows(d, cfg), cfg)


class TestRunCv:
    def test_no_test_rows_touched_at_fit_time(self, small_dataset):
        cfg = ProtocolConfig(window_size=50, **FAST)
        result = run_cv(small_dataset, cfg, [KNN])
        for audit in result.fit_audits:
            assert not set(audit.fit_rows) & set(audit.test_rows)

    def test_leaky_mode_touches_everything(self, small_dataset):
        cfg = ProtocolConfig(
            window_size=50, normalization="global_zscore_leaky", **FAST
        )
        ws = prepare_windows(small_dataset, cfg)
        from csibio.harness import _cv_scores

        _, _, audits = _cv_scores(ws, cfg, [KNN])
        for audit in audits:
            assert set(audit.test_rows) <= set(audit.fit_rows)

    def test_each_window_scored_once(self, small_dataset):
        cfg = ProtocolConfig(window_size=50, **FAST)
        ws = prepare_windows(small_dataset, cfg)
        result = run_cv(small_dataset, cfg, [KNN], ws=ws)
        assert result.scores["knn"].n_rows == ws.matrix.n_rows

    def test_determinism(self, small_dataset):
        cfg = ProtocolConfig(window_size=50, **FAST)
        a = run_cv(small_dataset, cfg, [KNN])
        b = run_cv(small_dataset, cfg, [KNN])
        assert a.digest() == b.digest()

    def test_separable_subjects_score_high(self, small_dataset):
        cfg = ProtocolConfig(window_size=50, **FAST)
        result = run_cv(small_dataset, cfg, [KNN])
        assert result.reports["knn"].aggregate["accuracy"] >= 0.95

    def test_duplicate_model_kinds_rejected(self, small_dataset):
        cfg = ProtocolConfig(window_size=50, **FAST)
        with pytest.raises(ValueError):
            run_cv(small_dataset, cfg, [KNN, ModelSpec("knn", {"k": 1})])


def leakage_fixture():
    """Fixture where global (leaky) selection beats within-fold selection.

    Amplitude level separates the two subjects on acquisitions 0-3 but
    collapses on acquisition 4 (both at gain 1.5), while the scale-free
    spectral shape (one vs two fading ripples across the band) separates
    every acquisition. With selection_k=1, the fold holding out
    acquisition 4 sees amplitude as a perfect (and lexicographically
    preferred) feature on its training data and fails on test; global
    selection sees amplitude's collapse and picks the shape feature.
    """
    freqs = 5.18e9 + 312_500.0 * np.arange(16)
    records = []
    specs = {
        "a": ChannelSpec(
            paths=(PathComponent(1.0, 0.0, 0.0), PathComponent(0.35, 0.0, 200e-9)),
            noise_sigma=0.02,
        ),
        "b": ChannelSpec(
            paths=(PathComponent(1.0, 0.0, 0.0), PathComponent(0.35, 0.0, 400e-9)),
            noise_sigma=0.02,
        ),
    }
    gains = {"a": 1.0, "b": 2.0}
    for s_idx, (subject, chan) in enumerate(specs.items()):
        for acq in range(5):
            rng = np.random.default_rng([17, s_idx, acq])
            m = synthesize_matrix(chan, 16, 250, freqs, rng=rng)
            gain = gains[subject] if acq < 4 else 1.5
            records.append((m.with_values(m.values * gain), SubjectLabel(subject, acq)))
    return Dataset(tuple(records))


class TestLeakageAudit:
    def test_clean_scenario_not_flagged(self, small_dataset):
        cfg = ProtocolConfig(window_size=50, **FAST)
        audit = leakage_audit(small_dataset, cfg, KNN)
        assert abs(audit.delta) <= 0.01
        assert not audit.flagged

    ADVERSARIAL = ProtocolConfig(
        window_size=50,
        selection_k=1,
        feature_groups=frozenset({"amplitude", "spectral"}),
        preprocess=PreprocessConfig(calibrate=False, iqr_filter=False, mad_window=None),
        bioquake_resamples=20,
    )

    def test_adversarial_fixture_flagged(self):
        audit = leakage_audit(leakage_fixture(), self.ADVERSARIAL, KNN)
        assert audit.delta > 0.01
        assert audit.flagged

    @pytest.mark.parametrize("normalization", ["within_fold_zscore", "global_zscore_leaky"])
    def test_reusing_the_main_run_matches_two_passes(self, normalization):
        # On this fixture the two arms differ, so reading the wrong arm shows.
        dataset = leakage_fixture()
        cfg = replace(self.ADVERSARIAL, normalization=normalization)
        ws = prepare_windows(dataset, cfg)
        result = run_cv(dataset, cfg, [KNN], ws=ws)
        reused = leakage_audit(dataset, cfg, KNN, ws=ws, result=result)
        assert reused == leakage_audit(dataset, cfg, KNN, ws=ws)
        assert reused.flagged

    def test_result_of_another_config_rejected(self, small_dataset):
        cfg = ProtocolConfig(window_size=50, **FAST)
        result = run_cv(small_dataset, cfg, [KNN])
        with pytest.raises(ValueError):
            leakage_audit(small_dataset, replace(cfg, seed=1), KNN, result=result)

    def test_flag_is_definitional(self, small_dataset):
        cfg = ProtocolConfig(window_size=50, **FAST)
        audit = leakage_audit(small_dataset, cfg, KNN)
        assert audit.flagged == (abs(audit.delta) > 0.01)
        assert audit.delta == pytest.approx(
            audit.leaky_accuracy - audit.clean_accuracy, abs=1e-15
        )


class TestAttack:
    def test_zero_noise_replay_far_is_total(self):
        scenario = bundled_scenario(
            n_subjects=3, samples_per_subject=3, n_samples=150,
            n_subcarriers=16, noise_sigma=0.0,
            attack=AttackSpec(AttackKind.REPLAY, 0.0),
        )
        # Zero out jitter so replay is bit-exact.
        from csibio.synth import scenario_from_dict, scenario_to_dict

        raw = scenario_to_dict(scenario)
        for s in raw["subjects"]:
            s["temporal_jitter_sigma"] = 0.0
        scenario = scenario_from_dict(raw)
        d = generate_dataset(scenario)
        cfg = ProtocolConfig(window_size=50, **FAST)
        rep = attack_report(d, cfg, KNN)
        assert rep.victim == "s00"
        assert rep.far_on_attack == 1.0

    def test_protocol_round_trip(self):
        cfg = ProtocolConfig(window_size=64, selection_k=5, folds=4)
        again = protocol_from_dict(cfg.to_dict())
        assert again == cfg
        assert again.digest() == cfg.digest()

    def test_protocol_ignores_unknown_keys(self):
        # Configs written before the grid search was removed still load.
        old = {**ProtocolConfig().to_dict(), "grids": {"knn": {"k": [1, 3]}}}
        assert protocol_from_dict(old) == ProtocolConfig()
