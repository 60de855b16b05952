import sys
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from csibio import calib, features, harness, select
from csibio.classify import ModelSpec
from csibio.errors import InsufficientData, RecordTooShort
from csibio.harness import (
    SPLIT_MODES,
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
from csibio.ingest import read_dataset_dir, write_dataset_dir
from csibio.model import CsiMatrix, Dataset, Hand, SubjectLabel
from csibio.synth import (
    AttackKind,
    AttackSpec,
    ChannelSpec,
    PathComponent,
    bundled_scenario,
    generate_dataset,
    split_attack,
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


def cv_of(dataset, cfg, models):
    """``run_cv`` over the windows of ``dataset``."""
    return run_cv(prepare_windows(dataset, cfg), cfg, models)


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


def test_short_record_rejected_before_any_preprocessing(monkeypatch):
    """A record shorter than one window fails with its global index before calibrate runs."""
    records = list(generate_dataset(small_scenario(n_subjects=2, samples_per_subject=3)))
    m, label = records[3]
    records[3] = (CsiMatrix(values=m.values[:, :40], freqs=m.freqs), label)
    calls = []
    calibrate = calib.calibrate
    monkeypatch.setattr(calib, "calibrate",
                        lambda *a, **kw: calls.append(1) or calibrate(*a, **kw))
    with pytest.raises(RecordTooShort) as err:
        prepare_windows(Dataset(tuple(records)),
                        ProtocolConfig(window_size=50, hand_filter="pooled"))
    assert "record 3 " in str(err.value)
    assert calls == []


def _peak_bytes(fn, *args) -> int:
    """Peak traced allocation of ``fn(*args)`` above what was held before the call."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


POOL = 2  # threads for the memory tests; their smaller dataset holds more than POOL + 1 records


@pytest.fixture
def pool_of_two(monkeypatch):
    monkeypatch.setattr(harness, "_pool_size", lambda n_records: min(POOL, n_records))


def _assert_peaks_bounded(run, one, small, large):
    """From ``small`` to ``large`` (both above the in-flight cap), peak memory grows
    by less than one record's pipeline, and never reaches POOL + 1 of them."""
    run(small)  # warm up caches and lazy imports
    one_record, *peaks = [_peak_bytes(run, d) for d in (one, small, large)]
    assert peaks[1] - peaks[0] < one_record, (one_record, peaks)
    assert max(peaks) < (POOL + 1) * one_record, (one_record, peaks)


def test_prepare_windows_peak_does_not_grow_with_records(pool_of_two):
    """4 and 16 records in memory: peak is bounded by the records in flight."""
    cfg = ProtocolConfig(hand_filter="pooled")
    dataset = generate_dataset(bundled_scenario(n_subjects=4, samples_per_subject=4))
    assert dataset.records[0][0].values.nbytes == 64 * 500 * 16
    one, small = (Dataset(dataset.records[:n]) for n in (1, POOL + 2))
    _assert_peaks_bounded(lambda d: prepare_windows(d, cfg), one, small, dataset)


def test_read_dataset_peak_does_not_grow_with_records(tmp_path, pool_of_two):
    """4- and 16-record directories: each record is read at its turn, never all at once."""
    cfg = ProtocolConfig(hand_filter="pooled")
    dataset = generate_dataset(bundled_scenario(n_subjects=4, samples_per_subject=4))
    sizes = (1, POOL + 2, len(dataset))
    for n in sizes:
        write_dataset_dir(Dataset(dataset.records[:n]), tmp_path / f"d{n}")
    del dataset

    def run(d):
        prepare_windows(read_dataset_dir(d), cfg)

    _assert_peaks_bounded(run, *(tmp_path / f"d{n}" for n in sizes))


def test_ordered_map_keeps_order_and_caps_what_runs_ahead():
    """While item 0 is slow, at most ``workers`` later items start; results keep item order."""
    started, at_join = [], []

    def fn(i):
        if i == 0:
            time.sleep(0.3)  # uncapped, items 1-9 would all run meanwhile
            at_join.extend(started)
        started.append(i)
        return i * i

    assert list(harness._ordered_map(fn, range(10), 2)) == [i * i for i in range(10)]
    assert set(at_join) <= {1, 2}, at_join


def test_same_bits_on_one_and_three_threads(monkeypatch, small_dataset):
    """The pool size moves no bit; the digest covers the record the hand filter drops."""
    records = list(small_dataset.records)
    matrix, label = records[4]
    records[4] = (matrix, replace(label, hand=Hand.LEFT))
    dataset = Dataset(tuple(records))
    cfg = ProtocolConfig(window_size=50, **FAST)  # hand_filter "right" drops record 4
    monkeypatch.setattr(harness, "_pool_size", lambda n_records: 1)
    one = prepare_windows(dataset, cfg)
    monkeypatch.setattr(harness, "_pool_size", lambda n_records: 3)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # more threads than cores, switching as often as it can
    try:
        three = prepare_windows(dataset, cfg)
    finally:
        sys.setswitchinterval(interval)
    assert max(one.record_indices) == len(dataset) - 2
    assert one.matrix.values.tobytes() == three.matrix.values.tobytes()
    for name in ("sample_indices", "record_indices", "window_starts", "dataset_digest"):
        assert getattr(one, name) == getattr(three, name), name
    assert one.matrix.labels == three.matrix.labels
    assert one.matrix.feature_names == three.matrix.feature_names
    assert one.dataset_digest == three.dataset_digest == dataset.digest()
    assert dataset.digest() != small_dataset.digest()


def test_run_results_compare_without_raising(small_dataset):
    cfg = ProtocolConfig(window_size=50, **FAST)
    first, second = (cv_of(small_dataset, cfg, [KNN]) for _ in range(2))
    assert first == first and first != second  # by identity, not field by field
    assert first.digest() == second.digest()
    assert first.windows.dataset_digest == small_dataset.digest()


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
        result = cv_of(small_dataset, cfg, [KNN])
        for audit in result.cv.folds:
            assert not set(audit.fit_rows) & set(audit.test_rows)

    def test_leaky_mode_touches_everything(self, small_dataset):
        cfg = ProtocolConfig(
            window_size=50, normalization="global_zscore_leaky", **FAST
        )
        ws = prepare_windows(small_dataset, cfg)
        from csibio.harness import _cv_scores

        _, _, audits = _cv_scores(ws, cfg, [KNN], harness._scale_and_rank(ws.matrix, cfg))
        for audit in audits:
            assert set(audit.test_rows) <= set(audit.fit_rows)

    def test_leaky_mode_ranks_once_for_all_folds(self, small_dataset, monkeypatch):
        cfg = ProtocolConfig(
            window_size=50, normalization="global_zscore_leaky", **FAST
        )
        ws = prepare_windows(small_dataset, cfg)
        from csibio.harness import _cv_scores

        calls = []
        rank = select.mrmr_rank
        monkeypatch.setattr(select, "mrmr_rank", lambda *a: calls.append(1) or rank(*a))
        _, _, audits = _cv_scores(ws, cfg, [KNN], harness._scale_and_rank(ws.matrix, cfg))
        assert len(calls) == 1 and len(audits) == len(make_folds(ws, cfg))
        assert {a.fit_rows for a in audits} == {tuple(range(ws.matrix.n_rows))}
        assert len({a.selected_features for a in audits}) == 1

    def test_each_window_scored_once(self, small_dataset):
        cfg = ProtocolConfig(window_size=50, **FAST)
        ws = prepare_windows(small_dataset, cfg)
        result = run_cv(ws, cfg, [KNN])
        assert result.cv.scores["knn"].n_rows == ws.matrix.n_rows

    def test_determinism(self, small_dataset):
        cfg = ProtocolConfig(window_size=50, **FAST)
        a = cv_of(small_dataset, cfg, [KNN])
        b = cv_of(small_dataset, cfg, [KNN])
        assert a.digest() == b.digest()

    def test_separable_subjects_score_high(self, small_dataset):
        cfg = ProtocolConfig(window_size=50, **FAST)
        result = cv_of(small_dataset, cfg, [KNN])
        assert result.reports["knn"].aggregate["accuracy"] >= 0.95

    def test_duplicate_model_kinds_rejected(self, small_dataset):
        cfg = ProtocolConfig(window_size=50, **FAST)
        with pytest.raises(ValueError):
            cv_of(small_dataset, cfg, [KNN, ModelSpec("knn", {"k": 1})])

    @pytest.mark.parametrize("split_mode", SPLIT_MODES)
    def test_fold_records_partition_the_windows_and_align_with_scores(self, split_mode):
        # On this fixture the held-out acquisition 4 scores below the others.
        dataset = leakage_fixture()
        cfg = replace(TestLeakageAudit.ADVERSARIAL, split_mode=split_mode, folds=4)
        ws = prepare_windows(dataset, cfg)
        cv = run_cv(ws, cfg, [KNN, ModelSpec("gaussian_nb")]).cv
        tested = np.concatenate([f.test_rows for f in cv.folds])
        assert np.array_equal(np.sort(tested), np.arange(ws.matrix.n_rows))
        labels = np.asarray(ws.matrix.labels)[tested]
        bounds = np.cumsum([len(f.test_rows) for f in cv.folds])[:-1]
        for name, scores in cv.scores.items():
            assert scores.true_labels == tuple(labels)
            hits = np.split(np.asarray(scores.predicted_labels()) == labels, bounds)
            accuracies = np.array([int(h.sum()) / h.size for h in hits])
            assert accuracies.tobytes() == np.asarray(cv.accuracies[name]).tobytes()


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
        audit = leakage_audit(cv_of(small_dataset, cfg, [KNN]), KNN)
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
        audit = leakage_audit(cv_of(leakage_fixture(), self.ADVERSARIAL, [KNN]), KNN)
        assert audit.delta > 0.01
        assert audit.flagged

    def test_audits_of_either_arm_agree(self):
        # On this fixture the two arms differ, so reading the wrong arm shows. Each
        # audit reads the arm its run ran and cross-validates the other.
        cfg = self.ADVERSARIAL
        ws = prepare_windows(leakage_fixture(), cfg)
        clean_run = run_cv(ws, cfg, [KNN])
        leaky_run = run_cv(ws, replace(cfg, normalization="global_zscore_leaky"), [KNN])
        audit = leakage_audit(clean_run, KNN)
        assert audit == leakage_audit(leaky_run, KNN)
        assert audit.flagged

    def test_leaky_arm_reuses_the_full_data_fit(self, small_dataset, monkeypatch):
        cfg = ProtocolConfig(window_size=50, **FAST)
        ws = prepare_windows(small_dataset, cfg)
        leaky_cfg = replace(cfg, normalization="global_zscore_leaky")
        expected = leakage_audit(run_cv(ws, leaky_cfg, [KNN]), KNN)
        scaler, ranking = harness._scale_and_rank(ws.matrix, cfg, np.arange(ws.matrix.n_rows))
        calls = []
        rank = select.mrmr_rank
        monkeypatch.setattr(select, "mrmr_rank", lambda *a: calls.append(1) or rank(*a))
        result = run_cv(ws, cfg, [KNN])
        assert len(calls) == len(make_folds(ws, cfg)) + 1
        assert result.full_scaler.mean.tobytes() == scaler.mean.tobytes()
        assert result.full_scaler.std.tobytes() == scaler.std.tobytes()
        assert result.feature_ranking == tuple(ranking)
        calls.clear()
        assert leakage_audit(result, KNN) == expected
        assert calls == []

    def test_model_the_result_did_not_run_rejected(self, small_dataset):
        cfg = ProtocolConfig(window_size=50, **FAST)
        result = cv_of(small_dataset, cfg, [KNN])
        with pytest.raises(ValueError, match=r"'gaussian_nb'.*\['knn'\]"):
            leakage_audit(result, ModelSpec("gaussian_nb"))

    def test_flag_is_definitional(self, small_dataset):
        cfg = ProtocolConfig(window_size=50, **FAST)
        audit = leakage_audit(cv_of(small_dataset, cfg, [KNN]), KNN)
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
        rep = attack_report(d, cv_of(split_attack(d)[0], cfg, [KNN]), KNN)
        assert rep.victim == "s00"
        assert rep.far_on_attack == 1.0

    @pytest.fixture(scope="class")
    def mimicry(self):
        scenario = small_scenario(n_subjects=3, attack=AttackSpec(AttackKind.MIMICRY, 0.2))
        dataset = generate_dataset(scenario)
        cfg = ProtocolConfig(window_size=50, **FAST)
        return dataset, cv_of(split_attack(dataset)[0], cfg, [KNN])

    def test_reads_the_full_data_fit_from_the_result(self, mimicry, monkeypatch):
        dataset, result = mimicry
        calls = []
        rank = select.mrmr_rank
        monkeypatch.setattr(select, "mrmr_rank", lambda *a: calls.append(1) or rank(*a))
        rep = attack_report(dataset, result, KNN)
        assert calls == [] and rep.n_attack_windows > 0

    def test_model_the_result_did_not_run_rejected(self, mimicry):
        dataset, result = mimicry
        other = ModelSpec("gaussian_nb")
        with pytest.raises(ValueError, match=r"'gaussian_nb'.*\['knn'\]") as attack_err:
            attack_report(dataset, result, other)
        with pytest.raises(ValueError) as audit_err:
            leakage_audit(result, other)
        assert str(attack_err.value) == str(audit_err.value)

    def test_protocol_round_trip(self):
        cfg = ProtocolConfig(window_size=64, selection_k=5, folds=4)
        again = protocol_from_dict(cfg.to_dict())
        assert again == cfg
        assert again.digest() == cfg.digest()

    def test_protocol_ignores_unknown_keys(self):
        # Configs written before the grid search was removed still load.
        old = {**ProtocolConfig().to_dict(), "grids": {"knn": {"k": [1, 3]}}}
        assert protocol_from_dict(old) == ProtocolConfig()
