"""Workload inputs, command chains and output checks.

Every input is a pure function of the workload seed and is written as
files; the csibio commands under test only ever see those files.

* ``bundled``  - ``csibio evaluate`` with the default config on the
  bundled scenario shape (20 subjects x 5 acquisitions x 64 x 500).
  Saturated: both models reach accuracy 1.0, so the run is dominated by
  CV and the random-forest leakage audit.
* ``sessions`` - the same shape, but every acquisition's paths are
  perturbed by +-0.1 (gain, phase, band-relative delay), so models see
  cross-session variability; accuracy falls to about 0.3 and the metric
  battery runs on tie-heavy, non-degenerate scores. Audit on knn.
* ``capture``  - 50 classic-pcap captures (10 subjects x 5, 128
  subcarriers x 1000 frames) with injected junk frames, run through
  ``csibio ingest --manifest`` then ``csibio features``: the ingest,
  preprocessing, feature and write path, with no CV.
"""

from __future__ import annotations

import csv
import hashlib
import json
import struct
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

from csibio import ingest, synth
from csibio.model import Dataset

REPORT_COLUMNS = {
    "metrics_summary.csv": ["model", "accuracy", "precision", "specificity", "recall",
                            "f1", "roc_auc", "eer_pooled", "eer_mean"],
    "gini.csv": ["model", "far", "frr", "gc_far", "gc_frr", "gc_mean", "flags"],
    "bioquake.csv": ["model", "eer", "uncertainty", "ci_width"],
    "eer_per_class.csv": ["model", "class_id", "eer", "threshold", "far", "frr",
                          "interpolated"],
    "fcs_histogram.csv": ["model", "bin_lo", "bin_hi", "genuine_count", "impostor_count"],
    "feature_ranking.csv": ["rank", "name", "relevance", "redundancy", "score"],
}
EXIT_OK, EXIT_LEAKAGE = 0, 3
WINDOW_SIZE = 50  # the CLI's default protocol window

SESSION_FRACTION = 0.1
SESSIONS_CONFIG = {
    "models": [
        {"kind": "random_forest", "hyperparams": {}},
        {"kind": "knn", "hyperparams": {"k": 5}},
    ],
    "audit_model": "knn",
}

CAPTURE_SUBJECTS = 10
CAPTURE_ACQUISITIONS = 5
CAPTURE_SUBCARRIERS = 128
CAPTURE_FRAMES = 1000
CAPTURE_PORT = 5500
CAPTURE_SCALE = 2000.0  # int16 counts per unit of synthetic amplitude
# Junk frames injected into every capture, by the parse_pcap skip counter they hit.
CAPTURE_INJECTED = {"non_csi": 20, "wrong_subcarriers": 10, "truncated": 10}
CHANSPEC_5G_CH36_40MHZ = 0xC000 | 0x1800 | 36


@dataclass
class Outcome:
    """Checked result of one command: problems found, digest, informational fields."""

    problems: list[str] = field(default_factory=list)
    digest: str | None = None
    info: dict = field(default_factory=dict)


@dataclass
class Step:
    """One csibio command of a chain; both callables take the rep's output dir."""

    argv: Callable[[Path], list[str]]
    check: Callable[[int, str, Path], Outcome]  # (exit code, stdout, rep_dir)


@dataclass
class Workload:
    name: str
    windows: int  # windows one chain pushes through the pipeline
    steps: list[Step]
    setup_argv: list[str]  # the workload's command with --print-config
    injected: dict = field(default_factory=dict)  # exact ingest skip counts expected


# --- input generation ---------------------------------------------------------

def _derived_seed(*key: int) -> int:
    return int(np.random.SeedSequence(list(key)).generate_state(1)[0])


def sessions_dataset(seed: int) -> Dataset:
    """Bundled-shape population with per-acquisition path perturbation.

    Acquisition ``a`` of every subject comes from its own
    ``generate_dataset`` call over perturbed channels (one session),
    relabelled with ``sample_index = a``.
    """
    base = synth.bundled_scenario(seed=seed)
    delay_scale = 0.25 / (base.freq_step * base.n_subcarriers)
    f = SESSION_FRACTION
    records = []
    for session in range(base.samples_per_subject):
        rng = np.random.default_rng([seed, 0x5E55, session])
        subjects = []
        for subject_id, chan in base.subjects:
            paths = []
            for p in chan.paths:
                u = rng.uniform(-1.0, 1.0, size=3)
                paths.append(synth.PathComponent(
                    gain=p.gain * (1.0 + f * u[0]),
                    phase=p.phase + f * u[1] * np.pi,
                    delay=max(p.delay + f * u[2] * delay_scale, 0.0),
                ))
            subjects.append((subject_id, replace(chan, paths=tuple(paths))))
        spec = replace(base, subjects=tuple(subjects), samples_per_subject=1,
                       seed=_derived_seed(seed, session))
        for matrix, label in synth.generate_dataset(spec):
            records.append((replace(matrix, meta={**matrix.meta, "sample": session}),
                            replace(label, sample_index=session)))
    records.sort(key=lambda r: (r[1].subject_id, r[1].sample_index))
    return Dataset(tuple(records))


def _udp_frame(payload: bytes) -> bytes:
    """Ethernet + IPv4 + UDP headers around ``payload`` (checksums left zero)."""
    eth = bytes.fromhex("ffffffffffff" "b827eb000001") + b"\x08\x00"
    ip = struct.pack(">BBHHHBBH4s4s", 0x45, 0, 20 + 8 + len(payload), 0, 0, 64, 17, 0,
                     bytes([10, 0, 0, 1]), bytes([10, 0, 0, 255]))
    udp = struct.pack(">HHHH", CAPTURE_PORT, CAPTURE_PORT, 8 + len(payload), 0)
    return eth + ip + udp + payload


def _csi_header(seq: int) -> bytes:
    # magic, rssi, frame ctl, source MAC, sequence, core, chanspec, chip version
    return struct.pack("<2sbB6sHHHH", b"\x11\x11", -48, 0x08, bytes(6), seq & 0xFFFF, 0,
                       CHANSPEC_5G_CH36_40MHZ, 0x4345)


def write_capture(path: Path, values: np.ndarray, rng: np.random.Generator) -> None:
    """One classic-pcap capture: a CSI frame per column plus the injected junk."""
    k, t = values.shape
    iq = np.empty((t, k, 2), dtype="<i2")
    quantised = np.clip(np.rint(values.T * CAPTURE_SCALE), -32767, 32767)
    iq[..., 0] = quantised.real
    iq[..., 1] = quantised.imag
    junk = {
        "non_csi": lambda: b"\x00\x00" + rng.bytes(62),
        "wrong_subcarriers": lambda: _csi_header(0) + rng.bytes(4 * (k // 2)),
        "truncated": lambda: _csi_header(0) + rng.bytes(4 * k - 2),
    }
    kinds = [kind for kind, n in CAPTURE_INJECTED.items() for _ in range(n)]
    n_frames = t + len(kinds)
    kinds = iter([kinds[i] for i in rng.permutation(len(kinds))])
    is_junk = np.zeros(n_frames, dtype=bool)
    is_junk[rng.choice(n_frames, size=n_frames - t, replace=False)] = True
    columns = iter(range(t))
    payloads = []
    for junk_slot in is_junk:
        if junk_slot:
            payloads.append(junk[next(kinds)]())
        else:
            c = next(columns)
            payloads.append(_csi_header(c) + iq[c].tobytes())
    parts = [struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 1)]
    for i, payload in enumerate(payloads):
        frame = _udp_frame(payload)
        parts.append(struct.pack("<IIII", 1_700_000_000 + i // 100, (i % 100) * 10_000,
                                 len(frame), len(frame)))
        parts.append(frame)
    path.write_bytes(b"".join(parts))


def capture_inputs(seed: int, work: Path) -> Path:
    """Write the pcap captures and the ingest manifest; returns the manifest path."""
    scenario = synth.bundled_scenario(
        n_subjects=CAPTURE_SUBJECTS, samples_per_subject=CAPTURE_ACQUISITIONS,
        n_samples=CAPTURE_FRAMES, n_subcarriers=CAPTURE_SUBCARRIERS, seed=seed,
    )
    captures = work / "captures"
    captures.mkdir(parents=True)
    entries = []
    for ordinal, (matrix, label) in enumerate(synth.generate_dataset(scenario)):
        path = captures / f"{label.subject_id}_{label.sample_index}.pcap"
        write_capture(path, matrix.values, np.random.default_rng([seed, 0xCA9, ordinal]))
        entries.append({
            "path": str(path), "subject_id": label.subject_id,
            "sample_index": label.sample_index, "hand": label.hand.value,
            "udp_port": CAPTURE_PORT, "expected_subcarriers": CAPTURE_SUBCARRIERS,
        })
    manifest = work / "ingest_manifest.json"
    manifest.write_text(json.dumps(entries, indent=1))
    return manifest


# --- output checks --------------------------------------------------------------

def _stdout_json(stdout: str, outcome: Outcome) -> dict:
    try:
        value = json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        value = None
    if not isinstance(value, dict):
        outcome.problems.append("stdout does not end in a JSON object")
        return {}
    return value


def _report_rows(path: Path, columns: list[str], outcome: Outcome) -> list[dict]:
    """Rows of a report CSV after its '#' provenance line, checked against its header."""
    try:
        lines = path.read_text().splitlines()
    except OSError:
        outcome.problems.append(f"{path.name} missing")
        return []
    if not lines or not lines[0].startswith("# csibio "):
        outcome.problems.append(f"{path.name} lacks the provenance line")
        return []
    rows = list(csv.reader(lines[1:]))
    if not rows or rows[0] != columns:
        outcome.problems.append(f"{path.name} header is not {columns}")
        return []
    if len(rows) < 2 or any(len(r) != len(columns) for r in rows[1:]):
        outcome.problems.append(f"{path.name} has no rows or ragged rows")
        return []
    return [dict(zip(columns, r)) for r in rows[1:]]


def check_evaluate(code: int, stdout: str, out: Path, perfect: bool) -> Outcome:
    outcome = Outcome()
    line = _stdout_json(stdout, outcome)
    flagged = line.get("leakage_flagged")
    expected = EXIT_LEAKAGE if flagged else EXIT_OK
    if code != expected:
        outcome.problems.append(f"exit code {code}, documented {expected} "
                                f"for leakage_flagged={flagged}")
    files = [*REPORT_COLUMNS, "run_result.json"]
    if sorted(line.get("files", [])) != sorted(files):
        outcome.problems.append(f"reported files {line.get('files')} != {files}")
    tables = {name: _report_rows(out / name, cols, outcome)
              for name, cols in REPORT_COLUMNS.items()}
    try:
        run_result = json.loads((out / "run_result.json").read_text())
    except (OSError, json.JSONDecodeError):
        outcome.problems.append("run_result.json missing or not JSON")
        run_result = {}
    digest = line.get("result_digest")
    if not digest or run_result.get("result_digest") != digest:
        outcome.problems.append("result_digest differs between stdout and run_result.json")
    outcome.digest = digest
    for row in tables["metrics_summary.csv"]:
        try:
            accuracy, eer_mean = float(row["accuracy"]), float(row["eer_mean"])
        except ValueError:
            outcome.problems.append(f"metrics_summary.csv: non-numeric row {row}")
            continue
        outcome.info[row["model"]] = {"accuracy": accuracy, "eer_mean": eer_mean}
        if perfect and accuracy != 1.0:
            outcome.problems.append(f"{row['model']} accuracy {accuracy} != 1.0")
    outcome.info["leakage_flagged"] = flagged
    return outcome


def check_ingest(code: int, stdout: str, out: Path, records: int) -> Outcome:
    outcome = Outcome()
    line = _stdout_json(stdout, outcome)
    if code != EXIT_OK:
        outcome.problems.append(f"ingest exit code {code}")
    try:
        manifest = json.loads((out / "manifest.json").read_text())
    except (OSError, json.JSONDecodeError):
        outcome.problems.append("dataset manifest missing or not JSON")
        manifest = {"records": []}
    if line.get("records") != records or len(manifest["records"]) != records:
        outcome.problems.append(f"ingest wrote {line.get('records')} records, want {records}")
    outcome.digest = manifest.get("digest")
    return outcome


def check_features(code: int, stdout: str, out: Path, windows: int) -> Outcome:
    outcome = Outcome()
    line = _stdout_json(stdout, outcome)
    if code != EXIT_OK:
        outcome.problems.append(f"features exit code {code}")
    if line.get("windows") != windows:
        outcome.problems.append(f"features reported {line.get('windows')} windows, "
                                f"want {windows}")
    path = out / "features.csv"
    try:
        data = path.read_bytes()
    except OSError:
        outcome.problems.append("features.csv missing")
        return outcome
    lines = data.decode().splitlines()
    rows = list(csv.reader(lines[1:]))
    if (not lines or not lines[0].startswith("# csibio ") or len(rows) != windows + 1
            or any(len(r) != len(rows[0]) for r in rows)):
        outcome.problems.append(f"features.csv is not a provenance line, a header "
                                f"and {windows} rows of equal width")
    outcome.digest = hashlib.sha256(data).hexdigest()
    return outcome


def check_print_config(code: int, stdout: str) -> list[str]:
    try:
        json.loads(stdout)
    except json.JSONDecodeError:
        return ["--print-config output is not JSON"]
    return [] if code == EXIT_OK else [f"--print-config exit code {code}"]


# --- workloads --------------------------------------------------------------------

def _evaluate_workload(name: str, dataset: Dataset, work: Path, config: dict | None,
                       perfect: bool) -> Workload:
    data_dir = work / "dataset"
    ingest.write_dataset_dir(dataset, data_dir)
    config_args = []
    if config is not None:
        config_path = work / "evaluate.json"
        config_path.write_text(json.dumps(config))
        config_args = ["--config", str(config_path)]
    step = Step(
        argv=lambda rep: ["evaluate", str(data_dir), *config_args, "--out", str(rep / "reports")],
        check=lambda code, stdout, rep: check_evaluate(code, stdout, rep / "reports", perfect),
    )
    windows = sum(m.n_samples // WINDOW_SIZE for m, _ in dataset)
    return Workload(name, windows, steps=[step],
                    setup_argv=["evaluate", *config_args, "--print-config"])


def bundled(seed: int, work: Path) -> Workload:
    dataset = synth.generate_dataset(synth.bundled_scenario(seed=seed))
    return _evaluate_workload("bundled", dataset, work, None, perfect=True)


def sessions(seed: int, work: Path) -> Workload:
    return _evaluate_workload("sessions", sessions_dataset(seed), work, SESSIONS_CONFIG,
                              perfect=False)


def capture(seed: int, work: Path) -> Workload:
    manifest = capture_inputs(seed, work)
    records = CAPTURE_SUBJECTS * CAPTURE_ACQUISITIONS
    windows = records * (CAPTURE_FRAMES // WINDOW_SIZE)
    steps = [
        Step(argv=lambda rep: ["ingest", "--manifest", str(manifest),
                               "--out", str(rep / "dataset")],
             check=lambda code, stdout, rep: check_ingest(code, stdout, rep / "dataset",
                                                          records)),
        Step(argv=lambda rep: ["features", str(rep / "dataset"),
                               "--out", str(rep / "features")],
             check=lambda code, stdout, rep: check_features(code, stdout, rep / "features",
                                                            windows)),
    ]
    injected = {kind: n * records for kind, n in CAPTURE_INJECTED.items()}
    return Workload("capture", windows, steps, setup_argv=["features", "--print-config"],
                    injected=injected)


WORKLOADS = {"bundled": bundled, "sessions": sessions, "capture": capture}
