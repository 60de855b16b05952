"""Command-line front end: ingest, synth, features, evaluate.

Exit codes: 0 success, 1 runtime failure, 2 usage/config error,
3 leakage audit flagged (evaluate only). Failures print a one-line JSON
object to stderr with ``error`` and ``detail`` keys so callers can
parse them.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import fields, replace
from pathlib import Path

from . import __version__, harness, ingest, report, synth
from .classify import ModelSpec
from .errors import ConfigError, CsiBioError
from .model import Dataset, SubjectLabel, from_dict

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2
EXIT_LEAKAGE = 3

# Keys a config may hold beside its protocol; only evaluate reads them.
EVALUATE_KEYS = ("models", "audit", "audit_model")
DEFAULT_MODELS = [
    {"kind": "random_forest", "hyperparams": {}},
    {"kind": "knn", "hyperparams": {"k": 5}},
]


def _fail(kind: str, detail: str, code: int) -> int:
    sys.stderr.write(json.dumps({"error": kind, "detail": detail}) + "\n")
    return code


def _load_json(path: str) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in {path}: {exc}") from exc


# --- synth ----------------------------------------------------------------

def _cmd_synth(args) -> int:
    if args.scenario:
        scenario = synth.scenario_from_dict(_load_json(args.scenario))
    else:
        scenario = synth.bundled_scenario()
    if args.seed is not None:
        scenario = replace(scenario, seed=args.seed)
    if args.print_config:
        print(json.dumps(synth.scenario_to_dict(scenario), indent=2, sort_keys=True))
        return EXIT_OK
    dataset = synth.generate_dataset(scenario)
    manifest = ingest.write_dataset_dir(dataset, args.out)
    print(
        json.dumps(
            {
                "records": len(manifest["records"]),
                "subjects": len({r["subject_id"] for r in manifest["records"]}),
                "digest": manifest["digest"],
                "out": str(args.out),
            }
        )
    )
    return EXIT_OK


# --- ingest ---------------------------------------------------------------

def _ingest_plan(args) -> list[tuple[ingest.PcapSource, SubjectLabel | None]]:
    """Each input's capture source and label, all checked before any capture is read.

    The label is None for a ``.csi`` entry without ``subject_id``: the file's own is kept.
    """
    if args.manifest:
        entries = _load_json(args.manifest)
        if not isinstance(entries, list):
            raise ConfigError("ingest manifest must be a JSON list of entries")
    elif args.inputs:
        entries = [
            {"path": path, "subject_id": args.subject or Path(path).stem, "hand": args.hand,
             "sample_index": args.sample_index if args.sample_index is not None else i}
            for i, path in enumerate(args.inputs)
        ]
    else:
        raise ConfigError("no input files given")
    defaults = {"udp_port": args.udp_port, "expected_subcarriers": args.subcarriers}
    plan = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ConfigError(f"ingest entry {i} must be a JSON object, got {entry!r}")
        try:
            src = from_dict(ingest.PcapSource, {**defaults, **entry},
                            ignore=[f.name for f in fields(SubjectLabel)])
            label = from_dict(SubjectLabel, {"subject_id": Path(src.path).stem, **entry},
                              ignore=[f.name for f in fields(ingest.PcapSource)])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"ingest entry {i}: {exc}") from exc
        keep_stored = Path(src.path).suffix == ".csi" and "subject_id" not in entry
        plan.append((src, None if keep_stored else label))
    return plan


def _cmd_ingest(args) -> int:
    records = []
    for src, label in _ingest_plan(args):
        path = Path(src.path)
        if not path.exists():
            raise FileNotFoundError(f"input file not found: {path}")
        if path.suffix == ".csi":
            matrix, stored = ingest.read_portable(path)
            label = label or stored
        else:
            matrix = ingest.parse_pcap(src)
        records.append((matrix, label))
    manifest = ingest.write_dataset_dir(Dataset(tuple(records)), args.out)
    print(json.dumps({"records": len(manifest["records"]), "out": str(args.out)}))
    return EXIT_OK


# --- features ----------------------------------------------------------------

def _load_config(args) -> tuple[harness.ProtocolConfig, dict]:
    """Read --config, apply --window-size / --seed, build the protocol.

    The protocol is the ``protocol`` key of the file, or the whole file
    when that key is absent. Beside it only the evaluate keys may sit.
    """
    raw = _load_json(args.config) if args.config else {}
    if not isinstance(raw, dict):
        raise ConfigError(f"config must be a JSON object, got {type(raw).__name__}")
    wrapped = "protocol" in raw
    section = raw["protocol"] if wrapped else raw
    unknown = sorted(set(raw) - {"protocol", *EVALUATE_KEYS}) if wrapped else []
    if unknown:
        raise ConfigError(f"config has unknown keys {unknown} beside 'protocol'")
    if not isinstance(section, dict):
        raise ConfigError(f"protocol must be a JSON object, got {type(section).__name__}")
    overrides = {"window_size": args.window_size, "seed": args.seed}
    section = {**section, **{k: v for k, v in overrides.items() if v is not None}}
    try:
        return harness.protocol_from_dict(section, () if wrapped else EVALUATE_KEYS), raw
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {args.command} config: {exc}") from exc


def _cmd_features(args) -> int:
    protocol, _ = _load_config(args)
    if args.print_config:
        print(json.dumps(protocol.to_dict(), indent=2, sort_keys=True))
        return EXIT_OK
    dataset = ingest.read_dataset_dir(args.dataset)
    ws = harness.prepare_windows(dataset, protocol)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "features.csv"
    with open(path, "w", newline="") as fh:
        fh.write(report.provenance_line(protocol.digest(), dataset.digest(), protocol.seed) + "\n")
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(
            ["record_index", "window_start", "subject_id", "sample_index",
             *ws.matrix.feature_names]
        )
        for i in range(ws.matrix.n_rows):
            w.writerow(
                [ws.record_indices[i], ws.window_starts[i], ws.matrix.labels[i],
                 ws.sample_indices[i],
                 *(f"{v:.17g}" for v in ws.matrix.values[i])]
            )
    print(json.dumps({"windows": ws.matrix.n_rows, "out": str(path)}))
    return EXIT_OK


# --- evaluate -----------------------------------------------------------------

def _evaluate_config(args) -> tuple[harness.ProtocolConfig, list[ModelSpec], dict]:
    """The shared config plus the model list, checked before any data is read."""
    protocol, raw = _load_config(args)
    if not isinstance(raw.get("audit", True), bool):
        raise ConfigError(f"audit must be true or false, got {raw['audit']!r}")
    entries = raw.get("models", DEFAULT_MODELS)
    try:
        models = [replace(from_dict(ModelSpec, m), seed=protocol.seed) for m in entries]
        if any("seed" in m for m in entries):
            raise ValueError("a model entry takes the protocol seed; remove its 'seed'")
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad evaluate config: {exc}") from exc
    kinds = [m.kind for m in models]
    if not kinds:
        raise ConfigError("evaluate config lists no models")
    if len(set(kinds)) != len(kinds):
        raise ConfigError(f"evaluate config lists a model kind twice: {kinds}")
    if raw.get("audit", True) and raw.get("audit_model", kinds[0]) not in kinds:
        raise ConfigError(f"audit_model {raw['audit_model']!r} is not one of the models {kinds}")
    return protocol, models, raw


def _cmd_evaluate(args) -> int:
    protocol, models, raw = _evaluate_config(args)
    if args.print_config:
        print(
            json.dumps(
                {
                    "protocol": protocol.to_dict(),
                    "models": [
                        {"kind": m.kind, "hyperparams": m.hyperparams}
                        for m in models
                    ],
                    "audit": raw.get("audit", True),
                },
                indent=2,
                sort_keys=True,
            )
        )
        return EXIT_OK
    dataset = ingest.read_dataset_dir(args.dataset)
    genuine, _ = synth.split_attack(dataset)
    ws = harness.prepare_windows(genuine, protocol)
    result = harness.run_cv(genuine, protocol, models, ws=ws)
    if raw.get("audit", True):
        audit_kind = raw.get("audit_model", models[0].kind)
        audit_model = next(m for m in models if m.kind == audit_kind)
        audit = harness.leakage_audit(genuine, protocol, audit_model, ws=ws, result=result)
        result = replace(result, leakage_audit=audit)
    files = report.write_all(args.out, result)
    print(
        json.dumps(
            {
                "out": str(args.out),
                "files": files,
                "result_digest": result.digest(),
                "leakage_flagged": (
                    result.leakage_audit.flagged if result.leakage_audit else None
                ),
            }
        )
    )
    if result.leakage_audit is not None and result.leakage_audit.flagged:
        return EXIT_LEAKAGE
    return EXIT_OK


# --- entry point -----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csibio",
        description="Wi-Fi CSI biometric evaluation toolkit",
    )
    parser.add_argument("--version", action="version", version=f"csibio {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_ingest = sub.add_parser("ingest", help="parse pcap/portable captures into a dataset dir")
    p_ingest.add_argument("inputs", nargs="*", help="pcap or .csi files")
    p_ingest.add_argument("--manifest", help="JSON list of {path, subject_id, sample_index, hand}")
    p_ingest.add_argument("--subject", help="subject id for all inputs")
    p_ingest.add_argument("--sample-index", type=int, help="sample index for all inputs")
    p_ingest.add_argument("--hand", default="unspecified", help="left/right/unspecified")
    p_ingest.add_argument("--udp-port", type=int, default=5500)
    p_ingest.add_argument("--subcarriers", type=int, default=128)
    p_ingest.add_argument("--out", required=True)
    p_ingest.set_defaults(fn=_cmd_ingest)

    p_synth = sub.add_parser("synth", help="generate a synthetic dataset dir")
    p_synth.add_argument("--scenario", help="scenario JSON (omit for the bundled scenario)")
    p_synth.add_argument("--seed", type=int)
    p_synth.add_argument("--out")
    p_synth.add_argument("--print-config", action="store_true")
    p_synth.set_defaults(fn=_cmd_synth)

    for name, fn in (("features", _cmd_features), ("evaluate", _cmd_evaluate)):
        p = sub.add_parser(name)
        p.add_argument("dataset", nargs="?", help="dataset directory")
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--window-size", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--out")
        p.add_argument("--print-config", action="store_true")
        p.set_defaults(fn=fn)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help/--version.
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK

    needs_out = not getattr(args, "print_config", False)
    if needs_out and not getattr(args, "out", None):
        return _fail("usage", "--out is required", EXIT_USAGE)
    if getattr(args, "fn", None) in (_cmd_features, _cmd_evaluate):
        if not args.print_config and not args.dataset:
            return _fail("usage", "dataset directory is required", EXIT_USAGE)

    try:
        return args.fn(args)
    except ConfigError as exc:
        return _fail(type(exc).__name__, str(exc), EXIT_USAGE)
    except (CsiBioError, OSError, ValueError) as exc:
        return _fail(type(exc).__name__, str(exc), EXIT_RUNTIME)


if __name__ == "__main__":
    sys.exit(main())
