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
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

from . import __version__, harness, ingest, report, synth
from .classify import ModelSpec
from .errors import ConfigError, CsiBioError
from .model import SubjectLabel, from_dict

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2
EXIT_LEAKAGE = 3


@dataclass(frozen=True)
class EvaluateConfig:
    """What ``--config`` holds: the protocol, the models to cross-validate and the
    leakage audit; ``audit_model`` defaults to the first model's kind."""

    protocol: harness.ProtocolConfig = harness.ProtocolConfig()
    models: tuple[ModelSpec, ...] = (ModelSpec("random_forest"), ModelSpec("knn", {"k": 5}))
    audit: bool = True
    audit_model: str | None = None

    def __post_init__(self):
        kinds = [m.kind for m in self.models]
        if not kinds:
            raise ValueError("evaluate config lists no models")
        if len(set(kinds)) != len(kinds):
            raise ValueError(f"evaluate config lists a model kind twice: {kinds}")
        if self.audit and self.audit_model not in (None, *kinds):
            raise ValueError(f"audit_model {self.audit_model!r} is not one of the models {kinds}")
        if self.audit_model is None:
            object.__setattr__(self, "audit_model", kinds[0])

    def to_dict(self) -> dict:
        return {**asdict(self), "protocol": self.protocol.to_dict()}


def _fail(kind: str, detail: str, code: int) -> int:
    sys.stderr.write(json.dumps({"error": kind, "detail": detail}) + "\n")
    return code


def _print_json(d: dict) -> int:
    print(json.dumps(d, indent=2, sort_keys=True))
    return EXIT_OK


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
        return _print_json(synth.scenario_to_dict(scenario))
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
    plan = [(Path(src.path), src, label) for src, label in _ingest_plan(args)]
    for path, _, _ in plan:
        if not path.exists():
            raise FileNotFoundError(f"input file not found: {path}")

    def records():  # one capture at a time, each written before the next is read
        for path, src, label in plan:
            if path.suffix == ".csi":
                matrix, stored = ingest.read_portable(path)
                yield matrix, label or stored
            else:
                yield ingest.parse_pcap(src), label

    manifest = ingest.write_dataset_dir(records(), args.out)
    print(json.dumps({"records": len(manifest["records"]), "out": str(args.out)}))
    return EXIT_OK


# --- features ----------------------------------------------------------------

def _load_config(args) -> EvaluateConfig:
    """Read --config, apply --window-size / --seed, build the evaluate config.

    The protocol is the ``protocol`` key of the file, or the whole file
    when that key is absent; the other EvaluateConfig fields sit beside it.
    Features reads the same config and uses only its protocol.
    """
    raw = _load_json(args.config) if args.config else {}
    if not isinstance(raw, dict):
        raise ConfigError(f"config must be a JSON object, got {type(raw).__name__}")
    if "protocol" in raw:
        section, rest = raw["protocol"], {k: v for k, v in raw.items() if k != "protocol"}
    else:  # a bare protocol, with the other EvaluateConfig fields beside its own
        outer = {f.name for f in fields(EvaluateConfig)}
        section = {k: v for k, v in raw.items() if k not in outer}
        rest = {k: v for k, v in raw.items() if k in outer}
    if not isinstance(section, dict):
        raise ConfigError(f"protocol must be a JSON object, got {type(section).__name__}")
    overrides = {"window_size": args.window_size, "seed": args.seed}
    section = {**section, **{k: v for k, v in overrides.items() if v is not None}}
    try:
        return from_dict(EvaluateConfig, {**rest, "protocol": harness.protocol_from_dict(section)})
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {args.command} config: {exc}") from exc


def _cmd_features(args) -> int:
    protocol = _load_config(args).protocol
    if args.print_config:
        return _print_json(protocol.to_dict())
    dataset = ingest.read_dataset_dir(args.dataset)
    ws = harness.prepare_windows(dataset, protocol)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "features.csv"
    with open(path, "w", newline="") as fh:
        fh.write(report.provenance_line(protocol, ws) + "\n")
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

def _cmd_evaluate(args) -> int:
    cfg = _load_config(args)
    if args.print_config:
        return _print_json(cfg.to_dict())
    dataset = ingest.read_dataset_dir(args.dataset)
    genuine, _ = synth.split_attack(dataset)
    ws = harness.prepare_windows(genuine, cfg.protocol)
    result = harness.run_cv(ws, cfg.protocol, cfg.models)
    if cfg.audit:
        audit_model = next(m for m in cfg.models if m.kind == cfg.audit_model)
        audit = harness.leakage_audit(result, audit_model)
        result = replace(result, leakage_audit=audit)
    files = report.write_all(args.out, result)
    flagged = result.leakage_audit.flagged if result.leakage_audit else None
    print(json.dumps({"out": str(args.out), "files": files,
                      "result_digest": result.digest(), "leakage_flagged": flagged}))
    return EXIT_LEAKAGE if flagged else EXIT_OK


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
