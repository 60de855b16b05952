#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload sessions --seeds 0-9

Runs perfbench/run.py once per seed (sequentially, run_seconds from
BENCHMARK.json) and prints, per metric, the median, the quartiles from
``statistics.quantiles(values, n=4)`` and their distance as a share of
the median, next to the metric's bound. Run from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path


def seeds(text: str) -> list[int]:
    """'0-9' or a comma list such as '1,1,1'."""
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("0-9"))
    args = parser.parse_args()
    spec = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
             "--trace", "0"],
            capture_output=True, text=True,
        )
        if proc.returncode != 0:  # run.py exits 1 when an output check failed
            sys.stderr.write(proc.stderr)
            print(f"seed {seed}: run failed (exit {proc.returncode})")
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        shown = " ".join(f"{n}={v['value']:.4g}" for n, v in result["metrics"].items())
        print(f"seed {seed} ({time.perf_counter() - start:.0f} s): {shown}", flush=True)

    print(f"{'metric':34s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'iqr/med':>8s} bound")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        share = (q3 - q1) / med if med else float("nan")
        print(f"{name:34s} {med:12.6g} {q1:12.6g} {q3:12.6g} {share:8.4f} {bounds.get(name)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
