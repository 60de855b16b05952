#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the csibio CLI.

    python3 perfbench/run.py --workload {bundled,sessions,capture} \\
        --seed N --seconds S --trace {0,1}

Run from the repository root; csibio is imported from ./src. Inputs are
generated from the seed into .perfbench/ and removed afterwards.

``--trace 0`` runs the workload's command chain in fresh ``csibio``
processes (closed loop: one caller, one command at a time) for about S
seconds and reports the end-to-end metrics: median chain wall and CPU
time, windows per second, peak RSS, and the ``--print-config`` set-up
time. ``--trace 1`` runs the chain once untraced and at least twice
with a span tracer installed around each layer's functions
(perfbench/tracer.py) and reports per-layer self times and counters.

Every command's exit code and output files are checked, and output
digests must match across all runs of one invocation. Informational
lines come first; the last stdout line is the JSON result
``{"correct", "attempted", "failed", "metrics"}``. The exit code is 1
when any check failed and 2 when no csibio source tree is present.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
CSIBIO = [sys.executable, "-c", "import sys; from csibio.cli import main; sys.exit(main())"]
TRACED = [sys.executable, str(HERE / "traced_cli.py")]
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_PER_CHAIN = 2  # --print-config probes before each chain run and after the last
MIN_CHAIN_RUNS = 2  # the reported times are medians over at least this many chains
COMMAND_TIMEOUT_S = 150.0


@dataclass
class Proc:
    code: int
    wall: float
    cpu: float
    rss_mb: float
    stdout: str
    stderr: str


@dataclass
class Chain:
    wall: float = 0.0
    cpu: float = 0.0
    rss_mb: float = 0.0
    dumps: list = field(default_factory=list)
    info: list = field(default_factory=list)


@dataclass
class Tally:
    """Commands attempted and failed, with output digests compared across runs."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)

    def record(self, label: str, problems: list, digest: str | None = None):
        self.attempted += 1
        problems = list(problems)
        if digest is not None:
            first = self.digests.setdefault(label, digest)
            if digest != first:
                problems.append(f"output digest {digest} differs from the first run's {first}")
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)


class Runner:
    def __init__(self, root: Path, src: Path, work: Path):
        self.root = root
        self.work = work
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(src), os.environ.get("PYTHONPATH")) if p
        )
        self._n = 0

    def run(self, argv: list[str]) -> Proc:
        """One fresh process; wall from launch to exit, CPU and RSS from wait4."""
        self._n += 1
        out_path = self.work / f"cmd{self._n}.out"
        err_path = self.work / f"cmd{self._n}.err"
        with open(out_path, "w") as out, open(err_path, "w") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=self.root)
            timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Proc(
            code=proc.returncode,
            wall=wall,
            cpu=usage.ru_utime + usage.ru_stime,
            rss_mb=usage.ru_maxrss / 1024.0,
            stdout=out_path.read_text(),
            stderr=err_path.read_text(),
        )

    def chain(self, workload, tally: Tally, traced: bool) -> Chain:
        self._n += 1
        rep_dir = self.work / f"rep{self._n}"
        rep_dir.mkdir()
        result = Chain()
        for i, step in enumerate(workload.steps):
            argv = step.argv(rep_dir)
            spans = rep_dir / f"spans{i}.json"
            proc = self.run((TRACED + [str(spans), "--"] if traced else CSIBIO) + argv)
            outcome = step.check(proc.code, proc.stdout, rep_dir)
            problems = outcome.problems
            if problems and proc.stderr.strip():
                problems = problems + [f"stderr: {proc.stderr.strip()[-300:]}"]
            tally.record(f"{workload.name}/{argv[0]}", problems, outcome.digest)
            result.wall += proc.wall
            result.cpu += proc.cpu
            result.rss_mb = max(result.rss_mb, proc.rss_mb)
            result.info.append({"command": argv[0], "digest": outcome.digest, **outcome.info})
            if traced and spans.exists():
                result.dumps.append(json.loads(spans.read_text()))
        shutil.rmtree(rep_dir)
        return result

    def print_config(self, workload, tally: Tally) -> float:
        from workloads import check_print_config

        proc = self.run(CSIBIO + workload.setup_argv)
        tally.record(f"{workload.name}/print-config", check_print_config(proc.code, proc.stdout))
        return proc.wall


def environment(root: Path, workload: str, seed: int) -> dict:
    import numpy

    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "blas_threads": {k: os.environ.get(k) for k in BLAS_VARS},
        "commit": git_commit(root),
        "workload": workload,
        "seeds": {"workload": seed, "evaluate_protocol": 0},
    }


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def measure_end_to_end(runner: Runner, workload, seconds: float, tally: Tally):
    runner.print_config(workload, tally)  # fills the bytecode cache; not timed
    setup: list[float] = []
    chains: list[Chain] = []
    start = time.perf_counter()
    # Set-up probes are spread between the chain runs so that both sample
    # the same stretch of machine time.
    while True:
        setup += [runner.print_config(workload, tally) for _ in range(SETUP_PER_CHAIN)]
        chains.append(runner.chain(workload, tally, traced=False))
        elapsed = time.perf_counter() - start
        if (len(chains) >= MIN_CHAIN_RUNS
                and elapsed + statistics.median(c.wall for c in chains) > seconds):
            break
    setup += [runner.print_config(workload, tally) for _ in range(SETUP_PER_CHAIN)]
    wall = statistics.median(c.wall for c in chains)
    metrics = {
        "wall_s": wall,
        "cpu_s": statistics.median(c.cpu for c in chains),
        "windows_per_s": workload.windows / wall,
        "peak_rss_mb": statistics.median(c.rss_mb for c in chains),
        "setup_s": statistics.median(setup),
    }
    info = {
        "chain_runs": len(chains),
        "chain_wall_s": [round(c.wall, 4) for c in chains],
        "setup_runs": len(setup),
        "outputs": chains[-1].info,
    }
    return metrics, info, []


def measure_layers(runner: Runner, workload, seconds: float, tally: Tally, synth_dump: dict):
    from tracer import STEADY_COUNTERS, layer_metrics

    runner.print_config(workload, tally)
    start = time.perf_counter()
    untraced = runner.chain(workload, tally, traced=False)
    chains: list[Chain] = []
    while (len(chains) < MIN_CHAIN_RUNS
           or time.perf_counter() - start + chains[-1].wall <= seconds):
        chains.append(runner.chain(workload, tally, traced=True))
    per_run = [layer_metrics([synth_dump, *c.dumps]) for c in chains]
    metrics = {name: statistics.median(run[name] for run in per_run) for name in per_run[0]}
    metrics["trace.overhead_s"] = statistics.median(c.wall for c in chains) - untraced.wall

    problems = []
    for name in STEADY_COUNTERS:
        values = [run[name] for run in per_run]
        if len(set(values)) > 1:
            problems.append(f"counter {name} differs across traced runs: {values}")
    for run in per_run:
        for kind, expected in workload.injected.items():
            got = run[f"ingest.skipped_{kind}"]
            if got != expected:
                problems.append(f"ingest skipped {got} {kind} frames, {expected} injected")
        if run["harness.windows"] != workload.windows:
            problems.append(f"traced run windowed {run['harness.windows']}, "
                            f"want {workload.windows}")
    info = {
        "traced_runs": len(chains),
        "traced_wall_s": [round(c.wall, 4) for c in chains],
        "untraced_wall_s": round(untraced.wall, 4),
        "counters": {name: per_run[0][name] for name in STEADY_COUNTERS},
        "ingest_skipped": {k: per_run[0][f"ingest.skipped_{k}"] for k in workload.injected},
        "outputs": chains[-1].info,
    }
    return metrics, info, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("bundled", "sessions", "capture"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    root = Path.cwd()
    src = root / "src"
    if not (src / "csibio" / "cli.py").is_file() or not (root / "BENCHMARK.json").is_file():
        sys.stderr.write("perfbench: run from the repository root (needs src/csibio and "
                         "BENCHMARK.json)\n")
        return 2
    sys.path.insert(0, str(src))
    spec = json.loads((root / "BENCHMARK.json").read_text())

    work = root / ".perfbench" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        return run(args, spec, root, src, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


def run(args, spec: dict, root: Path, src: Path, work: Path) -> int:
    import tracer
    from workloads import WORKLOADS

    synth_tracer = tracer.Tracer()
    uninstall = tracer.install(synth_tracer, [("synth", "generate_dataset", "synth.generate",
                                               None)])
    try:
        workload = WORKLOADS[args.workload](args.seed, work / "inputs")
    finally:
        uninstall()

    runner = Runner(root, src, work)
    tally = Tally()
    if args.trace:
        values, info, problems = measure_layers(runner, workload, args.seconds, tally,
                                                synth_tracer.dump())
        wanted = spec["per_layer"]
    else:
        values, info, problems = measure_end_to_end(runner, workload, args.seconds, tally)
        wanted = spec["end_to_end"]

    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
               for m in wanted}
    problems = tally.problems + problems
    correct = not problems
    for problem in problems:
        sys.stderr.write(f"perfbench: FAILED {problem}\n")
    print(json.dumps({"environment": environment(root, args.workload, args.seed)}))
    print(json.dumps({"run": info, "digests": tally.digests,
                      "failed_ratio": tally.failed / max(tally.attempted, 1)}))
    for name, m in metrics.items():
        print(f"{name:34s} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
