#!/usr/bin/env python3
"""Benchmark of the rht engine: three seeded workloads, end-to-end metrics,
and a traced run for per-layer numbers.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cli-homotopy --seed 1 --seconds 20 --trace 0

With --trace 0 it prints the end-to-end metrics (set-up time, throughput,
task latency percentiles, peak memory); with --trace 1 it runs a fixed number
of rounds with every public function of the traced layers wrapped and prints
per-layer self times and counters.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  Workloads and
metric predictions are described in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 150


def load_program():
    """Import rht from this checkout's sources, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "rht" / "__init__.py").is_file():
        sys.exit(f"perfbench: no rht sources under {src}")
    sys.path[:0] = [str(src), str(HERE)]
    import rht

    if Path(rht.__file__).resolve().parent != (src / "rht").resolve():
        sys.exit(f"perfbench: imported rht from {rht.__file__}, not from {src}")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("cli-homotopy", "calculus-towers", "validate-sweep"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: the child processes a run starts
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--rounds", type=int, default=0, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def child(args, *extra) -> tuple[float, str]:
    """Run this script again in a fresh process; return its wall time and stdout."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), *extra]
    start = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    wall = time.perf_counter() - start
    if done.returncode != 0:
        sys.exit(f"perfbench: child {' '.join(extra)} exited with {done.returncode}")
    return wall, done.stdout


class Run:
    """One process's set-up: model directory, references, and the round pool."""

    def __init__(self, workload: str, seed: int, rounds: int = 0, tracer=None):
        import workloads

        self.tmpdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
        try:
            with open(HERE / "pinned_cli.json", encoding="utf-8") as fh:
                pinned = json.load(fh)
            note = tracer.note if tracer is not None else (lambda counter, amount: None)
            self.ctx = workloads.Context(self.tmpdir, pinned, note)
            self.pool = workloads.build_pool(workload, seed, self.ctx, rounds or None)
        except BaseException:
            self.close()
            raise

    def round(self, r: int):
        return self.pool[r % len(self.pool)]

    def close(self):
        shutil.rmtree(self.tmpdir, ignore_errors=True)


def machine_info(args, tasks: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu, "commit": commit,
            "workload": args.workload, "seed": args.seed, "trace": args.trace, "tasks": tasks}


def emit(info: dict, units: dict, metrics: dict, outcomes) -> None:
    failed = [o for o in outcomes if not o.ok]
    attempted = len(outcomes)
    print(json.dumps({"info": info}))
    for o in failed[:10]:
        print(f"FAILED {o.kind}: {o.error}")
    for name, value in {**metrics, "fail_ratio": len(failed) / attempted}.items():
        print(f"{info['workload']:16s} {name:36s} {value:14.6g} {units.get(name, '1')}")
    print(json.dumps({
        # a wrong answer or an exception makes the run incorrect; a task over its
        # budget counts as failed but is not a wrong answer
        "correct": not any(not o.ok and not o.timed_out for o in outcomes),
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units.get(k, "1")} for k, v in metrics.items()},
    }))


END_TO_END_UNITS = {"setup_s": "s", "tasks_per_s": "1/s", "task_p50_s": "s", "task_p90_s": "s", "peak_rss_mb": "MiB"}


def timed_setup(args) -> float:
    """Wall time of one set-up in a fresh process, at the reference machine speed."""
    import harness

    before = harness.probe()
    wall = child(args, "--setup-only")[0]
    return wall * harness.PROBE_REF_S / ((before + harness.probe()) / 2)


def main(argv=None) -> int:
    args = parse_args(argv)
    os.chdir(ROOT)
    load_program()
    import harness

    if args.setup_only:
        Run(args.workload, args.seed).close()
        return 0
    if args.trace:
        return traced(args)
    setup = [] if args.rounds else [timed_setup(args) for _ in range(SETUP_SAMPLES)]
    run = Run(args.workload, args.seed, args.rounds)
    try:
        outcomes = harness.run_rounds(run.round, None if args.rounds else args.seconds, args.rounds)
    finally:
        run.close()
    if args.rounds:
        print(json.dumps({"scaled_task_s": sum(o.scaled_s for o in outcomes)}))
        return 0
    metrics = {"setup_s": statistics.median(setup), **harness.summarize(outcomes),
               "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    wall = sum(o.seconds for o in outcomes)
    print(f"unscaled: {len(outcomes) / wall:.4g} tasks/s over {wall:.2f} s of task time, "
          f"setup samples {', '.join(f'{x:.3f}' for x in setup)} s")
    emit(machine_info(args, len(outcomes)), END_TO_END_UNITS, metrics, outcomes)
    return 0


def traced(args) -> int:
    import harness
    import tracer as tracing
    import workloads

    rounds = args.rounds or workloads.WORKLOADS[args.workload].trace_rounds
    untraced = json.loads(child(args, "--rounds", str(rounds))[1].strip().splitlines()[-1])
    tracer = tracing.Tracer()
    run = Run(args.workload, args.seed, rounds, tracer)
    tracer.install()
    try:
        outcomes = harness.run_rounds(run.round, None, rounds, on_failure=tracer.reset)
    finally:
        run.close()
    metrics = tracer.metrics(sum(o.seconds for o in outcomes))
    # both passes at the reference machine speed, so that drift between them cancels
    metrics["trace.overhead_ratio"] = sum(o.scaled_s for o in outcomes) / untraced["scaled_task_s"]
    emit(machine_info(args, len(outcomes)), {k: tracing.unit(k) for k in metrics}, metrics, outcomes)
    return 0


if __name__ == "__main__":
    sys.exit(main())
