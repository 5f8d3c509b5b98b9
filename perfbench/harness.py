"""Closed-loop task runner with per-task time budgets and a machine-speed probe.

One client, one process, one thread: the next task starts only after the
previous one ends.  A task that raises, returns a mismatch or overruns its
budget counts as failed and the run goes on.

The machines this runs on share cores with other tenants, and the same pure
Python loop can take 25% longer from one second to the next.  So between
tasks, at most every PROBE_EVERY_S of task time, the runner times a fixed
rational elimination written here (not the program's), and reports each
task's time rescaled to the speed at which that probe takes PROBE_REF_S.
Each probe is a median of five runs, and each task is scaled by the median
of the two probes before it and the two after it.  A change to the program
does not change the probe, so the rescaled times move only with the
program.  Raw wall times are kept beside them.
"""

from __future__ import annotations

import signal
import statistics
from dataclasses import dataclass
from fractions import Fraction
from random import Random
from time import perf_counter
from typing import Callable, Optional

PROBE_EVERY_S = 0.25
PROBE_REF_S = 0.0025
# a timed run has at least this many tasks, so that ten lie beyond its 90th percentile
MIN_TASKS = 100
# a run stops starting tasks this long after its nominal length, whatever the round
OVERRUN_S = 60.0


class TaskTimeout(BaseException):
    """Raised inside a task when its budget runs out.

    A BaseException, so that the program's own `except Exception` handlers
    cannot swallow it.
    """


class Mismatch(Exception):
    """A task's output disagrees with its oracle."""


@dataclass(frozen=True)
class Task:
    kind: str
    run: Callable[[], None]  # raises Mismatch when the output is wrong
    budget_s: float


@dataclass
class Outcome:
    kind: str
    seconds: float
    ok: bool
    timed_out: bool = False
    error: str = ""
    scaled_s: float = 0.0  # seconds at the reference machine speed


def _on_alarm(signum, frame):
    raise TaskTimeout()


def run_task(task: Task) -> Outcome:
    """Run one task under its budget; never raises for a task's own failure."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    start = perf_counter()
    error = ""
    timed_out = False
    try:
        signal.setitimer(signal.ITIMER_REAL, task.budget_s)
        try:
            task.run()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except TaskTimeout:
        timed_out = True
        error = f"over budget of {task.budget_s:g} s"
    except Exception as e:  # a failing task is a result, not a harness error
        error = f"{type(e).__name__}: {e}"
    finally:
        signal.signal(signal.SIGALRM, previous)
    return Outcome(task.kind, perf_counter() - start, not error, timed_out, error[:300])


_rng = Random(0)
_PROBE_ROWS = [{j: Fraction(_rng.randint(-3, 3), _rng.randint(1, 2)) for j in range(10)} for _ in range(10)]


def _eliminate() -> int:
    rows = [{k: v for k, v in row.items() if v} for row in _PROBE_ROWS]
    rank = 0
    for c in range(10):
        pivot = next((i for i in range(rank, len(rows)) if c in rows[i]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][c]
        prow = rows[rank] = {k: v * inv for k, v in rows[rank].items()}
        for i, row in enumerate(rows):
            if i != rank and c in row:
                f = row[c]
                for k, v in prow.items():
                    s = row.get(k, 0) - f * v
                    if s:
                        row[k] = s
                    else:
                        row.pop(k, None)
        rank += 1
    return rank


def probe() -> float:
    """Median seconds of five runs of a fixed rational elimination."""
    times = []
    for _ in range(5):
        start = perf_counter()
        _eliminate()
        times.append(perf_counter() - start)
    return statistics.median(times)


def run_rounds(rounds: Callable[[int], list[Task]], seconds: Optional[float], fixed_rounds: int,
               on_failure: Callable[[], None] = lambda: None) -> list[Outcome]:
    """Run whole rounds until `seconds` have passed and MIN_TASKS tasks have
    run, or exactly `fixed_rounds` rounds when `seconds` is None.

    Stopping only at a round boundary keeps every run's task mix the same, so
    throughput does not depend on where the clock happened to run out.
    """
    outcomes: list[Outcome] = []
    probes = [(0, probe())]  # (tasks done, probe seconds)
    since_probe = 0.0
    start = perf_counter()
    r = 0
    while True:
        for task in rounds(r):
            out = run_task(task)
            outcomes.append(out)
            if not out.ok:
                on_failure()
            since_probe += out.seconds
            if since_probe >= PROBE_EVERY_S:
                probes.append((len(outcomes), probe()))
                since_probe = 0.0
            if seconds is not None and perf_counter() - start > seconds + OVERRUN_S:
                break
        r += 1
        elapsed = perf_counter() - start
        if seconds is None:
            if r >= fixed_rounds:
                break
        elif (elapsed >= seconds and len(outcomes) >= MIN_TASKS) or elapsed > seconds + OVERRUN_S:
            break
    if probes[-1][0] < len(outcomes):
        probes.append((len(outcomes), probe()))
    # a task between two probes runs at the median speed of the two probes
    # before it and the two after it
    for i in range(len(probes) - 1):
        near = [p for _, p in probes[max(0, i - 1):i + 3]]
        scale = PROBE_REF_S / statistics.median(near)
        for out in outcomes[probes[i][0]:probes[i + 1][0]]:
            out.scaled_s = out.seconds * scale
    return outcomes


def summarize(outcomes: list[Outcome]) -> dict[str, float]:
    """Throughput and latency percentiles at the reference machine speed."""
    times = [o.scaled_s for o in outcomes]
    deciles = statistics.quantiles(times, n=10, method="inclusive")
    return {
        "tasks_per_s": sum(o.ok for o in outcomes) / sum(times),
        "task_p50_s": statistics.median(times),
        "task_p90_s": deciles[8],
    }
