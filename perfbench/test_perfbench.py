"""Tests of the benchmark itself: budgets, oracles, tracer coverage and
counter determinism.  Run from the root of a checkout:

    python3 -m pytest perfbench -q
"""

import json
import subprocess
import sys
import textwrap
import time
from pathlib import Path
from random import Random

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import oracles  # noqa: E402
from gen import layout_dg, random_chain_map, random_pieces  # noqa: E402
from harness import Task, run_task  # noqa: E402
from rht.calculus import TensorPowerFunctor, p_n_stabilize  # noqa: E402
from rht.dgcore import DG  # noqa: E402


def test_budget_interrupts_an_unbounded_call():
    # this call runs for many minutes; the budget must stop it inside the process
    task = Task("unbounded", lambda: p_n_stabilize(TensorPowerFunctor(3), 2, DG({3: ("e",)}), window=(0, 10)), 0.5)
    start = time.perf_counter()
    out = run_task(task)
    assert time.perf_counter() - start < 5
    assert out.timed_out and not out.ok
    assert "budget" in out.error


def test_failing_task_is_counted_not_raised():
    def wrong():
        raise ValueError("boom")

    out = run_task(Task("wrong", wrong, 5))
    assert not out.ok and not out.timed_out and "boom" in out.error


def test_pbw_ranks_match_known_wedge():
    # S^3 v S^3 v S^5: pi_3,5,7,9,11,13 = 2, 2, 4, 7, 16, 30
    pi = oracles.wedge_homotopy((3, 3, 5), 14)
    assert [pi[str(k)] for k in (3, 5, 7, 9, 11, 13)] == [2, 2, 4, 7, 16, 30]
    assert all(pi[str(k)] == 0 for k in (1, 2, 4, 6, 8, 10, 12, 14))
    # the free Lie algebra on one odd generator is x and [x, x]
    assert oracles.free_lie_ranks([1], 4) == [0, 1, 1, 0, 0]


def test_generated_inputs_have_the_stated_homology():
    from rht.dgcore import homology_dims, validate_dg

    rng = Random(7)
    for _ in range(50):
        v, w = layout_dg(rng, random_pieces(rng, 0, 3)), layout_dg(rng, random_pieces(rng, 0, 3))
        assert validate_dg(v.dg) == []
        assert homology_dims(v.dg) == v.homology
        assert validate_dg(random_chain_map(rng, v, w)) == []


def _python(code: str) -> subprocess.CompletedProcess:
    prelude = f"import sys; sys.path[:0] = [{str(ROOT / 'src')!r}, {str(HERE)!r}]\n"
    return subprocess.run([sys.executable, "-c", prelude + textwrap.dedent(code)], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)


def test_tracer_rebinds_every_import():
    done = _python("""
        import tracer, rht.cli, rht.calculus, rht.dgcore
        t = tracer.Tracer()
        t.install()
        assert rht.calculus.solve_matrix is t.wrappers["exactq.solve_matrix"]
        assert rht.dgcore.kernel_basis is t.wrappers["exactq.kernel_basis"]
        assert rht.cli.COMMANDS["homotopy"] is t.wrappers["cli.cmd_homotopy"]
        assert rht.exactq.vec_add.__module__ == "rht.exactq"  # left unwrapped on purpose
        rht.cli.main(["homology", "models/twocell.dg"])
        assert t.count["cli.main.calls"] == 1 and t.count["dgcore.homology.calls"] >= 1
        print("ok")
    """)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().endswith("ok")


def test_tracer_fails_loudly_on_a_missing_name():
    done = _python("""
        import tracer, rht.cli, rht.calculus, rht.dgl
        del rht.dgl.to_dgl
        tracer.Tracer().install()
    """)
    assert done.returncode != 0 and "dgl.to_dgl" in done.stderr


def test_tracer_fails_loudly_on_an_original_it_cannot_rebind():
    done = _python("""
        import tracer, rht.exactq, rht.quillen
        rht.quillen.FROZEN = (rht.exactq.rref,)
        tracer.Tracer().install()
    """)
    assert done.returncode != 0 and "rht.quillen.FROZEN" in done.stderr


def _traced_counts(workload: str) -> dict:
    done = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
                           "--seconds", "1", "--trace", "1", "--rounds", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {k: m["value"] for k, m in result["metrics"].items() if m["unit"] == "count"}


def test_traced_counters_repeat_at_one_seed():
    counts = {}
    for workload in ("cli-homotopy", "validate-sweep"):
        first, second = _traced_counts(workload), _traced_counts(workload)
        assert first == second
        counts[workload] = first
    for name in ("exactq.calls", "exactq.cells_in", "exactq.nnz_in", "exactq.solve_cols", "dgl.basis_words",
                 "dgcore.homology_dim_in"):
        assert all(c[name] > 0 for c in counts.values()), name
    assert counts["validate-sweep"]["dgc.basis_words"] > 0
    assert counts["cli-homotopy"]["cli.stdout_bytes"] > 0
