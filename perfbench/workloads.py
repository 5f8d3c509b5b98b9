"""The three seeded workloads.

Each workload is a list of rounds; a round is a fixed mix of task kinds whose
inputs are drawn from the seed.  The mix, and the input sizes of each kind,
are the same for every seed, so runs at different seeds measure the same
amount of work.  Inputs are generated before the timed phase; each task
builds its program objects from them, so no task sees another task's state.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass
from random import Random
from typing import Callable, Optional

import oracles
from gen import layout_dg, random_chain_map, random_pieces
from harness import Mismatch, Task
from rht import calculus, cli, dgc, dgcore, dgl, quillen
from rht.dgcore import DG

# The ten commands of the CLI's byte-identity test, on the shipped models.
SHIPPED = (
    ("homology", "models/twocell.dg", "--window", "0:4"),
    ("homotopy", "models/s3.dgc", "--truncate", "8"),
    ("homotopy", "models/s4.dgc", "--truncate", "9", "--format", "json"),
    ("model", "-t", "L", "models/polynomial.dgc", "--truncate", "6"),
    ("model", "-t", "C", "models/hurewicz-counterexample.dgl", "--truncate", "7"),
    ("tower", "-n", "2", "models/s3.dgc", "--truncate", "8"),
    ("layers", "-n", "2", "models/polynomial.dgc", "--truncate", "7"),
    ("crosseffect", "-n", "2", "models/twocell.dg", "--window", "0:5"),
    ("jet", "-n", "2", "models/polynomial.dgc", "--truncate", "7"),
    ("verify", "models/hurewicz-counterexample.dgl"),
)

# Every round runs each wedge of spheres below `count` times: (sphere degrees,
# cap, count).  The classes group wedges of about the same cost.  The seed
# draws the presentation (generator names and order, task order), so every
# seed measures the same work.  The tail is S^3 v S^3 v S^5 at cap 14, where
# the per-column solve blows up; the same wedge at caps 12 and 13 is heavy.
WEDGES = {
    "wedge-tiny": [((4, 5), 12, 1), ((5, 5), 14, 1), ((3, 5), 11, 1), ((5, 5, 5), 11, 1), ((3, 4), 10, 1)],
    "wedge-small": [((2, 5), 11, 2), ((3, 3), 10, 2), ((3, 4), 13, 2), ((2, 4), 10, 2), ((3, 4, 5), 10, 2),
                    ((4, 4, 4), 11, 2), ((4, 4, 5), 12, 2)],
    "wedge-medium": [((2, 4), 13, 2), ((2, 3), 10, 2), ((3, 4, 5), 14, 2)],
    "wedge-heavy": [((3, 3, 5), 12, 3), ((3, 3, 5), 13, 3), ((2, 4), 14, 2)],
    "wedge-tail": [((3, 3, 5), 14, 1)],
}

BUDGET_S = {
    "shipped": 5, "wedge-tiny": 5, "wedge-small": 5, "wedge-medium": 10, "wedge-heavy": 20, "wedge-tail": 60,
    "layers-2": 10, "layers-3": 10, "layers-4": 30, "lie": 20, "jet": 10, "cross-effect": 20, "t_n": 10,
    "cube": 30, "sweep": 10, "bridge": 20,
}


@dataclass
class Context:
    """What every task of a run shares: the model directory and the references."""

    tmpdir: str
    pinned: dict
    note: Callable[[str, int], None]  # (counter, amount) for the tracer


def _task(kind: str, run: Callable[[], None]) -> Task:
    return Task(kind, run, BUDGET_S[kind.split(":")[0]])


def _expect(what: str, got, want) -> None:
    if got != want:
        raise Mismatch(f"{what}: got {got!r}, want {want!r}")


def run_cli(ctx: Context, argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    text = out.getvalue()
    ctx.note("cli.stdout_bytes", len(text.encode()))
    return code, text


# -- cli-homotopy -------------------------------------------------------------------


def cli_round(rng: Random, ctx: Context, r: int) -> list[Task]:
    tasks = []
    for argv in SHIPPED:
        want = ctx.pinned[" ".join(argv)]

        def shipped(argv=argv, want=want):
            code, out = run_cli(ctx, argv)
            _expect(f"exit code of {' '.join(argv)}", code, want["exit"])
            _expect(f"stdout of {' '.join(argv)}", out, want["stdout"])

        tasks.append(_task("shipped", shipped))
    # 44 tasks per round: the median falls in the middle of the small class and
    # the 90th percentile in the middle of the heavy class, not on the edge
    # between two classes
    specs = [(kind, degrees, cap) for kind, members in WEDGES.items()
             for degrees, cap, count in members for _ in range(count)]
    for i, (kind, degrees, cap) in enumerate(specs):
        order = rng.sample(degrees, len(degrees))
        names = rng.sample(["a", "b", "c", "x", "y", "z", "u", "v", "w"], len(order))
        path = os.path.join(ctx.tmpdir, f"wedge-{r}-{i}.dgc")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"object wedge{r}{i}\nkind dgc\n")
            fh.writelines(f"gen {n} {d}\n" for n, d in zip(names, order))
        want = oracles.wedge_homotopy(degrees, cap)
        argv = ["homotopy", path, "--truncate", str(cap), "--format", "json"]

        def wedge(argv=argv, want=want):
            code, out = run_cli(ctx, argv)
            _expect("exit code", code, 0)
            _expect(f"homotopy of {argv[1]}", json.loads(out)["homotopy"], want)

        tasks.append(_task(kind, wedge))
    rng.shuffle(tasks)
    return tasks


# -- calculus-towers ----------------------------------------------------------------


def _layers_task(n: int, label: str, coalgebra: Callable[[], object], cap: int) -> Task:
    def layers():
        _, _, report = calculus.taylor_layers_cobar(coalgebra(), n, cap)
        _expect(f"layer/derivative match at n={n}", {k: v["match"] for k, v in report.items()},
                {k: True for k in range(1, n + 1)})

    return _task(f"layers-{n}:{label}", layers)


# Trivial coalgebras on two classes in distinct degrees, per n: at n = 4 these
# cost about the same, while two classes in one degree cost three times as
# much.  At n = 3 the pair (2, 3) costs twice the others, so it is left out.
SPHERE_PAIRS = {2: ((2, 3), (2, 4), (3, 4)) * 2, 3: ((2, 4), (3, 4)) * 4, 4: ((2, 3), (2, 4), (3, 4)) * 2}
COFREE_DEGREES = {2: (2, 3, 4), 3: (2, 3, 4), 4: (3, 4)}


def calculus_round(rng: Random, ctx: Context, r: int) -> list[Task]:
    """50 tasks at fixed sizes; the seed draws names, bases and task order.

    The median falls in the middle of the eight trivial n = 3 layers, and the
    90th percentile among the six trivial n = 4 layers, below the two n = 6
    cube totals and lie_n(5).
    """
    tasks = []
    for n, pairs in SPHERE_PAIRS.items():
        for low, high in pairs:
            a, b = rng.sample(("a", "b", "u", "v", "x", "y"), 2)
            v = DG({low: (a,), high: (b,)})
            tasks.append(_layers_task(n, f"trivial-{low}{high}", lambda v=v: dgc.trivial_dgc(v), 6))
        for d in COFREE_DEGREES[n]:
            name = rng.choice(("v", "w", "z"))
            tasks.append(_layers_task(n, f"cofree-{d}", lambda d=d, name=name: dgc.cofree_lambda(DG({d: (name,)}), 6), 6))
    for n in (3, 4, 5):
        def lie(n=n):
            _expect(f"dim Lie({n})", calculus.lie_n(n).rep.underlying.dim(0), oracles.lie_dim(n))

        tasks.append(_task(f"lie:{n}", lie))
    for d in (2, 3):
        for n in (2, 3):
            def jet(d=d, n=n):
                tower, _, _ = calculus.taylor_layers_cobar(dgc.cofree_lambda(DG({d: ("v",)}), 7), n, 7)
                _expect("jet_validate", calculus.jet_validate(calculus.jet_extract(tower)), [])

            tasks.append(_task(f"jet:{d}-{n}", jet))
    # a sphere in degree 1 and a disk from degree 3 to 2, in a random basis
    x = layout_dg(rng, [("s", 1), ("d", 3)], prefix=rng.choice("xyz"))
    for n in (3, 4, 5, 6):
        def cross(n=n):
            cr = calculus.cross_effect(calculus.IdentityFunctor(), n, [x.dg] * n)
            _expect(f"symmetric action of cr_{n}", cr.validate(), [])
            # the identity functor is linear: its cross effects of order >= 2 vanish
            _expect(f"homology of cr_{n} Id", dgcore.homology_dims(cr.underlying), {})

        tasks.append(_task(f"cross-effect:{n}", cross))
    for n in (1, 2, 3):
        def tn(n=n):
            _, m = calculus.t_n(calculus.IdentityFunctor(), n, x.dg)
            _expect(f"Id -> T_{n} Id is a quasi-iso", dgcore.is_quasi_iso(m), True)

        tasks.append(_task(f"t_n:{n}", tn))
    for n in (3, 4, 5, 6):
        # test_cube(n, x) is strongly cocartesian: the holim over nonempty subsets
        # is x again, and the hocolim of the punctured cube is x * [n], whose
        # homology is (n - 1) copies of H(x) shifted up by one.
        expected = {"limit": x.homology, "colimit": oracles.shift(x.homology, 1, n - 1)}
        for mode, want in expected.items():
            def cube(n=n, mode=mode, want=want):
                total = dgcore.ho_cube(mode, calculus.test_cube(n, x.dg), cap=n + 2)
                _expect(f"homology of the {mode} total at n={n}", dgcore.homology_dims(total), want)

            tasks.append(_task(f"cube:{n}-{mode}", cube))
    rng.shuffle(tasks)
    return tasks


# -- validate-sweep -----------------------------------------------------------------


def _sweep_step(shape: Random, rng: Random, i: int) -> list[Task]:
    """One step of the randomized sign sweep, split into tasks by construction.

    `shape` draws the sizes (which spheres and disks, which bridge
    generators) and `rng` everything else (bases, chain maps, coefficients).
    """
    def dg(lo, hi, most=4, prefix="x"):
        return layout_dg(rng, random_pieces(shape, lo, hi, most), prefix)

    v, w = dg(0, 3), dg(0, 3)
    c = dg(0, 2)
    to_c = (random_chain_map(rng, v, c), random_chain_map(rng, w, c))
    from_c = (random_chain_map(rng, c, v), random_chain_map(rng, c, w))
    n = (2, 2, 3, 3, 4)[i % 5]
    x = dg(1, 3, 1)
    la, lb = dg(1, 3).dg, dg(1, 3).dg
    ca = dg(1, 3).dg
    # a commuting square U -s-> W -f-> X, U -t-> V -g-> X with t = k s and f = g k
    u, sq_w, sq_v, sq_x = (dg(0, 3, prefix=p) for p in "uwvx")
    s, k, g = random_chain_map(rng, u, sq_w), random_chain_map(rng, sq_w, sq_v), random_chain_map(rng, sq_v, sq_x)

    def tensor():
        t = dgcore.tensor_dg(v.dg, w.dg)
        _expect("validate_dg(tensor)", dgcore.validate_dg(t), [])
        _expect("Kunneth", dgcore.homology_dims(t), oracles.kunneth(v.homology, w.homology))

    def cells():
        cone, paths = dgcore.cone_dg(v.dg)[0], dgcore.paths_dg(v.dg)[0]
        for name, obj in (("cone", cone), ("paths", paths), ("suspension", dgcore.big_suspension(v.dg)[0]),
                          ("loops", dgcore.big_loops(v.dg)[0])):
            _expect(f"validate_dg({name})", dgcore.validate_dg(obj), [])
        _expect("cone is contractible", dgcore.homology_dims(cone), {})
        _expect("paths are contractible", dgcore.homology_dims(paths), {})

    def square(mode, maps):
        def run():
            p, wit = dgcore.ho_square(mode, *maps)
            _expect(f"validate_dg({mode})", dgcore.validate_dg(p), [])
            _expect(f"validate_dg({mode} witness)", dgcore.validate_dg(wit), [])
        return run

    def cube():
        cu = calculus.test_cube(n, x.dg)
        for mode in ("limit", "colimit"):
            _expect(f"validate_dg({mode} total)", dgcore.validate_dg(dgcore.ho_cube(mode, cu, cap=n + 2)), [])

    def dgl_pullback():
        a, b = dgl.abelian_dgl(la), dgl.abelian_dgl(lb)
        p = dgl.dgl_ho_pullback(dgl.zero_dgl_map(a, b), dgl.identity_dgl_map(b))[0]
        _expect("dgl_validate(pullback)", dgl.dgl_validate(p), [])

    def dgc_pushout():
        cc = dgc.trivial_dgc(ca)
        p = dgc.dgc_ho_pushout(dgc.identity_dgc_map(cc), dgc.identity_dgc_map(cc))[0]
        _expect("dgc_validate(pushout)", dgc.dgc_validate(p), [])

    def bicartesian():
        t, f = dgcore.compose(k, s), dgcore.compose(g, k)
        cart, cocart = dgcore.is_bicartesian(s, t, f, g)
        _expect("cartesian == cocartesian", cart, cocart)

    tasks = [_task("sweep:tensor", tensor), _task("sweep:cells", cells),
             _task("sweep:pullback", square("pullback", to_c)), _task("sweep:pushout", square("pushout", from_c)),
             _task("sweep:cube", cube), _task("sweep:dgl", dgl_pullback), _task("sweep:dgc", dgc_pushout),
             _task("sweep:bicartesian", bicartesian)]
    if i % 10 == 0:
        # the bridge functors are heavier: sampled at a tenth of the rate
        degs = [shape.randint(1, 3) for _ in range(shape.randint(1, 2))]
        cogens = dg(2, 4, 2).dg

        def bridge():
            free = dgl.FreeDGL(dgl.free_lie_basis([(f"x{j}", d) for j, d in enumerate(degs)], 5), {})
            _expect("dgc_validate(cec_C)", dgc.dgc_validate(quillen.cec_C(free, 6)), [])
            _expect("dgl_validate(cobar_L)", dgl.dgl_validate(quillen.cobar_L(dgc.cofree_lambda(cogens, 5), 4)), [])

        tasks.append(_task("bridge", bridge))
    return tasks


SWEEP_STEPS = 10


def sweep_round(rng: Random, ctx: Context, r: int) -> list[Task]:
    # the sizes of round r are the same for every seed, so seeds differ in
    # presentation only and every seed measures the same work
    shape = Random(f"validate-sweep/sizes/{r}")
    tasks = []
    for i in range(SWEEP_STEPS):
        tasks.extend(_sweep_step(shape, rng, i))
    return tasks


@dataclass(frozen=True)
class Workload:
    make_round: Callable[[Random, Context, int], list[Task]]
    pool: int  # distinct rounds generated in set-up; a long run cycles through them
    trace_rounds: int  # rounds of the traced pass, fixed so that its counters repeat


WORKLOADS = {
    "cli-homotopy": Workload(cli_round, pool=8, trace_rounds=2),
    "calculus-towers": Workload(calculus_round, pool=8, trace_rounds=2),
    "validate-sweep": Workload(sweep_round, pool=24, trace_rounds=12),
}


def build_pool(name: str, seed: int, ctx: Context, rounds: Optional[int] = None) -> list[list[Task]]:
    w = WORKLOADS[name]
    return [w.make_round(Random(f"{name}/{seed}/{r}"), ctx, r) for r in range(rounds or w.pool)]
