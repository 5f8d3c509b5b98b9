"""End-to-end acceptance battery: randomized sign integrity, sphere
reproduction, Hurewicz flags, square stability, Lie dimensions and layers,
counit and linearizations, calculus sanity, Snaith splitting, jet
round-trips, and byte-level determinism."""

import io
import itertools
import math
import random
import time
from contextlib import redirect_stdout

import pytest

from rht.calculus import (
    IdentityFunctor,
    TensorPowerFunctor,
    _left_normed_expand,
    cross_effect,
    jet_extract,
    jet_validate,
    lie_n,
    p_n_stabilize,
    t_n,
    taylor_layers_cobar,
    test_cube as make_test_cube,
)
from rht.cli import main as cli_main
from rht.dgc import (
    cofree_lambda,
    dgc_ho_pushout,
    dgc_validate,
    identity_dgc_map,
    to_dgc,
    trivial_dgc,
)
from rht.dgcore import (
    DG,
    DGMap,
    assert_valid,
    big_loops,
    big_suspension,
    cone_dg,
    compose,
    homology_dims,
    ho_cube,
    ho_pullback,
    ho_square,
    identity_map,
    is_bicartesian,
    is_quasi_iso,
    paths_dg,
    reduce_dg,
    shift,
    sum_many,
    telescope,
    tensor_dg,
    validate_dg,
)
from rht.dgl import (
    FreeDGL,
    FreeDGLMap,
    abelian_dgl,
    dgl_ho_pullback,
    dgl_validate,
    free_lie_basis,
    hurewicz_check,
    identity_dgl_map,
    to_dgl,
    zero_dgl_map,
)
from rht.exactq import ONE, QMatrix, rank, rat
from rht.quillen import (
    cec_C,
    cobar_L,
    counit_eps,
    linearize_equiv,
    rational_homology,
    rational_homotopy,
    snaith,
    sphere_model,
)
from rht.randgen import random_chain_map, random_commuting_square, random_dg
from conftest import at_level, perturbed


# -- 1. sign integrity ---------------------------------------------------------------


def test_sign_integrity_randomized_sweep():
    rng = random.Random(20260823)
    start = time.time()
    n_each = 500
    for i in range(n_each):
        v, w = random_dg(rng, 0, 3), random_dg(rng, 0, 3)
        assert validate_dg(tensor_dg(v, w)) == []
        for cell in (cone_dg(v)[0], paths_dg(v)[0], big_suspension(v)[0], big_loops(v)[0]):
            assert validate_dg(cell) == []
        c = random_dg(rng, 0, 2)
        p, wit = ho_square("pullback", random_chain_map(rng, v, c), random_chain_map(rng, w, c))
        assert validate_dg(p) == [] and validate_dg(wit) == []
        q, wit = ho_square("pushout", random_chain_map(rng, c, v), random_chain_map(rng, c, w))
        assert validate_dg(q) == [] and validate_dg(wit) == []
        n = (2, 2, 3, 3, 4)[i % 5]
        cu = make_test_cube(n, random_dg(rng, 1, 3, 1))
        assert validate_dg(ho_cube("limit", cu, cap=n + 2)) == []
        assert validate_dg(ho_cube("colimit", cu, cap=n + 2)) == []
        a, b = abelian_dgl(random_dg(rng, 1, 3)), abelian_dgl(random_dg(rng, 1, 3))
        assert dgl_validate(dgl_ho_pullback(zero_dgl_map(a, b), identity_dgl_map(b))[0]) == []
        ca = trivial_dgc(random_dg(rng, 1, 3))
        assert dgc_validate(dgc_ho_pushout(identity_dgc_map(ca), identity_dgc_map(ca))[0]) == []
        if i % 10 == 0:
            # the bridge functors are heavier: sampled at a tenth of the rate
            degs = [rng.randint(1, 3) for _ in range(rng.randint(1, 2))]
            l = FreeDGL(free_lie_basis([(f"x{j}", d) for j, d in enumerate(degs)], 5), {})
            assert dgc_validate(cec_C(l, 6)) == []
            u = random_dg(rng, 2, 4, 2)
            if not u.is_trivial():
                assert dgl_validate(cobar_L(cofree_lambda(u, 5), 4)) == []
    assert time.time() - start < 120


# -- 2. spheres ----------------------------------------------------------------------


def test_sphere_reproduction_through_cap_16():
    start = time.time()
    for n in range(2, 7):
        c = sphere_model(n)
        pi = rational_homotopy(c, 16)
        want = {n: 1} if n % 2 else {n: 1, 2 * n - 1: 1}
        assert pi == want
        lc = cobar_L(c, 16)
        h = rational_homology(lc, 16)
        assert {k: v for k, v in h.items() if k <= n} == {0: 1, n: 1}
    assert time.time() - start < 30


# -- 3. Hurewicz ---------------------------------------------------------------------


def random_free_map(rng, cap=10):
    ngens = rng.randint(1, 2)
    degs = [rng.randint(1, 4) for _ in range(ngens)]
    l1 = FreeDGL(free_lie_basis([(f"x{i}", d) for i, d in enumerate(degs)], cap), {})
    b2 = free_lie_basis([(f"y{i}", d) for i, d in enumerate(degs)], cap)
    l2 = FreeDGL(b2, {})
    images = {}
    for i, d in enumerate(degs):
        poly = {(j,): rat(rng.randint(-2, 2)) for j, dj in enumerate(degs) if dj == d}
        pairs = [(j, k) for j in range(ngens) for k in range(ngens)
                 if degs[j] + degs[k] == d]
        if pairs and rng.random() < 0.5:
            j, k = pairs[0]
            br = b2.bracket_poly({(j,): ONE}, {(k,): ONE})
            c = rat(rng.randint(-1, 1))
            for w, val in br.items():
                poly[w] = poly.get(w, rat(0)) + c * val
        images[i] = {k: v for k, v in poly.items() if v}
    return FreeDGLMap(l1, l2, images)


def test_hurewicz_flags_agree_on_random_free_maps():
    rng = random.Random(77)
    start = time.time()
    for _ in range(100):
        q, abq = hurewicz_check(random_free_map(rng))
        assert q == abq
    assert time.time() - start < 60


def test_hurewicz_flags_diverge_on_the_non_free_example():
    from rht.dgl import DGL, DGLMap, abelianize_dgl

    dg = DG({1: ("v",), 2: ("u",), 3: ("w",)}, {3: QMatrix(1, 1, {(0, 0): ONE})})
    l = DGL(dg, {(1, 0, 1, 0): (ONE,)})
    ab, proj = abelianize_dgl(l)
    assert hurewicz_check(DGLMap(l, abelian_dgl(ab), proj)) == (False, True)


# -- 4. stability of DG --------------------------------------------------------------


def test_bicartesian_flags_agree_on_random_squares():
    rng = random.Random(4444)
    for _ in range(200):
        s, t, f, g = random_commuting_square(rng, 0, 3)
        cart, cocart = is_bicartesian(s, t, f, g)
        assert cart == cocart


def grid_rows(rng, m):
    """Cospan towers A -f-> C <-g- B with constant A, B rows: the horizontal
    C-maps push the legs forward, so every square commutes by construction."""
    a, b = random_dg(rng, 1, 3), random_dg(rng, 1, 3)
    cs = [random_dg(rng, 1, 3) for _ in range(m)]
    cmaps = [random_chain_map(rng, cs[i], cs[i + 1]) for i in range(m - 1)]
    fs, gs = [random_chain_map(rng, a, cs[0])], [random_chain_map(rng, b, cs[0])]
    for h in cmaps:
        fs.append(compose(h, fs[-1]))
        gs.append(compose(h, gs[-1]))
    return a, b, cs, cmaps, fs, gs


def _induced_pullback_map(p_src, p_tgt, a, b, f_src, c_map):
    """diag(id_A, s^-1 c, id_B) between consecutive path models."""
    u, v = a, f_src.target
    blocks = {}
    for k in p_src.degrees():
        ent = {}
        for j in range(u.dim(k)):
            ent[(j, j)] = ONE
        cb = c_map.block(k + 1)
        for (r, c), val in cb.entries.items():
            ent[(u.dim(k) + r, u.dim(k) + c)] = val
        boff_s = u.dim(k) + v.dim(k + 1)
        boff_t = u.dim(k) + c_map.target.dim(k + 1)
        for j in range(b.dim(k)):
            ent[(boff_t + j, boff_s + j)] = ONE
        blocks[k] = QMatrix(p_tgt.dim(k), p_src.dim(k), ent)
    m = DGMap(p_src, p_tgt, blocks)
    assert_valid(m, "induced pullback map")
    return m


def test_telescope_commutes_with_pullback_on_grids():
    rng = random.Random(321)
    for _ in range(4):
        m = 3
        a, b, cs, cmaps, fs, gs = grid_rows(rng, m)
        pulls = [ho_pullback(fs[i], gs[i])[0] for i in range(m)]
        pmaps = [
            _induced_pullback_map(pulls[i], pulls[i + 1], a, b, fs[i], cmaps[i])
            for i in range(m - 1)
        ]
        tel_p, _ = telescope(pmaps)
        tel_c, _ = telescope(cmaps)
        # legs into the telescoped cospan: include through the last column
        fF = _tel_leg(a, cs, cmaps, fs, tel_c)
        gG = _tel_leg(b, cs, cmaps, gs, tel_c)
        other = ho_pullback(fF, gG)[0]
        assert homology_dims(tel_p) == homology_dims(other)


def _tel_leg(src, cs, cmaps, legs, tel_c):
    # constant-row telescope collapses to the row; the leg lands on the
    # last column's strand of the C-telescope
    blocks = {}
    last = legs[-1]
    for k in src.degrees():
        ent = {}
        strand_off = sum(c.dim(k) for c in cs[:-1]) + sum(
            shift(c, 1).dim(k) for c in cs[:-1]
        )
        lb = last.block(k)
        for (r, c), val in lb.entries.items():
            ent[(strand_off + r, c)] = val
        blocks[k] = QMatrix(tel_c.dim(k), src.dim(k), ent)
    m = DGMap(src, tel_c, blocks)
    assert_valid(m, "leg into telescope")
    return m


# -- 5. Lie(n) and derivatives -------------------------------------------------------


def left_normed_rank(n):
    """Rank of all n! left-normed bracket words in the tensor algebra."""
    perms = list(itertools.permutations(range(n)))
    pos = {p: i for i, p in enumerate(perms)}
    ent = {}
    for c, sigma in enumerate(perms):
        for word, coeff in _left_normed_expand(list(sigma)).items():
            s = ent.get((pos[word], c), 0) + coeff
            if s:
                ent[(pos[word], c)] = s
            else:
                ent.pop((pos[word], c), None)
    return rank(QMatrix(len(perms), len(perms), ent))


def test_lie_dims_factorial_against_tensor_algebra_oracle():
    start = time.time()
    for n in range(1, 7):
        assert left_normed_rank(n) == math.factorial(n - 1)
        assert lie_n(n).rep.underlying.dim(0) == math.factorial(n - 1)
    assert time.time() - start < 120


def test_layer_dims_match_derivative_formula_on_random_coalgebras():
    rng = random.Random(55)
    start = time.time()
    checked = 0
    while checked < 20:
        if checked % 2:
            v = reduce_dg(2, random_dg(rng, 2, 4, 2))
            if v.is_trivial() or sum(v.dim(k) for k in v.degrees()) > 3:
                continue
            c = trivial_dgc(v)
        else:
            # cofree inputs get a single cogenerating class: the n = 4
            # homogeneous evaluation grows as dim(C)^4
            c = cofree_lambda(DG({rng.randint(2, 4): ("v",)}), 6)
        _, _, report = taylor_layers_cobar(c, 4, 6)
        assert all(report[k]["match"] for k in report), report
        checked += 1
    assert time.time() - start < 120


# -- 6. counit and linearizations ----------------------------------------------------


def test_counit_and_linearizations_on_spheres_and_random_inputs():
    rng = random.Random(66)
    for n in range(2, 7):
        l = FreeDGL(free_lie_basis([("x", n - 1)], 2 * n), {})
        eps, q = counit_eps(l)
        assert q and validate_dg(eps.to_dgmap()) == []
        assert linearize_equiv(l)[1]
        # cofree model of the n-sphere: exterior (n odd) or polynomial (n even)
        assert linearize_equiv(cofree_lambda(DG({n: ("x",)}), 2 * n + 1))[1]
    free_hits = cofree_hits = 0
    while free_hits < 25:
        degs = [rng.randint(2, 4) for _ in range(rng.randint(1, 2))]
        l = FreeDGL(free_lie_basis([(f"x{i}", d) for i, d in enumerate(degs)], 6), {})
        eps, q = counit_eps(l)
        assert q
        assert linearize_equiv(l)[1]
        free_hits += 1
    while cofree_hits < 25:
        v = random_dg(rng, 2, 4, 2)
        if v.is_trivial():
            continue
        assert linearize_equiv(cofree_lambda(v, 6))[1]
        cofree_hits += 1


# -- 7. calculus sanity --------------------------------------------------------------


def test_calculus_sanity_battery():
    x = DG({2: ("a",), 3: ("b",)})
    f = TensorPowerFunctor(2)
    cr1 = cross_effect(f, 1, [x])
    assert homology_dims(cr1.underlying) == homology_dims(f.apply(x))
    cr2 = cross_effect(IdentityFunctor(), 2, [x, x])
    assert homology_dims(cr2.underlying) == {}
    _, cmp_map = t_n(IdentityFunctor(), 1, x)
    assert is_quasi_iso(cmp_map)
    res = p_n_stabilize(f, 1, DG({5: ("e",)}), window=(0, 10), max_iter=12)
    assert res.converged and res.iterations <= 12
    h = homology_dims(res.value)
    assert {k: n for k, n in h.items() if 0 <= k <= 10} == {}


# -- 8. Snaith splitting -------------------------------------------------------------


def symmetric_dims_oracle(degrees, cap):
    poly = {0: 1}
    for d in degrees:
        if d % 2:
            out = dict(poly)
            for k, c in poly.items():
                if k + d <= cap:
                    out[k + d] = out.get(k + d, 0) + c
        else:
            out = {}
            for k, c in poly.items():
                j = k
                while j <= cap:
                    out[j] = out.get(j, 0) + c
                    j += d
        poly = out
    return {k: c for k, c in poly.items() if k and c}


def test_snaith_on_random_inputs():
    rng = random.Random(88)
    cap = 7
    for _ in range(50):
        v = random_dg(rng, 1, 5, 3)
        hred = homology_dims(reduce_dg(2, v))
        degs = [k for k, n in sorted(hred.items()) for _ in range(n)]
        want = {k: n for k, n in symmetric_dims_oracle(degs, cap).items() if k < cap}
        got = homology_dims(snaith(v, cap))
        assert {k: n for k, n in got.items() if k < cap} == want


# -- 9. jet round-trip ---------------------------------------------------------------


def assemble(tower):
    """Direct sum of the layers with the triangular block differential."""
    layers = tower.layers
    total, _ = sum_many(layers, tags=[f"L{i+1}" for i in range(len(layers))])
    diff = {}
    degs = sorted(set(total.basis) | {k + 1 for k in total.basis})
    for k in degs:
        if not total.dim(k) or not total.dim(k - 1):
            continue
        roffs = list(itertools.accumulate((l.dim(k - 1) for l in layers), initial=0))
        coffs = list(itertools.accumulate((l.dim(k) for l in layers), initial=0))
        # d_ij carries layer j in degree k into layer i in degree k-1
        ent = {}
        for (i, j), blocks in tower.blocks.items():
            if k in blocks:
                for (r, c), val in blocks[k].entries.items():
                    ent[(roffs[i - 1] + r, coffs[j - 1] + c)] = val
        if ent:
            diff[k] = QMatrix(total.dim(k - 1), total.dim(k), ent)
    return DG(total.basis, diff)


def test_jet_round_trip_reproduces_the_tower():
    for c, n, cap in (
        (sphere_model(2), 3, 8),
        (cofree_lambda(DG({2: ("v",)}), 8), 3, 7),
        (cofree_lambda(DG({2: ("a",), 3: ("b",)}, {3: QMatrix(1, 1, {(0, 0): ONE})}), 7), 2, 6),
    ):
        tower, _, _ = taylor_layers_cobar(c, n, cap)
        assert jet_extract(tower) is tower
        assert jet_validate(tower) == []
        back = assemble(tower)
        assert validate_dg(back) == []
        top = tower.objects[-1]
        assert {k: back.dim(k) for k in back.degrees()} == {
            k: top.dim(k) for k in top.degrees()
        }
        assert homology_dims(back) == homology_dims(top)


def test_jet_validate_catches_single_entry_perturbations():
    v = DG({2: ("a",), 3: ("b",)}, {3: QMatrix(1, 1, {(0, 0): ONE})})
    tower, _, _ = taylor_layers_cobar(cofree_lambda(v, 7), 2, 6)
    assert jet_validate(tower) == []
    # one more entry in block d_21 at degree 3, at its (0, 0)
    bad = perturbed(tower, 3, {(at_level(tower, 2, 2, 0), at_level(tower, 3, 1, 0)): ONE})
    assert jet_validate(bad) != []


# -- 10. determinism -----------------------------------------------------------------


def cli_bytes(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        status = cli_main(argv)
    return status, buf.getvalue()


def test_cli_commands_are_byte_identical_across_runs():
    commands = [
        ["homology", "models/twocell.dg", "--window", "0:4"],
        ["homotopy", "models/s3.dgc", "--truncate", "8"],
        ["homotopy", "models/s4.dgc", "--truncate", "9", "--format", "json"],
        ["model", "-t", "L", "models/polynomial.dgc", "--truncate", "6"],
        ["model", "-t", "C", "models/hurewicz-counterexample.dgl", "--truncate", "7"],
        ["tower", "-n", "2", "models/s3.dgc", "--truncate", "8"],
        ["layers", "-n", "2", "models/polynomial.dgc", "--truncate", "7"],
        ["crosseffect", "-n", "2", "models/twocell.dg", "--window", "0:5"],
        ["jet", "-n", "2", "models/polynomial.dgc", "--truncate", "7"],
        ["verify", "models/hurewicz-counterexample.dgl"],
    ]
    for argv in commands:
        first, second = cli_bytes(argv), cli_bytes(argv)
        assert first == second
        assert first[0] == 0


def test_library_constructions_are_deterministic():
    c = sphere_model(3)
    assert cobar_L(c, 8) == cobar_L(c, 8)
    a, b = taylor_layers_cobar(c, 3, 8), taylor_layers_cobar(c, 3, 8)
    assert a[0].objects == b[0].objects and a[2] == b[2]
    l = FreeDGL(free_lie_basis([("x", 2)], 8), {})
    assert cec_C(l, 9) == cec_C(l, 9)
    assert to_dgc(cec_C(l, 9)).underlying == to_dgc(cec_C(l, 9)).underlying
