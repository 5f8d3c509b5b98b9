"""Chain-level oracles for the DG layer: cells, homotopy (co)limit models,
cubes, telescopes, and symmetric group actions.  Homology expectations are
computed independently (by hand or by counting) before being asserted.
"""

import re
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rht.dgcore import (
    BiDG,
    Cube,
    DG,
    DGMap,
    ONE_DG,
    ZERO_DG,
    SymmetricDG,
    big_loops,
    big_suspension,
    chain_map_space,
    compose,
    cone_dg,
    cube_bidg,
    homology,
    homology_dims,
    ho_cube,
    ho_cofiber,
    ho_fiber,
    ho_square,
    identity_map,
    is_bicartesian,
    is_contractible,
    is_quasi_iso,
    is_quasi_iso_through,
    map_scale,
    paths_dg,
    quotient_dg,
    reduce_dg,
    shift,
    strict_pullback,
    strict_pushout,
    sub_dg,
    sum_dg,
    sum_many,
    sym_invariants,
    sym_orbits,
    telescope,
    tensor_dg,
    truncate,
    validate_dg,
    zero_map,
)
from rht.dgcore import _cube_sum, _degree_positions, _out_of_suspension, _tensor_with_index, map_add, projection, tot
from rht.dgcore import _commutes_by_conjugation, _incl_sign, _places, _subset_tag
from rht.calculus import IdentityFunctor, LambdaFunctor, _collapse_last, _power_with_swaps, cross_effect, lie_n, tensor_map
from rht.calculus import CoefficientFunctor, TensorPowerFunctor, TnFunctor, _coproduct_cube, t_n, thcof_total, thfib_total
from rht.calculus import _cofiber_square_map, _fiber_square_map, test_cube as _test_cube, thcof, thfib
from rht.exactq import ONE, ZERO, QMatrix, _negated, _signed_array, image_pivot_columns, kernel_basis, rank, rat, solve_matrix
from rht.randgen import random_chain_map, random_commuting_square, random_dg


def two_term(k: int = 2) -> DG:
    """(Q v_k + Q v_{k-1}, d v_k = v_{k-1}): acyclic."""
    return DG(
        {k: ("v",), k - 1: ("w",)},
        {k: QMatrix.from_rows([[1]])},
    )


def sphere(k: int) -> DG:
    return DG({k: (f"e{k}",)})


# -- validation ----------------------------------------------------------------


def test_validate_one_dg():
    assert validate_dg(ONE_DG) == []


def test_validate_detects_broken_d_squared():
    bad = DG.__new__(DG)
    object.__setattr__(bad, "basis", {2: ("a",), 1: ("b",), 0: ("c",)})
    object.__setattr__(
        bad,
        "diff",
        {2: QMatrix.from_rows([[1]]), 1: QMatrix.from_rows([[1]])},
    )
    rep = validate_dg(bad)
    assert rep and "d^2" in rep[0]


def test_validate_map():
    v = two_term()
    f = DGMap(v, v, {2: QMatrix.from_rows([[1]])})  # misses degree 1: not a chain map
    assert validate_dg(f)
    assert validate_dg(identity_map(v)) == []


@pytest.mark.parametrize("seed", range(6))
def test_a_second_validate_dg_of_a_map_returns_the_same_report(seed):
    rng = Random(seed)
    v, w = random_dg(rng, 0, 3, 5), random_dg(rng, 0, 3, 5, prefix="w")
    good = random_chain_map(rng, v, w)
    t = two_term()
    broken = DGMap(t, t, {2: QMatrix.from_rows([[rng.randint(1, 3)]])})  # misses degree 1
    for f in (good, broken):
        first = validate_dg(f)
        fresh = validate_dg(DGMap(f.source, f.target, f.blocks))
        first.append("a line of the caller's own")  # the kept report is not the caller's list
        assert validate_dg(f) == first[:-1] == fresh
    assert validate_dg(good) == [] and validate_dg(broken) != []


# -- homology ------------------------------------------------------------------


def test_homology_zero_differential():
    v = DG({0: ("a", "b"), 3: ("c",)})
    dims, reps = homology(v)
    assert dims == {0: 2, 3: 1}
    assert reps[0] == [(ONE, rat(0)), (rat(0), ONE)]


def test_homology_two_term_acyclic():
    assert homology_dims(two_term()) == {}


def test_cone_contractible_random():
    rng = Random(7)
    for _ in range(20):
        v = random_dg(rng, -2, 4)
        cone, incl = cone_dg(v)
        assert validate_dg(cone) == []
        assert validate_dg(incl) == []
        assert is_contractible(cone)


def test_paths_contractible_random():
    rng = Random(8)
    for _ in range(20):
        v = random_dg(rng, -2, 4)
        p, proj = paths_dg(v)
        assert validate_dg(p) == []
        assert validate_dg(proj) == []
        assert is_contractible(p)


# -- quasi-isomorphisms -----------------------------------------------------------


def test_quasi_iso_identity_and_zero():
    v = DG({0: ("a",), 1: ("b",)})
    assert is_quasi_iso(identity_map(v))
    assert not is_quasi_iso(zero_map(v, ZERO_DG))
    assert is_quasi_iso(zero_map(two_term(), ZERO_DG))


def test_big_suspension_projections_quasi_iso():
    rng = Random(9)
    for _ in range(10):
        v = random_dg(rng, 0, 3)
        big, p1, p2 = big_suspension(v)
        assert validate_dg(big) == []
        assert validate_dg(p1) == [] and validate_dg(p2) == []
        assert is_quasi_iso(p1) and is_quasi_iso(p2)


def test_big_loops_injections_quasi_iso():
    rng = Random(10)
    for _ in range(10):
        v = random_dg(rng, 0, 3)
        big, i1, i2 = big_loops(v)
        assert validate_dg(big) == []
        assert validate_dg(i1) == [] and validate_dg(i2) == []
        assert is_quasi_iso(i1) and is_quasi_iso(i2)


# -- one-pass homology against the earlier three-reduction algorithm ----------------


def extend_to_basis(spanning: QMatrix, candidates: QMatrix) -> list[int]:
    """Columns of candidates completing the column space of spanning to span
    both; candidate column indices, deterministic (leftmost)."""
    pivots = image_pivot_columns(QMatrix.hstack([spanning, candidates]))
    return [p - spanning.cols for p in pivots if p >= spanning.cols]


def _three_reduction_homology(v: DG):
    """Cycles from ker d_k, a basis of the boundaries from the pivots of d_{k+1},
    then the cycles that extend the boundaries to a basis of both."""
    dims, reps = {}, {}
    for k in v.degrees():
        n = v.dim(k)
        cycles = kernel_basis(v.d(k))
        dkp1 = v.d(k + 1)
        bmat = QMatrix.from_columns([dkp1.column(j) for j in image_pivot_columns(dkp1)], n)
        chosen = extend_to_basis(bmat, cycles)
        if chosen:
            dims[k] = len(chosen)
            reps[k] = [cycles.column(i) for i in chosen]
    return dims, reps


def _three_reduction_quasi_iso(f: DGMap, top=None) -> bool:
    hv, rv = _three_reduction_homology(f.source)
    hw, _ = _three_reduction_homology(f.target)
    if top is not None:
        hv = {k: d for k, d in hv.items() if k <= top}
        hw = {k: d for k, d in hw.items() if k <= top}
        rv = {k: r for k, r in rv.items() if k <= top}
    if hv != hw:
        return False
    for k, reps in rv.items():
        n = f.target.dim(k)
        dkp1 = f.target.d(k + 1)
        bmat = QMatrix.from_columns([dkp1.column(j) for j in image_pivot_columns(dkp1)], n)
        images = QMatrix.from_columns([f.apply(k, z) for z in reps], n)
        if rank(QMatrix.hstack([bmat, images])) != bmat.cols + len(reps):
            return False
    return True


# spheres plus disks under a random change of basis per degree
random_dgs = st.builds(
    lambda seed, lo, width, pieces: random_dg(Random(seed), lo, lo + width, pieces),
    st.integers(0, 2**32 - 1), st.integers(-1, 2), st.integers(0, 3), st.integers(1, 9),
)


@settings(max_examples=150, deadline=None)
@given(random_dgs)
def test_homology_matches_the_three_reduction_algorithm(v):
    dims, reps = homology(v)
    assert (dims, reps) == _three_reduction_homology(v)
    assert homology_dims(v) == dims
    assert is_contractible(v) == (not dims)


def _rank_per_degree_dims(v: DG) -> dict[int, int]:
    """dim V_k - rank d_k - rank d_{k+1}, each rank on the whole matrix."""
    dims = {k: v.dim(k) - rank(v.d(k)) - rank(v.d(k + 1)) for k in v.degrees()}
    return {k: h for k, h in dims.items() if h}


@settings(max_examples=150, deadline=None)
@given(random_dgs)
def test_homology_dims_on_kernel_coordinates_match_the_rank_per_degree_formula(v):
    assert homology_dims(v) == _rank_per_degree_dims(v)


@pytest.mark.parametrize("n", range(6))
@pytest.mark.parametrize("mode", ["limit", "colimit"])
def test_homology_dims_of_test_cube_totals_match_the_rank_per_degree_formula(n, mode):
    x = DG({1: ("a",), 2: ("b", "c")}, {2: QMatrix.from_rows([[1, -1]])})
    total = ho_cube(mode, _test_cube(n, x))
    assert homology_dims(total) == _rank_per_degree_dims(total)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans(), st.integers(-1, 3))
def test_is_quasi_iso_matches_the_three_reduction_test(seed, same_target, top):
    rng = Random(seed)
    v = random_dg(rng, 0, 2, 5)
    w = v if same_target else random_dg(rng, 0, 2, 5, prefix="w")
    # a self-map always matches homology dims; the zero map is no quasi-iso unless H = 0
    maps = [random_chain_map(rng, v, w), zero_map(v, w)] + ([identity_map(v)] if same_target else [])
    for f in maps:
        assert is_quasi_iso(f) == _three_reduction_quasi_iso(f)
        assert is_quasi_iso_through(f, top) == _three_reduction_quasi_iso(f, top)


@pytest.mark.parametrize(
    "source, target, through_2",
    [
        # H_2(f) onto but not one-to-one
        (DG({2: ("a", "b")}), DG({2: ("c",)}), False),
        # H_2(f) an isomorphism, H_3(f) not onto
        (DG({2: ("a",)}), DG({2: ("c",), 3: ("e",)}), True),
    ],
)
def test_quasi_iso_through_the_top_degree_reads_the_top_dims(source, target, through_2):
    # both cones have homology {3: 1}, so the cone through 2 says True for both
    # and the cone through 3 says False for both
    f = DGMap(source, target, {2: QMatrix.from_rows([[1] + [0] * (source.dim(2) - 1)])})
    assert homology_dims(ho_cofiber(f)) == {3: 1}
    for top, want in ((2, through_2), (1, True)):
        assert is_quasi_iso_through(f, top) == want == _three_reduction_quasi_iso(f, top)
    assert not is_quasi_iso(f) and not _three_reduction_quasi_iso(f)


def test_quotient_that_does_not_span_is_an_internal_error(monkeypatch):
    # an elimination of [K | I] that comes back short of full rank
    monkeypatch.setattr("rht.dgcore.rref_from", lambda m, start: (QMatrix.zero(m.rows, m.cols), []))
    with pytest.raises(AssertionError, match="internal: quotient basis does not span"):
        quotient_dg(DG({0: ("a", "b")}), {0: QMatrix.from_columns([(ONE, ONE)], 2)})


# -- quotients against the two-elimination quotient they replaced ---------------------


def _old_quotient_dg(v, killed, prefix="q"):
    """The earlier quotient_dg: extend_to_basis picks the representatives,
    then a second elimination solves [K | reps] X = I for the projection."""
    reps, proj_blocks, basis = {}, {}, {}
    for k in v.degrees():
        n = v.dim(k)
        kmat = QMatrix.from_columns(killed.get(k, []), n)
        chosen = extend_to_basis(kmat, QMatrix.identity(n))
        reps[k] = chosen
        basis[k] = tuple(f"{prefix}({v.basis[k][j]})" for j in chosen)
        full = QMatrix.hstack([kmat, QMatrix.from_columns([_unit(n, j) for j in chosen], n)])
        sol = solve_matrix(full, QMatrix.identity(n))
        ent = {(r - kmat.cols, c): x for (r, c), x in sol.entries.items() if r >= kmat.cols}
        proj_blocks[k] = QMatrix(len(chosen), n, ent)
    diff = {}
    for k in v.degrees():
        if basis.get(k) and basis.get(k - 1) is not None:
            inc = QMatrix.from_columns([_unit(v.dim(k), j) for j in reps[k]], v.dim(k))
            diff[k] = proj_blocks[k - 1] * (v.d(k) * inc)
    out = DG(basis, diff)
    proj = DGMap(v, out, proj_blocks)
    assert validate_dg(proj) == []
    return out, proj


def _random_killed(rng, v, kind):
    """Killed vectors per degree: none, zero vectors only, or the span of
    random x and d(x), which is d-closed, plus ("redundant") repeats, zero
    vectors and combinations of what is already there."""
    if kind == "empty":
        return {} if rng.random() < 0.5 else {k: [] for k in v.degrees()}
    killed = {k: [] for k in v.degrees()}
    if kind == "zero":
        for k in v.degrees():
            killed[k] = [(ZERO,) * v.dim(k)] * rng.randint(1, 2)
        return killed
    for k in v.degrees():
        for _ in range(rng.randint(0, 2)):
            x = tuple(rat(rng.randint(-2, 2)) for _ in range(v.dim(k)))
            killed[k].append(x)
            if v.dim(k - 1):
                killed[k - 1].append(v.d(k).apply(x))
    if kind == "redundant":
        for k, vs in killed.items():
            extra = [(ZERO,) * v.dim(k)]
            if vs:
                cs = [rat(rng.randint(-2, 2)) for _ in vs]
                extra += [rng.choice(vs), tuple(sum(c * x[i] for c, x in zip(cs, vs)) for i in range(v.dim(k)))]
            vs.extend(extra)
            rng.shuffle(vs)
    return killed


def _as_matrices(v, killed):
    return {k: QMatrix.from_columns(vs, v.dim(k)) for k, vs in killed.items()}


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(-1, 1), st.sampled_from(["empty", "zero", "closed", "redundant"]))
def test_quotient_matches_the_two_elimination_quotient(seed, lo, kind):
    rng = Random(seed)
    v = random_dg(rng, lo, lo + 3, 6)
    killed = _random_killed(rng, v, kind)
    assert _same(quotient_dg(v, _as_matrices(v, killed), prefix="p"), _old_quotient_dg(v, killed, prefix="p"))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 3), st.sampled_from(["trivial", "sign", "lie"]))
def test_orbit_quotients_match_the_two_elimination_quotient(seed, n, coefficient):
    """Orbits of x^(x)n with the Koszul swaps, tensored with a coefficient
    action, as the whole-tensor homogeneous_eval built them."""
    x = random_dg(Random(seed), 0, 2, 3 if n == 2 else 2)
    pw, swaps = _power_with_swaps(x, n)
    coeff = {"trivial": SymmetricDG(ONE_DG, n, [identity_map(ONE_DG)] * (n - 1)),
             "sign": SymmetricDG(ONE_DG, n, [map_scale(-1, identity_map(ONE_DG))] * (n - 1)),
             "lie": lie_n(n).rep}[coefficient]
    sym = SymmetricDG(tensor_dg(coeff.underlying, pw), n, [tensor_map(a, s) for a, s in zip(coeff.action, swaps)])
    u = sym.underlying
    killed = {k: [col for a in sym.action for col in (a.block(k) - QMatrix.identity(u.dim(k))).columns()]
              for k in u.degrees()}
    assert _same(sym_orbits(sym), _old_quotient_dg(u, killed, prefix="orb"))


# -- monoidal ---------------------------------------------------------------------


def test_tensor_unit():
    v = two_term()
    t = tensor_dg(ONE_DG, v)
    assert {k: t.dim(k) for k in t.degrees()} == {2: 1, 1: 1}
    assert homology_dims(t) == homology_dims(v)


def test_s_s_inv_cancel():
    v = DG({0: ("a",), 2: ("b", "c")})
    t = tensor_dg(shift(ONE_DG, 1), shift(ONE_DG, -1))
    assert homology_dims(t) == {0: 1}
    w = shift(shift(v, 1), -1)
    assert {k: w.dim(k) for k in w.degrees()} == {0: 1, 2: 2}


def test_tensor_dim_counting():
    rng = Random(11)
    for _ in range(10):
        a = random_dg(rng, -1, 3)
        b = random_dg(rng, 0, 2)
        t = tensor_dg(a, b)
        assert validate_dg(t) == []
        for n in t.degrees():
            expect = sum(a.dim(i) * b.dim(n - i) for i in a.degrees())
            assert t.dim(n) == expect


def test_homology_shift():
    rng = Random(12)
    v = random_dg(rng, 0, 4)
    hv = homology_dims(v)
    hs = homology_dims(shift(v, 1))
    assert hs == {k + 1: d for k, d in hv.items()}


# -- cells -----------------------------------------------------------------------


def test_cone_of_zero():
    assert cone_dg(ZERO_DG)[0] == ZERO_DG


def test_bigS_bigP_shapes():
    v = sphere(2)
    bigs = big_suspension(v)[0]
    assert {k: bigs.dim(k) for k in bigs.degrees()} == {2: 1, 3: 2}
    assert homology_dims(bigs) == {3: 1}
    bigp = big_loops(v)[0]
    assert {k: bigp.dim(k) for k in bigp.degrees()} == {2: 1, 1: 2}
    assert homology_dims(bigp) == {1: 1}


# -- reduction / truncation --------------------------------------------------------


def test_reduce_preserves_high_homology():
    rng = Random(13)
    for _ in range(15):
        v = random_dg(rng, -2, 4)
        r = rng.randint(-1, 3)
        red = reduce_dg(r, v)
        assert validate_dg(red) == []
        hv = homology_dims(v)
        hr = homology_dims(red)
        assert hr == {k: d for k, d in hv.items() if k >= r}


def test_reduce_idempotent_on_reduced():
    v = DG({1: ("a",), 2: ("b",)})
    assert reduce_dg(1, v) == v


def test_truncate_differs_from_reduce():
    v = two_term(2)  # d: degree 2 -> degree 1
    red = reduce_dg(2, v)
    tru = truncate(2, v)
    assert red.dim(2) == 0  # kernel of d_2 is 0
    assert tru.dim(2) == 1  # quotient keeps the generator
    assert homology_dims(red) == {}
    assert homology_dims(tru) == {2: 1}


# -- homotopy squares -----------------------------------------------------------


def test_pullback_of_zeros_is_loops():
    v = DG({2: ("a",), 1: ("b",)}, {2: QMatrix.from_rows([[3]])})
    pb, e = ho_square("pullback", zero_map(ZERO_DG, v), zero_map(ZERO_DG, v))
    assert {k: pb.dim(k) for k in pb.degrees()} == {1: 1, 0: 1}
    assert validate_dg(pb) == []
    assert homology_dims(pb) == {}


def test_pushout_of_zeros_is_suspension():
    v = sphere(3)
    po, e = ho_square("pushout", zero_map(v, ZERO_DG), zero_map(v, ZERO_DG))
    assert {k: po.dim(k) for k in po.degrees()} == {4: 1}
    assert validate_dg(e) == []


def test_pullback_identity_strands():
    rng = Random(14)
    v = random_dg(rng, 0, 3)
    pb, e = ho_square("pullback", identity_map(v), identity_map(v))
    assert validate_dg(pb) == []
    assert validate_dg(e) == []
    assert homology_dims(pb) == homology_dims(v)


def test_square_models_validate_on_random_input():
    rng = Random(15)
    for _ in range(15):
        mid = random_dg(rng, 0, 3)
        u = random_dg(rng, 0, 3)
        w = random_dg(rng, 0, 3)
        f = random_chain_map(rng, u, mid)
        g = random_chain_map(rng, w, mid)
        pb, e1 = ho_square("pullback", f, g)
        assert validate_dg(pb) == []
        assert validate_dg(e1) == []
        f2 = random_chain_map(rng, mid, u)
        g2 = random_chain_map(rng, mid, w)
        po, e2 = ho_square("pushout", f2, g2)
        assert validate_dg(po) == []
        assert validate_dg(e2) == []


# -- fibers -----------------------------------------------------------------------


def test_hofib_identity_contractible():
    rng = Random(16)
    v = random_dg(rng, 0, 3)
    assert is_contractible(ho_fiber(identity_map(v)))


def test_hofib_to_zero():
    v = two_term()
    fib = ho_fiber(zero_map(v, ZERO_DG))
    assert {k: fib.dim(k) for k in fib.degrees()} == {2: 1, 1: 1}


def test_hocof_from_zero():
    w = sphere(2)
    cof = ho_cofiber(zero_map(ZERO_DG, w))
    assert {k: cof.dim(k) for k in cof.degrees()} == {2: 1}


# -- cubes -----------------------------------------------------------------------


def _constant_cube(n: int, v: DG, subsets) -> Cube:
    objects = {s: v for s in subsets}
    edges = {}
    for s in subsets:
        for el in range(1, n + 1):
            if el not in s:
                t = s | {el}
                if t in objects:
                    edges[(s, t)] = identity_map(v)
    return Cube(n, objects, edges)


def _all_subsets(n: int, kind: str):
    from itertools import combinations

    out = []
    for size in range(n + 1):
        for c in combinations(range(1, n + 1), size):
            s = frozenset(c)
            if kind == "nonempty" and not s:
                continue
            if kind == "proper" and len(s) == n:
                continue
            out.append(s)
    return out


def test_three_cube_of_zeros():
    cube = _constant_cube(3, ZERO_DG, _all_subsets(3, "nonempty"))
    assert ho_cube("limit", cube) == ZERO_DG


def test_cube_sign_grid_matches_displayed_example():
    # three dimensional pullback of one-point objects: the six vertical maps
    # in the first layer carry signs -,-,+,-,+,+ and the second layer +,-,+
    v = sphere(0)
    cube = _constant_cube(3, v, _all_subsets(3, "nonempty"))
    b = cube_bidg(cube, "limit")
    assert b.validate() == []
    first = b.get_dv((0, 0))  # strands {1},{2},{3} -> {1,2},{1,3},{2,3}
    assert first.to_rows() == [
        [rat(-1), rat(1), rat(0)],
        [rat(-1), rat(0), rat(1)],
        [rat(0), rat(-1), rat(1)],
    ]
    second = b.get_dv((0, -1))  # strands {1,2},{1,3},{2,3} -> {1,2,3}
    assert second.to_rows() == [[rat(1), rat(-1), rat(1)]]


def test_two_cube_limit_isomorphic_to_square_model():
    rng = Random(17)
    for _ in range(8):
        mid = random_dg(rng, 0, 3)
        u = random_dg(rng, 0, 3)
        w = random_dg(rng, 0, 3)
        f = random_chain_map(rng, u, mid)
        g = random_chain_map(rng, w, mid)
        square, _ = ho_square("pullback", f, g)
        cube = Cube(
            2,
            {frozenset({1}): u, frozenset({2}): w, frozenset({1, 2}): mid},
            {
                (frozenset({1}), frozenset({1, 2})): f,
                (frozenset({2}), frozenset({1, 2})): g,
            },
        )
        tot_cube = ho_cube("limit", cube)
        assert validate_dg(tot_cube) == []
        # explicit iso: negate the U strand; square orders (u, s^-1 mid, w),
        # cube orders (u, w, s^-1 mid)
        blocks = {}
        ok = True
        for k in square.degrees():
            nu, nm, nw = u.dim(k), mid.dim(k + 1), w.dim(k)
            ent = {}
            for i in range(nu):
                ent[(i, i)] = -ONE
            for i in range(nw):
                ent[(nu + i, nu + nm + i)] = ONE
            for i in range(nm):
                ent[(nu + nw + i, nu + i)] = ONE
            blocks[k] = QMatrix(tot_cube.dim(k), square.dim(k), ent)
        iso = DGMap(square, tot_cube, blocks)
        assert validate_dg(iso) == []
        assert is_quasi_iso(iso)


def test_two_cube_colimit_matches_square_model():
    rng = Random(18)
    mid = random_dg(rng, 0, 3)
    u = random_dg(rng, 0, 3)
    w = random_dg(rng, 0, 3)
    f = random_chain_map(rng, mid, u)
    g = random_chain_map(rng, mid, w)
    square, _ = ho_square("pushout", f, g)
    cube = Cube(
        2,
        {frozenset(): mid, frozenset({1}): u, frozenset({2}): w},
        {
            (frozenset(), frozenset({1})): f,
            (frozenset(), frozenset({2})): g,
        },
    )
    tot_cube = ho_cube("colimit", cube)
    assert validate_dg(tot_cube) == []
    assert homology_dims(tot_cube) == homology_dims(square)


def test_noncommuting_cube_rejected():
    v = sphere(1)
    cube = Cube(
        2,
        {frozenset(): v, frozenset({1}): v, frozenset({2}): v, frozenset({1, 2}): v},
        {
            (frozenset(), frozenset({1})): identity_map(v),
            (frozenset(), frozenset({2})): identity_map(v),
            (frozenset({1}), frozenset({1, 2})): identity_map(v),
            (frozenset({2}), frozenset({1, 2})): map_scale(2, identity_map(v)),
        },
    )
    with pytest.raises(ValueError):
        ho_cube("colimit", cube)



def _old_validate_commuting(cube: Cube) -> list[str]:
    """Cube.validate_commuting as it was before it kept its composites: two
    compose calls and one comparison per face."""
    report = []
    for (s, t), m in cube.edges.items():
        if m.source != cube.objects[s] or m.target != cube.objects[t]:
            report.append(f"edge {sorted(s)}->{sorted(t)} endpoints mismatch")
    for s in cube.objects:
        outside = [e for e in range(1, cube.n + 1) if e not in s]
        for i, a in enumerate(outside):
            for bel in outside[i + 1 :]:
                sa, sb, sab = s | {a}, s | {bel}, s | {a, bel}
                if sab not in cube.objects or sa not in cube.objects or sb not in cube.objects:
                    continue
                one = compose(cube.edge(sa, sab), cube.edge(s, sa))
                two = compose(cube.edge(sb, sab), cube.edge(s, sb))
                if one != two:
                    report.append(f"face at {sorted(s)} +{a},+{bel} does not commute")
    return report


def _renamed(v: DG) -> DG:
    return DG({k: tuple(f"{x}'" for x in names) for k, names in v.basis.items()}, dict(v.diff))


def _outcome(check, x):
    try:
        return check(x)
    except ValueError as err:
        return ("ValueError", str(err))


def _corrupted(rng: Random, m: DGMap, how: str) -> DGMap:
    """m with one corruption.  scale (m + 1 on an endomorphism, else 2m)
    leaves the signed monomial blocks, and source and target rename an
    endpoint.  negate (one entry, to its shared negation) and swap (two
    columns of one block) keep every block signed monomial, so the signed
    column arrays must see them; unshared puts an equal but unshared Fraction
    in place of one entry, which sends that degree to the products."""
    if how == "scale":
        return map_add(m, identity_map(m.source)) if m.source == m.target else map_scale(2, m)
    if how == "source":
        return DGMap(_renamed(m.source), m.target, m.blocks)
    if how == "target":
        return DGMap(m.source, _renamed(m.target), m.blocks)
    if not m.blocks:
        return m
    k = rng.choice(sorted(m.blocks))
    b = m.blocks[k]
    if how == "swap":
        one, two = rng.sample(range(b.cols), 2) if b.cols > 1 else (0, 0)
        ent = {(r, {one: two, two: one}.get(c, c)): v for (r, c), v in b.entries.items()}
    else:
        ent = dict(b.entries)
        at = rng.choice(sorted(ent))
        ent[at] = _negated(ent[at]) if how == "negate" else Fraction(ent[at].numerator, ent[at].denominator)
    return DGMap(m.source, m.target, {**m.blocks, k: QMatrix(b.rows, b.cols, ent)})


def _face_edges(line: str) -> set:
    """The four edges of the face a "face at [s] +a,+b does not commute" line names."""
    at, a, b = re.fullmatch(r"face at \[(.*)\] \+(\d+),\+(\d+) does not commute", line).groups()
    s = frozenset(int(i) for i in at.split(", ") if i)
    sa, sb, sab = s | {int(a)}, s | {int(b)}, s | {int(a), int(b)}
    return {(s, sa), (sa, sab), (s, sb), (sb, sab)}


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(("test", "constant", "square", "coproduct")),
       st.lists(st.sampled_from(("scale", "source", "target", "negate", "swap", "unshared")), max_size=3))
def test_validate_commuting_matches_the_face_by_face_loop(seed, kind, corruptions):
    """Every face that reports holds a corrupted edge.  Coproduct cubes of
    equal inputs share their edges' blocks across subsets: one edge is then
    replaced by a copy with one block corrupted, and the edges that still
    hold the block must not report."""
    rng = Random(seed)
    touched = set()
    if kind == "coproduct":
        n, x = rng.randint(2, 4), random_dg(rng, 0, 2, 3)
        equal = rng.random() < 0.5
        cube, _ = _coproduct_cube([x] * n if equal else [random_dg(rng, 0, 2, 3) for _ in range(n)])
        if equal and any(e.blocks for e in cube.edges.values()):
            key = rng.choice([e for e, m in cube.edges.items() if m.blocks])
            cube.edges[key] = _corrupted(rng, cube.edges[key], rng.choice(("negate", "swap")))
            touched.add(key)
    elif kind == "test":
        cube = _test_cube(rng.randint(0, 3), random_dg(rng, 0, 2, 3))
    elif kind == "constant":
        n = rng.randint(1, 3)
        subsets = _all_subsets(n, rng.choice(("all", "nonempty", "proper")))
        cube = _constant_cube(n, random_dg(rng, 0, 2, 3), subsets)
    else:
        s, t, f, g = random_commuting_square(rng, 0, 2)
        one, two, top = frozenset({1}), frozenset({2}), frozenset({1, 2})
        cube = Cube(2, {frozenset(): s.source, one: s.target, two: t.target, top: f.target},
                    {(frozenset(), one): s, (frozenset(), two): t, (one, top): f, (two, top): g})
    for how in corruptions:
        if not cube.edges:
            break
        key = rng.choice(sorted(cube.edges, key=lambda e: (sorted(e[0]), sorted(e[1]))))
        cube.edges[key] = _corrupted(rng, cube.edges[key], how)
        touched.add(key)
    report = _outcome(Cube.validate_commuting, cube)
    assert report == _outcome(_old_validate_commuting, cube)
    if isinstance(report, list):
        assert all(_face_edges(line) & touched for line in report if line.startswith("face"))


def test_validate_commuting_reports_faces_and_endpoints():
    v = sphere(1)
    cube = _test_cube(3, v)
    assert cube.validate_commuting() == _old_validate_commuting(cube) == []
    bottom, one, top = frozenset(), frozenset({1}), frozenset({1, 2})
    cube.edges[(one, top)] = map_scale(2, cube.edges[(one, top)])
    cube.edges[(frozenset({2, 3}), frozenset({1, 2, 3}))] = DGMap(
        cube.objects[frozenset({2, 3})], _renamed(cube.objects[frozenset({1, 2, 3})]),
        cube.edges[(frozenset({2, 3}), frozenset({1, 2, 3}))].blocks)
    report = cube.validate_commuting()
    assert report == _old_validate_commuting(cube)
    assert report[0] == "edge [2, 3]->[1, 2, 3] endpoints mismatch"
    assert f"face at {sorted(bottom)} +1,+2 does not commute" in report
    assert "face at [2] +1,+3 does not commute" in report


# -- cartesian / cocartesian -------------------------------------------------------


def test_identity_square_bicartesian():
    v = two_term()
    i = identity_map(v)
    assert is_bicartesian(i, i, i, i) == (True, True)


def test_cone_square_bicartesian(map_from_names):
    v = DG({1: ("a",), 2: ("b",)}, {2: QMatrix.from_rows([[2]])})
    cone, incl = cone_dg(v)
    bigs, _, _ = big_suspension(v)
    # cV -> bigS V: identity on V into the middle strand, sV onto a side strand
    f = map_from_names(
        cone,
        bigs,
        lambda k, name: {f"m({name})": 1} if not name.startswith("s(") else {f"l(s{name[1:]})": 1},
    )
    g = map_from_names(
        cone,
        bigs,
        lambda k, name: {f"m({name})": 1} if not name.startswith("s(") else {f"r(s{name[1:]})": 1},
    )
    assert validate_dg(f) == [] and validate_dg(g) == []
    assert is_bicartesian(incl, incl, f, g) == (True, True)


def test_wrong_corner_square_not_cartesian():
    v = sphere(1)
    bad = shift(v, 2)  # s^2 V where the pushout corner should be s V
    flags = is_bicartesian(
        zero_map(v, ZERO_DG), zero_map(v, ZERO_DG), zero_map(ZERO_DG, bad), zero_map(ZERO_DG, bad)
    )
    assert flags == (False, False)


def test_random_squares_have_equal_flags():
    rng = Random(19)
    for _ in range(12):
        s, t, f, g = random_commuting_square(rng)
        cart, cocart = is_bicartesian(s, t, f, g)
        assert cart == cocart


# -- telescope ----------------------------------------------------------------------


def test_telescope_identity_chain():
    rng = Random(20)
    v = random_dg(rng, 0, 3)
    tel, cmp_map = telescope([identity_map(v), identity_map(v)])
    assert validate_dg(tel) == []
    assert is_quasi_iso(cmp_map)
    assert homology_dims(tel) == homology_dims(v)


def test_telescope_single_map():
    v = sphere(1)
    w = sphere(1)
    tel, cmp_map = telescope([zero_map(v, w)])
    assert {k: tel.dim(k) for k in tel.degrees()} == {1: 2, 2: 1}
    assert is_quasi_iso(cmp_map)


def test_telescope_zero_maps():
    v = two_term(3)
    w = sphere(2)
    u = DG({2: ("z",)})
    tel, cmp_map = telescope([zero_map(v, w), zero_map(w, u)])
    assert is_quasi_iso(cmp_map)
    assert homology_dims(tel) == homology_dims(u)


def test_telescope_random_chains_comparison_quasi_iso():
    rng = Random(21)
    for _ in range(10):
        a = random_dg(rng, 0, 3)
        b = random_dg(rng, 0, 3)
        c = random_dg(rng, 0, 3)
        tel, cmp_map = telescope([random_chain_map(rng, a, b), random_chain_map(rng, b, c)])
        assert validate_dg(tel) == []
        assert is_quasi_iso(cmp_map)


# -- symmetric DGs -------------------------------------------------------------------


def test_sym_trivial_action():
    v = DG({0: ("a", "b")})
    sym = SymmetricDG(v, 2, [identity_map(v)])
    assert sym.validate() == []
    fixed, orbits, trace, norm, avg = sym_invariants(sym)
    assert fixed.dim(0) == 2 and orbits.dim(0) == 2
    assert compose(norm, trace) == identity_map(fixed)
    assert compose(trace, norm) == identity_map(orbits)
    assert avg == identity_map(v)


def test_sym_swap_action():
    v = DG({0: ("a", "b")})
    swap = DGMap(v, v, {0: QMatrix.from_rows([[0, 1], [1, 0]])})
    sym = SymmetricDG(v, 2, [swap])
    assert sym.validate() == []
    fixed, orbits, trace, norm, avg = sym_invariants(sym)
    assert fixed.dim(0) == 1 and orbits.dim(0) == 1
    assert compose(norm, trace) == identity_map(fixed)
    assert compose(trace, norm) == identity_map(orbits)


def test_sym_sign_action():
    v = DG({0: ("a",)})
    sgn = DGMap(v, v, {0: QMatrix.from_rows([[-1]])})
    sym = SymmetricDG(v, 2, [sgn])
    assert sym.validate() == []
    fixed, orbits, trace, norm, avg = sym_invariants(sym)
    assert fixed.dim(0) == 0 and orbits.dim(0) == 0
    assert avg == zero_map(v, v)


def _old_sym_invariants(v: SymmetricDG):
    """sym_invariants as it was before the norm became the inverse of the
    trace: the n! group elements by breadth-first closure over the
    generators, their average, and the norm solved through a section of the
    orbit projection."""
    u = v.underlying

    def key(m):
        return tuple(sorted((k, frozenset(q.entries.items())) for k, q in m.blocks.items()))

    ident = identity_map(u)
    seen, frontier = {key(ident): ident}, [ident]
    while frontier:
        nxt = []
        for g in frontier:
            for a in v.action:
                h = compose(a, g)
                if key(h) not in seen:
                    seen[key(h)] = h
                    nxt.append(h)
        frontier = nxt
    total = zero_map(u, u)
    for g in seen.values():
        total = map_add(total, g)
    avg = map_scale(Fraction(1, len(seen)), total)
    vectors = {}
    for k in u.degrees():
        stacked = QMatrix.vstack([a.block(k) - QMatrix.identity(u.dim(k)) for a in v.action]) if v.action else QMatrix.zero(0, u.dim(k))
        vectors[k] = kernel_basis(stacked) if v.action else QMatrix.identity(u.dim(k))
    fixed, incl = sub_dg(u, vectors, prefix="fix")
    orbits, proj = sym_orbits(v)
    norm_blocks = {}
    for k in orbits.degrees():
        sec = solve_matrix(proj.block(k), QMatrix.identity(orbits.dim(k)))
        norm_blocks[k] = solve_matrix(incl.block(k), avg.block(k) * sec)
    return fixed, orbits, compose(proj, incl), DGMap(orbits, fixed, norm_blocks), avg


def _coefficient(kind: str, n: int, degree: int) -> SymmetricDG:
    """Sigma_n acting on a coefficient: trivially or by the sign on one line, or
    as Lie(n), plain, placed in a degree with or without the sign twist, or as
    the derivative of the identity."""
    if kind in ("trivial", "sign"):
        line = DG({degree: ("u",)})
        a = identity_map(line) if kind == "trivial" else map_scale(-1, identity_map(line))
        return SymmetricDG(line, n, [a] * (n - 1))
    lie = lie_n(n)
    if kind == "lie":
        return lie.rep
    if kind == "derivative":
        return lie.derivative()
    return lie.placed(degree, kind == "twisted")


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_sym_invariants_from_the_trace_match_the_group_closure(seed):
    rng = Random(seed)
    n, kind = rng.randint(1, 4), rng.choice(["trivial", "sign", "lie", "derivative", "placed", "twisted", "none"])
    x = random_dg(rng, -1, 2, 3 if n < 4 else 1)  # the oracle walks all n! group elements
    if kind == "none":  # no action at all
        sym = SymmetricDG(x, 1, [])
    else:
        coefficient = _coefficient(kind, n, rng.randint(-2, 2))
        pw, swaps = _power_with_swaps(x, n)
        actions = [tensor_map(a, s) for a, s in zip(coefficient.action, swaps)]
        sym = SymmetricDG(tensor_dg(coefficient.underlying, pw), n, actions)
    assert sym.validate() == []
    got, want = sym_invariants(sym), _old_sym_invariants(sym)
    assert got == want
    for g, w in zip(got[:2], want[:2]):  # basis names and their order
        assert list(g.basis.items()) == list(w.basis.items())


def test_sym_braid_validation_catches_bad_action():
    v = DG({0: ("a", "b", "c")})
    bad = DGMap(v, v, {0: QMatrix.from_rows([[0, 1, 0], [0, 0, 1], [1, 0, 0]])})
    sym = SymmetricDG(v, 3, [bad, identity_map(v)])
    assert sym.validate()  # a 3-cycle is not an involution


def _old_sym_validate(sym):
    """The earlier SymmetricDG.validate: an identity map per generator and
    aba and bab composed separately."""
    report = []
    if len(sym.action) != max(sym.n - 1, 0):
        return ["wrong number of generator actions"]
    for i, a in enumerate(sym.action):
        if a.source != sym.underlying or a.target != sym.underlying:
            report.append(f"generator {i} endpoints mismatch")
            continue
        report.extend(f"generator {i}: {msg}" for msg in validate_dg(a))
        if compose(a, a) != identity_map(sym.underlying):
            report.append(f"generator {i} is not an involution")
    for i in range(len(sym.action) - 1):
        a, b = sym.action[i], sym.action[i + 1]
        if compose(a, compose(b, a)) != compose(b, compose(a, b)):
            report.append(f"braid relation fails at generators {i},{i+1}")
    for i in range(len(sym.action)):
        for j in range(i + 2, len(sym.action)):
            if compose(sym.action[i], sym.action[j]) != compose(sym.action[j], sym.action[i]):
                report.append(f"distant generators {i},{j} do not commute")
    return report


def _sym_cases():
    """(symmetric DG, the start of a line its report must hold, or None for a valid action)."""
    plane = DG({0: ("a", "b")})
    flip = DGMap(plane, plane, {0: QMatrix.from_rows([[1, 0], [0, -1]])})
    swap = DGMap(plane, plane, {0: QMatrix.from_rows([[0, 1], [1, 0]])})
    one = identity_map(plane)
    v = two_term()
    not_chain = DGMap(v, v, {2: QMatrix.from_rows([[1]]), 1: QMatrix.from_rows([[-1]])})
    line = DG({0: ("a", "b", "c")})
    cycle = DGMap(line, line, {0: QMatrix.from_rows([[0, 1, 0], [0, 0, 1], [1, 0, 0]])})
    x = random_dg(Random(5), 0, 2, 3)
    power, swaps = _power_with_swaps(x, 3)
    return [
        (SymmetricDG(power, 3, swaps), None),
        (cross_effect(IdentityFunctor(), 3, [x] * 3), None),
        (lie_n(4).rep, None),
        (SymmetricDG(v, 2, [not_chain]), "generator 0: map does not commute with d"),
        (SymmetricDG(line, 2, [cycle]), "generator 0 is not an involution"),
        (SymmetricDG(plane, 3, [flip, swap]), "braid relation fails at generators 0,1"),
        (SymmetricDG(plane, 4, [flip, one, swap]), "distant generators 0,2 do not commute"),
        (SymmetricDG(plane, 3, [flip]), "wrong number of generator actions"),
        (SymmetricDG(plane, 2, [identity_map(v)]), "generator 0 endpoints mismatch"),
    ]


def test_sym_validate_reports_each_broken_relation():
    for sym, message in _sym_cases():
        report = sym.validate()
        assert report == _old_sym_validate(sym)
        assert (report == []) if message is None else any(line.startswith(message) for line in report)


def _three_cycle(u: DG, a: DGMap) -> DGMap:
    """The identity of u with the first three basis elements of its lowest
    degree of dimension >= 3 cycled, or a where there is none: a signed
    monomial map that is not an involution."""
    k = next((k for k in u.degrees() if u.dim(k) >= 3), None)
    if k is None:
        return a
    blocks = {j: QMatrix.identity(u.dim(j)) for j in u.degrees()}
    blocks[k] = QMatrix(u.dim(k), u.dim(k), {((c + 1) % 3 if c < 3 else c, c): ONE for c in range(u.dim(k))})
    return DGMap(u, u, blocks)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(("identity", "square", "lambda", "swaps", "lie")),
       st.lists(st.sampled_from(("negate", "cycle", "double", "source", "target")), max_size=2))
def test_sym_validate_matches_the_per_generator_loop(seed, kind, corruptions):
    """Cross effects and factor swaps act by signed monomial blocks, and
    Lie(n)'s last swap is not one; each corruption flips one sign, or puts a
    3-cycle, twice a generator or a generator with a renamed endpoint in the
    place of a generator.  The reports must match, line by line in order, or
    both raise the same error."""
    rng = Random(seed)
    n = rng.randint(1, 4)
    if kind == "lie":
        sym = lie_n(n).rep
    elif kind == "swaps":
        power, swaps = _power_with_swaps(random_dg(rng, 0, 2, 3 if n < 4 else 2), n)
        sym = SymmetricDG(power, n, swaps)
    else:
        functor = {"identity": IdentityFunctor(), "square": TensorPowerFunctor(2), "lambda": LambdaFunctor(6)}[kind]
        sym = cross_effect(functor, n, [random_dg(rng, 2, 3, 1)] * n)
    action = list(sym.action)
    for how in corruptions:
        if not action:
            break
        i = rng.randrange(len(action))
        if how == "cycle":
            action[i] = _three_cycle(sym.underlying, action[i])
        elif how == "double":
            action[i] = map_scale(2, action[i])
        else:
            action[i] = _corrupted(rng, action[i], how)
    sym = SymmetricDG(sym.underlying, sym.n, action)
    assert _outcome(SymmetricDG.validate, sym) == _outcome(_old_sym_validate, sym)


def _old_map_report(x: DGMap) -> list[str]:
    """validate_dg's report on a map before the conjugation test: both sides
    of d a = a d multiplied out in every degree."""
    report = []
    for k in sorted(set(x.blocks) | set(x.source.diff) | set(x.target.diff)):
        lhs = x.target.d(k) * x.block(k)
        rhs = x.block(k - 1) * x.source.d(k)
        if lhs != rhs:
            diffm = lhs - rhs
            (r, c), v = sorted(diffm.entries.items())[0]
            report.append(f"map does not commute with d at degree {k}: entry ({r},{c}) = {v}")
    return report


def _relabeling(rng: Random, x: DG, copies: int) -> DGMap:
    """An automorphism of the sum of copies of x: copy i onto copy sigma(i),
    times a sign of its own."""
    total, incls = sum_many([x] * copies)
    sigma, places = rng.sample(range(copies), copies), [_places(incl) for incl in incls]
    ent: dict = {}
    for i, at in enumerate(places):
        sign = rng.choice((ONE, _negated(ONE)))
        for (k, p), c in at.items():
            ent.setdefault(k, {})[(places[sigma[i]][(k, p)], c)] = sign
    return DGMap(total, total, {k: QMatrix(total.dim(k), total.dim(k), e) for k, e in ent.items()})


def _random_signed_permutation(rng: Random, x: DG) -> DGMap:
    """A signed permutation of each degree of x, rarely a chain map."""
    blocks = {}
    for k in x.degrees():
        image = rng.sample(range(x.dim(k)), x.dim(k))
        blocks[k] = QMatrix(x.dim(k), x.dim(k), {(r, c): rng.choice((ONE, _negated(ONE))) for c, r in enumerate(image)})
    return DGMap(x, x, blocks)


def _is_signed_permutation(b: QMatrix) -> bool:
    """Whether b is square with one shared +-1 in each row and in each column."""
    return b.rows == b.cols == len(b.entries) and _signed_array(b, 0) is not None and _signed_array(b, 1) is not None


@settings(max_examples=160, deadline=None)
@given(st.integers(0, 2**32 - 1),
       st.sampled_from(("relabel", "random", "cross", "square", "swaps", "lie", "chain map", "equal target")),
       st.lists(st.sampled_from(("negate", "swap", "unshared", "drop", "merge")), max_size=2))
def test_map_check_matches_the_product_loop(seed, kind, corruptions):
    """validate_dg on a map gives the product loop's report, line for line.
    Relabelings of sums of copies, cross-effect actions and factor swaps
    are signed permutations of their DG; each corruption flips one sign,
    swaps two columns, puts an equal unshared Fraction in place of a +-1,
    drops one degree's block or sends two columns to one row.  Lie(n)'s
    last swap, maps between two DGs and maps onto an equal but distinct DG
    take the products.  The conjugation test passes exactly on the signed
    permutations of a DG that commute with d."""
    rng = Random(seed)
    n = rng.randint(2, 4)
    x = random_dg(rng, 0, 2, 3)
    if kind == "relabel":
        a = _relabeling(rng, x, n)
    elif kind == "random":
        a = _random_signed_permutation(rng, x)
    elif kind in ("cross", "square"):
        functor, m = (IdentityFunctor(), n) if kind == "cross" else (TensorPowerFunctor(2), min(n, 3))
        a = rng.choice(cross_effect(functor, m, [random_dg(rng, 0, 2, 2)] * m).action)
    elif kind == "swaps":
        a = rng.choice(_power_with_swaps(random_dg(rng, 0, 2, 2), n)[1])
    elif kind == "lie":
        a = lie_n(n).rep.action[-1]
    elif kind == "chain map":
        a = random_chain_map(rng, x, random_dg(rng, 0, 2, 3, prefix="w"))
    else:
        a = _relabeling(rng, x, n)
        a = DGMap(a.source, DG(a.source.basis, a.source.diff), a.blocks)
    signed = kind in ("relabel", "random", "cross", "swaps")
    for how in corruptions:
        k = rng.choice(sorted(a.blocks)) if a.blocks else None
        if how == "drop" and k is not None:
            a = DGMap(a.source, a.target, {j: m for j, m in a.blocks.items() if j != k})
        elif how == "merge" and k is not None and a.blocks[k].cols > 1:
            b = a.blocks[k]
            one, two = rng.sample(range(b.cols), 2)
            row = next((r for r, c in b.entries if c == one), 0)
            ent = {(row if c == two else r, c): v for (r, c), v in b.entries.items()}
            a = DGMap(a.source, a.target, {**a.blocks, k: QMatrix(b.rows, b.cols, ent)})
        elif how not in ("drop", "merge"):
            a = _corrupted(rng, a, how)
        signed = signed and how in ("negate", "swap")
    a = DGMap(a.source, a.target, a.blocks)  # with no report kept yet
    report = validate_dg(a)
    assert report == _old_map_report(a)
    permutation = a.target is a.source and all(k in a.blocks and _is_signed_permutation(a.blocks[k]) for k in a.source.degrees())
    assert signed <= permutation and _commutes_by_conjugation(a) == (permutation and report == [])


def test_map_check_of_two_columns_onto_one_row():
    """b and c both onto b: d's one nonzero entry goes to itself, but the
    map is no bijection, so the zeros need not follow (d a c = a != 0 =
    a d c) and the products decide."""
    v = DG({0: ("a",), 1: ("b", "c")}, {1: QMatrix(1, 2, {(0, 0): ONE})})
    a = DGMap(v, v, {0: QMatrix.identity(1), 1: QMatrix(2, 2, {(0, 0): ONE, (0, 1): ONE})})
    assert not _commutes_by_conjugation(a)
    assert validate_dg(a) == _old_map_report(a) == ["map does not commute with d at degree 1: entry (0,1) = 1"]


# -- chain map space -----------------------------------------------------------------


def test_chain_map_space_members_are_chain_maps():
    rng = Random(22)
    for _ in range(8):
        v = random_dg(rng, 0, 3)
        w = random_dg(rng, 0, 3)
        for f in chain_map_space(v, w):
            assert validate_dg(f) == []


def test_chain_map_space_identity_present():
    v = two_term()
    space = chain_map_space(v, v)
    # identity must be a combination; here the space is 1-dimensional
    assert len(space) == 1
    b = space[0]
    assert b.block(2).get(0, 0) == b.block(1).get(0, 0) != 0


# -- the twisted-sum builders against the hand-written ones they replaced ------------
# The _old_* functions are the earlier builders, each with its own offset arithmetic,
# kept here as oracles: every rewritten builder must give the same basis names in the
# same order, the same differential entries and the same maps.


def _old_sum_dg(a, b, tags=("inl", "inr")):
    basis = {}
    for k in sorted(set(a.basis) | set(b.basis)):
        basis[k] = tuple(f"{tags[0]}({x})" for x in a.basis.get(k, ())) + tuple(
            f"{tags[1]}({x})" for x in b.basis.get(k, ())
        )
    diff = {}
    for k in set(a.diff) | set(b.diff):
        diff[k] = QMatrix.direct_sum([a.d(k), b.d(k)])
    out = DG(basis, diff)
    inl = DGMap(a, out, {k: QMatrix(out.dim(k), a.dim(k), {(i, i): ONE for i in range(a.dim(k))})
                         for k in a.degrees()})
    inr = DGMap(b, out, {k: QMatrix(out.dim(k), b.dim(k), {(a.dim(k) + i, i): ONE for i in range(b.dim(k))})
                         for k in b.degrees()})
    return out, inl, inr


def _old_sum_many(parts, tags=None):
    if tags is None:
        tags = [f"i{i}" for i in range(len(parts))]
    basis = {}
    for k in sorted({k for p in parts for k in p.basis}):
        names = []
        for p, tag in zip(parts, tags):
            names.extend(f"{tag}({x})" for x in p.basis.get(k, ()))
        basis[k] = tuple(names)
    diff = {}
    for k in {kk for p in parts for kk in p.diff}:
        diff[k] = QMatrix.direct_sum([p.d(k) for p in parts])
    out = DG(basis, diff)
    incls = []
    for i, p in enumerate(parts):
        blocks = {}
        for k in p.degrees():
            off = sum(q.dim(k) for q in parts[:i])
            blocks[k] = QMatrix(out.dim(k), p.dim(k), {(off + j, j): ONE for j in range(p.dim(k))})
        incls.append(DGMap(p, out, blocks))
    return out, incls


def _unit(n, j):
    return tuple(ONE if i == j else ZERO for i in range(n))


def _add_entries(total, k, placed):
    """total.d(k) plus the (row offset, column offset, block) triples."""
    ent = dict(total.d(k).entries)
    for r0, c0, m in placed:
        for (r, c), val in m.entries.items():
            ent[(r0 + r, c0 + c)] = ent.get((r0 + r, c0 + c), ZERO) + val
    return QMatrix(total.dim(k - 1), total.dim(k), ent)


def _old_cone_dg(v):
    basis = {}
    for k in sorted(set(v.basis) | {k + 1 for k in v.basis}):
        basis[k] = tuple(v.basis.get(k, ())) + tuple(f"s({x})" for x in v.basis.get(k - 1, ()))
    diff = {}
    for k in sorted(set(basis)):
        nv, ns = v.dim(k), v.dim(k - 1)
        tv, ts = v.dim(k - 1), v.dim(k - 2)
        ent = dict(v.d(k).entries)
        for (r, c), x in v.d(k - 1).entries.items():
            ent[(tv + r, nv + c)] = -x
        for i in range(ns):
            ent[(i, nv + i)] = ent.get((i, nv + i), ZERO) + ONE
        if tv + ts and nv + ns:
            diff[k] = QMatrix(tv + ts, nv + ns, ent)
    out = DG(basis, diff)
    return out, DGMap(v, out, {k: QMatrix(out.dim(k), v.dim(k), {(i, i): ONE for i in range(v.dim(k))})
                               for k in v.degrees()})


def _old_paths_dg(v):
    basis = {}
    for k in sorted(set(v.basis) | {k - 1 for k in v.basis}):
        basis[k] = tuple(v.basis.get(k, ())) + tuple(f"si({x})" for x in v.basis.get(k + 1, ()))
    diff = {}
    for k in sorted(set(basis)):
        nv, ns = v.dim(k), v.dim(k + 1)
        tv, ts = v.dim(k - 1), v.dim(k)
        ent = dict(v.d(k).entries)
        for i in range(nv):
            ent[(tv + i, i)] = ent.get((tv + i, i), ZERO) + ONE
        for (r, c), x in v.d(k + 1).entries.items():
            ent[(tv + r, nv + c)] = ent.get((tv + r, nv + c), ZERO) - x
        if tv + ts and nv + ns:
            diff[k] = QMatrix(tv + ts, nv + ns, ent)
    out = DG(basis, diff)
    return out, DGMap(out, v, {k: QMatrix(v.dim(k), out.dim(k), {(i, i): ONE for i in range(v.dim(k))})
                               for k in v.degrees()})


def _old_big_suspension(v):
    sv = shift(v, 1)
    parts, _ = _old_sum_many([sv, v, sv], tags=["l", "m", "r"])
    diff = dict(parts.diff)
    for k in sorted(parts.basis):
        if parts.dim(k - 1):
            toff, n = sv.dim(k - 1), sv.dim(k)
            diff[k] = _add_entries(parts, k, [(toff, 0, QMatrix.identity(n)), (toff, n + v.dim(k), QMatrix.identity(n))])
    out = DG(parts.basis, diff)
    projs = []
    for which in (0, 2):
        blocks = {}
        for k in sv.degrees():
            off = (sv.dim(k) + v.dim(k)) if which == 2 else 0
            blocks[k] = QMatrix(sv.dim(k), out.dim(k), {(i, off + i): ONE for i in range(sv.dim(k))})
        projs.append(DGMap(out, sv, blocks))
    return out, projs[0], projs[1]


def _old_big_loops(v):
    siv = shift(v, -1)
    parts, _ = _old_sum_many([siv, v, siv], tags=["l", "m", "r"])
    diff = dict(parts.diff)
    for k in sorted(parts.basis):
        if parts.dim(k - 1):
            nl, nm = siv.dim(k), v.dim(k)
            roff = siv.dim(k - 1) + v.dim(k - 1)
            diff[k] = _add_entries(parts, k, [(0, nl, QMatrix.identity(nm)), (roff, nl, QMatrix.identity(nm))])
    out = DG(parts.basis, diff)
    injs = []
    for which in (0, 2):
        blocks = {}
        for k in siv.degrees():
            off = (siv.dim(k) + v.dim(k)) if which == 2 else 0
            blocks[k] = QMatrix(out.dim(k), siv.dim(k), {(off + i, i): ONE for i in range(siv.dim(k))})
        injs.append(DGMap(siv, out, blocks))
    return out, injs[0], injs[1]


def _old_strict_pullback(f, g):
    u, w = f.source, g.source
    vectors = {k: kernel_basis(QMatrix.hstack([f.block(k), g.block(k)])) for k in sorted(set(u.basis) | set(w.basis))}
    prod, _, _ = _old_sum_dg(u, w, tags=("u", "w"))
    sub, incl = sub_dg(prod, vectors, prefix="lim")
    pu = DGMap(prod, u, {k: QMatrix(u.dim(k), prod.dim(k), {(i, i): ONE for i in range(u.dim(k))})
                         for k in u.degrees()})
    pw = DGMap(prod, w, {k: QMatrix(w.dim(k), prod.dim(k), {(i, u.dim(k) + i): ONE for i in range(w.dim(k))})
                         for k in w.degrees()})
    return sub, compose(pu, incl), compose(pw, incl)


def _old_strict_pushout(f, g):
    u, w, v = f.target, g.target, f.source
    total, inl, inr = _old_sum_dg(u, w, tags=("u", "w"))
    killed = {}
    for k in v.degrees():
        killed[k] = [tuple(f.apply(k, _unit(v.dim(k), j))) + tuple(g.apply(k, _unit(v.dim(k), j)))
                     for j in range(v.dim(k))]
    quot, proj = _old_quotient_dg(total, killed, prefix="co")
    return quot, compose(proj, inl), compose(proj, inr)


def _old_ho_pullback(f, g):
    u, w, v = f.source, g.source, f.target
    siv = shift(v, -1)
    total, _ = _old_sum_many([u, siv, w], tags=["u", "m", "w"])
    diff = dict(total.diff)
    for k in sorted(set(total.basis) | {kk + 1 for kk in total.basis}):
        if total.dim(k) and total.dim(k - 1):
            toff = u.dim(k - 1)
            diff[k] = _add_entries(total, k, [(toff, 0, f.block(k)), (toff, u.dim(k) + siv.dim(k), g.block(k))])
    out = DG(total.basis, diff)
    lim, pu, pw = _old_strict_pullback(f, g)
    e_blocks = {}
    for k in lim.degrees():
        cols = []
        for j in range(lim.dim(k)):
            ej = _unit(lim.dim(k), j)
            cols.append(tuple(pu.apply(k, ej)) + (ZERO,) * siv.dim(k) + tuple(pw.apply(k, ej)))
        e_blocks[k] = QMatrix.from_columns(cols, out.dim(k))
    return out, DGMap(lim, out, e_blocks)


def _old_ho_pushout(f, g):
    u, w, v = f.target, g.target, f.source
    sv = shift(v, 1)
    total, _ = _old_sum_many([u, sv, w], tags=["u", "m", "w"])
    diff = dict(total.diff)
    for k in sorted(set(total.basis) | {kk + 1 for kk in total.basis}):
        if total.dim(k) and total.dim(k - 1):
            coff = u.dim(k)
            roff = u.dim(k - 1) + sv.dim(k - 1)
            diff[k] = _add_entries(total, k, [(0, coff, f.block(k - 1)), (roff, coff, g.block(k - 1))])
    out = DG(total.basis, diff)
    colim, ju, jw = _old_strict_pushout(f, g)
    e_blocks = {}
    for k in out.degrees():
        cols = []
        for j in range(out.dim(k)):
            if j < u.dim(k):
                cols.append(ju.apply(k, _unit(u.dim(k), j)))
            elif j < u.dim(k) + sv.dim(k):
                cols.append((ZERO,) * colim.dim(k))
            else:
                cols.append(jw.apply(k, _unit(w.dim(k), j - u.dim(k) - sv.dim(k))))
        e_blocks[k] = QMatrix.from_columns(cols, colim.dim(k))
    return out, DGMap(out, colim, e_blocks)


def _old_ho_fiber(f):
    v, w = f.source, f.target
    total, _ = _old_sum_many([v, shift(w, -1)], tags=["v", "f"])
    diff = dict(total.diff)
    for k in sorted(set(total.basis) | {kk + 1 for kk in total.basis}):
        if total.dim(k) and total.dim(k - 1):
            diff[k] = _add_entries(total, k, [(v.dim(k - 1), 0, f.block(k).scale(-1))])
    return DG(total.basis, diff)


def _old_ho_cofiber(f):
    v, w = f.source, f.target
    total, _ = _old_sum_many([w, shift(v, 1)], tags=["w", "c"])
    diff = dict(total.diff)
    for k in sorted(set(total.basis) | {kk + 1 for kk in total.basis}):
        if total.dim(k) and total.dim(k - 1):
            diff[k] = _add_entries(total, k, [(0, w.dim(k), f.block(k - 1))])
    return DG(total.basis, diff)


def _old_is_bicartesian(s, t, f, g):
    u, x = s.source, f.target
    pb, _ = _old_ho_pullback(f, map_scale(-1, g))
    w, v = f.source, g.source
    blocks = {}
    for k in u.degrees():
        cols = [tuple(s.apply(k, _unit(u.dim(k), j))) + (ZERO,) * x.dim(k + 1) + tuple(t.apply(k, _unit(u.dim(k), j)))
                for j in range(u.dim(k))]
        blocks[k] = QMatrix.from_columns(cols, pb.dim(k))
    to_pb = DGMap(u, pb, blocks)
    po, _ = _old_ho_pushout(s, map_scale(-1, t))
    blocks = {}
    for k in po.degrees():
        cols = []
        for j in range(po.dim(k)):
            if j < w.dim(k):
                cols.append(f.apply(k, _unit(w.dim(k), j)))
            elif j < w.dim(k) + u.dim(k - 1):
                cols.append((ZERO,) * x.dim(k))
            else:
                cols.append(g.apply(k, _unit(v.dim(k), j - w.dim(k) - u.dim(k - 1))))
        blocks[k] = QMatrix.from_columns(cols, x.dim(k))
    from_po = DGMap(po, x, blocks)
    assert validate_dg(to_pb) == [] and validate_dg(from_po) == []
    return is_quasi_iso(to_pb), is_quasi_iso(from_po)


def _old_telescope(maps):
    objs = [maps[0].source] + [m.target for m in maps]
    m = len(objs)
    parts, tags = [], []
    for i, o in enumerate(objs):
        parts.append(o)
        tags.append(f"v{i+1}")
        if i < m - 1:
            parts.append(shift(o, 1))
            tags.append(f"sv{i+1}")
    total, _ = _old_sum_many(parts, tags=tags)

    def offset(k, idx):
        return sum(p.dim(k) for p in parts[:idx])

    diff = dict(total.diff)
    for k in sorted(set(total.basis) | {kk + 1 for kk in total.basis}):
        if total.dim(k) and total.dim(k - 1):
            placed = []
            for i in range(m - 1):
                c0 = offset(k, 2 * i + 1)
                placed.append((offset(k - 1, 2 * i), c0, QMatrix.identity(objs[i].dim(k - 1))))
                placed.append((offset(k - 1, 2 * i + 2), c0, maps[i].block(k - 1)))
            diff[k] = _add_entries(total, k, placed)
    out = DG(total.basis, diff)
    last = objs[-1]
    composites = [None] * m
    cur = composites[m - 1] = identity_map(last)
    for i in range(m - 2, -1, -1):
        cur = composites[i] = compose(cur, maps[i])
    blocks = {}
    for k in out.degrees():
        cols = []
        for idx, p in enumerate(parts):
            if idx % 2 == 1:
                cols.extend([(ZERO,) * last.dim(k)] * p.dim(k))
                continue
            i = idx // 2
            sign = -ONE if (m - 1 - i) % 2 else ONE
            cols.extend(composites[i].block(k).scale(sign).columns())
        blocks[k] = QMatrix.from_columns(cols, last.dim(k))
    return out, DGMap(out, last, blocks)


def _old_fiber_square_map(a, b, src, tgt):
    blocks = {}
    for k in src.degrees():
        ent = dict(a.block(k).entries)
        roff, coff = a.target.dim(k), a.source.dim(k)
        for (r, c), val in b.block(k + 1).entries.items():
            ent[(roff + r, coff + c)] = val
        blocks[k] = QMatrix(tgt.dim(k), src.dim(k), ent)
    return DGMap(src, tgt, blocks)


def _old_cofiber_square_map(a, b, src, tgt):
    blocks = {}
    for k in src.degrees():
        ent = dict(b.block(k).entries)
        roff, coff = b.target.dim(k), b.source.dim(k)
        for (r, c), val in a.block(k - 1).entries.items():
            ent[(roff + r, coff + c)] = val
        blocks[k] = QMatrix(tgt.dim(k), src.dim(k), ent)
    return DGMap(src, tgt, blocks)


def _old_collapse_last(cube, mode):
    n = cube.n
    objects = {}
    for s in cube.objects:
        if n not in s:
            f = cube.edge(s, s | {n})
            objects[s] = _old_ho_fiber(f) if mode == "fiber" else _old_ho_cofiber(f)
    edges = {}
    for (s, t), a in cube.edges.items():
        if n not in s and n not in t:
            square_map = _old_fiber_square_map if mode == "fiber" else _old_cofiber_square_map
            edges[(s, t)] = square_map(a, cube.edge(s | {n}, t | {n}), objects[s], objects[t])
    return Cube(n - 1, objects, edges)


def _same(x, y):
    """Equal values, and for a DG or a DGMap the same basis names in the same order."""
    if isinstance(x, tuple):
        return len(x) == len(y) and all(_same(a, b) for a, b in zip(x, y))
    if isinstance(x, DGMap):
        return _same(x.source, y.source) and _same(x.target, y.target) and x == y
    return list(x.basis.items()) == list(y.basis.items()) and x == y


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(-1, 1), st.integers(1, 3))
def test_twisted_sum_builders_match_the_hand_written_ones(seed, lo, chain):
    rng = Random(seed)
    v, w, u = (random_dg(rng, lo, lo + 3, 5, prefix=p) for p in "vwu")
    assert _same(sum_dg(v, w), _old_sum_dg(v, w))
    assert _same(sum_dg(v, w, tags=("p", "q")), _old_sum_dg(v, w, tags=("p", "q")))
    out, incls = sum_many([v, w, u])
    old, old_incls = _old_sum_many([v, w, u])
    assert _same((out, *incls), (old, *old_incls))
    out, incls = sum_many([v, ZERO_DG, v], tags=["a", "b", "c"])
    old, old_incls = _old_sum_many([v, ZERO_DG, v], tags=["a", "b", "c"])
    assert _same((out, *incls), (old, *old_incls))
    for new, oracle in ((cone_dg, _old_cone_dg), (paths_dg, _old_paths_dg), (big_suspension, _old_big_suspension),
                        (big_loops, _old_big_loops)):
        assert _same(new(v), oracle(v))
    f, g = random_chain_map(rng, v, w), random_chain_map(rng, u, w)
    assert _same(strict_pullback(f, g), _old_strict_pullback(f, g))
    assert _same(ho_square("pullback", f, g), _old_ho_pullback(f, g))
    assert _same(ho_fiber(f), _old_ho_fiber(f))
    assert _same(ho_cofiber(f), _old_ho_cofiber(f))
    f, g = random_chain_map(rng, w, v), random_chain_map(rng, w, u)
    assert _same(strict_pushout(f, g), _old_strict_pushout(f, g))
    assert _same(ho_square("pushout", f, g), _old_ho_pushout(f, g))
    objs = [v] + [random_dg(rng, lo, lo + 3, 5, prefix=f"t{i}") for i in range(chain)]
    maps = [random_chain_map(rng, a, b) for a, b in zip(objs, objs[1:])]
    assert _same(telescope(maps), _old_telescope(maps))


@pytest.mark.parametrize("seed", range(4))
def test_sum_many_adds_twist_entries_that_overlap(seed):
    rng = Random(seed)
    v = random_dg(rng, 0, 3, 5)
    sv = shift(v, 1)
    f = random_chain_map(rng, v, v)
    twice = _out_of_suspension(f)
    # two entries on one block, and entries on a part's own differential
    assert sum_many([v, sv], twist=[(0, 1, twice), (0, 1, twice)])[0] == sum_many(
        [v, sv], twist=[(0, 1, _out_of_suspension(map_scale(2, f)))])[0]
    assert sum_many([v], [""], [(0, 0, v.diff)])[0] == DG(v.basis, {k: m.scale(2) for k, m in v.diff.items()})
    assert sum_many([v], [""], [(0, 0, {k: -m for k, m in v.diff.items()})])[0] == DG(v.basis)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_bicartesian_flags_match_the_hand_written_maps(seed):
    rng = Random(seed)
    s, t, f, g = random_commuting_square(rng, 0, 2)
    assert is_bicartesian(s, t, f, g) == _old_is_bicartesian(s, t, f, g)
    # a square with two identity edges is both cartesian and cocartesian
    u, w = random_dg(rng, 0, 2, 4, prefix="u"), random_dg(rng, 0, 2, 4, prefix="w")
    total, iu, _ = sum_dg(u, w)
    square = (iu, identity_map(u), identity_map(total), iu)
    assert is_bicartesian(*square) == _old_is_bicartesian(*square) == (True, True)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("mode", ["fiber", "cofiber"])
def test_total_fiber_square_maps_match_the_hand_written_ones(n, mode):
    x = DG({1: ("a",), 2: ("b", "c")}, {2: QMatrix.from_rows([[1, -1]])})
    cube = _test_cube(n, x)
    cell, square_map, total = (ho_fiber, _fiber_square_map, thfib) if mode == "fiber" else (
        ho_cofiber, _cofiber_square_map, thcof)
    while cube.n > 0:
        new, old = _collapse_last(cube, cell, square_map), _old_collapse_last(cube, mode)
        assert new.objects.keys() == old.objects.keys() and new.edges.keys() == old.edges.keys()
        assert all(_same(new.objects[s], old.objects[s]) for s in new.objects)
        assert all(_same(new.edges[e], old.edges[e]) for e in new.edges)
        cube = new
    assert total(_test_cube(n, x)) == cube.objects[frozenset()]


# -- basis positions as data: cube totals, the tensor index, the generator table ------


def _random_cube(rng, n):
    """A random commuting n-cube of one of two shapes: a chain A_0 -> ... -> A_n
    of random chain maps indexed by |S|, the edges adding e scaled by c_e; or
    S |-> the sum of random pieces X_R over R <= S, with summand inclusions."""
    from itertools import combinations

    elements = range(1, n + 1)
    subsets = [frozenset(c) for r in range(n + 1) for c in combinations(elements, r)]
    ups = [(s, e) for s in subsets for e in elements if e not in s]
    if rng.random() < 0.5:
        objs = [random_dg(rng, 0, 3, 3, prefix=f"a{r}_") for r in range(n + 1)]
        maps = [random_chain_map(rng, a, b) for a, b in zip(objs, objs[1:])]
        scale = {e: rng.choice([1, -1, 2, Fraction(1, 2), 0]) for e in elements}
        edges = {(s, s | {e}): map_scale(scale[e], maps[len(s)]) for s, e in ups}
        return Cube(n, {s: objs[len(s)] for s in subsets}, edges)
    pieces = {s: random_dg(rng, 0, 2, 2, prefix="p" + "".join(map(str, sorted(s))) + "_") for s in subsets}
    sums = {s: sum_many([pieces[r] for r in subsets if r <= s]) for s in subsets}
    edges = {}
    for s, e in ups:
        (src, src_in), (tgt, tgt_in) = sums[s], sums[s | {e}]
        inside = [r for r in subsets if r <= s | {e}]
        m = zero_map(src, tgt)
        for r, incl in zip([r for r in subsets if r <= s], src_in):
            m = map_add(m, compose(tgt_in[inside.index(r)], projection(incl)))
        edges[(s, s | {e})] = m
    return Cube(n, {s: total for s, (total, _) in sums.items()}, edges)


def _check_strands(total, places, cube, mode, vdeg):
    """Each strand's place holds the basis element of its name and carries the
    strand's vertical degree top - |t| in vdeg, and the strands fill the total."""
    top = 1 if mode == "limit" else cube.n - 1
    for t, at in places.items():
        v, obj = top - len(t), cube.objects[t]
        assert sorted(at) == [(k + v, c) for k in obj.degrees() for c in range(obj.dim(k))]
        assert all(total.basis[k][r] == f"{_subset_tag(t)}:{obj.basis[k - v][c]}@v{v}" for (k, c), r in at.items())
        assert all(vdeg[k][r] == v for (k, _), r in at.items())
    assert {(k, r) for at in places.values() for (k, _), r in at.items()} == {
        (k, r) for k in total.degrees() for r in range(total.dim(k))}
    assert {k: len(vs) for k, vs in vdeg.items()} == {k: total.dim(k) for k in total.degrees()}
    assert sum(cube.objects[t].total_dim() for t in places) == total.total_dim()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 4), st.sampled_from(["limit", "colimit"]))
def test_cube_totals_equal_tot_of_cube_bidg_on_random_cubes(seed, n, mode):
    cube = _random_cube(Random(seed), n)
    assert cube.validate_commuting() == []
    (total, places), b = _cube_sum(mode, cube), cube_bidg(cube, mode)
    assert _same(total, tot(b)) and _same(total, ho_cube(mode, cube))
    _check_strands(total, places, cube, mode, b.vdeg)


@pytest.mark.parametrize("n", range(7))
@pytest.mark.parametrize("mode", ["limit", "colimit"])
def test_cube_totals_equal_tot_of_cube_bidg_on_test_cubes(n, mode):
    x = DG({1: ("a",), 2: ("b", "c")}, {2: QMatrix.from_rows([[1, -1]])})
    cube = _test_cube(n, x)
    (total, places), b = _cube_sum(mode, cube), cube_bidg(cube, mode)
    assert _same(total, tot(b))
    _check_strands(total, places, cube, mode, b.vdeg)


def _old_cube_sum(mode, cube, cap=6):
    """_cube_sum as a sum_many of strand DGs: each strand shifted and renamed,
    each edge a twist entry, and the inclusion of each strand."""
    if cube.n > cap:
        raise ValueError(f"cube dimension {cube.n} exceeds cap {cap}")
    problems = cube.validate_commuting()
    if problems:
        raise ValueError("non-commuting cube: " + problems[0])
    if mode == "limit":
        strands, top = [s for s in cube.objects if s], 1
    elif mode == "colimit":
        strands, top = [s for s in cube.objects if len(s) < cube.n], cube.n - 1
    else:
        raise ValueError(f"unknown mode {mode!r}")
    strands.sort(key=lambda s: (len(s), sorted(s)))
    at = {t: i for i, t in enumerate(strands)}

    def strand(t):
        v, tag = top - len(t), _subset_tag(t)
        shifted = shift(cube.objects[t], v, tag="")
        return DG({k: tuple(f"{tag}:{x}@v{v}" for x in xs) for k, xs in shifted.basis.items()}, dict(shifted.diff))

    twist = []
    for t in strands:
        for e in range(1, cube.n + 1):
            if e not in t and t | {e} in at:
                sign, v, edge = _incl_sign(t, e), top - len(t), cube.edge(t, t | {e})
                blocks = edge.blocks if sign == 1 else {k: m.scale(sign) for k, m in edge.blocks.items()}
                twist.append((at[t | {e}], at[t], {k + v: m for k, m in blocks.items()}))
    total, incls = sum_many([strand(t) for t in strands], [""] * len(strands), twist)
    return total, dict(zip(strands, incls))


def _old_places_cube_sum(mode, cube):
    """_old_cube_sum with the places of its inclusions, as _cube_sum returns them."""
    total, incls = _old_cube_sum(mode, cube)
    return total, {t: _places(incl) for t, incl in incls.items()}


def _cube_of(rng, kind, n):
    if kind == "random":
        return _random_cube(rng, min(n, 4))
    if kind == "test":
        return _test_cube(n, random_dg(rng, 0, 2, 2))
    return _coproduct_cube([random_dg(rng, 0, 2, 2, prefix=f"y{i}") for i in range(n)])[0]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["random", "test", "coproduct"]), st.integers(0, 6),
       st.sampled_from(["limit", "colimit"]))
def test_cube_sum_lays_out_what_the_strand_sum_built(seed, kind, n, mode):
    cube = _cube_of(Random(seed), kind, n)
    (total, places), (old, incls) = _cube_sum(mode, cube), _old_cube_sum(mode, cube)
    assert _same(total, old) and list(total.diff) == list(old.diff)
    for k, m in old.diff.items():
        got = total.diff[k].entries
        assert list(got.items()) == list(m.entries.items())
        # the shared +-1 of shift's scale(+-1) and of the twist, object for object
        assert all(got[key] is x for key, x in m.entries.items() if abs(x) == 1)
    assert places == {t: _places(incl) for t, incl in incls.items()}
    assert list(places) == list(incls)


def test_cube_sum_raises_what_the_strand_sum_raised():
    x = DG({1: ("a",), 2: ("b", "c")}, {2: QMatrix.from_rows([[1, -1]])})
    cube = _test_cube(3, x)
    e1 = (frozenset(), frozenset({1}))
    twice = Cube(3, cube.objects, {**cube.edges, e1: map_scale(2, cube.edges[e1])})
    loose = Cube(3, cube.objects, {**cube.edges, e1: zero_map(x, x)})
    cases = [("limit", cube, 2), ("colimit", twice, 3), ("limit", loose, 3), ("total", cube, 3)]
    for mode, c, cap in cases:
        with pytest.raises(ValueError) as old:
            _old_cube_sum(mode, c, cap)
        # the cap is ho_cube's; the other checks are _cube_sum's, which cube_bidg shares
        calls = [lambda: ho_cube(mode, c, cap)]
        if c.n <= cap:
            calls += [lambda: _cube_sum(mode, c), lambda: cube_bidg(c, mode)]
        for call in calls:
            with pytest.raises(ValueError) as new:
                call()
            assert str(new.value) == str(old.value)


def _blockwise_report(b):
    """BiDG.validate's lines from three block products per bidegree (h, v),
    read through get_dh and get_dv, in the order dh^2, dv^2, dh dv + dv dh."""
    dh, dv, report = b.get_dh, b.get_dv, []
    for h, v in sorted({(k - v, v) for k, vs in b.vdeg.items() for v in vs}):
        for name, m in (("dh^2", dh((h - 1, v)) * dh((h, v))), ("dv^2", dv((h, v - 1)) * dv((h, v))),
                        ("dh dv + dv dh", dh((h, v - 1)) * dv((h, v)) + dv((h - 1, v)) * dh((h, v)))):
            if not m.is_zero():
                report.append(f"{name} != 0 at ({h},{v})")
    return report


def _with_strand_d(rng, cube, mode):
    """cube with one strand's d doubled, or with one entry added to it, and
    every edge re-ended on the new objects; cube if no strand has a d block."""
    spots = [(t, k) for t, x in cube.objects.items() if (t if mode == "limit" else len(t) < cube.n)
             for k in x.degrees() if x.dim(k - 1)]
    if not spots:
        return cube
    t, k = rng.choice(spots)
    x = cube.objects[t]
    if rng.random() < 0.5:
        diff = {j: m.scale(2) for j, m in x.diff.items()}
    else:
        one = {(rng.randrange(x.dim(k - 1)), rng.randrange(x.dim(k))): rng.choice([1, -1, 2])}
        diff = {**x.diff, k: x.d(k) + QMatrix(x.dim(k - 1), x.dim(k), one)}
    objects = {**cube.objects, t: DG(x.basis, diff)}
    return Cube(cube.n, objects, {(s, u): DGMap(objects[s], objects[u], m.blocks) for (s, u), m in cube.edges.items()})


def _with_total_entry(rng, b):
    """b with one entry added to its total's d, and the line validate must
    report for that entry when it is neither dh nor dv (else None)."""
    t = b.total
    spots = [k for k in t.degrees() if t.dim(k - 1)]
    if not spots:
        return b, None
    k = rng.choice(spots)
    r, c = rng.randrange(t.dim(k - 1)), rng.randrange(t.dim(k))
    d = t.d(k) + QMatrix(t.dim(k - 1), t.dim(k), {(r, c): rng.choice([1, -1, 2])})
    v, w = b.vdeg[k][c], b.vdeg[k - 1][r]
    line = None if v - w in (0, 1) else f"d maps ({k - v},{v}) into ({k - 1 - w},{w})"
    return BiDG(DG(t.basis, {**t.diff, k: d}), b.vdeg), line


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["random", "test", "coproduct"]), st.integers(0, 4),
       st.sampled_from(["limit", "colimit"]), st.sampled_from(["none", "strand", "total"]))
def test_bidg_validate_reports_the_blockwise_identities(seed, kind, n, mode, where):
    rng = Random(seed)
    cube = _cube_of(rng, kind, n)
    b = cube_bidg(_with_strand_d(rng, cube, mode) if where == "strand" else cube, mode)
    if where == "none":
        assert b.validate() == []
    if where == "total":
        b, line = _with_total_entry(rng, b)
        if line:
            assert line in b.validate()
            return
    assert b.validate() == _blockwise_report(b)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.sampled_from(["identity", "square", "coefficient"]),
       st.booleans())
def test_calculus_totals_are_unchanged_with_the_strand_sum(seed, n, kind, equal):
    import rht.calculus as calculus
    import rht.dgcore as dgcore

    rng = Random(seed)
    if kind == "identity":
        f = IdentityFunctor()
    elif kind == "square":
        f, n = TensorPowerFunctor(2), min(n, 3)
    else:
        f, n = CoefficientFunctor(random_dg(rng, 0, 1, 2, prefix="c")), min(n, 3)
    x, w = random_dg(rng, 0, 2, 2), random_dg(rng, 0, 2, 2, prefix="w")
    inputs = [x] * n if equal else [random_dg(rng, 0, 2, 2, prefix=f"y{i}") for i in range(n)]
    g, cube, tn = random_chain_map(rng, x, w), _random_cube(rng, n), min(n, 2)

    def run():
        cr = cross_effect(f, n, inputs)
        return (cr.underlying, *cr.action, *t_n(f, tn, x), TnFunctor(f, tn).apply_map(g),
                thfib_total(cube), thcof_total(cube))

    new = run()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dgcore, "_cube_sum", _old_places_cube_sum)
        mp.setattr(calculus, "_cube_sum", _old_places_cube_sum)
        old = run()
    assert _same(new, old)


def _old_tensor_dg(a, b):
    pairs = {}
    for i in a.degrees():
        for j in b.degrees():
            n = i + j
            for p in range(a.dim(i)):
                for q in range(b.dim(j)):
                    pairs.setdefault(n, []).append((i, p, j, q))
    basis = {}
    index = {}
    for n, lst in pairs.items():
        names = []
        for pos, (i, p, j, q) in enumerate(lst):
            index[(i, p, j, q)] = pos
            names.append(f"({a.basis[i][p]}⊗{b.basis[j][q]})")
        basis[n] = tuple(names)
    diff = {}
    for n, lst in pairs.items():
        tgt = pairs.get(n - 1, [])
        ent = {}
        for col, (i, p, j, q) in enumerate(lst):
            da = a.d(i)
            for r in range(a.dim(i - 1)):
                v = da.get(r, p)
                if v != 0:
                    ent[(index[(i - 1, r, j, q)], col)] = ent.get((index[(i - 1, r, j, q)], col), ZERO) + v
            sign = -ONE if i % 2 else ONE
            db = b.d(j)
            for r in range(b.dim(j - 1)):
                v = db.get(r, q)
                if v != 0:
                    key = (index[(i, p, j - 1, r)], col)
                    ent[key] = ent.get(key, ZERO) + sign * v
        if tgt:
            diff[n] = QMatrix(len(tgt), len(lst), ent)
    return DG(basis, diff)


def _old_tensor_index(a, b):
    pairs = {}
    index = {}
    for i in a.degrees():
        for j in b.degrees():
            n = i + j
            for p in range(a.dim(i)):
                for q in range(b.dim(j)):
                    index[(i, p, j, q)] = (n, pairs.get(n, 0))
                    pairs[n] = pairs.get(n, 0) + 1
    return index


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(-2, 2), st.integers(-2, 2))
def test_tensor_dg_and_its_index_match_the_hand_written_ones(seed, lo_a, lo_b):
    rng = Random(seed)
    a, b = random_dg(rng, lo_a, lo_a + 3, 5, prefix="a"), random_dg(rng, lo_b, lo_b + 3, 5, prefix="b")
    out, index = _tensor_with_index(a, b)
    assert _same(out, _old_tensor_dg(a, b)) and _same(tensor_dg(a, b), out)
    assert index == _old_tensor_index(a, b)
    assert all(out.basis[n][pos] == f"({a.basis[i][p]}⊗{b.basis[j][q]})" for (i, p, j, q), (n, pos) in index.items())


def _old_gen_position_dgl(b, d, gen_idx):
    pos = 0
    for i, gd in enumerate(b.deg):
        if i == gen_idx:
            return pos
        if gd == d:
            pos += 1
    raise ValueError("generator not found")


def _old_gen_position_dgc(c, d, gen_idx):
    pos = 0
    for i, gd in enumerate(c.deg):
        if i == gen_idx:
            return pos
        if gd == d:
            pos += 1
    raise ValueError("cogenerator not found")


def _old_gen_global(c, d, pos):
    seen = 0
    for i, gd in enumerate(c.deg):
        if gd == d:
            if seen == pos:
                return i
            seen += 1
    raise ValueError("cogenerator not found")


def _old_cogen_position(c, gen_idx):
    d = c.deg[gen_idx]
    pos = 0
    for i, gd in enumerate(c.deg):
        if i == gen_idx:
            return pos
        if gd == d:
            pos += 1
    raise ValueError("cogenerator not found")


def _old_abelian_position(l, gen_idx):
    pos = 0
    d = l.basis.deg[gen_idx]
    for i, gd in enumerate(l.basis.deg):
        if i == gen_idx:
            return pos
        if gd == d:
            pos += 1
    raise ValueError("generator not found")


def _old_gen_at(c, d, pos):
    seen = 0
    for i, gd in enumerate(c.deg):
        if gd == d:
            if seen == pos:
                return i
            seen += 1
    raise ValueError("cogenerator not found")


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 5), max_size=10))
def test_degree_positions_match_the_six_scanning_helpers(degs):
    from types import SimpleNamespace

    c = SimpleNamespace(deg=tuple(degs))
    l = SimpleNamespace(basis=c)
    pos, gens = _degree_positions(degs)
    for i, d in enumerate(degs):
        assert pos[i] == _old_gen_position_dgl(c, d, i) == _old_gen_position_dgc(c, d, i)
        assert pos[i] == _old_cogen_position(c, i) == _old_abelian_position(l, i)
    for d, idx in gens.items():
        assert idx == [_old_gen_global(c, d, p) for p in range(len(idx))] == [_old_gen_at(c, d, p) for p in range(len(idx))]
    assert sorted(i for idx in gens.values() for i in idx) == list(range(len(degs)))
