"""Chain-level oracles for the DG layer: cells, homotopy (co)limit models,
cubes, telescopes, and symmetric group actions.  Homology expectations are
computed independently (by hand or by counting) before being asserted.
"""

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
    combine,
    compose,
    cone_dg,
    cube_bidg,
    homology,
    homology_dims,
    ho_cube,
    ho_fiber_cofiber,
    ho_square,
    identity_map,
    is_bicartesian,
    is_contractible,
    is_quasi_iso,
    is_quasi_iso_through,
    map_from_names,
    map_scale,
    paths_dg,
    quotient_dg,
    reduce_truncate,
    shift,
    standard_tensor,
    sum_dg,
    sym_invariants,
    telescope,
    tensor_dg,
    validate_dg,
    zero_map,
)
from rht.exactq import ONE, QMatrix, extend_to_basis, image_pivot_columns, kernel_basis, rank, rat
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


def _three_reduction_homology(v: DG):
    """Cycles from ker d_k, a basis of the boundaries from the pivots of d_{k+1},
    then the cycles that extend the boundaries to a basis of both."""
    dims, reps = {}, {}
    for k in v.degrees():
        n = v.dim(k)
        cycles = kernel_basis(v.d(k))
        dkp1 = v.d(k + 1)
        bmat = QMatrix.from_columns([dkp1.column(j) for j in image_pivot_columns(dkp1)], n)
        chosen = extend_to_basis(bmat, QMatrix.from_columns(cycles, n))
        if chosen:
            dims[k] = len(chosen)
            reps[k] = [cycles[i] for i in chosen]
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


def test_quotient_that_does_not_span_is_an_internal_error(monkeypatch):
    monkeypatch.setattr("rht.exactq.solve_matrix", lambda m, b: None)
    with pytest.raises(AssertionError, match="internal: quotient basis does not span"):
        quotient_dg(DG({0: ("a", "b")}), {0: [(ONE, ONE)]})


# -- monoidal ---------------------------------------------------------------------


def test_tensor_unit():
    v = two_term()
    t = combine("tensor", ONE_DG, v)
    assert {k: t.dim(k) for k in t.degrees()} == {2: 1, 1: 1}
    assert homology_dims(t) == homology_dims(v)


def test_s_s_inv_cancel():
    v = DG({0: ("a",), 2: ("b", "c")})
    t = tensor_dg(shift(ONE_DG, 1), shift(ONE_DG, -1))
    assert homology_dims(t) == {0: 1}
    w = standard_tensor("s_inv", standard_tensor("s", v))
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
    hs = homology_dims(standard_tensor("s", v))
    assert hs == {k + 1: d for k, d in hv.items()}


# -- cells -----------------------------------------------------------------------


def test_cone_of_zero():
    assert standard_tensor("cone", ZERO_DG) == ZERO_DG


def test_bigS_bigP_shapes():
    v = sphere(2)
    bigs = standard_tensor("bigS", v)
    assert {k: bigs.dim(k) for k in bigs.degrees()} == {2: 1, 3: 2}
    assert homology_dims(bigs) == {3: 1}
    bigp = standard_tensor("bigP", v)
    assert {k: bigp.dim(k) for k in bigp.degrees()} == {2: 1, 1: 2}
    assert homology_dims(bigp) == {1: 1}


# -- reduction / truncation --------------------------------------------------------


def test_reduce_preserves_high_homology():
    rng = Random(13)
    for _ in range(15):
        v = random_dg(rng, -2, 4)
        r = rng.randint(-1, 3)
        red = reduce_truncate("reduce", r, v)
        assert validate_dg(red) == []
        hv = homology_dims(v)
        hr = homology_dims(red)
        assert hr == {k: d for k, d in hv.items() if k >= r}


def test_reduce_idempotent_on_reduced():
    v = DG({1: ("a",), 2: ("b",)})
    assert reduce_truncate("reduce", 1, v) == v


def test_truncate_differs_from_reduce():
    v = two_term(2)  # d: degree 2 -> degree 1
    red = reduce_truncate("reduce", 2, v)
    tru = reduce_truncate("truncate", 2, v)
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
    assert is_contractible(ho_fiber_cofiber("fiber", identity_map(v)))


def test_hofib_to_zero():
    v = two_term()
    fib = ho_fiber_cofiber("fiber", zero_map(v, ZERO_DG))
    assert {k: fib.dim(k) for k in fib.degrees()} == {2: 1, 1: 1}


def test_hocof_from_zero():
    w = sphere(2)
    cof = ho_fiber_cofiber("cofiber", zero_map(ZERO_DG, w))
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


# -- cartesian / cocartesian -------------------------------------------------------


def test_identity_square_bicartesian():
    v = two_term()
    i = identity_map(v)
    assert is_bicartesian(i, i, i, i) == (True, True)


def test_cone_square_bicartesian():
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


def test_sym_braid_validation_catches_bad_action():
    v = DG({0: ("a", "b", "c")})
    bad = DGMap(v, v, {0: QMatrix.from_rows([[0, 1, 0], [0, 0, 1], [1, 0, 0]])})
    sym = SymmetricDG(v, 3, [bad, identity_map(v)])
    assert sym.validate()  # a 3-cycle is not an involution


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
