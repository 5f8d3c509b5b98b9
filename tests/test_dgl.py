"""Lie-side oracles.

The monomial basis is checked against an independent rank computation: the
graded-commutator span in the tensor algebra, built length by length with its
own sign handling (no shared code with the implementation under test).
"""

from fractions import Fraction
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rht.dgcore import (
    DG,
    DGMap,
    ZERO_DG,
    homology_dims,
    identity_map,
    is_quasi_iso_through,
    ho_square,
    map_scale,
    reduce_with_inclusion,
    shift,
    strict_pullback,
    sum_dg,
    sum_many,
    validate_dg,
    zero_map,
)
from rht.dgl import (
    DGL,
    DGLMap,
    FreeDGL,
    FreeDGLMap,
    ZERO_DGL,
    abelian_dgl,
    abelianize,
    abelianize_dgl,
    dgl_ho_pullback,
    dgl_hofib,
    dgl_product,
    dgl_strict_product,
    dgl_validate,
    free_big_suspension,
    free_cone,
    free_cylinder,
    free_dgl_identity,
    free_lie_basis,
    free_product,
    free_suspension,
    hurewicz_check,
    identity_dgl_map,
    reduce_dgl,
    to_dgl,
    tp_add,
    tp_scale,
    zero_dgl_map,
)
from rht.exactq import ONE, QMatrix, rank, rat, solve_linear, solve_matrix, vec_add, vec_scale, zero_vec
from rht.randgen import random_chain_map, random_dg
from rht.dgl import _LazyBracketTable, _bracket_entry, dgl_map_from_gen_images
from rht.dgcore import _degree_positions, _restrict, projection
from rht.calculus import bracket_filtration, bracket_tower
from conftest import _old_bracket_filtration, _old_filtration_dgs, index_of
from rht.exactq import _unit_vec


# -- independent commutator-span oracle -----------------------------------------


def _comm(degs, a, b):
    """Graded commutator of word-polynomials (dict word -> coeff)."""
    out = {}

    def deg_of(word):
        return sum(degs[i] for i in word)

    for wa, ca in a.items():
        for wb, cb in b.items():
            sign = -1 if (deg_of(wa) * deg_of(wb)) % 2 else 1
            for w, c in ((wa + wb, ca * cb), (wb + wa, -sign * ca * cb)):
                out[w] = out.get(w, 0) + c
    return {w: c for w, c in out.items() if c}


def commutator_span_dims(gens, cap):
    """Per-degree rank of the span of all iterated commutators, degree <= cap."""
    degs = [d for _, d in gens]
    by_length = {1: [{(i,): Fraction(1)} for i in range(len(degs))]}
    maxlen = cap  # degrees are >= 1
    for ln in range(2, maxlen + 1):
        acc = []
        for i in range(1, ln):
            for a in by_length.get(i, []):
                for b in by_length.get(ln - i, []):
                    c = _comm(degs, a, b)
                    if c:
                        acc.append(c)
        by_length[ln] = acc
    per_degree = {}
    for polys in by_length.values():
        for p in polys:
            d = sum(degs[i] for i in next(iter(p)))
            if d <= cap:
                per_degree.setdefault(d, []).append(p)
    dims = {}
    for d, polys in per_degree.items():
        words = sorted({w for p in polys for w in p})
        idx = {w: i for i, w in enumerate(words)}
        cols = []
        for p in polys:
            v = [rat(0)] * len(words)
            for w, c in p.items():
                v[idx[w]] = rat(c)
            cols.append(tuple(v))
        r = rank(QMatrix.from_columns(cols, len(words)))
        if r:
            dims[d] = r
    return dims


def basis_dims(b):
    return {d: len(ms) for d, ms in b.monomials.items() if ms}


def test_one_even_generator():
    b = free_lie_basis([("x", 2)], 8)
    assert basis_dims(b) == {2: 1}
    assert commutator_span_dims([("x", 2)], 8) == {2: 1}


def test_one_odd_generator_has_square():
    b = free_lie_basis([("x", 1)], 4)
    assert basis_dims(b) == {1: 1, 2: 1}
    assert b.tree_name(b.monomials[2][0]) == "[x,x]"
    assert commutator_span_dims([("x", 1)], 4) == {1: 1, 2: 1}


def test_two_even_generators_dims_2_1_2():
    gens = [("x", 2), ("y", 2)]
    b = free_lie_basis(gens, 6)
    assert basis_dims(b) == {2: 2, 4: 1, 6: 2}
    assert commutator_span_dims(gens, 6) == {2: 2, 4: 1, 6: 2}


def test_degree_zero_generator_rejected():
    with pytest.raises(ValueError):
        free_lie_basis([("x", 0)], 4)


def test_basis_matches_oracle_randomized():
    rng = Random(31)
    for _ in range(12):
        n = rng.randint(1, 3)
        gens = [(f"g{i}", rng.randint(1, 3)) for i in range(n)]
        cap = rng.randint(max(d for _, d in gens), 6)
        b = free_lie_basis(gens, cap)
        assert basis_dims(b) == commutator_span_dims(gens, cap)


def test_truncation_coherence():
    gens = [("x", 1), ("y", 2)]
    big = free_lie_basis(gens, 6)
    small = free_lie_basis(gens, 4)
    assert {d: v for d, v in basis_dims(big).items() if d <= 4} == basis_dims(small)


# -- validation --------------------------------------------------------------------


def test_abelian_dgl_valid():
    v = DG({1: ("a",), 2: ("b",)})
    assert dgl_validate(abelian_dgl(v)) == []


def test_free_sphere_valid():
    l = FreeDGL(free_lie_basis([("x", 3)], 9), {})
    assert dgl_validate(l) == []


def test_missing_sign_reported():
    # [a,b] and [b,a] set equal: violates antisymmetry for odd.even degrees
    dg = DG({1: ("a",), 2: ("b",), 3: ("c",)})
    bad = DGL(dg, {(1, 0, 2, 0): (ONE,), (2, 0, 1, 0): (ONE,)})
    rep = dgl_validate(bad)
    assert any("antisymmetry" in r for r in rep)


def counterexample_dgl() -> DGL:
    """(Qv + Q[v,v] + Qw, dw = [v,v]) with |v| = 1: free only as a coincidence
    of dimensions, not as a Lie algebra."""
    dg = DG({1: ("v",), 2: ("u",), 3: ("w",)}, {3: QMatrix.from_rows([[1]])})
    return DGL(dg, {(1, 0, 1, 0): (ONE,)})


def test_counterexample_valid():
    assert dgl_validate(counterexample_dgl()) == []


def test_to_dgl_small_free_valid():
    b = free_lie_basis([("x", 1), ("y", 3)], 5)
    # dy = [x,x]
    l = FreeDGL(b, {1: dict(b.expand((0, 0)))})
    assert dgl_validate(l) == []
    dgl = to_dgl(l)
    h = homology_dims(dgl.underlying)
    # [x,x] is hit by y, so nothing survives in degree 2
    assert h.get(1) == 1 and 2 not in h


# -- coordinates against an independent solve ----------------------------------------

COORD_GENERATOR_SETS = [
    [("a", 1)],
    [("a", 1), ("b", 1)],
    [("a", 2), ("b", 3)],
    [("x", 2), ("y", 2), ("z", 4)],
    [("a", 1), ("b", 2), ("c", 3)],
]


def _words(deg, cap):
    """Every word of each degree up to cap, in generators of the given degrees:
    the ones of degree d start with generator i and go on with a word of
    degree d - deg[i], for i in order."""
    words = {0: ((),)}
    for d in range(1, cap + 1):
        words[d] = tuple((i,) + w for i, gd in enumerate(deg) if gd <= d for w in words[d - gd])
    return words


def _solved_coords(b, poly, d):
    """Solve expansion matrix * x = poly in degree d; None if not in the span."""
    words = _words(b.deg, d)[d]
    row = {w: i for i, w in enumerate(words)}
    ms = b.monomials.get(d, ())
    m = QMatrix(len(words), len(ms), {
        (row[w], j): c for j, t in enumerate(ms) for w, c in b.expand(t).items()
    })
    return solve_linear(m, tuple(rat(poly.get(w, 0)) for w in words))


def _basis_pairs(b):
    for d1, ms1 in b.monomials.items():
        for d2, ms2 in b.monomials.items():
            if d1 + d2 <= b.cap:
                for t1 in ms1:
                    for t2 in ms2:
                        yield d1 + d2, b.bracket_poly(b.expand(t1), b.expand(t2))


@pytest.mark.parametrize("gens", COORD_GENERATOR_SETS)
def test_coords_match_an_independent_solve(gens):
    b = free_lie_basis(gens, 6)
    rejected = 0
    for d, poly in _basis_pairs(b):
        zeros = zero_vec(len(b.monomials.get(d, ())))
        assert b.coords(poly).get(d, zeros) == _solved_coords(b, poly, d)
        if len(poly) < 2:
            continue
        # one more copy of the largest word; the solve decides whether it
        # leaves the Lie span
        bad = dict(poly)
        bad[max(bad)] += 1
        want = _solved_coords(b, bad, d)
        if want is None:
            rejected += 1
            with pytest.raises(ValueError, match="not in the Lie span"):
                b.coords(bad)
        else:
            assert b.coords(bad)[d] == want
    assert rejected or gens == [("a", 1)]


# -- the Lyndon basis against the search over all words it replaced ----------------


def _is_lyndon(w):
    return all(w < w[i:] for i in range(1, len(w)))


def _lyndon_tree(w):
    if len(w) == 1:
        return w[0]
    # standard factorization: split before the smallest proper suffix
    cut = min(range(1, len(w)), key=lambda i: w[i:])
    return (_lyndon_tree(w[:cut]), _lyndon_tree(w[cut:]))


def _searched_monomials(deg, cap):
    """Test every word for the Lyndon property and bracket it by its standard
    factorization; add the square of each odd Lyndon monomial."""
    words = _words(deg, cap)
    per_degree = {}
    for d in range(1, cap + 1):
        for w in words[d]:
            if len(w) >= 1 and _is_lyndon(w):
                t = _lyndon_tree(w)
                per_degree.setdefault(d, []).append(((len(w),) + w, t))
                if d % 2 == 1 and 2 * d <= cap:
                    per_degree.setdefault(2 * d, []).append(((2 * len(w),) + w + w, (t, t)))
    return {
        d: tuple(t for _, t in sorted(lst, key=lambda p: p[0]))
        for d, lst in sorted(per_degree.items())
        if d <= cap
    }


# the search lists every word, so the caps stop where it lists this many
WORD_BUDGET = 20_000


@st.composite
def lyndon_case(draw):
    """1-4 generators of degrees 1-4, and a cap up to 12 within the word budget."""
    deg = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=4)))
    counts, total, top = {0: 1}, 0, max(deg)
    for d in range(1, 13):
        counts[d] = sum(counts[d - gd] for gd in deg if gd <= d)
        total += counts[d]
        if d >= max(deg) and total <= WORD_BUDGET:
            top = d
    return deg, draw(st.integers(max(deg), top))


@settings(max_examples=150, deadline=None)
@given(lyndon_case())
def test_lyndon_monomials_from_pairs_match_the_word_search(case):
    deg, cap = case
    b = free_lie_basis([(f"g{i}", d) for i, d in enumerate(deg)], cap)
    assert b.monomials == _searched_monomials(deg, cap)


def test_odd_square_leads_with_coefficient_two():
    b = free_lie_basis([("a", 1), ("b", 3)], 6)
    names = [b.tree_name(t) for t in b.monomials[6]]
    sq = b.monomials[6][names.index("[b,b]")]
    assert min(b.expand(sq)) == (1, 1) and b.expand(sq)[(1, 1)] == 2
    want = tuple(Fraction(1, 2) if t == sq else rat(0) for t in b.monomials[6])
    assert b.coords({(1, 1): rat(1)}) == {6: want}


@pytest.mark.parametrize("r, most", [(3, 32), (5, 0)])
def test_reducing_a_lazy_table_computes_only_the_entries_it_reads(r, most):
    def lazy():
        b = free_lie_basis([("a", 1), ("b", 2), ("c", 3)], 8)
        # d b = a, d c = [a,a]
        return to_dgl(FreeDGL(b, {1: {(0,): ONE}, 2: dict(b.expand((0, 0)))}))

    l, whole = lazy(), lazy()
    eager = DGL(whole.underlying, dict(whole.bracket.items()), cap=whole.cap)
    assert len(whole.bracket._entries) == 151
    reduced = reduce_dgl(r, l)
    assert len(l.bracket._entries) <= most
    assert reduced == reduce_dgl(r, eager) and dgl_validate(reduced) == []


def test_lazy_bracket_table_equals_the_eager_one():
    b = free_lie_basis([("a", 1), ("b", 2), ("c", 3)], 6)
    # d b = a, d c = [a,a]
    l = FreeDGL(b, {1: {(0,): ONE}, 2: dict(b.expand((0, 0)))})
    eager = {}
    for d1, ms1 in b.monomials.items():
        for d2, ms2 in b.monomials.items():
            if d1 + d2 not in b.monomials:
                continue
            for i1, t1 in enumerate(ms1):
                for i2, t2 in enumerate(ms2):
                    vec = b.coords(b.bracket_poly(b.expand(t1), b.expand(t2))).get(d1 + d2)
                    if vec and any(vec):
                        eager[(d1, i1, d2, i2)] = vec
    lazy = to_dgl(l)
    assert dict(lazy.bracket.items()) == eager
    assert lazy == DGL(lazy.underlying, eager, cap=b.cap)
    assert dgl_validate(lazy) == []


def _bracket_table(b):
    """The eager structure-constant table the lazy one replaced: every pair of
    monomials whose bracket lands in a degree of the basis, one _bracket_entry
    each, by degrees, then by indices."""
    table = {}
    degs = sorted(b.monomials)
    for d1 in degs:
        for d2 in degs:
            if d1 + d2 > b.cap or (d1 + d2) not in b.monomials:
                continue
            for i1 in range(len(b.monomials[d1])):
                for i2 in range(len(b.monomials[d2])):
                    vec = _bracket_entry(b, d1, i1, d2, i2)
                    if vec is not None:
                        table[(d1, i1, d2, i2)] = vec
    return table


@pytest.mark.parametrize("gens, cap", [([("a", 1), ("b", 2), ("c", 3)], 6), ([("x", 1), ("y", 3)], 7),
                                       ([("x", 2), ("y", 3)], 8), ([("u", 1)], 4), ([("a", 1), ("b", 1)], 5)])
def test_lazy_bracket_table_equals_the_eager_oracle_in_items_order_and_length(gens, cap):
    b = free_lie_basis(gens, cap)
    eager, lazy = _bracket_table(b), _LazyBracketTable(b)
    assert list(lazy.items()) == list(eager.items()) and list(lazy) == list(eager) and len(lazy) == len(eager)


def test_lazy_bracket_table_iterates_through_its_memo(monkeypatch):
    b = free_lie_basis([("a", 1), ("b", 2), ("c", 3)], 6)
    eager = _bracket_table(b)
    lazy = _LazyBracketTable(b)
    computed = []
    monkeypatch.setattr("rht.dgl._bracket_entry", lambda b, *key: computed.append(key) or _bracket_entry(b, *key))
    asked = list(eager)[::3] + [(1, 0, 1, 0), (2, 0, 2, 0)]  # nonzero entries and zero brackets
    for key in asked:
        assert lazy.get(key) == eager.get(key)
    assert list(lazy.items()) == list(eager.items()) and len(lazy) == len(eager)
    candidates = [(d1, i1, d2, i2) for d1 in sorted(b.monomials) for d2 in sorted(b.monomials)
                  if d1 + d2 <= b.cap and d1 + d2 in b.monomials
                  for i1 in range(len(b.monomials[d1])) for i2 in range(len(b.monomials[d2]))]
    assert sorted(computed) == sorted(candidates)  # once per candidate key, the asked ones included


def test_lazy_bracket_table_computes_only_the_keys_it_is_asked_for(monkeypatch):
    b = free_lie_basis([("a", 1), ("b", 2), ("c", 3)], 6)
    eager = _bracket_table(b)
    lazy = _LazyBracketTable(b)
    computed = []
    monkeypatch.setattr("rht.dgl._bracket_entry", lambda b, *key: computed.append(key) or _bracket_entry(b, *key))
    # every pair of monomials, zero brackets and pairs above the cap included, and keys outside the basis
    sizes = {d: len(ms) for d, ms in b.monomials.items()}
    keys = [(d1, i1, d2, i2) for d1 in range(-1, 8) for d2 in range(-1, 8)
            for i1 in range(-1, sizes.get(d1, 0) + 1) for i2 in range(-1, sizes.get(d2, 0) + 1)]
    for key in keys + keys:
        assert lazy.get(key) == eager.get(key)
        if key not in eager:
            with pytest.raises(KeyError):
                lazy[key]
    assert sorted(computed) == sorted(set(keys))  # once per key asked for
    assert list(lazy.items()) == list(eager.items()) and len(lazy) == len(eager)


# -- coproducts and products ----------------------------------------------------------


def test_free_product_with_zero():
    a = FreeDGL(free_lie_basis([("x", 2)], 6), {})
    z = FreeDGL(free_lie_basis([], 6), {})
    assert basis_dims(free_product(a, z).basis) == basis_dims(a.basis)


def test_free_product_dims_match_union():
    a = FreeDGL(free_lie_basis([("x", 1)], 5), {})
    b = FreeDGL(free_lie_basis([("y", 2)], 5), {})
    p = free_product(a, b)
    assert basis_dims(p.basis) == basis_dims(free_lie_basis([("x", 1), ("y", 2)], 5))
    ab = abelianize(p)
    assert {k: ab.dim(k) for k in ab.degrees()} == {1: 1, 2: 1}


def test_strict_product_with_zero():
    a = counterexample_dgl()
    p = dgl_strict_product(a, ZERO_DGL)[0]
    assert dgl_validate(p) == []
    assert homology_dims(p.underlying) == homology_dims(a.underlying)


def test_strict_product_homology_adds():
    a = counterexample_dgl()
    p, p1, p2 = dgl_strict_product(a, a)
    assert dgl_validate(p) == []
    assert dgl_validate(p1) == [] and dgl_validate(p2) == []
    ha = homology_dims(a.underlying)
    assert homology_dims(p.underlying) == {k: 2 * v for k, v in ha.items()}


def test_free_product_model_projection_quasi_iso():
    a = FreeDGL(free_lie_basis([("x", 2)], 6), {})
    b = FreeDGL(free_lie_basis([("y", 2)], 6), {})
    model, witness = dgl_product(a, b)
    assert dgl_validate(model) == []
    assert dgl_validate(witness) == []
    assert is_quasi_iso_through(witness.dgmap, 5)


def test_free_product_model_is_checked_with_its_whole_differential(monkeypatch):
    """The [v, w] terms are in the differential the model's constructor
    checks: nothing is added to it afterwards."""
    a = FreeDGL(free_lie_basis([("x", 2), ("u", 3)], 7), {1: {(0,): ONE}})
    b = FreeDGL(free_lie_basis([("y", 2)], 7), {})
    received = []
    init = FreeDGL.__init__

    def recording(self, basis, gen_diff):
        received.append({i: dict(p) for i, p in gen_diff.items()})
        init(self, basis, gen_diff)

    monkeypatch.setattr(FreeDGL, "__init__", recording)
    model, _ = dgl_product(a, b)
    assert model.gen_diff == received[-1]
    assert any(len(w) == 2 for p in model.gen_diff.values() for w in p)
    monkeypatch.undo()
    assert model == _old_dgl_product(a, b, "free")[0]


# -- abelianization --------------------------------------------------------------------


def test_abelianize_free():
    b = free_lie_basis([("x", 1), ("y", 2)], 5)
    l = FreeDGL(b, {1: {(0,): ONE}})  # dy = x
    ab = abelianize(l)
    assert {k: ab.dim(k) for k in ab.degrees()} == {1: 1, 2: 1}
    assert ab.d(2).get(0, 0) == 1


def test_abelianize_counterexample():
    ab, proj = abelianize_dgl(counterexample_dgl())
    assert {k: ab.dim(k) for k in ab.degrees()} == {1: 1, 3: 1}
    assert homology_dims(ab) == {1: 1, 3: 1}


def test_abelianize_abelian_identity():
    v = DG({2: ("a", "b")})
    ab, _ = abelianize_dgl(abelian_dgl(v))
    assert {k: ab.dim(k) for k in ab.degrees()} == {2: 2}


# -- homotopy pullback ------------------------------------------------------------------


def test_pullback_of_zeros_is_loops():
    k = counterexample_dgl()
    p, witness = dgl_ho_pullback(zero_dgl_map(ZERO_DGL, k), zero_dgl_map(ZERO_DGL, k))
    assert dgl_validate(p) == []
    dims = {m: p.underlying.dim(m) for m in p.underlying.degrees() if p.underlying.dim(m)}
    assert dims == {0: 1, 1: 1, 2: 1}  # s^-1 of degrees 1,2,3
    assert not any(any(v) for v in p.bracket.values())


def test_pullback_over_zero_is_product():
    l = counterexample_dgl()
    p, witness = dgl_ho_pullback(zero_dgl_map(l, ZERO_DGL), zero_dgl_map(l, ZERO_DGL))
    assert dgl_validate(p) == []
    assert homology_dims(p.underlying) == {
        k: 2 * v for k, v in homology_dims(l.underlying).items()
    }
    assert dgl_validate(witness) == []


def test_pullback_along_identity_half_brackets():
    k = counterexample_dgl()
    i = identity_dgl_map(k)
    p, witness = dgl_ho_pullback(i, i)
    assert dgl_validate(p) == []
    assert dgl_validate(witness) == []
    assert is_quasi_iso_through(witness.dgmap, 10)
    # mixed bracket carries the 1/2 factor: [s^-1 v, v] = 1/2 s^-1 [v, v]
    val = p.bracket.get((0, 0, 1, 0))
    assert val is not None
    nv = k.underlying.dim(1)
    assert val[nv] == Fraction(1, 2)


def test_hofib_matches_two_strand_formula():
    k = counterexample_dgl()
    fib = dgl_hofib(identity_dgl_map(k))
    assert dgl_validate(fib) == []
    assert homology_dims(fib.underlying) == {}


def test_pullback_reduce_to():
    k = counterexample_dgl()
    p = reduce_dgl(1, dgl_ho_pullback(zero_dgl_map(ZERO_DGL, k), zero_dgl_map(ZERO_DGL, k))[0])
    assert dgl_validate(p) == []
    assert all(m >= 1 for m in p.underlying.degrees() if p.underlying.dim(m))


# -- cones, suspensions, cylinders ----------------------------------------------------


def truly_free_example(cap=6) -> FreeDGL:
    b = free_lie_basis([("x", 1), ("y", 2)], cap)
    return FreeDGL(b, {1: {(0,): ONE}})  # dy = x


def test_suspension_one_generator():
    l = FreeDGL(free_lie_basis([("x", 3)], 6), {})
    s = free_suspension(l)
    assert basis_dims(s.basis) == {4: 1}
    assert s.basis.generators[0] == ("s(x)", 4)


def test_cone_contractible():
    l = truly_free_example()
    c = free_cone(l)
    assert dgl_validate(c) == []
    h = homology_dims(to_dgl(c).underlying)
    assert not {k: v for k, v in h.items() if k < c.cap}


def test_cone_rejects_higher_differential():
    b = free_lie_basis([("x", 1), ("y", 3)], 6)
    l = FreeDGL(b, {1: dict(b.expand((0, 0)))})  # dy = [x,x]
    with pytest.raises(ValueError):
        free_cone(l)
    s = free_suspension(l)  # drops the quadratic part
    assert dgl_validate(s) == []


def test_suspension_commutes_with_abelianization():
    l = truly_free_example()
    lhs = abelianize(free_suspension(l))
    ab = abelianize(l)
    assert {k: lhs.dim(k) for k in lhs.degrees()} == {
        k + 1: ab.dim(k) for k in ab.degrees()
    }
    assert lhs.d(3).get(0, 0) == -ab.d(2).get(0, 0)


def test_bigS_valid_and_projections_exist():
    l = truly_free_example(5)
    big = free_big_suspension(l)
    assert dgl_validate(big) == []
    # strand count: 2 suspended copies + original generators
    assert len(big.basis.generators) == 3 * len(l.basis.generators)


def test_cylinder_of_identity_is_cone():
    l = truly_free_example(5)
    zero = FreeDGL(free_lie_basis([], 5), {})
    cyl = free_cylinder(FreeDGLMap(l, zero, {}), free_dgl_identity(l))
    assert dgl_validate(cyl) == []
    h = homology_dims(to_dgl(cyl).underlying)
    assert not {k: v for k, v in h.items() if k < cyl.cap}


def test_cylinder_of_zeros_is_suspension():
    l = truly_free_example(5)
    zero = FreeDGL(free_lie_basis([], 5), {})
    cyl = free_cylinder(FreeDGLMap(l, zero, {}), FreeDGLMap(l, zero, {}))
    s = free_suspension(l)
    assert basis_dims(cyl.basis) == basis_dims(s.basis)
    assert homology_dims(to_dgl(cyl).underlying) == homology_dims(to_dgl(s).underlying)


def test_cylinder_abelianization_matches_dg_pushout():
    u = FreeDGL(free_lie_basis([("a", 2)], 5), {})
    w = FreeDGL(free_lie_basis([("b", 2)], 5), {})
    v = FreeDGL(free_lie_basis([("x", 2)], 5), {})
    f = FreeDGLMap(v, u, {0: {(0,): ONE}})
    g = FreeDGLMap(v, w, {0: {(0,): rat(2)}})
    cyl = free_cylinder(f, g)
    ab = abelianize(cyl)
    push, _ = ho_square("pushout", f.abelianized(), g.abelianized())
    assert {k: ab.dim(k) for k in ab.degrees()} == {
        k: push.dim(k) for k in push.degrees()
    }
    assert homology_dims(ab) == homology_dims(push)


def test_cylinder_rejects_non_free_map():
    l = FreeDGL(free_lie_basis([("x", 2)], 4), {})
    t = FreeDGL(free_lie_basis([("a", 1), ("b", 1)], 4), {})
    bad = FreeDGLMap(l, t, {0: dict(t.basis.expand((0, 1)))})  # x -> [a,b]
    zero = FreeDGL(free_lie_basis([], 4), {})
    with pytest.raises(ValueError):
        free_cylinder(bad, FreeDGLMap(l, zero, {}))


def test_free_dgl_maps_reject_generator_images_of_another_degree():
    # x -> y once gave to_dgmap() = 0 but abelianized() = (x -> x), and
    # x -> x + y silently became x -> x
    src = FreeDGL(free_lie_basis([("x", 2)], 6), {})
    tgt = FreeDGL(free_lie_basis([("x", 2), ("y", 3)], 6), {})
    for image in ({(1,): ONE}, {(0,): ONE, (1,): ONE}, {(0, 0): ONE}):
        with pytest.raises(ValueError, match="generator assignment is not degree 0"):
            FreeDGLMap(src, tgt, {0: image})
    for images in ({0: {(2,): ONE}}, {0: {(-1,): ONE}}, {1: {(0,): ONE}}):
        with pytest.raises(ValueError, match="names no generator"):
            FreeDGLMap(src, tgt, images)
    assert FreeDGLMap(src, tgt, {0: {(0,): rat(2)}}).abelianized().block(2).entries == {(0, 0): rat(2)}


def test_free_dgls_reject_inhomogeneous_or_unknown_differentials():
    b = free_lie_basis([("x", 1), ("y", 3)], 6)
    for diff in ({1: {(0,): ONE}}, {1: {(0, 0): ONE, (0,): ONE}}):
        with pytest.raises(ValueError, match=r"d\(y\) is not homogeneous of degree -1"):
            FreeDGL(b, diff)
    for diff in ({2: {(0, 0): ONE}}, {1: {(0, 2): ONE}}, {-1: {(0,): ONE}}):
        with pytest.raises(ValueError, match="names no generator"):
            FreeDGL(b, diff)
    assert FreeDGL(b, {1: dict(b.expand((0, 0)))}).gen_diff == {1: dict(b.expand((0, 0)))}


def test_free_objects_reject_words_outside_the_lie_span():
    # d c = ab once built and dgl_validate raised from coords; x -> ab once
    # built, to_dgmap() raised and abelianized() dropped the word
    b = free_lie_basis([("a", 1), ("b", 1), ("c", 3)], 4)
    src, tgt = FreeDGL(free_lie_basis([("x", 2)], 4), {}), FreeDGL(b, {})
    with pytest.raises(ValueError, match=r"^d\(c\) is not a Lie element$"):
        FreeDGL(b, {2: {(0, 1): ONE}})
    with pytest.raises(ValueError, match=r"^f\(x\) is not a Lie element$"):
        FreeDGLMap(src, tgt, {0: {(0, 1): ONE}})
    bracket = dict(b.expand((0, 1)))  # [a, b] = ab + ba
    assert dgl_validate(FreeDGL(b, {2: bracket})) == []
    assert FreeDGLMap(src, tgt, {0: bracket}).to_dgmap().block(2).entries == {(1, 0): ONE}  # [a,a], [a,b], [b,b]


def test_cylinder_rejects_nonlinear_middle():
    b = free_lie_basis([("x", 1), ("y", 3)], 6)
    v = FreeDGL(b, {1: dict(b.expand((0, 0)))})
    tgt = FreeDGL(free_lie_basis([("p", 1), ("q", 3)], 6), {1: dict(
        free_lie_basis([("p", 1), ("q", 3)], 6).expand((0, 0))
    )})
    f = FreeDGLMap(v, tgt, {0: {(0,): ONE}, 1: {(1,): ONE}})
    zero = FreeDGL(free_lie_basis([], 6), {})
    with pytest.raises(ValueError):
        free_cylinder(f, FreeDGLMap(v, zero, {}))


# -- bracket filtration -----------------------------------------------------------------


def test_filtration_bottom_is_abelianization():
    l = truly_free_example()
    towers, layers = bracket_filtration(l, 3)
    b1 = towers[0]
    ab = abelianize(l)
    assert {k: b1.underlying.dim(k) for k in b1.underlying.degrees()} == {
        k: ab.dim(k) for k in ab.degrees()
    }
    assert not any(any(v) for v in b1.bracket.values())
    for b in towers:
        assert dgl_validate(b) == []


def test_filtration_layer_two_even_generators():
    l = FreeDGL(free_lie_basis([("x", 2), ("y", 2)], 6), {})
    towers, layers = bracket_filtration(l, 2)
    assert {k: layers[1].dim(k) for k in layers[1].degrees() if layers[1].dim(k)} == {4: 1}


def test_filtration_layers_partition():
    l = truly_free_example()
    n = 4
    towers, layers = bracket_filtration(l, n)
    total = {}
    for lay in layers:
        for k in lay.degrees():
            total[k] = total.get(k, 0) + lay.dim(k)
    bn = towers[-1]
    assert total == {k: bn.underlying.dim(k) for k in bn.underlying.degrees() if bn.underlying.dim(k)}


@pytest.mark.parametrize("model", ["polynomial", "s3", "s4"])
def test_table_free_filtration_is_the_underlying_filtration(model):
    from rht.cli import build_model, parse_model
    from rht.quillen import cobar_L

    mf = parse_model(f"models/{model}.dgc")
    l = cobar_L(build_model(mf), mf.truncate)
    b = l.basis
    for n in range(1, 5):
        dgs, layers, keeps = _old_filtration_dgs(l, n)
        towers, want_layers = bracket_filtration(l, n)
        assert [list(g.basis.items()) for g in dgs] == [list(t.underlying.basis.items()) for t in towers]
        assert dgs == [t.underlying for t in towers] and layers == want_layers
        assert [list(g.basis.items()) for g in layers] == [list(g.basis.items()) for g in want_layers]
        full = to_dgl(l).underlying
        for k, keep in enumerate(keeps, 1):
            assert keep == {d: [i for i, t in enumerate(ms) if b.tree_length(t) <= k] for d, ms in b.monomials.items()}
            assert _restrict(full, keep) == dgs[k - 1]


def test_table_free_filtration_computes_no_structure_constant(monkeypatch):
    import rht.dgl as dgl

    want = _old_bracket_filtration(truly_free_example(), 3)
    l = truly_free_example()
    to_dgl(l)  # the differential, built before the patch
    # every structure constant goes through _bracket_entry
    monkeypatch.setattr(dgl, "_bracket_entry", lambda *args: pytest.fail("a structure constant was computed"))
    tower = bracket_tower(l, 3)
    assert tower.objects == [t.underlying for t in want[0]] and tower.layers == want[1]
    with pytest.raises(ValueError, match="depth"):
        bracket_tower(l, 0)


# -- Hurewicz ---------------------------------------------------------------------------


def test_hurewicz_identity():
    l = truly_free_example()
    assert hurewicz_check(free_dgl_identity(l)) == (True, True)


def test_hurewicz_free_flags_agree():
    cap = 5
    b1 = free_lie_basis([("x", 1), ("y", 2)], cap)
    b2 = free_lie_basis([("a", 1), ("b", 2)], cap)
    l1 = FreeDGL(b1, {1: {(0,): ONE}})
    l2 = FreeDGL(b2, {1: {(0,): rat(3)}})
    # x -> 3a, y -> b: chain map, abelianization is an iso
    f = FreeDGLMap(l1, l2, {0: {(0,): rat(3)}, 1: {(1,): ONE}})
    assert hurewicz_check(f) == (True, True)
    # everything to zero: a chain map that is not a quasi-iso on either side
    z1 = FreeDGL(free_lie_basis([("x", 1)], cap), {})
    z2 = FreeDGL(free_lie_basis([("a", 1)], cap), {})
    g = FreeDGLMap(z1, z2, {})
    flags = hurewicz_check(g)
    assert flags == (False, False)


def test_hurewicz_counterexample_flags_disagree():
    l = counterexample_dgl()
    ab, proj = abelianize_dgl(l)
    f = DGLMap(l, abelian_dgl(ab), proj)
    assert dgl_validate(f) == []
    q, abq = hurewicz_check(f)
    assert (q, abq) == (False, True)


# -- the sparse validator against the dense loops -------------------------------------


def _unit(n, i):
    return tuple(ONE if j == i else rat(0) for j in range(n))


def _dense_dgl_validate(l):
    """dgl_validate as full loops over every basis pair and triple (the oracle)."""
    if isinstance(l, DGLMap):
        report = list(validate_dg(l.dgmap))
        sl, tl = l.source, l.target
        caps = [c for c in (sl.cap, tl.cap) if c is not None]
        dg = sl.underlying
        for k1 in dg.degrees():
            for k2 in dg.degrees():
                k = k1 + k2
                if caps and k > min(caps):
                    continue
                if not tl.underlying.dim(k):
                    continue
                for i1 in range(dg.dim(k1)):
                    f1 = l.dgmap.apply(k1, _unit(dg.dim(k1), i1))
                    for i2 in range(dg.dim(k2)):
                        e2 = _unit(dg.dim(k2), i2)
                        lhs = l.dgmap.apply(k, sl.bracket_basis(k1, i1, k2, i2))
                        rhs = tl.bracket_vec(k1, f1, k2, l.dgmap.apply(k2, e2))
                        if lhs != rhs:
                            report.append(f"map does not respect brackets at ({k1},{i1}),({k2},{i2})")
        return report
    report = list(validate_dg(l.underlying))
    dg = l.underlying
    items = [(k, i) for k in dg.degrees() for i in range(dg.dim(k))]
    for (k1, i1) in items:
        for (k2, i2) in items:
            v12 = l.bracket_basis(k1, i1, k2, i2)
            v21 = l.bracket_basis(k2, i2, k1, i1)
            sign = -ONE if (k1 * k2) % 2 else ONE
            if v12 != vec_scale(-sign, v21):
                report.append(f"antisymmetry fails at ({k1},{i1}),({k2},{i2})")
            if l.cap is not None and k1 + k2 > l.cap:
                continue
            e1 = _unit(dg.dim(k1), i1)
            e2 = _unit(dg.dim(k2), i2)
            lhs = dg.d(k1 + k2).apply(v12) if dg.dim(k1 + k2) else zero_vec(dg.dim(k1 + k2 - 1))
            t1 = l.bracket_vec(k1 - 1, dg.d(k1).apply(e1), k2, e2)
            t2 = l.bracket_vec(k1, e1, k2 - 1, dg.d(k2).apply(e2))
            rhs = vec_add(t1, vec_scale(-ONE if k1 % 2 else ONE, t2))
            if lhs != rhs:
                report.append(f"Leibniz fails at ({k1},{i1}),({k2},{i2})")
    for (k1, i1) in items:
        for (k2, i2) in items:
            for (k3, i3) in items:
                e1 = _unit(dg.dim(k1), i1)
                e2 = _unit(dg.dim(k2), i2)
                e3 = _unit(dg.dim(k3), i3)
                lhs = l.bracket_vec(k1, e1, k2 + k3, l.bracket_basis(k2, i2, k3, i3))
                r1 = l.bracket_vec(k1 + k2, l.bracket_basis(k1, i1, k2, i2), k3, e3)
                r2 = l.bracket_vec(k2, e2, k1 + k3, l.bracket_basis(k1, i1, k3, i3))
                rhs = vec_add(r1, vec_scale(-ONE if (k1 * k2) % 2 else ONE, r2))
                if lhs != rhs:
                    report.append(f"Jacobi fails at ({k1},{i1}),({k2},{i2}),({k3},{i3})")
                    if len(report) > 40:
                        return report
    return report


def _small_free(rng):
    """to_dgl of a small free DGL with a linear or quadratic differential."""
    c = rat(rng.choice([1, -1, 2, Fraction(1, 3)]))
    choice = rng.randrange(4)
    if choice == 0:
        b = free_lie_basis([("x", 1), ("y", 2)], rng.randint(3, 5))
        return to_dgl(FreeDGL(b, {1: {(0,): c}}))  # dy = c x
    if choice == 1:
        b = free_lie_basis([("x", 1), ("y", 3)], 5)
        return to_dgl(FreeDGL(b, {1: {w: c * v for w, v in b.expand((0, 0)).items()}}))  # dy = c [x,x]
    if choice == 2:
        b = free_lie_basis([("a", 1), ("b", 2), ("c", 3)], 4)
        return to_dgl(FreeDGL(b, {1: {(0,): ONE}, 2: {w: c * v for w, v in b.expand((0, 0)).items()}}))
    b = free_lie_basis([("x", 2), ("y", 3)], 6)
    return to_dgl(FreeDGL(b, {1: {(0,): c}}))


def _random_abelian(rng):
    return abelian_dgl(random_dg(rng, rng.randint(-1, 1), 3, 4))


def _random_table(rng):
    """A random bracket table on a few elements of degree -1 to 1: no axiom
    is expected to hold, so Jacobi fails often enough to end the report early."""
    dg = random_dg(rng, -1, 1, 5)
    table = {}
    for (k1, i1) in [(k, i) for k in dg.degrees() for i in range(dg.dim(k))]:
        for (k2, i2) in [(k, i) for k in dg.degrees() for i in range(dg.dim(k))]:
            if dg.dim(k1 + k2) and rng.random() < 0.6:
                table[(k1, i1, k2, i2)] = tuple(rat(rng.randint(-2, 2)) for _ in range(dg.dim(k1 + k2)))
    return DGL(dg, table)


def _random_pullback(rng):
    kind = rng.randrange(4)
    if kind == 0:
        a, b = _random_abelian(rng), _random_abelian(rng)
        return dgl_ho_pullback(zero_dgl_map(a, b), identity_dgl_map(b))
    k = counterexample_dgl() if kind == 1 else to_dgl(truly_free_example(rng.randint(2, 3)))
    if kind == 3:
        return dgl_ho_pullback(zero_dgl_map(k, ZERO_DGL), zero_dgl_map(k, ZERO_DGL))
    return dgl_ho_pullback(identity_dgl_map(k), identity_dgl_map(k))


def _random_dgl(rng):
    kind = rng.randrange(6)
    if kind == 0:
        return _random_abelian(rng)
    if kind == 1:
        return _small_free(rng)
    if kind == 2:
        return _random_pullback(rng)[0]
    if kind == 3:
        l = rng.choice([_random_pullback(rng)[0], counterexample_dgl(), _small_free(rng)])
        degs = [k for k in l.underlying.degrees() if l.underlying.dim(k)]
        return reduce_dgl(rng.choice(degs), l)
    if kind == 4:
        return _random_table(rng)
    return counterexample_dgl()


def _corrupt(rng, l):
    """l with a few table entries broken, and the cap moved."""
    dg = l.underlying
    items = [(k, i) for k in dg.degrees() for i in range(dg.dim(k))]
    table = dict(l.bracket.items())
    for _ in range(rng.randint(1, 3)):
        how = rng.randrange(6)
        keys = sorted(table)
        if how == 0 and keys:  # a flipped sign
            key = rng.choice(keys)
            table[key] = tuple(-x for x in table[key])
        elif how == 1 and keys:  # a dropped entry
            del table[rng.choice(keys)]
        elif how in (2, 3) and items:  # an added entry, or one whose value is all zero
            (k1, i1), (k2, i2) = rng.choice(items), rng.choice(items)
            n = dg.dim(k1 + k2)
            val = tuple(rat(rng.randint(-2, 2)) if how == 2 else rat(0) for _ in range(n))
            if n:
                table[(k1, i1, k2, i2)] = val
        elif how == 4 and items:  # an entry outside the basis
            k1, i1 = rng.choice(items)
            k2 = rng.choice([k1, max(dg.degrees()) + 5])
            table[(k1, i1, k2, dg.dim(k2))] = tuple(ONE for _ in range(dg.dim(k1 + k2)))
        else:
            table.clear()
    degs = dg.degrees() or [0]
    cap = rng.choice([None, l.cap, rng.randint(min(degs), 2 * max(degs) + 1)])
    return DGL(dg, table, cap=cap)


def _random_dgmap(rng, s, t):
    blocks = {}
    for k in s.degrees():
        rows, cols = t.dim(k), s.dim(k)
        if rows:
            blocks[k] = QMatrix(rows, cols, {
                (r, c): rat(rng.choice([1, -1, 2])) for r in range(rows) for c in range(cols) if rng.random() < 0.4
            })
    return DGMap(s, t, blocks)


def _random_dgl_map(rng):
    kind = rng.randrange(6)
    if kind == 0:
        p, w = _random_pullback(rng)
        return w
    l = _random_dgl(rng)
    if kind == 1:
        return rng.choice([identity_dgl_map(l), zero_dgl_map(l, _random_dgl(rng))])
    if kind == 2:  # forgets the bracket: only the source table can fail
        return DGLMap(l, abelian_dgl(l.underlying), identity_map(l.underlying))
    if kind == 3:  # adds a bracket: only the target table can fail
        return DGLMap(abelian_dgl(l.underlying), l, identity_map(l.underlying))
    t = _random_dgl(rng) if kind == 4 else _corrupt(rng, l)
    if kind == 5:
        l = _corrupt(rng, l)
    return DGLMap(l, t, _random_dgmap(rng, l.underlying, t.underlying))


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
@example(seed=14386, corrupt=True)  # the square must reach top - low: [y, z] lands in degree 2, which L lacks
def test_dgl_validate_matches_the_dense_loops(seed, corrupt):
    rng = Random(seed)
    l = _random_dgl(rng)
    if corrupt:
        l = _corrupt(rng, l)
    assert dgl_validate(l) == _dense_dgl_validate(l)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_dgl_map_validate_matches_the_dense_loops(seed):
    f = _random_dgl_map(Random(seed))
    assert dgl_validate(f) == _dense_dgl_validate(f)


def test_dgl_validate_reports_every_kind_of_failure():
    # the inputs of the two tests above reach each report line, and the early return
    rng = Random(5)
    seen = set()
    for _ in range(200):
        rep = dgl_validate(_corrupt(rng, _random_dgl(rng)))
        seen |= {r.split(" fails")[0] for r in rep if " fails" in r}
        if len(rep) > 40 and rep[-1].startswith("Jacobi"):
            seen.add("early return")
        if any(r.startswith("map does not respect") for r in dgl_validate(_random_dgl_map(rng))):
            seen.add("map")
    assert seen == {"antisymmetry", "Leibniz", "Jacobi", "early return", "map"}


def test_dgl_validate_matches_the_dense_loops_on_a_cobar_lie_model():
    # the random tables span degrees -1..1; this cobar Lie model is positively graded, with long brackets
    from rht.cli import build_model, parse_model
    from rht.quillen import cobar_L

    l = to_dgl(cobar_L(build_model(parse_model("models/polynomial.dgc")), 8))
    dense = DGL(l.underlying, dict(l.bracket.items()), cap=l.cap)
    assert (dense.underlying.total_dim(), len(dense.bracket)) == (16, 42)
    rng, jacobi = Random(8), 0
    for _ in range(30):
        broken = _corrupt(rng, dense)
        report = _dense_dgl_validate(broken)
        assert dgl_validate(broken) == report
        jacobi += any(line.startswith("Jacobi") for line in report)
    assert jacobi  # some draws break Jacobi


def test_leibniz_reads_a_bracket_above_the_top_degree_and_stops_at_the_cap():
    # [x,x] = w and dy = x: d[x,y] lands in degree 3, which L lacks (a 0-row
    # block of B), while [dx,y] - [x,dy] = -w; the cap 2 cuts both pairs
    dg = DG({1: ("x",), 2: ("y", "w")}, {2: QMatrix.from_rows([[1, 0]])})
    l = DGL(dg, {(1, 0, 1, 0): (rat(0), ONE)})
    assert dgl_validate(l) == ["Leibniz fails at (1,0),(2,0)", "Leibniz fails at (2,0),(1,0)"]
    assert dgl_validate(DGL(dg, l.bracket, cap=2)) == []


def test_a_bracket_value_of_the_wrong_length_is_an_error():
    dg = DG({1: ("x",), 2: ("w",)})
    for value in ((ONE, ONE), ()):
        with pytest.raises(ValueError, match="has length"):
            dgl_validate(DGL(dg, {(1, 0, 1, 0): value}))


def test_a_bracket_value_of_the_wrong_length_above_the_square_is_an_error():
    # the cap 2 lays the square out through degree 2 only; [x, y] lands in degree 3, where L is 0
    dg = DG({1: ("x",), 2: ("y",)})
    for value in ((ONE,), (ONE, ONE)):
        with pytest.raises(ValueError, match="has length"):
            dgl_validate(DGL(dg, {(1, 0, 2, 0): value}, cap=2))


def test_no_square_is_laid_out_where_no_bracket_can_fail(monkeypatch):
    import rht.dgl as dgl

    layouts = []
    real = dgl._tensor_with_index
    monkeypatch.setattr(dgl, "_tensor_with_index", lambda *args: layouts.append(args) or real(*args))

    def count(x):
        layouts.clear()
        assert dgl_validate(x) == []
        return len(layouts)

    rng = Random(3)
    a, b = _random_abelian(rng), _random_abelian(rng)
    assert count(a) == 0
    assert count(dgl_ho_pullback(zero_dgl_map(a, b), identity_dgl_map(b))[0]) == 0
    assert count(DGLMap(a, abelian_dgl(a.underlying), identity_map(a.underlying))) == 0
    # a bracket on either side lays out one square per side
    k = counterexample_dgl()
    assert count(k) == 1
    assert count(identity_dgl_map(k)) == 2


# -- batched bracket solves against per-value solves ----------------------------------


def _solved_one_by_one(inc, values, error):
    table = {}
    for key, val in values:
        if any(val):
            sol = solve_matrix(inc, QMatrix.from_columns([val], len(val)))
            if sol is None:
                raise ValueError(error)
            table[key] = sol.column(0)
    return table


def _per_value_reduce_table(r, l):
    rdg, incl = reduce_with_inclusion(r, l.underlying)
    table = {}
    for k1 in rdg.degrees():
        for k2 in rdg.degrees():
            k = k1 + k2
            if rdg.dim(k):
                values = [
                    ((k1, i1, k2, i2), l.bracket_vec(k1, incl.apply(k1, _unit(rdg.dim(k1), i1)),
                                                     k2, incl.apply(k2, _unit(rdg.dim(k2), i2))))
                    for i1 in range(rdg.dim(k1)) for i2 in range(rdg.dim(k2))
                ]
                table.update(_solved_one_by_one(incl.block(k), values, f"bracket escapes the reduction at degree {k}"))
    return table


def _per_value_limit_table(f1, f2):
    lim_dg, pu, pw = strict_pullback(f1.dgmap, map_scale(-1, f2.dgmap))
    table = {}
    for k1 in lim_dg.degrees():
        for k2 in lim_dg.degrees():
            k = k1 + k2
            if lim_dg.dim(k):
                values = []
                for i1 in range(lim_dg.dim(k1)):
                    for i2 in range(lim_dg.dim(k2)):
                        e1, e2 = _unit(lim_dg.dim(k1), i1), _unit(lim_dg.dim(k2), i2)
                        bx = f1.source.bracket_vec(k1, pu.apply(k1, e1), k2, pu.apply(k2, e2))
                        by = f2.source.bracket_vec(k1, pw.apply(k1, e1), k2, pw.apply(k2, e2))
                        values.append(((k1, i1, k2, i2), tuple(bx) + tuple(by)))
                inc = QMatrix.vstack([pu.block(k), pw.block(k)])
                table.update(_solved_one_by_one(inc, values, "strict limit is not closed under brackets"))
    return table


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as e:
        return str(e)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_batched_bracket_solves_match_per_value_solves(seed):
    rng = Random(seed)
    l = _random_dgl(rng)
    degs = [k for k in l.underlying.degrees() if l.underlying.dim(k)] or [0]
    r = rng.choice(degs)
    assert _outcome(lambda: reduce_dgl(r, l).bracket) == _outcome(_per_value_reduce_table, r, l)
    # the strict limit of two maps onto l or onto its abelian quotient; it is
    # not closed under brackets when only one side keeps them
    ab = abelian_dgl(l.underlying)
    k = rng.choice([l, ab])
    ident = identity_map(l.underlying)
    f1 = DGLMap(rng.choice([l, ab]) if k is ab else l, k, ident)
    f2 = rng.choice([DGLMap(f1.source, k, ident), DGLMap(ab, k, ident), zero_dgl_map(l, k)])
    want = _outcome(_per_value_limit_table, f1, f2)
    got = _outcome(lambda: dict(dgl_ho_pullback(f1, f2)[1].source.bracket))
    assert got == want


@pytest.mark.parametrize("zero", [False, True])
def test_strict_limit_of_two_nonabelian_dgls_matches_per_value_solves(zero):
    # identities on one nonabelian DGL, or the zero maps of two into a third: L1 x L2
    l1, l2 = to_dgl(truly_free_example(3)), counterexample_dgl()
    assert any(map(any, l1.bracket.values())) and any(map(any, l2.bracket.values()))
    if zero:
        f1, f2 = zero_dgl_map(l1, l2), zero_dgl_map(l2, l2)
    else:
        f1, f2 = identity_dgl_map(l1), identity_dgl_map(l1)
    lim = dgl_ho_pullback(f1, f2)[1].source
    assert dict(lim.bracket) == _per_value_limit_table(f1, f2) and any(map(any, lim.bracket.values()))
    assert dgl_validate(lim) == []


def test_batched_solves_keep_their_errors():
    # [a, a] = b with d b != 0: the bracket of two cycles is no cycle
    dg = DG({-1: ("c",), 0: ("a", "b")}, {0: QMatrix.from_rows([[0, 1]])})
    l = DGL(dg, {(0, 0, 0, 0): (rat(0), ONE)})
    with pytest.raises(ValueError, match="bracket escapes the reduction at degree 0"):
        reduce_dgl(0, l)
    k = counterexample_dgl()
    ab = abelian_dgl(k.underlying)
    ident = identity_map(k.underlying)
    with pytest.raises(ValueError, match="strict limit is not closed under brackets"):
        dgl_ho_pullback(DGLMap(k, ab, ident), DGLMap(ab, ab, ident))


# -- the path-object pullback against its hand-written form ---------------------------


def _old_dgl_ho_pullback(f1, f2):
    """dgl_ho_pullback as it was written before its path differential and witness
    came from dgcore's twisted sum: offsets computed by hand, unit vectors per column."""
    l1, l2, k = f1.source, f2.source, f1.target
    dg1, dg2, dgk = l1.underlying, l2.underlying, k.underlying
    mid = shift(dgk, -1)
    total, incls = sum_many([dg1, mid, dg2], tags=["l1", "k", "l2"])
    diff = dict(total.diff)
    for m in sorted(set(total.basis) | {kk + 1 for kk in total.basis}):
        if not total.dim(m) or not total.dim(m - 1):
            continue
        ent = dict(total.d(m).entries)
        roff = dg1.dim(m - 1)
        for (r, c), val in f1.dgmap.block(m).entries.items():
            ent[(roff + r, c)] = ent.get((roff + r, c), rat(0)) + val
        coff = dg1.dim(m) + mid.dim(m)
        for (r, c), val in f2.dgmap.block(m).entries.items():
            ent[(roff + r, coff + c)] = ent.get((roff + r, coff + c), rat(0)) - val
        diff[m] = QMatrix(total.dim(m - 1), total.dim(m), ent)
    pdg = DG(total.basis, diff)

    def offs(m):
        return dg1.dim(m), dg1.dim(m) + mid.dim(m)

    half = Fraction(1, 2)
    table = {}
    for (k1, i1, k2, i2), v in l1.bracket.items():
        if pdg.dim(k1 + k2) and any(v):
            table[(k1, i1, k2, i2)] = incls[0].apply(k1 + k2, v)
    for (k1, i1, k2, i2), v in l2.bracket.items():
        if pdg.dim(k1 + k2) and any(v):
            table[(k1, offs(k1)[1] + i1, k2, offs(k2)[1] + i2)] = incls[2].apply(k1 + k2, v)
    for m in pdg.degrees():
        nk = dgk.dim(m + 1)
        if not nk:
            continue
        for (li, fi, strand) in ((l1, f1, 0), (l2, f2, 2)):
            dgi = li.underlying
            for n in dgi.degrees():
                if not pdg.dim(m + n):
                    continue
                o_mid_src, o_mid_tgt = offs(m)[0], offs(m + n)[0]
                o_str = 0 if strand == 0 else offs(n)[1]
                for a in range(nk):
                    ek = _unit(nk, a)
                    for j in range(dgi.dim(n)):
                        fl = fi.dgmap.apply(n, _unit(dgi.dim(n), j))
                        val = k.bracket_vec(m + 1, ek, n, fl)
                        if any(val):
                            vec = [rat(0)] * pdg.dim(m + n)
                            for t, c in enumerate(val):
                                vec[o_mid_tgt + t] = half * c
                            table[(m, o_mid_src + a, n, o_str + j)] = tuple(vec)
                        val2 = k.bracket_vec(n, fl, m + 1, ek)
                        if any(val2):
                            sgn = -ONE if n % 2 else ONE
                            vec = [rat(0)] * pdg.dim(m + n)
                            for t, c in enumerate(val2):
                                vec[o_mid_tgt + t] = sgn * half * c
                            table[(n, o_str + j, m, o_mid_src + a)] = tuple(vec)
    caps = [c for c in (l1.cap, l2.cap) if c is not None]
    if k.cap is not None:
        caps.append(k.cap - 1)
    p = DGL(pdg, table, cap=min(caps) if caps else None)
    lim_dg, pu, pw = strict_pullback(f1.dgmap, map_scale(-1, f2.dgmap))
    _per_value_limit_table(f1, f2)  # raises where the strict limit is not closed under brackets
    blocks = {}
    for m in lim_dg.degrees():
        cols = []
        for j in range(lim_dg.dim(m)):
            e = _unit(lim_dg.dim(m), j)
            cols.append(tuple(pu.apply(m, e)) + zero_vec(mid.dim(m)) + tuple(pw.apply(m, e)))
        blocks[m] = QMatrix.from_columns(cols, pdg.dim(m))
    return p, DGMap(lim_dg, pdg, blocks)


def _pullback_map(rng, k):
    """A map into k: its identity, or a random chain map or the zero map out of
    an abelian DGL (such a map need not respect brackets: the builder does not ask)."""
    kind = rng.randrange(4)
    if kind == 0:
        return identity_dgl_map(k)
    if kind == 1:
        return zero_dgl_map(ZERO_DGL, k)
    degs = k.underlying.degrees() or [0]
    v = abelian_dgl(random_dg(rng, min(degs), max(degs), 4, prefix=rng.choice("uvw")))
    if kind == 2:
        return zero_dgl_map(v, k)
    return DGLMap(v, k, random_chain_map(rng, v.underlying, k.underlying))


def _pullback_summary(p, witness):
    return list(p.underlying.basis.items()), p.underlying, list(p.bracket.items()), p.cap, witness


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_dgl_ho_pullback_matches_its_hand_written_form(seed):
    rng = Random(seed)
    kind = rng.randrange(4)
    k = [_random_abelian, _small_free, lambda r: counterexample_dgl(), _random_table][kind](rng)
    f1, f2 = _pullback_map(rng, k), _pullback_map(rng, k)

    def new():
        p, w = dgl_ho_pullback(f1, f2)
        return _pullback_summary(p, w.dgmap)

    assert _outcome(new) == _outcome(lambda: _pullback_summary(*_old_dgl_ho_pullback(f1, f2)))


# -- positions as data: the strict-limit loop, the free-product witness, abelianization --


def test_abelian_pullbacks_make_no_dense_bracket_calls(monkeypatch):
    calls = []
    dense = DGL.bracket_vec

    def counted(self, *args):
        calls.append(args)
        return dense(self, *args)

    monkeypatch.setattr(DGL, "bracket_vec", counted)
    rng = Random(5)
    shapes = [DG({1: ("x",), 2: ("y",)}), DG({1: ("x", "z"), 2: ("y",), 3: ("w",)})]
    shapes += [random_dg(rng, 1, 3, 4) for _ in range(20)]
    for la in shapes:
        lb = random_dg(rng, 1, 3, 4, prefix="b")
        a, b = abelian_dgl(la), abelian_dgl(lb)
        p, witness = dgl_ho_pullback(zero_dgl_map(a, b), identity_dgl_map(b))
        assert dgl_validate(p) == [] and dgl_validate(witness) == []
        assert witness.source.bracket == {}
    assert calls == []
    # a nonzero table still reaches the dense bracket, on the pairs it names
    k = counterexample_dgl()
    p, witness = dgl_ho_pullback(identity_dgl_map(k), identity_dgl_map(k))
    assert calls and dgl_validate(witness) == []


def _old_free_product_images(a, b):
    na = len(a.basis.generators)
    strict, _, _ = dgl_strict_product(to_dgl(a), to_dgl(b))
    images = {}
    for i, (an, ad) in enumerate(a.basis.generators):
        pos = index_of(to_dgl(a).underlying, ad, a.basis.tree_name(i))
        images[i] = (ad, _unit_vec(strict.underlying.dim(ad), pos))
    for j, (bn, bd) in enumerate(b.basis.generators):
        pos = index_of(to_dgl(b).underlying, bd, b.basis.tree_name(j))
        off = to_dgl(a).underlying.dim(bd)
        images[na + j] = (bd, _unit_vec(strict.underlying.dim(bd), off + pos))
    return strict, images


def _random_free(rng, names, cap):
    """A truly free DGL on generators of random degrees, in random order, with
    d(g) = one of the generators a degree lower, or 0."""
    degs = [rng.randint(1, 3) for _ in names]
    gens = list(zip(names, degs))
    diff, targets = {}, set()
    for i, d in enumerate(degs):
        lower = [j for j, e in enumerate(degs) if e == d - 1 and j not in diff]
        if lower and i not in targets and rng.random() < 0.5:
            j = rng.choice(lower)
            diff[i], targets = {(j,): rat(rng.choice([1, -1, 2]))}, targets | {j}
    return FreeDGL(free_lie_basis(gens, cap), diff)


def _old_gen_position(b, d, gen_idx):
    pos = 0
    for i, gd in enumerate(b.deg):
        if i == gen_idx:
            return pos
        if gd == d:
            pos += 1
    raise ValueError("generator not found")


def _old_abelianize(l):
    b = l.basis
    basis = {}
    for name, d in b.generators:
        basis[d] = basis.get(d, ()) + (name,)
    diff = {}
    lin = l.linear_diff_part()
    for d in sorted(basis):
        tgt = basis.get(d - 1, ())
        if not tgt:
            continue
        ent = {}
        for j, (name, gd) in enumerate(b.generators):
            if gd != d:
                continue
            jj = _old_gen_position(b, d, j)
            for w, c in lin.get(j, {}).items():
                ent[(_old_gen_position(b, d - 1, w[0]), jj)] = c
        diff[d] = QMatrix(len(tgt), len(basis[d]), ent)
    return DG(basis, diff)


def _old_abelianized(f):
    src = _old_abelianize(f.source)
    tgt = _old_abelianize(f.target)
    blocks = {}
    for d in src.degrees():
        ent = {}
        for j, (name, gd) in enumerate(f.source.basis.generators):
            if gd != d:
                continue
            jj = _old_gen_position(f.source.basis, d, j)
            for w, c in f.gen_images.get(j, {}).items():
                if len(w) == 1:
                    ii = _old_gen_position(f.target.basis, d, w[0])
                    ent[(ii, jj)] = ent.get((ii, jj), 0) + c
        blocks[d] = QMatrix(tgt.dim(d), src.dim(d), ent)
    return DGMap(src, tgt, blocks)


def _old_strict_product_table(a, b):
    dg, inl, inr = sum_dg(a.underlying, b.underlying, tags=("p1", "p2"))
    table = {}
    for (k1, i1, k2, i2), v in a.bracket.items():
        if not dg.dim(k1 + k2):
            continue
        table[(k1, i1, k2, i2)] = inl.apply(k1 + k2, v)
    na = {k: a.underlying.dim(k) for k in dg.degrees()}
    for (k1, i1, k2, i2), v in b.bracket.items():
        if not dg.dim(k1 + k2):
            continue
        table[(k1, na.get(k1, 0) + i1, k2, na.get(k2, 0) + i2)] = inr.apply(k1 + k2, v)
    return table


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_free_product_witness_and_abelianization_match_the_old_positions(seed):
    rng = Random(seed)
    a = _random_free(rng, ["x", "u", "z"][: rng.randint(1, 3)], 5)
    b = _random_free(rng, ["y", "w"][: rng.randint(1, 2)], 5)
    model, witness = dgl_product(a, b)
    strict, images = _old_free_product_images(a, b)
    assert witness.dgmap == dgl_map_from_gen_images(model, strict, images).dgmap
    for x, y in ((to_dgl(a), to_dgl(b)), (counterexample_dgl(), to_dgl(a))):
        assert list(dgl_strict_product(x, y)[0].bracket.items()) == list(_old_strict_product_table(x, y).items())
    for l in (a, b, model):
        new, old = abelianize(l), _old_abelianize(l)
        assert list(new.basis.items()) == list(old.basis.items()) and new == old
    # a map sending each generator to a multiple of one of the same degree, plus a bracket
    same = {i: [j for j, e in enumerate(b.basis.deg) if e == d] for i, d in enumerate(a.basis.deg)}
    images = {}
    for i, js in same.items():
        if js:
            images[i] = {(rng.choice(js),): rat(rng.randint(-2, 2))}
            if len(b.basis.deg) > 1 and b.basis.word_degree((0, 1)) == a.basis.deg[i]:
                images[i][(0, 1)] = ONE
    f = FreeDGLMap(a, b, images)
    assert f.abelianized() == _old_abelianized(f)


# -- map images by degree order, not by a recursive closure ----------------------------


def _old_to_dgmap(f):
    """FreeDGLMap.to_dgmap as it was: images by a recursive closure."""
    tb = f.target.basis
    src = to_dgl(f.source).underlying
    tgt = to_dgl(f.target).underlying
    images = dict(f.gen_images)

    def image(t):
        if t not in images:
            images[t] = {} if isinstance(t, int) else tb.bracket_poly(image(t[0]), image(t[1]))
        return images[t]

    blocks = {}
    for d, ms in f.source.basis.monomials.items():
        tdim = tgt.dim(d)
        cols = [tb.coords(image(t)).get(d, zero_vec(tdim)) for t in ms]
        blocks[d] = QMatrix.from_columns(cols, tdim)
    return DGMap(src, tgt, blocks)


def _old_map_from_gen_images(source, target, images):
    """dgl_map_from_gen_images as it was: images by a recursive closure."""
    b = source.basis
    cache = {}

    def img(t):
        if t in cache:
            return cache[t]
        if isinstance(t, int):
            out = images.get(t)
            if out is None:
                out = (b.deg[t], zero_vec(target.underlying.dim(b.deg[t])))
        else:
            k1, v1 = img(t[0])
            k2, v2 = img(t[1])
            out = (k1 + k2, target.bracket_vec(k1, v1, k2, v2))
        cache[t] = out
        return out

    blocks = {}
    for d, ms in b.monomials.items():
        blocks[d] = QMatrix.from_columns([img(t)[1] for t in ms], target.underlying.dim(d))
    return DGMap(to_dgl(source).underlying, target.underlying, blocks)


def _random_images(rng, a, b):
    """(gen_images, vector images): each generator of a goes to a random Lie
    element of b of its degree, or is left out."""
    lie, vectors = {}, {}
    for i, d in enumerate(a.basis.deg):
        ms = b.basis.monomials.get(d, ())
        if not ms or rng.random() < 0.2:
            continue
        coeffs = [rat(rng.randint(-2, 2)) for _ in ms]
        poly = {}
        for c, t in zip(coeffs, ms):
            poly = tp_add(poly, tp_scale(c, b.basis.expand(t)))
        lie[i], vectors[i] = poly, (d, tuple(coeffs))
    return lie, vectors


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_map_images_match_the_recursive_images(seed):
    rng = Random(seed)
    cap = rng.randint(3, 7)
    a = _random_free(rng, ["x", "u", "z"][: rng.randint(1, 3)], cap)
    b = _random_free(rng, ["y", "w", "v"][: rng.randint(1, 3)], cap)
    lie, vectors = _random_images(rng, a, b)
    f = FreeDGLMap(a, b, lie)
    assert f.to_dgmap().blocks == _old_to_dgmap(f).blocks
    # the images need not be a DGL map for the formula to apply
    other = counterexample_dgl()
    others = {
        i: (d, tuple(rat(rng.randint(-2, 2)) for _ in range(other.underlying.dim(d))))
        for i, d in enumerate(a.basis.deg)
        if rng.random() < 0.8
    }
    for target, vectors in ((to_dgl(b), vectors), (other, others)):
        new = dgl_map_from_gen_images(a, target, vectors)
        assert new.dgmap.blocks == _old_map_from_gen_images(a, target, vectors).blocks


def test_map_images_leave_no_reference_cycle(cyclic_garbage):
    rng = Random(3)
    a = _random_free(rng, ["x", "u", "z"], 6)
    b = _random_free(rng, ["y", "w"], 6)
    lie, vectors = _random_images(rng, a, b)
    f, target = FreeDGLMap(a, b, lie), to_dgl(b)
    assert cyclic_garbage(f.to_dgmap) == []
    assert cyclic_garbage(lambda: dgl_map_from_gen_images(a, target, vectors)) == []


# -- brackets of vectors from the table entries their supports reach --------------------


def _dense_bracket_vec(l, k1, v1, k2, v2):
    """DGL.bracket_vec as it was: a dense vec_add per pair of nonzero coordinates."""
    out = zero_vec(l.underlying.dim(k1 + k2))
    for i1, c1 in enumerate(v1):
        if not c1:
            continue
        for i2, c2 in enumerate(v2):
            if not c2:
                continue
            out = vec_add(out, vec_scale(c1 * c2, l.bracket_basis(k1, i1, k2, i2)))
    return out


def _random_vec(rng, n):
    return tuple(rat(rng.choice([0, 0, 1, -1, 2, Fraction(1, 2)])) for _ in range(n))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_bracket_vec_matches_the_dense_loop(seed):
    rng = Random(seed)
    dg = DG({k: tuple(f"e{k}_{i}" for i in range(rng.randint(0, 3))) for k in range(1, 6)})
    table = {}
    for k1 in dg.degrees():
        for k2 in dg.degrees():
            for i1 in range(dg.dim(k1)):
                for i2 in range(dg.dim(k2)):
                    n = dg.dim(k1 + k2)
                    if n and rng.random() < 0.6:
                        # a table may hold all-zero entries
                        table[(k1, i1, k2, i2)] = zero_vec(n) if rng.random() < 0.3 else _random_vec(rng, n)
    lazy = to_dgl(_random_free(rng, ["x", "u", "z"], rng.randint(3, 6)))
    assert isinstance(lazy.bracket, _LazyBracketTable)
    for l in (DGL(dg, table), lazy):
        degs = sorted(set(l.underlying.degrees()) | {0, 7})
        for _ in range(12):
            k1, k2 = rng.choice(degs), rng.choice(degs)
            v1, v2 = _random_vec(rng, l.underlying.dim(k1)), _random_vec(rng, l.underlying.dim(k2))
            got = l.bracket_vec(k1, v1, k2, v2)
            assert type(got) is tuple and got == _dense_bracket_vec(l, k1, v1, k2, v2)


# -- free models on a sum of generating sets --------------------------------------------


def _old_free_product(a, b):
    if a.cap != b.cap:
        raise ValueError("free product requires equal caps")
    names_a = {n for n, _ in a.basis.generators}
    if any(n in names_a for n, _ in b.basis.generators):
        raise ValueError("generator name collision in free product")
    gens = a.basis.generators + b.basis.generators
    basis = free_lie_basis(gens, a.cap)
    off = len(a.basis.generators)
    gd = {i: dict(p) for i, p in a.gen_diff.items()}
    for i, p in b.gen_diff.items():
        gd[off + i] = {tuple(x + off for x in w): c for w, c in p.items()}
    return FreeDGL(basis, gd)


def _old_dgl_product(a, b, model):
    if model == "strict":
        da = to_dgl(a) if isinstance(a, FreeDGL) else a
        db = to_dgl(b) if isinstance(b, FreeDGL) else b
        return dgl_strict_product(da, db)[0]
    if model != "free":
        raise ValueError(f"unknown model {model!r}")
    if not (isinstance(a, FreeDGL) and isinstance(b, FreeDGL)):
        raise ValueError("free product model requires free inputs")
    if a.cap != b.cap:
        raise ValueError("free product model requires equal caps")
    if not (a.is_truly_free() and b.is_truly_free()):
        raise ValueError("free product model requires linear generator differentials")
    cap = a.cap
    gens = list(a.basis.generators) + list(b.basis.generators)
    na, nb = len(a.basis.generators), len(b.basis.generators)
    mixed = []
    for i, (an, ad) in enumerate(a.basis.generators):
        for j, (bn, bd) in enumerate(b.basis.generators):
            if ad + bd + 1 <= cap:
                gens.append((f"s({an}|{bn})", ad + bd + 1))
                mixed.append((i, j))
    basis = free_lie_basis(gens, cap)
    gd = {i: dict(p) for i, p in a.gen_diff.items()}
    for i, p in b.gen_diff.items():
        gd[na + i] = {tuple(x + na for x in w): c for w, c in p.items()}
    sidx = {pair: na + nb + m for m, pair in enumerate(mixed)}
    for m, (i, j) in enumerate(mixed):
        ad = a.basis.deg[i]
        poly = {}
        sign = -ONE if (ad * b.basis.deg[j]) % 2 else ONE
        poly = tp_add(poly, {(i, na + j): ONE, (na + j, i): -sign})
        for w1, c in a.gen_diff.get(i, {}).items():
            pair = (w1[0], j)
            if pair in sidx:
                poly = tp_add(poly, {(sidx[pair],): -c})
        s2 = -ONE if ad % 2 else ONE
        for w2, c in b.gen_diff.get(j, {}).items():
            pair = (i, w2[0])
            if pair in sidx:
                poly = tp_add(poly, {(sidx[pair],): -s2 * c})
        gd[na + nb + m] = poly
    model_l = FreeDGL(basis, gd)
    strict, pa, pb = dgl_strict_product(to_dgl(a), to_dgl(b))
    images = {}
    for factor, proj, off in ((a, pa, 0), (b, pb, na)):
        incl, pos = projection(proj.dgmap), _degree_positions(factor.basis.deg)[0]
        for i, d in enumerate(factor.basis.deg):
            images[off + i] = (d, incl.block(d).column(pos[i]))
    witness = dgl_map_from_gen_images(model_l, strict, images)
    return model_l, witness


def _old_free_cone_suspension(mode, l):
    b = l.basis
    n = len(b.generators)
    lin = l.linear_diff_part()
    if mode == "suspension":
        gens = [(f"s({nm})", d + 1) for nm, d in b.generators]
        gd = {
            i: {w: -c for w, c in lin.get(i, {}).items()}
            for i in range(n)
            if lin.get(i)
        }
        return FreeDGL(free_lie_basis(gens, b.cap + 1), gd)
    if not l.is_truly_free():
        bad = next(
            b.gen_name[i]
            for i, p in l.gen_diff.items()
            if any(len(w) > 1 for w in p)
        )
        raise ValueError(
            f"{mode} requires a linear generator differential; d({bad}) has higher brackets"
        )
    if mode == "cone":
        gens = list(b.generators) + [(f"s({nm})", d + 1) for nm, d in b.generators]
        gd = {i: dict(p) for i, p in l.gen_diff.items()}
        for i in range(n):
            poly = {(i,): ONE}
            for w, c in lin.get(i, {}).items():
                poly = tp_add(poly, {(n + w[0],): -c})
            gd[n + i] = poly
        return FreeDGL(free_lie_basis(gens, b.cap + 1), gd)
    if mode == "bigS":
        gens = (
            [(f"sl({nm})", d + 1) for nm, d in b.generators]
            + [(nm, d) for nm, d in b.generators]
            + [(f"sr({nm})", d + 1) for nm, d in b.generators]
        )
        gd = {}
        for i in range(n):
            if lin.get(i):
                gd[n + i] = {(n + w[0],): c for w, c in lin[i].items()}
        for i in range(n):
            poly = {(n + i,): ONE}
            for w, c in lin.get(i, {}).items():
                poly = tp_add(poly, {(w[0],): -c})
            gd[i] = poly
            poly2 = {(n + i,): ONE}
            for w, c in lin.get(i, {}).items():
                poly2 = tp_add(poly2, {(2 * n + w[0],): -c})
            gd[2 * n + i] = poly2
        return FreeDGL(free_lie_basis(gens, b.cap + 1), gd)
    raise ValueError(f"unknown mode {mode!r}")


def _old_free_cylinder(f, g):
    if f.source is not g.source and f.source != g.source:
        raise ValueError("cylinder legs must share their source")
    v = f.source
    u, w = f.target, g.target
    if not (u.cap == v.cap == w.cap):
        raise ValueError("cylinder requires equal caps")
    for m in (f, g):
        for i, p in m.gen_images.items():
            if any(len(word) != 1 for word in p):
                raise ValueError(
                    f"map is not freely generated at generator {v.basis.gen_name[i]!r}"
                )
    nu = len(u.basis.generators)
    nv = len(v.basis.generators)
    gens = (
        [(f"u({nm})", d) for nm, d in u.basis.generators]
        + [(f"s({nm})", d + 1) for nm, d in v.basis.generators]
        + [(f"w({nm})", d) for nm, d in w.basis.generators]
    )
    basis = free_lie_basis(gens, v.cap + 1)
    gd = {}
    for i, p in u.gen_diff.items():
        gd[i] = dict(p)
    for i, p in w.gen_diff.items():
        gd[nu + nv + i] = {tuple(x + nu + nv for x in word): c for word, c in p.items()}
    lin = v.linear_diff_part()
    for i in range(nv):
        poly = {}
        for word, c in lin.get(i, {}).items():
            poly = tp_add(poly, {(nu + word[0],): -c})
        for word, c in f.gen_images.get(i, {}).items():
            poly = tp_add(poly, {(word[0],): c})
        for word, c in g.gen_images.get(i, {}).items():
            poly = tp_add(poly, {(nu + nv + word[0],): c})
        if poly:
            gd[nu + i] = poly
    out = FreeDGL(basis, gd)
    for i in range(nv):
        dd = basis.diff_poly(out.gen_diff, out.gen_diff.get(nu + i, {}))
        dd = {word: c for word, c in dd.items() if basis.word_degree(word) <= basis.cap}
        if dd:
            raise ValueError(
                "cylinder differential does not square to zero at generator "
                f"s({v.basis.gen_name[i]}): the middle object needs a linear "
                "generator differential"
            )
    return out


def _random_sum_input(rng, names, cap, quadratic):
    """A free DGL on generators of random degrees in random order.  Each
    generator has no differential or a random combination of the generators
    a degree lower; if quadratic, the bracket of two generators may join it."""
    degs = [rng.randint(1, 2)]
    for _ in names[1:]:
        degs.append(min(cap, 4, rng.choice(degs) + rng.choice([0, 1, 1, 2])))
    if quadratic and len(names) > 1:
        degs[0], degs[-1] = 1, 3  # d of the last may hold [first, first]
    degs = rng.sample(degs, len(names))
    b = free_lie_basis(list(zip(names, degs)), cap)
    diff = {}
    for i, d in enumerate(degs):
        poly = {}
        for j, e in enumerate(degs):
            if e == d - 1 and rng.random() < 0.8:
                poly[(j,)] = rat(rng.choice([1, -1, 2, Fraction(1, 2)]))
        pairs = [(j, k) for j, e in enumerate(degs) for k, h in enumerate(degs) if e + h == d - 1]
        if quadratic and pairs and rng.random() < 0.7:
            poly = tp_add(poly, tp_scale(rng.choice([1, -1, 3]), b.expand(rng.choice(pairs))))
        if poly and rng.random() < 0.9:
            diff[i] = poly
    return FreeDGL(b, diff)


def _built(fn, *args):
    """What a construction must keep: the generators in order, the cap and the
    generator differential, and for the free product model the witness map;
    a rejected input as the type and message of its error."""
    try:
        out = fn(*args)
    except Exception as e:
        return type(e), str(e)
    if isinstance(out, tuple):
        return _built(lambda: out[0]), out[1].dgmap
    if isinstance(out, FreeDGL):
        return tuple(out.basis.generators), out.cap, out.gen_diff
    return out


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_cones_and_suspensions_match_the_old_constructions(seed):
    rng = Random(seed)
    names = ["x", "y", "z"][: rng.choice([0, 1, 2, 2, 3, 3])]
    l = _random_sum_input(rng, names, rng.randint(3, 5), rng.random() < 0.5)
    for mode, build in (("cone", free_cone), ("suspension", free_suspension), ("bigS", free_big_suspension)):
        got = _built(build, l)
        assert got == _built(_old_free_cone_suspension, mode, l)
        assert isinstance(got[0], tuple) == (mode == "suspension" or l.is_truly_free())


def _random_leg(rng, v, names, cap):
    """A map out of v of one of four kinds: the identity, a zero map, a random
    freely generated map, or one that sends a generator to a bracket (aa =
    [a,a]/2, for a generator a of odd degree: for an even one aa is not a Lie
    element, which FreeDGLMap rejects)."""
    kind = rng.choice(["identity", "zero", "free", "bracket"])
    if kind == "identity":
        return free_dgl_identity(v)
    t = _random_sum_input(rng, names, cap, rng.random() < 0.3)
    images = {}
    for i, d in enumerate(v.basis.deg):
        same = [j for j, e in enumerate(t.basis.deg) if e == d]
        poly = {(j,): rat(rng.choice([1, -1, 2])) for j in same if rng.random() < 0.6}
        if kind == "bracket" and t.basis.deg and rng.random() < 0.5 and t.basis.word_degree((0, 0)) == d \
                and t.basis.deg[0] % 2:
            poly[(0, 0)] = ONE
        if poly and kind != "zero":
            images[i] = poly
    return FreeDGLMap(v, t, images)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_cylinders_match_the_old_construction(seed):
    rng = Random(seed)
    cap = rng.randint(3, 4)
    v = _random_sum_input(rng, ["x", "y"][: rng.randint(1, 2)], cap, rng.random() < 0.3)
    f = _random_leg(rng, v, ["a", "b"][: rng.randint(0, 2)], cap)
    g = _random_leg(rng, v, ["p", "q"][: rng.randint(0, 2)], cap + (rng.random() < 0.1))
    if rng.random() < 0.1:  # a leg out of another source
        other = _random_sum_input(rng, ["x", "y"], cap, False)
        g = FreeDGLMap(other, g.target, {})
    assert _built(free_cylinder, f, g) == _built(_old_free_cylinder, f, g)


def _old_free_d2_report(l):
    """The tensor-level d^2 check dgl_validate made on a FreeDGL before it read
    only the expansion (the oracle)."""
    report = []
    b = l.basis
    for i in l.gen_diff:
        dd = b.diff_poly(l.gen_diff, l.gen_diff[i])
        dd = {w: c for w, c in dd.items() if b.word_degree(w) <= b.cap}
        if dd:
            report.append(f"d^2({b.gen_name[i]}) != 0 below the cap")
    return report


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_a_free_dgl_is_checked_on_its_expansion_as_the_tensor_level_check_did(seed):
    # d^2 != 0 on a generator is a nonzero column of the expansion's d^2 at its monomial
    rng = Random(seed)
    cap = rng.randint(3, 6)
    if rng.random() < 1 / 3:  # d z = y + c [x,x], d y = x: d^2 z = x != 0 by construction
        b = free_lie_basis([("x", 1), ("y", 2), ("z", 3)], cap)
        l = FreeDGL(b, {1: {(0,): ONE}, 2: tp_add({(1,): ONE}, tp_scale(rng.choice([0, 1, -2]), b.expand((0, 0))))})
    else:
        l = _random_sum_input(rng, ["x", "y", "z"][: rng.randint(1, 3)], cap, rng.random() < 0.5)
    flagged = any(line.startswith("d^2 != 0") for line in dgl_validate(l))
    assert flagged == bool(_old_free_d2_report(l))


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_free_products_and_product_models_match_the_old_constructions(seed):
    rng = Random(seed)
    cap = rng.randint(3, 5)
    a = _random_sum_input(rng, ["x", "u", "z"][: rng.randint(1, 3)], cap, rng.random() < 0.3)
    names = ["x"] if rng.random() < 0.1 else ["y", "w"][: rng.randint(1, 2)]  # "x" collides
    b = _random_sum_input(rng, names, cap + (rng.random() < 0.1), rng.random() < 0.3)
    assert _built(free_product, a, b) == _built(_old_free_product, a, b)
    got, want = _built(dgl_product, a, b), _built(_old_dgl_product, a, b, "free")
    if names == ["x"] and a.cap == b.cap and a.is_truly_free() and b.is_truly_free():
        # the old model reached FreeLieBasis, which rejected the shared name "x"
        assert got == (ValueError, "generator name collision in free product model")
    else:
        assert got == want
    if cap == 3:  # the strict product of free inputs: their expansions' componentwise product
        strict = _built(lambda a, b: dgl_strict_product(to_dgl(a), to_dgl(b))[0], a, b)
        assert strict == _built(_old_dgl_product, a, b, "strict")
    # a finite input is rejected by the free model
    x = to_dgl(b)
    assert _built(dgl_product, a, x) == _built(_old_dgl_product, a, x, "free")
