"""Coalgebra-side oracles.

Dimensions of the truncated symmetric coalgebra are checked against an
independent generating-function count (polynomial factor per even
cogenerator, binomial factor per odd one), with no shared code with the
word enumeration under test.  The coalgebra axioms themselves are checked
by dgc_validate, which works on raw structure constants.
"""

from fractions import Fraction
from random import Random
from typing import Mapping, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rht.dgc import (
    DGC,
    DGCMap,
    CofreeDGC,
    CofreeDGCMap,
    ZERO_DGC,
    assert_valid_dgc,
    cofree_identity,
    cofree_lambda,
    cofree_loops,
    cofree_path,
    cofree_paths,
    cofree_zero_map,
    dgc_ho_cofiber,
    dgc_ho_pushout,
    dgc_product,
    dgc_smash,
    dgc_sum,
    dgc_validate,
    hurewicz_check_dgc,
    identity_dgc_map,
    primitives,
    primitives_with_inclusion,
    reduce_dgc,
    suspension_dgc,
    to_dgc,
    trivial_dgc,
    zero_dgc_map,
)
from rht.dgcore import (
    DG,
    ZERO_DG,
    homology_dims,
    is_contractible,
    is_quasi_iso_through,
    validate_dg,
    zero_map,
)
from rht.exactq import ONE, QMatrix, rat
from rht.randgen import random_chain_map, random_dg
from rht.dgc import (
    CoTable,
    Key,
    PairKey,
    _apply_letterwise,
    _as_dgc,
    _canonical,
    _coproduct_map,
    _square,
    _sub_dgc,
)
from rht.dgcore import (
    DGMap,
    ho_pullback,
    ho_pushout,
    identity_map,
    reduce_with_inclusion,
    sub_dg,
    sum_dg,
    sum_many,
    tensor_dg,
)
from rht.exactq import ZERO, _unit_vec, kernel_basis, solve_linear, solve_matrix


# -- independent dimension oracle -------------------------------------------------


def symmetric_dims_oracle(degrees, cap):
    """Coefficients of prod_even 1/(1-t^d) * prod_odd (1+t^d) up to t^cap,
    constant term dropped."""
    coeffs = [0] * (cap + 1)
    coeffs[0] = 1
    for d in degrees:
        if d % 2:
            new = list(coeffs)
            for k in range(cap, d - 1, -1):
                new[k] += coeffs[k - d]
            coeffs = new
        else:
            for k in range(d, cap + 1):
                coeffs[k] += coeffs[k - d]
    return {k: coeffs[k] for k in range(1, cap + 1) if coeffs[k]}


def dgc_dims(c) -> dict[int, int]:
    dg = to_dgc(c).underlying if isinstance(c, CofreeDGC) else c.underlying
    return {k: dg.dim(k) for k in dg.degrees() if dg.dim(k)}


def test_oracle_even_generator_frozen():
    assert symmetric_dims_oracle([2], 10) == {2: 1, 4: 1, 6: 1, 8: 1, 10: 1}


def test_oracle_odd_generator_frozen():
    assert symmetric_dims_oracle([3], 12) == {3: 1}


def test_oracle_mixed_frozen():
    # degrees 2, 3, 4: hand count of multisets with the odd letter used at most once
    assert symmetric_dims_oracle([2, 3, 4], 9) == {
        2: 1, 3: 1, 4: 2, 5: 1, 6: 2, 7: 2, 8: 3, 9: 2,
    }


# -- cofree construction ----------------------------------------------------------


def test_polynomial_coalgebra():
    """One even cogenerator: divided powers with unit coproduct coefficients."""
    lam = cofree_lambda(DG({2: ("v",)}), 10)
    assert dgc_dims(lam) == symmetric_dims_oracle([2], 10)
    assert dgc_validate(lam) == []
    for n in range(2, 6):
        w = (0,) * n
        expected = {((0,) * i, (0,) * (n - i)): Fraction(1) for i in range(1, n)}
        assert lam.delta_word(w) == expected
        assert lam.d_word(w) == {}


def test_exterior_coalgebra():
    lam = cofree_lambda(DG({3: ("x",)}), 12)
    assert dgc_dims(lam) == {3: 1}
    assert to_dgc(lam).coproduct == {}
    assert dgc_validate(lam) == []


def test_dims_match_oracle_random():
    rng = Random(20260823)
    for _ in range(12):
        degrees = sorted(rng.randint(2, 6) for _ in range(rng.randint(1, 4)))
        cap = rng.randint(max(degrees), max(degrees) + 6)
        lam = CofreeDGC([(f"g{i}", d) for i, d in enumerate(degrees)], cap, {})
        assert dgc_dims(lam) == symmetric_dims_oracle(degrees, cap)



def _recursive_words(lam):
    """CofreeDGC.words as a recursive closure, the form it had before."""
    found = []

    def grow(w, start, degsum):
        if w:
            found.append(w)
        for g in range(start, len(lam.deg)):
            d = degsum + lam.deg[g]
            if d > lam.cap or (lam.deg[g] % 2 and w and w[-1] == g):
                continue
            grow(w + (g,), g, d)

    grow((), 0, 0)
    by_deg = {}
    for w in found:
        by_deg.setdefault(lam.word_degree(w), []).append(w)
    return {k: tuple(sorted(ws, key=lambda w: (len(w), w))) for k, ws in sorted(by_deg.items())}


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(2, 6), min_size=0, max_size=4), st.integers(0, 6))
def test_words_match_the_recursive_enumeration(degrees, extra):
    cap = max(degrees, default=2) + extra
    lam = CofreeDGC([(f"g{i}", d) for i, d in enumerate(degrees)], cap, {})
    assert lam.words() == _recursive_words(lam)


def test_words_leave_no_reference_cycle():
    import gc
    import weakref

    lam = cofree_lambda(DG({3: ("x",), 4: ("y",)}), 12)
    gc.disable()
    try:
        lam.words()
        gone = weakref.ref(lam)
        del lam
        assert gone() is None
    finally:
        gc.enable()


def test_random_cofree_satisfies_all_axioms():
    """Machine verification of the wedge-word coproduct and coderivation
    formulas on random cogenerator DGs."""
    rng = Random(7)
    for _ in range(8):
        v = random_dg(rng, min_deg=2, max_deg=5, max_pieces=3)
        if v.is_trivial():
            continue
        lam = cofree_lambda(v, 9)
        assert dgc_validate(lam) == []


def test_coderivation_on_acyclic_pair():
    # d(u) = v with |u| = 3, |v| = 2: then d(u v^n) = (n+1) v^(n+1)
    av = DG({2: ("v",), 3: ("u",)}, {3: QMatrix(1, 1, {(0, 0): ONE})})
    lam = cofree_lambda(av, 9)
    assert dgc_validate(lam) == []
    for n in range(0, 4):
        w = tuple(sorted((1,) + (0,) * n))
        assert lam.d_word(w) == {(0,) * (n + 1): Fraction(n + 1)}
    assert is_contractible(to_dgc(lam).underlying)


def test_word_length_lowering_differential():
    """A d_{-1} entry: the pair a^b maps to the cogenerator e."""
    mix = CofreeDGC([("a", 2), ("b", 3), ("e", 4)], 9, {(0, 1): {2: ONE}})
    assert dgc_validate(mix) == []
    assert mix.d_word((0, 1)) == {(2,): Fraction(1)}
    # Leibniz through a longer word: d(a^a^b) lands on a^e
    assert mix.d_word((0, 0, 1)) == {(0, 2): Fraction(1)}


def test_rejects_low_degree_cogenerators():
    with pytest.raises(ValueError):
        cofree_lambda(DG({1: ("a",), 3: ("x",)}), 6)
    with pytest.raises(ValueError):
        CofreeDGC([("v", 4)], 3, {})


def test_validate_reports_corrupted_sign():
    lam = to_dgc(cofree_lambda(DG({2: ("v",), 4: ("e",)}), 8))
    table = {k: dict(t) for k, t in lam.coproduct.items()}
    key, pair = next(
        (k, p) for k, t in sorted(table.items()) for p in sorted(t) if p[0] != p[1]
    )
    table[key][pair] = -table[key][pair]
    bad = DGC(lam.underlying, table)
    report = dgc_validate(bad)
    assert any("cocommutativity" in m for m in report)


def test_inhomogeneous_corestriction_is_rejected_at_construction():
    with pytest.raises(ValueError, match="homogeneous"):
        CofreeDGC([("a", 2), ("e", 4)], 8, {(1,): {0: ONE}})


def test_corestriction_naming_no_cogenerator_is_rejected_at_construction():
    # (-1,) once wrapped around to the last cogenerator: stored, never read, and validated as []
    for core in ({(-1,): {0: ONE}}, {(0,): {5: ONE}}, {(2,): {0: ONE}}, {(0,): {-2: ONE}}):
        with pytest.raises(ValueError, match="names no cogenerator"):
            CofreeDGC([("a", 2), ("b", 3)], 6, core)


def test_corestriction_on_a_word_that_is_not_canonical_is_rejected_at_construction():
    # an unsorted key and a repeated odd cogenerator: d_word reads neither, so each
    # entry was once stored, never read, and validated as []
    with pytest.raises(ValueError, match=r"the corestriction key \(1, 0\) is not a canonical word"):
        CofreeDGC([("a", 2), ("b", 2), ("c", 3)], 6, {(1, 0): {2: 1}})
    with pytest.raises(ValueError, match=r"the corestriction key \(0, 0\) is not a canonical word"):
        CofreeDGC([("a", 3), ("c", 5)], 6, {(0, 0): {1: 1}})


# -- primitives --------------------------------------------------------------------


def test_primitives_of_cofree_are_the_cogenerators():
    av = DG({2: ("v",), 3: ("u",)}, {3: QMatrix(1, 1, {(0, 0): ONE})})
    lam = cofree_lambda(av, 9)
    assert primitives(lam) == av


def test_primitive_kernel_matches_cogenerators():
    # independent route: kernel of the expanded coproduct table
    av = DG({2: ("v",), 3: ("u",)}, {3: QMatrix(1, 1, {(0, 0): ONE})})
    lam = to_dgc(cofree_lambda(av, 9))
    p, incl = primitives_with_inclusion(lam)
    assert {k: p.dim(k) for k in p.degrees() if p.dim(k)} == {2: 1, 3: 1}
    assert validate_dg(incl) == []


def test_primitives_of_trivial_coproduct():
    v = DG({3: ("a", "b")})
    assert primitives(trivial_dgc(v)) is not None
    assert dgc_dims(trivial_dgc(v)) == {3: 2}
    p = primitives(trivial_dgc(v))
    assert p.dim(3) == 2


# -- sums, products, smash -----------------------------------------------------------


def test_sum_tilde():
    a = to_dgc(cofree_lambda(DG({2: ("v",)}), 8))
    b = to_dgc(cofree_lambda(DG({3: ("x",)}), 8))
    s = dgc_sum(a, b)
    assert dgc_validate(s) == []
    assert dgc_dims(s) == {2: 1, 3: 1, 4: 1, 6: 1, 8: 1}


def test_product_even_inputs_sign_rules_agree():
    a = cofree_lambda(DG({2: ("v",)}), 6)
    b = cofree_lambda(DG({2: ("w",)}), 6)
    half = dgc_product(a, b)
    koszul = dgc_product(a, b, sign_rule="koszul")
    assert half == koszul
    assert dgc_validate(half) == []


def test_product_matches_two_variable_coalgebra():
    """Dimensions of Lambda(v) x Lambda(w) agree with Lambda(v + w) inside
    the shared window."""
    cap = 8
    a = cofree_lambda(DG({2: ("v",)}), cap)
    b = cofree_lambda(DG({4: ("w",)}), cap)
    prod = dgc_product(a, b)
    both = cofree_lambda(DG({2: ("v",), 4: ("w",)}), cap)
    pd, bd = dgc_dims(prod), dgc_dims(both)
    for k in range(1, cap + 1):
        assert pd.get(k, 0) == bd.get(k, 0)


def test_product_half_rule_fails_cocommutativity_on_odd_classes():
    # recorded counterexample: two exterior classes of degree 3
    x = cofree_lambda(DG({3: ("x",)}), 9)
    y = cofree_lambda(DG({3: ("y",)}), 9)
    report = dgc_validate(dgc_product(x, y))
    assert any("cocommutativity fails at (6," in m for m in report)
    assert dgc_validate(dgc_product(x, y, sign_rule="koszul")) == []


def test_smash_tilde():
    a = cofree_lambda(DG({2: ("v",)}), 6)
    x = cofree_lambda(DG({3: ("x",)}), 6)
    sm = dgc_smash(a, x, sign_rule="koszul")
    assert dgc_validate(sm) == []
    # de-augmentations multiply
    da, dx = dgc_dims(a), dgc_dims(x)
    expected = {}
    for i, m in da.items():
        for j, n in dx.items():
            expected[i + j] = expected.get(i + j, 0) + m * n
    assert dgc_dims(sm) == expected


def test_combine_rejects_unknown_sign_rule():
    a = to_dgc(cofree_lambda(DG({2: ("v",)}), 4))
    with pytest.raises(ValueError, match="sign rule"):
        dgc_product(a, a, sign_rule="plain")
    with pytest.raises(ValueError, match="sign rule"):
        dgc_smash(a, a, sign_rule="plain")


# -- suspensions, cones, cylinders ------------------------------------------------------


def test_suspension():
    c = to_dgc(cofree_lambda(DG({2: ("v",)}), 8))
    s = suspension_dgc(c)
    assert dgc_validate(s) == []
    assert s.coproduct == {}
    assert dgc_dims(s) == {k + 1: n for k, n in dgc_dims(c).items()}


def test_dgc_maps_compare_by_source_target_and_blocks():
    c = to_dgc(cofree_lambda(DG({2: ("v",)}), 8))
    f = identity_dgc_map(c)
    assert f == identity_dgc_map(c)
    k = c.underlying.degrees()[-1]
    blocks = {**f.dgmap.blocks, k: f.dgmap.blocks[k].scale(2)}
    assert DGCMap(c, c, DGMap(c.underlying, c.underlying, blocks)) != f
    assert zero_dgc_map(c, c) != f and f != f.dgmap
    with pytest.raises(TypeError):  # equal maps must not hash apart, so none hashes
        hash(f)


def test_cone_of_identity_is_contractible():
    c = to_dgc(cofree_lambda(DG({2: ("v",)}), 8))
    cone, inc = dgc_ho_cofiber(identity_dgc_map(c))
    assert is_contractible(cone.underlying)
    report = dgc_validate(cone)
    # one-sided cylinders keep cocommutativity and d-compatibility on the nose
    assert not any("cocommutativity" in m for m in report)
    assert not any("commute with d" in m for m in report)


def test_cone_coproduct_is_not_coassociative():
    """Recorded counterexample: the halved cylinder coproduct is forced by
    d-compatibility but breaks strict coassociativity once the reduced
    coproduct of the domain is nonzero."""
    c = to_dgc(cofree_lambda(DG({2: ("v",)}), 8))
    cone, _ = dgc_ho_cofiber(identity_dgc_map(c))
    assert any("coassociativity" in m for m in dgc_validate(cone))


def test_cone_of_map_from_zero_is_the_target():
    b = to_dgc(cofree_lambda(DG({3: ("x",), 4: ("e",)}), 8))
    cone, inc = dgc_ho_cofiber(zero_dgc_map(ZERO_DGC, b))
    assert dgc_dims(cone) == dgc_dims(b)
    assert dgc_validate(inc) == []
    assert is_quasi_iso_through(inc.dgmap, 10)


def test_cylinder_ends_include_as_coalgebra_maps():
    c = to_dgc(cofree_lambda(DG({2: ("v",)}), 8))
    cyl, i1, i2 = dgc_ho_pushout(identity_dgc_map(c), identity_dgc_map(c))
    assert dgc_validate(i1) == []
    assert dgc_validate(i2) == []
    assert not any("cocommutativity" in m for m in dgc_validate(cyl))


def test_cylinder_componentwise_compatibility():
    """The identity actually proved for the two-sided cylinder: for each end
    B_i, the B_i-component of the coproduct commutes with d after projecting
    back to terms built from B_i and the suspended strand."""
    c = to_dgc(cofree_lambda(DG({2: ("v",), 4: ("e",)}), 8))
    cyl, i1, i2 = dgc_ho_pushout(identity_dgc_map(c), identity_dgc_map(c))
    b1, mid = c.underlying, c.underlying

    def strand_of(key):
        k, i = key
        if i < b1.dim(k):
            return "b1"
        if i < b1.dim(k) + mid.dim(k - 1):
            return "s"
        return "b2"

    def project(table, end):
        keep = {end, "s"}
        return {
            p: v for p, v in table.items() if strand_of(p[0]) in keep and strand_of(p[1]) in keep
        }

    dg = cyl.underlying
    for k in dg.degrees():
        for i in range(dg.dim(k)):
            if strand_of((k, i)) != "s":
                continue
            full = cyl.coproduct.get((k, i), {})
            for end in ("b1", "b2"):
                lhs = project(_delta_vec(cyl, k - 1, dg.d(k).apply(_unit_vec(dg.dim(k), i))), end)
                rhs = project(_d_of_pair(dg, project(full, end)), end)
                assert lhs == rhs, (k, i, end)


def test_cylinder_cross_terms_break_full_compatibility():
    # recorded counterexample: both legs nonzero, nonzero reduced coproduct
    c = to_dgc(cofree_lambda(DG({2: ("v",)}), 8))
    cyl, _, _ = dgc_ho_pushout(identity_dgc_map(c), identity_dgc_map(c))
    assert any("commute with d" in m for m in dgc_validate(cyl))


def test_pushout_domain_mismatch():
    a = to_dgc(cofree_lambda(DG({2: ("v",)}), 6))
    b = to_dgc(cofree_lambda(DG({3: ("x",)}), 6))
    with pytest.raises(ValueError):
        dgc_ho_pushout(identity_dgc_map(a), identity_dgc_map(b))


# -- reduction ---------------------------------------------------------------------


def test_reduce_kills_low_polynomial_part():
    # the 2-connected cover of the divided power coalgebra on one degree-2
    # class is trivial
    lam = cofree_lambda(DG({2: ("v",)}), 10)
    assert reduce_dgc(3, lam).underlying.is_trivial()


def test_reduce_is_identity_on_reduced_input():
    x = to_dgc(cofree_lambda(DG({3: ("x",)}), 9))
    assert reduce_dgc(3, x) == x


def test_reduce_random_cofree_stays_valid():
    rng = Random(99)
    for _ in range(5):
        v = random_dg(rng, min_deg=2, max_deg=5, max_pieces=3)
        if v.is_trivial():
            continue
        out = reduce_dgc(3, cofree_lambda(v, 8))
        assert dgc_validate(out) == []
        assert all(k >= 3 for k in out.underlying.degrees() if out.underlying.dim(k))


def test_reduce_acyclic_stays_contractible():
    av = DG({2: ("v",), 3: ("u",)}, {3: QMatrix(1, 1, {(0, 0): ONE})})
    out = reduce_dgc(3, cofree_lambda(av, 9))
    assert out.underlying.is_trivial() or is_contractible(out.underlying)


# -- cofreely generated maps ---------------------------------------------------------


def test_cofree_map_of_random_chain_maps_is_a_coalgebra_map():
    """Exercises the multiplicative extension: a degree-zero chain map of
    cogenerator DGs extends to a map of coalgebras."""
    rng = Random(31)
    hits = 0
    while hits < 6:
        v = random_dg(rng, min_deg=2, max_deg=4, max_pieces=2)
        w = random_dg(rng, min_deg=2, max_deg=4, max_pieces=2)
        if v.is_trivial() or w.is_trivial():
            continue
        hits += 1
        lv, lw = cofree_lambda(v, 8), cofree_lambda(w, 8)
        f = random_chain_map(rng, v, w)
        images = {}
        for k in v.degrees():
            for i in range(v.dim(k)):
                col = f.block(k).column(i)
                gi = lv.gen_index[v.basis[k][i]]
                images[gi] = {
                    lw.gen_index[w.basis[k][j]]: c for j, c in enumerate(col) if c
                }
        fm = CofreeDGCMap(lv, lw, images)
        assert dgc_validate(fm.to_dgc_map()) == []


def test_cofree_map_rejects_degree_shift():
    a = cofree_lambda(DG({2: ("v",)}), 6)
    b = cofree_lambda(DG({4: ("e",)}), 6)
    with pytest.raises(ValueError):
        CofreeDGCMap(a, b, {0: {0: ONE}})


# -- paths and loops -----------------------------------------------------------------


def test_loops_of_single_generator():
    lv = cofree_lambda(DG({4: ("v",)}), 12)
    om = cofree_loops(lv)
    assert dgc_validate(om) == []
    oracle = symmetric_dims_oracle([3], om.cap)
    assert dgc_dims(om) == oracle


def test_loops_of_even_generator_give_odd_polynomial_pattern():
    lv = cofree_lambda(DG({5: ("v",)}), 15)
    om = cofree_loops(lv)  # one even loop class of degree 4
    assert dgc_dims(om) == symmetric_dims_oracle([4], om.cap)
    assert dgc_validate(om) == []


def test_paths_are_contractible_below_cap():
    lv = cofree_lambda(DG({4: ("v",)}), 12)
    pt = cofree_paths(lv)
    assert dgc_validate(pt) == []
    h = homology_dims(to_dgc(pt).underlying)
    # the cap degree itself may carry a truncation artifact
    assert all(k >= pt.cap for k in h)


def test_paths_with_word_length_lowering_differential():
    mix = CofreeDGC([("a", 2), ("b", 3), ("e", 4)], 8, {(0, 1): {2: ONE}})
    pt = cofree_paths(mix)
    assert dgc_validate(pt) == []
    h = homology_dims(to_dgc(pt).underlying)
    assert all(k >= pt.cap for k in h)


def test_path_primitives_match_reduced_pullback():
    from rht.dgcore import ho_pullback, reduce_dg

    mix = CofreeDGC([("a", 2), ("b", 3), ("e", 4)], 8, {(0, 1): {2: ONE}})
    zero = CofreeDGC((), mix.cap, {})
    pt = cofree_path(cofree_identity(mix), cofree_zero_map(zero, mix))
    tot, _ = ho_pullback(cofree_identity(mix).gen_dgmap(), cofree_zero_map(zero, mix).gen_dgmap())
    red = reduce_dg(2, tot)
    p = primitives(pt)
    assert {k: p.dim(k) for k in p.degrees() if p.dim(k)} == {
        k: red.dim(k) for k in red.degrees() if red.dim(k) and k <= pt.cap
    }


def test_path_codomain_mismatch():
    a = cofree_lambda(DG({4: ("v",)}), 10)
    b = cofree_lambda(DG({4: ("w",)}), 10)
    with pytest.raises(ValueError):
        cofree_path(cofree_identity(a), cofree_identity(b))
    with pytest.raises(ValueError):
        cofree_path(cofree_identity(a), cofree_identity(a), r=1)


# -- quasi-isomorphism detection -------------------------------------------------------


def test_hurewicz_identity_map():
    lv = cofree_lambda(DG({4: ("v",)}), 12)
    assert hurewicz_check_dgc(cofree_identity(lv)) == (True, True)


def test_hurewicz_zero_map():
    x = cofree_lambda(DG({3: ("x",)}), 9)
    assert hurewicz_check_dgc(cofree_zero_map(x, x)) == (False, False)


def test_hurewicz_flags_agree_on_random_cofree_maps():
    rng = Random(404)
    seen = set()
    trials = 0
    while trials < 10:
        v = random_dg(rng, min_deg=2, max_deg=4, max_pieces=2)
        w = random_dg(rng, min_deg=2, max_deg=4, max_pieces=2)
        if v.is_trivial() or w.is_trivial():
            continue
        trials += 1
        lv, lw = cofree_lambda(v, 7), cofree_lambda(w, 7)
        f = random_chain_map(rng, v, w)
        images = {}
        for k in v.degrees():
            for i in range(v.dim(k)):
                col = f.block(k).column(i)
                gi = lv.gen_index[v.basis[k][i]]
                images[gi] = {lw.gen_index[w.basis[k][j]]: c for j, c in enumerate(col) if c}
        q, pr = hurewicz_check_dgc(CofreeDGCMap(lv, lw, images))
        assert q == pr
        seen.add(q)
    assert seen == {True, False}


def test_hurewicz_cap_mismatch():
    a = cofree_lambda(DG({4: ("v",)}), 10)
    b = cofree_lambda(DG({4: ("v",)}), 12)
    with pytest.raises(ValueError):
        hurewicz_check_dgc(CofreeDGCMap(a, b, {0: {0: ONE}}))


# -- determinism -----------------------------------------------------------------------


def test_expansion_is_deterministic():
    v = DG({2: ("v",), 3: ("x",), 4: ("e",)})
    a = to_dgc(cofree_lambda(v, 9))
    b = to_dgc(cofree_lambda(v, 9))
    assert a.underlying.basis == b.underlying.basis
    assert a == b
    s1 = dgc_product(a, b, sign_rule="koszul")
    s2 = dgc_product(a, b, sign_rule="koszul")
    assert s1 == s2


# -- positions as data: the old offset and scanning code as oracles --------------------


def _old_tensor_with_index(a, b):
    out = tensor_dg(a, b)
    counts = {}
    index = {}
    for i in a.degrees():
        for j in b.degrees():
            n = i + j
            for p in range(a.dim(i)):
                for q in range(b.dim(j)):
                    pos = counts.get(n, 0)
                    counts[n] = pos + 1
                    index[(i, p, j, q)] = (n, pos)
    return out, index


def _old_shift_table(table: Mapping[Key, Mapping[PairKey, Fraction]], off) -> CoTable:
    def mv(key: Key) -> Key:
        k, i = key
        return (k, off(k) + i)

    return {mv(k): {(mv(a), mv(b)): v for (a, b), v in t.items()} for k, t in table.items()}


def _old_full_delta(c: DGC, key) -> list[tuple[tuple, tuple, Fraction]]:
    if key == ("1",):
        return [(("1",), ("1",), ONE)]
    _, k, i = key
    out = [(("1",), key, ONE), (key, ("1",), ONE)]
    for ((k1, i1), (k2, i2)), val in c.coproduct.get((k, i), {}).items():
        out.append((("e", k1, i1), ("e", k2, i2), val))
    return out


def _old_key_degree(key) -> int:
    return 0 if key == ("1",) else key[1]


def _old_dgc_combine(kind: str, a, b, sign_rule: str = "half"):
    a, b = _as_dgc(a), _as_dgc(b)
    if kind == "sumTilde":
        total, inl, inr = sum_dg(a.underlying, b.underlying)
        table = _old_shift_table(a.coproduct, lambda k: 0)
        table.update(_old_shift_table(b.coproduct, lambda k: a.underlying.dim(k)))
        return DGC(total, table)
    if kind not in ("product", "smashTilde"):
        raise ValueError(f"unknown combine kind {kind!r}")
    if sign_rule not in ("half", "koszul"):
        raise ValueError(f"unknown sign rule {sign_rule!r}")
    t_dg, t_index = _old_tensor_with_index(a.underlying, b.underlying)
    if kind == "product":
        total, _ = sum_many([a.underlying, b.underlying, t_dg], tags=["c", "d", "t"])

        def locate(ckey, dkey) -> Optional[Key]:
            if ckey == ("1",) and dkey == ("1",):
                return None
            if dkey == ("1",):
                _, k, i = ckey
                return (k, i)
            if ckey == ("1",):
                _, k, i = dkey
                return (k, a.underlying.dim(k) + i)
            _, kc, ic = ckey
            _, kd, idx = dkey
            n, pos = t_index[(kc, ic, kd, idx)]
            return (n, a.underlying.dim(n) + b.underlying.dim(n) + pos)

    else:
        total = t_dg

        def locate(ckey, dkey) -> Optional[Key]:
            if ckey == ("1",) or dkey == ("1",):
                return None
            _, kc, ic = ckey
            _, kd, idx = dkey
            return t_index[(kc, ic, kd, idx)]

    table: CoTable = {}
    classes = [(("e", k, i), ("1",)) for k in a.underlying.degrees() for i in range(a.underlying.dim(k))]
    classes += [(("1",), ("e", k, i)) for k in b.underlying.degrees() for i in range(b.underlying.dim(k))]
    classes += [
        (("e", kc, ic), ("e", kd, idx))
        for kc in a.underlying.degrees()
        for ic in range(a.underlying.dim(kc))
        for kd in b.underlying.degrees()
        for idx in range(b.underlying.dim(kd))
    ]
    for ckey, dkey in classes:
        src = locate(ckey, dkey)
        if src is None:
            continue
        acc: dict[PairKey, Fraction] = {}
        unit_weight = ZERO

        def add(lc, ld, rc, rd, coeff):
            nonlocal unit_weight
            left = locate(lc, ld)
            right = locate(rc, rd)
            if left is None and right is None:
                return
            if left is None or right is None:
                # counit terms; in the product they must sum to 1 tensor x + x tensor 1
                if kind == "product" and (lc, ld) == (("1",), ("1",)):
                    unit_weight += coeff
                return
            s = acc.get((left, right), ZERO) + coeff
            if s:
                acc[(left, right)] = s
            else:
                acc.pop((left, right), None)

        for vk, wk, cv in _old_full_delta(a, ckey):
            for ak, bk, ca in _old_full_delta(b, dkey):
                if sign_rule == "half":
                    add(vk, ak, wk, bk, cv * ca / 2)
                    add(vk, bk, wk, ak, cv * ca / 2)
                else:
                    sign = -ONE if (_old_key_degree(wk) * _old_key_degree(ak)) % 2 else ONE
                    add(vk, ak, wk, bk, sign * cv * ca)
        if kind == "product" and unit_weight != ONE:
            raise AssertionError("internal: counit terms of the product do not normalize")
        if acc:
            table[src] = acc
    return DGC(total, table)


def _old_dgc_ho_pushout(f1: DGCMap, f2: DGCMap) -> tuple[DGC, DGCMap, DGCMap]:
    if f1.source is not f2.source and f1.source != f2.source:
        raise ValueError("pushout domain mismatch")
    c = f1.source
    b1, b2 = f1.target, f2.target
    total, _ = ho_pushout(f1.dgmap, f2.dgmap)

    def key_b1(k, i):
        return (k, i)

    def key_s(k1, i1):
        # suspended class of degree k1 + 1
        return (k1 + 1, b1.underlying.dim(k1 + 1) + i1)

    def key_b2(k, i):
        return (k, b1.underlying.dim(k) + c.underlying.dim(k - 1) + i)

    table: CoTable = {}
    for (k, i), t in b1.coproduct.items():
        table[key_b1(k, i)] = {(key_b1(*p), key_b1(*q)): v for (p, q), v in t.items()}
    for (k, i), t in b2.coproduct.items():
        table[key_b2(k, i)] = {(key_b2(*p), key_b2(*q)): v for (p, q), v in t.items()}
    for k in c.underlying.degrees():
        for i in range(c.underlying.dim(k)):
            acc: dict[PairKey, Fraction] = {}

            def add(p, coeff):
                s = acc.get(p, ZERO) + coeff
                if s:
                    acc[p] = s
                else:
                    acc.pop(p, None)

            for ((k1, i1), (k2, i2)), val in c.coproduct.get((k, i), {}).items():
                sign = -ONE if k1 % 2 else ONE
                for which, g in ((key_b1, f1.dgmap), (key_b2, f2.dgmap)):
                    img2 = g.block(k2).column(i2) if g.target.dim(k2) else ()
                    for j, cc in enumerate(img2):
                        if cc:
                            add((key_s(k1, i1), which(k2, j)), val * cc / 2)
                    img1 = g.block(k1).column(i1) if g.target.dim(k1) else ()
                    for j, cc in enumerate(img1):
                        if cc:
                            add((which(k1, j), key_s(k2, i2)), sign * val * cc / 2)
            if acc:
                table[key_s(k, i)] = acc
    out = DGC(total, table)
    inc1_blocks = {
        k: QMatrix(
            total.dim(k), b1.underlying.dim(k), {(i, i): ONE for i in range(b1.underlying.dim(k))}
        )
        for k in b1.underlying.degrees()
    }
    inc2_blocks = {}
    for k in b2.underlying.degrees():
        off = b1.underlying.dim(k) + c.underlying.dim(k - 1)
        inc2_blocks[k] = QMatrix(
            total.dim(k), b2.underlying.dim(k), {(off + i, i): ONE for i in range(b2.underlying.dim(k))}
        )
    inc1 = DGCMap(b1, out, DGMap(b1.underlying, total, inc1_blocks))
    inc2 = DGCMap(b2, out, DGMap(b2.underlying, total, inc2_blocks))
    return out, inc1, inc2


def _old_gen_dg(self) -> DG:
    basis: dict[int, tuple[str, ...]] = {}
    for name, d in self.cogenerators:
        basis[d] = basis.get(d, ()) + (name,)
    diff = {}
    for d in sorted(basis):
        tgt = basis.get(d - 1, ())
        if not tgt:
            continue
        ent = {}
        for j, (name, gd) in enumerate(self.cogenerators):
            if gd != d:
                continue
            jj = _old_gen_position(self, d, j)
            for h, c in self.corestriction.get((j,), {}).items():
                ent[(_old_gen_position(self, d - 1, h), jj)] = c
        diff[d] = QMatrix(len(tgt), len(basis[d]), ent)
    return DG(basis, diff)


def _old_gen_position(c: CofreeDGC, d: int, gen_idx: int) -> int:
    pos = 0
    for i, gd in enumerate(c.deg):
        if i == gen_idx:
            return pos
        if gd == d:
            pos += 1
    raise ValueError("cogenerator not found")


def _old_gen_dgmap(self) -> DGMap:
    src, tgt = _old_gen_dg(self.source), _old_gen_dg(self.target)
    blocks = {}
    for d in src.degrees():
        ent = {}
        for j, (name, gd) in enumerate(self.source.cogenerators):
            if gd != d:
                continue
            jj = _old_gen_position(self.source, d, j)
            for h, cc in self.gen_images.get(j, {}).items():
                ent[(_old_gen_position(self.target, d, h), jj)] = cc
        blocks[d] = QMatrix(tgt.dim(d), src.dim(d), ent)
    return DGMap(src, tgt, blocks)


def _old_cofree_path(f: CofreeDGCMap, g: CofreeDGCMap, r: int = 2, cap: Optional[int] = None) -> CofreeDGC:
    if f.target != g.target:
        raise ValueError("path codomain mismatch")
    if r < 2:
        raise ValueError("reduction level must be at least 2")
    u, v, w = f.source, f.target, g.source
    if cap is None:
        cap = min(u.cap, w.cap, v.cap - 1)
    total, _ = ho_pullback(_old_gen_dgmap(f), _old_gen_dgmap(g))
    red, incl = reduce_with_inclusion(r, total)

    # locate the pure strands inside the path complex
    udg, vdg = _old_gen_dg(u), _old_gen_dg(v)
    strand: dict[tuple[int, int], tuple[str, int]] = {}
    for k in total.degrees():
        nu = udg.dim(k)
        nm = vdg.dim(k + 1)
        for i in range(total.dim(k)):
            if i < nu:
                strand[(k, i)] = ("u", _old_gen_global(u, k, i))
            elif i < nu + nm:
                strand[(k, i)] = ("m", i - nu)
            else:
                strand[(k, i)] = ("w", _old_gen_global(w, k, i - nu - nm))

    # cogenerators above the cap can never enter a word, so drop them
    kept = [k for k in red.degrees() if k <= cap]
    gens: list[tuple[str, int]] = []
    locate: dict[tuple[int, int], int] = {}
    for k in kept:
        for i, name in enumerate(red.basis[k]):
            locate[(k, i)] = len(gens)
            gens.append((name, k))
    images = {
        locate[(k, i)]: {
            (k, j): incl.block(k).get(j, i) for j in range(total.dim(k)) if incl.block(k).get(j, i)
        }
        for k in kept
        for i in range(red.dim(k))
    }
    tot_deg = {key: key[0] for key in strand}

    def pure_corestriction(word: tuple[tuple[int, int], ...]) -> dict[tuple[int, int], Fraction]:
        # word of path-complex classes, canonically sorted; value in the path complex
        if len(word) == 1:
            (k, i) = word[0]
            col = total.d(k).column(i) if total.dim(k - 1) else ()
            return {(k - 1, j): cc for j, cc in enumerate(col) if cc}
        kinds = {strand[p][0] for p in word}
        if kinds == {"u"}:
            inner, tag = u, "u"
        elif kinds == {"w"}:
            inner, tag = w, "w"
        else:
            return {}
        sign, key = _canonical([strand[p][1] for p in word], inner.deg)
        if not sign:
            return {}
        back = _strand_keys(inner, tag, udg, vdg)
        out: dict[tuple[int, int], Fraction] = {}
        for h, cc in inner.corestriction.get(key, {}).items():
            out[back[h]] = out.get(back[h], ZERO) + sign * cc
        return {p: cc for p, cc in out.items() if cc}

    def _strand_keys(inner, tag, udg_, v_):
        # path-complex coordinates of each cogenerator of the given strand
        keys = {}
        for h, (_, d) in enumerate(inner.cogenerators):
            pos = _old_gen_position(inner, d, h)
            off = 0 if tag == "u" else udg_.dim(d) + v_.dim(d + 1)
            keys[h] = (d, off + pos)
        return keys

    out_core: dict[Word, dict[int, Fraction]] = {}
    stub = CofreeDGC(gens, cap, {})
    for k, ws in stub.words().items():
        for word in ws:
            expanded = _apply_letterwise(word, images, tot_deg)
            acc: dict[tuple[int, int], Fraction] = {}
            for pure, c0 in expanded.items():
                for p, cc in pure_corestriction(pure).items():
                    s = acc.get(p, ZERO) + c0 * cc
                    if s:
                        acc[p] = s
                    else:
                        acc.pop(p, None)
            if not acc:
                continue
            kk = k - 1
            rhs = [ZERO] * total.dim(kk)
            for (dd, j), cc in acc.items():
                if dd != kk:
                    raise AssertionError("internal: path corestriction not homogeneous")
                rhs[j] = cc
            sol = solve_linear(incl.block(kk), tuple(rhs)) if red.dim(kk) else None
            if sol is None:
                raise ValueError(
                    f"path reduction is not closed under the differential at {stub.word_name(word)}"
                )
            out_core[word] = {locate[(kk, j)]: cc for j, cc in enumerate(sol) if cc}
    return CofreeDGC(gens, cap, out_core)


def _old_gen_global(c: CofreeDGC, d: int, pos: int) -> int:
    seen = 0
    for i, gd in enumerate(c.deg):
        if gd == d:
            if seen == pos:
                return i
            seen += 1
    raise ValueError("cogenerator not found")


def _random_cofree(rng, names, cap):
    """A cofree coalgebra on cogenerators of random degrees in random order, with
    random linear and quadratic corestriction entries of degree -1."""
    degs = [rng.randint(2, 4) for _ in names]
    core = {}
    words = [(i,) for i in range(len(degs))] + [(i, j) for i in range(len(degs)) for j in range(i, len(degs))]
    for w in words:
        lower = [h for h, d in enumerate(degs) if d == sum(degs[i] for i in w) - 1]
        if lower and rng.random() < 0.6 and not (len(w) == 2 and w[0] == w[1] and degs[w[0]] % 2):
            core[w] = {rng.choice(lower): rat(rng.choice([1, -1, 2]))}
    return CofreeDGC(list(zip(names, degs)), cap, core)


def _random_cofree_map(rng, a, b):
    images = {}
    for i, d in enumerate(a.deg):
        same = [h for h, e in enumerate(b.deg) if e == d]
        if same and rng.random() < 0.8:
            images[i] = {rng.choice(same): rat(rng.choice([1, -1, 2]))}
    return CofreeDGCMap(a, b, images)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ValueError, AssertionError) as e:
        return type(e).__name__, str(e)


def _same_dgc(x, y):
    return list(x.underlying.basis.items()) == list(y.underlying.basis.items()) and x == y


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_generator_dgs_and_cofree_paths_match_the_old_positions(seed):
    rng = Random(seed)
    u, v, w = (_random_cofree(rng, [f"{p}{i}" for i in range(rng.randint(1, 3))], 6) for p in "uvw")
    for c in (u, v, w):
        new, old = c.gen_dg(), _old_gen_dg(c)
        assert list(new.basis.items()) == list(old.basis.items()) and new == old
    f, g = _random_cofree_map(rng, u, v), _random_cofree_map(rng, w, v)
    assert f.gen_dgmap() == _old_gen_dgmap(f) and g.gen_dgmap() == _old_gen_dgmap(g)
    checked = 0
    for a, b in ((f, g), (f, cofree_zero_map(CofreeDGC((), 6, {}), v)), (cofree_identity(v), cofree_identity(v))):
        # on chain maps of generator DGs; the old code failed other input earlier, in the strict pullback
        if all(validate_dg(x) == [] for x in (a.gen_dgmap(), b.gen_dgmap(), v.gen_dg(), a.source.gen_dg(), b.source.gen_dg())):
            assert _outcome(cofree_path, a, b) == _outcome(_old_cofree_path, a, b)
            checked += 1
    assert checked or validate_dg(v.gen_dg())


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["half", "koszul"]))
def test_pushouts_and_combines_match_the_old_offsets(seed, rule):
    rng = Random(seed)
    a = to_dgc(_random_cofree(rng, ["a", "b"][: rng.randint(1, 2)], 6))
    b = trivial_dgc(random_dg(rng, 2, 4, 3, prefix="t")) if rng.random() < 0.5 else to_dgc(_random_cofree(rng, ["c"], 5))
    assert _same_dgc(dgc_sum(a, b), _old_dgc_combine("sumTilde", a, b, sign_rule=rule))
    for kind, combine in (("product", dgc_product), ("smashTilde", dgc_smash)):
        assert _same_dgc(combine(a, b, sign_rule=rule), _old_dgc_combine(kind, a, b, sign_rule=rule))
    c = trivial_dgc(random_dg(rng, 1, 3, 3, prefix="c")) if rng.random() < 0.5 else a
    maps = []
    for target in (a, b):
        maps.append(DGCMap(c, target, random_chain_map(rng, c.underlying, target.underlying)))
    maps.append(zero_dgc_map(c, ZERO_DGC))
    for f1, f2 in ((maps[0], maps[1]), (maps[2], maps[0]), (maps[2], maps[2])):
        new, old = dgc_ho_pushout(f1, f2), _old_dgc_ho_pushout(f1, f2)
        assert _same_dgc_in_order(new[0], old[0]) and new[1].dgmap == old[1].dgmap and new[2].dgmap == old[2].dgmap


# -- the reduced coproduct in the tensor layout, against the pair-key code it replaced


def _old_pair_keys(dg: DG, k: int) -> list[PairKey]:
    out = []
    for k1 in dg.degrees():
        k2 = k - k1
        if dg.dim(k2) == 0:
            continue
        for i1 in range(dg.dim(k1)):
            for i2 in range(dg.dim(k2)):
                out.append(((k1, i1), (k2, i2)))
    return out


def _old_delta_matrix(c: DGC, k: int) -> tuple[QMatrix, list[PairKey]]:
    pairs = _old_pair_keys(c.underlying, k)
    index = {p: r for r, p in enumerate(pairs)}
    ent = {}
    for i in range(c.underlying.dim(k)):
        for p, val in c.coproduct.get((k, i), {}).items():
            ent[(index[p], i)] = val
    return QMatrix(len(pairs), c.underlying.dim(k), ent), pairs


def _old_primitives_with_inclusion(c: DGC, prefix: str = "pr"):
    vectors = {}
    for k in c.underlying.degrees():
        m, _ = _old_delta_matrix(c, k)
        vectors[k] = kernel_basis(m)
    return sub_dg(c.underlying, vectors, prefix=prefix)


def _old_reduce_dgc(r: int, c) -> DGC:
    c = _as_dgc(c)
    dg = c.underlying
    spans: dict[int, QMatrix] = {}
    for k in dg.degrees():
        if k > r:
            spans[k] = QMatrix.identity(dg.dim(k))
        elif k == r:
            spans[k] = kernel_basis(dg.d(r))
    changed = True
    while changed:
        changed = False
        for k in sorted(spans):
            x = spans[k]
            if x.cols == 0:
                continue
            pairs = _old_pair_keys(dg, k)
            index = {p: rr for rr, p in enumerate(pairs)}
            good_cols = []
            for k1 in sorted(spans):
                k2 = k - k1
                if k2 not in spans:
                    continue
                x1, x2 = spans[k1], spans[k2]
                for j1 in range(x1.cols):
                    c1 = x1.column(j1)
                    for j2 in range(x2.cols):
                        c2 = x2.column(j2)
                        col = [ZERO] * len(pairs)
                        for i1, a1 in enumerate(c1):
                            if not a1:
                                continue
                            for i2, a2 in enumerate(c2):
                                if a2:
                                    col[index[((k1, i1), (k2, i2))]] = a1 * a2
                        good_cols.append(tuple(col))
            smat = QMatrix.from_columns(good_cols, len(pairs))
            amat = kernel_basis(smat.transpose()).transpose()
            dmat = QMatrix(
                len(pairs),
                dg.dim(k),
                {(index[p], i): v for i in range(dg.dim(k)) for p, v in c.coproduct.get((k, i), {}).items()},
            )
            keep = kernel_basis(amat * (dmat * x))
            if keep.cols != x.cols:
                spans[k] = x * keep
                changed = True
    if all(spans.get(k, QMatrix.zero(0, 0)).cols == dg.dim(k) for k in dg.degrees()):
        return c
    return _old_sub_dgc(c, spans, prefix=f"r{r}_")[0]


def _old_sub_dgc(c: DGC, spans, prefix: str):
    sub, incl = sub_dg(c.underlying, spans, prefix=prefix)
    table: CoTable = {}
    for k in sub.degrees():
        pairs = _old_pair_keys(sub, k)
        if not pairs:
            for i in range(sub.dim(k)):
                if _delta_vec(c, k, incl.block(k).column(i)):
                    raise ValueError(f"span not closed under the coproduct at degree {k}")
            continue
        amb_pairs = _old_pair_keys(c.underlying, k)
        amb_index = {p: rr for rr, p in enumerate(amb_pairs)}
        cols = []
        for (k1, i1), (k2, i2) in pairs:
            c1 = incl.block(k1).column(i1)
            c2 = incl.block(k2).column(i2)
            col = [ZERO] * len(amb_pairs)
            for j1, a1 in enumerate(c1):
                if not a1:
                    continue
                for j2, a2 in enumerate(c2):
                    if a2:
                        col[amb_index[((k1, j1), (k2, j2))]] = a1 * a2
            cols.append(tuple(col))
        basis_mat = QMatrix.from_columns(cols, len(amb_pairs))
        rhs_cols = []
        for i in range(sub.dim(k)):
            t = _delta_vec(c, k, incl.block(k).column(i))
            col = [ZERO] * len(amb_pairs)
            for p, v in t.items():
                col[amb_index[p]] = v
            rhs_cols.append(tuple(col))
        sol = solve_matrix(basis_mat, QMatrix.from_columns(rhs_cols, len(amb_pairs)))
        if sol is None:
            raise ValueError(f"span not closed under the coproduct at degree {k}")
        for i in range(sub.dim(k)):
            t = {pairs[rr]: sol.get(rr, i) for rr in range(len(pairs)) if sol.get(rr, i)}
            if t:
                table[(k, i)] = t
    out = DGC(sub, table)
    return out, DGCMap(out, c, incl)


def _same_dgc_in_order(x, y):
    """Equal coalgebras whose basis and coproduct tables are listed in the same order."""
    def listed(t):
        return [(key, list(pairs.items())) for key, pairs in t.coproduct.items()]

    return _same_dgc(x, y) and listed(x) == listed(y)


def _assert_same_outcome(got, want):
    """Both raised the same error, or both returned the same coalgebra (alone or
    first in a pair)."""
    if isinstance(want, tuple) and isinstance(want[0], str):
        assert got == want
    else:
        x, y = (got[0], want[0]) if isinstance(want, tuple) else (got, want)
        assert _same_dgc_in_order(x, y)


def _random_sub_vectors(rng, c: DGC):
    """Random combinations of basis vectors in each degree, as the columns of a
    matrix: seldom closed under d or the coproduct, so both the solved and the
    raising paths are reached."""
    out = {}
    for k in c.underlying.degrees():
        n = c.underlying.dim(k)
        out[k] = QMatrix.from_columns(
            [tuple(rat(rng.choice([0, 0, 1, -1, 2])) for _ in range(n)) for _ in range(rng.randint(0, n))], n)
    return out


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_reduction_primitives_and_subs_match_the_pair_key_code(seed):
    rng = Random(seed)
    if rng.random() < 0.5:
        lam = _random_cofree(rng, ["a", "b", "c"][: rng.randint(1, 3)], rng.randint(6, 8))
    else:
        lam = cofree_lambda(random_dg(rng, min_deg=2, max_deg=4, max_pieces=3), rng.randint(6, 8))
    c = to_dgc(lam)
    for r in range(2, 6):
        _assert_same_outcome(_outcome(reduce_dgc, r, lam), _outcome(_old_reduce_dgc, r, lam))
    new, old = primitives_with_inclusion(c), _old_primitives_with_inclusion(c)
    assert list(new[0].basis.items()) == list(old[0].basis.items()) and new == old
    # spans that are sub-coalgebras: the whole, the primitives, and random spans
    spans = [identity_map(c.underlying).blocks, new[1].blocks, _random_sub_vectors(rng, c)]
    for vectors in spans:
        got, want = _outcome(_sub_dgc, c, _square(c.underlying), vectors, "s"), _outcome(_old_sub_dgc, c, vectors, "s")
        _assert_same_outcome(got, want)
        if not isinstance(want[0], str):
            assert got[1].dgmap == want[1].dgmap


def _full_coproduct_map(c):
    """_coproduct_map as it was: V (x) V laid out in every degree, up to twice
    V's top degree."""
    from rht.dgcore import _tensor_with_index

    dg = c.underlying
    square, index = _tensor_with_index(dg, dg)
    ent: dict = {}
    for (k, i), table in c.coproduct.items():
        for ((k1, i1), (k2, i2)), val in table.items():
            ent.setdefault(k, {})[(index[(k1, i1, k2, i2)][1], i)] = val
    return DGMap(dg, square, {k: QMatrix(square.dim(k), dg.dim(k), e) for k, e in ent.items()})


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(5, 9), st.booleans())
def test_coproduct_map_lays_out_the_square_only_up_to_the_top_degree(seed, cap, cofree):
    rng = Random(seed)
    v = random_dg(rng, min_deg=2 if cofree else 1, max_deg=5, max_pieces=3)
    c = to_dgc(cofree_lambda(v, cap)) if cofree else trivial_dgc(v)
    got, want = _coproduct_map(c, _square(c.underlying)), _full_coproduct_map(c)
    top = max(c.underlying.degrees(), default=0)
    assert max(got.target.degrees(), default=top) <= top
    for k in got.target.degrees():
        assert got.target.basis[k] == want.target.basis[k] and got.target.d(k) == want.target.d(k)
    assert all(got.block(k) == want.block(k) for k in c.underlying.degrees())


def test_each_coalgebra_identity_lays_its_squares_out_once(monkeypatch):
    """One layout of V (x) V for a DGC check, a DGCMap check and reduce_dgc,
    whose _sub_dgc reads the same square; none in _sub_dgc, whose pairs need
    no layout of sub (x) sub; and no DG built to carry one."""
    import rht.dgc as dgc

    lam = cofree_lambda(DG({2: ("a",), 3: ("b",), 4: ("c",)}), 8)
    c = to_dgc(lam)
    layouts, dgs = [], []
    real_layout, real_dg = dgc._tensor_with_index, dgc.DG
    monkeypatch.setattr(dgc, "_tensor_with_index", lambda *args: layouts.append(args) or real_layout(*args))
    monkeypatch.setattr(dgc, "DG", lambda *args: dgs.append(args) or real_dg(*args))

    def count(fn, *args):
        layouts.clear()
        out = fn(*args)
        return len(layouts), out

    assert count(dgc_validate, c) == (1, [])
    assert count(dgc_validate, identity_dgc_map(c)) == (1, [])
    assert count(reduce_dgc, 2, c) == (1, c)  # nothing is cut, so no sub-coalgebra is built
    assert dgs == []
    n, reduced = count(reduce_dgc, 3, c)
    assert n == 1 and dgc_validate(reduced) == []  # its own square, which _sub_dgc reads too
    square, spans = _square(c.underlying), primitives_with_inclusion(c)[1].blocks
    assert count(_sub_dgc, c, square, spans, "p")[0] == 0


def test_a_map_check_reaches_the_top_degree_of_the_source():
    """(f (x) f) Delta_S lands in T (x) T in degrees above T's top: the square
    is laid out through the larger top degree, so the failure is seen."""
    s = DGC(DG({2: ("a",), 3: ("b",), 5: ("x",)}), {(5, 0): {((2, 0), (3, 0)): ONE, ((3, 0), (2, 0)): ONE}})
    t = trivial_dgc(DG({2: ("a'",), 3: ("b'",)}))
    f = DGMap(s.underlying, t.underlying, {2: QMatrix.identity(1), 3: QMatrix.identity(1)})
    assert dgc_validate(DGCMap(s, t, f)) == ["map does not respect the coproduct at (5,0)"]


# -- compatibility on the coproduct map, against the pair algebra it replaced ------------


def _delta_vec(c: DGC, k: int, v) -> dict:
    """The reduced coproduct of a vector of degree k, as a pair table."""
    out: dict = {}
    for i, x in enumerate(v):
        for p, val in c.coproduct.get((k, i), {}).items() if x else ():
            s = out.get(p, ZERO) + x * val
            if s:
                out[p] = s
            else:
                out.pop(p, None)
    return out


def _apply_pair(f: DGMap, table) -> dict:
    """(f tensor f) applied to a pair table."""
    out: dict = {}
    for ((k1, i1), (k2, i2)), val in table.items():
        v1 = f.block(k1).column(i1) if f.target.dim(k1) else ()
        v2 = f.block(k2).column(i2) if f.target.dim(k2) else ()
        for j1, c1 in enumerate(v1):
            for j2, c2 in enumerate(v2):
                if c1 and c2:
                    key = ((k1, j1), (k2, j2))
                    s = out.get(key, ZERO) + val * c1 * c2
                    if s:
                        out[key] = s
                    else:
                        out.pop(key, None)
    return out


def _d_of_pair(dg: DG, table) -> dict:
    """(d tensor 1 + signed 1 tensor d) applied to a pair table."""
    out: dict = {}

    def add(key, x):
        s = out.get(key, ZERO) + x
        if s:
            out[key] = s
        else:
            out.pop(key, None)

    for ((k1, i1), (k2, i2)), val in table.items():
        for r in range(dg.dim(k1 - 1)):
            if x := dg.d(k1).get(r, i1):
                add(((k1 - 1, r), (k2, i2)), val * x)
        sign = -ONE if k1 % 2 else ONE
        for r in range(dg.dim(k2 - 1)):
            if x := dg.d(k2).get(r, i2):
                add(((k1, i1), (k2 - 1, r)), sign * val * x)
    return out


def _old_dgc_validate(c) -> list[str]:
    """dgc_validate as it was, on pair tables, for DGC and DGCMap values.  Its
    malformed-entry branch is left out: DGC construction rejects those entries."""
    if isinstance(c, DGCMap):
        report = list(validate_dg(c.dgmap))
        src, tgt = c.source, c.target
        for k in src.underlying.degrees():
            for i in range(src.underlying.dim(k)):
                lhs = _delta_vec(tgt, k, c.dgmap.apply(k, _unit_vec(src.underlying.dim(k), i)))
                rhs = _apply_pair(c.dgmap, src.coproduct.get((k, i), {}))
                if lhs != rhs:
                    report.append(f"map does not respect the coproduct at ({k},{i})")
        return report
    report = list(validate_dg(c.underlying))
    dg = c.underlying
    for (k, i), table in sorted(c.coproduct.items()):
        for ((k1, i1), (k2, i2)), val in table.items():
            sign = -ONE if (k1 * k2) % 2 else ONE
            if table.get(((k2, i2), (k1, i1)), ZERO) != sign * val:
                report.append(f"cocommutativity fails at ({k},{i}) on pair (({k1},{i1}),({k2},{i2}))")
    for k in dg.degrees():
        for i in range(dg.dim(k)):
            table = c.coproduct.get((k, i), {})
            left: dict = {}
            right: dict = {}
            for ((k1, i1), b), val in table.items():
                for (a1, a2), v2 in c.coproduct.get((k1, i1), {}).items():
                    left[(a1, a2, b)] = left.get((a1, a2, b), ZERO) + val * v2
            for (a, (k2, i2)), val in table.items():
                for (b1, b2), v2 in c.coproduct.get((k2, i2), {}).items():
                    right[(a, b1, b2)] = right.get((a, b1, b2), ZERO) + val * v2
            if {t: v for t, v in left.items() if v} != {t: v for t, v in right.items() if v}:
                report.append(f"coassociativity fails at ({k},{i})")
            lhs = _delta_vec(c, k - 1, dg.d(k).apply(_unit_vec(dg.dim(k), i)))
            if lhs != _d_of_pair(dg, table):
                report.append(f"coproduct does not commute with d at ({k},{i})")
    return report


def _small_cofree(rng) -> CofreeDGC:
    if rng.random() < 0.5:
        return _random_cofree(rng, ["a", "b", "c"][: rng.randint(1, 3)], rng.randint(5, 7))
    return cofree_lambda(random_dg(rng, min_deg=2, max_deg=4, max_pieces=2), rng.randint(5, 7))


def _random_coalgebra(rng) -> DGC:
    """A cofree expansion, a product under either sign rule, a cylinder, a cone
    or a join, mostly with a nonzero coproduct."""
    from rht.calculus import join

    kind = rng.choice(["cofree", "product", "cylinder", "cone", "join"])
    a = to_dgc(_small_cofree(rng))
    if kind == "cofree":
        return a
    if kind == "product":
        b = to_dgc(_random_cofree(rng, ["p"], 5)) if rng.random() < 0.7 else trivial_dgc(random_dg(rng, 1, 3, 2))
        return rng.choice([dgc_product, dgc_smash])(a, b, sign_rule=rng.choice(["half", "koszul"]))
    if kind == "join":
        return join(a, rng.randint(1, 2))
    c = to_dgc(_random_cofree(rng, ["u"], 4)) if rng.random() < 0.7 else trivial_dgc(random_dg(rng, 1, 3, 2))
    f = DGCMap(c, a, random_chain_map(rng, c.underlying, a.underlying))
    if kind == "cone":
        return dgc_ho_cofiber(f)[0]
    b = to_dgc(_small_cofree(rng))
    return dgc_ho_pushout(f, DGCMap(c, b, random_chain_map(rng, c.underlying, b.underlying)))[0]


def _corrupted(rng, c: DGC) -> DGC:
    """c with one entry's sign flipped, one entry dropped, or an entry added
    together with its swap."""
    table = {k: dict(t) for k, t in c.coproduct.items()}
    entries = [(k, p) for k, t in sorted(table.items()) for p in t]
    kind = rng.choice(["flip", "drop", "add"])
    if kind != "add" and entries:
        key, pair = rng.choice(entries)
        if kind == "flip":
            table[key][pair] = -table[key][pair]
        else:
            del table[key][pair]
        return DGC(c.underlying, table)
    dg = c.underlying
    slots = [((k1, i1), (k2, i2)) for k1 in dg.degrees() for k2 in dg.degrees()
             for i1 in range(dg.dim(k1)) for i2 in range(dg.dim(k2)) if dg.dim(k1 + k2)]
    if slots:
        a, b = rng.choice(slots)
        t = table.setdefault((a[0] + b[0], rng.randrange(dg.dim(a[0] + b[0]))), {})
        x, sign = rat(rng.choice([1, -1, 2])), -ONE if (a[0] * b[0]) % 2 else ONE
        t[(a, b)] = t.get((a, b), ZERO) + x
        t[(b, a)] = t.get((b, a), ZERO) + sign * x
    return DGC(c.underlying, table)


def _random_coalgebra_map(rng) -> DGCMap:
    """to_dgc_map of a cofree map, an identity or a zero map, sometimes with
    one entry of one block changed."""
    kind = rng.choice(["cofree", "identity", "zero"])
    if kind == "cofree":
        a = _random_cofree(rng, ["a", "b"][: rng.randint(1, 2)], 6)
        b = _random_cofree(rng, ["p", "q", "r"][: rng.randint(1, 3)], 6)
        f = _random_cofree_map(rng, a, b).to_dgc_map()
    elif kind == "identity":
        f = identity_dgc_map(_random_coalgebra(rng))
    else:
        f = zero_dgc_map(_random_coalgebra(rng), _random_coalgebra(rng))
    src, tgt = f.source.underlying, f.target.underlying
    cells = [(k, r, c) for k in src.degrees() for r in range(tgt.dim(k)) for c in range(src.dim(k))]
    if cells and rng.random() < 0.5:
        k, r, c = rng.choice(cells)
        blocks = dict(f.dgmap.blocks)
        blocks[k] = f.dgmap.block(k) + QMatrix(tgt.dim(k), src.dim(k), {(r, c): rat(rng.choice([1, -1, 3]))})
        f = DGCMap(f.source, f.target, DGMap(src, tgt, blocks))
    return f


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_validation_on_the_coproduct_map_reports_what_the_pair_algebra_reported(seed):
    rng = Random(seed)
    c = _random_coalgebra(rng)
    for x in (c, _corrupted(rng, c), _random_coalgebra_map(rng)):
        assert dgc_validate(x) == _old_dgc_validate(x)


def test_validation_on_the_coproduct_map_reports_each_failing_column():
    c = to_dgc(cofree_lambda(DG({2: ("v",)}), 8))
    cyl = dgc_ho_pushout(identity_dgc_map(c), identity_dgc_map(c))[0]
    lam = to_dgc(cofree_lambda(DG({2: ("v",), 4: ("e",)}), 8))
    table = {k: dict(t) for k, t in lam.coproduct.items()}
    del table[(6, 0)][((2, 0), (4, 0))]
    bad = DGC(lam.underlying, table)
    dg = lam.underlying
    doubled = DGCMap(lam, lam, DGMap(dg, dg, {k: QMatrix.identity(dg.dim(k)).scale(2) for k in dg.degrees()}))
    for x in (cyl, bad, doubled):
        got = dgc_validate(x)
        assert got and got == _old_dgc_validate(x)
    assert "cocommutativity fails at (6,0) on pair ((4,0),(2,0))" in dgc_validate(bad)
    # Delta(2x) = 2 Delta x against (2 (x) 2) Delta x: every column with a coproduct fails
    assert dgc_validate(doubled) == [f"map does not respect the coproduct at ({k},{i})" for k, i in sorted(lam.coproduct)]


def test_malformed_coproduct_entries_raise_at_construction():
    v = DG({2: ("a",), 3: ("b",), 5: ("c",)})
    good = {(5, 0): {((2, 0), (3, 0)): ONE, ((3, 0), (2, 0)): ONE}}
    assert DGC(v, good).coproduct == good
    assert _coproduct_map(DGC(v, good), _square(v)).block(5).entries == {(0, 0): ONE, (1, 0): ONE}
    bad_tables = [
        {(5, 0): {((2, 0), (2, 0)): ONE}},  # a pair of degree 4 under a key of degree 5
        {(5, 0): {((2, 1), (3, 0)): ONE}},  # an index past its degree's dimension
        {(5, 0): {((2, -1), (3, 0)): ONE}},  # a negative index
        {(5, 0): {((4, 0), (1, 0)): ONE}},  # degrees with no basis
        {(5, 1): {((2, 0), (3, 0)): ONE}},  # a key index outside the basis
        {(6, 0): {((3, 0), (3, 0)): ONE}},  # a key degree outside the basis
    ]
    for table in bad_tables:
        key = next(iter(table))
        with pytest.raises(ValueError, match=rf"malformed coproduct entry at \({key[0]},{key[1]}\)"):
            DGC(v, table)
    # zero entries are dropped before the check, as they carry no coproduct
    assert DGC(v, {(6, 0): {((3, 0), (3, 0)): ZERO}}).coproduct == {}
