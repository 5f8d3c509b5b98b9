"""Coalgebra-side oracles.

Dimensions of the truncated symmetric coalgebra are checked against an
independent generating-function count (polynomial factor per even
cogenerator, binomial factor per odd one), with no shared code with the
word enumeration under test.  The coalgebra axioms themselves are checked
by dgc_validate, which works on raw structure constants.
"""

from fractions import Fraction
from random import Random

import pytest

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
    dgc_combine,
    dgc_ho_cofiber,
    dgc_ho_pushout,
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


def test_validate_reports_inhomogeneous_corestriction():
    bad = CofreeDGC([("a", 2), ("e", 4)], 8, {(1,): {0: ONE}})
    assert any("homogeneous" in m for m in dgc_validate(bad))


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
    s = dgc_combine("sumTilde", a, b)
    assert dgc_validate(s) == []
    assert dgc_dims(s) == {2: 1, 3: 1, 4: 1, 6: 1, 8: 1}


def test_product_even_inputs_sign_rules_agree():
    a = cofree_lambda(DG({2: ("v",)}), 6)
    b = cofree_lambda(DG({2: ("w",)}), 6)
    half = dgc_combine("product", a, b)
    koszul = dgc_combine("product", a, b, sign_rule="koszul")
    assert half == koszul
    assert dgc_validate(half) == []


def test_product_matches_two_variable_coalgebra():
    """Dimensions of Lambda(v) x Lambda(w) agree with Lambda(v + w) inside
    the shared window."""
    cap = 8
    a = cofree_lambda(DG({2: ("v",)}), cap)
    b = cofree_lambda(DG({4: ("w",)}), cap)
    prod = dgc_combine("product", a, b)
    both = cofree_lambda(DG({2: ("v",), 4: ("w",)}), cap)
    pd, bd = dgc_dims(prod), dgc_dims(both)
    for k in range(1, cap + 1):
        assert pd.get(k, 0) == bd.get(k, 0)


def test_product_half_rule_fails_cocommutativity_on_odd_classes():
    # recorded counterexample: two exterior classes of degree 3
    x = cofree_lambda(DG({3: ("x",)}), 9)
    y = cofree_lambda(DG({3: ("y",)}), 9)
    report = dgc_validate(dgc_combine("product", x, y))
    assert any("cocommutativity fails at (6," in m for m in report)
    assert dgc_validate(dgc_combine("product", x, y, sign_rule="koszul")) == []


def test_smash_tilde():
    a = cofree_lambda(DG({2: ("v",)}), 6)
    x = cofree_lambda(DG({3: ("x",)}), 6)
    sm = dgc_combine("smashTilde", a, x, sign_rule="koszul")
    assert dgc_validate(sm) == []
    # de-augmentations multiply
    da, dx = dgc_dims(a), dgc_dims(x)
    expected = {}
    for i, m in da.items():
        for j, n in dx.items():
            expected[i + j] = expected.get(i + j, 0) + m * n
    assert dgc_dims(sm) == expected


def test_combine_rejects_unknown_kind():
    a = to_dgc(cofree_lambda(DG({2: ("v",)}), 4))
    with pytest.raises(ValueError):
        dgc_combine("coproduct", a, a)
    with pytest.raises(ValueError):
        dgc_combine("product", a, a, sign_rule="plain")


# -- suspensions, cones, cylinders ------------------------------------------------------


def test_suspension():
    c = to_dgc(cofree_lambda(DG({2: ("v",)}), 8))
    s = suspension_dgc(c)
    assert dgc_validate(s) == []
    assert s.coproduct == {}
    assert dgc_dims(s) == {k + 1: n for k, n in dgc_dims(c).items()}


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

    from rht.dgc import _d_of_pair
    from rht.exactq import _unit_vec

    dg = cyl.underlying
    for k in dg.degrees():
        for i in range(dg.dim(k)):
            if strand_of((k, i)) != "s":
                continue
            full = cyl.delta_basis(k, i)
            for end in ("b1", "b2"):
                lhs = project(cyl.delta_vec(k - 1, dg.d(k).apply(_unit_vec(dg.dim(k), i))), end)
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
    s1 = dgc_combine("product", a, b, sign_rule="koszul")
    s2 = dgc_combine("product", a, b, sign_rule="koszul")
    assert s1 == s2
