"""Bridge functors: Chevalley-Eilenberg, cobar, counit, linearizations,
stable functors, Snaith splitting, rational invariants."""

import random
from fractions import Fraction

import pytest

from rht.cli import build_model, parse_model
from rht.dgc import CofreeDGC, cofree_lambda, dgc_validate, to_dgc, trivial_dgc
from rht.dgcore import (
    DG,
    cone_dg,
    homology_dims,
    reduce_dg,
    shift,
    validate_dg,
)
from rht.dgl import (
    FreeDGL,
    FreeDGLMap,
    abelianize,
    dgl_validate,
    free_lie_basis,
    to_dgl,
)
from rht.exactq import ONE
from rht.quillen import (
    cec_C,
    cobar_L,
    counit_eps,
    infinite_loops_dgc,
    infinite_loops_dgl,
    linearize_equiv,
    rational_homology,
    rational_homotopy,
    snaith,
    sphere_model,
    stabilization,
)
from rht.randgen import random_dg

HALF = Fraction(1, 2)


def symmetric_dims_oracle(degrees, cap):
    """Graded dims of the free graded-commutative coalgebra on classes of
    the given degrees, constant term dropped: polynomial on even classes,
    exterior on odd ones."""
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


def sphere_lie(n, cap=None):
    return FreeDGL(free_lie_basis([("x", n - 1)], cap or 2 * n), {})


# -- Chevalley-Eilenberg ------------------------------------------------------------


def test_cec_sphere_models_are_valid_with_correct_homology():
    for n in range(2, 7):
        l = sphere_lie(n)
        cc = cec_C(l, 2 * n + 1)
        assert dgc_validate(cc) == []
        h = homology_dims(to_dgc(cc).underlying)
        assert {k: v for k, v in h.items() if k < cc.cap} == {n: 1}


def test_cec_repeated_letter_coefficient_is_halved():
    # one odd generator: d of the weight-two word must hit s[x,x] with -1/2
    l = sphere_lie(2, cap=4)
    cc = cec_C(l, 5)
    assert cc.deg == (2, 3)  # s(x), s([x,x])
    assert cc.corestriction[(0, 0)] == {1: -HALF}
    assert dgc_validate(cc) == []


def test_cec_distinct_pair_coefficient_sign():
    b = free_lie_basis([("x", 2), ("y", 3)], 6)
    l = FreeDGL(b, {})
    cc = cec_C(l, 7)
    # cogens by degree: s(x) (3), s(y) (4), s([x,y]) (6)
    i_xy = cc.gen_index["s([x,y])"]
    assert cc.corestriction[(0, 1)] == {i_xy: ONE}  # (-1)^{|x|} = +1
    assert dgc_validate(cc) == []


def test_cec_cap_window_error():
    l = sphere_lie(3, cap=4)
    with pytest.raises(ValueError, match="bracket-faithful"):
        cec_C(l, 8)


def test_cec_with_differential_validates():
    b = free_lie_basis([("x", 2), ("y", 3)], 6)
    l = FreeDGL(b, {1: {(0,): ONE}})
    assert dgl_validate(l) == []
    cc = cec_C(l, 7)
    assert dgc_validate(cc) == []


# -- cobar ---------------------------------------------------------------------------


def test_cobar_polynomial_coalgebra():
    pv = cofree_lambda(DG({2: ("v",)}), 6)
    lc = cobar_L(pv, 5)
    assert dgl_validate(lc) == []
    # d(s^-1 v^2) = -(1/2)[a,a] with a = s^-1 v, i.e. -a|a in the tensor algebra
    assert lc.gen_diff[1] == {(0, 0): -ONE}
    h = homology_dims(to_dgl(lc).underlying)
    assert {k: v for k, v in h.items() if k < lc.cap - 1} == {1: 1}


def test_cobar_exterior_coalgebra():
    ev = cofree_lambda(DG({3: ("w",)}), 9)
    lc = cobar_L(ev, 6)
    assert dgl_validate(lc) == []
    h = homology_dims(to_dgl(lc).underlying)
    assert {k: v for k, v in h.items() if k < lc.cap - 1} == {2: 1}


def test_cobar_sign_rules_both_square_to_zero():
    pv = cofree_lambda(DG({2: ("v",)}), 6)
    a = cobar_L(pv, 5)
    b = cobar_L(pv, 5, sign_rule="suspended")
    assert dgl_validate(a) == [] and dgl_validate(b) == []
    # isomorphic via the sign automorphism on generators: same homology
    assert homology_dims(to_dgl(a).underlying) == homology_dims(to_dgl(b).underlying)
    with pytest.raises(ValueError, match="sign_rule"):
        cobar_L(pv, 5, sign_rule="plus")


def test_cobar_requires_two_reduced_input():
    with pytest.raises(ValueError, match="2-reduced"):
        cobar_L(trivial_dgc(DG({1: ("a",)})), 4)


# -- counit -------------------------------------------------------------------------


def test_counit_sphere_models():
    for n in range(2, 7):
        eps, q = counit_eps(sphere_lie(n))
        assert q
        assert validate_dg(eps.to_dgmap()) == []


def test_counit_with_nontrivial_differential():
    b = free_lie_basis([("x", 2), ("y", 3)], 6)
    l = FreeDGL(b, {1: {(0,): ONE}})
    eps, q = counit_eps(l)
    assert q


def test_counit_on_cobar_of_random_cofree_inputs():
    rng = random.Random(515)
    hits = 0
    for _ in range(5):
        v = random_dg(rng, 2, 4, 2)
        if v.is_trivial():
            continue
        lc = cobar_L(cofree_lambda(v, 6), 5)
        eps, q = counit_eps(lc)
        assert q
        hits += 1
    assert hits >= 3


def test_counit_fails_under_suspended_sign_reading():
    # the witness that pins the desuspended convention: with the coproduct
    # sign read at suspended degree, sending length-one generators to their
    # Lie elements is not a chain map
    l = sphere_lie(2, cap=4)
    cc = cec_C(l, 5)
    lc = cobar_L(cc, 4, sign_rule="suspended")
    good = cobar_L(cc, 4)
    eps, _ = counit_eps(l, cap=4)
    bad = FreeDGLMap(lc, l, eps.gen_images)
    assert good.basis == lc.basis
    assert validate_dg(bad.to_dgmap()) != []


# -- linearizations -----------------------------------------------------------------


def test_linearize_C_side_on_spheres_and_nonfree_kernel():
    for n in (2, 3, 4):
        f, q = linearize_equiv(sphere_lie(n))
        assert q


def test_linearize_C_side_abelian_is_isomorphism():
    l = FreeDGL(free_lie_basis([("x", 3)], 5), {})
    f, q = linearize_equiv(l)
    assert q
    assert f.source.dim(4) == f.target.dim(4) == 1


@pytest.mark.parametrize("gens", [[("b", 2), ("a", 4)], [("a", 4), ("b", 2)], [("c", 3), ("a", 4), ("b", 2), ("d", 3)]])
def test_linearize_L_side_sends_each_cogenerator_to_its_own_generator(gens):
    # the cogenerators may be listed in any degree order
    f, q = linearize_equiv(CofreeDGC(gens, 8, {}))
    assert q
    for k in f.source.degrees():
        m = f.block(k)
        assert sorted(c for _, c in m.entries) == list(range(f.source.dim(k)))
        assert all(f.target.basis[k][r] == f.source.basis[k][c] for r, c in m.entries)


def test_linearize_C_side_sends_each_generator_to_its_own_class():
    l = FreeDGL(free_lie_basis([("y", 2), ("z", 3), ("x", 2)], 6), {})
    f, q = linearize_equiv(l)
    assert q
    pairs = [(f.source.basis[k][c], f.target.basis[k][r]) for k, m in f.blocks.items() for r, c in m.entries]
    assert sorted(pairs) == [("s(x)", "s(x)"), ("s(y)", "s(y)"), ("s(z)", "s(z)")]


def test_linearize_L_side_polynomial_and_exterior():
    for v, cap in ((DG({2: ("v",)}), 6), (DG({3: ("w",)}), 9)):
        f, q = linearize_equiv(cofree_lambda(v, cap))
        assert q


def test_linearize_L_side_random_cofree():
    rng = random.Random(99)
    for _ in range(4):
        v = random_dg(rng, 2, 4, 2)
        if v.is_trivial():
            continue
        f, q = linearize_equiv(cofree_lambda(v, 6))
        assert q


def test_linearize_type_errors():
    # the input's kind picks the side: a free DGL or a cofree DGC, nothing else
    with pytest.raises(TypeError):
        linearize_equiv(DG({2: ("v",)}))
    with pytest.raises(TypeError):
        linearize_equiv(to_dgl(sphere_lie(2)))
    with pytest.raises(TypeError):
        linearize_equiv(sphere_model(2))


# -- stable functors ----------------------------------------------------------------


def test_stable_loops_of_sphere_dg():
    l = infinite_loops_dgl(DG({4: ("e",)}))
    assert l.underlying.dim(3) == 1
    assert not any(l.bracket_basis(3, 0, 3, 0))


def test_stabilization_of_infinite_loops_is_the_reduction():
    """The paper's DG ~ Stab(DGL): Sigma^infinity after Omega^infinity into DGL
    gives back the r-reduction, its dims and its d blocks, on 200 seeded DGs
    at r = 1, 2 and 3."""
    rng = random.Random(11)
    for _ in range(200):
        v = random_dg(rng, rng.randint(-1, 2), rng.randint(3, 6))
        for r in (1, 2, 3):
            got, want = stabilization(infinite_loops_dgl(v, r)), reduce_dg(r, v)
            assert {k: got.dim(k) for k in got.degrees()} == {k: want.dim(k) for k in want.degrees()}
            assert all(got.d(k) == want.d(k) for k in want.degrees())


def test_stable_suspension_of_lie_model():
    v = stabilization(sphere_lie(3))
    assert {k: v.dim(k) for k in v.degrees()} == {3: 1}


def test_stable_dgc_functors():
    c = sphere_model(4)
    assert stabilization(c) == c.underlying
    lam = infinite_loops_dgc(DG({3: ("w",)}), cap=9)
    assert {k: len(ws) for k, ws in lam.words().items()} == {3: 1}


def test_stable_dg_functors():
    v = DG({1: ("a",), 3: ("b",)})
    assert stabilization(v) == v
    assert reduce_dg(2, v).dim(1) == 0  # Omega^infinity into DG
    # the category is the input's: a finite Lie model and a cofree coalgebra too
    assert stabilization(to_dgl(sphere_lie(3))).basis == {3: ("s(ab(x))",)}
    c = cofree_lambda(DG({3: ("w",)}), 9)
    assert stabilization(c) == to_dgc(c).underlying
    with pytest.raises(TypeError):
        stabilization({})


def test_stable_suspension_of_cobar_recovers_the_coalgebra():
    # s((L C)^ab) has the same underlying data as the de-augmentation of C
    rng = random.Random(31)
    v = random_dg(rng, 2, 4, 2)
    cc = cofree_lambda(v, 6)
    lc = cobar_L(cc, 5)
    back = shift(abelianize(lc), 1)
    orig = to_dgc(cc).underlying
    assert {k: back.dim(k) for k in back.degrees()} == {
        k: orig.dim(k) for k in orig.degrees()
    }
    for k in orig.degrees():
        assert back.d(k) == orig.d(k)


# -- Snaith splitting ---------------------------------------------------------------


def test_snaith_single_classes():
    assert homology_dims(snaith(DG({2: ("v",)}), 10)) == {k: 1 for k in range(2, 11, 2)}
    assert homology_dims(snaith(DG({3: ("w",)}), 10)) == {3: 1}


def test_snaith_acyclic_input_is_contractible():
    ac, _ = cone_dg(DG({3: ("w",)}))
    h = homology_dims(snaith(ac, 8))
    assert {k: v for k, v in h.items() if k < 8} == {}


def test_snaith_random_inputs_match_symmetric_oracle():
    rng = random.Random(20260823)
    cap = 8
    for _ in range(6):
        v = random_dg(rng, 1, 5, 3)
        hred = homology_dims(reduce_dg(2, v))
        degs = [k for k, n in sorted(hred.items()) for _ in range(n)]
        want = {k: n for k, n in symmetric_dims_oracle(degs, cap).items() if k < cap}
        got = homology_dims(snaith(v, cap))
        assert {k: n for k, n in got.items() if k < cap} == want


# -- rational invariants ------------------------------------------------------------


def test_sphere_homotopy_and_homology():
    for n in range(2, 7):
        c = sphere_model(n)
        pi = rational_homotopy(c, 16)
        want = {n: 1} if n % 2 else {n: 1, 2 * n - 1: 1}
        assert pi == want
        assert rational_homology(c, 16) == {0: 1, n: 1}


def test_polynomial_coalgebra_homotopy_at_the_default_cap():
    # the cobar differential of H_*(CP^3) has brackets; the oracle is CP^3's
    # Sullivan model (x2, x7; d x7 = x2^4), so pi_2 and pi_7 are Q
    polynomial = build_model(parse_model("models/polynomial.dgc"))
    for cap in (10, 12, 14, 16):
        assert rational_homotopy(polynomial, cap) == {2: 1, 7: 1}


def test_lie_model_invariants():
    for n in (3, 4):
        l = sphere_lie(n)
        pi = rational_homotopy(l, 2 * n)
        want = {n: 1} if n % 2 else {n: 1, 2 * n - 1: 1}
        assert {k: v for k, v in pi.items() if k <= 2 * n - 1} == want
        h = rational_homology(l, 2 * n)
        assert {k: v for k, v in h.items() if k <= n} == {0: 1, n: 1}


def test_invariant_errors():
    with pytest.raises(TypeError):
        rational_homotopy(DG({2: ("v",)}), 8)
    with pytest.raises(TypeError):
        rational_homology(DG({2: ("v",)}), 8)
    with pytest.raises(ValueError, match="sphere models"):
        sphere_model(1)


# -- determinism --------------------------------------------------------------------


def test_constructions_are_deterministic():
    l = sphere_lie(4)
    assert cec_C(l, 9) == cec_C(l, 9)
    c = cofree_lambda(DG({2: ("v",)}), 6)
    assert cobar_L(c, 5) == cobar_L(c, 5)
