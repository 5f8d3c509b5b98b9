"""Joins, test cubes, total homotopy (co)fibers, Taylor approximations,
cross effects, Lie representations, layer towers, and jets."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rht.calculus import (
    CoefficientFunctor,
    ConstantFunctor,
    FreeLieFunctor,
    IdentityFunctor,
    LambdaFunctor,
    SumFunctor,
    SuspensionFunctor,
    TensorPowerFunctor,
    TnFunctor,
    Tower,
    bracket_filtration,
    bracket_tower,
    cobar_tower,
    cross_effect,
    _power_with_swaps,
    homogeneous_eval,
    jet_extract,
    jet_validate,
    join,
    lie_n,
    p_n_stabilize,
    t_n,
    taylor_layers_cobar,
    tensor_map,
    test_cube as make_test_cube,
    tset_dg,
)
from rht.calculus import (
    _apply_functor_cube,
    _coproduct_cube,
    _join_map,
    _left_normed_expand,
    _lie_coinvariant_dims,
    _mobius,
    _perm_sort_sign,
)
from rht.dgc import cofree_lambda, dgc_validate, trivial_dgc
from rht.dgcore import (
    DG,
    Cube,
    DGMap,
    SymmetricDG,
    homology_dims,
    identity_map,
    is_bicartesian,
    is_quasi_iso,
    shift,
    sum_dg,
    reduce_dg,
    sym_invariants,
    sym_orbits,
    tensor_dg,
    thcof,
    thfib,
    validate_dg,
)
from rht.dgcore import _into_holim, _outof_hocolim, _restrict, _subset_tag, assert_valid, cube_bidg, ho_fiber, sum_many, tot
from rht.dgl import FreeDGL, free_lie_basis, to_dgl
from rht.exactq import ONE, ZERO, QMatrix, _SMALL, rank, solve_matrix
from rht.quillen import cobar_L, sphere_model
from rht.randgen import random_chain_map, random_commuting_square, random_dg
from conftest import (
    _old_bracket_filtration,
    _old_filtration_dgs,
    _old_jet_extract,
    _old_jet_validate,
    at_level,
    index_of,
    perturbed,
)

V24 = DG({2: ("a",), 4: ("b",)})


def square_cube(s, t, f, g):
    e, a, b, full = frozenset(), frozenset({1}), frozenset({2}), frozenset({1, 2})
    return Cube(
        2,
        {e: s.source, a: s.target, b: t.target, full: f.target},
        {(e, a): s, (e, b): t, (a, full): f, (b, full): g},
    )


# -- joins --------------------------------------------------------------------------


def test_join_empty_set_is_the_object_itself():
    assert join(V24, 0) is V24


def test_join_one_point_is_a_cone():
    c = join(V24, 1)
    assert validate_dg(c) == []
    assert homology_dims(c) == {}
    assert sum(c.dim(k) for k in c.degrees()) == 2 * sum(
        V24.dim(k) for k in V24.degrees()
    )


def test_join_two_points_shifts_homology():
    c = join(V24, 2)
    assert validate_dg(c) == []
    assert homology_dims(c) == {k + 1: n for k, n in homology_dims(V24).items()}


def test_join_errors():
    with pytest.raises(ValueError):
        join(V24, -1)
    with pytest.raises(TypeError):
        join("nope", 2)


def test_join_dgc_trivial_coproduct_validates():
    c = sphere_model(3)
    j1, j2 = join(c, 1), join(c, 2)
    assert dgc_validate(j1) == [] and dgc_validate(j2) == []
    assert homology_dims(j2.underlying) == {4: 1}
    assert join(c, 0) is c


def test_join_dgc_nontrivial_coproduct_keeps_cone_level_axioms():
    # the halved vertex/edge coproduct is compatible with d and cocommutative,
    # but coassociativity fails beyond quadratic words, as for the cylinder
    pv = cofree_lambda(DG({2: ("v",)}), 7)
    j = join(pv, 2)
    report = dgc_validate(j)
    assert all("coassociativity" in msg for msg in report)
    assert any("coassociativity" in msg for msg in report)
    assert homology_dims(j.underlying) == {3: 1, 5: 1, 7: 1}


def _old_join_dgc(c, t):
    """The DGC join as it was written out, with its own pair table: the vertex
    slot keeps the vertex on both sides, each edge slot takes the halved
    vertex/edge split."""
    from fractions import Fraction

    from rht.dgc import DGC
    from rht.dgcore import _tensor_with_index

    if t == 0:
        return c
    und, idx = _tensor_with_index(tset_dg(t), c.underlying)
    coproduct: dict = {}
    for kc in c.underlying.degrees():
        for ic in range(c.underlying.dim(kc)):
            delta = c.coproduct.get((kc, ic), {})
            if not delta:
                continue
            table = {}
            for ((k1, i1), (k2, i2)), val in delta.items():
                left, right = idx[(0, 0, k1, i1)], idx[(0, 0, k2, i2)]
                table[(left, right)] = table.get((left, right), ZERO) + val
            coproduct[idx[(0, 0, kc, ic)]] = table
            for j in range(t):
                table = {}
                for ((k1, i1), (k2, i2)), val in delta.items():
                    sgn = -ONE if k1 % 2 else ONE
                    p1 = (idx[(0, 0, k1, i1)], idx[(1, j, k2, i2)])
                    p2 = (idx[(1, j, k1, i1)], idx[(0, 0, k2, i2)])
                    table[p1] = table.get(p1, ZERO) + Fraction(1, 2) * sgn * val
                    table[p2] = table.get(p2, ZERO) + Fraction(1, 2) * val
                coproduct[idx[(1, j, kc, ic)]] = table
    return DGC(und, coproduct)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 3))
def test_dgc_joins_match_the_written_out_pair_table(seed, t):
    from rht.dgc import dgc_product, to_dgc

    rng = random.Random(seed)
    c = to_dgc(cofree_lambda(random_dg(rng, min_deg=2, max_deg=4, max_pieces=3), rng.randint(5, 8)))
    if rng.random() < 0.3:  # a product under the half rule, with odd classes on both sides
        c = dgc_product(c, to_dgc(cofree_lambda(DG({3: ("u",)}), 6)))
    new, old = join(c, t), _old_join_dgc(c, t)
    assert list(new.underlying.basis.items()) == list(old.underlying.basis.items())
    assert new == old
    # the suspended-strand rule lists sx' (x) x'' before x' (x) sx'', so on a
    # coproduct that is not cocommutative the witnesses inside one entry swap order
    assert sorted(dgc_validate(new)) == sorted(dgc_validate(old))


# -- test cubes ----------------------------------------------------------------------


def test_one_cube_is_the_cone_inclusion():
    cu = make_test_cube(1, V24)
    assert cu.objects[frozenset()] is V24
    e = cu.edge(frozenset(), frozenset({1}))
    assert validate_dg(e) == []
    assert e.target == join(V24, 1)


def test_cubes_commute():
    for n in (1, 2, 3):
        assert make_test_cube(n, V24).validate_commuting() == []


def test_all_two_faces_are_cocartesian():
    cu = make_test_cube(3, V24)
    for s in cu.objects:
        rest = [e for e in (1, 2, 3) if e not in s]
        for i, a in enumerate(rest):
            for b in rest[i + 1 :]:
                sa, sb, sab = s | {a}, s | {b}, s | {a, b}
                _, cocart = is_bicartesian(
                    cu.edge(s, sa), cu.edge(s, sb), cu.edge(sa, sab), cu.edge(sb, sab)
                )
                assert cocart


def test_square_cube_objects_are_cone_levels():
    cu = make_test_cube(2, V24)
    dims = lambda v: {k: v.dim(k) for k in v.degrees()}
    assert dims(cu.objects[frozenset({1})]) == dims(join(V24, 1))
    assert dims(cu.objects[frozenset({1, 2})]) == dims(join(V24, 2))


# -- total homotopy fibers and cofibers ----------------------------------------------


def test_thfib_of_identity_cube_is_contractible():
    i = identity_map(V24)
    cu = square_cube(i, i, i, i)
    assert homology_dims(thfib(cu)) == {}
    assert homology_dims(thcof(cu)) == {}


def test_one_cube_collapses_to_the_homotopy_fiber():
    from rht.dgcore import ho_fiber, ho_cofiber, map_scale

    def unnamed(v):
        return {k: v.dim(k) for k in v.degrees()}, v.diff

    rng = random.Random(5)
    w = random_dg(rng, 1, 4)
    x = random_dg(rng, 1, 4)
    f = random_chain_map(rng, w, x)
    cu = Cube(1, {frozenset(): w, frozenset({1}): x}, {(frozenset(), frozenset({1})): f})
    # the holim and hocolim of a 1-cube are its one object, renamed; the hocolim's map signs the edge by -1
    assert unnamed(thfib(cu)) == unnamed(ho_fiber(f))
    assert unnamed(thcof(cu)) == unnamed(ho_cofiber(map_scale(-1, f)))


def test_thfib_correlates_with_cartesian_squares():
    rng = random.Random(13)
    # a square with a pair of parallel identity edges is always bicartesian
    a, b = random_dg(rng, 1, 3), random_dg(rng, 1, 3)
    h = random_chain_map(rng, a, b)
    samples = [(identity_map(a), h, h, identity_map(b))]
    samples += [random_commuting_square(rng, 0, 3) for _ in range(10)]
    seen_cart = seen_noncart = 0
    for s, t, f, g in samples:
        cart, cocart = is_bicartesian(s, t, f, g)
        cu = square_cube(s, t, f, g)
        fib_trivial = homology_dims(thfib(cu)) == {}
        cof_trivial = homology_dims(thcof(cu)) == {}
        assert cart == fib_trivial
        assert cocart == cof_trivial
        seen_cart += cart
        seen_noncart += not cart
    assert seen_cart and seen_noncart


def test_iterated_fibers_agree_with_the_one_step_model():
    from test_dgcore import _old_collapse_last

    def collapsed(cube, mode):
        while cube.n > 0:
            cube = _old_collapse_last(cube, mode)
        return homology_dims(cube.objects[frozenset()])

    rng = random.Random(11)
    cubes = [square_cube(*random_commuting_square(rng, 0, 4)) for _ in range(6)]
    cubes += [make_test_cube(3, random_dg(rng, 1, 4, 2)) for _ in range(2)]
    for cu in cubes:
        assert homology_dims(thfib(cu)) == collapsed(cu, "fiber")
        assert homology_dims(thcof(cu)) == collapsed(cu, "cofiber")


def test_totals_of_test_cubes_vanish_above_dimension_one():
    # a strongly cocartesian cube is cartesian in DG; a 1-cube's totals are its cone point's fiber and cofiber
    rng = random.Random(23)
    for _ in range(6):
        x = random_dg(rng, 0, 3, 2)
        h = homology_dims(x)
        assert homology_dims(thfib(make_test_cube(1, x))) == h
        assert homology_dims(thcof(make_test_cube(1, x))) == {k + 1: c for k, c in h.items()}
        for n in (2, 3, 4):
            cu = make_test_cube(n, x)
            assert homology_dims(thfib(cu)) == {} and homology_dims(thcof(cu)) == {}


def test_non_commuting_cube_rejected():
    i = identity_map(V24)
    z = DGMap(V24, V24, {})
    cu = square_cube(i, i, i, z)
    with pytest.raises(ValueError, match="non-commuting"):
        thfib(cu)
    with pytest.raises(ValueError, match="non-commuting"):
        thcof(cu)


# -- symbolic functors ---------------------------------------------------------------


def quasi_iso_pair():
    # V -> V + (acyclic cone) is a quasi-iso
    cone = join(DG({3: ("w",)}), 1)
    total, inl, _ = sum_dg(V24, cone)
    return inl


def test_functors_preserve_quasi_isos():
    inl = quasi_iso_pair()
    assert is_quasi_iso(inl)
    from rht.dgcore import ho_cofiber

    for f, safe in (
        (IdentityFunctor(), None),
        (TensorPowerFunctor(2), None),
        (CoefficientFunctor(DG({1: ("u",)})), None),
        (SumFunctor((IdentityFunctor(), TensorPowerFunctor(2))), None),
        (SuspensionFunctor(2, IdentityFunctor()), None),
        (LambdaFunctor(8), 8),
        (FreeLieFunctor(6), 6),
    ):
        m = f.apply_map(inl)
        assert validate_dg(m) == []
        if safe is None:
            assert is_quasi_iso(m)
        else:
            # capped functors are only exact below the cap
            h = homology_dims(ho_cofiber(m))
            assert {k: n for k, n in h.items() if k < safe} == {}


def test_tensor_map_matches_tensor_dg():
    rng = random.Random(3)
    a, b = random_dg(rng, 0, 3), random_dg(rng, 0, 3)
    m = tensor_map(identity_map(a), identity_map(b))
    assert m.source == tensor_dg(a, b)
    assert m == identity_map(m.source)


def test_tensor_map_keeps_the_shared_units():
    """A product of +-1 entries is the shared ONE or -ONE, so the Sigma_n
    generators of a tensor-power cross effect pass the conjugation test."""
    from rht.dgcore import _commutes_by_conjugation

    x = random_dg(random.Random(1), 0, 2, 2)
    m = tensor_map(identity_map(x), identity_map(x))
    assert m.blocks and all(v is ONE for b in m.blocks.values() for v in b.entries.values())
    sym = cross_effect(TensorPowerFunctor(2), 3, [x] * 3)
    assert len(sym.action) == 2 and all(_commutes_by_conjugation(a) for a in sym.action)


def test_free_lie_functor_requires_positive_degrees():
    with pytest.raises(ValueError, match="positive"):
        FreeLieFunctor(4).apply(DG({0: ("u",)}))
    with pytest.raises(ValueError):
        TensorPowerFunctor(0)


# -- Taylor approximations -----------------------------------------------------------


def test_t1_of_a_linear_functor_is_a_quasi_iso():
    tn, m = t_n(IdentityFunctor(), 1, V24)
    assert validate_dg(m) == []
    assert is_quasi_iso(m)


def test_t0_of_a_reduced_functor_is_contractible():
    t0, _ = t_n(IdentityFunctor(), 0, V24)
    assert homology_dims(t0) == {}
    t0sq, _ = t_n(TensorPowerFunctor(2), 0, V24)
    assert homology_dims(t0sq) == {}


def test_t1_of_the_tensor_square_is_the_loops_of_the_suspended_square():
    tn, m = t_n(TensorPowerFunctor(2), 1, V24)
    sq = tensor_dg(V24, V24)
    assert homology_dims(tn) == {k + 1: n for k, n in homology_dims(sq).items()}


def test_tn_functor_maps_are_chain_maps(map_from_names):
    w = DG({2: ("c",)})
    g = map_from_names(V24, w, lambda k, nm: {"c": ONE} if nm == "a" else {})
    for f in (IdentityFunctor(), TensorPowerFunctor(2)):
        tg = TnFunctor(f, 1).apply_map(g)
        assert validate_dg(tg) == []


def test_p1_of_a_linear_functor_stabilizes_immediately():
    res = p_n_stabilize(IdentityFunctor(), 1, V24, window=(0, 10), max_iter=4)
    assert res.converged and res.iterations == 0
    assert homology_dims(res.value) != {}


def test_pn_of_a_constant_functor_is_the_constant():
    res = p_n_stabilize(ConstantFunctor(V24), 1, V24, window=(0, 10), max_iter=3)
    assert res.converged and res.iterations == 0
    assert homology_dims(res.value) == homology_dims(V24)


def test_p1_of_the_tensor_square_vanishes_in_the_window():
    x = DG({5: ("e",)})
    res = p_n_stabilize(TensorPowerFunctor(2), 1, x, window=(0, 10), max_iter=12)
    assert res.converged
    assert res.iterations <= 10
    h = homology_dims(res.value)
    assert {k: n for k, n in h.items() if 0 <= k <= 10} == {}


def test_pn_nonconvergence_is_reported_not_fatal():
    res = p_n_stabilize(TensorPowerFunctor(2), 1, DG({1: ("e",)}), window=(0, 30), max_iter=1)
    assert not res.converged
    assert res.iterations == 1


# -- cross effects -------------------------------------------------------------------


def test_cr1_of_a_reduced_functor_is_the_functor():
    f = TensorPowerFunctor(2)
    x = DG({2: ("a",), 3: ("b",)})
    cr = cross_effect(f, 1, [x])
    assert homology_dims(cr.underlying) == homology_dims(f.apply(x))


def test_cr2_of_the_identity_is_acyclic():
    cr = cross_effect(IdentityFunctor(), 2, [V24, DG({3: ("c",)})])
    assert homology_dims(cr.underlying) == {}


def test_cr2_of_the_tensor_square_expansion_oracle():
    x1 = DG({2: ("a",), 3: ("b",)})
    x2 = DG({4: ("c",)})
    cr = cross_effect(TensorPowerFunctor(2), 2, [x1, x2])
    t = tensor_dg(x1, x2)
    want = {k: 2 * t.dim(k) for k in t.degrees()}
    assert homology_dims(cr.underlying) == want


def test_cr3_of_a_quadratic_functor_is_acyclic():
    x = DG({3: ("c",)})
    cr = cross_effect(TensorPowerFunctor(2), 3, [x, x, x])
    assert homology_dims(cr.underlying) == {}


def test_cross_effect_action_on_equal_inputs():
    x = DG({2: ("a",), 3: ("b",)})
    for n in (2, 3):
        cr = cross_effect(IdentityFunctor(), n, [x] * n)
        assert len(cr.action) == n - 1
        assert cr.validate() == []
    with pytest.raises(ValueError, match="n inputs"):
        cross_effect(IdentityFunctor(), 2, [x])


# -- Lie(n) --------------------------------------------------------------------------


def _expand_bracket(tree) -> dict:
    """A bracket tree of letters as a sum of words (ungraded commutators)."""
    if isinstance(tree, int):
        return {(tree,): ONE}
    l, r = _expand_bracket(tree[0]), _expand_bracket(tree[1])
    out = {}
    for wl, cl in l.items():
        for wr, cr in r.items():
            for word, coeff in ((wl + wr, cl * cr), ((wr + wl), -cl * cr)):
                s = out.get(word, ZERO) + coeff
                if s:
                    out[word] = s
                else:
                    out.pop(word, None)
    return out


def _bracket_trees(letters):
    """Every full bracketing of the letters, in their order."""
    if len(letters) == 1:
        yield letters[0]
        return
    for cut in range(1, len(letters)):
        for l in _bracket_trees(letters[:cut]):
            for r in _bracket_trees(letters[cut:]):
                yield (l, r)


def lie_dim_oracle(n: int) -> int:
    """Rank of ALL length-n multilinear bracket monomials in the free
    associative algebra; independent check of the (n-1)! basis size."""
    words = list(itertools.permutations(range(1, n + 1)))
    windex = {w: i for i, w in enumerate(words)}

    cols = []
    for p in words:
        for t in _bracket_trees(list(p)):
            vec = [ZERO] * len(words)
            for w, c in _expand_bracket(t).items():
                vec[windex[w]] = c
            if any(vec):
                cols.append(tuple(vec))
    return rank(QMatrix.from_columns(cols, len(words))) if cols else 0


def test_lie_dims_against_associative_algebra_oracle():
    for n in (1, 2, 3, 4):
        assert lie_dim_oracle(n) == [1, 1, 2, 6][n - 1]
        assert lie_n(n).rep.underlying.dim(0) == lie_dim_oracle(n)


def test_lie_dimension_is_factorial():
    import math

    for n in (5, 6):
        assert lie_n(n).rep.underlying.dim(0) == math.factorial(n - 1)


def test_lie_action_satisfies_group_relations():
    for n in range(2, 8):
        assert lie_n(n).rep.validate() == []


def _solved_lie_n(n):
    """Lie(n) by solving for the coordinates of each permuted basis element
    against the expansions of the whole basis, over all n! words."""
    perms = [tuple(p) + (n,) for p in itertools.permutations(range(1, n))]
    words = list(itertools.permutations(range(1, n + 1)))
    windex = {w: i for i, w in enumerate(words)}

    def column(seq):
        vec = [ZERO] * len(words)
        for w, c in _left_normed_expand(seq).items():
            vec[windex[w]] = c
        return tuple(vec)

    basis_matrix = QMatrix.from_columns([column(p) for p in perms], len(words))
    blocks = []
    for a in range(1, n):
        swapped = []
        for p in perms:
            relabeled = tuple(a + 1 if i == a else (a if i == a + 1 else i) for i in p)
            swapped.append(column(relabeled))
        blocks.append(solve_matrix(basis_matrix, QMatrix.from_columns(swapped, len(words))))
    return blocks


def test_lie_blocks_match_the_solve_over_all_words():
    for n in range(1, 7):
        got = [a.block(0) for a in lie_n(n).rep.action]
        assert got == _solved_lie_n(n)
        for m in got:
            assert all(v is _SMALL[v.numerator] for v in m.entries.values() if v.denominator == 1 and -16 <= v <= 16)


def test_left_normed_expansion_is_the_bracket_tree_expansion():
    """The +-1 expansion against _expand_bracket on the left-normed tree: the
    same words with the same coefficients in the same order, each a shared +-1."""
    for seq in (list(p) for n in range(1, 7) for p in itertools.permutations(range(1, n + 1))):
        tree = seq[-1]
        for s in reversed(seq[:-1]):
            tree = (s, tree)
        got = _left_normed_expand(seq)
        assert list(got.items()) == list(_expand_bracket(tree).items())
        assert all(v is _SMALL[v.numerator] for v in got.values())


def test_lie2_transposition_acts_by_minus_one():
    assert dict(lie_n(2).rep.action[0].block(0).entries) == {(0, 0): -ONE}


def test_derivative_placement_and_twist():
    for n in (2, 3):
        d = lie_n(n).derivative()
        assert list(d.underlying.degrees()) == [1 - n]
        plain = lie_n(n).rep.action[0].block(0)
        assert d.action[0].block(1 - n) == plain.scale(-1)
        assert d.validate() == []
    with pytest.raises(ValueError):
        lie_n(0)
    with pytest.raises(ValueError):
        lie_n(9)


# -- homogeneous evaluation ----------------------------------------------------------


def test_homogeneous_n1_is_the_plain_tensor():
    a = SymmetricDG(DG({0: ("u",)}), 1, [])
    out = homogeneous_eval(a, V24, 1)
    assert {k: out.dim(k) for k in out.degrees()} == {
        k: V24.dim(k) for k in V24.degrees()
    }


def test_homogeneous_sign_rep_picks_the_antisymmetric_line():
    y = DG({2: ("x", "y")})
    out = homogeneous_eval(lie_n(2).rep, y, 2)
    assert {k: out.dim(k) for k in out.degrees()} == {4: 1}


def test_homogeneous_eval_is_the_orbit_part_of_sym_invariants():
    # d b = c, so x has one class; y has two classes and no differential
    x = DG({1: ("c",), 2: ("a", "b")}, {2: QMatrix.from_rows([[0, 1]])})
    small = DG({1: ("c",), 2: ("b",)}, {2: QMatrix.from_rows([[1]])})
    y = DG({2: ("x", "y")})
    cases = [(lie_n(2).derivative(), x, 2), (lie_n(3).derivative(), x, 3), (lie_n(4).derivative(), small, 4),
             (lie_n(2).rep, y, 2)]
    for coefficient, v, n in cases:
        pw, swaps = _power_with_swaps(v, n)
        actions = [tensor_map(a, s) for a, s in zip(coefficient.action, swaps)]
        orbits = sym_invariants(SymmetricDG(tensor_dg(coefficient.underlying, pw), n, actions))[1]
        got = homogeneous_eval(coefficient, v, n)
        assert got == orbits and got.basis == orbits.basis and got.diff == orbits.diff


def test_homogeneous_targets():
    a = SymmetricDG(DG({0: ("u",)}), 1, [])
    assert _delooped(homogeneous_eval(a, V24, 1), "dgl").dim(1) == 1
    assert _delooped(homogeneous_eval(a, V24, 1), "dgc").dim(2) == 1
    with pytest.raises(ValueError, match="arity"):
        homogeneous_eval(a, V24, 2)


def _delooped(v, target):
    """A homogeneous functor's DG value delooped into the target category: dg
    as is, dgl by one desuspension, dgc by the 2-reduction."""
    return v if target == "dg" else shift(v, -1) if target == "dgl" else reduce_dg(2, v)


def _old_homogeneous_eval(coefficient, x, n, target):
    """homogeneous_eval as it was: the whole tensor, each generator's
    tensor_map, and one quotient per degree by the hstack of a (x) s - 1."""
    pw, swaps = _power_with_swaps(x, n)
    und = tensor_dg(coefficient.underlying, pw)
    actions = [tensor_map(a, s) for a, s in zip(coefficient.action, swaps)]
    orbits = sym_orbits(SymmetricDG(und, n, actions))[0]
    if target == "dg":
        return orbits
    if target == "dgl":
        return shift(orbits, -1)
    return reduce_dg(2, orbits)


def _chain_dims(v):
    return {k: v.dim(k) for k in v.degrees() if v.dim(k)}


def test_mobius_and_the_lie_dimension():
    assert [_mobius(d) for d in range(1, 13)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0]
    # untwisted, on even lines: the free Lie algebra's arity-n part (Witt's formula)
    assert [_lie_coinvariant_dims(DG({0: ("a", "b")}), n, 0, False) for n in range(1, 7)] == [
        {0: 2}, {0: 1}, {0: 2}, {0: 3}, {0: 6}, {0: 9}]
    assert [_lie_coinvariant_dims(DG({0: ("a",)}), n, 0, False) for n in (1, 2, 3)] == [{0: 1}, {}, {}]
    # the derivatives: free Lie on the desuspension, where [y, y] lives only for y odd
    assert [_lie_coinvariant_dims(DG({2: ("x",)}), n, 1 - n, True) for n in (1, 2, 3)] == [{2: 1}, {3: 1}, {}]
    assert [_lie_coinvariant_dims(DG({1: ("x",)}), n, 1 - n, True) for n in (1, 2, 3)] == [{1: 1}, {}, {}]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.sampled_from(["derivative", "placed"]),
       st.sampled_from(["dg", "dgl", "dgc"]))
def test_orbit_by_orbit_layers_match_the_whole_tensor_quotient(seed, n, kind, target):
    rng = random.Random(seed)
    x = random_dg(rng, 0, 3, 3 if n <= 2 else 2)
    degree, twisted = (1 - n, True) if kind == "derivative" else (rng.randint(-2, 2), False)
    coefficient = lie_n(n).placed(degree, twisted)
    got = _delooped(homogeneous_eval(coefficient, x, n), target)
    assert _same(got, _old_homogeneous_eval(coefficient, x, n, target))
    if target == "dg":
        assert _chain_dims(got) == _lie_coinvariant_dims(x, n, degree, twisted)


@pytest.mark.parametrize("model", ["polynomial", "s3", "s4"])
def test_derivative_layers_have_the_dimensions_of_the_character_formula(model):
    from rht.cli import build_model, parse_model

    x = build_model(parse_model(f"models/{model}.dgc")).underlying
    for n in range(1, 6):
        got = homogeneous_eval(lie_n(n).derivative(), x, n)
        assert _chain_dims(got) == _lie_coinvariant_dims(x, n, 1 - n, True)
        assert _same(got, _old_homogeneous_eval(lie_n(n).derivative(), x, n, "dg"))


# -- Taylor layers of the cobar tower ------------------------------------------------


def test_sphere_layers_match_the_derivative_formula():
    tower, layers, report = taylor_layers_cobar(sphere_model(2), 4, 9)
    assert all(report[k]["match"] for k in report)
    assert tower.validate() == []
    # first layer is the desuspended de-augmentation
    assert {k: layers[0].dim(k) for k in layers[0].degrees()} == {1: 1}


def test_polynomial_layers_match_the_derivative_formula():
    pv = cofree_lambda(DG({2: ("v",)}), 8)
    tower, layers, report = taylor_layers_cobar(pv, 3, 7)
    assert all(report[k]["match"] for k in report)
    assert report[2]["layer"] == {2: 1, 4: 1, 6: 2}


def test_trivial_coproduct_tower_is_the_word_filtration():
    tower, layers, report = taylor_layers_cobar(sphere_model(3), 3, 8)
    assert all(report[k]["match"] for k in report)
    for layer in layers:
        for k in layer.degrees():
            assert not layer.d(k).entries  # no word-length-preserving part


def test_layers_with_coalgebra_differential_match():
    v = DG({2: ("a",), 3: ("b",)}, {3: QMatrix(1, 1, {(0, 0): ONE})})
    tower, layers, report = taylor_layers_cobar(cofree_lambda(v, 7), 2, 6)
    assert all(report[k]["match"] for k in report)


# -- jets ----------------------------------------------------------------------------


def test_jet_round_trip_is_clean():
    for c, n, cap in (
        (sphere_model(2), 3, 8),
        (cofree_lambda(DG({2: ("v",)}), 8), 3, 7),
        (cofree_lambda(DG({2: ("a",), 3: ("b",)}, {3: QMatrix(1, 1, {(0, 0): ONE})}), 7), 2, 6),
    ):
        tower = jet_extract(taylor_layers_cobar(c, n, cap)[0])
        assert jet_validate(tower) == []
        assert all(i >= j for (i, j) in tower.blocks)


def test_jet_of_a_zero_differential_tower_has_no_off_diagonal():
    tower, _, _ = taylor_layers_cobar(sphere_model(3), 3, 8)
    jet = jet_extract(tower)
    assert all(i == j for (i, j) in jet.blocks)
    assert jet_validate(jet) == []


def test_extracted_d21_of_the_free_lie_on_x_y():
    # L(x, y) with |x| = 1 and dy = [x, x]: the second jet block carries y to [x,x]
    b = free_lie_basis([("x", 1), ("y", 3)], 6)
    l = FreeDGL(b, {1: b.bracket_poly({(0,): ONE}, {(0,): ONE})})
    jet = jet_extract(bracket_tower(l, 2))
    assert dict(jet.blocks[(2, 1)][3].entries) == {(0, 0): ONE}
    assert jet_validate(jet) == []


def _lowering_tower():
    """d w = u with w on level 2 and u on level 1: the span of w is no
    subcomplex, so stage 1 is no quotient complex."""
    top = DG({2: ("u",), 3: ("w",)}, {3: QMatrix(1, 1, {(0, 0): ONE})})
    return Tower(top, {2: [1], 3: [2]}, 2)


def test_non_fibration_tower_rejected():
    with pytest.raises(ValueError, match="lowers the level"):
        jet_extract(_lowering_tower())
    assert jet_validate(_lowering_tower()) == ["d lowers the level at (3,0)"]


def test_tower_validate_reports_what_can_fail():
    top = DG({2: ("u", "v"), 3: ("w",)}, {3: QMatrix(2, 1, {(1, 0): ONE})})
    assert Tower(top, {2: [1, 2], 3: [2]}, 2).validate() == []
    assert Tower(top, {2: [1], 3: [2]}, 2).validate() == ["degree 2 has 1 levels for 2 basis elements"]
    assert Tower(top, {2: [1, 2], 3: [2], 4: [1]}, 2).validate() == ["degree 4 has 1 levels for 0 basis elements"]
    assert Tower(top, {2: [1, 2], 3: [3]}, 2).validate() == ["a level in degree 3 is outside 1..2"]
    assert Tower(top, {2: [0, 2], 3: [2]}, 2).validate() == ["a level in degree 2 is outside 1..2"]
    assert Tower(top, {2: [2, 1], 3: [2]}, 2).validate() == ["d lowers the level at (3,0)"]
    assert _lowering_tower().validate() == ["d lowers the level at (3,0)"]
    with pytest.raises(ValueError, match="1 levels for 2"):
        jet_extract(Tower(top, {2: [1], 3: [2]}, 2))


def test_bracket_tower_stages_maps_and_layers_are_the_filtration():
    b = free_lie_basis([("x", 1), ("y", 3)], 6)
    l = FreeDGL(b, {1: b.bracket_poly({(0,): ONE}, {(0,): ONE})})
    stages, layers = _old_bracket_filtration(l, 3)
    tower = bracket_tower(l, 3)
    assert tower.validate() == [] and tower.top == stages[-1].underlying
    assert tower.objects == [t.underlying for t in stages]
    assert tower.layers == layers
    assert all(m.source is big and m.target is small for m, small, big in zip(tower.maps, tower.objects, tower.objects[1:]))
    assert all(validate_dg(m) == [] for m in tower.maps)
    with pytest.raises(ValueError, match="depth"):
        bracket_tower(l, 0)


def test_bracket_tower_computes_no_structure_constant(monkeypatch):
    import rht.dgl as dgl

    c = cofree_lambda(DG({2: ("v",)}), 8)
    want = _old_filtration_dgs(cobar_L(c, 8), 3)[0][-1]
    l = cobar_L(c, 8)
    to_dgl(l)  # the differential, built before the patch
    # every structure constant goes through _bracket_entry
    monkeypatch.setattr(dgl, "_bracket_entry", lambda *args: pytest.fail("a structure constant was computed"))
    assert bracket_tower(l, 3).top == want


def test_towers_and_jets_run_no_elimination(monkeypatch):
    """Stages, maps, layers and jet blocks are read off by position."""
    import rht.exactq as exactq
    from rht.cli import build_model, parse_model

    def no_elimination(*args):
        pytest.fail("an elimination ran")

    mf = parse_model("models/polynomial.dgc")
    inputs = [(cofree_lambda(DG({d: ("v",)}), 7), n, 7) for d in (2, 3) for n in (2, 3)]
    inputs.append((build_model(mf), 8, 14))
    monkeypatch.setattr(exactq, "_rref_rows", no_elimination)
    for c, n, cap in inputs:
        tower = cobar_tower(c, n, cap)
        assert tower.validate() == [] and len(tower.objects) == n and len(tower.maps) == n - 1
        jet = jet_extract(tower)
        assert len(jet.layers) == n and jet_validate(jet) == []


def _random_free_dgl(rng):
    """A free DGL on two or three generators of degrees 1..3 at cap 5..7.  The
    differential of each generator is 0, a multiple of a lower cycle
    generator, or a multiple of the bracket of two cycle generators, so it
    squares to zero."""
    degs = sorted(rng.randint(1, 3) for _ in range(rng.randint(2, 3)))
    b = free_lie_basis([(f"g{i}", d) for i, d in enumerate(degs)], rng.randint(5, 7))
    diff, cycles = {}, []
    for i, d in enumerate(degs):
        c = rng.choice([1, -1, 2])
        lower = [j for j in cycles if degs[j] == d - 1]
        pairs = [(j, k) for j in cycles for k in cycles if degs[j] + degs[k] == d - 1]
        pick = rng.random()
        if lower and pick < 0.4:
            diff[i] = {(rng.choice(lower),): ONE * c}
        elif pairs and pick < 0.8:
            j, k = rng.choice(pairs)
            diff[i] = {w: c * x for w, x in b.bracket_poly({(j,): ONE}, {(k,): ONE}).items()}
        if i not in diff:
            cycles.append(i)
    return FreeDGL(b, diff)


def _random_cobar(rng):
    """cobar_L of the cofree Lambda on one or two generators in degrees 2..4,
    with d of the upper onto the lower when their degrees are adjacent."""
    degs = sorted(rng.sample([2, 3, 4], rng.randint(1, 2)))
    diff = {}
    if len(degs) == 2 and degs[1] == degs[0] + 1 and rng.random() < 0.5:
        diff[degs[1]] = QMatrix(1, 1, {(0, 0): ONE})
    cap = rng.randint(6, 8)
    return cobar_L(cofree_lambda(DG({d: (f"v{d}",) for d in degs}, diff), cap), cap)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_bracket_filtration_on_the_tower_equals_the_stage_by_stage_oracle(seed, cobar):
    """Stage DGs, bracket tables and layers, for n = 1..4."""
    rng = random.Random(seed)
    l = _random_cobar(rng) if cobar else _random_free_dgl(rng)
    for n in range(1, 5):
        (stages, layers), (want, want_layers) = bracket_filtration(l, n), _old_bracket_filtration(l, n)
        assert [list(b.underlying.basis.items()) for b in stages] == [list(b.underlying.basis.items()) for b in want]
        assert [b.underlying for b in stages] == [b.underlying for b in want]
        assert [dict(b.bracket) for b in stages] == [dict(b.bracket) for b in want]
        assert [b.cap for b in stages] == [b.cap for b in want] == [l.cap] * n
        assert [list(g.basis.items()) for g in layers] == [list(g.basis.items()) for g in want_layers]
        assert layers == want_layers


@pytest.mark.parametrize("argv, calls", [
    ("tower -n 8 models/polynomial.dgc --truncate 14", 9),  # top and 8 stages
    ("jet -n 8 models/polynomial.dgc --truncate 14", 9),  # top and 8 layers
    ("layers -n 4 models/polynomial.dgc --truncate 10", 5),  # top and 4 layers
])
def test_each_stage_and_layer_is_cut_out_of_the_tower_once(monkeypatch, argv, calls):
    import rht.calculus as calculus
    import rht.dgcore as dgcore
    from rht.cli import main

    seen = []
    counted = lambda *args: seen.append(1) or _restrict(*args)
    monkeypatch.setattr(calculus, "_restrict", counted)  # top, cut out of to_dgl(l) by bracket_tower
    monkeypatch.setattr(dgcore, "_restrict", counted)  # the stages and layers, cut out of top by Tower
    assert main(argv.split()) == 0
    assert len(seen) == calls


def test_perturbed_jet_block_is_witnessed():
    v = DG({2: ("a",), 3: ("b",)}, {3: QMatrix(1, 1, {(0, 0): ONE})})
    tower, _, _ = taylor_layers_cobar(cofree_lambda(v, 7), 2, 6)
    # one more entry in block d_21 at degree 3, at its (0, 0)
    bad = perturbed(tower, 3, {(at_level(tower, 2, 2, 0), at_level(tower, 3, 1, 0)): ONE})
    report = jet_validate(bad)
    assert any("d^2" in msg for msg in report)
    assert any("chain map" in msg for msg in report)


def test_single_layer_jet_is_clean():
    tower = Tower(V24, {k: [1] * V24.dim(k) for k in V24.degrees()}, 1)
    assert jet_validate(tower) == []
    assert tower.blocks == {}  # V24 has no differential


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_jet_validate_on_perturbed_towers_equals_the_block_by_block_oracle(seed):
    """Cobar towers of random cofree models, with up to four entries added to
    top's d where they keep the tower valid (the row's level at least the
    column's), so that d^2 may fail in any block on or below the diagonal:
    the report and the blocks are the old ones."""
    rng = random.Random(seed)
    tower = cobar_tower(cofree_lambda(random_dg(rng, min_deg=2, max_deg=3, max_pieces=3), 6), rng.randint(1, 5), 6)
    for _ in range(rng.randint(0, 4)):
        top, level = tower.top, tower.level
        # in a degree k whose d can meet another in d^2
        spots = [(k, r, c) for k in top.degrees() if top.dim(k - 2) + top.dim(k + 1)
                 for r in range(top.dim(k - 1)) for c in range(top.dim(k)) if level[k - 1][r] >= level[k][c]]
        if not spots:
            break
        k, r, c = rng.choice(spots)
        tower = perturbed(tower, k, {(r, c): rng.choice([ONE, -ONE, 2 * ONE, ONE / 3])})
    old = _old_jet_extract(tower)
    assert jet_validate(tower) == _old_jet_validate(old)
    assert tower.blocks == old.blocks
    assert [(key, list(b)) for key, b in tower.blocks.items()] == [(key, list(b)) for key, b in old.blocks.items()]


def test_jet_validate_makes_one_product_per_degree(monkeypatch):
    """jet -n 8 on polynomial.dgc at cap 14: at most one product d(k-1) d(k)
    per degree of top, where the block-by-block check made 8,160."""
    from rht.cli import build_model, parse_model

    tower = cobar_tower(build_model(parse_model("models/polynomial.dgc")), 8, 14)
    calls, mul = [], QMatrix.__mul__
    monkeypatch.setattr(QMatrix, "__mul__", lambda a, b: calls.append(1) or mul(a, b))
    assert jet_validate(tower) == []
    assert 0 < len(calls) <= len(tower.top.degrees())


# -- determinism ---------------------------------------------------------------------


def test_constructions_are_deterministic():
    assert t_n(TensorPowerFunctor(2), 1, V24)[0] == t_n(TensorPowerFunctor(2), 1, V24)[0]
    a, b = lie_n(3), lie_n(3)
    assert a.rep.underlying == b.rep.underlying
    assert a.rep.action[0] == b.rep.action[0]
    cu1, cu2 = make_test_cube(2, V24), make_test_cube(2, V24)
    assert cu1.objects[frozenset({1, 2})] == cu2.objects[frozenset({1, 2})]


# -- basis positions as data: the name-lookup builders as oracles -------------------------


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


def _old_tensor_map(f, g):
    src = tensor_dg(f.source, g.source)
    tgt = tensor_dg(f.target, g.target)
    si = _old_tensor_index(f.source, g.source)
    ti = _old_tensor_index(f.target, g.target)
    ent = {}
    for (i, p, j, q), (n, col) in si.items():
        fb = f.block(i)
        gb = g.block(j)
        for r in range(f.target.dim(i)):
            v1 = fb.get(r, p)
            if not v1:
                continue
            for s in range(g.target.dim(j)):
                v2 = gb.get(s, q)
                if not v2:
                    continue
                row = ti[(i, r, j, s)][1]
                d = ent.setdefault(n, {})
                d[(row, col)] = d.get((row, col), ZERO) + v1 * v2
    blocks = {n: QMatrix(tgt.dim(n), src.dim(n), e) for n, e in ent.items()}
    return DGMap(src, tgt, blocks)


def _old_test_cube(n, x):
    objs_by_size = {k: join(x, k) for k in range(n + 1)}
    idx_by_size = {k: _old_tensor_index(tset_dg(k), x) for k in range(1, n + 1)}
    edge_by_shape = {}

    def edge_map(k, pos):
        key = (k, pos)
        if key in edge_by_shape:
            return edge_by_shape[key]
        if k == 0:
            tgt = objs_by_size[1]
            ti = idx_by_size[1]
            blocks = {}
            for deg in x.degrees():
                ent = {(ti[(0, 0, deg, q)][1], q): ONE for q in range(x.dim(deg))}
                blocks[deg] = QMatrix(tgt.dim(deg), x.dim(deg), ent)
            m = DGMap(x, tgt, blocks)
        else:
            tm_blocks = {(0, 0): (0, 0)}
            for r in range(1, k + 1):
                tm_blocks[(1, r - 1)] = (1, r - 1 if r < pos else r)
            a, b = tset_dg(k), tset_dg(k + 1)
            tm = DGMap(a, b, {
                d: QMatrix(b.dim(d), a.dim(d), {(tm_blocks[(d, c)][1], c): ONE for c in range(a.dim(d))})
                for d in a.degrees()
            })
            m = _old_tensor_map(tm, identity_map(x))
        edge_by_shape[key] = m
        return m

    objects = {}
    edges = {}
    elements = list(range(1, n + 1))
    for r in range(n + 1):
        for s in itertools.combinations(elements, r):
            fs = frozenset(s)
            objects[fs] = objs_by_size[r]
            for t in elements:
                if t in fs:
                    continue
                pos = sorted(fs | {t}).index(t) + 1
                edges[(fs, fs | {t})] = edge_map(r, pos)
    return Cube(n, objects, edges)


def _old_into_holim(cube):
    hol = tot(cube_bidg(cube, "limit"))
    src = cube.objects[frozenset()]
    blocks = {}
    for k in src.degrees():
        ent = {}
        for t in range(1, cube.n + 1):
            e = cube.edge(frozenset(), frozenset({t}))
            tag = _subset_tag(frozenset({t}))
            names = e.target.basis.get(k, ())
            for (r, c), val in e.block(k).entries.items():
                row = index_of(hol, k, f"{tag}:{names[r]}@v0")
                ent[(row, c)] = ent.get((row, c), ZERO) + val
        blocks[k] = QMatrix(hol.dim(k), src.dim(k), ent)
    return hol, DGMap(src, hol, blocks)


def _old_outof_hocolim(cube):
    hoc = tot(cube_bidg(cube, "colimit"))
    full = frozenset(range(1, cube.n + 1))
    tgt = cube.objects[full]
    blocks = {}
    for k in hoc.degrees():
        ent = {}
        for j in range(1, cube.n + 1):
            t = full - {j}
            e = cube.edge(t, full)
            tag = _subset_tag(t)
            sign = -ONE if j % 2 else ONE
            names = e.source.basis.get(k, ())
            for (r, c), val in e.block(k).entries.items():
                col = index_of(hoc, k, f"{tag}:{names[c]}@v0")
                ent[(r, col)] = ent.get((r, col), ZERO) + sign * val
        blocks[k] = QMatrix(tgt.dim(k), hoc.dim(k), ent)
    return hoc, DGMap(hoc, tgt, blocks)


def _old_tn_apply_map(inner, n, g):
    src_cube = _apply_functor_cube(inner, make_test_cube(n + 1, g.source))
    tgt_cube = _apply_functor_cube(inner, make_test_cube(n + 1, g.target))
    src = tot(cube_bidg(src_cube, "limit"))
    tgt = tot(cube_bidg(tgt_cube, "limit"))
    comps = {size: inner.apply_map(_join_map(g, size)) for size in range(1, n + 2)}
    ent = {}
    elements = list(range(1, n + 2))
    for r in range(1, n + 2):
        for s in itertools.combinations(elements, r):
            fs = frozenset(s)
            tag = _subset_tag(fs)
            vdeg = 1 - r
            comp = comps[r]
            for k in comp.source.degrees():
                snames = comp.source.basis[k]
                tnames = comp.target.basis.get(k, ())
                for (rr, cc), val in comp.block(k).entries.items():
                    row = index_of(tgt, k + vdeg, f"{tag}:{tnames[rr]}@v{vdeg}")
                    col = index_of(src, k + vdeg, f"{tag}:{snames[cc]}@v{vdeg}")
                    d = ent.setdefault(k + vdeg, {})
                    d[(row, col)] = d.get((row, col), ZERO) + val
    blocks = {k: QMatrix(tgt.dim(k), src.dim(k), e) for k, e in ent.items() if src.dim(k)}
    return DGMap(src, tgt, blocks)


def _old_coproduct_cube(inputs):
    n = len(inputs)
    elements = list(range(1, n + 1))
    objects = {}
    for r in range(n + 1):
        for s in itertools.combinations(elements, r):
            fs = frozenset(s)
            comp = [i for i in elements if i not in fs]
            objects[fs] = sum_many([inputs[i - 1] for i in comp], tags=[f"x{i}" for i in comp])[0]
    edges = {}
    for fs, obj in objects.items():
        for t in elements:
            if t in fs:
                continue
            tgt = objects[fs | {t}]
            blocks = {}
            for k in obj.degrees():
                ent = {}
                for c, name in enumerate(obj.basis[k]):
                    if name.startswith(f"x{t}("):
                        continue
                    ent[(index_of(tgt, k, name), c)] = ONE
                blocks[k] = QMatrix(tgt.dim(k), obj.dim(k), ent)
            edges[(fs, fs | {t})] = DGMap(obj, tgt, blocks)
    return Cube(n, objects, edges)


def _old_cross_effect(f, n, inputs):
    cube = _old_coproduct_cube(inputs)
    fc = _apply_functor_cube(f, cube)
    if n == 0:
        return SymmetricDG(fc.objects[frozenset()], 0, [])
    hol, m = _old_into_holim(fc)
    value = ho_fiber(m)
    if n < 2 or any(v != inputs[0] for v in inputs[1:]):
        return SymmetricDG(value, n, [])
    actions = []
    for a in range(1, n):
        perm = {i: i for i in range(1, n + 1)}
        perm[a], perm[a + 1] = a + 1, a
        strand_maps = {}
        for fs, obj in cube.objects.items():
            pfs = frozenset(perm[i] for i in fs)
            tgt = cube.objects[pfs]
            blocks = {}
            for k in obj.degrees():
                ent = {}
                for c, name in enumerate(obj.basis[k]):
                    i = int(name[1 : name.index("(")])
                    new = f"x{perm[i]}" + name[name.index("(") :]
                    ent[(index_of(tgt, k, new), c)] = ONE
                blocks[k] = QMatrix(tgt.dim(k), obj.dim(k), ent)
            strand_maps[fs] = f.apply_map(DGMap(obj, tgt, blocks))
        base = strand_maps[frozenset()]
        ent_by_deg = {k: {} for k in value.degrees()}
        for k in base.source.degrees():
            snames = fc.objects[frozenset()].basis[k]
            tnames = base.target.basis.get(k, ())
            for (r, c), val in base.block(k).entries.items():
                row = index_of(value, k, f"v({tnames[r]})")
                col = index_of(value, k, f"v({snames[c]})")
                ent_by_deg.setdefault(k, {})[(row, col)] = val
        for fs in cube.objects:
            if not fs:
                continue
            pfs = frozenset(perm[i] for i in fs)
            sign = _perm_sort_sign([perm[i] for i in sorted(fs)])
            tag_s, tag_t = _subset_tag(fs), _subset_tag(pfs)
            vdeg = 1 - len(fs)
            comp = strand_maps[fs]
            for k in comp.source.degrees():
                snames = comp.source.basis[k]
                tnames = comp.target.basis.get(k, ())
                for (r, c), val in comp.block(k).entries.items():
                    tot_deg = k + vdeg - 1
                    row = index_of(value, tot_deg, f"f(si({tag_t}:{tnames[r]}@v{vdeg}))")
                    col = index_of(value, tot_deg, f"f(si({tag_s}:{snames[c]}@v{vdeg}))")
                    d = ent_by_deg.setdefault(tot_deg, {})
                    d[(row, col)] = d.get((row, col), ZERO) + sign * val
        blocks = {k: QMatrix(value.dim(k), value.dim(k), e) for k, e in ent_by_deg.items() if value.dim(k)}
        act = DGMap(value, value, blocks)
        assert_valid(act, "cross-effect symmetry generator")
        actions.append(act)
    return SymmetricDG(value, n, actions)


def _old_tower_maps(objects):
    maps = []
    for i in range(len(objects) - 1):
        big, small = objects[i + 1], objects[i]
        blocks = {}
        for k in big.degrees():
            ent = {}
            small_names = set(small.basis.get(k, ()))
            for col, name in enumerate(big.basis[k]):
                if name in small_names:
                    ent[(index_of(small, k, name), col)] = ONE
            blocks[k] = QMatrix(small.dim(k), big.dim(k), ent)
        maps.append(DGMap(big, small, blocks))
    return maps


def _same(x, y):
    """Equal values, and for a DG or a DGMap the same basis names in the same order."""
    if isinstance(x, DGMap):
        return _same(x.source, y.source) and _same(x.target, y.target) and x == y
    return list(x.basis.items()) == list(y.basis.items()) and x == y


def _functor(rng, kind):
    if kind == "identity":
        return IdentityFunctor()
    if kind == "square":
        return TensorPowerFunctor(2)
    if kind == "coefficient":
        return CoefficientFunctor(random_dg(rng, 0, 1, 2, prefix="c"))
    return SumFunctor((IdentityFunctor(), SuspensionFunctor(1, IdentityFunctor())))


FUNCTORS = st.sampled_from(["identity", "square", "coefficient", "sum"])


def _same_cube(new, old):
    assert new.n == old.n and list(new.objects) == list(old.objects) and list(new.edges) == list(old.edges)
    assert all(_same(new.objects[s], old.objects[s]) for s in new.objects)
    assert all(_same(new.edges[e], old.edges[e]) for e in new.edges)



def test_test_cube_lays_out_each_join_once(monkeypatch):
    import rht.calculus as calculus

    x = random_dg(random.Random(5), 0, 2, 3)
    olds = {n: _old_test_cube(n, x) for n in range(7)}
    layouts = []
    real = calculus._tensor_with_index

    def counted(a, b):
        layouts.append((a, b))
        return real(a, b)

    monkeypatch.setattr(calculus, "_tensor_with_index", counted)
    for n, old in olds.items():
        layouts.clear()
        cube = make_test_cube(n, x)
        assert len(layouts) == n
        _same_cube(cube, old)
        assert cube.objects[frozenset()] is x
        for (s, t), m in cube.edges.items():
            assert m.source is cube.objects[s] and m.target is cube.objects[t]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 3), FUNCTORS)
def test_holim_comparison_maps_match_the_name_lookups(seed, n, kind):
    rng = random.Random(seed)
    x = random_dg(rng, 0, 2, 3)
    _same_cube(make_test_cube(n, x), _old_test_cube(n, x))
    f = _functor(rng, kind)
    for cube in (_apply_functor_cube(f, make_test_cube(n, x)), _coproduct_cube([x] * n)[0]):
        hol, m, places = _into_holim(cube)
        assert _same(m, _old_into_holim(cube)[1])
        assert list(places) == sorted((s for s in cube.objects if s), key=lambda s: (len(s), sorted(s)))
        assert _same(_outof_hocolim(cube)[1], _old_outof_hocolim(cube)[1])
    s, t, g, h = random_commuting_square(rng, 0, 2)
    cube = square_cube(s, t, g, h)
    assert _same(_into_holim(cube)[1], _old_into_holim(cube)[1])
    assert _same(_outof_hocolim(cube)[1], _old_outof_hocolim(cube)[1])


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 2), FUNCTORS)
def test_tn_functor_maps_match_the_name_lookups(seed, n, kind):
    rng = random.Random(seed)
    v, w = random_dg(rng, 0, 2, 2, prefix="v"), random_dg(rng, 0, 2, 2, prefix="w")
    g = random_chain_map(rng, v, w)
    inner = _functor(rng, kind)
    assert _same(TnFunctor(inner, n).apply_map(g), _old_tn_apply_map(inner, n, g))
    a, b = random_chain_map(rng, v, v), random_chain_map(rng, w, w)
    assert _same(tensor_map(a, b), _old_tensor_map(a, b))


def _assert_shared(cube, move, x):
    """For the coproduct cube of n copies of x: the sums of one size share
    their differential blocks; the edges hold one block set per shape of
    edge, and the moves of the swap (1 2) at most two per size of sum, not
    one set per subset."""
    n, first = cube.n, {}
    for s, obj in cube.objects.items():
        diff = first.setdefault(len(s), obj.diff)
        assert list(obj.diff) == list(diff) and all(m is diff[k] for k, m in obj.diff.items())
    edge_blocks = {id(m) for e in cube.edges.values() for m in e.blocks.values()}
    assert len(edge_blocks) <= n * (n + 1) // 2 * len(x.basis)
    if n >= 2:
        perm = {i: i for i in range(3, n + 1)} | {1: 2, 2: 1}
        moves = [move(s, frozenset(perm[i] for i in s), perm) for s in cube.objects]
        assert len({id(m) for g in moves for m in g.blocks.values()}) <= 2 * (n + 1) * len(x.basis)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 5), FUNCTORS, st.booleans())
def test_coproduct_cubes_and_cross_effects_match_the_name_lookups(seed, n, kind, equal):
    rng = random.Random(seed)
    if kind in ("square", "coefficient"):
        n = min(n, 3)
    elif kind == "sum":
        n = min(n, 4)
    x = random_dg(rng, 0, 2, 2)
    inputs = [x] * n if equal else [random_dg(rng, 0, 2, 2, prefix=f"y{i}") for i in range(n)]
    cube, move = _coproduct_cube(inputs)
    _same_cube(cube, _old_coproduct_cube(inputs))
    if equal:
        _assert_shared(cube, move, x)
    f = _functor(rng, kind)
    new, old = cross_effect(f, n, inputs), _old_cross_effect(f, n, inputs)
    assert _same(new.underlying, old.underlying) and new.n == old.n
    assert len(new.action) == len(old.action) and all(_same(a, b) for a, b in zip(new.action, old.action))


@pytest.mark.parametrize("n", [3, 4])
def test_tensor_square_cross_effects_of_equal_inputs_match_the_name_lookups(n):
    """F(x)'s blocks are fresh objects per map (tensor_map), so a block
    memo keyed by id without holding its block would see ids reused."""
    for seed in range(4):
        x = random_dg(random.Random(seed), 0, 2, 2)
        new, old = cross_effect(TensorPowerFunctor(2), n, [x] * n), _old_cross_effect(TensorPowerFunctor(2), n, [x] * n)
        assert _same(new.underlying, old.underlying)
        assert len(new.action) == n - 1 and all(_same(a, b) for a, b in zip(new.action, old.action))
        assert new.validate() == []


@pytest.mark.parametrize("model", ["sphere", "polynomial", "trivial"])
def test_tower_maps_match_the_name_lookups(model):
    if model == "sphere":
        c = sphere_model(3)
    elif model == "polynomial":
        c = cofree_lambda(DG({2: ("v",)}), 7)
    else:
        c = trivial_dgc(DG({2: ("a",), 3: ("b",)}))
    tower = taylor_layers_cobar(c, 3, 7)[0]
    old = _old_tower_maps(tower.objects)
    assert len(tower.maps) == len(old) and all(_same(a, b) for a, b in zip(tower.maps, old))


def _old_lie_oracle_closures():
    """The recursive closures lie_dim_oracle used before: (expand, trees)."""

    def expand(tree):
        if isinstance(tree, int):
            return {(tree,): ONE}
        l, r = expand(tree[0]), expand(tree[1])
        out = {}
        for wl, cl in l.items():
            for wr, cr in r.items():
                for word, coeff in ((wl + wr, cl * cr), ((wr + wl), -cl * cr)):
                    s = out.get(word, ZERO) + coeff
                    if s:
                        out[word] = s
                    else:
                        out.pop(word, None)
        return out

    def trees(letters):
        if len(letters) == 1:
            yield letters[0]
            return
        for cut in range(1, len(letters)):
            for l in trees(letters[:cut]):
                for r in trees(letters[cut:]):
                    yield (l, r)

    return expand, trees


def test_lie_oracle_helpers_match_the_recursive_closures():
    expand, trees = _old_lie_oracle_closures()
    for n in range(1, 6):
        for p in itertools.permutations(range(1, n + 1)):
            got = list(_bracket_trees(list(p)))
            assert got == list(trees(list(p)))
            assert all(list(_expand_bracket(t).items()) == list(expand(t).items()) for t in got)


def test_lie_dim_oracle_leaves_no_reference_cycle(cyclic_garbage):
    assert cyclic_garbage(lambda: lie_dim_oracle(4)) == []
