"""Joins, test cubes, total homotopy (co)fibers, Taylor approximations,
cross effects, Lie representations, layer towers, and jets."""

import random

import pytest

from rht.calculus import (
    CoefficientFunctor,
    ConstantFunctor,
    FreeLieFunctor,
    IdentityFunctor,
    Jet,
    LambdaFunctor,
    SumFunctor,
    SuspensionFunctor,
    TensorPowerFunctor,
    TnFunctor,
    Tower,
    cross_effect,
    _power_with_swaps,
    homogeneous_eval,
    jet_extract,
    jet_validate,
    join,
    lie_dim_oracle,
    lie_n,
    p_n_stabilize,
    t_n,
    taylor_layers_cobar,
    tensor_map,
    test_cube as make_test_cube,
    thcof_total,
    thfib_thcof,
    thfib_total,
    tset_dg,
)
from rht.dgc import cofree_lambda, dgc_validate
from rht.dgcore import (
    DG,
    Cube,
    DGMap,
    SymmetricDG,
    homology_dims,
    identity_map,
    is_bicartesian,
    is_quasi_iso,
    map_from_names,
    shift,
    sum_dg,
    sym_invariants,
    tensor_dg,
    validate_dg,
)
from rht.dgl import FreeDGL, bracket_filtration, free_lie_basis, to_dgl
from rht.exactq import ONE, QMatrix
from rht.quillen import sphere_model
from rht.randgen import random_chain_map, random_commuting_square, random_dg

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
    assert homology_dims(thfib_thcof("fiber", cu)) == {}
    assert homology_dims(thfib_thcof("cofiber", cu)) == {}


def test_one_cube_collapses_to_the_homotopy_fiber():
    from rht.dgcore import ho_fiber, ho_cofiber

    rng = random.Random(5)
    w = random_dg(rng, 1, 4)
    x = random_dg(rng, 1, 4)
    f = random_chain_map(rng, w, x)
    cu = Cube(1, {frozenset(): w, frozenset({1}): x}, {(frozenset(), frozenset({1})): f})
    assert thfib_thcof("fiber", cu) == ho_fiber(f)
    assert thfib_thcof("cofiber", cu) == ho_cofiber(f)


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
        fib_trivial = homology_dims(thfib_thcof("fiber", cu)) == {}
        cof_trivial = homology_dims(thfib_thcof("cofiber", cu)) == {}
        assert cart == fib_trivial
        assert cocart == cof_trivial
        seen_cart += cart
        seen_noncart += not cart
    assert seen_cart and seen_noncart


def test_iterated_fibers_agree_with_the_one_step_model():
    rng = random.Random(11)
    for _ in range(6):
        cu = square_cube(*random_commuting_square(rng, 0, 4))
        assert homology_dims(thfib_thcof("fiber", cu)) == homology_dims(thfib_total(cu))
        assert homology_dims(thfib_thcof("cofiber", cu)) == homology_dims(
            thcof_total(cu)
        )
    for _ in range(2):
        cu = make_test_cube(3, random_dg(rng, 1, 4, 2))
        assert homology_dims(thfib_thcof("fiber", cu)) == homology_dims(thfib_total(cu))
        assert homology_dims(thfib_thcof("cofiber", cu)) == homology_dims(
            thcof_total(cu)
        )


def test_non_commuting_cube_rejected():
    i = identity_map(V24)
    z = DGMap(V24, V24, {})
    cu = square_cube(i, i, i, z)
    with pytest.raises(ValueError, match="non-commuting"):
        thfib_thcof("fiber", cu)
    with pytest.raises(ValueError, match="mode"):
        thfib_thcof("sideways", square_cube(i, i, i, i))


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


def test_tn_functor_maps_are_chain_maps():
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


def test_lie_dims_against_associative_algebra_oracle():
    for n in (1, 2, 3, 4):
        assert lie_dim_oracle(n) == [1, 1, 2, 6][n - 1]
        assert lie_n(n).rep.underlying.dim(0) == lie_dim_oracle(n)


def test_lie_dimension_is_factorial():
    import math

    for n in (5, 6):
        assert lie_n(n).rep.underlying.dim(0) == math.factorial(n - 1)


def test_lie_action_satisfies_group_relations():
    for n in (2, 3, 4):
        assert lie_n(n).rep.validate() == []


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
    assert homogeneous_eval(a, V24, 1, target="dgl").dim(1) == 1
    assert homogeneous_eval(a, V24, 1, target="dgc").dim(2) == 1
    with pytest.raises(ValueError, match="target"):
        homogeneous_eval(a, V24, 1, target="sp")
    with pytest.raises(ValueError, match="arity"):
        homogeneous_eval(a, V24, 2)


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


def extract_from(c, n, cap):
    tower, _, _ = taylor_layers_cobar(c, n, cap)
    return tower, jet_extract(tower)


def test_jet_round_trip_is_clean():
    for c, n, cap in (
        (sphere_model(2), 3, 8),
        (cofree_lambda(DG({2: ("v",)}), 8), 3, 7),
        (cofree_lambda(DG({2: ("a",), 3: ("b",)}, {3: QMatrix(1, 1, {(0, 0): ONE})}), 7), 2, 6),
    ):
        _, jet = extract_from(c, n, cap)
        assert jet_validate(jet) == []
        assert all(i >= j for (i, j) in jet.blocks)


def test_jet_of_a_zero_differential_tower_has_no_off_diagonal():
    tower, _, _ = taylor_layers_cobar(sphere_model(3), 3, 8)
    jet = jet_extract(tower)
    assert all(i == j for (i, j) in jet.blocks)
    assert jet_validate(jet) == []


def test_extracted_d21_of_the_free_lie_on_x_y():
    # L(x, y) with |x| = 1 and dy = [x, x]: the second jet block carries y to [x,x]
    b = free_lie_basis([("x", 1), ("y", 3)], 6)
    l = FreeDGL(b, {1: b.bracket_poly({(0,): ONE}, {(0,): ONE})})
    dgls, _ = bracket_filtration(l, 2)
    objs = [t.underlying for t in dgls]
    big, small = objs[1], objs[0]
    blocks = {}
    for k in big.degrees():
        names = set(small.basis.get(k, ()))
        ent = {
            (small.index_of(k, nm), c): ONE
            for c, nm in enumerate(big.basis[k])
            if nm in names
        }
        blocks[k] = QMatrix(small.dim(k), big.dim(k), ent)
    tower = Tower(objs, [DGMap(big, small, blocks)])
    jet = jet_extract(tower)
    assert dict(jet.blocks[(2, 1)][3].entries) == {(0, 0): ONE}
    assert jet_validate(jet) == []


def test_non_fibration_tower_rejected():
    small, big = DG({2: ("u",)}), DG({2: ("w",)})
    tower = Tower([small, big], [DGMap(big, small, {})])
    with pytest.raises(ValueError, match="surjective"):
        jet_extract(tower)


def test_perturbed_jet_block_is_witnessed():
    v = DG({2: ("a",), 3: ("b",)}, {3: QMatrix(1, 1, {(0, 0): ONE})})
    tower, _, _ = taylor_layers_cobar(cofree_lambda(v, 7), 2, 6)
    jet = jet_extract(tower)
    bad = Jet(list(jet.layers), {k: dict(m) for k, m in jet.blocks.items()})
    d21 = dict(bad.blocks[(2, 1)])
    d21[3] = d21[3] + QMatrix(d21[3].rows, d21[3].cols, {(0, 0): ONE})
    bad.blocks[(2, 1)] = d21
    report = jet_validate(bad)
    assert any("d^2" in msg for msg in report)
    assert any("chain map" in msg for msg in report)


def test_single_layer_jet_is_clean():
    jet = Jet([V24], {(1, 1): dict(V24.diff)})
    assert jet_validate(jet) == []


def test_jet_structure_map_equivariance():
    a1 = DG({2: ("e",)})
    a2 = DG({1: ("u", "v")})
    swap = DGMap(a2, a2, {1: QMatrix(2, 2, {(0, 1): ONE, (1, 0): ONE})})
    actions = [SymmetricDG(a1, 1, []), SymmetricDG(a2, 2, [swap])]
    good = DGMap(a1, shift(a2, 1), {2: QMatrix(2, 1, {(0, 0): ONE, (1, 0): ONE})})
    bad = DGMap(a1, shift(a2, 1), {2: QMatrix(2, 1, {(0, 0): ONE})})
    base = {(1, 1): {}, (2, 2): {}}
    assert jet_validate(Jet([a1, a2], base, f_sigma={(1, 1): good}, actions=actions)) == []
    report = jet_validate(Jet([a1, a2], base, f_sigma={(1, 1): bad}, actions=actions))
    assert any("equivariance" in msg for msg in report)
    report = jet_validate(Jet([a1, a2], base, f_sigma={(1, 2): good}, actions=actions))
    assert report  # (1,2) is a bijection key but the map is not equivariant either way


# -- determinism ---------------------------------------------------------------------


def test_constructions_are_deterministic():
    assert t_n(TensorPowerFunctor(2), 1, V24)[0] == t_n(TensorPowerFunctor(2), 1, V24)[0]
    a, b = lie_n(3), lie_n(3)
    assert a.rep.underlying == b.rep.underlying
    assert a.rep.action[0] == b.rep.action[0]
    cu1, cu2 = make_test_cube(2, V24), make_test_cube(2, V24)
    assert cu1.objects[frozenset({1, 2})] == cu2.objects[frozenset({1, 2})]
