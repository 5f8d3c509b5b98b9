"""The generator table: every free and cofree presentation of a DG numbers
the DG's basis, degree by degree, as generators 0, 1, 2, ....  Each builder
that reads its generators off the table is checked against the hand-written
numbering loop it replaced, copied here as the oracle."""

from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rht.calculus import FreeLieFunctor, LambdaFunctor
from rht.dgc import (
    CofreeDGC,
    CofreeDGCMap,
    _apply_letterwise,
    _canonical,
    cofree_identity,
    cofree_lambda,
    cofree_path,
    cofree_zero_map,
    to_dgc,
)
from rht.dgcore import (
    DG,
    DGMap,
    _degree_positions,
    _first_generators,
    _generator_dg,
    _generator_map,
    _generator_table,
    _path_sum,
    _places,
    reduce_dg,
    reduce_with_inclusion,
    shift,
)
from rht.dgl import DGL, FreeDGL, FreeDGLMap, abelian_dgl, free_lie_basis, to_dgl, tp_add, tp_scale
from rht.exactq import ONE, ZERO, QMatrix, solve_linear, solve_matrix
from rht.quillen import cec_C, cobar_L, counit_eps, linearize_equiv
from rht.randgen import random_chain_map, random_dg

HALF = Fraction(1, 2)
SEEDS = st.integers(0, 2**32 - 1)


def _gapped_dg(rng, lo, hi, prefix):
    """A random DG in degrees lo..hi with a nonzero differential, a degree
    holding two or more basis elements and an empty degree between two
    occupied ones: the shapes a generator numbering has to get right."""
    while True:
        v = random_dg(rng, lo, hi, 6, prefix=prefix)
        ds = v.degrees()
        if v.diff and any(v.dim(k) > 1 for k in ds) and len(ds) <= ds[-1] - ds[0]:
            return v


def _generator_degrees(v):
    return [k for k in v.degrees() for _ in v.basis[k]]


@settings(max_examples=100, deadline=None)
@given(SEEDS)
def test_generator_table_is_inverted_by_the_generator_builders(seed):
    rng = Random(seed)
    v, w = _gapped_dg(rng, -1, 4, "v"), _gapped_dg(rng, -1, 4, "w")
    f = random_chain_map(rng, v, w)
    first = _first_generators(v)
    assert [first[k] + i for k in v.degrees() for i in range(v.dim(k))] == list(range(v.total_dim()))
    names = [x for k in v.degrees() for x in v.basis[k]]
    d = _generator_table(v, v, v.diff, 1)
    back = _generator_dg(names, _generator_degrees(v), lambda j: d.get(j, {}))
    assert back.basis == v.basis and back.diff == v.diff
    images = _generator_table(v, w, f.blocks, 0)
    degs = (_generator_degrees(v), _generator_degrees(w))
    assert _generator_map(v, w, degs, lambda j: images.get(j, {})).blocks == f.blocks
    # the table holds exactly the nonzero entries
    assert sum(map(len, d.values())) == sum(len(m.entries) for m in v.diff.values())
    assert all(x for lin in list(d.values()) + list(images.values()) for x in lin.values())


# -- the loops the table replaced ------------------------------------------------------


def _old_cec_C(l, cap):
    ld = to_dgl(l) if isinstance(l, FreeDGL) else l
    dg = ld.underlying
    gens, locate = [], {}
    for k in dg.degrees():
        for i, name in enumerate(dg.basis[k]):
            locate[(k, i)] = len(gens)
            gens.append((f"s({name})", k + 1))
    core = {}
    for k in dg.degrees():
        dk = dg.d(k)
        for i in range(dg.dim(k)):
            lin = {locate[(k - 1, r)]: -dk.get(r, i) for r in range(dg.dim(k - 1)) if dk.get(r, i)}
            if lin:
                core[(locate[(k, i)],)] = lin
    for k1 in dg.degrees():
        for k2 in dg.degrees():
            if k2 < k1 or k1 + k2 + 2 > cap or dg.dim(k1 + k2) == 0:
                continue
            sign = -ONE if k1 % 2 else ONE
            for i1 in range(dg.dim(k1)):
                for i2 in range(i1 if k1 == k2 else 0, dg.dim(k2)):
                    vec = ld.bracket_basis(k1, i1, k2, i2)
                    if not any(vec):
                        continue
                    same = k1 == k2 and i1 == i2
                    if same and (k1 + 1) % 2:
                        continue
                    coeff = sign * (HALF if same else ONE)
                    word = tuple(sorted((locate[(k1, i1)], locate[(k2, i2)])))
                    lin = {locate[(k1 + k2, r)]: coeff * c for r, c in enumerate(vec) if c}
                    if lin:
                        core[word] = lin
    return CofreeDGC(gens, cap, core)


def _old_cobar_L(c, cap):
    cd = to_dgc(c) if isinstance(c, CofreeDGC) else c
    dg = cd.underlying
    gens, locate = [], {}
    for k in dg.degrees():
        for i, name in enumerate(dg.basis[k]):
            locate[(k, i)] = len(gens)
            gens.append((f"si({name})", k - 1))
    basis = free_lie_basis(gens, cap)
    gen_diff = {}
    for k in dg.degrees():
        dk = dg.d(k)
        for i in range(dg.dim(k)):
            poly = {}
            for r in range(dg.dim(k - 1)):
                if dk.get(r, i):
                    poly = tp_add(poly, {(locate[(k - 1, r)],): -dk.get(r, i)})
            for ((k1, i1), (k2, i2)), val in cd.coproduct.get((k, i), {}).items():
                a, b = {(locate[(k1, i1)],): ONE}, {(locate[(k2, i2)],): ONE}
                sign = ONE if k1 % 2 else -ONE  # the "desuspended" sign rule
                poly = tp_add(poly, tp_scale(HALF * sign * val, basis.bracket_poly(a, b)))
            if poly:
                gen_diff[locate[(k, i)]] = poly
    return FreeDGL(basis, gen_diff)


def _old_cofree_lambda(v, cap):
    gens, locate = [], {}
    for k in v.degrees():
        for i, name in enumerate(v.basis[k]):
            locate[(k, i)] = len(gens)
            gens.append((name, k))
    corestriction = {}
    for k in v.degrees():
        dk = v.d(k)
        for i in range(v.dim(k)):
            lin = {locate[(k - 1, r)]: dk.get(r, i) for r in range(v.dim(k - 1)) if dk.get(r, i)}
            if lin:
                corestriction[(locate[(k, i)],)] = lin
    return CofreeDGC(gens, cap, corestriction)


def _old_cofree_path(f, g, cap):
    u, v, w = f.source, f.target, g.source
    total, incls = _path_sum(f.gen_dgmap(), g.gen_dgmap())
    red, incl = reduce_with_inclusion(2, total)
    strand = {(k, row): ("m", p) for (k, p), row in _places(incls[1]).items()}
    back = {}
    for tag, inner, summand in (("u", u, incls[0]), ("w", w, incls[2])):
        pos, gens = _degree_positions(inner.deg)
        at = _places(summand)
        strand.update({(k, row): (tag, gens[k][p]) for (k, p), row in at.items()})
        back[tag] = {h: (d, at[(d, pos[h])]) for h, d in enumerate(inner.deg)}
    kept = [k for k in red.degrees() if k <= cap]
    gens, locate = [], {}
    for k in kept:
        for i, name in enumerate(red.basis[k]):
            locate[(k, i)] = len(gens)
            gens.append((name, k))
    images = {
        locate[(k, i)]: {(k, j): incl.block(k).get(j, i) for j in range(total.dim(k)) if incl.block(k).get(j, i)}
        for k in kept
        for i in range(red.dim(k))
    }
    tot_deg = {key: key[0] for key in strand}

    def pure_corestriction(word):
        if len(word) == 1:
            (k, i) = word[0]
            col = total.d(k).column(i) if total.dim(k - 1) else ()
            return {(k - 1, j): cc for j, cc in enumerate(col) if cc}
        kinds = {strand[p][0] for p in word}
        if kinds not in ({"u"}, {"w"}):
            return {}
        tag = kinds.pop()
        inner = u if tag == "u" else w
        sign, key = _canonical([strand[p][1] for p in word], inner.deg)
        if not sign:
            return {}
        out = {}
        for h, cc in inner.corestriction.get(key, {}).items():
            out[back[tag][h]] = out.get(back[tag][h], ZERO) + sign * cc
        return {p: cc for p, cc in out.items() if cc}

    out_core = {}
    stub = CofreeDGC(gens, cap, {})
    for k, ws in stub.words().items():
        for word in ws:
            acc = {}
            for pure, c0 in _apply_letterwise(word, images, tot_deg).items():
                for p, cc in pure_corestriction(pure).items():
                    acc[p] = acc.get(p, ZERO) + c0 * cc
            acc = {p: cc for p, cc in acc.items() if cc}
            if not acc:
                continue
            kk = k - 1
            rhs = [ZERO] * total.dim(kk)
            for (dd, j), cc in acc.items():
                assert dd == kk
                rhs[j] = cc
            sol = solve_linear(incl.block(kk), tuple(rhs)) if red.dim(kk) else None
            if sol is None:
                raise ValueError("path reduction is not closed under the differential")
            out_core[word] = {locate[(kk, j)]: cc for j, cc in enumerate(sol) if cc}
    return CofreeDGC(gens, cap, out_core)


def _old_free(v, cap):
    gens = [(name, k) for k in v.degrees() for name in v.basis[k]]
    locate, pos = {}, 0
    for k in v.degrees():
        for i in range(v.dim(k)):
            locate[(k, i)] = pos
            pos += 1
    gen_diff = {}
    for k in v.degrees():
        dk = v.d(k)
        for i in range(v.dim(k)):
            poly = {(locate[(k - 1, r)],): dk.get(r, i) for r in range(v.dim(k - 1)) if dk.get(r, i)}
            if poly:
                gen_diff[locate[(k, i)]] = poly
    return FreeDGL(free_lie_basis(gens, cap), gen_diff)


def _old_free_lie_apply_map(f, cap):
    src, tgt = _old_free(f.source, cap), _old_free(f.target, cap)
    locate_src, locate_tgt = {}, {}
    for loc, v in ((locate_src, f.source), (locate_tgt, f.target)):
        pos = 0
        for k in v.degrees():
            for i in range(v.dim(k)):
                loc[(k, i)] = pos
                pos += 1
    images = {}
    for k in f.source.degrees():
        fb = f.block(k)
        for c in range(f.source.dim(k)):
            poly = {(locate_tgt[(k, r)],): fb.get(r, c) for r in range(f.target.dim(k)) if fb.get(r, c)}
            if poly:
                images[locate_src[(k, c)]] = poly
    return FreeDGLMap(src, tgt, images).to_dgmap()


def _old_lambda_apply_map(f, cap):
    rv, iv = reduce_with_inclusion(2, f.source)
    rw, iw = reduce_with_inclusion(2, f.target)
    src_c, tgt_c = _old_cofree_lambda(rv, cap), _old_cofree_lambda(rw, cap)
    gen_images = {}
    for k in rv.degrees():
        sol = solve_matrix(iw.block(k), f.block(k) * iv.block(k))
        for c in range(rv.dim(k)):
            img = {}
            for r in range(rw.dim(k)):
                if sol.get(r, c):
                    img[tgt_c.gen_index[rw.basis[k][r]]] = sol.get(r, c)
            if img:
                gen_images[src_c.gen_index[rv.basis[k][c]]] = img
    return CofreeDGCMap(src_c, tgt_c, gen_images).to_dgc_map().dgmap


def _cofree_map(rng, a, b, cap):
    """cofree_lambda(a) -> cofree_lambda(b) on a random chain map a -> b."""
    f = random_chain_map(rng, a, b)
    la, lb = cofree_lambda(a, cap), cofree_lambda(b, cap)
    images = {
        la.gen_index[a.basis[k][c]]: {lb.gen_index[b.basis[k][r]]: x for r, x in enumerate(f.block(k).column(c)) if x}
        for k in a.degrees()
        for c in range(a.dim(k))
    }
    return CofreeDGCMap(la, lb, images)


# -- equality with the old loops ---------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(SEEDS)
def test_bridge_functors_match_the_numbering_loops(seed):
    rng = Random(seed)
    v = _gapped_dg(rng, 1, 4, "v")
    free = _old_free(v, 5)
    bracket = DGL(DG({1: ("a", "b"), 2: ("c",), 4: ("e",)}), {(1, 0, 1, 1): (ONE,), (1, 1, 1, 0): (ONE,)})
    for l, cap in ((free, 6), (to_dgl(free), 7), (abelian_dgl(v), 8), (bracket, 6)):
        assert cec_C(l, cap) == _old_cec_C(l, cap)
    lv = cofree_lambda(_gapped_dg(rng, 2, 5, "c"), 6)
    for c, cap in ((lv, 5), (to_dgc(lv), 5), (cec_C(free, 6), 5)):
        assert cobar_L(c, cap) == _old_cobar_L(c, cap)


@settings(max_examples=25, deadline=None)
@given(SEEDS)
def test_cofree_builders_match_the_numbering_loops(seed):
    rng = Random(seed)
    u, v, w = (_gapped_dg(rng, 2, 5, p) for p in "uvw")
    assert cofree_lambda(v, 7) == _old_cofree_lambda(v, 7)
    f, g = _cofree_map(rng, u, v, 7), _cofree_map(rng, w, v, 7)
    assert cofree_path(f, g, cap=6) == _old_cofree_path(f, g, 6)
    assert cofree_path(f, g, cap=4) == _old_cofree_path(f, g, 4)
    # outer coalgebras with word-length-lowering parts
    c = cec_C(_old_free(_gapped_dg(rng, 1, 4, "x"), 4), 5)
    zero = CofreeDGC((), c.cap, {})
    for f, g in ((cofree_identity(c), cofree_zero_map(zero, c)), (cofree_zero_map(zero, c), cofree_identity(c))):
        assert cofree_path(f, g, cap=4) == _old_cofree_path(f, g, 4)


def test_cofree_path_with_a_lowering_differential_matches_the_numbering_loop():
    mix = CofreeDGC([("a", 2), ("b", 3), ("e", 4), ("f", 4)], 8, {(0, 1): {2: ONE, 3: -ONE}})
    # odd cogenerators out of degree order: the path complex renumbers a^b as b^a, with sign -1
    odd = CofreeDGC([("a", 5), ("b", 3), ("c", 7), ("e", 4), ("g", 6)], 10, {(0, 1): {2: 1}, (1, 3): {4: 2}})
    for x, cap in ((mix, 7), (odd, 9)):
        zero = CofreeDGC((), x.cap, {})
        for f, g in ((cofree_identity(x), cofree_zero_map(zero, x)), (cofree_identity(x), cofree_identity(x))):
            assert cofree_path(f, g, cap=cap) == _old_cofree_path(f, g, cap)


@settings(max_examples=25, deadline=None)
@given(SEEDS)
def test_free_and_cofree_functors_match_the_numbering_loops(seed):
    rng = Random(seed)
    v, w = _gapped_dg(rng, 1, 4, "v"), _gapped_dg(rng, 1, 4, "w")
    f = random_chain_map(rng, v, w)
    lie = FreeLieFunctor(4)
    assert lie._free(v) == _old_free(v, 4)
    assert lie.apply(v) == to_dgl(_old_free(v, 4)).underlying
    assert lie.apply_map(f) == _old_free_lie_apply_map(f, 4)
    lam = LambdaFunctor(7)
    assert lam.apply(v) == to_dgc(_old_cofree_lambda(reduce_dg(2, v), 7)).underlying
    assert lam.apply_map(f) == _old_lambda_apply_map(f, 7)


@pytest.mark.parametrize("cap", [4, 5])
def test_counit_and_linearization_match_the_word_counter(cap):
    v = DG({1: ("x", "y"), 2: ("u",), 3: ("z",)}, {3: QMatrix(1, 1, {(0, 0): ONE})})
    l = _old_free(v, cap)
    eps, _ = counit_eps(l)
    cc = cec_C(l, cap + 1)
    words, pos = cc.words(), _degree_positions(cc.deg)[0]
    images, gi = {}, 0
    for k in sorted(words):
        for w in words[k]:
            if len(w) == 1:
                images[gi] = dict(l.basis.expand(l.basis.monomials[cc.deg[w[0]] - 1][pos[w[0]]]))
            gi += 1
    assert eps.gen_images == images
    x = cofree_lambda(DG({2: ("a", "b"), 4: ("c",), 5: ("e",)}, {5: QMatrix(1, 1, {(0, 0): ONE})}), cap + 2)
    f, _ = linearize_equiv(x)
    lc = cobar_L(x, x.cap - 1)
    words, lpos = x.words(), _degree_positions(lc.basis.deg)[0]
    at = {w[0]: lpos[i] for i, w in enumerate(w for k in sorted(words) for w in words[k]) if len(w) == 1}
    src, tgt, gens = shift(x.gen_dg(), -1), to_dgl(lc).underlying, _degree_positions(x.deg)[1]
    blocks = {
        k: QMatrix(tgt.dim(k), src.dim(k), {(at[g], i): ONE for i, g in enumerate(gens[k + 1])}) for k in src.degrees()
    }
    assert f == DGMap(src, tgt, blocks)


# -- one reader for generator lists and map images -----------------------------------------


def _presentation(kind, gens, cap):
    if kind == "free":
        return FreeDGL(free_lie_basis(gens, cap), {})
    return CofreeDGC(gens, cap, {})


def _map(kind, a, b, images):
    if kind == "free":
        return FreeDGLMap(a, b, {i: {(h,): c for h, c in lin.items()} for i, lin in images.items()})
    return CofreeDGCMap(a, b, images)


@pytest.mark.parametrize("kind", ["free", "cofree"])
@pytest.mark.parametrize("images", [{0: {-1: ONE}}, {0: {5: ONE}}, {5: {0: ONE}}])
def test_a_map_image_that_names_no_generator_is_rejected(kind, images):
    # a negative letter, a letter past the target's generators, a key past the source's
    a, b = _presentation(kind, [("x", 2)], 6), _presentation(kind, [("y", 2), ("z", 4)], 6)
    with pytest.raises(ValueError, match=f"the image of generator {next(iter(images))} names no generator"):
        _map(kind, a, b, images)
    with pytest.raises(ValueError, match="generator assignment is not degree 0"):
        _map(kind, a, b, {0: {1: ONE}})
    assert _map(kind, a, b, {0: {0: ONE}}).gen_images


@pytest.mark.parametrize("kind, floor", [("free", 1), ("cofree", 2)])
def test_free_and_cofree_generator_lists_share_their_checks(kind, floor):
    with pytest.raises(ValueError, match="duplicate generator names"):
        _presentation(kind, [("x", 2), ("x", 3)], 6)
    with pytest.raises(ValueError, match=f"generator 'x' has degree {floor - 1} < {floor}"):
        _presentation(kind, [("x", floor - 1)], 6)
    with pytest.raises(ValueError, match="cap 3 is below the degree 4 of generator 'x'"):
        _presentation(kind, [("y", 3), ("x", 4)], 3)
    p = _presentation(kind, [("y", 3), ("x", 2)], 6)
    basis = p.basis if kind == "free" else p
    assert (basis.deg, basis.gen_name, basis.gen_index) == ((3, 2), ("y", "x"), {"y": 0, "x": 1})
