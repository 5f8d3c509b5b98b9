"""Bridge functors between Lie and coalgebra models.

cec_C builds the Chevalley-Eilenberg coalgebra of a DGL: the cofree
coalgebra on the suspension of the underlying DG, with the differential
split into a word-length-preserving part (from d_L) and a word-length
lowering part (from the bracket).  cobar_L goes the other way: the free
Lie algebra on the desuspended de-augmentation, with a bracket-length
raising differential carrying half of the reduced coproduct.  Both land in
truncated (co)free objects, so every output can be expanded and validated
degree by degree.

The input's kind picks each construction, except cobar_L's sign_rule
("desuspended", the default, or "suspended", the counit counterexample that
the tests freeze).  linearize_equiv compares C(L) with s(L)^ab for a free
DGL, s^-1 C with L(C) for a cofree DGC.  The stable category is plain DG:
stabilization is s(L)^ab, a coalgebra's de-augmentation or a DG itself;
Omega^infinity is reduce_dg into DG and infinite_loops_dgl and
infinite_loops_dgc into DGL and DGC.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .dgc import (
    CofreeDGC,
    DGC,
    _as_dgc,
    cofree_lambda,
    to_dgc,
    trivial_dgc,
)
from .dgcore import (
    DG,
    DGMap,
    ZERO_DG,
    _degree_positions,
    _first_generators,
    _generator_table,
    homology_dims,
    is_quasi_iso_through,
    reduce_dg,
    shift,
    validate_dg,
)
from .dgl import (
    DGL,
    FreeDGL,
    FreeDGLMap,
    TensorPoly,
    abelian_dgl,
    abelianize,
    free_lie_basis,
    to_dgl,
    tp_add,
    tp_scale,
)
from .exactq import ONE, QMatrix

HALF = Fraction(1, 2)


def _as_finite_dgl(l) -> DGL:
    if isinstance(l, FreeDGL):
        return to_dgl(l)
    if isinstance(l, DGL):
        return l
    raise TypeError(f"expected a Lie algebra, got {type(l)!r}")


# -- the Chevalley-Eilenberg coalgebra ------------------------------------------------


def cec_C(l, cap: int) -> CofreeDGC:
    """Cofree coalgebra on s[L] with d = d_Lambda + d_bracket.

    Corestriction entries: s x -> -s(d_L x) on single letters, and
    (s x)^(s y) -> (-1)^{|x|} s[x, y] on pairs (halved when x = y, matching
    the divided-power normalization of the word basis).
    """
    ld = _as_finite_dgl(l)
    dg = ld.underlying
    if dg.basis and min(dg.basis) < 1:
        raise ValueError("Lie input must live in positive degrees")
    if ld.cap is not None and cap > ld.cap + 2:
        raise ValueError("cap exceeds the bracket-faithful window of the input")
    gens = [(f"s({name})", k + 1) for k, names in dg.basis.items() for name in names]
    first = _first_generators(dg)
    core: dict[tuple[int, ...], dict[int, Fraction]] = {
        (j,): {h: -c for h, c in lin.items()} for j, lin in _generator_table(dg, dg, dg.diff, 1).items()
    }
    for k1 in dg.degrees():
        for k2 in dg.degrees():
            if k2 < k1 or k1 + k2 + 2 > cap or dg.dim(k1 + k2) == 0:
                continue
            sign = -ONE if k1 % 2 else ONE
            for i1 in range(dg.dim(k1)):
                start = i1 if k1 == k2 else 0
                for i2 in range(start, dg.dim(k2)):
                    vec = ld.bracket_basis(k1, i1, k2, i2)
                    if not any(vec):
                        continue
                    same = k1 == k2 and i1 == i2
                    if same and (k1 + 1) % 2:
                        continue  # repeated odd letter is not a word
                    coeff = sign * (HALF if same else ONE)
                    word = tuple(sorted((first[k1] + i1, first[k2] + i2)))
                    lin = {first[k1 + k2] + r: coeff * c for r, c in enumerate(vec) if c}
                    if lin:
                        core[word] = lin
    return CofreeDGC(gens, cap, core)


# -- the cobar Lie algebra -------------------------------------------------------------


def cobar_L(c, cap: int, sign_rule: str = "desuspended") -> FreeDGL:
    """Free Lie algebra on the desuspended de-augmentation, with
    d(s^-1 x) = -s^-1(dx) + (1/2) sum (-1)^{|alpha|} [s^-1 alpha, s^-1 beta].

    The coefficient reads |alpha| as the degree of s^-1 alpha (sign_rule
    "desuspended", the default): this is the convention under which the
    counit sends word-length-one cobar generators to their Lie elements.
    sign_rule "suspended" reads |alpha| as the degree of alpha itself; the
    two differ by the sign automorphism on generators, so both square to
    zero, but the suspended reading breaks the counit (see counit_eps).
    """
    if sign_rule not in ("desuspended", "suspended"):
        raise ValueError(f"unknown sign_rule {sign_rule!r}")
    flip = -ONE if sign_rule == "desuspended" else ONE
    cd = _as_dgc(c)
    dg = cd.underlying
    if dg.basis and min(dg.basis) < 2:
        raise ValueError("coalgebra input must be at least 2-reduced")
    basis = free_lie_basis([(f"si({name})", k - 1) for k, names in dg.basis.items() for name in names], cap)
    first, lin = _first_generators(dg), _generator_table(dg, dg, dg.diff, 1)
    gen_diff: dict[int, TensorPoly] = {}
    for k in dg.degrees():
        for i in range(dg.dim(k)):
            poly: TensorPoly = {(h,): -c for h, c in lin.get(first[k] + i, {}).items()}
            for ((k1, i1), (k2, i2)), val in cd.coproduct.get((k, i), {}).items():
                a = {(first[k1] + i1,): ONE}
                b = {(first[k2] + i2,): ONE}
                sign = flip * (-ONE if k1 % 2 else ONE)
                poly = tp_add(poly, tp_scale(HALF * sign * val, basis.bracket_poly(a, b)))
            if poly:
                gen_diff[first[k] + i] = poly
    return FreeDGL(basis, gen_diff)


# -- counit and linearizations -----------------------------------------------------------


def counit_eps(l: FreeDGL, cap: Optional[int] = None) -> tuple[FreeDGLMap, bool]:
    """The natural map LC(L) -> L: cobar generators coming from single-letter
    words s x are sent to x, longer words to zero, freely extended.

    The chain-map property is verified and a failure raises (it would signal
    a sign inconsistency between the two functors).  The quasi-isomorphism
    flag is read in the window where both truncations are exact.
    """
    if cap is None:
        cap = l.cap
    cc = cec_C(l, cap + 1)
    lc = cobar_L(cc, cap)
    ld = to_dgl(l)
    # cobar_L numbers its generators along the basis of to_dgc(cc), one per word
    first = _first_generators(to_dgc(cc).underlying)
    pos = _degree_positions(cc.deg)[0]
    images: dict[int, TensorPoly] = {}
    for k, ws in cc.words().items():
        for i, w in enumerate(ws):
            if len(w) == 1:
                # cogenerator s(t) for the monomial t of L
                tree = l.basis.monomials[cc.deg[w[0]] - 1][pos[w[0]]]
                images[first[k] + i] = dict(l.basis.expand(tree))
    eps = FreeDGLMap(lc, l, images)
    fm = eps.to_dgmap()
    report = validate_dg(fm)
    if report:
        raise RuntimeError("counit is not a chain map: " + "; ".join(report[:3]))
    q = is_quasi_iso_through(fm, cap - 1)
    return eps, q


def linearize_equiv(x) -> tuple[DGMap, bool]:
    """Word-length-one comparison maps of underlying DGs; the input's kind
    picks the side.

    For a free DGL L, the projection [C(L)] -> s(L)^ab killing words of
    length >= 2 and bracket monomials.  For a cofree DGC C, the inclusion
    s^-1(C)^pr -> [L(C)] of cogenerators as single-letter monomials.
    """
    if isinstance(x, FreeDGL):
        cc = cec_C(x, x.cap + 1)
        src = to_dgc(cc).underlying
        tgt = shift(abelianize(x), 1)
        words = cc.words()
        cpos, apos = _degree_positions(cc.deg)[0], _degree_positions(x.basis.deg)[0]
        blocks = {}
        for k, ws in words.items():
            ent = {}
            for j, w in enumerate(ws):
                if len(w) != 1:
                    continue
                tree = x.basis.monomials[cc.deg[w[0]] - 1][cpos[w[0]]]
                if isinstance(tree, int):
                    ent[(apos[tree], j)] = ONE
            blocks[k] = QMatrix(tgt.dim(k), len(ws), ent)
        f = DGMap(src, tgt, blocks)
        window = x.cap
    elif isinstance(x, CofreeDGC):
        lc = cobar_L(x, x.cap - 1)
        src = shift(x.gen_dg(), -1)
        tgt = to_dgl(lc).underlying
        # cobar_L numbers its generators along the basis of to_dgc(x), and a
        # generator's monomial sits at its position among those of its degree
        first, lpos = _first_generators(to_dgc(x).underlying), _degree_positions(lc.basis.deg)[0]
        words = x.words()
        at = {w[0]: lpos[first[k] + i] for k, ws in words.items() for i, w in enumerate(ws) if len(w) == 1}
        gens = _degree_positions(x.deg)[1]
        blocks = {}
        for k in src.degrees():
            blocks[k] = QMatrix(tgt.dim(k), src.dim(k), {(at[g], i): ONE for i, g in enumerate(gens[k + 1])})
        f = DGMap(src, tgt, blocks)
        window = lc.cap - 1
    else:
        raise TypeError(f"linearize_equiv expects a free DGL or a cofree DGC, got {type(x)!r}")
    report = validate_dg(f)
    if report:
        raise RuntimeError("linearization is not a chain map: " + "; ".join(report[:3]))
    return f, is_quasi_iso_through(f, window)


# -- stable functors ------------------------------------------------------------------


def stabilization(x) -> DG:
    """The suspension spectrum functor into DG, in the input's category: s(L)^ab
    for a Lie model, the de-augmentation for a coalgebra, and a DG itself."""
    if isinstance(x, (DGL, FreeDGL)):
        return shift(abelianize(x), 1)
    if isinstance(x, (DGC, CofreeDGC)):
        return _as_dgc(x).underlying
    if isinstance(x, DG):
        return x
    raise TypeError(f"stabilization expects a Lie, coalgebra or DG model, got {type(x)!r}")


def infinite_loops_dgl(v: DG, r: int = 2) -> DGL:
    """Omega^infinity into DGL: the abelian DGL on the desuspended r-reduction."""
    return abelian_dgl(shift(reduce_dg(r, v), -1))


def infinite_loops_dgc(v: DG, r: int = 2, cap: int = 16) -> CofreeDGC:
    """Omega^infinity into DGC: the cofree coalgebra on the r-reduction."""
    return cofree_lambda(reduce_dg(r, v), cap)


def snaith(v: DG, cap: int, r: int = 2) -> DG:
    """Underlying DG of the symmetric coalgebra on the r-reduction: the
    stable splitting of Omega^infinity."""
    red = reduce_dg(r, v)
    if red.is_trivial():
        return ZERO_DG
    return to_dgc(cofree_lambda(red, cap)).underlying


# -- rational homotopy and homology of models --------------------------------------------


def sphere_model(n: int) -> DGC:
    """Homology coalgebra of the n-sphere: one class in degree n, trivial
    reduced coproduct."""
    if n < 2:
        raise ValueError("sphere models start at n = 2")
    return trivial_dgc(DG({n: (f"s{n}",)}))


def rational_homotopy(x, cap: int) -> dict[int, int]:
    """Graded dims of rational homotopy: H(L C) for a coalgebra C, degree n
    reporting pi_n; a Lie model reports its own homology, shifted alike."""
    if isinstance(x, (DGC, CofreeDGC)):
        h = homology_dims(to_dgl(cobar_L(x, cap)).underlying)
    elif isinstance(x, (DGL, FreeDGL)):
        h = homology_dims(_as_finite_dgl(x).underlying)
    else:
        raise TypeError("homotopy expects a Lie or coalgebra model")
    return {k + 1: n for k, n in sorted(h.items()) if k + 1 <= cap}


def rational_homology(x, cap: int) -> dict[int, int]:
    """Graded dims of rational homology: H(C L) for a Lie model L, a coalgebra's
    own, with the counit class in degree 0."""
    if isinstance(x, (DGL, FreeDGL)):
        h = homology_dims(to_dgc(cec_C(x, cap)).underlying)
    elif isinstance(x, (DGC, CofreeDGC)):
        h = homology_dims(_as_dgc(x).underlying)
    else:
        raise TypeError("homology expects a Lie or coalgebra model")
    out = {0: 1}
    out.update({k: n for k, n in sorted(h.items()) if k <= cap})
    return out
