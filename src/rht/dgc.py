"""Differential graded cocommutative coalgebras over the rationals.

Two representations are used side by side:

- DGC: a finite-basis coalgebra stored through its de-augmentation: a
  dgcore.DG in positive degrees plus the reduced coproduct as structure
  constants.  The counit and coaugmentation live implicitly in degree 0, so
  de-augmenting and re-augmenting are both the identity on this data.  The
  table is well-formed by construction: each entry is a pure tensor of its
  key's degree, and every key and pair names basis elements.
- CofreeDGC: a degree-truncated cofree coalgebra on cogenerators of degree
  at least 2.  Basis elements are wedge words; Lambda^k is the subspace of
  Koszul-signed symmetric-group invariants of the k-fold tensor power, and
  the chosen section normalizes like divided powers, so one even cogenerator
  gives the polynomial coalgebra with unit coefficients and one odd
  cogenerator gives the exterior coalgebra.  The differential is stored as
  its corestriction (word -> cogenerator combination, homogeneous of degree
  -1 by construction) and extended as a coderivation.

Each linear identity of the reduced coproduct lays one tensor square out once
and places pair tables in it, pushed along a map (dgcore._placed): Delta
itself, as its table stores it, whose kernel is the primitives; the square of
a span, for reductions and sub-coalgebras; (f (x) f) Delta_S beside Delta_T f,
for a map f.  Cocommutativity and coassociativity stay pair loops.

dgc_sum, dgc_product and dgc_smash build the sum, product and smash; the
last two share one body, _tensor_coalgebra, which names a class of C (x) D
by a pair of factor keys (degree, index), the counit None.  Their tensor
coproduct exists in two conventions: a symmetrized "half" form carrying 1/2
coefficients and no Koszul signs, and a "koszul" form with the usual sign
rule.  The half form is the default but is not cocommutative once odd
classes are involved; dgc_validate reports the witness, and the koszul
variant is available through the sign_rule switch.  Cylinders, cones,
suspensions and joins share one suspended-strand rule, _suspended_coproduct,
whose coproduct carries forced 1/2 coefficients: it is cocommutative and
compatible with the differential component by component, but for a
genuinely two-sided cylinder the cross component breaks full compatibility
and coassociativity, which the validator reports as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iproduct
from math import factorial
from typing import Mapping, Optional

from .dgcore import (
    DG,
    DGMap,
    ZERO_DG,
    _accumulate,
    _by_column,
    _check_image,
    _columns_apart,
    _cylinder_sum,
    _degree_positions,
    _first_generators,
    _generator_dg,
    _generator_list,
    _generator_map,
    _generator_table,
    _path_sum,
    _placed,
    _places,
    _span_square,
    _tensor_with_index,
    identity_map,
    is_quasi_iso_through,
    reduce_with_inclusion,
    sub_dg,
    sum_dg,
    sum_many,
    validate_dg,
    zero_map,
)
from .exactq import (
    ONE,
    QMatrix,
    ZERO,
    kernel_basis,
    rat,
    solve_linear,
    solve_matrix,
)

# a word is a sorted tuple of cogenerator indices; a polynomial maps words to
# scalars in the divided-power normalization described in the module docstring
Word = tuple[int, ...]
LPoly = dict[Word, Fraction]

Key = tuple[int, int]  # (degree, index) into a de-augmentation basis
PairKey = tuple[Key, Key]
CoTable = dict[Key, dict[PairKey, Fraction]]


# -- finite-basis coalgebras ---------------------------------------------------


@dataclass(frozen=True, eq=False)
class DGC:
    """Finite coalgebra: the DG of the de-augmentation plus the reduced
    coproduct as a table (degree, index) -> {((d1,i1),(d2,i2)): coefficient}."""

    underlying: DG
    coproduct: Mapping[Key, Mapping[PairKey, Fraction]]

    def __post_init__(self):
        basis = self.underlying.basis
        if basis and min(basis) < 1:
            raise ValueError("de-augmentation must live in positive degrees")
        keys = {(k, i) for k, names in basis.items() for i in range(len(names))}
        clean: CoTable = {}
        for key, table in self.coproduct.items():
            t = {p: rat(c) for p, c in table.items() if c}
            if not t:
                continue
            if key not in keys or any(a[0] + b[0] != key[0] or not {a, b} <= keys for a, b in t):
                raise ValueError(f"malformed coproduct entry at ({key[0]},{key[1]})")
            clean[key] = t
        object.__setattr__(self, "coproduct", clean)

    def __eq__(self, other):
        return (
            isinstance(other, DGC)
            and self.underlying == other.underlying
            and self.coproduct == other.coproduct
        )


def trivial_dgc(v: DG) -> DGC:
    """[V]_DGC: a DG with zero reduced coproduct and a disjoint counit."""
    return DGC(v, {})


ZERO_DGC = trivial_dgc(ZERO_DG)


@dataclass(frozen=True, eq=False)
class DGCMap:
    source: DGC
    target: DGC
    dgmap: DGMap

    def __eq__(self, other):
        return (
            isinstance(other, DGCMap)
            and self.source == other.source
            and self.target == other.target
            and self.dgmap == other.dgmap
        )


def identity_dgc_map(c: DGC) -> DGCMap:
    return DGCMap(c, c, identity_map(c.underlying))


def zero_dgc_map(a: DGC, b: DGC) -> DGCMap:
    return DGCMap(a, b, zero_map(a.underlying, b.underlying))


def _square(v: DG) -> tuple[DG, dict]:
    """V (x) V and its index, laid out through V's top degree: the degrees Delta reaches."""
    return _tensor_with_index(v, v, max(v.degrees(), default=0))


def _coproduct_map(c: DGC, square) -> DGMap:
    """The reduced coproduct as a degree-zero map V -> V (x) V, placed in a _square of V."""
    dg = c.underlying
    return DGMap(dg, square[0], _placed(square, c.coproduct, {k: dg.dim(k) for k in dg.degrees()}))


def dgc_validate(c) -> list[str]:
    """Report every violated coalgebra axiom with a witness; empty iff valid.

    Compatibility with d is one identity on the coproduct map: Delta is a
    chain map V -> V (x) V, and a map f respects coproducts when
    Delta_T f = (f (x) f) Delta_S.  Each failing column is reported at its
    basis element; with no coproduct on either side nothing is laid out.
    """
    if isinstance(c, CofreeDGC):
        return dgc_validate(to_dgc(c))
    if isinstance(c, DGCMap):
        report = list(validate_dg(c.dgmap))
        src, tgt, f = c.source, c.target, c.dgmap
        if src.coproduct or tgt.coproduct:
            s, t = src.underlying, tgt.underlying
            square = _tensor_with_index(t, t, max(s.degrees() + t.degrees()))  # the degrees both sides reach
            dt, cols = _coproduct_map(tgt, square), {k: s.dim(k) for k in s.degrees()}
            for k, pushed in _placed(square, src.coproduct, cols, f.blocks).items():
                apart = _columns_apart(dt.block(k) * f.block(k), pushed)
                report.extend(f"map does not respect the coproduct at ({k},{i})" for i in sorted(apart))
        return report
    report = list(validate_dg(c.underlying))
    dg = c.underlying
    for (k, i), table in sorted(c.coproduct.items()):
        for ((k1, i1), (k2, i2)), val in table.items():
            sign = -ONE if (k1 * k2) % 2 else ONE
            if table.get(((k2, i2), (k1, i1)), ZERO) != sign * val:
                report.append(
                    f"cocommutativity fails at ({k},{i}) on pair (({k1},{i1}),({k2},{i2}))"
                )
    apart: dict[int, set[int]] = {}
    if c.coproduct:  # Delta is a chain map: Delta d = d Delta, column by column
        delta = _coproduct_map(c, _square(dg))
        apart = {k: _columns_apart(delta.block(k - 1) * dg.d(k), delta.target.d(k) * delta.block(k)) for k in dg.degrees()}
    for k in dg.degrees():
        for i in range(dg.dim(k)):
            table = c.coproduct.get((k, i), {})
            left: dict[tuple[Key, Key, Key], Fraction] = {}
            right: dict[tuple[Key, Key, Key], Fraction] = {}
            for ((k1, i1), b), val in table.items():
                for (a1, a2), v2 in c.coproduct.get((k1, i1), {}).items():
                    _accumulate(left, (a1, a2, b), val * v2)
            for (a, (k2, i2)), val in table.items():
                for (b1, b2), v2 in c.coproduct.get((k2, i2), {}).items():
                    _accumulate(right, (a, b1, b2), val * v2)
            if left != right:
                report.append(f"coassociativity fails at ({k},{i})")
            if i in apart.get(k, ()):
                report.append(f"coproduct does not commute with d at ({k},{i})")
    return report


def assert_valid_dgc(c, context: str = ""):
    rep = dgc_validate(c)
    if rep:
        raise AssertionError(f"invalid {type(c).__name__} {context}: " + "; ".join(rep[:4]))


# -- primitives ----------------------------------------------------------------


def primitives_with_inclusion(c: DGC, prefix: str = "pr") -> tuple[DG, DGMap]:
    """Kernel of the reduced coproduct as a sub-DG with its inclusion."""
    delta = _coproduct_map(c, _square(c.underlying))
    spans = {k: kernel_basis(delta.block(k)) for k in c.underlying.degrees()}
    return sub_dg(c.underlying, spans, prefix=prefix)


def primitives(c) -> DG:
    """Primitive elements.  For a cofree coalgebra these are exactly the
    length-one words, so the cogenerator DG is returned on the nose."""
    if isinstance(c, CofreeDGC):
        return c.gen_dg()
    return primitives_with_inclusion(c)[0]


# -- sums, products, smash -----------------------------------------------------


def _moved_table(table: Mapping[Key, Mapping[PairKey, Fraction]], at: Mapping[Key, int]) -> CoTable:
    """A summand's coproduct table carried into the sum, along the summand's
    places (dgcore._places of its inclusion)."""

    def mv(key: Key) -> Key:
        return (key[0], at[key])

    return {mv(k): {(mv(a), mv(b)): v for (a, b), v in t.items()} for k, t in table.items()}


def _full_delta(c: DGC, key: Optional[Key]) -> list[tuple[Optional[Key], Optional[Key], Fraction]]:
    """Full coproduct including counit terms; keys are (k, i), the counit None."""
    if key is None:
        return [(None, None, ONE)]
    return [(None, key, ONE), (key, None, ONE), *((a, b, val) for (a, b), val in c.coproduct.get(key, {}).items())]


def dgc_sum(a, b) -> DGC:
    """Coaugmented sum: the de-augmentations side by side."""
    a, b = _as_dgc(a), _as_dgc(b)
    total, inl, inr = sum_dg(a.underlying, b.underlying)
    table = _moved_table(a.coproduct, _places(inl))
    table.update(_moved_table(b.coproduct, _places(inr)))
    return DGC(total, table)


def dgc_product(a, b, sign_rule: str = "half") -> DGC:
    """Product of two coalgebras: de-augmentation C + D + C (x) D.

    sign_rule "half" symmetrizes with 1/2 coefficients and no Koszul signs,
    "koszul" uses the usual signed rule.  The half rule fails graded
    cocommutativity when both factors carry odd-degree classes;
    dgc_validate exhibits the witness.
    """
    a, b = _as_dgc(a), _as_dgc(b)
    t_dg, t_index = _tensor_with_index(a.underlying, b.underlying)
    total, incls = sum_many([a.underlying, b.underlying, t_dg], tags=["c", "d", "t"])
    at_c, at_d, at_t = (_places(incl) for incl in incls)

    def locate(ckey, dkey) -> Optional[Key]:
        if dkey is None:
            return None if ckey is None else (ckey[0], at_c[ckey])
        if ckey is None:
            return (dkey[0], at_d[dkey])
        n, pos = t_index[ckey + dkey]
        return (n, at_t[(n, pos)])

    return _tensor_coalgebra(a, b, total, locate, sign_rule)


def dgc_smash(a, b, sign_rule: str = "half") -> DGC:
    """Smash of two coalgebras: de-augmentation C (x) D, sign rules as in dgc_product."""
    a, b = _as_dgc(a), _as_dgc(b)
    total, t_index = _tensor_with_index(a.underlying, b.underlying)

    def locate(ckey, dkey) -> Optional[Key]:
        return None if ckey is None or dkey is None else t_index[ckey + dkey]

    return _tensor_coalgebra(a, b, total, locate, sign_rule)


def _tensor_coalgebra(a: DGC, b: DGC, total: DG, locate, sign_rule: str) -> DGC:
    """The coalgebra on total whose coproduct is C (x) D's on the classes that
    locate places (a key pair, None the counit, to a key of total, or None)."""
    if sign_rule not in ("half", "koszul"):
        raise ValueError(f"unknown sign rule {sign_rule!r}")
    table: CoTable = {}
    ea, eb = ([(k, i) for k, names in x.underlying.basis.items() for i in range(len(names))] for x in (a, b))
    classes = [(v, None) for v in ea] + [(None, w) for w in eb] + [(v, w) for v in ea for w in eb]
    for ckey, dkey in classes:
        src = locate(ckey, dkey)
        if src is None:
            continue
        acc: dict[PairKey, Fraction] = {}
        unit_weight = ZERO

        def add(lc, ld, rc, rd, coeff):
            nonlocal unit_weight
            if lc is None and ld is None:  # the counit term 1 tensor x
                unit_weight += coeff
                return
            left, right = locate(lc, ld), locate(rc, rd)
            if left is not None and right is not None:
                _accumulate(acc, (left, right), coeff)

        for vk, wk, cv in _full_delta(a, ckey):
            for ak, bk, ca in _full_delta(b, dkey):
                if sign_rule == "half":
                    add(vk, ak, wk, bk, cv * ca / 2)
                    add(vk, bk, wk, ak, cv * ca / 2)
                else:
                    sign = -ONE if wk and ak and wk[0] * ak[0] % 2 else ONE
                    add(vk, ak, wk, bk, sign * cv * ca)
        if unit_weight != ONE:
            raise AssertionError("internal: counit terms of the product do not normalize")
        if acc:
            table[src] = acc
    return DGC(total, table)


# -- homotopy pushouts ----------------------------------------------------------


def _suspended_coproduct(c: DGC, strand: Mapping[Key, int], legs) -> CoTable:
    """The one rule for cylinders, cones, suspensions and joins: a suspended
    strand sC (placed by strand, (k + 1, i) -> index) glued to bases along
    legs (places, g: C -> base) has Delta(sx) = sum over the legs and the
    terms x' (x) x'' of Delta x of 1/2 (sx' (x) g x'') + 1/2 (-1)^|x'| (g x' (x) sx'')."""
    legs = [(at, _by_column(g.blocks)) for at, g in legs]
    table: CoTable = {}
    for (k, i), delta in sorted(c.coproduct.items()):
        acc: dict[PairKey, Fraction] = {}
        for ((k1, i1), (k2, i2)), val in delta.items():
            s1, s2 = (k1 + 1, strand[(k1 + 1, i1)]), (k2 + 1, strand[(k2 + 1, i2)])
            half, sign = val / 2, -ONE if k1 % 2 else ONE
            for at, g in legs:  # each column in row order, whatever order its block was filled in
                for j, x in sorted(g.get((k2, i2), ())):
                    _accumulate(acc, (s1, (k2, at[(k2, j)])), half * x)
                for j, x in sorted(g.get((k1, i1), ())):
                    _accumulate(acc, ((k1, at[(k1, j)]), s2), sign * half * x)
        if acc:
            table[(k + 1, strand[(k + 1, i)])] = acc
    return table


def dgc_ho_pushout(f1: DGCMap, f2: DGCMap) -> tuple[DGC, DGCMap, DGCMap]:
    """Two-sided cylinder (B1 + sC + B2, d(sc) = -s dc + f1(c) + f2(c)) with
    the halved suspension coproduct on the middle strand.  Returns the object
    and the two end inclusions.

    The coproduct on sc is cocommutative, and each of its two components
    (the one valued in B_i tensor factors) commutes with the differential
    after projecting to that component; both facts are exercised by the test
    suite as matrix identities.  When both legs are nonzero and C has a
    nonzero reduced coproduct, the discarded cross component in B_1 tensor
    B_2 breaks full compatibility, and coassociativity fails as well;
    dgc_validate reports the witnesses.  The one-leg specializations
    (suspension, mapping cone) are fully compatible.
    """
    if f1.source is not f2.source and f1.source != f2.source:
        raise ValueError("pushout domain mismatch")
    b1, b2 = f1.target, f2.target
    total, incls = _cylinder_sum(f1.dgmap, f2.dgmap)
    at1, at_s, at2 = (_places(incl) for incl in incls)
    table = _moved_table(b1.coproduct, at1)
    table.update(_moved_table(b2.coproduct, at2))
    table.update(_suspended_coproduct(f1.source, at_s, [(at1, f1.dgmap), (at2, f2.dgmap)]))
    out = DGC(total, table)
    return out, DGCMap(b1, out, incls[0]), DGCMap(b2, out, incls[2])


def dgc_ho_cofiber(f: DGCMap) -> tuple[DGC, DGCMap]:
    """Mapping cone (sC + B): the pushout along 0 <- C -> B."""
    cone, _, inc = dgc_ho_pushout(zero_dgc_map(f.source, ZERO_DGC), f)
    return cone, inc


def suspension_dgc(c: DGC) -> DGC:
    """Pushout of 0 <- C -> 0: the shift of the de-augmentation with zero
    reduced coproduct."""
    return dgc_ho_pushout(zero_dgc_map(c, ZERO_DGC), zero_dgc_map(c, ZERO_DGC))[0]


# -- reduction -------------------------------------------------------------------


def reduce_dgc(r: int, c) -> DGC:
    """Largest sub-coalgebra supported in degrees >= r.

    Starts from the DG reduction (kernel of d at degree r, everything above)
    and, degree by degree upwards, discards the classes whose reduced
    coproduct leaves the tensor square of the candidate.  The square in
    degree k reads only the spans below k, which are final by then, so one
    pass reaches the fixed point.
    """
    c = _as_dgc(c)
    dg = c.underlying
    square = _square(dg)
    delta = _coproduct_map(c, square)
    spans: dict[int, QMatrix] = {}
    for k in dg.degrees():
        if k > r:
            spans[k] = QMatrix.identity(dg.dim(k))
        elif k == r:
            spans[k] = kernel_basis(dg.d(r))
    for k in sorted(spans):
        x = spans[k]
        if x.cols == 0:
            continue
        span_sq = _span_square(square, {j: s for j, s in spans.items() if j < k}, k)[1]
        # functionals killing the square of the spans below k
        ann = kernel_basis(span_sq.transpose()).transpose()
        keep = kernel_basis(ann * (delta.block(k) * x))
        if keep.cols != x.cols:
            spans[k] = x * keep
    if all(spans.get(k, QMatrix.zero(0, 0)).cols == dg.dim(k) for k in dg.degrees()):
        return c
    return _sub_dgc(c, square, spans, prefix=f"r{r}_")[0]


def _sub_dgc(c: DGC, square, spans: Mapping[int, QMatrix], prefix: str) -> tuple[DGC, DGCMap]:
    """Sub-coalgebra spanned by the columns of spans[k] (must be closed under d
    and under the reduced coproduct), read in square, a _square of c's DG."""
    sub, incl = sub_dg(c.underlying, spans, prefix=prefix)
    delta = _coproduct_map(c, square)
    blocks = {k: incl.block(k) for k in sub.degrees()}  # with any zero block: its columns still name pairs
    table: CoTable = {}
    for k in sub.degrees():
        pairs, incl_sq = _span_square(square, blocks, k)
        sol = solve_matrix(incl_sq, delta.block(k) * blocks[k])
        if sol is None:
            raise ValueError(f"span not closed under the coproduct at degree {k}")
        for rr, i in sorted(sol.entries, key=lambda e: (e[1], e[0])):
            table.setdefault((k, i), {})[pairs[rr]] = sol.entries[(rr, i)]
    out = DGC(sub, table)
    return out, DGCMap(out, c, incl)


def _as_dgc(x) -> DGC:
    if isinstance(x, CofreeDGC):
        return to_dgc(x)
    if isinstance(x, DGC):
        return x
    raise TypeError(f"expected a coalgebra, got {type(x)!r}")


# -- cofree coalgebras -----------------------------------------------------------


def _canonical(letters, deg) -> tuple[Fraction, Word]:
    """Sort letters ascending with the Koszul sign; zero on repeated odd letters."""
    ls = list(letters)
    sign = ONE
    for i in range(1, len(ls)):
        j = i
        while j > 0 and ls[j - 1] > ls[j]:
            if (deg[ls[j - 1]] * deg[ls[j]]) % 2:
                sign = -sign
            ls[j - 1], ls[j] = ls[j], ls[j - 1]
            j -= 1
    for i in range(1, len(ls)):
        if ls[i] == ls[i - 1] and deg[ls[i]] % 2:
            return ZERO, ()
    return sign, tuple(ls)


def _runs(w: Word) -> list[tuple[int, int]]:
    out: list[tuple[int, int]] = []
    for g in w:
        if out and out[-1][0] == g:
            out[-1] = (g, out[-1][1] + 1)
        else:
            out.append((g, 1))
    return out


def _splits(w: Word, deg, proper: bool):
    """Unshuffles of a sorted word into (A, B) with the Koszul sign of moving
    A to the front; A is always nonempty, and B too when proper."""
    runs = _runs(w)
    for choice in iproduct(*(range(m + 1) for _, m in runs)):
        if not any(choice):
            continue
        if proper and all(k == m for k, (_, m) in zip(choice, runs)):
            continue
        a: list[int] = []
        b: list[int] = []
        exp = 0
        bdeg = 0
        for k, (g, m) in zip(choice, runs):
            exp += deg[g] * bdeg * k
            a.extend([g] * k)
            b.extend([g] * (m - k))
            bdeg += deg[g] * (m - k)
        sign = -ONE if exp % 2 else ONE
        yield sign, tuple(a), tuple(b)


def _insert(h: int, b: Word, deg) -> tuple[Fraction, Word]:
    """Divided-power product of a cogenerator with a word: coefficient
    (multiplicity of h in the result) times the sorted word."""
    if deg[h] % 2 and h in b:
        return ZERO, ()
    exp = deg[h] * sum(deg[x] for x in b if x < h)
    count = b.count(h) + 1
    coeff = Fraction(count) * (-ONE if exp % 2 else ONE)
    merged = tuple(sorted(b + (h,)))
    return coeff, merged


def _mfact(w: Word) -> int:
    out = 1
    for _, m in _runs(w):
        out *= factorial(m)
    return out


def _apply_letterwise(w: Word, images: Mapping[int, Mapping[int, Fraction]], tgt_deg) -> LPoly:
    """Extend a linear cogenerator assignment multiplicatively to a word,
    in the divided-power normalization."""
    parts: list[tuple[Fraction, tuple[int, ...]]] = [(ONE, ())]
    for letter in w:
        img = images.get(letter, {})
        parts = [(c * ci, ls + (h,)) for c, ls in parts for h, ci in img.items() if ci]
        if not parts:
            return {}
    out: LPoly = {}
    mw = _mfact(w)
    for c, ls in parts:
        sign, x = _canonical(ls, tgt_deg)
        if not sign:
            continue
        _accumulate(out, x, c * sign * _mfact(x) / mw)
    return out


class CofreeDGC:
    """Degree-truncated cofree coalgebra with a coderivation differential.

    The differential is stored through its corestriction: a map from basis
    words to cogenerator combinations, homogeneous of degree -1.  Length-one
    entries are the cogenerator differential d_0; longer words carry the
    word-length-lowering parts d_{-1}, d_{-2}, ...
    """

    def __init__(self, cogenerators, cap: int, corestriction: Mapping[Word, Mapping[int, Fraction]]):
        self.cogenerators, self.deg, self.gen_name, self.gen_index = _generator_list(cogenerators, 2, cap)
        self.cap = cap
        self.corestriction: dict[Word, dict[int, Fraction]] = {}
        for w, lin in corestriction.items():
            w, lin = tuple(w), {h: rat(cc) for h, cc in lin.items() if cc}
            if not all(0 <= g < len(self.deg) for g in (*w, *lin)):
                raise ValueError(f"the corestriction of {w} names no cogenerator")
            if _canonical(w, self.deg)[1] != w:
                raise ValueError(f"the corestriction key {w} is not a canonical word")
            if any(self.deg[h] != self.word_degree(w) - 1 for h in lin):
                raise ValueError(f"d({self.word_name(w)}) is not homogeneous of degree -1")
            if lin:
                self.corestriction[w] = lin
        self._words: Optional[dict[int, tuple[Word, ...]]] = None
        self._dgc: Optional[DGC] = None

    def __eq__(self, other):
        return (
            isinstance(other, CofreeDGC)
            and self.cogenerators == other.cogenerators
            and self.cap == other.cap
            and self.corestriction == other.corestriction
        )

    def word_degree(self, w: Word) -> int:
        return sum(self.deg[g] for g in w)

    def word_name(self, w: Word) -> str:
        return "^".join(self.gen_name[g] for g in w)

    def words(self) -> dict[int, tuple[Word, ...]]:
        """Canonical basis words by degree: sorted tuples of cogenerator
        indices, odd cogenerators without repetition, total degree <= cap."""
        if self._words is not None:
            return self._words
        found: list[Word] = []
        # depth-first, with an explicit stack: a recursive closure would hold
        # itself and self in a reference cycle that only the cyclic collector frees
        stack: list[tuple[Word, int]] = [((), 0)]
        while stack:
            w, degsum = stack.pop()
            if w:
                found.append(w)
            for g in range(w[-1] if w else 0, len(self.deg)):
                d = degsum + self.deg[g]
                if d > self.cap:
                    continue
                if self.deg[g] % 2 and w and w[-1] == g:
                    continue
                stack.append((w + (g,), d))
        by_deg: dict[int, list[Word]] = {}
        for w in found:
            by_deg.setdefault(self.word_degree(w), []).append(w)
        self._words = {k: tuple(sorted(ws, key=lambda w: (len(w), w))) for k, ws in sorted(by_deg.items())}
        return self._words

    def d_word(self, w: Word) -> LPoly:
        """Coderivation extension of the corestriction."""
        out: LPoly = {}
        for sign, a, b in _splits(w, self.deg, proper=False):
            for h, c in self.corestriction.get(a, {}).items():
                coeff, x = _insert(h, b, self.deg)
                if not coeff:
                    continue
                _accumulate(out, x, sign * c * coeff)
        return out

    def delta_word(self, w: Word) -> dict[tuple[Word, Word], Fraction]:
        """Reduced coproduct: signed proper unshuffles."""
        out: dict[tuple[Word, Word], Fraction] = {}
        for sign, a, b in _splits(w, self.deg, proper=True):
            out[(a, b)] = out.get((a, b), ZERO) + sign
        return {p: v for p, v in out.items() if v}

    def gen_dg(self) -> DG:
        return _generator_dg(self.gen_name, self.deg, lambda j: self.corestriction.get((j,), {}))


def to_dgc(c: CofreeDGC) -> DGC:
    """Expand a cofree coalgebra into an explicit finite-basis DGC."""
    if c._dgc is not None:
        return c._dgc
    words = c.words()
    index: dict[Word, Key] = {}
    basis: dict[int, tuple[str, ...]] = {}
    for k, ws in words.items():
        basis[k] = tuple(c.word_name(w) for w in ws)
        for i, w in enumerate(ws):
            index[w] = (k, i)
    diff: dict[int, QMatrix] = {}
    for k, ws in words.items():
        tgt = words.get(k - 1, ())
        if not tgt:
            continue
        ent = {}
        for j, w in enumerate(ws):
            for x, v in c.d_word(w).items():
                ent[(index[x][1], j)] = v
        diff[k] = QMatrix._of(len(tgt), len(ws), ent)
    table: CoTable = {}
    for k, ws in words.items():
        for i, w in enumerate(ws):
            t = {(index[a], index[b]): v for (a, b), v in c.delta_word(w).items()}
            if t:
                table[(k, i)] = t
    out = DGC(DG(basis, diff), table)
    c._dgc = out
    return out


def cofree_lambda(v: DG, cap: int) -> CofreeDGC:
    """Truly cofree coalgebra on a cogenerator DG (degrees >= 2)."""
    gens = [(name, k) for k, names in v.basis.items() for name in names]
    corestriction = {(j,): lin for j, lin in _generator_table(v, v, v.diff, 1).items()}
    return CofreeDGC(gens, cap, corestriction)


class CofreeDGCMap:
    """Cofreely generated map: a linear cogenerator assignment extended
    multiplicatively to wedge words."""

    def __init__(self, source: CofreeDGC, target: CofreeDGC, gen_images: Mapping[int, Mapping[int, Fraction]]):
        self.source = source
        self.target = target
        self.gen_images: dict[int, dict[int, Fraction]] = {}
        for i, lin in gen_images.items():
            lin = {h: rat(cc) for h, cc in lin.items() if cc}
            if lin:
                _check_image(i, [(h,) for h in lin], source.deg, target.deg)
                self.gen_images[i] = lin

    def apply_word(self, w: Word) -> LPoly:
        return _apply_letterwise(w, self.gen_images, self.target.deg)

    def gen_dgmap(self) -> DGMap:
        src, tgt, degs = self.source.gen_dg(), self.target.gen_dg(), (self.source.deg, self.target.deg)
        return _generator_map(src, tgt, degs, lambda j: self.gen_images.get(j, {}))

    def to_dgc_map(self) -> DGCMap:
        sdgc, tdgc = to_dgc(self.source), to_dgc(self.target)
        swords, twords = self.source.words(), self.target.words()
        blocks = {}
        for k, ws in swords.items():
            tindex = {w: i for i, w in enumerate(twords.get(k, ()))}
            ent = {}
            for j, w in enumerate(ws):
                for x, v in self.apply_word(w).items():
                    ent[(tindex[x], j)] = v
            blocks[k] = QMatrix._of(len(tindex), len(ws), ent)
        return DGCMap(sdgc, tdgc, DGMap(sdgc.underlying, tdgc.underlying, blocks))


def cofree_identity(c: CofreeDGC) -> CofreeDGCMap:
    return CofreeDGCMap(c, c, {i: {i: ONE} for i in range(len(c.cogenerators))})


def cofree_zero_map(a: CofreeDGC, b: CofreeDGC) -> CofreeDGCMap:
    return CofreeDGCMap(a, b, {})


# -- paths: homotopy limits of cofreely generated spans ---------------------------


def cofree_path(f: CofreeDGCMap, g: CofreeDGCMap, r: int = 2, cap: Optional[int] = None) -> CofreeDGC:
    """Cofree path object of the span  source(f) -> target <- source(g).

    The cogenerator DG is the reduced path complex U + s^-1 V + W with
    d_fg(u + s^-1 v + w) = s^-1(f(u) + g(w)) added, and the word-length
    lowering parts of the differentials of the two outer coalgebras are
    transported onto it.  Specializations: 0 -> Lambda V <- 0 gives loops,
    the identity against 0 gives a contractible path coalgebra.

    One table, core, holds the corestriction on words of path-complex classes:
    d of the path complex on single classes, and each outer coalgebra's longer
    words carried along its summand's places, resorted with their Koszul sign.
    """
    if f.target != g.target:
        raise ValueError("path codomain mismatch")
    if r < 2:
        raise ValueError("reduction level must be at least 2")
    u, v, w = f.source, f.target, g.source
    if cap is None:
        cap = min(u.cap, w.cap, v.cap - 1)
    total, incls = _path_sum(f.gen_dgmap(), g.gen_dgmap())
    red, incl = reduce_with_inclusion(r, total)
    # path-complex classes and the cogenerators of red are numbered as generators
    first, red_first = _first_generators(total), _first_generators(red)
    tot_deg = [k for k, names in total.basis.items() for _ in names]

    core: dict[Word, dict[int, Fraction]] = {(p,): lin for p, lin in _generator_table(total, total, total.diff, 1).items()}
    for inner, summand in ((u, incls[0]), (w, incls[2])):
        at, pos = _places(summand), _degree_positions(inner.deg)[0]
        place = [first[d] + at[(d, pos[h])] for h, d in enumerate(inner.deg)]
        for key, lin in inner.corestriction.items():
            if len(key) > 1:
                sign, word = _canonical([place[h] for h in key], tot_deg)
                core[word] = {place[h]: sign * cc for h, cc in lin.items()}

    # cogenerators above the cap can never enter a word, so drop them
    gens = [(name, k) for k, names in red.basis.items() if k <= cap for name in names]
    images = _generator_table(red, total, incl.blocks, 0)
    out_core: dict[Word, dict[int, Fraction]] = {}
    stub = CofreeDGC(gens, cap, {})
    for k, ws in stub.words().items():
        for word in ws:
            acc: dict[int, Fraction] = {}
            for pure, c0 in _apply_letterwise(word, images, tot_deg).items():
                for p, cc in core.get(pure, {}).items():
                    _accumulate(acc, p, c0 * cc)
            if not acc:
                continue
            kk = k - 1
            rhs = [ZERO] * total.dim(kk)
            for p, cc in acc.items():
                if tot_deg[p] != kk:
                    raise AssertionError("internal: path corestriction not homogeneous")
                rhs[p - first[kk]] = cc
            sol = solve_linear(incl.block(kk), tuple(rhs)) if red.dim(kk) else None
            if sol is None:
                raise ValueError(
                    f"path reduction is not closed under the differential at {stub.word_name(word)}"
                )
            out_core[word] = {red_first[kk] + j: cc for j, cc in enumerate(sol) if cc}
    return CofreeDGC(gens, cap, out_core)


def cofree_loops(v: CofreeDGC, r: int = 2, cap: Optional[int] = None) -> CofreeDGC:
    zero = CofreeDGC((), v.cap, {})
    return cofree_path(cofree_zero_map(zero, v), cofree_zero_map(zero, v), r=r, cap=cap)


def cofree_paths(v: CofreeDGC, r: int = 2, cap: Optional[int] = None) -> CofreeDGC:
    zero = CofreeDGC((), v.cap, {})
    return cofree_path(cofree_identity(v), cofree_zero_map(zero, v), r=r, cap=cap)


# -- detection of quasi-isomorphisms ------------------------------------------------


def hurewicz_check_dgc(f: CofreeDGCMap) -> tuple[bool, bool]:
    """(quasi-iso on de-augmentations, quasi-iso on cogenerator DGs), both
    read in the cap-exact window.  For cofreely generated maps of cofree
    coalgebras the two flags agree."""
    if f.source.cap != f.target.cap:
        raise ValueError("cap mismatch")
    top = f.source.cap - 1
    q = is_quasi_iso_through(f.to_dgc_map().dgmap, top)
    pr = is_quasi_iso_through(f.gen_dgmap(), top)
    return q, pr
