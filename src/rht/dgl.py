"""Differential graded Lie algebras over the rationals.

Two representations are used side by side:

- DGL: a finite-basis Lie algebra given by structure constants on top of a
  dgcore.DG.  Everything (antisymmetry, Jacobi, Leibniz) is machine-checkable.
- FreeDGL: a degree-truncated free Lie algebra on positive-degree generators,
  validated on its expansion to_dgl as a cofree DGC is on to_dgc.  A bracket
  monomial expands into graded commutators in the tensor algebra and is
  projected back onto the monomial basis by exact linear algebra.

The monomial basis is the super-Lyndon basis: standard bracketings of Lyndon
words plus the square [l, l] for each odd-degree Lyndon monomial l.  Squares
of even-degree elements vanish rationally, so nothing else is needed; the
test suite checks the per-degree dimensions against an independent
commutator-span rank computation in the tensor algebra.  The monomials come
from pairs: each Lyndon word of length at least 2 is built once, from the
two lower-degree Lyndon words of its standard factorization, and its tree
brackets their trees.

_free_sum is the one builder for free models on a sum of generating sets:
free_product, dgl_product (the product's free model), free_cone,
free_suspension, free_big_suspension and free_cylinder each give it their
parts and the linear terms that join them; the finite product is
dgl_strict_product.

Leibniz, Jacobi and the map condition read the bracket as one degree-zero map
B: L (x) L -> L on a tensor square laid out once (_bracket_map): B is a chain
map, each ad_x is a derivation of B, ad_x B = B D_x with
D_x(y (x) z) = [x,y] (x) z + (-1)^{|x||y|} y (x) [x,z], and a map f has
f B_S = B_T (f (x) f).  Antisymmetry compares B's columns (x, y) and (y, x).

A sub-DGL (_sub_dgl, for reductions and strict limits) takes the brackets of
its inclusion's columns through DGL.bracket_vec, so a lazy table computes
only the entries those columns reach, and pulls them back one degree at a time.
Filtrations by bracket length are built in calculus, from the positions and
lengths of the monomial basis.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Union

from .dgcore import (
    DG,
    DGMap,
    ZERO_DG,
    _degree_positions,
    _check_image,
    _accumulate,
    _by_column,
    _columns_apart,
    _generator_dg,
    _generator_list,
    _generator_map,
    _path_sum,
    _places,
    _span_square,
    _tensor_with_index,
    assert_valid,
    compose,
    identity_map,
    is_quasi_iso,
    is_quasi_iso_through,
    map_add,
    map_scale,
    projection,
    reduce_with_inclusion,
    strict_pullback,
    sum_dg,
    quotient_dg,
    validate_dg,
    zero_map,
)
from .exactq import ONE, QMatrix, Vector, ZERO, _unit_vec, rat, solve_matrix, vec_scale, zero_vec

# a word is a tuple of generator indices; a polynomial maps words to scalars
Word = tuple[int, ...]
TensorPoly = dict[Word, Fraction]
# a bracket monomial: either a generator index or a pair of monomials
Tree = Union[int, tuple]


# -- tensor algebra helpers -------------------------------------------------------


def tp_add(a: TensorPoly, b: TensorPoly) -> TensorPoly:
    out = dict(a)
    for w, c in b.items():
        v = out.get(w, ZERO) + c
        if v:
            out[w] = v
        else:
            out.pop(w, None)
    return out


def tp_scale(c, a: TensorPoly) -> TensorPoly:
    c = rat(c)
    if not c:
        return {}
    return {w: c * v for w, v in a.items()}


def tp_concat(a: TensorPoly, b: TensorPoly) -> TensorPoly:
    out: TensorPoly = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            w = wa + wb
            v = out.get(w, ZERO) + ca * cb
            if v:
                out[w] = v
            else:
                out.pop(w, None)
    return out


def tp_reindex(a: TensorPoly, mapping: Mapping[int, int]) -> TensorPoly:
    return {tuple(mapping[i] for i in w): c for w, c in a.items()}


class FreeLieBasis:
    """Super-Lyndon basis of the free graded Lie algebra, truncated at cap."""

    def __init__(self, generators, cap: int):
        self.generators, self.deg, self.gen_name, self.gen_index = _generator_list(generators, 1, cap)
        self.cap = cap
        self.monomials: dict[int, tuple[Tree, ...]] = {}
        self._expand_cache: dict[Tree, TensorPoly] = {}
        self._leading: dict[int, dict[Word, tuple[int, Fraction]]] = {}
        self._build_monomials()

    # equality is by presentation, not by caches
    def __eq__(self, other):
        return (
            isinstance(other, FreeLieBasis)
            and self.generators == other.generators
            and self.cap == other.cap
        )

    def __hash__(self):
        return hash((self.generators, self.cap))

    def word_degree(self, w: Word) -> int:
        return sum(self.deg[i] for i in w)

    # monomials ---------------------------------------------------------------

    def _build_monomials(self):
        # Lyndon words degree by degree, each with its tree and its right
        # factor.  For Lyndon u < v, uv is Lyndon with standard factorization
        # (u, v) exactly when u is a letter or u's right factor is >= v
        # (Lothaire, Combinatorics on Words, Prop. 5.1.4), so each Lyndon word
        # is built once, from the pair its tree brackets.
        lyndon: dict[int, list[tuple[Word, Tree, Optional[Word]]]] = {}
        per_degree: dict[int, list[tuple[tuple, Tree]]] = {}
        for d in range(1, self.cap + 1):
            found = [((i,), i, None) for i, gd in enumerate(self.deg) if gd == d]
            for d1 in range(1, d):
                for u, tu, ru in lyndon.get(d1, ()):
                    for v, tv, _ in lyndon.get(d - d1, ()):
                        if u < v and (ru is None or ru >= v):
                            found.append((u + v, (tu, tv), v))
            lyndon[d] = found
            for w, t, _ in found:
                per_degree.setdefault(d, []).append(((len(w),) + w, t))
                if d % 2 == 1 and 2 * d <= self.cap:
                    per_degree.setdefault(2 * d, []).append(((2 * len(w),) + w + w, (t, t)))
        self.monomials = {
            d: tuple(t for _, t in sorted(lst, key=lambda p: p[0])) for d, lst in sorted(per_degree.items())
        }

    def tree_length(self, t: Tree) -> int:
        if isinstance(t, int):
            return 1
        return self.tree_length(t[0]) + self.tree_length(t[1])

    def tree_name(self, t: Tree) -> str:
        if isinstance(t, int):
            return self.gen_name[t]
        return f"[{self.tree_name(t[0])},{self.tree_name(t[1])}]"

    def expand(self, t: Tree) -> TensorPoly:
        if t in self._expand_cache:
            return self._expand_cache[t]
        out = {(t,): ONE} if isinstance(t, int) else self.bracket_poly(self.expand(t[0]), self.expand(t[1]))
        self._expand_cache[t] = out
        return out

    def bracket_poly(self, a: TensorPoly, b: TensorPoly) -> TensorPoly:
        """Graded commutator of homogeneous polynomials."""
        if not a or not b:
            return {}
        da = self.word_degree(next(iter(a)))
        db = self.word_degree(next(iter(b)))
        sign = -ONE if (da * db) % 2 else ONE
        return tp_add(tp_concat(a, b), tp_scale(-sign, tp_concat(b, a)))

    # coordinates ---------------------------------------------------------------

    def _leading_words(self, d: int) -> dict[Word, tuple[int, Fraction]]:
        """Least word of each degree-d monomial's expansion -> (index, coefficient).

        Chen-Fox-Lyndon: a standard-bracketed Lyndon word expands to itself
        plus larger words, and an odd square [l,l] to 2ll plus larger words,
        so the least words are distinct and coords can peel a Lie element by
        its least word, which must lead some monomial's expansion.
        """
        if d not in self._leading:
            lead: dict[Word, tuple[int, Fraction]] = {}
            for j, t in enumerate(self.monomials.get(d, ())):
                e = self.expand(t)
                w = min(e)
                if w in lead:
                    raise ValueError(f"monomial expansions dependent in degree {d}")
                lead[w] = (j, e[w])
            self._leading[d] = lead
        return self._leading[d]

    def coords(self, poly: TensorPoly) -> dict[int, Vector]:
        """Coordinates of a Lie element in the monomial basis, per degree.

        Components above the cap are discarded (truncation); a component that
        is not in the commutator span raises.
        """
        split: dict[int, TensorPoly] = {}
        for w, c in poly.items():
            split.setdefault(self.word_degree(w), {})[w] = c
        out: dict[int, Vector] = {}
        for d, part in sorted(split.items()):
            if d > self.cap:
                continue
            lead = self._leading_words(d)
            ms = self.monomials.get(d, ())
            x = [ZERO] * len(ms)
            rest = {w: c for w, c in part.items() if c}
            while rest:
                w = min(rest)
                if w not in lead:
                    raise ValueError(f"element is not in the Lie span in degree {d}")
                j, lc = lead[w]
                x[j] = c = rest[w] / lc
                for u, e in self.expand(ms[j]).items():
                    v = rest.get(u, ZERO) - c * e
                    if v:
                        rest[u] = v
                    else:
                        del rest[u]
            out[d] = tuple(x)
        return out

    def diff_poly(self, gen_diff: Mapping[int, TensorPoly], poly: TensorPoly) -> TensorPoly:
        """Derivation extension of a generator differential, in word form."""
        out: TensorPoly = {}
        for w, c in poly.items():
            pre_deg = 0
            for i, letter in enumerate(w):
                dxi = gen_diff.get(letter)
                if dxi:
                    sign = -ONE if pre_deg % 2 else ONE
                    for w2, c2 in dxi.items():
                        word = w[:i] + w2 + w[i + 1 :]
                        v = out.get(word, ZERO) + sign * c * c2
                        if v:
                            out[word] = v
                        else:
                            out.pop(word, None)
                pre_deg += self.deg[letter]
        return out


def free_lie_basis(generators, cap: int) -> FreeLieBasis:
    return FreeLieBasis(generators, cap)


# -- finite DGLs --------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class DGL:
    """Finite-basis Lie algebra: a DG plus a structure-constant table.

    bracket maps (deg1, idx1, deg2, idx2) to the value vector in degree
    deg1 + deg2; missing entries are zero.
    """

    underlying: DG
    bracket: Mapping[tuple[int, int, int, int], Vector]
    # degree truncation boundary: brackets landing above it are cut off, so
    # Leibniz is only meaningful for pairs with total degree <= cap
    cap: Optional[int] = None

    def bracket_basis(self, k1: int, i1: int, k2: int, i2: int) -> Vector:
        v = self.bracket.get((k1, i1, k2, i2))
        if v is None:
            return zero_vec(self.underlying.dim(k1 + k2))
        return v

    def bracket_vec(self, k1: int, v1: Vector, k2: int, v2: Vector) -> Vector:
        """Sums only the table entries that the supports of v1 and v2 reach."""
        acc: dict[int, Fraction] = {}
        support2 = [(i2, c2) for i2, c2 in enumerate(v2) if c2]
        for i1, c1 in enumerate(v1):
            if not c1:
                continue
            for i2, c2 in support2:
                entry = self.bracket.get((k1, i1, k2, i2))
                if entry is None:
                    continue
                c = c1 * c2
                for r, x in enumerate(entry):
                    if x:
                        acc[r] = acc.get(r, ZERO) + c * x
        out = [ZERO] * self.underlying.dim(k1 + k2)
        for r, x in acc.items():
            out[r] = x
        return tuple(out)

    def __eq__(self, other):
        return (
            isinstance(other, DGL)
            and self.underlying == other.underlying
            and self.cap == other.cap
            and _clean_table(self.bracket) == _clean_table(other.bracket)
        )


def _clean_table(t) -> dict:
    return {k: v for k, v in t.items() if any(v)}


def abelian_dgl(v: DG) -> DGL:
    return DGL(v, {})


ZERO_DGL = abelian_dgl(ZERO_DG)


@dataclass(frozen=True, eq=False)
class DGLMap:
    source: DGL
    target: DGL
    dgmap: DGMap


def identity_dgl_map(l: DGL) -> DGLMap:
    return DGLMap(l, l, identity_map(l.underlying))


def zero_dgl_map(a: DGL, b: DGL) -> DGLMap:
    return DGLMap(a, b, zero_map(a.underlying, b.underlying))


# -- free DGLs ----------------------------------------------------------------------


def _lie_coords(basis: FreeLieBasis, p: TensorPoly, name: str) -> dict[int, Vector]:
    """basis.coords(p), or a ValueError naming p when p is not a Lie element."""
    try:
        return basis.coords(p)
    except ValueError:
        raise ValueError(f"{name} is not a Lie element") from None


class FreeDGL:
    """Truncated free DGL: a FreeLieBasis plus a generator differential.

    The differential is stored as a tensor-algebra polynomial per generator
    and extended to monomials as a derivation.  The cap is part of the value:
    brackets and differentials landing above the cap are silently zero.
    """

    def __init__(self, basis: FreeLieBasis, gen_diff: Mapping[int, TensorPoly]):
        self.basis = basis
        self.gen_diff: dict[int, TensorPoly] = {
            i: dict(p) for i, p in gen_diff.items() if p
        }
        for i, p in self.gen_diff.items():
            if not all(0 <= g < len(basis.deg) for w in [(i,), *p] for g in w):
                raise ValueError(f"the differential of generator {i} names no generator")
            if any(basis.word_degree(w) != basis.deg[i] - 1 for w in p):
                raise ValueError(f"d({basis.gen_name[i]}) is not homogeneous of degree -1")
            _lie_coords(basis, p, f"d({basis.gen_name[i]})")
        self._dgl: Optional[DGL] = None

    @property
    def cap(self) -> int:
        return self.basis.cap

    def __eq__(self, other):
        return (
            isinstance(other, FreeDGL)
            and self.basis == other.basis
            and self.gen_diff == other.gen_diff
        )

    def linear_diff_part(self) -> dict[int, TensorPoly]:
        return {
            i: {w: c for w, c in p.items() if len(w) == 1}
            for i, p in self.gen_diff.items()
        }

    def is_truly_free(self) -> bool:
        return all(len(w) == 1 for p in self.gen_diff.values() for w in p)


class _LazyBracketTable(Mapping):
    """Structure constants of a free Lie basis, each computed on first access.

    A lookup costs one bracket_poly and one coords call, made once per key; a
    key whose bracket is zero, or that names no pair of basis monomials, is
    missing.  Iterating the table walks the candidate keys of _bracket_keys
    through the same memo, so every entry is still computed at most once.
    homotopy only needs the differential, so it never pays for any of it.
    """

    def __init__(self, basis: FreeLieBasis):
        self._basis = basis
        self._entries: dict[tuple[int, int, int, int], Optional[Vector]] = {}

    def __getitem__(self, key):
        if key not in self._entries:
            self._entries[key] = _bracket_entry(self._basis, *key)
        vec = self._entries[key]
        if vec is None:
            raise KeyError(key)
        return vec

    def __iter__(self):
        return (key for key in _bracket_keys(self._basis) if key in self)

    def __len__(self):
        return sum(1 for _ in self)


def _bracket_entry(b: FreeLieBasis, d1: int, i1: int, d2: int, i2: int) -> Optional[Vector]:
    """The coordinates of the bracket of monomial i1 of degree d1 with
    monomial i2 of degree d2; None when the bracket is zero, lands above the
    cap, or the indices name no basis monomials."""
    ms1, ms2, tgt = b.monomials.get(d1, ()), b.monomials.get(d2, ()), len(b.monomials.get(d1 + d2, ()))
    if d1 + d2 > b.cap or not tgt or not (0 <= i1 < len(ms1) and 0 <= i2 < len(ms2)):
        return None
    vec = b.coords(b.bracket_poly(b.expand(ms1[i1]), b.expand(ms2[i2]))).get(d1 + d2, zero_vec(tgt))
    return vec if any(vec) else None


def _bracket_keys(b: FreeLieBasis) -> Iterator[tuple[int, int, int, int]]:
    """Every pair of monomials whose bracket lands in a degree of the basis,
    by degrees, then by indices."""
    degs = sorted(b.monomials)
    for d1 in degs:
        for d2 in degs:
            if d1 + d2 <= b.cap and d1 + d2 in b.monomials:
                for i1 in range(len(b.monomials[d1])):
                    for i2 in range(len(b.monomials[d2])):
                        yield d1, i1, d2, i2


def to_dgl(l: FreeDGL) -> DGL:
    """Expand a truncated free DGL into an explicit structure-constant DGL."""
    if l._dgl is not None:
        return l._dgl
    b = l.basis
    dg_basis = {d: tuple(b.tree_name(t) for t in ms) for d, ms in b.monomials.items()}
    diff: dict[int, QMatrix] = {}
    for d, ms in b.monomials.items():
        tgt = len(b.monomials.get(d - 1, ()))
        if not tgt:
            continue
        cols = []
        for t in ms:
            co = b.coords(b.diff_poly(l.gen_diff, b.expand(t)))
            cols.append(co.get(d - 1, zero_vec(tgt)))
        diff[d] = QMatrix.from_columns(cols, tgt)
    out = DGL(DG(dg_basis, diff), _LazyBracketTable(b), cap=b.cap)
    l._dgl = out
    return out


class FreeDGLMap:
    """Map of free DGLs determined by generator images (Lie elements)."""

    def __init__(self, source: FreeDGL, target: FreeDGL, gen_images: Mapping[int, TensorPoly]):
        self.source = source
        self.target = target
        self.gen_images: dict[int, TensorPoly] = {
            i: dict(p) for i, p in gen_images.items() if p
        }
        self._coords: dict[int, dict[int, Vector]] = {}  # each generator image in coordinates
        for i, p in self.gen_images.items():
            _check_image(i, p, source.basis.deg, target.basis.deg)
            self._coords[i] = _lie_coords(target.basis, p, f"f({source.basis.gen_name[i]})")

    def to_dgmap(self) -> DGMap:
        """The map of expanded DGLs: each generator image in coordinates,
        bracketed with the target's structure constants."""
        degs = self.source.basis.deg
        images = {j: (degs[j], co[degs[j]]) for j, co in self._coords.items() if degs[j] in co}
        return dgl_map_from_gen_images(self.source, to_dgl(self.target), images).dgmap

    def abelianized(self) -> DGMap:
        src, tgt = abelianize(self.source), abelianize(self.target)
        degs = (self.source.basis.deg, self.target.basis.deg)
        return _generator_map(src, tgt, degs, lambda j: _letters(self.gen_images.get(j, {})))


def _letters(poly: TensorPoly) -> dict[int, Fraction]:
    """The one-letter words of a polynomial, as {generator: coefficient}."""
    return {w[0]: c for w, c in poly.items() if len(w) == 1}


def free_dgl_identity(l: FreeDGL) -> FreeDGLMap:
    return FreeDGLMap(l, l, {i: {(i,): ONE} for i in range(len(l.basis.generators))})


# -- validation ----------------------------------------------------------------------


def dgl_validate(l) -> list[str]:
    """Report every violated Lie axiom with a witness; empty iff valid.

    A FreeDGL is checked on its expansion to_dgl, as a CofreeDGC is on to_dgc.
    The report is the list of the full loops over all basis pairs and
    triples, in their order.  Leibniz says the bracket map B is a chain map,
    d B = B d; Jacobi says ad_x B = B D_x, whose column y (x) z is the triple
    (x, y, z); and a map f respects brackets when f B_S = B_T (f (x) f).  Each
    is compared column by column, one degree at a time.  Let P be the keys
    of the bracket table whose two elements are basis elements, zero values
    included; with no P on either side, no square is laid out.  Elsewhere
    both sides are zero vectors of the same length, so 0 = 0:
    - antisymmetry at pairs in P or its transpose;
    - Jacobi for x the left element of a key in P: for any other x,
      ad_x = 0 and D_x = 0.
    """
    if isinstance(l, FreeDGL):
        return dgl_validate(to_dgl(l))
    if isinstance(l, DGLMap):
        return _map_report(l)
    return _lie_report(l)


def _basis_keys(l: DGL) -> list[tuple[int, int, int, int]]:
    """The bracket-table keys whose two elements are basis elements."""
    dim = l.underlying.dim
    return [key for key in l.bracket if 0 <= key[1] < dim(key[0]) and 0 <= key[3] < dim(key[2])]


def _bracket_map(l: DGL, square) -> tuple[DGMap, dict[int, list[tuple[int, int, int, int]]]]:
    """The bracket as a degree-zero map B: L (x) L -> L, from a laid-out square of L, and the
    pair (k1, i1, k2, i2) at each column of the square."""
    (sq, index), dg = square, l.underlying
    pairs: dict[int, list] = {k: [] for k in sq.degrees()}
    for key, (k, _) in index.items():  # each degree's pairs in column order
        pairs[k].append(key)
    ent: dict[int, dict] = {k: {} for k in pairs}
    for key in _basis_keys(l):  # every value's length is checked; those below the square's top are placed
        v, k = l.bracket[key], key[0] + key[2]
        if len(v) != dg.dim(k):
            raise ValueError(f"the bracket value at {key} has length {len(v)}, not {dg.dim(k)}")
        if key in index:
            ent[k].update(((r, index[key][1]), x) for r, x in enumerate(v) if x)
    return DGMap(sq, dg, {k: QMatrix(dg.dim(k), sq.dim(k), e) for k, e in ent.items()}), pairs


def _map_report(l: DGLMap) -> list[str]:
    report = list(validate_dg(l.dgmap))
    sl, tl, f = l.source, l.target, l.dgmap
    s, t = sl.underlying, tl.underlying
    if not t.degrees() or not (_basis_keys(sl) or _basis_keys(tl)):
        return report  # both sides are 0 on every pair
    # f B_S = B_T (f (x) f) in each degree the target has, below the caps
    top = min([c for c in (sl.cap, tl.cap) if c is not None] + [max(t.degrees())])
    b_s, pairs = _bracket_map(sl, _tensor_with_index(s, s, top))
    t_square = _tensor_with_index(t, t, top)
    b_t, spans = _bracket_map(tl, t_square)[0], {k: f.block(k) for k in s.degrees()}
    bad = [pairs[k][c] for k in b_s.source.degrees() if t.dim(k) for c in _columns_apart(
        f.block(k) * b_s.block(k), b_t.block(k) * _span_square(t_square, spans, k)[1])]
    report += [f"map does not respect brackets at ({k1},{i1}),({k2},{i2})"
               for k1, i1, k2, i2 in sorted(bad, key=lambda p: (p[0], p[2], p[1], p[3]))]
    return report


def _lie_report(l: DGL) -> list[str]:
    report = list(validate_dg(l.underlying))
    dg, keys = l.underlying, _basis_keys(l)
    if not keys:
        return report
    # one square: Leibniz reads its degrees <= cut; Jacobi reads B_m for m + |x| <= top,
    # so m <= top - low, and D_x into degree m + |x| <= top
    low, top = dg.degrees()[0], dg.degrees()[-1]
    cut = top + 1 if l.cap is None else min(l.cap, top + 1)
    sq, index = square = _tensor_with_index(dg, dg, max(cut, top, top - low))
    b, pairs = _bracket_map(l, square)
    col, asym, bad = _by_column(b.blocks), set(), []
    # antisymmetry: column (x, y) of B is -(-1)^{|x||y|} times column (y, x); above the square both are 0
    for k1, i1, k2, i2 in (key for key in keys if key in index):
        yx = col.get(index[(k2, i2, k1, i1)], ())
        if dict(col.get(index[(k1, i1, k2, i2)], ())) != {r: v if k1 * k2 % 2 else -v for r, v in yx}:
            asym |= {(k1, i1, k2, i2), (k2, i2, k1, i1)}
    lines = [(pair, 0, "antisymmetry fails at ({},{}),({},{})".format(*pair)) for pair in asym]
    for k in (k for k in sq.degrees() if k <= cut):  # Leibniz: B is a chain map, d B = B d
        apart = _columns_apart(dg.d(k) * b.block(k), b.block(k - 1) * sq.d(k))
        lines += [(pairs[k][c], 1, "Leibniz fails at ({},{}),({},{})".format(*pairs[k][c])) for c in apart]
    report += [line for *_, line in sorted(lines)]  # in the dense loops' order
    # Jacobi: ad_x B_m = B_{m+|x|} D_x, with D_x(y (x) z) = [x,y] (x) z + (-1)^{|x||y|} y (x) [x,z],
    # read off B's columns; for x the left element of no key, ad_x = 0 and D_x = 0
    for a, ix in {key[:2] for key in keys}:
        for m in (m for m in sq.degrees() if dg.dim(m + a)):
            ad = {(r, j): v for j in range(dg.dim(m)) for r, v in col.get(index.get((a, ix, m, j)), ())}
            dx: dict = {}
            for c, (k2, i2, k3, i3) in enumerate(pairs[m]):
                for r, v in col.get(index.get((a, ix, k2, i2)), ()):
                    _accumulate(dx, (index[(k2 + a, r, k3, i3)][1], c), v)
                for r, v in col.get(index.get((a, ix, k3, i3)), ()):
                    _accumulate(dx, (index[(k2, i2, k3 + a, r)][1], c), -v if a * k2 % 2 else v)
            lhs = QMatrix._of(dg.dim(m + a), dg.dim(m), ad) * b.block(m)
            rhs = b.block(m + a) * QMatrix._of(sq.dim(m + a), sq.dim(m), dx)
            bad += [(a, ix, *pairs[m][c]) for c in _columns_apart(lhs, rhs)]
    jacobi = ["Jacobi fails at ({},{}),({},{}),({},{})".format(*t) for t in sorted(bad)]
    return report + jacobi[:max(1, 41 - len(report))]


def assert_valid_dgl(l, context: str = ""):
    rep = dgl_validate(l)
    if rep:
        raise AssertionError(f"invalid {type(l).__name__} {context}: " + "; ".join(rep[:4]))


# -- abelianization ----------------------------------------------------------------


def abelianize(l) -> DG:
    """(L)^ab: generators with the linear differential for free DGLs,
    quotient by the bracket image for finite DGLs."""
    if isinstance(l, FreeDGL):
        lin = l.linear_diff_part()
        return _generator_dg(l.basis.gen_name, l.basis.deg, lambda j: _letters(lin.get(j, {})))
    return abelianize_dgl(l)[0]


def abelianize_dgl(l: DGL) -> tuple[DG, DGMap]:
    """Strict quotient of a finite DGL by the span of all bracket values."""
    values: dict[int, list[Vector]] = {}
    for (k1, i1, k2, i2), v in l.bracket.items():
        if any(v):
            values.setdefault(k1 + k2, []).append(v)
    killed = {k: QMatrix.from_columns(vs, l.underlying.dim(k)) for k, vs in values.items()}
    return quotient_dg(l.underlying, killed, prefix="ab")


# -- coproducts and products ---------------------------------------------------------


def _free_sum(parts, cap: int, twist, brackets=()) -> FreeDGL:
    """The free DGL on the generators of the parts, part after part, each
    part (generators, gen_diff) with its words renumbered into the sum.  A
    twist entry (i, j, lin) then adds lin[g], a combination {generator of
    part i: coefficient}, to the differential of generator g of part j,
    entries in order; a bracket entry (x, y, g) of generators of the sum adds
    [x, y] to that of g.  The model is built once, on the whole differential."""
    gens: list[tuple[str, int]] = []
    offsets = []
    for part_gens, _ in parts:
        offsets.append(len(gens))
        gens += part_gens
    gd: dict[int, TensorPoly] = {}
    for off, (_, diff) in zip(offsets, parts):
        for g, p in diff.items():
            gd[off + g] = {tuple(off + x for x in w): c for w, c in p.items()}
    for i, j, lin in twist:
        for g, combo in lin.items():
            x = offsets[j] + g
            gd[x] = tp_add(gd.get(x, {}), {(offsets[i] + y,): c for y, c in combo.items()})
    basis = FreeLieBasis(gens, cap)
    for x, y, g in brackets:
        gd[g] = tp_add(basis.bracket_poly({(x,): ONE}, {(y,): ONE}), gd.get(g, {}))
    return FreeDGL(basis, gd)


def free_product(a: FreeDGL, b: FreeDGL) -> FreeDGL:
    """Free product: the free DGL on the disjoint union of the generators."""
    if a.cap != b.cap:
        raise ValueError("free product requires equal caps")
    names_a = {n for n, _ in a.basis.generators}
    if any(n in names_a for n, _ in b.basis.generators):
        raise ValueError("generator name collision in free product")
    return _free_sum([(a.basis.generators, a.gen_diff), (b.basis.generators, b.gen_diff)], a.cap, ())


def _moved_bracket(l: DGL, incl: DGMap) -> dict[tuple[int, int, int, int], Vector]:
    """A summand's nonzero structure constants on its basis (_basis_keys, the
    keys dgl_validate reads) carried into the sum along its inclusion: keys at
    its places (dgcore._places), values through incl."""
    at, table = _places(incl), l.bracket
    return {(k1, at[(k1, i1)], k2, at[(k2, i2)]): incl.apply(k1 + k2, table[(k1, i1, k2, i2)])
            for k1, i1, k2, i2 in _basis_keys(l) if any(table[(k1, i1, k2, i2)])}


def dgl_strict_product(a: DGL, b: DGL) -> tuple[DGL, DGLMap, DGLMap]:
    """Categorical product: degreewise product with componentwise bracket."""
    dg, inl, inr = sum_dg(a.underlying, b.underlying, tags=("p1", "p2"))
    table = {**_moved_bracket(a, inl), **_moved_bracket(b, inr)}
    caps = [c for c in (a.cap, b.cap) if c is not None]
    out = DGL(dg, table, cap=min(caps) if caps else None)
    return out, DGLMap(out, a, projection(inl)), DGLMap(out, b, projection(inr))


def dgl_product(a: FreeDGL, b: FreeDGL) -> tuple[FreeDGL, DGLMap]:
    """The free model of the product of truly free DGLs: the free DGL on
    V + W + s(V tensor W) with d(s(v|w)) = [v,w] - s(dv|w) - (-1)^{|v|}
    s(v|dw), together with the projection to the strict product
    (dgl_strict_product; a quasi-isomorphism below the cap).
    """
    if not (isinstance(a, FreeDGL) and isinstance(b, FreeDGL)):
        raise ValueError("free product model requires free inputs")
    if a.cap != b.cap:
        raise ValueError("free product model requires equal caps")
    if not (a.is_truly_free() and b.is_truly_free()):
        raise ValueError("free product model requires linear generator differentials")
    ga, gb, da, db = a.basis.gen_name, b.basis.gen_name, a.basis.deg, b.basis.deg
    if set(ga) & set(gb):
        raise ValueError("generator name collision in free product model")
    mixed = [(i, j) for i in range(len(ga)) for j in range(len(gb)) if da[i] + db[j] + 1 <= a.cap]
    at_mixed = {pair: m for m, pair in enumerate(mixed)}
    # - s(dv|w) - (-1)^{|v|} s(v|dw)
    left = {m: {at_mixed[(x[0], j)]: -c for x, c in a.gen_diff.get(i, {}).items() if (x[0], j) in at_mixed}
            for m, (i, j) in enumerate(mixed)}
    right = {m: {at_mixed[(i, x[0])]: c if da[i] % 2 else -c for x, c in b.gen_diff.get(j, {}).items()
                 if (i, x[0]) in at_mixed} for m, (i, j) in enumerate(mixed)}
    mixed_gens = [(f"s({ga[i]}|{gb[j]})", da[i] + db[j] + 1) for i, j in mixed]
    parts = [(a.basis.generators, a.gen_diff), (b.basis.generators, b.gen_diff), (mixed_gens, {})]
    brackets = [(i, len(ga) + j, len(ga) + len(gb) + m) for m, (i, j) in enumerate(mixed)]  # + [v, w]
    model_l = _free_sum(parts, a.cap, [(2, 2, left), (2, 2, right)], brackets)
    # witness: collapse onto the strict product
    # a generator's monomial leads its degree, so it sits at the generator's
    # position among those of its degree; the transpose of a projection of
    # the strict product is the inclusion of that factor
    strict, pa, pb = dgl_strict_product(to_dgl(a), to_dgl(b))
    images: dict[int, tuple[int, Vector]] = {}
    for factor, proj, off in ((a, pa, 0), (b, pb, len(ga))):  # _free_sum lays out a's generators, then b's
        incl, pos = projection(proj.dgmap), _degree_positions(factor.basis.deg)[0]
        for i, d in enumerate(factor.basis.deg):
            images[off + i] = (d, incl.block(d).column(pos[i]))
    witness = dgl_map_from_gen_images(model_l, strict, images)
    return model_l, witness


def dgl_map_from_gen_images(
    source: FreeDGL, target: DGL, images: Mapping[int, tuple[int, Vector]]
) -> DGLMap:
    """DGL map out of a free DGL into a finite DGL, by structural recursion
    on bracket monomials using the target's structure constants."""
    b = source.basis
    # the factors of a Lyndon tree and of a square are monomials of lower degree
    img: dict[Tree, tuple[int, Vector]] = {}
    src = to_dgl(source).underlying
    blocks = {}
    for d, ms in b.monomials.items():
        for t in ms:
            if isinstance(t, int):
                img[t] = images.get(t) or (d, zero_vec(target.underlying.dim(d)))
            else:
                (k1, v1), (k2, v2) = img[t[0]], img[t[1]]
                img[t] = (k1 + k2, target.bracket_vec(k1, v1, k2, v2))
        cols = [img[t][1] for t in ms]
        blocks[d] = QMatrix.from_columns(cols, target.underlying.dim(d))
    return DGLMap(to_dgl(source), target, DGMap(src, target.underlying, blocks))


# -- reduction -----------------------------------------------------------------------


def reduce_dgl(r: int, l: DGL) -> DGL:
    """r-reduction: degrees > r kept, degree r replaced by its cycles."""
    return _sub_dgl(l, reduce_with_inclusion(r, l.underlying)[1], "bracket escapes the reduction at degree {k}")


def _sub_dgl(l: DGL, incl: DGMap, error: str) -> DGL:
    """The sub-DGL of l on incl.source, for an injective chain map incl into
    l.underlying whose image is closed under the bracket.  The brackets of
    the image columns, from l.bracket_vec, are pulled back with one solve per
    degree; ValueError(error), formatted with that degree k, if one of them
    leaves the image."""
    sub = incl.source
    values: dict[int, dict[tuple[int, int, int, int], Vector]] = {}
    for k1 in sub.degrees():
        for k2 in sub.degrees():
            if sub.dim(k1 + k2):
                for i1, v1 in enumerate(incl.block(k1).columns()):
                    for i2, v2 in enumerate(incl.block(k2).columns()):
                        val = l.bracket_vec(k1, v1, k2, v2)
                        if any(val):
                            values.setdefault(k1 + k2, {})[(k1, i1, k2, i2)] = val
    table = {}
    for k, vals in values.items():
        sol = solve_matrix(incl.block(k), QMatrix.from_columns(list(vals.values()), incl.target.dim(k)))
        if sol is None:
            raise ValueError(error.format(k=k))
        table.update(zip(vals, sol.columns()))
    return DGL(sub, table, cap=l.cap)


# -- homotopy pullback ----------------------------------------------------------------


def dgl_ho_pullback(f1: DGLMap, f2: DGLMap) -> tuple[DGL, DGLMap]:
    """Path-object model (L1 x s^-1 K x L2) of the homotopy pullback of
    L1 -> K <- L2, with the half-factor mixed bracket, plus the verified
    map from the strict limit."""
    if f1.target is not f2.target and f1.target != f2.target:
        raise ValueError("pullback codomain mismatch")
    l1, l2, k = f1.source, f2.source, f1.target
    pdg, incls = _path_sum(f1.dgmap, map_scale(-1, f2.dgmap), ("l1", "k", "l2"))
    at1, atk, at2 = (_places(incl) for incl in incls)
    half = Fraction(1, 2)
    table = {**_moved_bracket(l1, incls[0]), **_moved_bracket(l2, incls[2])}  # strand brackets
    # mixed brackets with the shifted strand; a basis element of K that no
    # nonzero entry of K's table names brackets to zero with everything
    named: dict[int, set[int]] = {}
    for k1, i1, k2, i2 in _basis_keys(k):
        if any(k.bracket[(k1, i1, k2, i2)]):
            named.setdefault(k1, set()).add(i1)
            named.setdefault(k2, set()).add(i2)
    for m in pdg.degrees():
        nk = k.underlying.dim(m + 1)
        if not named.get(m + 1):
            continue
        for li, fi, at in ((l1, f1, at1), (l2, f2, at2)):
            for n in li.underlying.degrees():
                if not pdg.dim(m + n):
                    continue
                images = fi.dgmap.block(n).columns()
                for a in sorted(named[m + 1]):
                    ek, pos = _unit_vec(nk, a), atk[(m, a)]
                    for j, fl in enumerate(images):
                        val = k.bracket_vec(m + 1, ek, n, fl)
                        if any(val):
                            table[(m, pos, n, at[(n, j)])] = incls[1].apply(m + n, vec_scale(half, val))
                        val2 = k.bracket_vec(n, fl, m + 1, ek)
                        if any(val2):
                            sgn = -half if n % 2 else half
                            table[(n, at[(n, j)], m, pos)] = incls[1].apply(m + n, vec_scale(sgn, val2))
    caps = [c for c in (l1.cap, l2.cap) if c is not None]
    if k.cap is not None:
        caps.append(k.cap - 1)  # the shifted strand loses one degree of bracket data
    p = DGL(pdg, table, cap=min(caps) if caps else None)
    # strict limit {(x1, x2) : f1(x1) = f2(x2)}, a sub-DGL of l1 x l2, and its map into the model
    lim_dg, pu, pw = strict_pullback(f1.dgmap, map_scale(-1, f2.dgmap))
    prod = dgl_strict_product(l1, l2)[0]
    into = DGMap(lim_dg, prod.underlying, {kk: QMatrix.vstack([pu.block(kk), pw.block(kk)]) for kk in lim_dg.degrees()})
    if any(map(any, prod.bracket.values())):
        lim = _sub_dgl(prod, into, "strict limit is not closed under brackets")
    else:  # an abelian product has no bracket to pull back
        lim = DGL(lim_dg, {}, cap=prod.cap)
    witness = DGLMap(lim, p, map_add(compose(incls[0], pu), compose(incls[2], pw)))
    assert_valid(witness.dgmap, "strict limit into the pullback model")
    return p, witness


def dgl_hofib(f: DGLMap) -> DGL:
    """Homotopy fiber: the pullback model of L -> K <- 0."""
    return dgl_ho_pullback(f, zero_dgl_map(ZERO_DGL, f.target))[0]


# -- free cones, suspensions, cylinders ----------------------------------------------


def free_suspension(l: FreeDGL) -> FreeDGL:
    """The truly free DGL on s of the generating DG: the linear part of d, suspended."""
    b = l.basis
    minus_lin = {i: {w: -c for w, c in p.items()} for i, p in l.linear_diff_part().items()}
    return _free_sum([(_shifted(b, "s"), minus_lin)], b.cap + 1, ())


def free_cone(l: FreeDGL) -> FreeDGL:
    """Free DGL on V + sV with d(sv) = -s dv + v (contractible); d on V must be linear."""
    b, bad = l.basis, _nonlinear_generator(l)
    if bad is not None:
        raise ValueError(f"cone requires a linear generator differential; d({bad}) has higher brackets")
    ident = {i: {i: ONE} for i in range(len(b.generators))}
    parts = [(b.generators, l.gen_diff), (_shifted(b, "s"), {})]
    return _free_sum(parts, b.cap + 1, [(0, 1, ident), (1, 1, _minus_d(l))])


def free_big_suspension(l: FreeDGL) -> FreeDGL:
    """The three-strand model sV + V + sV, each strand sV coned onto V as in free_cone."""
    b, bad = l.basis, _nonlinear_generator(l)
    if bad is not None:
        raise ValueError(f"bigS requires a linear generator differential; d({bad}) has higher brackets")
    ident, minus_d = {i: {i: ONE} for i in range(len(b.generators))}, _minus_d(l)
    parts = [(_shifted(b, "sl"), {}), (b.generators, l.gen_diff), (_shifted(b, "sr"), {})]
    return _free_sum(parts, b.cap + 1, [(1, 0, ident), (0, 0, minus_d), (1, 2, ident), (2, 2, minus_d)])


def _shifted(b: FreeLieBasis, tag: str) -> list[tuple[str, int]]:
    return [(f"{tag}({nm})", d + 1) for nm, d in b.generators]


def _nonlinear_generator(l: FreeDGL) -> Optional[str]:
    """The first generator whose differential has brackets, if any."""
    return next((l.basis.gen_name[i] for i, p in l.gen_diff.items() if any(len(w) > 1 for w in p)), None)


def _minus_d(l: FreeDGL) -> dict[int, dict[int, Fraction]]:
    """-s dv on the suspended generators: the linear part of d, negated."""
    return {i: {w[0]: -c for w, c in p.items()} for i, p in l.linear_diff_part().items()}


def free_cylinder(f: FreeDGLMap, g: FreeDGLMap) -> FreeDGL:
    """Two-sided mapping cylinder of U <- V -> W for freely generated maps:
    the free DGL on U + sV + W with d(sv) = -s dv + f(v) + g(v)."""
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
    nu, nv = len(u.basis.generators), len(v.basis.generators)
    parts = [
        ([(f"u({nm})", d) for nm, d in u.basis.generators], u.gen_diff),
        (_shifted(v.basis, "s"), {}),
        ([(f"w({nm})", d) for nm, d in w.basis.generators], w.gen_diff),
    ]
    f_of, g_of = ({i: _letters(m.gen_images.get(i, {})) for i in range(nv)} for m in (f, g))
    out = _free_sum(parts, v.cap + 1, [(1, 1, _minus_d(v)), (0, 1, f_of), (2, 1, g_of)])
    dg, degs, pos = to_dgl(out).underlying, out.basis.deg, _degree_positions(out.basis.deg)[0]
    dd = {k: dg.d(k - 1) * dg.d(k) for k in set(degs[nu:nu + nv])}  # d^2 on the expansion, one product per degree
    for x in range(nu, nu + nv):  # read at each middle generator's monomial
        if any(dd[degs[x]].column(pos[x])):
            raise ValueError(
                "cylinder differential does not square to zero at generator "
                f"{out.basis.gen_name[x]}: the middle object needs a linear "
                "generator differential"
            )
    return out


# -- Hurewicz ---------------------------------------------------------------------------


def hurewicz_check(f) -> tuple[bool, bool]:
    """(quasi_iso, ab_quasi_iso), both computed through the cap-exact window.

    For maps of free DGLs the two flags agree (the rational Hurewicz
    theorem); the finite-DGL path exists to exhibit non-free failures."""
    if isinstance(f, FreeDGLMap):
        if f.source.cap != f.target.cap:
            raise ValueError("hurewicz check requires equal caps")
        window = f.source.cap - 1
        q = is_quasi_iso_through(f.to_dgmap(), window)
        ab = is_quasi_iso_through(f.abelianized(), window)
        return q, ab
    q = is_quasi_iso(f.dgmap)
    ab_s, proj_s = abelianize_dgl(f.source)
    ab_t, proj_t = abelianize_dgl(f.target)
    blocks = {}
    for m in ab_s.degrees():
        rhs = proj_t.block(m) * f.dgmap.block(m)
        sol = _solve_right(proj_s.block(m), rhs)
        if sol is None:
            raise ValueError("map does not descend to abelianizations")
        blocks[m] = sol
    ab_map = DGMap(ab_s, ab_t, blocks)
    assert_valid(ab_map, "abelianized map")
    return q, is_quasi_iso(ab_map)


def _solve_right(p: QMatrix, rhs: QMatrix) -> Optional[QMatrix]:
    """Solve X p = rhs for X given surjective p (via transposes)."""
    sol = solve_matrix(p.transpose(), rhs.transpose())
    if sol is None:
        return None
    x = sol.transpose()
    if x * p != rhs:
        return None
    return x
