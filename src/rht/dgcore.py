"""Differential graded vector spaces over Q.

A DG stores an ordered named basis per integer degree and the degree -1
differential as one matrix per degree.  Everything downstream (Lie algebras,
coalgebras, towers) reduces to these objects, so the sign bookkeeping here is
machine-checked by validate_dg rather than trusted.

sum_many is the one builder for "a direct sum plus an extra differential": the
cone, path, suspension, loop, fiber, cofiber, pullback, pushout and telescope
models are all sums of shifted copies with a twist between the summands.  A
twist entry (i, j, blocks) adds blocks[k], a map from part j in degree k to
part i in degree k - 1.  Maps into or out of a sum are built from its
inclusions and their transposes (projection).  The total of an n-cube
(ho_cube) has the same shape, one strand per subset t, in (|t|, sorted t)
order, the object at t shifted by its vertical degree, with the signed edge
maps between the strands; _cube_sum lays it out directly from each strand's
offset in each degree, with no strand DG and no inclusion.

A quasi-isomorphism is read off its cone: f is one exactly when ho_cofiber(f)
is acyclic, one rank pass of homology_dims; is_quasi_iso_through adds the two
H_top dims that the cone cannot see.

Basis positions are data.  The builder that lays out a basis is the only code
that knows where things sit; callers read positions off the inclusions of a
sum (_places), the places of a cube total's strands that _cube_sum returns,
the index that _tensor_with_index fills while it lays out a tensor product
(_placed, _span_square and _columns_apart read a square for dgc and dgl), or
the generator position table of _degree_positions, and never format a basis
name to look it up again.  _restrict keeps the basis elements at given
positions with d's entries among them; every stage and layer of a filtered
DG (calculus.Tower) is cut out of its last stage that way.  The generator table
(_first_generators, _generator_table) is the one place where a DG's basis
becomes a generator list: every free and cofree presentation of a DG (cec_C,
cobar_L, cofree_lambda, cofree_path, the free Lie and Lambda functors) reads
its generators and their linear parts from it, and _generator_dg and
_generator_map turn such a table back into the DG and the map.

Spans are matrices.  A subspace travels from its elimination to the sub-object
built on it as the columns of one QMatrix: kernel_basis returns a kernel that
way, and sub_dg takes one such matrix per degree as the inclusion's block.

Face and Sigma_n checks compare two composites of maps (_same_composite).  In
a degree where every block is signed monomial, each column holding at most
one entry and that entry the shared 1 or -1, as in coproduct cubes, test
cubes and cross-effect actions, each block is read once into a signed column
array and the composites are composed and compared as arrays, with no entry
summed.  In any other degree, such as that of Lie(n)'s last swap, they are
compared as QMatrix products.

The chain-map check of a map a of a DG to itself whose every block is a
signed permutation, a e_c = s_c e_pi(c) (cross-effect actions, factor
swaps), tests d[pi r, pi c] = s_r s_c d[r, c] at each nonzero entry of d: as
(r, c) -> (pi r, pi c) permutes positions, that is d a = a d, and d, which
need not be signed monomial, is read once with no product.  On a mismatch,
or for any other map, validate_dg compares the two products, so every
report line is the product loop's.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from itertools import accumulate
from typing import Callable, Mapping, Optional, Sequence

from .exactq import (
    ONE,
    ZERO,
    QMatrix,
    Vector,
    _frac,
    _kernel_from_rref,
    _moved,
    _negated,
    _signed_column_array,
    _signed_permutation,
    image_pivot_columns,
    kernel_basis,
    rref,
    rref_from,
    solve_matrix,
)


def _clean_basis(basis: dict) -> dict[int, tuple[str, ...]]:
    return {k: tuple(v) for k, v in sorted(basis.items()) if len(v) > 0}


@dataclass(frozen=True)
class DG:
    basis: dict[int, tuple[str, ...]]
    diff: dict[int, QMatrix] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "basis", _clean_basis(self.basis))
        clean = {}
        for k, m in self.diff.items():
            if m.rows != self.dim(k - 1) or m.cols != self.dim(k):
                raise ValueError(f"differential shape mismatch at degree {k}")
            if not m.is_zero():
                clean[k] = m
        object.__setattr__(self, "diff", clean)

    def dim(self, k: int) -> int:
        return len(self.basis.get(k, ()))

    def degrees(self) -> list[int]:
        return sorted(self.basis)

    def d(self, k: int) -> QMatrix:
        m = self.diff.get(k)
        if m is None:
            return QMatrix.zero(self.dim(k - 1), self.dim(k))
        return m

    def total_dim(self) -> int:
        return sum(len(v) for v in self.basis.values())

    def is_trivial(self) -> bool:
        return not self.basis

    def __eq__(self, other):
        return other is self or (
            isinstance(other, DG)
            and self.basis == other.basis
            and all(self.d(k) == other.d(k) for k in set(self.diff) | set(other.diff))
        )


ZERO_DG = DG({})
ONE_DG = DG({0: ("1",)})


@dataclass(frozen=True)
class DGMap:
    source: DG
    target: DG
    blocks: dict[int, QMatrix] = field(default_factory=dict)
    # validate_dg's report on this map, kept on first request
    _report: Optional[tuple[str, ...]] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        clean = {}
        for k, m in self.blocks.items():
            if m.rows != self.target.dim(k) or m.cols != self.source.dim(k):
                raise ValueError(f"map block shape mismatch at degree {k}")
            if not m.is_zero():
                clean[k] = m
        object.__setattr__(self, "blocks", clean)

    def block(self, k: int) -> QMatrix:
        m = self.blocks.get(k)
        if m is None:
            return QMatrix.zero(self.target.dim(k), self.source.dim(k))
        return m

    def apply(self, k: int, v: Vector) -> Vector:
        return self.block(k).apply(v)

    def is_zero(self) -> bool:
        return not self.blocks

    def __eq__(self, other):
        return (
            isinstance(other, DGMap)
            and self.source == other.source
            and self.target == other.target
            and all(self.block(k) == other.block(k) for k in set(self.blocks) | set(other.blocks))
        )


def identity_map(v: DG) -> DGMap:
    return DGMap(v, v, {k: QMatrix.identity(v.dim(k)) for k in v.degrees()})


def zero_map(v: DG, w: DG) -> DGMap:
    return DGMap(v, w, {})


def compose(g: DGMap, f: DGMap) -> DGMap:
    """g after f."""
    if f.target != g.source:
        raise ValueError("composition mismatch")
    blocks = {}
    for k in f.blocks:
        blocks[k] = g.block(k) * f.block(k)
    return DGMap(f.source, g.target, blocks)


def _same_composite(first: Sequence[DGMap], second: Sequence[DGMap], memo: dict) -> bool:
    """Whether two paths of maps, each listed in the order its maps apply,
    compose to equal DGMaps, as compose and == decide; a path whose maps do
    not meet raises compose's ValueError.  In a degree where every block of
    both paths is signed monomial, the composites are signed column arrays
    (exactq._signed_column_array), composed by indexing with no entry summed;
    in any other degree they are QMatrix products.  memo, one per check,
    keeps each block's array by the block's id, with the block, so maps that
    share a block read it once, and each verdict by the two paths' ids."""
    key = (tuple(map(id, first)), tuple(map(id, second)))
    if key in memo:
        return memo[key]
    for f, g in [*zip(first, first[1:]), *zip(second, second[1:])]:
        if f.target != g.source:
            raise ValueError("composition mismatch")
    same = first[0].source == second[0].source and first[-1].target == second[-1].target
    maps = (*first, *second)
    for k in set(first[0].blocks) | set(second[0].blocks) if same else ():
        arrays = []
        for m in maps:
            b = m.block(k)
            if id(b) not in memo:
                memo[id(b)] = (b, _signed_column_array(b))
            arrays.append(memo[id(b)][1])
        if None not in arrays:
            step = lambda out, then: [x and (then[x - 1] if x > 0 else -then[-x - 1]) for x in out]
            one, two = reduce(step, arrays[: len(first)]), reduce(step, arrays[len(first) :])
        else:
            one, two = (reduce(lambda out, m: m.block(k) * out, path[1:], path[0].block(k)) for path in (first, second))
        if one != two:
            same = False
            break
    memo[key] = same
    return same


def map_add(f: DGMap, g: DGMap) -> DGMap:
    if f.source != g.source or f.target != g.target:
        raise ValueError("map sum mismatch")
    ks = set(f.blocks) | set(g.blocks)
    return DGMap(f.source, f.target, {k: f.block(k) + g.block(k) for k in ks})


def map_scale(c, f: DGMap) -> DGMap:
    return DGMap(f.source, f.target, {k: m.scale(c) for k, m in f.blocks.items()})


def _degree_positions(degs: Sequence[int]) -> tuple[list[int], dict[int, list[int]]]:
    """Each generator's position among those of its degree, and the
    generators of each degree in order: the basis of the generator DG."""
    pos: list[int] = []
    by_deg: dict[int, list[int]] = {}
    for i, d in enumerate(degs):
        gens = by_deg.setdefault(d, [])
        pos.append(len(gens))
        gens.append(i)
    return pos, by_deg


Combination = Callable[[int], Mapping[int, Fraction]]  # generator -> {generator: coefficient}


def _generator_dg(names: Sequence[str], degs: Sequence[int], d_of: Combination) -> DG:
    """The DG on generators of the given names and degrees, with d(j) =
    d_of(j), a combination {generator: coefficient} one degree lower."""
    pos, gens = _degree_positions(degs)
    diff = {
        d: QMatrix(len(gens[d - 1]), len(idx), {(pos[h], pos[j]): c for j in idx for h, c in d_of(j).items()})
        for d, idx in gens.items()
        if d - 1 in gens
    }
    return DG({d: tuple(names[j] for j in idx) for d, idx in gens.items()}, diff)


def _generator_map(
    source: DG, target: DG, degs: tuple[Sequence[int], Sequence[int]], image_of: Combination
) -> DGMap:
    """The map of generator DGs (with generator degrees degs) sending
    generator j to image_of(j), a combination {generator: coefficient}."""
    (spos, sgens), tpos = _degree_positions(degs[0]), _degree_positions(degs[1])[0]
    blocks = {}
    for d, idx in sgens.items():
        ent = {(tpos[h], spos[j]): c for j in idx for h, c in image_of(j).items()}
        blocks[d] = QMatrix(target.dim(d), len(idx), ent)
    return DGMap(source, target, blocks)


def _first_generators(v: DG) -> dict[int, int]:
    """The generator number of each degree's first basis element: a DG's
    basis, taken degree by degree, is generators 0, 1, 2, ..."""
    return dict(zip(v.basis, accumulate(map(len, v.basis.values()), initial=0)))


def _generator_table(
    source: DG, target: DG, blocks: Mapping[int, QMatrix], step: int
) -> dict[int, dict[int, Fraction]]:
    """Blocks from degree k of source to degree k - step of target (a
    differential: step 1; a map's blocks: step 0) as {generator: {generator:
    coefficient}}, read off their nonzero entries.  _generator_dg and
    _generator_map give the DG and the map back."""
    cols, rows = _first_generators(source), _first_generators(target)
    table: dict[int, dict[int, Fraction]] = {}
    for k, m in blocks.items():
        for (r, c), x in m.entries.items():
            table.setdefault(cols[k] + c, {})[rows[k - step] + r] = x
    return table


def _generator_list(generators, floor: int, cap: int) -> tuple[tuple, tuple, tuple, dict[str, int]]:
    """A free or cofree presentation's (name, degree) list, its degrees, names
    and name index; the names distinct, each degree >= floor and <= cap."""
    gens = tuple((str(n), int(d)) for n, d in generators)
    names = tuple(n for n, _ in gens)
    if len(set(names)) != len(names):
        raise ValueError("duplicate generator names")
    for n, d in gens:
        if d < floor:
            raise ValueError(f"generator {n!r} has degree {d} < {floor}")
    if gens and cap < max(d for _, d in gens):
        raise ValueError("cap below a generator degree")
    return gens, tuple(d for _, d in gens), names, {n: i for i, n in enumerate(names)}


def _check_image(i: int, words, source_degs: Sequence[int], target_degs: Sequence[int]) -> None:
    """Check generator i's image under a map of free or cofree presentations:
    its words name target generators and have generator i's degree."""
    if not (0 <= i < len(source_degs) and all(0 <= g < len(target_degs) for w in words for g in w)):
        raise ValueError(f"the image of generator {i} names no generator")
    if any(sum(target_degs[g] for g in w) != source_degs[i] for w in words):
        raise ValueError("generator assignment is not degree 0")


# -- validation ---------------------------------------------------------------


def validate_dg(x) -> list[str]:
    """Report every violated invariant; empty list iff valid.

    A map is checked once: its report is kept on the (frozen) map, so the
    check a builder makes and the one a caller makes next share the work.
    """
    report: list[str] = []
    if isinstance(x, DG):
        for k in sorted(set(x.diff) | {d + 1 for d in x.diff}):
            comp = x.d(k - 1) * x.d(k)
            if not comp.is_zero():
                (r, c), v = sorted(comp.entries.items())[0]
                report.append(f"d^2 != 0 from degree {k}: entry ({r},{c}) = {v}")
        return report
    if isinstance(x, DGMap):
        if x._report is None:
            degrees = set(x.blocks) | set(x.source.diff) | set(x.target.diff)
            for k in [] if _commutes_by_conjugation(x) else sorted(degrees):
                lhs = x.target.d(k) * x.block(k)
                rhs = x.block(k - 1) * x.source.d(k)
                if lhs != rhs:
                    diffm = lhs - rhs
                    (r, c), v = sorted(diffm.entries.items())[0]
                    report.append(f"map does not commute with d at degree {k}: entry ({r},{c}) = {v}")
            object.__setattr__(x, "_report", tuple(report))
        return list(x._report)
    raise TypeError(f"cannot validate {type(x)!r}")


def _commutes_by_conjugation(a: DGMap) -> bool:
    """Whether a, a map of a DG to itself whose every block is a signed
    permutation (a e_c = s_c e_pi(c)), commutes with d: whether d[pi r, pi c]
    = s_r s_c d[r, c] at every nonzero entry of d.  That is d a = a d, as
    (r, c) -> (pi r, pi c) is a bijection of positions, so the nonzero
    entries going to nonzero entries leaves the zeros to zeros.  False for
    any other map too; validate_dg then multiplies."""
    v = a.source
    if a.target is not v:
        return False
    perm = {k: _signed_permutation(a.blocks[k]) if k in a.blocks else None for k in v.basis}
    if None in perm.values():
        return False
    for k, m in v.diff.items():
        rows, cols, ent = perm[k - 1], perm[k], m.entries
        for (r, c), x in ent.items():
            pr, pc = rows[r], cols[c]
            # (pr ^ pc) < 0: exactly one of s_r, s_c is -1
            y, want = ent.get((abs(pr) - 1, abs(pc) - 1)), _negated(x) if (pr ^ pc) < 0 else x
            if y is not want and y != want:
                return False
    return True


def assert_valid(x, context: str = ""):
    rep = validate_dg(x)
    if rep:
        raise AssertionError(f"invalid {type(x).__name__} {context}: " + "; ".join(rep[:4]))


# -- homology -----------------------------------------------------------------


def homology(v: DG) -> tuple[dict[int, int], dict[int, list[Vector]]]:
    """Homology dimensions and representative cycles per degree.

    The cycles z_j come from one rref of d_k, one per free column f_j, and a
    cycle's coordinates in that basis are its entries at the f_j.  z_j is kept
    iff it is independent of the boundaries and z_0..z_{j-1}, that is iff no
    boundary's coordinates end at j: with the coordinate order reversed, iff j
    is not a pivot of the boundaries' rref.
    """
    dims: dict[int, int] = {}
    reps: dict[int, list[Vector]] = {}
    for k in v.degrees():
        red, pivots = rref(v.d(k))
        cycles = _kernel_from_rref(red, pivots)
        z, pivot_set = cycles.cols, set(pivots)
        free = [f for f in range(v.dim(k)) if f not in pivot_set]
        reversed_at = {f: z - 1 - j for j, f in enumerate(free)}
        dkp1 = v.d(k + 1)
        bnd = QMatrix(dkp1.cols, z, {(c, reversed_at[r]): x for (r, c), x in dkp1.entries.items() if r in reversed_at})
        ends = {z - 1 - p for p in image_pivot_columns(bnd)}
        chosen = [cycles.column(j) for j in range(z) if j not in ends]
        if chosen:
            dims[k] = len(chosen)
            reps[k] = chosen
    return dims, reps


def homology_dims(v: DG) -> dict[int, int]:
    """dim H_k = dim V_k - rank d_k - rank d_{k+1}, one rank per nonzero d,
    by increasing k, each on d_k's rows at d_{k-1}'s non-pivot columns only.
    im d_k lies in ker d_{k-1}, whose vectors are determined by those free
    coordinates, so the rows dropped change neither the rank nor the pivots."""
    pivots: dict[int, list[int]] = {}
    for k, m in sorted(v.diff.items()):
        below = set(pivots.get(k - 1, ()))
        if below:
            free = {r: i for i, r in enumerate(r for r in range(m.rows) if r not in below)}
            m = QMatrix._of(len(free), m.cols, {(free[r], c): x for (r, c), x in m.entries.items() if r in free})
        pivots[k] = image_pivot_columns(m)
    ranks = {k: len(p) for k, p in pivots.items()}
    dims = {k: v.dim(k) - ranks.get(k, 0) - ranks.get(k + 1, 0) for k in v.degrees()}
    return {k: h for k, h in dims.items() if h}


def is_contractible(v: DG) -> bool:
    return not homology_dims(v)


def is_quasi_iso(f: DGMap) -> bool:
    """f: V -> W is a quasi-isomorphism iff its cone C(f) (ho_cofiber) is
    acyclic.  In the long exact sequence
    ... -> H_k V -> H_k W -> H_k C(f) -> H_{k-1} V -> H_{k-1} W -> ...
    H_k C(f) = 0 says exactly that H_k(f) is onto and H_{k-1}(f) one-to-one."""
    return is_contractible(ho_cofiber(f))


def is_quasi_iso_through(f: DGMap, top: int) -> bool:
    """H_k(f) is an isomorphism for every k <= top.  A degree-truncated object
    misses the boundaries from above its cap, so stop one degree below it.

    By the cone's long exact sequence, H_k C(f) = 0 for k <= top makes H_k(f)
    onto for k <= top and one-to-one for k < top; at top, onto between equal
    finite dims is one-to-one.  The cone alone cannot tell a kernel of H_top(f)
    from a cokernel of H_{top+1}(f): both are a class of H_{top+1} C(f)."""
    cone = homology_dims(ho_cofiber(f))
    return all(k > top for k in cone) and homology_dims(f.source).get(top, 0) == homology_dims(f.target).get(top, 0)


# -- basic constructions --------------------------------------------------------


def sum_dg(a: DG, b: DG, tags=("inl", "inr")) -> tuple[DG, DGMap, DGMap]:
    """Direct sum with the two inclusions."""
    out, (inl, inr) = sum_many([a, b], tags)
    return out, inl, inr


def sum_many(
    parts: Sequence[DG], tags: Optional[Sequence[str]] = None, twist: Sequence[tuple[int, int, dict]] = ()
) -> tuple[DG, list[DGMap]]:
    """Direct sum of the parts plus a twist differential, with the inclusions.

    Part i's basis names are tags[i](x), or bare x when tags[i] is empty.  A
    twist entry (i, j, blocks) adds blocks[k], a map from part j in degree k
    to part i in degree k - 1, to the block-diagonal differential.  The
    parts' differentials are copied; twist entries that overlap are summed.
    """
    if tags is None:
        tags = [f"i{i}" for i in range(len(parts))]
    degrees = sorted({k for p in parts for k in p.basis})
    off = {k: list(accumulate((p.dim(k) for p in parts), initial=0)) for k in degrees}
    basis = {
        k: tuple(f"{tag}({x})" if tag else x for p, tag in zip(parts, tags) for x in p.basis.get(k, ()))
        for k in degrees
    }
    entries: dict[int, dict[tuple[int, int], Fraction]] = {}
    for i, p in enumerate(parts):  # diagonal blocks: no two parts share a place
        for k, m in p.diff.items():
            r0, c0 = off[k - 1][i], off[k][i]
            entries.setdefault(k, {}).update({(r0 + r, c0 + c): x for (r, c), x in m.entries.items()})
    for i, j, blocks in twist:
        for k, m in blocks.items():
            if (m.rows, m.cols) != (parts[i].dim(k - 1), parts[j].dim(k)):
                raise ValueError(f"twist block shape mismatch at degree {k}")
            if m.entries:
                r0, c0, ent = off[k - 1][i], off[k][j], entries.setdefault(k, {})
                for (r, c), x in m.entries.items():
                    key = (r0 + r, c0 + c)
                    total = x if (old := ent.get(key)) is None else old + x
                    if total:
                        ent[key] = total
                    else:  # only a sum vanishes, and its key is there
                        del ent[key]
    out = DG(basis, {k: QMatrix._of(len(basis[k - 1]), len(basis[k]), ent) for k, ent in entries.items()})
    incls = [
        DGMap(p, out, {k: QMatrix._of(out.dim(k), p.dim(k), {(off[k][i] + r, r): ONE for r in range(p.dim(k))})
                       for k in p.degrees()})
        for i, p in enumerate(parts)
    ]
    return out, incls


def projection(incl: DGMap) -> DGMap:
    """The projection onto a summand: the transpose of its inclusion."""
    return DGMap(incl.target, incl.source, {k: m.transpose() for k, m in incl.blocks.items()})


def _places(incl: DGMap) -> dict[tuple[int, int], int]:
    """(degree, index in a summand) -> index in the sum, read off its inclusion."""
    return {(k, c): r for k, m in incl.blocks.items() for r, c in m.entries}


def tensor_dg(a: DG, b: DG) -> DG:
    """Tensor product with the Koszul-signed differential."""
    return _tensor_with_index(a, b)[0]


def _tensor_with_index(
    a: DG, b: DG, top: Optional[int] = None
) -> tuple[DG, dict[tuple[int, int, int, int], tuple[int, int]]]:
    """tensor_dg and the place of each pure tensor: (i, p, j, q) -> (i + j, position).

    With a top degree, only the degrees <= top are laid out: a subcomplex, as
    d lowers degree, and each degree's positions are those of the whole
    tensor, which walks the pairs (i, j) of one degree in the same order."""
    index: dict[tuple[int, int, int, int], tuple[int, int]] = {}
    names: dict[int, list[str]] = {}
    for i in a.degrees():
        for j in b.degrees():
            if top is not None and i + j > top:
                break
            lst = names.setdefault(i + j, [])
            for p, x in enumerate(a.basis[i]):
                for q, y in enumerate(b.basis[j]):
                    index[(i, p, j, q)] = (i + j, len(lst))
                    lst.append(f"({x}⊗{y})")
    da, db = _by_column(a.diff), _by_column(b.diff)
    ent: dict[int, dict[tuple[int, int], Fraction]] = {}
    for (i, p, j, q), (n, col) in index.items():
        e = ent.setdefault(n, {})
        for r, x in da.get((i, p), ()):
            e[(index[(i - 1, r, j, q)][1], col)] = x
        sign = -ONE if i % 2 else ONE
        for r, x in db.get((j, q), ()):
            e[(index[(i, p, j - 1, r)][1], col)] = sign * x
    diff = {n: QMatrix(len(names[n - 1]), len(names[n]), e) for n, e in ent.items() if e}
    return DG({n: tuple(lst) for n, lst in names.items()}, diff), index


def _by_column(blocks: Mapping[int, QMatrix]) -> dict[tuple[int, int], list[tuple[int, Fraction]]]:
    """(degree, column) -> the nonzero (row, entry) of that column of a block
    (of a differential or of a map)."""
    cols: dict[tuple[int, int], list[tuple[int, Fraction]]] = {}
    for k, m in blocks.items():
        for (r, c), x in m.entries.items():
            cols.setdefault((k, c), []).append((r, x))
    return cols


def _accumulate(out: dict, key, value: Fraction) -> None:
    """out[key] += value, dropping the key when the sum is zero."""
    s = out.get(key, ZERO) + value
    if s:
        out[key] = s
    else:
        out.pop(key, None)


def _placed(square, table, cols: Mapping[int, int], f=None) -> dict[int, QMatrix]:
    """A pair table pushed along f (a map's blocks) into a laid-out square: at each degree k
    of cols, cols[k] columns, column i the sum of c (f a) (x) (f b) over the entries ((a, b), c)
    of table[(k, i)].  Without f the entries go in as the table stores them, with no arithmetic."""
    index, ent, fc = square[1], {k: {} for k in cols}, None if f is None else _by_column(f)
    for (k, i), t in table.items():
        e = ent[k]
        for ((k1, i1), (k2, i2)), val in t.items():
            if fc is None:
                e[(index[(k1, i1, k2, i2)][1], i)] = val
                continue
            for r, x in fc.get((k1, i1), ()):
                for s, y in fc.get((k2, i2), ()):
                    _accumulate(e, (index[(k1, r, k2, s)][1], i), val * x * y)
    return {k: QMatrix._of(square[0].dim(k), n, ent[k]) for k, n in cols.items()}


def _span_square(square, spans: Mapping[int, QMatrix], k: int) -> tuple[list[tuple[tuple[int, int], tuple[int, int]]], QMatrix]:
    """Span (x) span in degree k, placed in V (x) V, and its pairs of span columns in tensor order."""
    pairs = [((i, p), (k - i, q)) for i, m in sorted(spans.items()) if k - i in spans
             for p in range(m.cols) for q in range(spans[k - i].cols)]
    return pairs, _placed(square, {(k, n): {pair: ONE} for n, pair in enumerate(pairs)}, {k: len(pairs)}, spans)[k]


def _columns_apart(a: QMatrix, b: QMatrix) -> set[int]:
    """The columns where two matrices differ, compared entry by entry."""
    ea, eb = a.entries, b.entries
    return {c for r, c in ea.keys() | eb.keys() if ea.get((r, c)) != eb.get((r, c))}


def tensor_map(f: DGMap, g: DGMap) -> DGMap:
    """f (x) g for degree-zero chain maps (no Koszul signs arise).  Each entry
    is built by _frac, so a product of +-1s is the shared ONE or -ONE."""
    src, si = _tensor_with_index(f.source, g.source)
    tgt, ti = _tensor_with_index(f.target, g.target)
    fc, gc = _by_column(f.blocks), _by_column(g.blocks)
    ent: dict[int, dict] = {}
    for (i, p, j, q), (n, col) in si.items():
        # each pure tensor of the target is hit once per source column
        for r, v1 in fc.get((i, p), ()):
            for s, v2 in gc.get((j, q), ()):
                v = _frac(v1.numerator * v2.numerator, v1.denominator * v2.denominator)
                ent.setdefault(n, {})[(ti[(i, r, j, s)][1], col)] = v
    blocks = {n: QMatrix(tgt.dim(n), src.dim(n), e) for n, e in ent.items()}
    return DGMap(src, tgt, blocks)


def shift(v: DG, n: int, tag: Optional[str] = None) -> DG:
    """s^n V: degree shift by n with differential scaled by (-1)^n."""
    if tag is None:
        tag = "s" * n if n >= 0 else "si" * (-n)
    basis = {k + n: tuple(f"{tag}({x})" if tag else x for x in names) for k, names in v.basis.items()}
    sign = -ONE if n % 2 else ONE
    diff = {k + n: m.scale(sign) for k, m in v.diff.items()}
    return DG(basis, diff)


# -- cells ---------------------------------------------------------------------


def cone_dg(v: DG) -> tuple[DG, DGMap]:
    """cV = (V + sV, d(sv) = -s dv + v), with the inclusion V -> cV."""
    sv = shift(v, 1)
    out, (incl, _) = sum_many([v, sv], ["", ""], [(0, 1, identity_map(sv).blocks)])
    return out, incl


def paths_dg(v: DG) -> tuple[DG, DGMap]:
    """pV = (V + s^-1 V, d(v) = dv + s^-1 v), with the surjection pV -> V."""
    out, (incl, _) = sum_many([v, shift(v, -1)], ["", ""], [(1, 0, identity_map(v).blocks)])
    return out, projection(incl)


def big_suspension(v: DG) -> tuple[DG, DGMap, DGMap]:
    """Larger suspension model sV + V + sV with d(sv1+v2+sv3) adding v1+v3
    into the middle strand; returns the two strand projections to sV."""
    sv = shift(v, 1)
    ones = identity_map(sv).blocks
    out, (left, _, right) = sum_many([sv, v, sv], ["l", "m", "r"], [(1, 0, ones), (1, 2, ones)])
    return out, projection(left), projection(right)


def big_loops(v: DG) -> tuple[DG, DGMap, DGMap]:
    """Larger loops model s^-1 V x V x s^-1 V; returns the two inclusions of s^-1 V."""
    siv, ones = shift(v, -1), identity_map(v).blocks
    out, (left, _, right) = sum_many([siv, v, siv], ["l", "m", "r"], [(0, 1, ones), (2, 1, ones)])
    return out, left, right


# -- reduction and truncation -----------------------------------------------


def truncate(r: int, v: DG) -> DG:
    basis = {k: names for k, names in v.basis.items() if k >= r}
    diff = {k: m for k, m in v.diff.items() if k > r}
    return DG(basis, diff)


def _restrict(v: DG, keep: dict[int, list[int]]) -> DG:
    """The basis elements of v at the kept positions, with d's entries among them."""
    at = {d: {orig: new for new, orig in enumerate(idx)} for d, idx in keep.items() if idx}
    basis = {d: tuple(v.basis[d][i] for i in at[d]) for d in at}
    diff = {}
    for d in basis:
        if d - 1 in basis:
            rows, cols = at[d - 1], at[d]
            ent = {(rows[r], cols[c]): x for (r, c), x in v.d(d).entries.items() if r in rows and c in cols}
            diff[d] = QMatrix(len(rows), len(cols), ent)
    return DG(basis, diff)


def sub_dg(v: DG, spans: Mapping[int, QMatrix], prefix: str = "k") -> tuple[DG, DGMap]:
    """Sub-DG spanned by the columns of spans[k] (must be d-closed); those
    matrices are the inclusion's blocks."""
    cols = {k: m for k, m in sorted(spans.items()) if m.cols}
    basis = {k: tuple(f"{prefix}{k}_{i}" for i in range(m.cols)) for k, m in cols.items()}
    diff = {}
    for k, m in cols.items():
        img = v.d(k) * m
        if (k - 1) not in cols:
            if not img.is_zero():
                raise ValueError(f"span not closed under d at degree {k}")
            continue
        sol = solve_matrix(cols[k - 1], img)
        if sol is None:
            raise ValueError(f"span not closed under d at degree {k}")
        diff[k] = sol
    out = DG(basis, diff)
    return out, DGMap(out, v, cols)


def reduce_dg(r: int, v: DG) -> DG:
    return reduce_with_inclusion(r, v)[0]


def reduce_with_inclusion(r: int, v: DG) -> tuple[DG, DGMap]:
    """red_r V: degrees > r unchanged, degree r becomes ker(d_r)."""
    if v.d(r).is_zero():
        out = truncate(r, v)
        return out, DGMap(out, v, {k: QMatrix.identity(v.dim(k)) for k in out.degrees()})
    spans = {k: QMatrix.identity(v.dim(k)) for k in v.degrees() if k > r}
    spans[r] = kernel_basis(v.d(r))
    return sub_dg(v, spans, prefix=f"r{r}_")


def quotient_dg(v: DG, killed: Mapping[int, QMatrix], prefix: str = "q") -> tuple[DG, DGMap]:
    """Quotient of V by the column span of killed[k] (must be d-closed);
    returns the quotient and the projection map.

    One elimination per degree, the rref of [K | I] for K = killed[k].  Its
    pivots in the I part are the representatives: the leftmost basis vectors
    that complete the span of K.  The rref is [T K | T] for the row operations
    T, and the rows holding those pivots are zero in the K part, so their I
    part is the projection: the unique P with P K = 0 and P = 1 on the
    representatives.  This is _block_quotient with one block per degree.
    """
    blocks = {k: [(range(v.dim(k)), killed.get(k, QMatrix.zero(v.dim(k), 0)))] for k in v.degrees()}
    return _block_quotient(v, blocks, prefix)


def _block_quotient(
    v: DG, blocks: Mapping[int, Sequence[tuple[Sequence[int], QMatrix]]], prefix: str
) -> tuple[DG, DGMap]:
    """quotient_dg for a block-diagonal killed matrix.  blocks[k] partitions
    degree k's basis into blocks (at, K_B): the positions in increasing order
    and the killed columns on them, row i of K_B at position at[i].

    A block's column lies in the span of the columns left of it exactly when
    it lies in the span of its own block's, and the row space is the sum of
    the blocks'.  So the rref of [K | I], which is unique, is the union of the
    rrefs of the [K_B | I_B], and only their rows below K_B are read.
    """
    reps: dict[int, list[int]] = {}
    proj_blocks: dict[int, QMatrix] = {}
    basis = {}
    for k in v.degrees():
        rows: list[tuple[int, dict[int, Fraction]]] = []  # (representative, projection row)
        for at, kmat in blocks.get(k, ()):
            if not kmat.entries:
                rows += [(j, {j: ONE}) for j in at]
                continue
            red, pivots = rref_from(QMatrix.hstack([kmat, QMatrix.identity(len(at))]), kmat.cols)
            if len(pivots) != len(at):
                raise AssertionError("internal: quotient basis does not span")
            first, kc = bisect_left(pivots, kmat.cols), kmat.cols
            found = [(at[p - kc], {}) for p in pivots[first:]]
            for (r, c), x in red.entries.items():
                found[r - first][1][at[c - kc]] = x
            rows += found
        rows.sort(key=lambda row: row[0])
        reps[k] = [j for j, _ in rows]
        basis[k] = tuple(f"{prefix}({v.basis[k][j]})" for j in reps[k])
        proj_blocks[k] = QMatrix._of(len(rows), v.dim(k), {(i, c): x for i, (_, row) in enumerate(rows) for c, x in row.items()})
    diff = {}
    for k, d in v.diff.items():
        if basis.get(k) and basis.get(k - 1):
            col = {j: i for i, j in enumerate(reps[k])}
            on_reps = QMatrix(d.rows, len(col), {(r, col[c]): x for (r, c), x in d.entries.items() if c in col})
            diff[k] = proj_blocks[k - 1] * on_reps
    out = DG(basis, diff)
    proj = DGMap(v, out, proj_blocks)
    # sanity: projection must be a chain map, which certifies d-closedness
    assert_valid(proj, "quotient projection")
    return out, proj


# -- homotopy pushouts and pullbacks ------------------------------------------


def strict_pullback(f: DGMap, g: DGMap) -> tuple[DG, DGMap, DGMap]:
    """{(u,w) : f(u) + g(w) = 0} with the two projections."""
    if f.target != g.target:
        raise ValueError("pullback codomain mismatch")
    degrees = sorted(set(f.source.basis) | set(g.source.basis))
    spans = {k: kernel_basis(QMatrix.hstack([f.block(k), g.block(k)])) for k in degrees}
    prod, iu, iw = sum_dg(f.source, g.source, tags=("u", "w"))
    sub, incl = sub_dg(prod, spans, prefix="lim")
    return sub, compose(projection(iu), incl), compose(projection(iw), incl)


def strict_pushout(f: DGMap, g: DGMap) -> tuple[DG, DGMap, DGMap]:
    """(U + W)/<f(v) + g(v)> with the two quotient inclusions."""
    if f.source != g.source:
        raise ValueError("pushout domain mismatch")
    total, inl, inr = sum_dg(f.target, g.target, tags=("u", "w"))
    killed = {k: QMatrix.vstack([f.block(k), g.block(k)]) for k in f.source.degrees()}
    quot, proj = quotient_dg(total, killed, prefix="co")
    return quot, compose(proj, inl), compose(proj, inr)


def _out_of_suspension(f: DGMap) -> dict[int, QMatrix]:
    """f's blocks as a twist out of sV: degree k + 1 of sV is degree k of V."""
    return {k + 1: m for k, m in f.blocks.items()}


def _path_sum(f: DGMap, g: DGMap, tags=("u", "m", "w")) -> tuple[DG, list[DGMap]]:
    """U x s^-1 V x W for U -f-> V <-g- W: d(u) and d(w) gain s^-1 f(u) and
    s^-1 g(w)."""
    parts = [f.source, shift(f.target, -1), g.source]
    return sum_many(parts, tags, [(1, 0, f.blocks), (1, 2, g.blocks)])


def _cylinder_sum(f: DGMap, g: DGMap) -> tuple[DG, list[DGMap]]:
    """U + sV + W for U <-f- V -g-> W: d(sv) gains f(v) + g(v)."""
    parts = [f.target, shift(f.source, 1), g.target]
    return sum_many(parts, ["u", "m", "w"], [(0, 1, _out_of_suspension(f)), (2, 1, _out_of_suspension(g))])


def ho_pullback(f: DGMap, g: DGMap) -> tuple[DG, DGMap]:
    """Path model (U x s^-1 V x W, d_x + d_fg) for U -f-> V <-g- W, plus the
    natural map from the strict pullback."""
    if f.target != g.target:
        raise ValueError("pullback codomain mismatch")
    out, (iu, _, iw) = _path_sum(f, g)
    _, pu, pw = strict_pullback(f, g)
    return out, map_add(compose(iu, pu), compose(iw, pw))


def ho_pushout(f: DGMap, g: DGMap) -> tuple[DG, DGMap]:
    """Cylinder model (U + sV + W, d(sv) = -s dv + f(v) + g(v)) for
    U <-f- V -g-> W, plus the natural map to the strict pushout."""
    if f.source != g.source:
        raise ValueError("pushout domain mismatch")
    out, (iu, _, iw) = _cylinder_sum(f, g)
    _, ju, jw = strict_pushout(f, g)
    return out, map_add(compose(ju, projection(iu)), compose(jw, projection(iw)))


def ho_square(mode: str, f: DGMap, g: DGMap) -> tuple[DG, DGMap]:
    if mode == "pullback":
        return ho_pullback(f, g)
    if mode == "pushout":
        return ho_pushout(f, g)
    raise ValueError(f"unknown mode {mode!r}")


def ho_fiber(f: DGMap) -> DG:
    """(V + s^-1 W, d(v) = dv - s^-1 f(v), d(s^-1 w) = -s^-1 dw)."""
    parts = [f.source, shift(f.target, -1)]
    return sum_many(parts, ["v", "f"], [(1, 0, map_scale(-1, f).blocks)])[0]


def ho_cofiber(f: DGMap) -> DG:
    """(W + sV, d(sv) = f(v) - s dv)."""
    parts = [f.target, shift(f.source, 1)]
    return sum_many(parts, ["w", "c"], [(0, 1, _out_of_suspension(f))])[0]


# -- bigraded vector spaces and n-dimensional cubes -----------------------------


@dataclass(frozen=True)
class BiDG:
    basis: dict[tuple[int, int], tuple[str, ...]]
    dh: dict[tuple[int, int], QMatrix] = field(default_factory=dict)
    dv: dict[tuple[int, int], QMatrix] = field(default_factory=dict)

    def dim(self, hv: tuple[int, int]) -> int:
        return len(self.basis.get(hv, ()))

    def get_dh(self, hv: tuple[int, int]) -> QMatrix:
        m = self.dh.get(hv)
        if m is None:
            return QMatrix.zero(self.dim((hv[0] - 1, hv[1])), self.dim(hv))
        return m

    def get_dv(self, hv: tuple[int, int]) -> QMatrix:
        m = self.dv.get(hv)
        if m is None:
            return QMatrix.zero(self.dim((hv[0], hv[1] - 1)), self.dim(hv))
        return m

    def validate(self) -> list[str]:
        report = []
        keys = set(self.basis)
        for (h, v) in sorted(keys):
            if not (self.get_dh((h - 1, v)) * self.get_dh((h, v))).is_zero():
                report.append(f"dh^2 != 0 at ({h},{v})")
            if not (self.get_dv((h, v - 1)) * self.get_dv((h, v))).is_zero():
                report.append(f"dv^2 != 0 at ({h},{v})")
            anti = self.get_dh((h, v - 1)) * self.get_dv((h, v)) + self.get_dv((h - 1, v)) * self.get_dh((h, v))
            if not anti.is_zero():
                report.append(f"dh dv + dv dh != 0 at ({h},{v})")
        return report


def tot(b: BiDG) -> DG:
    """Total DG: degree n collects bidegrees (h, v) with h + v = n."""
    by_deg: dict[int, list[tuple[int, int]]] = {}
    for (h, v) in sorted(b.basis):
        by_deg.setdefault(h + v, []).append((h, v))
    basis = {}
    offsets: dict[tuple[int, int], int] = {}
    for n, keys in by_deg.items():
        names = []
        for hv in keys:
            offsets[hv] = len(names)
            names.extend(f"{x}@v{hv[1]}" for x in b.basis[hv])
        basis[n] = tuple(names)
    diff = {}
    for n, keys in by_deg.items():
        tgt = by_deg.get(n - 1, [])
        if not tgt:
            continue
        tdim = sum(b.dim(hv) for hv in tgt)
        ent = {}
        for hv in keys:
            h, v = hv
            col0 = offsets[hv]
            for mat, thv in ((b.get_dh(hv), (h - 1, v)), (b.get_dv(hv), (h, v - 1))):
                if thv in offsets and h - 1 + v == n - 1:
                    row0 = offsets[thv]
                    for (r, c), val in mat.entries.items():
                        key = (row0 + r, col0 + c)
                        ent[key] = ent.get(key, ZERO) + val
        diff[n] = QMatrix(tdim, sum(b.dim(hv) for hv in keys), ent)
    return DG(basis, diff)


def bi_strand(v: DG, vdeg: int, tag: str) -> tuple[dict, dict]:
    """Place DG v at vertical grading vdeg; internal differential times (-1)^vdeg."""
    basis = {}
    dh = {}
    sign = -ONE if vdeg % 2 else ONE
    for k in v.degrees():
        basis[(k, vdeg)] = tuple(f"{tag}:{x}" for x in v.basis[k])
    for k, m in v.diff.items():
        dh[(k, vdeg)] = m.scale(sign)
    return basis, dh


@dataclass
class Cube:
    """Diagram over subsets of {1..n}: objects per subset, edge maps for
    one-element inclusions.  Subsets are frozensets of 1-based ints."""

    n: int
    objects: dict[frozenset, DG]
    edges: dict[tuple[frozenset, frozenset], DGMap]

    def edge(self, s: frozenset, t: frozenset) -> DGMap:
        return self.edges[(s, t)]

    def validate_commuting(self) -> list[str]:
        """Reports for edges with the wrong endpoints and faces that do not
        commute.  Both paths of a face are compared by _same_composite: as
        signed column arrays where every block is signed monomial, as in
        coproduct cubes and test cubes, and as products otherwise.  Cubes
        share edge maps (a test cube has one per shape), so each distinct
        pair of paths is compared once, and blocks (a coproduct cube of
        equal inputs has one set per shape), so each block is read once."""
        report = []
        for (s, t), m in self.edges.items():
            if m.source != self.objects[s] or m.target != self.objects[t]:
                report.append(f"edge {sorted(s)}->{sorted(t)} endpoints mismatch")
        memo: dict = {}
        for s in self.objects:
            outside = [e for e in range(1, self.n + 1) if e not in s]
            for i, a in enumerate(outside):
                for bel in outside[i + 1 :]:
                    sa, sb, sab = s | {a}, s | {bel}, s | {a, bel}
                    if sab not in self.objects or sa not in self.objects or sb not in self.objects:
                        continue
                    one, two = (self.edge(s, sa), self.edge(sa, sab)), (self.edge(s, sb), self.edge(sb, sab))
                    if not _same_composite(one, two, memo):
                        report.append(
                            f"face at {sorted(s)} +{a},+{bel} does not commute"
                        )
        return report


def _subset_tag(t: frozenset) -> str:
    return "T" + "".join(str(i) for i in sorted(t)) if t else "T0"


def _incl_sign(s: frozenset, t_added: int) -> Fraction:
    return -ONE if len([x for x in s if x < t_added]) % 2 else ONE


def cube_bidg(cube: Cube, mode: str) -> BiDG:
    """BiDG underlying the n-dimensional path or cylinder object."""
    n = cube.n
    if mode == "limit":
        wanted = [s for s in cube.objects if len(s) >= 1]
        vdeg = lambda t: 1 - len(t)
    elif mode == "colimit":
        wanted = [s for s in cube.objects if len(s) <= n - 1]
        vdeg = lambda t: n - 1 - len(t)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    wanted.sort(key=lambda s: (len(s), sorted(s)))
    basis: dict[tuple[int, int], tuple[str, ...]] = {}
    dh: dict[tuple[int, int], QMatrix] = {}
    offsets: dict[tuple[frozenset, int], int] = {}
    strands_at: dict[tuple[int, int], list[frozenset]] = {}
    for t in wanted:
        v = vdeg(t)
        obj = cube.objects[t]
        b, h = bi_strand(obj, v, _subset_tag(t))
        for (k, vv), names in b.items():
            if (k, vv) in basis:
                offsets[(t, k)] = len(basis[(k, vv)])
                basis[(k, vv)] = basis[(k, vv)] + names
            else:
                offsets[(t, k)] = 0
                basis[(k, vv)] = names
            strands_at.setdefault((k, vv), []).append(t)
    # horizontal differentials assembled per bidegree
    for (k, vv), strands in sorted(strands_at.items()):
        tdim = len(basis.get((k - 1, vv), ()))
        sdim = len(basis[(k, vv)])
        if tdim == 0:
            continue
        ent = {}
        sign = -ONE if vv % 2 else ONE
        for t in strands:
            obj = cube.objects[t]
            m = obj.d(k)
            r0 = offsets.get((t, k - 1))
            c0 = offsets[(t, k)]
            if r0 is None:
                continue
            for (r, c), val in m.entries.items():
                ent[(r0 + r, c0 + c)] = sign * val
        if ent:
            dh[(k, vv)] = QMatrix(tdim, sdim, ent)
    dv: dict[tuple[int, int], QMatrix] = {}
    wanted_set = set(wanted)
    for (k, vv), strands in sorted(strands_at.items()):
        tdim = len(basis.get((k, vv - 1), ()))
        if tdim == 0:
            continue
        ent = {}
        for t in strands:
            for el in range(1, n + 1):
                if el in t:
                    continue
                tt = t | {el}
                if tt not in wanted_set:
                    continue
                m = cube.edge(t, tt).block(k)
                sgn = _incl_sign(t, el)
                r0 = offsets.get((tt, k))
                c0 = offsets[(t, k)]
                if r0 is None:
                    continue
                for (r, c), val in m.entries.items():
                    key = (r0 + r, c0 + c)
                    ent[key] = ent.get(key, ZERO) + sgn * val
        if ent:
            dv[(k, vv)] = QMatrix(tdim, len(basis[(k, vv)]), ent)
    return BiDG(basis, dh, dv)


def ho_cube(mode: str, cube: Cube, cap: int = 6) -> DG:
    """Totalized n-dimensional homotopy limit/colimit of a subset-indexed cube.

    The total has one strand per subset t (nonempty ones for the limit,
    proper ones for the colimit), in (|t|, sorted t) order: the object at t
    shifted by its vertical degree v, 1 - |t| or n - 1 - |t|, with basis names
    T..:x@v.. and its differential times (-1)^v.  Each edge t -> t + {e} maps
    strand t to strand t + {e} with the sign (-1)^#{x in t : x < e}.  It
    equals tot(cube_bidg(cube, mode)).
    """
    return _cube_sum(mode, cube, cap)[0]


def _cube_sum(mode: str, cube: Cube, cap: int) -> tuple[DG, dict[frozenset, dict[tuple[int, int], int]]]:
    """ho_cube's total and the places of each strand, keyed by subset:
    (degree in the total, index in the strand) -> index in the total.

    The total is laid out from each strand's offset in each degree: the
    strands' differentials and the signed edges are blocks at those offsets,
    and no two of them share an entry."""
    if cube.n > cap:
        raise ValueError(f"cube dimension {cube.n} exceeds cap {cap}")
    problems = cube.validate_commuting()
    if problems:
        raise ValueError("non-commuting cube: " + problems[0])
    if mode == "limit":
        strands, top = [s for s in cube.objects if s], 1
    elif mode == "colimit":
        strands, top = [s for s in cube.objects if len(s) < cube.n], cube.n - 1
    else:
        raise ValueError(f"unknown mode {mode!r}")
    strands.sort(key=lambda s: (len(s), sorted(s)))
    names: dict[int, list[str]] = {}
    start: dict[frozenset, dict[int, int]] = {}  # strand -> degree in the total -> offset
    places: dict[frozenset, dict[tuple[int, int], int]] = {}
    for t in strands:
        v, tag = top - len(t), _subset_tag(t)
        at = start[t] = {}
        pl = places[t] = {}
        for k, xs in cube.objects[t].basis.items():
            lst = names.setdefault(k + v, [])
            at[k + v] = r0 = len(lst)
            lst.extend(f"{tag}:{x}@v{v}" for x in xs)
            pl.update(((k + v, i), r0 + i) for i in range(len(xs)))
    entries: dict[int, dict[tuple[int, int], Fraction]] = {}

    def put(k: int, m: QMatrix, r0: int, c0: int, move: Optional[Callable[[Fraction], Fraction]]) -> None:
        e = entries.setdefault(k, {})
        if move is None:  # the entries as they are
            e.update({(r0 + r, c0 + c): x for (r, c), x in m.entries.items()})
        else:
            e.update({(r0 + r, c0 + c): move(x) for (r, c), x in m.entries.items()})

    for t in strands:  # each strand's differential, times (-1)^v as shift scales it
        v, at = top - len(t), start[t]
        for k, m in cube.objects[t].diff.items():
            put(k + v, m, at[k + v - 1], at[k + v], _negated if v % 2 else _moved)
    for t in strands:  # each edge t -> t + {e}, into the strand one vertical degree down
        v, at = top - len(t), start[t]
        for e in range(1, cube.n + 1):
            if e not in t and t | {e} in start:
                up, move = start[t | {e}], None if _incl_sign(t, e) == 1 else _negated
                for k, m in cube.edge(t, t | {e}).blocks.items():
                    put(k + v, m, up[k + v - 1], at[k + v], move)
    total = DG(names, {k: QMatrix._of(len(names[k - 1]), len(names[k]), e) for k, e in entries.items()})
    return total, places


# -- cartesian / cocartesian ----------------------------------------------------


def is_bicartesian(s: DGMap, t: DGMap, f: DGMap, g: DGMap) -> tuple[bool, bool]:
    """Square with top-left U, maps s: U->W, t: U->V, f: W->X, g: V->X.

    cartesian: U -> ho-pullback(W -> X <- V) is a quasi-iso;
    cocartesian: ho-pushout(W <- U -> V) -> X is a quasi-iso.
    """
    if compose(f, s) != compose(g, t):
        raise ValueError("square does not commute")
    # cartesian: u -> (W x s^-1 X x V) via (s(u), 0, t(u))
    _, (iw, _, iv) = _path_sum(f, map_scale(-1, g))
    to_pb = map_add(compose(iw, s), compose(iv, t))
    assert_valid(to_pb, "canonical map into homotopy pullback")
    cartesian = is_quasi_iso(to_pb)
    # cocartesian: (W + sU + V) -> X via (f, 0, g), since d(su) = s(u) - t(u)
    _, (jw, _, jv) = _cylinder_sum(s, map_scale(-1, t))
    from_po = map_add(compose(f, projection(jw)), compose(g, projection(jv)))
    assert_valid(from_po, "canonical map out of homotopy pushout")
    cocartesian = is_quasi_iso(from_po)
    return cartesian, cocartesian


# -- telescopes -----------------------------------------------------------------


def telescope(maps: Sequence[DGMap]) -> tuple[DG, DGMap]:
    """Mapping telescope of V_1 -> ... -> V_m with d(sv_i) = -s dv_i + v_i + g_i(v_i),
    plus the comparison quasi-isomorphism to the strict colimit V_m."""
    if not maps:
        raise ValueError("telescope needs at least one map")
    for a, b in zip(maps, maps[1:]):
        if a.target != b.source:
            raise ValueError("telescope chain does not compose")
    objs = [maps[0].source] + [m.target for m in maps]
    parts: list[DG] = []
    tags: list[str] = []
    twist = []
    for i, o in enumerate(objs):
        parts.append(o)
        tags.append(f"v{i+1}")
        if i < len(maps):
            parts.append(shift(o, 1))
            tags.append(f"sv{i+1}")
            twist += [(2 * i, 2 * i + 1, identity_map(parts[-1]).blocks),
                      (2 * i + 2, 2 * i + 1, _out_of_suspension(maps[i]))]
    out, incls = sum_many(parts, tags, twist)
    # comparison map: V_i by (-1)^(m-i) times the composite into V_m, sV_i to 0
    cur, comparison = identity_map(objs[-1]), projection(incls[-1])
    for i in range(len(maps) - 1, -1, -1):
        cur = compose(cur, maps[i])
        sign = -ONE if (len(maps) - i) % 2 else ONE
        comparison = map_add(comparison, compose(map_scale(sign, cur), projection(incls[2 * i])))
    assert_valid(comparison, "telescope comparison")
    return out, comparison


# -- chain map spaces -------------------------------------------------------------


def chain_map_space(v: DG, w: DG) -> list[DGMap]:
    """Basis of the space of degree 0 chain maps v -> w.  Entry (r, c) of f_k is unknown
    first[k] + r dim V_k + c, and the equations (d_w f_k - f_{k-1} d_v)[r, c] = 0, r in W_{k-1}
    and c in V_k, are one block of rows per degree, (r, c) at row[k] + r dim V_k + c."""
    degrees = sorted(set(v.basis) | set(w.basis))
    cols = list(accumulate((w.dim(k) * v.dim(k) for k in degrees), initial=0))
    rows = list(accumulate((w.dim(k - 1) * v.dim(k) for k in degrees), initial=0))
    first, row = dict(zip(degrees, cols)), dict(zip(degrees, rows))
    ent: dict[tuple[int, int], Fraction] = {}
    for k in degrees:
        n = v.dim(k)
        for (r, m), a in w.d(k).entries.items():
            for c in range(n):
                key = (row[k] + r * n + c, first[k] + m * n + c)
                ent[key] = ent.get(key, ZERO) + a
        for (r, c), a in v.d(k).entries.items():
            for r2 in range(w.dim(k - 1)):
                key = (row[k] + r2 * n + c, first[k - 1] + r2 * v.dim(k - 1) + r)
                ent[key] = ent.get(key, ZERO) - a
    kernel = kernel_basis(QMatrix(rows[-1], cols[-1], ent))
    blocks: list[dict[int, dict]] = [{} for _ in range(kernel.cols)]
    for (idx, j), val in sorted(kernel.entries.items()):
        i = bisect_right(cols, idx) - 1
        blocks[j].setdefault(degrees[i], {})[divmod(idx - cols[i], v.dim(degrees[i]))] = val
    return [DGMap(v, w, {k: QMatrix(w.dim(k), v.dim(k), e) for k, e in b.items()}) for b in blocks]


# -- symmetric DGs ----------------------------------------------------------------


@dataclass
class SymmetricDG:
    underlying: DG
    n: int
    action: list[DGMap]  # one DGMap per adjacent transposition (1 2), ..., (n-1 n)

    def validate(self) -> list[str]:
        """Reports for a wrong generator count, generators that are not chain
        maps of the underlying DG, and failures of the involution, braid and
        distant-commutation relations.  Each relation is checked by
        _same_composite: on signed column arrays where every block is signed
        monomial, as for cross effects and factor swaps, and as products
        otherwise, as for Lie(n)'s last swap."""
        report = []
        if len(self.action) != max(self.n - 1, 0):
            report.append("wrong number of generator actions")
            return report
        ident = identity_map(self.underlying)
        memo: dict = {}
        for i, a in enumerate(self.action):
            if a.source != self.underlying or a.target != self.underlying:
                report.append(f"generator {i} endpoints mismatch")
                continue
            report.extend(f"generator {i}: {msg}" for msg in validate_dg(a))
            if not _same_composite((a, a), (ident,), memo):
                report.append(f"generator {i} is not an involution")
        for i in range(len(self.action) - 1):
            a, b = self.action[i], self.action[i + 1]
            if not _same_composite((a, b, a), (b, a, b), memo):
                report.append(f"braid relation fails at generators {i},{i+1}")
        for i in range(len(self.action)):
            for j in range(i + 2, len(self.action)):
                if not _same_composite((self.action[j], self.action[i]), (self.action[i], self.action[j]), memo):
                    report.append(f"distant generators {i},{j} do not commute")
        return report


def sym_orbits(v: SymmetricDG) -> tuple[DG, DGMap]:
    """Orbits: the quotient by the images of g - 1 over the generators, with
    the projection."""
    u = v.underlying
    killed = {k: QMatrix.hstack([a.block(k) - QMatrix.identity(u.dim(k)) for a in v.action])
              for k in u.degrees()} if v.action else {}
    return quotient_dg(u, killed, prefix="orb")


def sym_invariants(v: SymmetricDG):
    """Fixed points, orbits, trace, norm, and the averaging idempotent.

    Over Q the trace V^G -> V_G (inclusion, then projection) is an
    isomorphism, and the norm [x] -> Avg(x) is its inverse: Avg fixes the
    fixed points and Avg(gx) = Avg(x).  So norm = trace^-1, one solve per
    degree, and the averaging idempotent is incl . norm . proj (Maschke; Serre,
    Linear Representations of Finite Groups, ch. 1).
    """
    u = v.underlying
    spans = {}
    for k in u.degrees():
        stacked = QMatrix.vstack([a.block(k) - QMatrix.identity(u.dim(k)) for a in v.action]) if v.action else QMatrix.zero(0, u.dim(k))
        spans[k] = kernel_basis(stacked)
    fixed, incl = sub_dg(u, spans, prefix="fix")
    orbits, proj = sym_orbits(v)
    trace = compose(proj, incl)
    norm_blocks = {}
    for k in orbits.degrees():
        inverse = solve_matrix(trace.block(k), QMatrix.identity(orbits.dim(k)))
        if inverse is None:
            raise AssertionError("internal: the trace is not invertible")
        norm_blocks[k] = inverse
    norm = DGMap(orbits, fixed, norm_blocks)
    return fixed, orbits, trace, norm, compose(incl, compose(norm, proj))
