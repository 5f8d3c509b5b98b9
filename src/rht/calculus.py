"""Taylor tower machinery for DG-valued functors.

The geometric input is the fiberwise join: crossing an object with a finite
set T is tensoring with the T-cell complex [T] (one vertex, |T| edges all
killing it), which is the cone for |T| = 1 and a suspension model for
|T| = 2.  Cubes of iterated joins are strongly cocartesian, and the n-th
Taylor approximation T_nF is the homotopy limit of F over the punctured
(n+1)-cube.  Iterating and telescoping gives P_nF; a cross effect is the
total homotopy fiber of F of a coproduct cube, the fiber of dgcore's
_into_holim, where the total (co)fibers thfib and thcof of any cube live; the
n-th derivative of the identity is the Lie representation Lie(n), and
homogeneous_eval evaluates a homogeneous functor in DG.  A tower is one
filtered DG, dgcore's Tower, and its stages, layers and the triangular blocks
of its differential are read off it by position: the layers and blocks are
the tower's jet, with no second type for it.  The bracket-length filtration of
a free DGL, which models the Taylor tower of the identity, is worked out
here alone: bracket_tower is that filtration as a Tower, bracket_filtration
adds the brackets to its stages, and layer_report counts each layer's
formula (Lie(n) (x) X^{(x) n})_{Sigma_n} from the character of Lie(n).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

from .dgc import DGC, CofreeDGCMap, _as_dgc, _moved_table, _suspended_coproduct, cofree_lambda, to_dgc
from .dgcore import (
    DG,
    DGMap,
    Cube,
    SymmetricDG,
    Tower,
    _by_column,
    _cube_sum,
    _gather,
    _generator_table,
    _into_holim,
    _places,
    _restrict,
    _tensor_with_index,
    assert_valid,
    ho_cofiber,
    ho_cube,
    ho_fiber,
    homology_dims,
    identity_map,
    map_scale,
    quotient_dg,
    reduce_dg,
    reduce_with_inclusion,
    shift,
    sum_many,
    telescope,
    tensor_dg,
    tensor_map,
)
from .dgl import DGL, FreeDGL, FreeDGLMap, free_lie_basis, to_dgl
from .exactq import _MINUS_ONE, ONE, QMatrix, ZERO, _moved, _negated, solve_matrix
from .quillen import cobar_L


# -- joins and test cubes ---------------------------------------------------------


def tset_dg(size: int) -> DG:
    """[T]: one vertex v0 in degree 0 and an edge t_i killing it per element."""
    return DG(
        {0: ("v0",), 1: tuple(f"t{i}" for i in range(1, size + 1))},
        {1: QMatrix(1, size, {(0, j): ONE for j in range(size)})},
    )


def join(x, t: int):
    """x * T for a finite set of size t; the empty join is x itself."""
    if t < 0:
        raise ValueError("join size must be >= 0")
    if isinstance(x, DG):
        if t == 0:
            return x
        return tensor_dg(tset_dg(t), x)
    if isinstance(x, DGC) or hasattr(x, "corestriction"):
        return _join_dgc(_as_dgc(x), t)
    raise TypeError(f"join is defined on DG and DGC values, got {type(x)!r}")


def _join_dgc(c: DGC, t: int) -> DGC:
    """Delta(v0 (x) x) = (v0 (x) x') (x) (v0 (x) x''), and each edge slot is a
    suspended strand on the vertex slot, with the identity as its leg."""
    if t == 0:
        return c
    und, idx = _tensor_with_index(tset_dg(t), c.underlying)

    def slot(e: int, j: int) -> dict:
        return {(k + e, q): idx[(e, j, k, q)][1] for k in c.underlying.degrees() for q in range(c.underlying.dim(k))}

    vertex = slot(0, 0)
    table = _moved_table(c.coproduct, vertex)
    for j in range(t):
        table.update(_suspended_coproduct(c, slot(1, j), [(vertex, identity_map(c.underlying))]))
    return DGC(und, table)


def _join_map(g: DGMap, size: int) -> DGMap:
    return tensor_map(identity_map(tset_dg(size)), g)


def test_cube(n: int, x: DG) -> Cube:
    """The strongly cocartesian n-cube S |-> x * S.

    Objects depend only on |S| and are shared, as are the edge maps (an
    inclusion is determined by the slot the new element occupies).  Each
    join is laid out once, and the edge maps are read off the indices of
    those layouts, so every edge's endpoints are the cube's own objects.
    """
    if not isinstance(x, DG):
        raise TypeError("test cubes are built over DG values")
    joins = {k: _tensor_with_index(tset_dg(k), x) for k in range(1, n + 1)}
    # x itself is the empty join; v0 is its only (tset) basis element
    joins[0] = (x, {(0, 0, d, q): (d, q) for d in x.degrees() for q in range(x.dim(d))})
    edge_by_shape: dict[tuple[int, int], DGMap] = {}

    def edge_map(k: int, pos: int) -> DGMap:
        # source join of size k, new element t_pos inserted at 1-based position
        # pos: v0 stays, t_r moves to t_{r+1} for r >= pos
        key = (k, pos)
        if key not in edge_by_shape:
            (src, si), (tgt, ti) = joins[k], joins[k + 1]
            ent: dict[int, dict] = {}
            for (i, p, j, q), (d, col) in si.items():
                moved = p + 1 if i == 1 and p + 1 >= pos else p
                ent.setdefault(d, {})[(ti[(i, moved, j, q)][1], col)] = ONE
            blocks = {d: QMatrix._of(tgt.dim(d), src.dim(d), e) for d, e in ent.items()}
            edge_by_shape[key] = DGMap(src, tgt, blocks)
        return edge_by_shape[key]

    objects = {}
    edges = {}
    elements = list(range(1, n + 1))
    for r in range(n + 1):
        for s in itertools.combinations(elements, r):
            fs = frozenset(s)
            objects[fs] = joins[r][0]
            for t in elements:
                if t in fs:
                    continue
                pos = sorted(fs | {t}).index(t) + 1
                edges[(fs, fs | {t})] = edge_map(r, pos)
    return Cube(n, objects, edges)


# -- symbolic functors --------------------------------------------------------------


class FunctorSpec:
    """A functor on DG given by apply (objects) and apply_map (chain maps)."""

    def apply(self, v: DG) -> DG:
        raise NotImplementedError

    def apply_map(self, f: DGMap) -> DGMap:
        raise NotImplementedError


@dataclass(frozen=True)
class IdentityFunctor(FunctorSpec):
    def apply(self, v: DG) -> DG:
        return v

    def apply_map(self, f: DGMap) -> DGMap:
        return f


@dataclass(frozen=True)
class ConstantFunctor(FunctorSpec):
    value: DG

    def apply(self, v: DG) -> DG:
        return self.value

    def apply_map(self, f: DGMap) -> DGMap:
        return identity_map(self.value)


@dataclass(frozen=True)
class TensorPowerFunctor(FunctorSpec):
    power: int

    def __post_init__(self):
        if self.power < 1:
            raise ValueError("tensor power must be >= 1")

    def apply(self, v: DG) -> DG:
        out = v
        for _ in range(self.power - 1):
            out = tensor_dg(out, v)
        return out

    def apply_map(self, f: DGMap) -> DGMap:
        out = f
        for _ in range(self.power - 1):
            out = tensor_map(out, f)
        return out


@dataclass(frozen=True)
class CoefficientFunctor(FunctorSpec):
    """A (x) - for a fixed coefficient DG."""

    coefficient: DG

    def apply(self, v: DG) -> DG:
        return tensor_dg(self.coefficient, v)

    def apply_map(self, f: DGMap) -> DGMap:
        return tensor_map(identity_map(self.coefficient), f)


@dataclass(frozen=True)
class SumFunctor(FunctorSpec):
    parts: tuple

    def apply(self, v: DG) -> DG:
        return sum_many([p.apply(v) for p in self.parts])[0]

    def apply_map(self, f: DGMap) -> DGMap:
        maps = [p.apply_map(f) for p in self.parts]
        src = sum_many([m.source for m in maps])[0]
        tgt = sum_many([m.target for m in maps])[0]
        blocks = {
            k: QMatrix.direct_sum([m.block(k) for m in maps]) for k in src.degrees()
        }
        return DGMap(src, tgt, blocks)


@dataclass(frozen=True)
class SuspensionFunctor(FunctorSpec):
    shift_by: int
    inner: FunctorSpec

    def apply(self, v: DG) -> DG:
        return shift(self.inner.apply(v), self.shift_by)

    def apply_map(self, f: DGMap) -> DGMap:
        g = self.inner.apply_map(f)
        return DGMap(
            shift(g.source, self.shift_by),
            shift(g.target, self.shift_by),
            {k + self.shift_by: m for k, m in g.blocks.items()},
        )


@dataclass(frozen=True)
class LambdaFunctor(FunctorSpec):
    """V |-> the DG of the cofree coalgebra on red_2 V, up to the cap."""

    cap: int

    def _cofree(self, v: DG):
        return cofree_lambda(reduce_dg(2, v), self.cap)

    def apply(self, v: DG) -> DG:
        return to_dgc(self._cofree(v)).underlying

    def apply_map(self, f: DGMap) -> DGMap:
        rv, iv = reduce_with_inclusion(2, f.source)
        rw, iw = reduce_with_inclusion(2, f.target)
        src_c, tgt_c = cofree_lambda(rv, self.cap), cofree_lambda(rw, self.cap)
        restricted = {}
        for k in rv.degrees():
            restricted[k] = solve_matrix(iw.block(k), f.block(k) * iv.block(k))
            if restricted[k] is None:
                raise ValueError("map does not restrict to the reduction")
        return CofreeDGCMap(src_c, tgt_c, _generator_table(rv, rw, restricted, 0)).to_dgc_map().dgmap


@dataclass(frozen=True)
class FreeLieFunctor(FunctorSpec):
    """V |-> the DG of the free Lie algebra on V (degrees >= 1), up to the cap."""

    cap: int

    def _free(self, v: DG) -> FreeDGL:
        if v.basis and min(v.basis) < 1:
            raise ValueError("free Lie input must live in positive degrees")
        gens = [(name, k) for k, names in v.basis.items() for name in names]
        table = _generator_table(v, v, v.diff, 1)
        gen_diff = {j: {(h,): c for h, c in lin.items()} for j, lin in table.items()}
        return FreeDGL(free_lie_basis(gens, self.cap), gen_diff)

    def apply(self, v: DG) -> DG:
        return to_dgl(self._free(v)).underlying

    def apply_map(self, f: DGMap) -> DGMap:
        src, tgt = self._free(f.source), self._free(f.target)
        table = _generator_table(f.source, f.target, f.blocks, 0)
        images = {j: {(h,): c for h, c in lin.items()} for j, lin in table.items()}
        return FreeDGLMap(src, tgt, images).to_dgmap()


def _apply_functor_cube(f: FunctorSpec, cube: Cube) -> Cube:
    objs: dict = {}
    by_id: dict[int, DG] = {}
    for s, obj in cube.objects.items():
        if id(obj) not in by_id:
            by_id[id(obj)] = f.apply(obj)
        objs[s] = by_id[id(obj)]
    edges: dict = {}
    edge_by_id: dict[int, DGMap] = {}
    for key, e in cube.edges.items():
        if id(e) not in edge_by_id:
            edge_by_id[id(e)] = f.apply_map(e)
        edges[key] = edge_by_id[id(e)]
    return Cube(cube.n, objs, edges)


# -- Taylor approximations ----------------------------------------------------------


def t_n(f: FunctorSpec, n: int, x: DG) -> tuple[DG, DGMap]:
    """T_nF(x) and the natural map F(x) -> T_nF(x)."""
    cube = test_cube(n + 1, x)
    return _into_holim(_apply_functor_cube(f, cube))[:2]


class TnFunctor(FunctorSpec):
    """T_n of another functor, usable as a functor itself (for iteration)."""

    def __init__(self, inner: FunctorSpec, n: int):
        self.inner = inner
        self.n = n

    def apply(self, v: DG) -> DG:
        fc = _apply_functor_cube(self.inner, test_cube(self.n + 1, v))
        return ho_cube("limit", fc, cap=self.n + 2)

    def apply_map(self, g: DGMap) -> DGMap:
        cubes = [_apply_functor_cube(self.inner, test_cube(self.n + 1, v)) for v in (g.source, g.target)]
        (src, src_at), (tgt, tgt_at) = (_cube_sum("limit", c) for c in cubes)
        comps = {
            size: self.inner.apply_map(_join_map(g, size))
            for size in range(1, self.n + 2)
        }
        # strand t maps to strand t by F of the join map, at vertical degree 1 - |t|
        pieces = []
        for t, cols in src_at.items():
            pieces += [(k + 1 - len(t), b, tgt_at[t], cols, None) for k, b in comps[len(t)].blocks.items()]
        return _gather(src, tgt, pieces)


class PnResult(NamedTuple):
    value: DG
    iterations: int
    converged: bool


def _window_quasi_iso(m: DGMap, lo: int, hi: int) -> bool:
    h = homology_dims(ho_cofiber(m))
    return not any(lo <= k <= hi + 1 and v for k, v in h.items())


def p_n_stabilize(
    f: FunctorSpec,
    n: int,
    x: DG,
    window: tuple[int, int] = (0, 10),
    max_iter: int = 6,
) -> PnResult:
    """Iterate T_n and telescope; stop at a windowed quasi-iso or at max_iter.

    iterations reports how many connecting maps preceded the stabilizing one
    (0 means the very first map F(x) -> T_nF(x) already stabilized).
    """
    lo, hi = window
    cur: FunctorSpec = f
    maps: list[DGMap] = []
    converged = False
    iterations = 0
    for i in range(max_iter):
        _, m = t_n(cur, n, x)
        maps.append(m)
        cur = TnFunctor(cur, n)
        if _window_quasi_iso(m, lo, hi):
            converged = True
            iterations = i
            break
        iterations = i + 1
    if not maps:
        return PnResult(f.apply(x), 0, False)
    value = telescope(maps)[0] if len(maps) > 1 else maps[0].target
    return PnResult(value, iterations, converged)


# -- cross effects ------------------------------------------------------------------


def _perm_sort_sign(seq: Sequence[int]) -> Fraction:
    inv = sum(
        1
        for a in range(len(seq))
        for b in range(a + 1, len(seq))
        if seq[a] > seq[b]
    )
    return -ONE if inv % 2 else ONE


def _coproduct_cube(inputs: Sequence[DG]) -> tuple[Cube, Callable[[frozenset, frozenset, dict[int, int]], DGMap]]:
    """The cube S |-> the sum of the inputs x_i, i not in S, whose edges drop
    the summand of the added element; and move(S, T, where), the map from the
    sum at S to the sum at T sending summand i identically to summand
    where[i], and the summands missing from where to zero.

    A sum's differential and a map's blocks depend only on the inputs summed
    (by identity, in order) and on where each summand goes, so each is built
    once: one sum_many per distinct tuple of inputs, whose diff the other
    subsets' sums share under their own x{i}(...) names, and one set of
    blocks per shape of map.  For n equal inputs the 2^n sums share n + 1
    differentials, and the edges and summand moves O(n^2) block sets."""
    n = len(inputs)
    objects: dict[frozenset, DG] = {}
    comps: dict[frozenset, tuple[tuple[int, ...], tuple[int, ...]]] = {}  # S -> (summands, their shape)
    # shape -> (the inputs, held so that their ids stay theirs, their sum, the places of each summand)
    sums: dict[tuple[int, ...], tuple] = {}
    for r in range(n + 1):
        for s in itertools.combinations(range(1, n + 1), r):
            comp = tuple(i for i in range(1, n + 1) if i not in s)
            parts, tags = [inputs[i - 1] for i in comp], [f"x{i}" for i in comp]
            shape = tuple(map(id, parts))
            if shape not in sums:
                out, incls = sum_many(parts, tags)
                sums[shape] = parts, out, [_places(incl) for incl in incls]
            else:
                out = sums[shape][1]
                names = {k: [f"{t}({x})" for p, t in zip(parts, tags) for x in p.basis.get(k, ())] for k in out.basis}
                out = DG(names, out.diff)
            objects[frozenset(s)], comps[frozenset(s)] = out, (comp, shape)
    shared: dict[tuple, dict[int, QMatrix]] = {}

    def move(s: frozenset, t: frozenset, where: dict[int, int]) -> DGMap:
        (comp, a), (into, b) = comps[s], comps[t]
        key = (a, b, tuple(into.index(where[i]) if i in where else None for i in comp))
        if key not in shared:
            ent: dict[int, dict[tuple[int, int], Fraction]] = {}
            for at, q in zip(sums[a][2], key[2]):
                if q is not None:
                    rows = sums[b][2][q]
                    for (k, p), c in at.items():
                        ent.setdefault(k, {})[(rows[(k, p)], c)] = ONE
            shared[key] = {k: QMatrix._of(sums[b][1].dim(k), sums[a][1].dim(k), e) for k, e in ent.items()}
        return DGMap(objects[s], objects[t], shared[key])

    edges = {(s, s | {t}): move(s, s | {t}, {i: i for i in comp if i != t})
             for s, (comp, _) in comps.items() for t in comp}
    return Cube(n, objects, edges), move


def _fiber_square_map(a: DGMap, b: DGMap, src: DG, tgt: DG) -> DGMap:
    # induced map ho_fiber(f) -> ho_fiber(f') for a square (a, b) over f, f'
    return DGMap(src, tgt, {k: QMatrix.direct_sum([a.block(k), b.block(k + 1)]) for k in src.degrees()})


def cross_effect(f: FunctorSpec, n: int, inputs: Sequence[DG]) -> SymmetricDG:
    """cr_nF as the total homotopy fiber of F of the coproduct cube.

    When all inputs coincide the symmetric-group action is recorded: an
    adjacent transposition rotates the cube, acting on each holim strand by
    the orientation sign of the permuted subset.  The sums, edges and
    summand moves share their blocks across subsets (_coproduct_cube), so
    for F the identity each shape is built and checked once.
    """
    if len(inputs) != n:
        raise ValueError("cross effect of order n takes n inputs")
    cube, move = _coproduct_cube(inputs)
    fc = _apply_functor_cube(f, cube)
    if n == 0:
        return SymmetricDG(fc.objects[frozenset()], 0, [])
    hol, m, at = _into_holim(fc)
    value = ho_fiber(m)
    if n < 2 or any(v != inputs[0] for v in inputs[1:]):
        return SymmetricDG(value, n, [])
    actions = []
    for a in range(1, n):
        perm = {i: i for i in range(1, n + 1)}
        perm[a], perm[a + 1] = a + 1, a
        image = {fs: frozenset(perm[i] for i in fs) for fs in cube.objects}
        # F of the summand-permuting maps, per subset
        moved = {fs: f.apply_map(move(fs, image[fs], perm)) for fs in cube.objects}
        # on the holim, strand fs goes to strand image[fs], signed by the orientation of the permuted subset
        pieces = []
        for fs in at:
            sign, v = _perm_sort_sign([perm[i] for i in sorted(fs)]), 1 - len(fs)
            pieces += [(k + v, b, at[image[fs]], at[fs], sign) for k, b in moved[fs].blocks.items()]
        act = _fiber_square_map(moved[frozenset()], _gather(hol, hol, pieces), value, value)
        assert_valid(act, "cross-effect symmetry generator")
        actions.append(act)
    return SymmetricDG(value, n, actions)


# -- Lie(n) and derivatives of the identity ------------------------------------------


def _left_normed_expand(seq: Sequence[int]) -> dict[tuple[int, ...], Fraction]:
    """[s1,[s2,...,[s_{k-1},s_k]...]] of distinct letters expanded in the free
    associative algebra.  [s, E] = sE - Es, and as s is not in E, the words sw
    and ws of E's words w are all distinct: each coefficient is a shared +-1,
    with no Fraction arithmetic."""
    words = {(seq[-1],): ONE}
    for s in reversed(seq[:-1]):
        out = {}
        for w, c in words.items():
            out[(s,) + w] = c
            out[w + (s,)] = _negated(c)
        words = out
    return words


@dataclass
class LieRep:
    """Lie(n) with its plain permutation action in degree zero."""

    n: int
    rep: SymmetricDG

    def placed(self, degree: int, sign_twist: bool) -> SymmetricDG:
        """The same representation moved to one degree, optionally twisted
        by the sign character (every transposition picks up a -1)."""
        und = shift(self.rep.underlying, degree, tag="")
        actions = []
        for a in self.rep.action:
            m = DGMap(und, und, {degree: a.block(0)})
            actions.append(map_scale(-ONE, m) if sign_twist else m)
        return SymmetricDG(und, self.n, actions)

    def derivative(self) -> SymmetricDG:
        """The n-th derivative of the identity: degree 1 - n, sign-twisted."""
        return self.placed(1 - self.n, True)


def lie_n(n: int) -> LieRep:
    """Left-normed bracket basis of Lie(n) with the letter-permutation action.

    The basis element b_p = [p1,[p2,...,[p_{n-1},n]...]] is indexed by the
    word p = p1...p_{n-1}n.  Its expansion holds exactly one word ending in
    n, p itself, with coefficient 1, so the coordinates of a multilinear Lie
    element in this basis are its coefficients on the words that end in n.
    Swapping the letters a, a + 1 < n permutes the basis; swapping n - 1 and
    n is read off the relabeled expansions on the words ending in n.
    """
    if n < 1 or n > 8:
        raise ValueError("Lie(n) is computed for 1 <= n <= 8")
    perms = [tuple(p) + (n,) for p in itertools.permutations(range(1, n))]
    index = {p: j for j, p in enumerate(perms)}
    names = tuple(
        "[" + ",".join(f"x{i}" for i in p[:-1]) + f",x{p[-1]}" + "]" * (n - 1)
        if n > 1
        else "x1"
        for p in perms
    )
    und = DG({0: names})
    actions = []
    for a in range(1, n):
        ent = {}
        for j, p in enumerate(perms):
            relabeled = tuple(a + 1 if i == a else (a if i == a + 1 else i) for i in p)
            if a < n - 1:
                ent[(index[relabeled], j)] = ONE
                continue
            for w, c in _left_normed_expand(relabeled).items():
                if w[-1] == n:
                    ent[(index[w], j)] = _moved(c)
        actions.append(DGMap(und, und, {0: QMatrix(len(perms), len(perms), ent)}))
    return LieRep(n, SymmetricDG(und, n, actions))


def _mobius(n: int) -> int:
    """mu(n) by its divisor recursion: mu(1) = 1, and mu sums to 0 over the divisors of n > 1."""
    return 1 if n == 1 else -sum(_mobius(d) for d in range(1, n) if n % d == 0)


def _lie_coinvariant_dims(x: DG, n: int, degree: int, twisted: bool) -> dict[int, int]:
    """Chain dims of (Lie(n) (x) x^{(x) n})_{Sigma_n}, Lie(n) in one degree and sign-twisted or
    not, from its character: mu(d) (n/d)! d^(n/d) / n on the cycle type (d^(n/d)), 0 elsewhere
    (Brandt 1944).  So they are (1/n) sum_{d | n} mu(d) sgn(d^(n/d)) [t^k] p_d(t)^(n/d), sgn only
    when twisted, for p_d(t) = sum_k dim x_k (-1)^(k(d-1)) t^(kd): a d-cycle fixes a tuple only
    when it repeats one element, which it rotates with that Koszul sign."""
    total: dict[int, int] = {}
    for d in (d for d in range(1, n + 1) if n % d == 0):
        p = {k * d: x.dim(k) * (-1) ** (k * (d - 1)) for k in x.degrees()}
        power = {0: _mobius(d) * ((-1) ** ((d - 1) * (n // d)) if twisted else 1)}
        for _ in range(n // d):
            nxt: dict[int, int] = {}
            for (a, u), (b, w) in itertools.product(power.items(), p.items()):
                nxt[a + b] = nxt.get(a + b, 0) + u * w
            power = nxt
        for k, c in power.items():
            total[k] = total.get(k, 0) + c
    assert all(c % n == 0 for c in total.values()), "internal: a character sum is not divisible by n"
    return {k + degree: c // n for k, c in sorted(total.items()) if c}


# -- homogeneous functors ------------------------------------------------------------


def _power_with_swaps(x: DG, n: int) -> tuple[DG, list[DGMap]]:
    """x^{(x) n} with the n-1 adjacent Koszul-signed factor swaps."""
    factors = [(k, i) for k in x.degrees() for i in range(x.dim(k))]
    by_deg: dict[int, list[tuple]] = {}
    index: dict[tuple, tuple[int, int]] = {}
    for combo in itertools.product(factors, repeat=n):
        total = sum(k for k, _ in combo)
        lst = by_deg.setdefault(total, [])
        index[combo] = (total, len(lst))
        lst.append(combo)
    basis = {
        deg: tuple(
            "(" + "⊗".join(x.basis[k][i] for k, i in combo) + ")" for combo in lst
        )
        for deg, lst in by_deg.items()
    }
    diff, d_at = {}, _by_column(x.diff)
    for deg, lst in by_deg.items():
        tgt = by_deg.get(deg - 1, [])
        if not tgt:
            continue
        ent: dict = {}
        for col, combo in enumerate(lst):
            sign = ONE
            for m, (k, i) in enumerate(combo):
                for r, val in d_at.get((k, i), ()):
                    row = index[combo[:m] + ((k - 1, r),) + combo[m + 1 :]][1]
                    ent[(row, col)] = ent.get((row, col), ZERO) + sign * val
                sign = -sign if k % 2 else sign
        diff[deg] = QMatrix(len(tgt), len(lst), ent)
    pw = DG(basis, diff)
    swaps = []
    for m in range(n - 1):
        blocks: dict[int, dict] = {}
        for combo, (deg, col) in index.items():
            new = combo[:m] + (combo[m + 1], combo[m]) + combo[m + 2 :]
            sgn = _MINUS_ONE if (combo[m][0] * combo[m + 1][0]) % 2 else ONE
            blocks.setdefault(deg, {})[(index[new][1], col)] = sgn
        swaps.append(DGMap(pw, pw, {k: QMatrix._of(pw.dim(k), pw.dim(k), e) for k, e in blocks.items()}))
    return pw, swaps


def homogeneous_eval(coefficient: SymmetricDG, x: DG, n: int) -> DG:
    """(A (x) x^{(x) n})_{Sigma_n} in DG: A (x) x^{(x) n} modulo the images of
    a (x) s - 1, laid out as sym_orbits lays them out (column g dim_k + c holds
    (a_g (x) s_g) e_c - e_c) and read off A's action columns and the signed
    swaps.  This K is block-diagonal by Sigma_n-orbit of factor tuples, and
    quotient_dg takes it whole, in one elimination per degree."""
    if coefficient.n != n:
        raise ValueError("coefficient arity does not match n")
    pw, swaps = _power_with_swaps(x, n)
    und, at = _tensor_with_index(coefficient.underlying, pw)
    dims = {k: und.dim(k) for k in und.degrees()}
    ent: dict[int, dict[tuple[int, int], Fraction]] = {k: {} for k in dims}
    for g, (a, s) in enumerate(zip(coefficient.action, swaps)):
        act = _by_column(a.blocks)
        move = {jq: (q2, sign > 0) for jq, ((q2, sign),) in _by_column(s.blocks).items()}
        for (i, p, j, q), (k, c) in at.items():
            e, col = ent[k], g * dims[k] + c
            q2, plus = move[(j, q)]
            for r, y in act.get((i, p), ()):
                e[(at[(i, r, j, q2)][1], col)] = y if plus else _negated(y)
            y = e.get((c, col))
            if y is None:
                e[(c, col)] = _MINUS_ONE
            elif y == ONE:  # a fixed point a (x) s = a (x) s kills nothing
                del e[(c, col)]
            else:
                e[(c, col)] = y - ONE
    killed = {k: QMatrix._of(dims[k], len(swaps) * dims[k], e) for k, e in ent.items()}
    return quotient_dg(und, killed, prefix="orb")[0]


# -- Taylor layers of the cobar tower ------------------------------------------------


def _bracket_positions(l: FreeDGL, n: int) -> tuple[dict[int, list[int]], dict[int, list[int]]]:
    """Per degree, the positions in to_dgl(l) of the brackets of length <= n,
    and their lengths."""
    if n < 1:
        raise ValueError("filtration depth must be >= 1")
    keep, level = {}, {}
    for d, ms in l.basis.monomials.items():
        lengths = [l.basis.tree_length(t) for t in ms]
        keep[d] = [i for i, t in enumerate(lengths) if t <= n]
        if keep[d]:
            level[d] = [lengths[i] for i in keep[d]]
    return keep, level


def bracket_tower(l: FreeDGL, n: int) -> Tower:
    """The bracket-length tower of l, stages 1..n: top is the quotient by the
    brackets longer than n, and each basis element's level is its bracket
    length.  Only the differential is read, so no bracket structure constant
    is computed."""
    keep, level = _bracket_positions(l, n)
    return Tower(_restrict(to_dgl(l).underlying, keep), level, n)


def bracket_filtration(l: FreeDGL, n: int) -> tuple[list[DGL], list[DG]]:
    """The quotients B_s of l by the brackets longer than s (s = 1..n), as
    DGLs, and their layers: the stages and layers of bracket_tower(l, n),
    each stage with to_dgl(l)'s structure constants at its positions, read
    in one pass over the table."""
    keep, level = _bracket_positions(l, n)
    tower = Tower(_restrict(to_dgl(l).underlying, keep), level, n)
    stages = [{d: [p for p, t in zip(keep[d], lv) if t <= s] for d, lv in level.items()} for s in range(1, n + 1)]
    at = [{d: {p: i for i, p in enumerate(ps)} for d, ps in st.items()} for st in stages]
    tables: list[dict] = [{} for _ in stages]
    for (k1, i1, k2, i2), v in to_dgl(l).bracket.items():
        for st, pos, table in zip(stages, at, tables):
            if i1 in pos.get(k1, ()) and i2 in pos.get(k2, ()) and k1 + k2 in st:
                vec = tuple(v[p] for p in st[k1 + k2])
                if any(vec):
                    table[(k1, pos[k1][i1], k2, pos[k2][i2])] = vec
    return [DGL(dg, table, cap=l.cap) for dg, table in zip(tower.objects, tables)], tower.layers


def cobar_tower(c, n: int, cap: int) -> Tower:
    """Bracket-length tower of the cobar Lie algebra, stages 1..n."""
    return bracket_tower(cobar_L(_as_dgc(c), cap), n)


def layer_report(x: DG, layers: Sequence[DG], cap: int) -> dict[int, dict]:
    """Layer k against the derivative formula (Lie(k) (x) x^{(x) k})_{Sigma_k}
    desuspended, for x the coalgebra's underlying DG: their dims at or below
    the cap, the formula's counted from the character of Lie(k)."""
    report = {}
    for k, layer in enumerate(layers, 1):
        # Lie(k) sign-twisted in degree 1 - k, delooped into DGL by one desuspension
        fd = {d: c for d, c in _lie_coinvariant_dims(x, k, -k, True).items() if d <= cap}
        ld = {d: layer.dim(d) for d in layer.degrees() if d <= cap and layer.dim(d)}
        report[k] = {"layer": ld, "formula": fd, "match": ld == fd}
    return report


def taylor_layers_cobar(c, n: int, cap: int):
    """cobar_tower with its layer_report: (tower, layers, report)."""
    cd = _as_dgc(c)
    tower = cobar_tower(cd, n, cap)
    return tower, tower.layers, layer_report(cd.underlying, tower.layers, cap)


# -- jets -----------------------------------------------------------------------------


def jet_extract(tower: Tower) -> Tower:
    """The tower itself, once it is checked: its layers and blocks are its
    jet."""
    problems = tower.validate()
    if problems:
        raise ValueError(problems[0])
    return tower


def jet_validate(tower: Tower) -> list[str]:
    """The tower's problems, or else the blocks (i, j) of d^2 that are nonzero,
    by degree: then the blocks (i + 1, i), which say that d_{i+1,i} is a
    chain map up to sign, and (i + 2, i), which say that d_{i+2,i} is a null
    homotopy.  Entry (r, c) of top's d^2 from degree k lies in block (i, j)
    for i and j the levels of r and c; as d never lowers the level, blocks
    (i + 1, i) and (i + 2, i) of d^2 are the sums of those identities."""
    problems = tower.validate()
    if problems:
        return problems
    hits = []  # (k, i, j): block (i, j) of d^2 from degree k is nonzero
    for k in sorted(tower.top.diff):
        if k - 1 in tower.top.diff:
            dd = tower.top.d(k - 1) * tower.top.d(k)
            hits += [(k, i, j) for i, j in sorted({(tower.level[k - 2][r], tower.level[k][c]) for r, c in dd.entries})]
    below = {s: sorted((j, k) for k, i, j in hits if i == j + s) for s in (1, 2)}
    return (
        [f"d^2 block ({i},{j}) is nonzero at degree {k}" for k, i, j in hits]
        + [f"suspended d_{j + 1}{j} is not a chain map at degree {k}" for j, k in below[1]]
        + [f"d_{j + 2}{j} is not a null homotopy at degree {k}" for j, k in below[2]]
    )
