import gc
import itertools
from dataclasses import dataclass
from fractions import Fraction

import pytest

from rht.calculus import Tower
from rht.dgcore import DG, DGMap, _restrict
from rht.dgl import DGL, to_dgl
from rht.exactq import QMatrix, rat


def index_of(v: DG, k: int, name: str) -> int:
    """The position of the basis element called name in degree k of v."""
    return v.basis[k].index(name)


def _old_filtration_dgs(l, n):
    """The DGs underlying the quotients B_k of the free DGL l by bracket
    length > k (k = 1..n), their layers, and for each B_k the positions in
    to_dgl(l) that it keeps, per degree; each cut out of to_dgl(l) apart."""
    if n < 1:
        raise ValueError("filtration depth must be >= 1")
    full = to_dgl(l).underlying
    lengths = {d: [l.basis.tree_length(t) for t in ms] for d, ms in l.basis.monomials.items()}
    dgs, layers, keeps = [], [], []
    for kmax in range(1, n + 1):
        keep = {d: [i for i, ln in enumerate(lens) if ln <= kmax] for d, lens in lengths.items()}
        dgs.append(_restrict(full, keep))
        layers.append(_restrict(full, {d: [i for i, ln in enumerate(lens) if ln == kmax] for d, lens in lengths.items()}))
        keeps.append(keep)
    return dgs, layers, keeps


def _old_bracket_filtration(l, n):
    """The quotients B_k as DGLs and their layers, one pass over to_dgl(l)'s
    bracket table per B_k."""
    dgs, layers, keeps = _old_filtration_dgs(l, n)
    full = to_dgl(l)
    towers = []
    for dg, keep in zip(dgs, keeps):
        pos = {d: {orig: new for new, orig in enumerate(idx)} for d, idx in keep.items()}
        table = {}
        for (k1, i1, k2, i2), v in full.bracket.items():
            if k1 not in pos or k2 not in pos or (k1 + k2) not in pos:
                continue
            if i1 not in pos[k1] or i2 not in pos[k2]:
                continue
            vec = tuple(v[o] for o in keep[k1 + k2])
            if any(vec):
                table[(k1, pos[k1][i1], k2, pos[k2][i2])] = vec
        towers.append(DGL(dg, table, cap=l.cap))
    return towers, layers


@dataclass
class _OldJet:
    """Layers D_1..D_m plus the triangular blocks of the total differential:
    blocks[(i, j)][k] maps (D_j)_k -> (D_i)_{k-1}, nonzero only for i >= j,
    with blocks[(i, i)] the layer differentials."""

    layers: list[DG]
    blocks: dict[tuple[int, int], dict[int, QMatrix]]

    def block(self, i: int, j: int, k: int) -> QMatrix:
        m = self.blocks.get((i, j), {}).get(k)
        if m is None:
            return QMatrix.zero(self.layers[i - 1].dim(k - 1), self.layers[j - 1].dim(k))
        return m


def _old_jet_extract(tower: Tower) -> _OldJet:
    """The layers of the tower, renamed D<s><k>_<i> from layer 2 on, and its
    top's differential split by position into the blocks between them."""
    problems = tower.validate()
    if problems:
        raise ValueError(problems[0])
    layers = [tower.layers[0]]
    for s, lay in enumerate(tower.layers[1:], 2):
        layers.append(DG({k: tuple(f"D{s}{k}_{i}" for i in range(len(xs))) for k, xs in lay.basis.items()}, lay.diff))
    place = {}
    for k, lv in tower.level.items():
        at = [itertools.count() for _ in range(tower.n + 1)]
        place[k] = [(t, next(at[t])) for t in lv]
    blocks: dict[tuple[int, int], dict[int, QMatrix]] = {}
    for k, d in sorted(tower.top.diff.items()):
        split: dict[tuple[int, int], dict[tuple[int, int], Fraction]] = {}
        for (r, c), v in d.entries.items():
            (i, r_i), (j, c_j) = place[k - 1][r], place[k][c]
            split.setdefault((i, j), {})[(r_i, c_j)] = v
        for (i, j), ent in sorted(split.items()):
            blocks.setdefault((i, j), {})[k] = QMatrix._of(layers[i - 1].dim(k - 1), layers[j - 1].dim(k), ent)
    return _OldJet(layers, blocks)


def _old_jet_validate(jet: _OldJet) -> list[str]:
    """The square-zero identities of the triangular blocks, block by block:
    every block of d^2, then the chain-map and null-homotopy identities of the
    first two off-diagonals."""
    report = []
    m = len(jet.layers)
    degrees = sorted({k for l in jet.layers for k in l.basis})
    degrees = sorted(set(degrees) | {k + 1 for k in degrees})
    for k in degrees:
        for i in range(1, m + 1):
            for j in range(1, m + 1):
                total = QMatrix.zero(jet.layers[i - 1].dim(k - 2), jet.layers[j - 1].dim(k))
                for mid in range(1, m + 1):
                    total = total + jet.block(i, mid, k - 1) * jet.block(mid, j, k)
                if total.entries:
                    report.append(f"d^2 block ({i},{j}) is nonzero at degree {k}")
    for i in range(1, m):
        for k in degrees:
            lhs = jet.block(i + 1, i + 1, k - 1) * jet.block(i + 1, i, k)
            rhs = jet.block(i + 1, i, k - 1) * jet.block(i, i, k)
            if (lhs + rhs).entries:
                report.append(f"suspended d_{i + 1}{i} is not a chain map at degree {k}")
    for i in range(1, m - 1):
        for k in degrees:
            total = (
                jet.block(i + 2, i + 2, k - 1) * jet.block(i + 2, i, k)
                + jet.block(i + 2, i + 1, k - 1) * jet.block(i + 1, i, k)
                + jet.block(i + 2, i, k - 1) * jet.block(i, i, k)
            )
            if total.entries:
                report.append(f"d_{i + 2}{i} is not a null homotopy at degree {k}")
    return report


def perturbed(tower: Tower, k: int, entries: dict[tuple[int, int], Fraction]) -> Tower:
    """The tower with entries added to its top's d in degree k, at top's
    positions, on the same levels."""
    top = tower.top
    diff = dict(top.diff)
    diff[k] = top.d(k) + QMatrix(top.dim(k - 1), top.dim(k), entries)
    return Tower(DG(top.basis, diff), tower.level, tower.n)


def at_level(tower: Tower, k: int, level: int, i: int) -> int:
    """The position in top's degree k of the i-th basis element of that level."""
    return [p for p, t in enumerate(tower.level[k]) if t == level][i]


@pytest.fixture
def cyclic_garbage():
    """Call with a function: the type names of the objects that only the
    cyclic collector frees once the call returns; [] when it leaves no cycle."""

    def run(fn):
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            fn()
            gc.collect()
            return sorted(type(o).__name__ for o in gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()

    return run


@pytest.fixture
def map_from_names():
    """Call with (source, target, assignment): the DGMap sending each basis
    element x of degree k to assignment(k, x), a {target name: coefficient}
    dict, with positions found by name."""

    def build(source: DG, target: DG, assignment) -> DGMap:
        blocks = {}
        for k in source.degrees():
            idx = {n: i for i, n in enumerate(target.basis.get(k, ()))}
            ent = {}
            for j, name in enumerate(source.basis[k]):
                for tname, c in assignment(k, name).items():
                    ent[(idx[tname], j)] = rat(c)
            blocks[k] = QMatrix(len(idx), source.dim(k), ent)
        return DGMap(source, target, blocks)

    return build
