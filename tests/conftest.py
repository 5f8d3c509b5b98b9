import gc

import pytest

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
