import gc

import pytest

from rht.dgcore import DG, DGMap
from rht.exactq import QMatrix, rat


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
