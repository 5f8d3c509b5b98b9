import gc

import pytest


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
