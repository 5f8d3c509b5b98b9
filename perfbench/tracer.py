"""Layer spans timed from outside the program.

`Tracer.install()` wraps every public function of the traced `rht` modules
and rebinds each wrapped name wherever the original is reachable: in the
defining module, in every `rht` module that did `from .x import name`, and in
module-level dicts such as the CLI's command table.  Afterwards it checks that
no original is left behind, so a missed import fails loudly instead of
silently reporting zero.

A span's self time is its duration minus the time covered by its child spans.
Scalar and vector helpers are left unwrapped on purpose: they are called once
per vector entry, so a span around each would cost more than the work and
swamp every other layer's numbers.  Their time counts as the caller's.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import sys
from collections import Counter
from time import perf_counter

LAYERS = ("exactq", "dgcore", "dgl", "dgc", "quillen", "calculus", "cli")

UNWRAPPED = {
    "exactq": {"rat", "format_rat", "vec", "zero_vec", "vec_add", "vec_sub", "vec_scale", "is_zero_vec"},
    "dgl": {"tp_add", "tp_scale", "tp_concat", "tp_reindex"},
}

HOMOLOGY = {"dgcore.homology", "dgcore.homology_dims", "dgcore.is_quasi_iso",
            "dgcore.is_quasi_iso_through", "dgcore.is_contractible"}
QUASI_ISO = {"dgcore.is_quasi_iso", "dgcore.is_quasi_iso_through"}
BUILDERS = {f"dgcore.{n}" for n in (
    "cone_dg", "paths_dg", "big_suspension", "big_loops", "ho_square", "ho_pullback", "ho_pushout",
    "ho_cube", "cube_bidg", "tot", "telescope", "tensor_dg", "sub_dg", "quotient_dg")}
VALIDATORS = {"dgcore.validate_dg", "dgcore.assert_valid", "dgl.dgl_validate", "dgl.assert_valid_dgl",
              "dgc.dgc_validate", "dgc.assert_valid_dgc"}
# names the metrics below are defined on; a rename in the program must fail the harness
REQUIRED = HOMOLOGY | QUASI_ISO | BUILDERS | VALIDATORS | {
    "exactq.solve_matrix", "dgcore.sym_invariants", "dgl.free_lie_basis", "dgl.to_dgl", "dgc.to_dgc",
    "calculus.homogeneous_eval", "cli.main", "cli.parse_model", "cli.build_model", "cli.emit_report"}


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("share", "ratio", "per_homology")):
        return "1"
    return "count"


class HarnessError(RuntimeError):
    """The tracer could not cover what it claims to cover."""


class _Frame:
    __slots__ = ("key", "layer", "child")

    def __init__(self, key, layer):
        self.key = key
        self.layer = layer
        self.child = 0.0


def _matrix_shape(x):
    rows, cols, entries = getattr(x, "rows", None), getattr(x, "cols", None), getattr(x, "entries", None)
    if isinstance(rows, int) and isinstance(cols, int) and isinstance(entries, dict):
        return rows * cols, len(entries)
    return None


def _total_dim(x):
    if hasattr(x, "total_dim"):
        return x.total_dim()
    if hasattr(x, "source") and hasattr(x, "target"):
        return x.source.total_dim() + x.target.total_dim()
    return 0


class Tracer:
    """Spans and deterministic counters for one traced pass."""

    def __init__(self):
        self.stack: list[_Frame] = []
        self.active: Counter = Counter()
        self.count: Counter = Counter()
        self.time: Counter = Counter()
        self.wrappers: dict[str, object] = {}
        self.originals: dict[int, str] = {}

    # -- installation -----------------------------------------------------------

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"rht.{layer}") for layer in LAYERS}
        for layer, mod in modules.items():
            public = {n for n, obj in vars(mod).items()
                      if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not n.startswith("_")}
            stale = UNWRAPPED.get(layer, set()) - public
            if stale:
                raise HarnessError(f"unwrapped names missing from rht.{layer}: {sorted(stale)}")
            for name in sorted(public - UNWRAPPED.get(layer, set())):
                fn = getattr(mod, name)
                key = f"{layer}.{name}"
                self.originals[id(fn)] = key
                self.wrappers[key] = self._wrap(layer, key, fn)
        missing = REQUIRED - set(self.wrappers)
        if missing:
            raise HarnessError(f"traced public names missing: {sorted(missing)}")
        rht_modules = [m for n, m in sorted(sys.modules.items()) if n.startswith("rht.") and m is not None]
        for mod in rht_modules:
            for attr, obj in list(vars(mod).items()):
                key = self.originals.get(id(obj))
                if key is not None:
                    setattr(mod, attr, self.wrappers[key])
                elif isinstance(obj, dict):
                    for k, v in list(obj.items()):
                        if id(v) in self.originals:
                            obj[k] = self.wrappers[self.originals[id(v)]]
        self._check_rebound(rht_modules)

    def _check_rebound(self, rht_modules) -> None:
        for mod in rht_modules:
            for attr, obj in vars(mod).items():
                if id(obj) in self.originals:
                    raise HarnessError(f"{mod.__name__}.{attr} still holds the unwrapped {self.originals[id(obj)]}")
                if isinstance(obj, (dict, list, tuple)):
                    values = obj.values() if isinstance(obj, dict) else obj
                    if any(id(v) in self.originals for v in values):
                        raise HarnessError(f"{mod.__name__}.{attr} holds an unwrapped public function")
                if inspect.isfunction(obj):
                    defaults = (obj.__defaults__ or ()) + tuple((obj.__kwdefaults__ or {}).values())
                    if any(id(v) in self.originals for v in defaults):
                        raise HarnessError(f"a default of {mod.__name__}.{attr} is an unwrapped public function")
            # every `from .x import name` at module level must now see the wrapper
            for node in ast.parse(inspect.getsource(mod)).body:
                if not (isinstance(node, ast.ImportFrom) and node.level == 1 and node.module in LAYERS):
                    continue
                for alias in node.names:
                    key = f"{node.module}.{alias.name}"
                    if key in self.wrappers and getattr(mod, alias.asname or alias.name) is not self.wrappers[key]:
                        raise HarnessError(f"{mod.__name__} imports {key} but was not rebound")

    def _wrap(self, layer, key, fn):
        tracer = self

        def traced(*args, **kwargs):
            return tracer._call(layer, key, fn, args, kwargs)

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def note(self, counter: str, amount: int) -> None:
        """Add to a counter the harness measures itself, such as CLI output bytes."""
        self.count[counter] += amount

    def reset(self) -> None:
        """Drop the spans a failed task left open when its budget interrupted it."""
        self.stack.clear()
        self.active.clear()

    # -- spans ------------------------------------------------------------------

    def _call(self, layer, key, fn, args, kwargs):
        parent = self.stack[-1] if self.stack else None
        outer = parent is None or parent.layer != layer
        count = self.count
        count[key + ".calls"] += 1
        if outer:
            count[layer + ".outer_calls"] += 1
            if layer == "exactq":
                self._count_matrices(args, kwargs, parent)
        if key == "exactq.solve_matrix" and len(args) > 1:
            count["exactq.solve_cols"] += getattr(args[1], "cols", 0)
        homology_outer = key in HOMOLOGY and not any(self.active[k] for k in HOMOLOGY)
        if homology_outer and args:
            count["dgcore.homology_dim_in"] += _total_dim(args[0])
        frame = _Frame(key, layer)
        self.stack.append(frame)
        self.active[key] += 1
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception:
            if outer:
                count[layer + ".errors"] += 1
            raise
        finally:
            dur = perf_counter() - start
            self.active[key] -= 1
            self.stack.pop()
            own = dur - frame.child
            if parent is not None:
                parent.child += dur
            t = self.time
            t[key + ".self"] += own
            t[layer + ".self"] += own
            if outer:
                t[layer + ".busy"] += dur
            if self.active[key] == 0:
                t[key + ".busy"] += dur
            if layer == "exactq":
                if self.active["dgl.to_dgl"]:
                    t["exactq.self_under_to_dgl"] += own
                if self.active["dgcore.sym_invariants"] or any(self.active[k] for k in HOMOLOGY):
                    t["exactq.self_under_dgcore_reductions"] += own
        if key == "dgl.free_lie_basis":
            count["dgl.basis_words"] += sum(len(ms) for ms in result.monomials.values())
        elif key == "dgc.to_dgc":
            count["dgc.basis_words"] += result.underlying.total_dim()
        elif key == "cli.main" and result != 0:
            count["cli.nonzero_exits"] += 1
        return result

    def _count_matrices(self, args, kwargs, parent) -> None:
        for x in list(args) + list(kwargs.values()):
            shape = _matrix_shape(x)
            if shape is not None:
                self.count["exactq.cells_in"] += shape[0]
                self.count["exactq.nnz_in"] += shape[1]
        if parent is not None and parent.key in HOMOLOGY:
            self.count["exactq.calls_from_homology"] += 1

    # -- results ----------------------------------------------------------------

    def metrics(self, timed_s: float) -> dict[str, float]:
        """Per-layer metrics; `timed_s` is the wall time of the traced tasks."""
        c, t = self.count, self.time

        def total(keys, suffix, table):
            return sum(table[k + suffix] for k in keys)

        homology_calls = c["dgcore.homology.calls"]
        out = {
            "exactq.calls": c["exactq.outer_calls"],
            "exactq.cells_in": c["exactq.cells_in"],
            "exactq.nnz_in": c["exactq.nnz_in"],
            "exactq.solve_cols": c["exactq.solve_cols"],
            "exactq.busy_s": t["exactq.busy"],
            "exactq.self_s": t["exactq.self"],
            "exactq.share": t["exactq.self"] / timed_s,
            "exactq.to_dgl_share": t["exactq.self_under_to_dgl"] / timed_s,
            "exactq.dgcore_share": t["exactq.self_under_dgcore_reductions"] / timed_s,
            "exactq.errors": c["exactq.errors"],
            "dgcore.homology_calls": homology_calls,
            "dgcore.homology_dim_in": c["dgcore.homology_dim_in"],
            "dgcore.homology_self_s": total(HOMOLOGY, ".self", t),
            "dgcore.exactq_calls_per_homology": c["exactq.calls_from_homology"] / homology_calls if homology_calls else 0.0,
            "dgcore.quasi_iso_calls": total(QUASI_ISO, ".calls", c),
            "dgcore.sym_invariants_busy_s": t["dgcore.sym_invariants.busy"],
            "dgcore.build_self_s": total(BUILDERS, ".self", t),
            "dgcore.validate_calls": c["dgcore.validate_dg.calls"],
            "dgcore.validate_self_s": total(("dgcore.validate_dg", "dgcore.assert_valid"), ".self", t),
            "dgcore.self_s": t["dgcore.self"],
            "dgcore.errors": c["dgcore.errors"],
            "dgl.basis_words": c["dgl.basis_words"],
            "dgl.to_dgl_calls": c["dgl.to_dgl.calls"],
            "dgl.to_dgl_self_s": t["dgl.to_dgl.self"],
            "dgl.validate_calls": c["dgl.dgl_validate.calls"],
            "dgl.validate_self_s": total(("dgl.dgl_validate", "dgl.assert_valid_dgl"), ".self", t),
            "dgl.self_s": t["dgl.self"],
            "dgl.errors": c["dgl.errors"],
            "dgc.basis_words": c["dgc.basis_words"],
            "dgc.to_dgc_self_s": t["dgc.to_dgc.self"],
            "dgc.validate_calls": c["dgc.dgc_validate.calls"],
            "dgc.validate_self_s": total(("dgc.dgc_validate", "dgc.assert_valid_dgc"), ".self", t),
            "dgc.self_s": t["dgc.self"],
            "dgc.errors": c["dgc.errors"],
            "quillen.calls": c["quillen.outer_calls"],
            "quillen.self_s": t["quillen.self"],
            "quillen.errors": c["quillen.errors"],
            "calculus.calls": c["calculus.outer_calls"],
            "calculus.self_s": t["calculus.self"],
            "calculus.homogeneous_eval_busy_s": t["calculus.homogeneous_eval.busy"],
            "calculus.errors": c["calculus.errors"],
            "cli.parse_s": t["cli.parse_model.busy"],
            "cli.build_s": t["cli.build_model.busy"],
            "cli.emit_s": t["cli.emit_report.busy"],
            "cli.stdout_bytes": c["cli.stdout_bytes"],
            "cli.nonzero_exits": c["cli.nonzero_exits"],
            "validators.share": total(VALIDATORS, ".self", t) / timed_s,
        }
        return out
