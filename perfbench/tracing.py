"""Span tracing wrapped around invlag's public functions from outside.

``Tracer.install`` replaces every public function of the seven modules
wherever the package binds it (``from .geometry import connection`` in
``conditions`` makes a second binding that must be wrapped too), and
the working methods of ``Expr``. Nothing under ``src/`` changes; the
wrappers are removed again by ``Tracer.uninstall``.

Spans of the six outer layers (cli, geometry, conditions, solver,
reconstruct, numeric) are kept one by one: name, start, end, parent
index and op id. ``Expr`` calls are far too many to keep singly, so an
``Expr`` call made from outside ``exprcore`` is timed and added to its
parent span's child time and to per-op totals, and ``Expr`` calls made
from inside ``exprcore`` (``__sub__`` calling ``__add__``, the parser
building its result) are not traced at all: they are the layer's own
work. The cheap predicates (``is_zero``, ``__eq__``, ``__hash__``,
``depends_on`` and the like) stay unwrapped, because a wrapper would
cost more than the call; their time stays in the caller's self time.

A span's self time is its duration minus the time of its children,
``Expr`` calls included.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from typing import Dict, List, Optional

LAYERS = ("cli", "geometry", "conditions", "solver", "reconstruct",
          "numeric")

# Expr methods and exprcore functions -> the counter they feed.
EXPR_METHODS = {
    "__add__": "arith", "__radd__": "arith", "__sub__": "arith",
    "__rsub__": "arith", "__mul__": "arith", "__rmul__": "arith",
    "__truediv__": "arith", "__rtruediv__": "arith", "__pow__": "arith",
    "__neg__": "arith", "diff": "diff", "subst": "subst",
    "eval_num": "eval", "integrate_poly": "other",
    "homogeneous_parts": "other", "numerator_expr": "other",
    "denominator_expr": "other", "as_fraction": "other",
}
EXPR_FUNCTIONS = {"parse": "parse", "to_text": "to_text", "convert": "other",
                  "diff": "diff", "subst": "subst", "eval_num": "eval",
                  "integrate_poly": "other"}
EXPR_KINDS = ("parse", "to_text", "arith", "diff", "subst", "eval", "other")

# Span name -> the self-time metric it feeds. Names not listed feed
# "<layer>.other_s".
SELF_METRICS = {
    "cli.load_problem": "cli.load_s", "cli.resolve_input": "cli.load_s",
    "cli.render_text": "cli.render_s",
    "geometry.connection": "geometry.connection_s",
    "geometry.jacobi": "geometry.jacobi_s",
    "geometry.curvature": "geometry.curvature_s",
    "geometry.theta_tensor": "geometry.theta_s",
    "geometry.matrix_det": "geometry.matrix_det_s",
    "conditions.nonsingularity_record": "conditions.nonsingularity_s",
    "solver.assemble": "solver.assemble_s",
    "solver.solve": "solver.solve_s",
    "solver.find_nonsingular": "solver.find_nonsingular_s",
    "reconstruct.reconstruct_dissipative": "reconstruct.reconstruct_s",
    "reconstruct.reconstruct_gyroscopic": "reconstruct.reconstruct_s",
    "reconstruct.vertical_homotopy2": "reconstruct.reconstruct_s",
    "reconstruct.base_homotopy": "reconstruct.reconstruct_s",
}
LAYER_DEFAULT = {"cli": "cli.self_s", "conditions": "conditions.check_s",
                 "numeric": "numeric.crosscheck_s",
                 "reconstruct": "reconstruct.verify_s"}


COUNTS = ("conditions.cells", "geometry.matrix_det_calls", "solver.rows",
          "solver.unknowns", "solver.candidates", "solver.representatives",
          "numeric.cells_checked")
MAXIMA = ("exprcore.result_terms_max", "conditions.residual_terms_max")


def _self_metric(name: str) -> str:
    metric = SELF_METRICS.get(name)
    if metric is not None:
        return metric
    layer = name.split(".", 1)[0]
    return LAYER_DEFAULT.get(layer, f"{layer}.other_s")


def _terms(expr) -> int:
    return len(expr.num) + len(expr.den)


class Tracer:
    """Spans and counters for one traced pass, kept in memory."""

    def __init__(self):
        self.spans: List[tuple] = []   # (name, start, end, parent, op, self)
        self.stack: List[list] = []    # [name, start, child_time, index]
        self.op: Optional[int] = None
        self.in_expr = False
        self.expr_calls = defaultdict(int)
        self.expr_time = defaultdict(float)
        self.expr_by_op: Dict[int, Dict[str, list]] = {}
        self.counts = defaultdict(int)
        self.maxima = defaultdict(int)
        self._patches: List[tuple] = []

    # -- recording -------------------------------------------------------

    def _span(self, name, fn, args, kwargs):
        index = len(self.spans)
        self.spans.append(None)
        frame = [name, time.perf_counter(), 0.0, index]
        self.stack.append(frame)
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.stack.pop()
            duration = end - frame[1]
            parent = self.stack[-1] if self.stack else None
            if parent is not None:
                parent[2] += duration
            self.spans[index] = (name, frame[1], end,
                                 parent[3] if parent else None, self.op,
                                 duration - frame[2])
        self._observe(name, parent, result)
        return result

    def _expr(self, kind, fn, args, kwargs):
        if self.in_expr or not self.stack:
            return fn(*args, **kwargs)
        self.in_expr = True
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - start
            self.in_expr = False
            self.stack[-1][2] += duration
            self.expr_calls[kind] += 1
            self.expr_time[kind] += duration
            per_op = self.expr_by_op.setdefault(self.op, {})
            entry = per_op.setdefault(kind, [0, 0.0])
            entry[0] += 1
            entry[1] += duration
        if hasattr(result, "num") and hasattr(result, "den"):
            terms = _terms(result)
            if terms > self.maxima["exprcore.result_terms_max"]:
                self.maxima["exprcore.result_terms_max"] = terms
        return result

    def _observe(self, name, parent, result):
        """Sizes read off the values crossing a layer boundary."""
        from_outside = parent is None or \
            parent[0].split(".", 1)[0] != name.split(".", 1)[0]
        if name.startswith("conditions.check_") and from_outside:
            self.counts["conditions.cells"] += len(result.cells)
            for cell in result.cells:
                terms = _terms(cell.residual)
                if terms > self.maxima["conditions.residual_terms_max"]:
                    self.maxima["conditions.residual_terms_max"] = terms
        elif name == "geometry.matrix_det":
            self.counts["geometry.matrix_det_calls"] += 1
        elif name == "solver.assemble":
            self.counts["solver.rows"] += len(result.rows)
            self.counts["solver.unknowns"] += len(result.unknowns)
        elif name == "solver.instantiate" and parent is not None \
                and parent[0] == "solver.find_nonsingular":
            self.counts["solver.candidates"] += 1
        elif name == "solver.find_nonsingular" and result is not None:
            self.counts["solver.representatives"] += 1
        elif name == "numeric.crosscheck_cells":
            self.counts["numeric.cells_checked"] += result["cells_checked"]

    # -- installing the wrappers -----------------------------------------

    def _plan(self, package: str):
        """Every (owner, attribute, original, wrapper) to swap."""
        import importlib
        modules = {name: importlib.import_module(f"{package}.{name}")
                   for name in ("exprcore",) + LAYERS}
        wrappers = {}
        for layer in LAYERS:
            module = modules[layer]
            for attr, value in vars(module).items():
                if (attr.startswith("_") or not callable(value)
                        or isinstance(value, type)
                        or getattr(value, "__module__", None)
                        != module.__name__):
                    continue
                wrappers[id(value)] = self._span_wrapper(
                    f"{layer}.{attr}", value)
        exprcore = modules["exprcore"]
        for attr, kind in EXPR_FUNCTIONS.items():
            value = vars(exprcore)[attr]
            wrappers[id(value)] = self._expr_wrapper(kind, value)
        plan = []
        for module in list(modules.values()) + [sys.modules[package]]:
            for attr, value in vars(module).items():
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    plan.append((module, attr, value, wrapper))
        for attr, kind in EXPR_METHODS.items():
            method = exprcore.Expr.__dict__[attr]
            plan.append((exprcore.Expr, attr, method,
                         self._expr_wrapper(kind, method)))
        return plan

    def install(self, package: str = "invlag"):
        if not self._patches:
            self._patches = self._plan(package)
        for owner, attr, _original, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _wrapper in self._patches:
            setattr(owner, attr, original)

    def _span_wrapper(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._span(name, fn, args, kwargs)
        return traced

    def _expr_wrapper(self, kind, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._expr(kind, fn, args, kwargs)
        return traced

    # -- results ---------------------------------------------------------

    def metrics(self) -> Dict[str, float]:
        """Per-layer totals over every span recorded."""
        out: Dict[str, float] = dict.fromkeys(
            [*SELF_METRICS.values(), *LAYER_DEFAULT.values(),
             *(f"{layer}.other_s" for layer in LAYERS)], 0.0)
        for name, _start, _end, _parent, _op, self_time in self.spans:
            out[_self_metric(name)] += self_time
        for kind in EXPR_KINDS:
            out[f"exprcore.{kind}_calls"] = self.expr_calls[kind]
            out[f"exprcore.{kind}_s"] = self.expr_time[kind]
        for name in COUNTS:
            out[name] = self.counts[name]
        for name in MAXIMA:
            out[name] = self.maxima[name]
        return out

    def inclusive(self, name: str, op: Optional[int] = None) -> float:
        """Total time inside outermost spans called ``name``, over every
        op or over one."""
        total = 0.0
        inside = set()
        for index, span in enumerate(self.spans):
            if op is not None and span[4] != op:
                continue
            if span[0] == name and span[3] not in inside:
                total += span[2] - span[1]
            if span[0] == name or span[3] in inside:
                inside.add(index)
        return total

    def dump(self, path: str, ops: List[str]):
        """Write every span and the per-op ``Expr`` totals as JSON."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"ops": ops,
                       "span_fields": ["name", "start", "end", "parent",
                                       "op", "self_s"],
                       "spans": self.spans,
                       "expr_by_op": {str(k): v for k, v in
                                      self.expr_by_op.items()}},
                      handle)
