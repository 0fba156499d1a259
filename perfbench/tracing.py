"""Spans at persym's module boundaries, recorded from outside the program.

``Tracer.install`` wraps every function, class constructor and public method
of the traced layers.  A wrapper records a span only when its caller lives in
another traced layer or in the benchmark itself, so a span marks one call
across a layer boundary; calls inside a layer pass straight through and count
as that layer's self time.  Properties and dunder methods other than
``__init__`` and ``__call__`` are not wrapped.  Spans stay in memory as
``(name, layer, start, end, parent, op)`` tuples until the run ends.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time
from contextlib import contextmanager

LAYERS = ("grid", "rearrange", "kernels", "functionals", "seminorm", "verify")
SPAN_FIELDS = ("name", "layer", "start", "end", "parent", "op")

# Calls into kernels that build a weight table, a heat stack or a quadrature
# rule (everything else in kernels looks up, expands or applies a table).
BUILDERS = frozenset(
    "kernels." + name
    for name in (
        "riesz_weights_1d", "riesz_weights_nd", "heat_weights_periodic",
        "gaussian_weights_interval", "step_kernel_table", "laplace_quadrature",
        "_heat_table_batch", "_gauss_pair_integral", "_erfc_antideriv",
        "HeatKernel.weights", "PeriodizedRieszKernel.weights", "StepKernelCircle.weights",
        "GaussianKernel.weights", "StepKernelLine.weights",
    )
)
_DUNDERS = ("__init__", "__call__")
BENCH_MODULES = ("workloads",)  # the benchmark's modules that call persym


class Tracer:
    """Installs and removes the boundary wrappers; owns the recorded spans."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.op = -1
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self._callers = {f"persym.{layer}" for layer in LAYERS} | set(BENCH_MODULES)

    def _wrap(self, fn, name: str, layer: str):
        home = f"persym.{layer}"
        callers, spans, stack = self._callers, self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            caller = sys._getframe(1).f_globals.get("__name__")
            if caller == home or caller not in callers:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx] = (name, layer, start, clock(), parent, self.op)
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def _set(self, target, attr: str, value) -> None:
        self._undo.append((target, attr, target.__dict__[attr]))
        setattr(target, attr, value)

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"persym.{layer}") for layer in LAYERS}
        originals = {}  # id(original function) -> wrapper
        exported = set()  # ids bound in a module other than their own
        for mod in modules.values():
            for obj in vars(mod).values():
                if callable(obj) and getattr(obj, "__module__", mod.__name__) != mod.__name__:
                    exported.add(id(obj))
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, type):
                    if not issubclass(obj, BaseException):
                        self._wrap_class(obj, layer)
                elif callable(obj) and (not name.startswith("_") or id(obj) in exported):
                    originals[id(obj)] = self._wrap(obj, f"{layer}.{name}", layer)
        for mod in [importlib.import_module("persym"), *modules.values()]:
            for name, obj in list(vars(mod).items()):
                wrapper = originals.get(id(obj))
                if wrapper is not None:
                    self._set(mod, name, wrapper)

    def _wrap_class(self, cls: type, layer: str) -> None:
        for attr, val in list(vars(cls).items()):
            if attr.startswith("_") and attr not in _DUNDERS:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(val, (classmethod, staticmethod)):
                self._set(cls, attr, type(val)(self._wrap(val.__func__, name, layer)))
            elif callable(val) and not isinstance(val, type):
                self._set(cls, attr, self._wrap(val, name, layer))

    def uninstall(self) -> None:
        while self._undo:
            target, attr, original = self._undo.pop()
            setattr(target, attr, original)

    @contextmanager
    def op_span(self, op_id: int, name: str):
        """Root span of one op; the layer spans it causes share its op id."""
        self.op = op_id
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans[idx] = (name, "op", start, time.perf_counter(), -1, op_id)
            self._stack.pop()


# ---------------------------------------------------------------------------
# analysis


def _children(spans):
    kids = [[] for _ in spans]
    for i, sp in enumerate(spans):
        if sp[4] >= 0:
            kids[sp[4]].append(i)
    return kids


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    kids = _children(spans)
    out = []
    for i, (_, _, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for a, b in sorted((spans[k][2], spans[k][3]) for k in kids[i]):
            a, b = max(a, reach), min(b, end)
            if b > a:
                covered += b - a
                reach = b
        out.append((end - start) - covered)
    return out


def _enters_build(spans, kids) -> list[bool]:
    """Whether each span is, or has below it, a kernels build."""
    out = [False] * len(spans)
    for i in range(len(spans) - 1, -1, -1):  # children start after their parent
        out[i] = spans[i][0] in BUILDERS or any(out[k] for k in kids[i])
    return out


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer counts and times of one traced pass (values only, no units)."""
    kids = _children(spans)
    selfs = self_times(spans)
    builds = _enters_build(spans, kids)
    m: dict[str, float] = {}
    for layer in LAYERS:
        idx = [i for i, sp in enumerate(spans) if sp[1] == layer]
        m[f"{layer}.calls"] = len(idx)
        m[f"{layer}.self_s"] = sum(selfs[i] for i in idx)
    # outermost builds only, so that a build inside a build is timed once
    outer = [i for i, sp in enumerate(spans) if sp[0] in BUILDERS
             and not _has_build_ancestor(spans, i)]
    m["kernels.builds"] = sum(1 for sp in spans if sp[0] in BUILDERS)
    m["kernels.build_s"] = sum(spans[i][3] - spans[i][2] for i in outer)
    semi = [i for i, sp in enumerate(spans) if sp[1] == "seminorm"]
    warm = [spans[i][3] - spans[i][2] for i in semi if not builds[i]]
    m["seminorm.cache_hit_ratio"] = len(warm) / len(semi) if semi else 0.0
    m["seminorm.warm_call_p50_ms"] = 1e3 * statistics.median(warm) if warm else 0.0
    m["verify.classify_s"] = sum(
        sp[3] - sp[2] for sp in spans if sp[0] == "verify.classify_equality"
    )
    return m


def _has_build_ancestor(spans, i: int) -> bool:
    p = spans[i][4]
    while p >= 0:
        if spans[p][0] in BUILDERS:
            return True
        p = spans[p][4]
    return False


def seminorm_calls(spans) -> list[dict]:
    """Every call into seminorm: its op, name, whether it entered a kernels
    build, and whether the benchmark made it directly (one route of an op)."""
    builds = _enters_build(spans, _children(spans))
    return [
        {"op": sp[5], "name": sp[0], "built": builds[i],
         "from_op": sp[4] >= 0 and spans[sp[4]][1] == "op"}
        for i, sp in enumerate(spans)
        if sp[1] == "seminorm"
    ]
