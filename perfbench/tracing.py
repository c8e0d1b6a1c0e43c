"""Span tracing of modham's public functions, installed from outside.

``Tracer.install`` replaces every public function (and every public method of
a public class) defined in the traced modules by a wrapper, in every
``modham`` namespace that binds it, so calls through ``modham.build_flow``,
``modham.runner.build_flow`` and ``modham.flow.build_flow`` all record a
span.  ``Tracer.uninstall`` puts the original objects back, so untraced
rounds run the unmodified package.  The package source is not edited.

A span is ``(name, start, end, parent, op_id)``; spans stay in memory until
the run ends.  A span's self time is its duration minus the time covered by
its direct children (calls are nested and single-threaded, so children never
overlap each other).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

# modham.oracles validates results and does not produce them: not timed.
LAYERS = (
    "lattice",
    "regions",
    "kernels",
    "_linalg",
    "subspace",
    "flow",
    "crosscheck",
    "runner",
    "config",
    "cli",
)

QUAD_FUNCTION = "subspace.lndelta_resolvent_quadrature"


def metric_prefix(name: str) -> str:
    """Metric names must start with a letter: ``_linalg`` reports as ``linalg``."""
    return name.lstrip("_")


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self.op_id = 0
        self.quad_evals = 0
        self._patches: list = []

    # -- installation -----------------------------------------------------

    def _wrap(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [name, time.perf_counter(), 0.0, parent, tracer.op_id]
            tracer.spans.append(span)
            tracer._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._stack.pop()
                span[2] = time.perf_counter()
            if name == QUAD_FUNCTION:
                tracer.quad_evals += int(result.n_evals)
            return result

        return traced

    def install(self) -> None:
        if self._patches:
            return
        modules = {layer: importlib.import_module(f"modham.{layer}") for layer in LAYERS}
        namespaces = [
            mod
            for key, mod in sorted(sys.modules.items())
            if mod is not None and (key == "modham" or key.startswith("modham."))
        ]
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapper = self._wrap(obj, f"{layer}.{attr}")
                    for ns in namespaces:
                        for bound, value in list(vars(ns).items()):
                            if value is obj:
                                self._patches.append((ns, bound, obj))
                                setattr(ns, bound, wrapper)
                elif inspect.isclass(obj):
                    self._wrap_methods(obj, f"{layer}.{attr}")

    def _wrap_methods(self, cls, prefix: str) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(raw.__func__, f"{prefix}.{attr}"))
            elif inspect.isfunction(raw):
                wrapped = self._wrap(raw, f"{prefix}.{attr}")
            else:
                continue
            self._patches.append((cls, attr, raw))
            setattr(cls, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis ---------------------------------------------------------

    def self_times(self, first: int, last: int):
        """Per-name ``(self seconds, calls, span seconds)`` over spans ``first:last``."""
        child_time = [0.0] * (last - first)
        for span in self.spans[first:last]:
            parent = span[3]
            if parent >= first:
                child_time[parent - first] += span[2] - span[1]
        totals: dict = {}
        for offset, span in enumerate(self.spans[first:last]):
            duration = span[2] - span[1]
            seconds, calls, inclusive = totals.get(span[0], (0.0, 0, 0.0))
            totals[span[0]] = (seconds + duration - child_time[offset], calls + 1, inclusive + duration)
        return totals
