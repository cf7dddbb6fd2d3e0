"""Spans around huntrab's layer boundaries, recorded from outside the package.

``Tracer.install`` wraps the public functions listed in ``WRAPPED`` in every
huntrab module namespace that binds them, so calls made through a by-name
import (``nesting`` imports ``min_neighborhood_union`` and ``union_surplus``
from ``solver``) are seen as well as calls through the defining module.
Each span keeps its name, start, end, parent index and a few counters read
from the wrapped function's result.  Spans stay in memory until the
benchmark writes them out at the end.

A span's self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (module, function) -> layer.  A layer's self time sums the self time of
# its functions' spans.
WRAPPED = {
    ("cli", "main"): "cli",
    ("graphs", "read_graph"): "graphs",
    ("solver", "hunter_number"): "solver.solve",
    ("solver", "can_clear"): "solver.search",
    ("solver", "lower_bound_union"): "solver.bound",
    ("solver", "lower_bound_degeneracy"): "solver.bound",
    ("solver", "union_surplus"): "solver.bound",
    ("solver", "min_neighborhood_union"): "solver.bound",
    ("nesting", "check_isoperimetric_nesting"): "nesting",
    ("nesting", "check_closed_nesting"): "nesting",
    ("nesting", "nest_strategy"): "nesting",
    ("dynamics", "verify"): "dynamics",
    ("cube", "cube_deaf_surplus"): "cube.deaf_scan",
    ("cube", "arrow_max_scan"): "cube.arrow_scan",
    ("cube", "cube_surplus"): "cube.profile",
    ("cube", "cube_diff_seq"): "cube.profile",
}

# The layers that the per-layer metrics report, in order.
LAYERS = ("solver.search", "solver.bound", "solver.solve", "nesting", "dynamics",
          "cube.deaf_scan", "cube.arrow_scan", "cube.profile", "cli", "graphs")

# Every metric layer_metrics returns, with its unit.  Times are in
# calibration units ("cal", see perfbench/run.py), like the end-to-end ones.
UNITS = {
    **{f"{layer}.self_cal": "cal" for layer in LAYERS},
    "solver.search.calls": "count",
    "solver.search.states_expanded": "count",
    "solver.search.states_per_cal": "1/cal",
    "solver.search.blocked_calls": "count",
    "solver.search.blocked_cal": "cal",
    "solver.bound.calls": "count",
    "solver.bound.tight_ratio": "ratio",
    "nesting.calls": "count",
    "dynamics.calls": "count",
    "dynamics.rounds": "count",
    "cube.calls": "count",
}

_NAME, _START, _END, _PARENT, _COUNTERS = range(5)


def _counters(name: str, args: tuple, kwargs: dict, result) -> dict | None:
    """Work counts read from a wrapped call's arguments and result."""
    if name == "solver.can_clear":
        return {"explored": result.explored, "blocked": result.status == "blocked"}
    if name == "solver.hunter_number":
        return {"tight": result.lower_bound_used == result.hunter_number}
    if name == "dynamics.verify":
        strategy = args[1] if len(args) > 1 else kwargs["strategy"]
        return {"rounds": len(strategy)}
    return None


class Tracer:
    """Wraps the functions in ``WRAPPED`` while installed.  ``spans`` holds
    [name, start, end, parent index or -1, counters or None] lists.

    The functions are looked up when the tracer is made, so make it after
    the huntrab modules to be traced are imported.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "huntrab" or key.startswith("huntrab."))]
        # (namespace, attribute, original, wrapper) for every binding
        self._bindings: list[tuple[object, str, object, object]] = []
        for module_name, function in WRAPPED:
            original = getattr(sys.modules.get(f"huntrab.{module_name}"), function, None)
            if original is None:
                print(f"perfbench: huntrab.{module_name}.{function} not found; "
                      "its layer reads 0", file=sys.stderr)
                continue
            traced = self._wrap(f"{module_name}.{function}", original)
            self._bindings += [(module, function, original, traced) for module in modules
                               if getattr(module, function, None) is original]

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[_END] = clock()
                stack.pop()
            span[_COUNTERS] = _counters(name, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for module, function, _original, traced in self._bindings:
            setattr(module, function, traced)

    def uninstall(self) -> None:
        for module, function, original, _traced in self._bindings:
            setattr(module, function, original)

    def mark(self) -> int:
        """Position in the span list; pass it to ``layer_metrics`` later."""
        return len(self.spans)

    def dump(self) -> list[dict]:
        return [{"name": s[_NAME], "start": s[_START], "end": s[_END], "parent": s[_PARENT],
                 **({"counters": s[_COUNTERS]} if s[_COUNTERS] else {})} for s in self.spans]


def layer_metrics(spans: list[list], cal: float, begin: int = 0,
                  end: int | None = None) -> dict[str, float]:
    """Per-layer metrics over spans[begin:end], which must hold whole call
    trees; times are divided by ``cal``, the calibration time in seconds."""
    window = spans[begin:end]
    self_s: dict[str, float] = defaultdict(float)
    child_s = [0.0] * len(window)
    for s in window:
        if s[_PARENT] >= begin:
            child_s[s[_PARENT] - begin] += s[_END] - s[_START]
    calls: dict[str, int] = defaultdict(int)
    explored = blocked_calls = solves = tight = rounds = 0
    blocked_s = 0.0
    for s, children in zip(window, child_s):
        name = s[_NAME]
        layer = WRAPPED[tuple(name.split(".", 1))]
        self_s[layer] += s[_END] - s[_START] - children
        calls[name] += 1
        counters = s[_COUNTERS] or {}
        explored += counters.get("explored", 0)
        rounds += counters.get("rounds", 0)
        if counters.get("blocked"):
            blocked_calls += 1
            blocked_s += s[_END] - s[_START]
        if name == "solver.hunter_number":
            solves += 1
            tight += counters.get("tight", False)
    search_cal = self_s["solver.search"] / cal
    metrics = {f"{layer}.self_cal": self_s[layer] / cal for layer in LAYERS}
    metrics.update({
        "solver.search.calls": calls["solver.can_clear"],
        "solver.search.states_expanded": explored,
        "solver.search.states_per_cal": explored / search_cal if search_cal > 0 else 0.0,
        "solver.search.blocked_calls": blocked_calls,
        "solver.search.blocked_cal": blocked_s / cal,
        "solver.bound.calls": calls["solver.min_neighborhood_union"],
        "solver.bound.tight_ratio": tight / solves if solves else 0.0,
        "nesting.calls": sum(calls[f"nesting.{f}"] for m, f in WRAPPED if m == "nesting"),
        "dynamics.calls": calls["dynamics.verify"],
        "dynamics.rounds": rounds,
        "cube.calls": sum(calls[f"cube.{f}"] for m, f in WRAPPED if m == "cube"),
    })
    return metrics
