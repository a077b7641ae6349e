"""Spans around the public callables of biphase, installed from outside.

``install`` wraps each traced function at every binding site inside the
loaded ``biphase`` modules (``biphase.cli.evolve`` as well as
``biphase.converters.evolve``), so calls between modules are seen without
editing the package.  Spans stay in memory as tuples

    (name, start, end, parent, op, work, key)

where ``parent`` indexes the enclosing span (-1 at the top), ``op`` is the
benchmark operation id, ``work`` a size count (matrices built, samples) and
``key`` identifies the input for repeat detection.  ``summarize`` derives
self times and counts; ``dump`` writes the spans out.
"""

from __future__ import annotations

import functools
import json
import sys
import time

import numpy as np

#: Traced callables: span name -> (module, attribute).
TRACED = {
    "cli.main": ("biphase.cli", "main"),
    "converters.q_stack": ("biphase.converters", "q_stack"),
    "converters.q_matrix": ("biphase.converters", "q_matrix"),
    "converters.evolve": ("biphase.converters", "evolve"),
    "converters.compose": ("biphase.converters", "compose"),
    "converters.eigen": ("biphase.converters", "eigen"),
    "state_space.Curve": ("biphase.state_space", "Curve.__post_init__"),
    "state_space.curve_velocity": ("biphase.state_space", "curve_velocity"),
    "state_space.gauge_transform": ("biphase.state_space", "gauge_transform"),
    "phases.dynamical_phase_numeric": ("biphase.phases", "dynamical_phase_numeric"),
    "phases.geometric_phase": ("biphase.phases", "geometric_phase"),
    "phases.bargmann_limit": ("biphase.phases", "bargmann_limit"),
    "phases.pancharatnam": ("biphase.phases", "pancharatnam"),
    "geodesics.generalized_geodesic_check": ("biphase.geodesics", "generalized_geodesic_check"),
    "geodesics.geodesic_between": ("biphase.geodesics", "geodesic_between"),
    "geodesics.parallel_lift": ("biphase.geodesics", "parallel_lift"),
    "geodesics.curve_length": ("biphase.geodesics", "curve_length"),
    "geodesics.geodesic_residual": ("biphase.geodesics", "geodesic_residual"),
    "geodesics.horizontality_residual": ("biphase.geodesics", "horizontality_residual"),
}


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _work_and_key(name: str, args, kwargs) -> tuple[int, object]:
    """Size count and repeat key of one call, read from its arguments."""
    if name == "converters.q_stack":
        return int(np.size(_arg(args, kwargs, 0, "deltas"))), None
    if name == "converters.evolve":
        spec, state, n = _arg(args, kwargs, 0, "spec"), _arg(args, kwargs, 1, "state"), _arg(args, kwargs, 2, "n")
        return int(n), (spec.delta, spec.chi, state.amplitudes.tobytes(), n)
    if name == "state_space.curve_velocity":
        return len(_arg(args, kwargs, 0, "curve")), None
    if name == "geodesics.generalized_geodesic_check":
        grid = np.asarray(_arg(args, kwargs, 1, "delta_grid"), dtype=float)
        return 0, (float(_arg(args, kwargs, 0, "chi")), grid.tobytes(), kwargs.get("method", "fd"))
    return 0, None


class Tracer:
    """In-memory span recorder; records only while ``active`` is set."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.active = False
        self.op = -1
        self.indeterminate = 0
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def wrap(self, name: str, fn):
        tracer = self
        indeterminate = sys.modules["biphase.errors"].IndeterminatePhaseError

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            work, key = _work_and_key(name, args, kwargs)
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except indeterminate as exc:
                if not getattr(exc, "_bench_counted", False):
                    exc._bench_counted = True
                    tracer.indeterminate += 1
                raise
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[index] = (name, start, end, parent, tracer.op, work, key)

        return traced

    def install(self) -> None:
        """Replace every binding of each traced callable in the loaded biphase modules."""
        modules = [m for n, m in list(sys.modules.items()) if n == "biphase" or n.startswith("biphase.")]
        for name, (module_name, attr) in TRACED.items():
            home = sys.modules[module_name]
            if "." in attr:
                owner_name, method = attr.split(".")
                owner = getattr(home, owner_name)
                original = owner.__dict__[method]
                self._restore.append((owner, method, original))
                setattr(owner, method, self.wrap(name, original))
                continue
            original = getattr(home, attr)
            wrapper = self.wrap(name, original)
            for module in modules:
                for binding, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, binding, original))
                        setattr(module, binding, wrapper)

    def uninstall(self) -> None:
        for owner, binding, original in reversed(self._restore):
            setattr(owner, binding, original)
        self._restore.clear()

    def add_span(self, name: str, start: float, end: float) -> None:
        """Record a span measured outside the wrappers, such as an import."""
        self.spans.append((name, start, end, -1, self.op, 0, None))

    def dump(self, path: str) -> None:
        rows = [[*span[:6], None if span[6] is None else repr(span[6])] for span in self.spans]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "work", "key"], "spans": rows,
                       "indeterminate": self.indeterminate}, handle)


def load(path: str) -> tuple[list[tuple], int]:
    """Spans and the indeterminate-phase count written by ``Tracer.dump``."""
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    return [tuple(row) for row in data["spans"]], data["indeterminate"]


def summarize(spans: list[tuple]) -> dict[str, dict[str, float]]:
    """Per span name: calls, self seconds, work, and calls repeating an earlier key in their op.

    Self time is a span's duration minus the durations of its direct
    children; spans nest on one thread, so children never overlap.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            child[parent] += end - start
    totals: dict[str, dict[str, float]] = {}
    seen: set = set()
    for i, (name, start, end, parent, op, work, key) in enumerate(spans):
        row = totals.setdefault(name, {"calls": 0, "self_s": 0.0, "work": 0, "repeats": 0})
        row["calls"] += 1
        row["self_s"] += end - start - child[i]
        row["work"] += work
        if key is not None:
            if (name, op, key) in seen:
                row["repeats"] += 1
            seen.add((name, op, key))
    return totals


def merge(into: dict, more: dict) -> dict:
    for name, row in more.items():
        target = into.setdefault(name, {"calls": 0, "self_s": 0.0, "work": 0, "repeats": 0})
        for field, value in row.items():
            target[field] += value
    return into
