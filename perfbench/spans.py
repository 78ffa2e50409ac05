"""Spans around the program's public entry points, recorded from outside.

The traced pass wraps a fixed set of functions and methods of the
program (see ``WRAPPED``) in :class:`Spans` timers.  Nothing inside the
program is switched on: in particular ``repro.obs`` stays inactive, so
the warping engine keeps its leaf-batch fast path and the traced pass
runs the same code as the timed one, plus the wrappers.

Per-access functions (``Cache.access``, ``SymbolicCache.access``) are
deliberately not wrapped; their cost is the engine span's self time.
"""

from __future__ import annotations

import functools
import time
from typing import Dict, List

#: (module, owner attribute or None, function, span name).  An owner of
#: None wraps a module-level function; the program resolves these lazily
#: (``from repro.simulation import simulate_warping`` inside a call), so
#: patching the module attribute reaches every caller.
WRAPPED = [
    ("repro.explore.runner", None, "simulate_point", "explore.point"),
    ("repro.simulation", None, "simulate_warping", "warping.engine"),
    ("repro.polybench", None, "build_kernel", "polybench.build"),
    ("repro.transform", None, "apply_pipeline", "transform.apply"),
    ("repro.simulation.symbolic", "SymbolicCache", "snapshot_key",
     "warping.match_key"),
    ("repro.simulation.symbolic", "SymbolicCache", "apply_rotation",
     "warping.rotation"),
    ("repro.isl.ilp", "IlpProblem", "solve_lp", "ilp.solve"),
    ("repro.isl.ilp", "IlpProblem", "solve_ilp", "ilp.solve"),
] + [
    ("repro.isl.sets", owner, method, name)
    for owner, name in (("BasicSet", "isl.query"), ("Set", "isl.union"))
    for method in ("is_empty", "sample", "min_of", "max_of", "range_of",
                   "lexmin", "lexmax")
]


def layer_of(name: str) -> str:
    """The layer of a span name: the name itself, except that the
    ``BasicSet`` queries and the ``Set`` unions that delegate to them
    form the one layer "isl"."""
    return "isl" if name.startswith("isl.") else name


class Spans:
    """In-memory span aggregates, one id per root span (simulation).

    For every span name: calls, time (only spans with no ancestor of the
    same layer, so nested calls are not counted twice) and self time
    (duration minus the direct child spans).  The same aggregates are
    kept per root span; the root is labelled by the caller with the
    input it simulated.
    """

    def __init__(self):
        self._stack: List[list] = []
        self._patched: List[tuple] = []
        self.totals: Dict[str, List[float]] = {}
        self.roots: List[dict] = []

    def _enter(self, name: str) -> None:
        layer = layer_of(name)
        if not self._stack:
            self.roots.append({"root": name, "input": None, "spans": {}})
        nested = any(entry[1] == layer for entry in self._stack)
        self._stack.append([name, layer, nested, 0.0,
                            time.perf_counter()])

    def _exit(self) -> None:
        end = time.perf_counter()
        name, _, nested, child, start = self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][3] += duration
        for table in (self.totals, self.roots[-1]["spans"]):
            row = table.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            if not nested:
                row[1] += duration
            row[2] += duration - child

    def _wrapper(self, func, name):
        enter, leave = self._enter, self._exit

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            enter(name)
            try:
                return func(*args, **kwargs)
            finally:
                leave()

        return wrapper

    def install(self) -> None:
        """Wrap every entry of ``WRAPPED`` (imports the modules)."""
        import importlib

        for module_name, owner_name, attr, name in WRAPPED:
            module = importlib.import_module(module_name)
            owner = (getattr(module, owner_name) if owner_name
                     else module)
            func = getattr(owner, attr)
            setattr(owner, attr, self._wrapper(func, name))
            self._patched.append((owner, attr, func))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, func = self._patched.pop()
            setattr(owner, attr, func)

    def label_last_root(self, input_id: str) -> None:
        if self.roots and self.roots[-1]["input"] is None:
            self.roots[-1]["input"] = input_id
