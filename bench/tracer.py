"""Spans around the package's public functions, recorded from outside it.

``Tracer.install`` replaces every public function, method and property of
the traced modules by a wrapper that records one span per call: name,
start, end and the span it was called from.  A function bound under more
than one module (``from .geometry import weighted_sup`` gives ``evolve``
and ``asymptotics`` their own binding) is replaced in every module that
binds it, and inside module-level tuples such as
``selftest.ALL_CRITERIA``.  Spans are kept in flat in-memory arrays and
only aggregated (or dumped) when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array

TRACED_MODULES = ("closedform", "affine", "geometry", "linop", "evolve",
                  "asymptotics", "selftest", "cli", "reporting")

# grid size of a call, for the per-call metrics labelled by N
SIZED = {
    "evolve.step_nonlinear": lambda a, k: a[0].w.grid.count,
    "linop.step_linear": lambda a, k: a[0].grid.count,
    "linop.top_eigenvalues": lambda a, k: a[0].grid.count,
    "linop.assemble": lambda a, k: (a[2] if len(a) > 2 else k["grid"]).count,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.size = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def __len__(self):
        return len(self.start)

    def wrap(self, fn, name: str):
        nid = self._name_ids.setdefault(name, len(self._name_ids))
        if nid == len(self.names):
            self.names.append(name)
        sized = SIZED.get(name)
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def span(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1])
            self.size.append(sized(args, kwargs) if sized else 0)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()

        return span

    def _set(self, owner, attr: str, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, package) -> "Tracer":
        """Wrap the public callables of TRACED_MODULES in every binding."""
        prefix = package.__name__ + "."
        modules = [m for n, m in sys.modules.items()
                   if n.startswith(prefix) and m is not None]
        wrapped: dict[int, object] = {}
        for short in TRACED_MODULES:
            mod = sys.modules[prefix + short]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = self.wrap(obj, f"{short}.{attr}")
                elif inspect.isclass(obj):
                    self._wrap_class(obj, f"{short}.{attr}")
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    self._set(mod, attr, wrapped[id(obj)])
                elif isinstance(obj, tuple) and any(id(o) in wrapped for o in obj):
                    self._set(mod, attr, tuple(wrapped.get(id(o), o) for o in obj))
        return self

    def _wrap_class(self, cls, qual: str):
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(obj, property) and obj.fget is not None:
                self._set(cls, attr, property(self.wrap(obj.fget, f"{qual}.{attr}"),
                                              obj.fset, obj.fdel, obj.__doc__))
            elif inspect.isfunction(obj):
                self._set(cls, attr, self.wrap(obj, f"{qual}.{attr}"))

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def dump(self, path: str):
        """Write every span as one JSON object per line."""
        with open(path, "w") as fh:
            for i in range(len(self)):
                fh.write(json.dumps({
                    "id": i, "name": self.names[self.name[i]],
                    "parent": self.parent[i], "start": self.start[i],
                    "end": self.end[i], "N": self.size[i] or None}) + "\n")


class SpanStats:
    """Per-name aggregates of a finished trace (numpy at analysis time only)."""

    def __init__(self, tracer: Tracer):
        import numpy as np
        self.np = np
        self.names = tracer.names
        self.name = np.frombuffer(tracer.name, dtype=np.int32)
        self.parent = np.frombuffer(tracer.parent, dtype=np.int32)
        self.size = np.frombuffer(tracer.size, dtype=np.int32)
        self.dur = (np.frombuffer(tracer.end, dtype=np.float64)
                    - np.frombuffer(tracer.start, dtype=np.float64))
        child = np.zeros_like(self.dur)
        has_parent = self.parent >= 0
        np.add.at(child, self.parent[has_parent], self.dur[has_parent])
        self.self_time = self.dur - child

    def mask(self, name: str):
        if name not in self.names:
            return self.np.zeros(self.name.size, dtype=bool)
        return self.name == self.names.index(name)

    def calls(self, name: str) -> int:
        return int(self.mask(name).sum())

    def total(self, name: str) -> float:
        return float(self.dur[self.mask(name)].sum())

    def self_s(self, name: str) -> float:
        return float(self.self_time[self.mask(name)].sum())

    def under(self, name: str, parent_name: str) -> float:
        """Total time of ``name`` spans called directly from ``parent_name``."""
        sel = self.mask(name) & (self.parent >= 0)
        pm = self.mask(parent_name)
        sel[sel] = pm[self.parent[sel]]
        return float(self.dur[sel].sum())

    def toplevel_calls(self, name: str) -> int:
        """Calls of ``name`` not made from inside another ``name`` call."""
        sel = self.mask(name)
        nested = sel & (self.parent >= 0)
        nested[nested] = sel[self.parent[nested]]
        return int((sel & ~nested).sum())

    def us_per_call(self, name: str, count: int) -> float:
        """Mean time per call at grid size ``count``, each call counting its
        own work: nested calls of the same name are subtracted once."""
        sel = self.mask(name)
        at_n = sel & (self.size == count)
        if not at_n.any():
            return 0.0
        own = self.dur.copy()
        nested = sel & (self.parent >= 0)
        nested[nested] = sel[self.parent[nested]]
        self.np.subtract.at(own, self.parent[nested], self.dur[nested])
        return float(own[at_n].sum() / at_n.sum() * 1e6)

    def module_self_s(self, module: str) -> float:
        ids = [i for i, n in enumerate(self.names) if n.split(".")[0] == module]
        return float(self.self_time[self.np.isin(self.name, ids)].sum())
