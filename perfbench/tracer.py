"""Span tracer that times calls into casmem's layers from outside the program.

Every public function of the traced modules, and every public method of
the classes they define, is wrapped by swapping the module and class
attributes that callers look up. A function imported into another module
(``from .protocol import incorporate`` in ``harness``) is swapped there
too, so calls between layers are seen. Nothing in ``src/`` changes, and
the wrappers exist only inside ``Tracer.installed()``.

Each call records a span: name, start, end and the span that was open
when it began. Spans stay in flat arrays until the run ends. A span's self
time is its duration minus the durations of its children; the calls are
synchronous, so children never overlap.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

LAYERS = ("streams", "protocol", "gm", "metrics", "dynamics", "harness")


def public_callables():
    """(span name, owner, attribute) for each public function and method."""
    found = []
    for short in LAYERS:
        module = importlib.import_module(f"casmem.{short}")
        for attr, obj in vars(module).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                found.append((f"{short}.{attr}", module, attr))
            elif inspect.isclass(obj):
                for meth, fn in vars(obj).items():
                    if not meth.startswith("_") and inspect.isfunction(fn):
                        found.append((f"{short}.{obj.__name__}.{meth}", obj, meth))
    return found


class Tracer:
    """Span store plus the raw calls of a few functions.

    For each span name in ``record`` the wrapper keeps ``(args, kwargs,
    result)`` of every call in ``calls[name]``. That append is the only
    extra work done while spans are open; whatever is counted from the
    calls is counted after the run.
    """

    def __init__(self, record=()):
        self.calls: dict[str, list] = {name: [] for name in record}
        self.names: list[str] = []
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = [-1]

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        log = self.calls.get(name)
        stack, clock = self._stack, time.perf_counter
        name_id, start, end, parent = self.name_id, self.start, self.end, self.parent

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if log is not None:
                log.append((args, kwargs, result))
            return result

        return traced

    @contextmanager
    def installed(self):
        """Swap in the wrappers; restore every original attribute on exit."""
        wrappers = {}
        swapped = []
        for name, owner, attr in public_callables():
            fn = vars(owner)[attr]
            wrappers[id(fn)] = (fn, self._wrap(name, fn))
            setattr(owner, attr, wrappers[id(fn)][1])
            swapped.append((owner, attr, fn))
        # Re-bindings of the same functions in other casmem modules.
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "casmem" and not mod_name.startswith("casmem."):
                continue
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])
                    swapped.append((module, attr, obj))
        try:
            yield self
        finally:
            for owner, attr, fn in reversed(swapped):
                setattr(owner, attr, fn)

    def arrays(self):
        """Spans as numpy arrays: name ids, start, end, parent index."""
        return (
            np.array(self.name_id, dtype=np.int32),
            np.array(self.start, dtype=np.float64),
            np.array(self.end, dtype=np.float64),
            np.array(self.parent, dtype=np.int32),
        )

    def by_name(self) -> dict[str, dict]:
        """Per span name: calls, inclusive seconds, self seconds, durations."""
        nid, start, end, parent = self.arrays()
        n_names = len(self.names)
        dur = end - start
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child], minlength=len(dur))
        self_s = dur - covered[: len(dur)]
        calls = np.bincount(nid, minlength=n_names)
        incl = np.bincount(nid, weights=dur, minlength=n_names)
        own = np.bincount(nid, weights=self_s, minlength=n_names)
        out = {}
        for i, name in enumerate(self.names):
            if calls[i]:
                out[name] = {
                    "calls": int(calls[i]),
                    "s": float(incl[i]),
                    "self_s": float(own[i]),
                    "durations": dur[nid == i],
                }
        return out


def save_spans(path, tracers) -> None:
    """Write the spans of several traced runs to one compressed numpy archive.

    ``rep`` numbers the run of each span; ``parent`` indexes the whole file
    (-1 for a root span). Every tracer wraps the same callables in the same
    order, so one ``names`` table serves them all.
    """
    parts = [t.arrays() for t in tracers]
    offsets = np.cumsum([0] + [len(p[0]) for p in parts[:-1]])
    np.savez_compressed(
        path,
        names=np.array(tracers[0].names),
        rep=np.concatenate([np.full(len(p[0]), i, dtype=np.int32) for i, p in enumerate(parts)]),
        name_id=np.concatenate([p[0] for p in parts]),
        start=np.concatenate([p[1] for p in parts]),
        end=np.concatenate([p[2] for p in parts]),
        parent=np.concatenate([np.where(p[3] >= 0, p[3] + off, -1) for p, off in zip(parts, offsets)]),
    )
