"""In-process span tracing of fdtwoway's public functions.

The tracer replaces every public function of the layer modules with a
wrapper that records one span per call: name, start, end, parent span and
the benchmark op id. A function is replaced in every module namespace that
binds it (``achievable_rate`` is bound in ``channel``, ``nash``, ``harness``
and the package itself), so calls made between modules are traced too.
Private helpers are not wrapped; their time counts as self time of the
public function that called them.

Spans are kept in flat arrays while the workload runs and are reduced to
per-function totals only at the end, so the cost per traced call stays a
few array appends.
"""

import functools
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

PACKAGE = "fdtwoway"
LAYERS = ("linalg", "channel", "nash", "pareto", "harness", "cli")


def public_functions():
    """(qualified name, function) for each public function a layer module
    defines itself; names are ``<layer>.<function>``."""
    out = []
    for layer in LAYERS:
        mod = importlib.import_module(f"{PACKAGE}.{layer}")
        for name, obj in sorted(vars(mod).items()):
            if (inspect.isfunction(obj) and not name.startswith("_")
                    and obj.__module__ == mod.__name__):
                out.append((f"{layer}.{name}", obj))
    return out


class Tracer:
    """Records spans while inside a ``with`` block; the block may be
    entered many times, and each exit restores the original functions.
    Modules imported after the tracer was created are not patched.

    ``op`` is the id of the benchmark operation in progress; the client
    sets it before each call so spans can be grouped per op. ``observers``
    maps a qualified function name to ``f(result, args)``, called after
    each traced call of that function returns, for counters that need the
    call's result (iterations, epsilon, kept points).
    """

    def __init__(self, observers=None):
        self.observers = dict(observers or {})
        self.names = []
        self.op = -1
        self.name_id = array("i")
        self.parent = array("q")
        self.op_id = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        wrappers = {id(fn): (fn, self._wrap(q, fn))
                    for q, fn in public_functions()}
        prefix = PACKAGE + "."
        self._patches = []   # (namespace, attribute, original, wrapper)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == PACKAGE
                                   or name.startswith(prefix)):
                continue
            for attr, value in vars(mod).items():
                if id(value) in wrappers:
                    self._patches.append((mod, attr) + wrappers[id(value)])

    def _wrap(self, qualname, fn):
        nid = len(self.names)
        self.names.append(qualname)
        observe = self.observers.get(qualname)
        name_id, parent, op_id = self.name_id, self.parent, self.op_id
        start, end, stack = self.start, self.end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            op_id.append(self.op)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(result, args)
            return result

        return traced

    def __enter__(self):
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for mod, attr, original, _ in self._patches:
            setattr(mod, attr, original)
        return False

    def durations(self, qualname):
        """Inclusive durations (s) of every span of one function."""
        if qualname not in self.names:
            return np.zeros(0)
        sel = np.frombuffer(self.name_id, dtype=np.int32) \
            == self.names.index(qualname)
        return (np.frombuffer(self.end)[sel] - np.frombuffer(self.start)[sel])

    def summary(self):
        """Per-function calls, self time and inclusive time, plus the total
        duration of root spans (those no traced call encloses).

        Self time is a span's duration minus the time its child spans
        cover; calls nest strictly on one thread, so the cover is the sum
        of the children's durations.
        """
        n = len(self.start)
        dur = np.frombuffer(self.end, count=n) - np.frombuffer(self.start,
                                                                 count=n)
        parent = np.frombuffer(self.parent, dtype=np.int64, count=n)
        cover = np.bincount(parent + 1, weights=dur, minlength=n + 1)[1:]
        self_time = dur - cover
        names = np.frombuffer(self.name_id, dtype=np.int32, count=n)
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        self_s = np.bincount(names, weights=self_time, minlength=k)
        incl_s = np.bincount(names, weights=dur, minlength=k)
        per_fn = {q: {"calls": int(calls[i]), "self_s": float(self_s[i]),
                      "incl_s": float(incl_s[i])}
                  for i, q in enumerate(self.names)}
        return per_fn, float(dur[parent < 0].sum())
