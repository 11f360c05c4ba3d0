"""Per-layer spans, recorded from outside the library.

While a ``Tracer`` is entered, each traced function or method of repcur is
replaced by a wrapper that records a span: name, start, end and the span
open when it was called.  A module-level function is replaced in the module
that defines it and under every name another repcur module imported it by,
so ``verify``, ``modules`` and ``currents`` call the wrapper too.  Leaving
the tracer puts every original back.

Scalar arithmetic in ``repcur.rational`` gets no span: wrapping the number
type's operators would change the program.  Its cost shows in the self
times of the layers that do the arithmetic.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
import weakref
from array import array
from collections import Counter

from repcur.currents import EvaluationModule
from repcur.linalg import Mat, SpanTracker

FUNCTIONS = {
    "repcur.currents": ["invariant_operator_matrix"],
    "repcur.linalg": ["rref", "kernel_basis", "solve_columns", "algebra_closure"],
    "repcur.modules": [
        "commutant_basis",
        "weight_decomposition",
        "isotypic_decompose",
        "build_irrep",
        "tensor_module",
    ],
    "repcur.invariants": ["fft_tensors"],
    "repcur.liealg": ["build_lie_algebra"],
}

METHODS = [
    (EvaluationModule, "basis_action", "currents.basis_action"),
    (Mat, "__add__", "linalg.mat_add_scale"),
    (Mat, "scale", "linalg.mat_add_scale"),
    (Mat, "__mul__", "linalg.mat_mul"),
    (SpanTracker, "add", "linalg.span_add"),
]


def span_names() -> list:
    """Every span name, in a fixed order."""
    names = [f"{m.split('.')[1]}.{a}" for m, attrs in FUNCTIONS.items() for a in attrs]
    return names + list(dict.fromkeys(name for _, _, name in METHODS))


class Tracer:
    """Spans kept in flat arrays, aggregated and written out at the end."""

    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._restore: list = []
        self.t0 = time.perf_counter()
        # counts taken where the work happens
        self.span_kept = 0
        self.rref_max_cells = 0
        self.basis_distinct = 0
        self._basis_keys: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    # -- observers -------------------------------------------------------

    def _saw_rref(self, args, out):
        m = args[0]
        self.rref_max_cells = max(self.rref_max_cells, m.rows * m.cols)

    def _saw_span_add(self, args, out):
        self.span_kept += bool(out)

    def _saw_basis_action(self, args, out):
        em, basis_index, poly = args
        keys = self._basis_keys.setdefault(em, set())
        key = (basis_index, poly.coeffs)
        if key not in keys:
            keys.add(key)
            self.basis_distinct += 1

    # -- patching --------------------------------------------------------

    def _wrap(self, name: str, fn, observe=None):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        stack, name_of, parent = self._stack, self.name_of, self.parent
        start, end, clock = self.start, self.end, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(end)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if observe is not None:
                observe(args, out)
            return out

        return traced

    def __enter__(self):
        observers = {
            "linalg.rref": self._saw_rref,
            "linalg.span_add": self._saw_span_add,
            "currents.basis_action": self._saw_basis_action,
        }
        repcur_modules = [
            m for k, m in sys.modules.items() if k == "repcur" or k.startswith("repcur.")
        ]
        for modname, attrs in FUNCTIONS.items():
            layer = modname.split(".")[1]
            for attr in attrs:
                orig = getattr(sys.modules[modname], attr)
                name = f"{layer}.{attr}"
                wrapper = self._wrap(name, orig, observers.get(name))
                for m in repcur_modules:
                    for k, v in list(vars(m).items()):
                        if v is orig:
                            self._restore.append((m, k, orig))
                            setattr(m, k, wrapper)
        for cls, attr, name in METHODS:
            orig = cls.__dict__[attr]
            self._restore.append((cls, attr, orig))
            setattr(cls, attr, self._wrap(name, orig, observers.get(name)))
        return self

    def __exit__(self, *exc):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()
        return False

    # -- results ---------------------------------------------------------

    def layer_stats(self):
        """(calls, self seconds) per span name; self time excludes child spans."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * len(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for i, nid in enumerate(self.name_of):
            calls[self.names[nid]] += 1
            self_s[self.names[nid]] += dur[i] - child[i]
        return calls, self_s

    def write_spans(self, path):
        """Write every span as CSV (id, name, start, end, parent), gzipped.

        Times are seconds since the tracer was made; parent -1 marks a root.
        """
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("id,name,start_s,end_s,parent\n")
            for i, nid in enumerate(self.name_of):
                f.write(
                    f"{i},{self.names[nid]},{self.start[i] - self.t0:.9f},"
                    f"{self.end[i] - self.t0:.9f},{self.parent[i]}\n"
                )
