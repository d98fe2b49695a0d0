"""Spans and counters recorded from outside around projconn's public API.

A traced run installs wrappers around the public functions and class
operators of every layer (see LAYERS), runs the workload, and removes them
again.  Tracing off means nothing here is installed.

Spans are kept in memory as parallel arrays (name id, parent index, start,
end; nanoseconds) and written out when the run ends.  A span's self time is
its duration minus the durations of its child spans.  Functions that are
called millions of times (the Q(i) field operations) get counting wrappers
without spans.

A wrapper must replace every binding a call goes through: projective and
cli import weyl3 by name, connection imports contract by name, and
DiffPoly.__radd__/__rmul__ are the same function objects as
__add__/__mul__.  install() therefore rebinds every attribute of every
projconn module and class that holds the original function.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
import tracemalloc
from array import array

import numpy as np

# Bookkeeping that walks a result (tensor entries, coefficient heights) runs
# in a span of this name, so that its time is not charged to any layer.
HOOK = "trace.hook"


def coeff_bits(polys) -> int:
    """Largest bit length of a numerator or denominator in the coefficients."""
    best = 0
    for p in polys:
        for c in p.terms().values():
            for part in (c.re, c.im):
                best = max(best, part.numerator.bit_length(), part.denominator.bit_length())
    return best


def _connection_polys(c):
    return [g for plane in c.gamma for row in plane for g in row]


class Tracer:
    """Span and counter store plus the wrappers that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.counts: dict[str, int] = {}
        self.maxima: dict[str, float] = {}
        self.samples: dict[str, list] = {}
        self._cells: dict[str, list] = {}
        self._undo: list = []

    # -- recording --------------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def add(self, key: str, amount) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def peak(self, key: str, value) -> None:
        if value > self.maxima.get(key, 0):
            self.maxima[key] = value

    def record(self, name: str, fn, *args):
        """Run fn(*args) inside a span of the given name."""
        return self.span_wrapper(name, fn)(*args)

    def span_wrapper(self, name: str, fn, inline=None, hook=None):
        """fn wrapped in a span; inline(args, result) runs inside the span,
        hook(args, result) after it in a HOOK span."""
        nid = self.name_id(name)
        hook_id = self.name_id(HOOK)
        names, parent, start, end, stack = self.name, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            i = len(start)
            names.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
                if inline is not None:
                    inline(args, result)
            finally:
                end[i] = clock()
                stack.pop()
            if hook is not None:
                h = len(start)
                names.append(hook_id)
                parent.append(stack[-1])
                end.append(0)
                start.append(clock())
                hook(args, result)
                end[h] = clock()
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def count_wrapper(self, name: str, fn, sample_every=0, sample_cap=0):
        """fn wrapped in a call counter; optionally keeps every k-th argument
        tuple (up to sample_cap) for timing the operation afterwards."""
        cell = self._cells.setdefault(name, [0])
        samples = self.samples.setdefault(name, [])

        if sample_every:
            def wrapper(*args):
                n = cell[0] = cell[0] + 1
                if n % sample_every == 0 and len(samples) < sample_cap:
                    samples.append(args)
                return fn(*args)
        else:
            def wrapper(*args):
                cell[0] += 1
                return fn(*args)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installing -------------------------------------------------------------

    def install(self, module: str, path: str, make_wrapper) -> None:
        """Replace module.path (a function or Class.method) everywhere it is bound."""
        owner = importlib.import_module(module)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = vars(owner)[attr]
        wrapper = make_wrapper(original)
        for target in _binding_owners():
            for key, value in list(vars(target).items()):
                if value is original:
                    setattr(target, key, wrapper)
                    self._undo.append((target, key, original))

    def install_layers(self) -> None:
        for module, path, metric, kind, extra in LAYERS:
            if kind == "count":
                every, cap = extra or (0, 0)
                self.install(module, path, lambda fn, m=metric, e=every, c=cap:
                             self.count_wrapper(m, fn, e, c))
            elif kind == "custom":
                self.install(module, path, lambda fn, make=extra: make(self, fn))
            else:
                inline, hook = (extra or (None, None))
                self.install(module, path, lambda fn, m=metric, i=inline, h=hook:
                             self.span_wrapper(m, fn, _bind(i, self), _bind(h, self)))

    def uninstall(self) -> None:
        for target, key, original in reversed(self._undo):
            setattr(target, key, original)
        self._undo.clear()

    # -- reading ----------------------------------------------------------------

    def call_counts(self) -> dict[str, int]:
        out = {name: cell[0] for name, cell in self._cells.items()}
        ids = np.frombuffer(self.name, dtype=np.int32) if len(self.name) else np.zeros(0, np.int32)
        per_id = np.bincount(ids, minlength=len(self.names))
        for nid, name in enumerate(self.names):
            out[name] = int(per_id[nid])
        return out

    def self_ms(self) -> dict[str, float]:
        """Total self time per span name, in milliseconds."""
        per_span = self_times(self.parent, self.start, self.end)
        ids = np.frombuffer(self.name, dtype=np.int32) if len(self.name) else np.zeros(0, np.int32)
        totals = np.bincount(ids, weights=per_span, minlength=len(self.names))
        return {name: float(totals[nid]) / 1e6 for nid, name in enumerate(self.names)}

    def write(self, path) -> None:
        """Write the spans (arrays plus the name table) as one .npz file."""
        np.savez_compressed(
            path,
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
            names=np.array(json.dumps(self.names)),
        )


def self_times(parent, start, end) -> np.ndarray:
    """Self time of each span: its duration minus its children's durations.

    parent[i] is the index of span i's parent, or -1 for a root span.
    """
    parent = np.asarray(parent, dtype=np.int64)
    dur = np.asarray(end, dtype=np.int64) - np.asarray(start, dtype=np.int64)
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    return dur - child


def _binding_owners():
    """Every projconn module, and every class defined in one."""
    owners, seen = [], set()
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "projconn" or name.startswith("projconn.")):
            continue
        classes = [v for v in vars(mod).values()
                   if isinstance(v, type) and v.__module__.startswith("projconn")]
        for obj in [mod, *classes]:
            if id(obj) not in seen:
                seen.add(id(obj))
                owners.append(obj)
    return owners


def _bind(fn, tracer):
    if fn is None:
        return None
    return lambda args, result: fn(tracer, args, result)


# -- what each layer records beyond calls and self time --------------------------


def _mul_terms(t, args, result):
    t.add("poly.mul.terms_out", len(result.terms()))


def _bits_of_poly(t, args, result):
    t.peak("poly.coeff_bits_max", coeff_bits([result]))


def _bits_of_tensor(t, args, result):
    t.peak("poly.coeff_bits_max", coeff_bits(result.entries))


def _bits_of_connection(t, args, result):
    t.peak("poly.coeff_bits_max", coeff_bits(_connection_polys(result)))


def _bits_of_list(t, args, result):
    t.peak("poly.coeff_bits_max", coeff_bits(result))


def _tensor_built(t, args, result):
    entries = args[0].entries
    t.add("tensor.entries_built", len(entries))
    t.add("tensor.entries_nonzero", sum(1 for e in entries if not e.is_zero()))


def _points_checked(t, args, result):
    t.add("families.points_checked", len(args[2]))


def _integrate_steps(t, args, result):
    t.add("geodesic.integrate.steps", len(result) - 1)


def _match_with_peak(tracer, fn):
    """unparametrized_match inside a span, with its tracemalloc peak."""

    def measured(*args, **kwargs):
        tracemalloc.start()
        try:
            return fn(*args, **kwargs)
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            tracer.peak("geodesic.match.peak_mb", peak / 2**20)

    return tracer.span_wrapper("geodesic.match", measured)


# (module, attribute path, metric name, kind, extra)
#   kind "count": extra = (sample every k-th call, sample cap) or None
#   kind "span":  extra = (inline, hook) or None
#   kind "custom": extra = factory(tracer, fn) returning the wrapper
LAYERS = [
    ("projconn.rational", "GaussianRational.__mul__", "rational.mul", "count", (97, 2000)),
    ("projconn.rational", "GaussianRational.__add__", "rational.add", "count", None),
    ("projconn.rational", "GaussianRational.__init__", "rational.new", "count", None),
    ("projconn.poly", "DiffPoly.__mul__", "poly.mul", "span", (_mul_terms, None)),
    ("projconn.poly", "DiffPoly.__add__", "poly.add", "span", None),
    ("projconn.poly", "DiffPoly.diff", "poly.diff", "span", None),
    ("projconn.poly", "DiffPoly.subst", "poly.subst", "span", (None, _bits_of_poly)),
    ("projconn.poly", "DiffPoly.evaluate", "poly.evaluate", "span", None),
    ("projconn.tensor", "Tensor.__init__", "tensor.build", "span", (None, _tensor_built)),
    ("projconn.tensor", "contract", "tensor.contract", "span", (None, _bits_of_tensor)),
    ("projconn.connection", "Connection.__init__", "connection.build", "span", None),
    ("projconn.connection", "curvature", "connection.curvature", "span", (None, _bits_of_tensor)),
    ("projconn.connection", "weyl3", "connection.weyl3", "span", (None, _bits_of_tensor)),
    ("projconn.projective", "with_one_form", "projective.with_one_form", "span",
     (None, _bits_of_connection)),
    ("projconn.projective", "projective_equiv", "projective.projective_equiv", "span", None),
    ("projconn.projective", "volume_normalize", "projective.volume_normalize", "span",
     (None, _bits_of_connection)),
    ("projconn.projective", "flatness_conditions", "projective.flatness_conditions", "span",
     (None, _bits_of_list)),
    ("projconn.families", "torus_n", "families.torus_n", "span", None),
    ("projconn.families", "invariance_check", "families.invariance_check", "span",
     (_points_checked, None)),
    ("projconn.geodesic", "integrate", "geodesic.integrate", "span", (_integrate_steps, None)),
    ("projconn.geodesic", "unparametrized_match", "geodesic.match", "custom", _match_with_peak),
    ("projconn.parser", "parse_expr", "parser.parse_expr", "span", None),
    ("projconn.specfile", "load_spec", "specfile.load_spec", "span", None),
    ("projconn.cli", "main", "cli.main", "span", None),
]
