"""Per-layer tracing for the benchmark, installed from outside the library.

`install(tracer)` wraps the public functions and methods of each parabolic_lab
module at run time and `restore` puts the originals back; no library source
is touched.  A wrapper records a span only while `tracer.active` is set, so
input generation, warm-up and answer checks leave no trace.

Spans are kept in memory as `Span(name, start, end, parent, job)` records.
Scalar arithmetic in coeff_rings runs millions of times per run, far too
often for one record per call, so it is aggregated instead: each span owns a
`Leaf(name, parent, job, count, busy)` total per scalar kind for the
coeff_rings calls made directly beneath it.  Only the outermost coeff_rings
call is timed; the FieldElement operations a LaurentScalar product makes
internally belong to that product.

A span's self time is its duration minus what its child spans cover, minus
the busy time of its leaves (`self_times`).
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from functools import wraps

SCALAR_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
              "__mul__", "__rmul__", "__truediv__", "__pow__", "inverse")
SERIES_METHODS = {"__mul__": "formal_series.mul",
                  "compose": "formal_series.compose",
                  "iterate": "formal_series.iterate",
                  "inverse": "formal_series.inverse",
                  "divide_exact": "formal_series.divide_exact"}
FUNCTION_MODULES = ("ramification", "valuation_geometry", "normal_form",
                    "closed_forms", "literals", "cli")
SPAN_NAMES = {
    "ramification.ramification_profile": "ramification.profile",
    "valuation_geometry.periodic_valuation_bound": "valuation_geometry.bound",
    "valuation_geometry.cycle_valuations": "valuation_geometry.cycle",
    "valuation_geometry.newton_polygon": "valuation_geometry.newton",
}
JOB_SPAN = "bench.job"

# Per-layer metrics, in report order, with their units.  Counts of calls and
# operations are per trace pass (a fixed job list), so they repeat exactly
# for a given seed; *_self_s are seconds of self time per trace pass.
PER_LAYER = [
    ("coeff_rings.laurent.ops", "count"),
    ("coeff_rings.laurent.self_s", "s"),
    ("coeff_rings.laurent.max_terms", "count"),
    ("coeff_rings.laurent.clipped", "count"),
    ("coeff_rings.field.ops", "count"),
    ("coeff_rings.field.self_s", "s"),
    ("formal_series.compose.calls", "count"),
    ("formal_series.compose.self_s", "s"),
    ("formal_series.compose.window_sum", "count"),
    ("formal_series.compose.coeff_products", "count"),
    ("formal_series.mul.calls", "count"),
    ("formal_series.mul.self_s", "s"),
    ("formal_series.mul.coeff_products", "count"),
    ("formal_series.inverse.calls", "count"),
    ("formal_series.inverse.self_s", "s"),
    ("formal_series.iterate.calls", "count"),
    ("formal_series.iterate.self_s", "s"),
    ("formal_series.divide_exact.calls", "count"),
    ("formal_series.divide_exact.self_s", "s"),
    ("formal_series.indeterminate", "count"),
    ("ramification.profile.calls", "count"),
    ("ramification.profile.self_s", "s"),
    ("ramification.levels_decided_frac", "frac"),
    ("valuation_geometry.bound.calls", "count"),
    ("valuation_geometry.bound.self_s", "s"),
    ("valuation_geometry.cycle.calls", "count"),
    ("valuation_geometry.cycle.self_s", "s"),
    ("valuation_geometry.newton.self_s", "s"),
    ("valuation_geometry.verdicts_decided_frac", "frac"),
    ("normal_form.calls", "count"),
    ("normal_form.self_s", "s"),
    ("closed_forms.calls", "count"),
    ("closed_forms.self_s", "s"),
    ("literals.parse.self_s", "s"),
    ("literals.print.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("trace.overhead_frac", "frac"),
]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    job: int


@dataclass
class Leaf:
    name: str
    parent: int
    job: int
    count: int
    busy: float


class Tracer:
    """Span store for one traced pass; `active` gates every wrapper."""

    def __init__(self):
        self.active = False
        self.job = -1
        self.spans: list[Span] = []
        self.leaves: dict[tuple[int, str], Leaf] = {}
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []
        self._in_scalar = False

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent,
                               self.job))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int):
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    def add(self, counter: str, value: int):
        self.counters[counter] = self.counters.get(counter, 0) + value

    def maximize(self, counter: str, value: int):
        if value > self.counters.get(counter, 0):
            self.counters[counter] = value

    def leaf(self, name: str, busy: float):
        parent = self._stack[-1]
        key = (parent, name)
        rec = self.leaves.get(key)
        if rec is None:
            self.leaves[key] = Leaf(name, parent, self.job, 1, busy)
        else:
            rec.count += 1
            rec.busy += busy

    @contextmanager
    def job_span(self, job: int):
        """Trace one job under a root span that every layer span hangs from."""
        self.job = job
        self.active = True
        idx = self.open(JOB_SPAN)
        try:
            yield
        finally:
            self.close(idx)
            self.active = False

    def dump(self, path):
        doc = {"spans": [[s.name, s.start, s.end, s.parent, s.job]
                         for s in self.spans],
               "leaves": [[l.name, l.parent, l.job, l.count, l.busy]
                          for l in self.leaves.values()],
               "counters": self.counters}
        with open(path, "w") as fh:
            json.dump(doc, fh)


# -- self-time arithmetic ---------------------------------------------------


def _covered(intervals, lo, hi):
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans, leaves):
    """Self time of every span, plus each leaf kind's busy total.

    Returns {name: (calls, self_seconds)} where span names count their spans
    and leaf names count their aggregated operations.
    """
    children: dict[int, list] = {}
    leaf_busy: dict[int, float] = {}
    for i, s in enumerate(spans):
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    for l in leaves:
        leaf_busy[l.parent] = leaf_busy.get(l.parent, 0.0) + l.busy
    out: dict[str, list] = {}
    for i, s in enumerate(spans):
        own = (s.end - s.start) - _covered(children.get(i, ()), s.start, s.end)
        own -= leaf_busy.get(i, 0.0)
        rec = out.setdefault(s.name, [0, 0.0])
        rec[0] += 1
        rec[1] += own
    for l in leaves:
        rec = out.setdefault(l.name, [0, 0.0])
        rec[0] += l.count
        rec[1] += l.busy
    return {k: (v[0], v[1]) for k, v in out.items()}


# -- computed kernel counts -------------------------------------------------
#
# These replay the loop bounds of the library's convolution and Horner
# kernels from operand lengths, the truncation and the extension degree d.
# They are computed, not measured: the same inputs always give the same
# count.  Over GF(p^d) a product of series of lengths a and b is d^2 full
# integer convolutions of a*b coordinate products each; over a Laurent ring
# it is one LaurentScalar product per pair of indices below the truncation.


def _conv_len(la, lb, limit):
    if la == 0 or lb == 0:
        return 0
    full = la + lb - 1
    return full if limit is None else min(full, limit)


def conv_products(la, lb, limit, d, finite):
    if la == 0 or lb == 0:
        return 0
    if finite:
        return la * lb * d * d
    out = _conv_len(la, lb, limit)
    return sum(min(lb, out - i) for i in range(min(la, out)))


def horner_products(lf, lg, limit, d, finite):
    """(coefficient products, result length) of Horner composition."""
    if lf == 0:
        return 0, 0
    products, lr = 0, 1
    for _ in range(lf - 1):
        products += conv_products(lr, lg, limit, d, finite)
        lr = _conv_len(lr, lg, limit) or 1
    return products, lr


# -- installing the wrappers ------------------------------------------------


def _span_wrapper(tracer, name, fn, before=None, escapes=None):
    """Record a span per call; `before` counts work from the arguments, and
    an `escapes` exception leaving the layer is counted as the layer's."""

    @wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        if before is not None:
            before(tracer, args)
        idx = tracer.open(name)
        try:
            return fn(*args, **kwargs)
        except Exception as e:
            if escapes is not None and isinstance(e, escapes):
                caller = tracer.spans[tracer.spans[idx].parent].name
                if not caller.startswith("formal_series."):
                    tracer.add("formal_series.indeterminate", 1)
            raise
        finally:
            tracer.close(idx)

    return wrapper


def _scalar_wrapper(tracer, name, fn, after=None):
    @wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.active or tracer._in_scalar:
            return fn(*args, **kwargs)
        tracer._in_scalar = True
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            busy = time.perf_counter() - t0
            tracer._in_scalar = False
            tracer.leaf(name, busy)
        if after is not None:
            after(tracer, args, result)
        return result

    return wrapper


def _operands(args):
    """(length of self, length of other, truncation, d, finite field?), or
    None when the other operand is not a series (the library rejects it)."""
    a, b = args[0], args[1]
    if not hasattr(b, "n_trunc"):
        return None
    ring = a.ring
    finite = not hasattr(ring, "field")
    d = ring.d if finite else ring.field.d
    return len(a.coeffs), len(b.coeffs), a._meet(b), d, finite


def _count_mul(tracer, args):
    ops = _operands(args)
    if ops is not None:
        tracer.add("formal_series.mul.coeff_products", conv_products(*ops))


def _count_compose(tracer, args):
    ops = _operands(args)
    if ops is None:
        return
    lf, lg, n, d, finite = ops
    products, length = horner_products(lf, lg, n, d, finite)
    tracer.add("formal_series.compose.coeff_products", products)
    tracer.add("formal_series.compose.window_sum",
               n if n is not None else length)


def _count_laurent_mul(tracer, args, result):
    widths = [len(x.coeffs) for x in args[:2]
              if isinstance(getattr(x, "coeffs", None), tuple)]
    if widths:
        tracer.maximize("coeff_rings.laurent.max_terms", max(widths))
    if getattr(result, "tprec", None) is not None:
        tracer.add("coeff_rings.laurent.clipped", 1)


def _replace_everywhere(original, replacement):
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "parabolic_lab"
                               or mod_name.startswith("parabolic_lab.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def install(tracer: Tracer):
    """Wrap the library's public surface; returns the undo list for restore."""
    from parabolic_lab import coeff_rings, errors, formal_series

    undo = []

    def patch_attr(owner, attr, wrapper):
        undo.append(("attr", owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    for cls, kind in ((coeff_rings.FieldElement, "coeff_rings.field"),
                      (coeff_rings.LaurentScalar, "coeff_rings.laurent")):
        for op in SCALAR_OPS:
            fn = cls.__dict__[op]
            after = (_count_laurent_mul
                     if kind == "coeff_rings.laurent"
                     and op in ("__mul__", "__rmul__") else None)
            patch_attr(cls, op, _scalar_wrapper(tracer, kind, fn, after))

    before = {"__mul__": _count_mul, "compose": _count_compose}
    cls = formal_series.TruncatedSeries
    for method, name in SERIES_METHODS.items():
        patch_attr(cls, method,
                   _span_wrapper(tracer, name, cls.__dict__[method],
                                 before.get(method),
                                 errors.IndeterminateValuation))

    for short in FUNCTION_MODULES:
        mod = importlib.import_module(f"parabolic_lab.{short}")
        for attr, fn in list(vars(mod).items()):
            if (attr.startswith("_") or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__):
                continue
            name = SPAN_NAMES.get(f"{short}.{attr}")
            if name is None:
                if short == "literals":
                    name = ("literals.parse" if attr.startswith("parse_")
                            else "literals.print")
                elif short in ("normal_form", "closed_forms"):
                    name = short
                else:
                    name = f"{short}.{attr}"
            wrapper = _span_wrapper(tracer, name, fn)
            undo.append(("fn", fn, wrapper))
            _replace_everywhere(fn, wrapper)
    return undo


def restore(undo):
    for entry in reversed(undo):
        if entry[0] == "attr":
            _, owner, attr, original = entry
            setattr(owner, attr, original)
        else:
            _, original, wrapper = entry
            _replace_everywhere(wrapper, original)


# -- per-layer metrics ------------------------------------------------------


def layer_metrics(tracer: Tracer):
    """Counts and self times of one traced pass, keyed by PER_LAYER names.

    The decided fractions and trace.overhead_frac come from the run, not the
    spans, and are filled in by the caller.
    """
    st = self_times(tracer.spans, tracer.leaves.values())

    def calls(*names):
        return sum(st.get(n, (0, 0.0))[0] for n in names)

    def self_s(*names):
        return sum(st.get(n, (0, 0.0))[1] for n in names)

    c = tracer.counters
    out = {
        "coeff_rings.laurent.ops": calls("coeff_rings.laurent"),
        "coeff_rings.laurent.self_s": self_s("coeff_rings.laurent"),
        "coeff_rings.laurent.max_terms": c.get(
            "coeff_rings.laurent.max_terms", 0),
        "coeff_rings.laurent.clipped": c.get("coeff_rings.laurent.clipped", 0),
        "coeff_rings.field.ops": calls("coeff_rings.field"),
        "coeff_rings.field.self_s": self_s("coeff_rings.field"),
        "formal_series.compose.window_sum": c.get(
            "formal_series.compose.window_sum", 0),
        "formal_series.compose.coeff_products": c.get(
            "formal_series.compose.coeff_products", 0),
        "formal_series.mul.coeff_products": c.get(
            "formal_series.mul.coeff_products", 0),
        "formal_series.indeterminate": c.get("formal_series.indeterminate", 0),
        "valuation_geometry.newton.self_s": self_s(
            "valuation_geometry.newton"),
        "literals.parse.self_s": self_s("literals.parse"),
        "literals.print.self_s": self_s("literals.print"),
        "cli.main.self_s": self_s("cli.main"),
    }
    for group in ("formal_series.compose", "formal_series.mul",
                  "formal_series.inverse", "formal_series.iterate",
                  "formal_series.divide_exact", "ramification.profile",
                  "valuation_geometry.bound", "valuation_geometry.cycle",
                  "normal_form", "closed_forms"):
        out[f"{group}.calls"] = calls(group)
        out[f"{group}.self_s"] = self_s(group)
    return out
