"""Span tracing of the qforms layers from outside the package.

`install` wraps every public function of the seven qforms modules and the
public and arithmetic methods of `HalfLaurentSeries`, then rebinds every
module attribute that still points at an original (for example
`repcount.divisors` or `theta.f_kh`), so calls across modules are seen too.
Each call records a span (name, start ns, end ns, parent index) in memory;
`summarize` turns the spans into per-layer self times, where a span's self
time is its duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

MODULES = ("arith", "series", "theta", "repcount", "elliptic", "circle", "cli")

# HalfLaurentSeries dunders that are arithmetic operations, wrapped like methods.
SERIES_DUNDERS = ("__add__", "__neg__", "__sub__", "__mul__", "__rmul__", "__eq__")

# Named sub-layers: a span joins the group of its own function, or else the
# group of its parent span in the same module.  Sticky groups also claim every
# same-module descendant, so the r3 series fallback counts as r3 work.
GROUPS = {
    "arith.divisors": ("arith.divisors",),
    "arith.divisor_sum": ("arith.divisor_sum",),
    "arith.class_number": ("arith.class_number",),
    "arith.f_kh": ("arith.f_kh",),
    "series.mul": ("series.HalfLaurentSeries.__mul__", "series.HalfLaurentSeries.__rmul__",
                   "series.HalfLaurentSeries.square"),
    "series.sqrt": ("series.HalfLaurentSeries.sqrt",),
    "series.inverse": ("series.HalfLaurentSeries.inverse",),
    "series.log": ("series.HalfLaurentSeries.log",),
    "series.exp_neg": ("series.exp_neg",),
    "series.sqrt_coeff_fdb": ("series.sqrt_coeff_fdb",),
    "theta.product": ("theta.phi_product", "theta.psi_product", "theta.f_neg_product"),
    "repcount.transform": ("repcount.count_two_form", "repcount.two_form_table",
                           "repcount.count_diagonal", "repcount.exp_method_count"),
    "repcount.series_route": ("repcount.r_N_squares", "repcount.tri_count", "repcount.tri_reduce"),
    "repcount.closed": ("repcount.cubic_count", "repcount.quintic_count", "repcount.tri_N_closed",
                        "repcount.tri_N_closed_strict", "repcount.r4_closed", "repcount.s_m",
                        "repcount.r2", "repcount.count_power_sum", "repcount.count_affine",
                        "repcount.count_poly_composed", "repcount.integer_roots"),
    "repcount.r3": ("repcount.r3", "repcount.r3_closed"),
    "circle.scan": ("circle.scan_R", "circle.scan_columns"),
    "circle.bessel_j1": ("circle.bessel_j1",),
}
STICKY = frozenset({"repcount.r3"})
GROUP_OF = {fn: group for group, fns in GROUPS.items() for fn in fns}


class Tracer:
    """In-memory span recorder; `on` pauses recording without unwrapping."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.on = True

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)

        return traced


def install(tracer):
    """Wrap the qforms layers in place; returns a function that undoes it."""
    pkg = importlib.import_module("qforms")
    mods = {m: importlib.import_module(f"qforms.{m}") for m in MODULES}
    wrapped = {}
    saved = []

    def replace(owner, attr, new):
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    for short, mod in mods.items():
        for attr, obj in list(vars(mod).items()):
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__):
                wrapped[obj] = tracer.wrap(f"{short}.{attr}", obj)

    cls = mods["series"].HalfLaurentSeries
    for attr, obj in list(vars(cls).items()):
        if attr.startswith("_") and attr not in SERIES_DUNDERS:
            continue
        name = f"series.HalfLaurentSeries.{attr}"
        if isinstance(obj, classmethod):
            replace(cls, attr, classmethod(tracer.wrap(name, obj.__func__)))
        elif inspect.isfunction(obj):
            replace(cls, attr, tracer.wrap(name, obj))

    for ns in (pkg, *mods.values()):
        for attr, obj in list(vars(ns).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                replace(ns, attr, wrapped[obj])

    def uninstall():
        for owner, attr, obj in reversed(saved):
            setattr(owner, attr, obj)
        saved.clear()

    return uninstall


def self_times(spans):
    """Self time in ns of each span: its duration minus its children's."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def summarize(spans):
    """Calls and self seconds per module and per named group.

    Returns {"<module>.calls": n, "<module>.self_s": s, "<group>.calls": n,
    "<group>.self_s": s} for every module in MODULES and group in GROUPS.
    """
    out = {}
    for key in (*MODULES, *GROUPS):
        out[f"{key}.calls"] = 0
        out[f"{key}.self_s"] = 0.0
    own = self_times(spans)
    tags = []
    for i, (name, _, _, parent) in enumerate(spans):
        module = name.split(".", 1)[0]
        inherited = None
        if parent >= 0 and spans[parent][0].split(".", 1)[0] == module:
            inherited = tags[parent]
        if inherited in STICKY:
            tag = inherited
        else:
            tag = GROUP_OF.get(name, inherited)
        tags.append(tag)
        sec = own[i] / 1e9
        out[f"{module}.calls"] += 1
        out[f"{module}.self_s"] += sec
        if tag is not None:
            out[f"{tag}.calls"] += 1
            out[f"{tag}.self_s"] += sec
    return out


def write_spans(path, spans):
    """One CSV line per span: index, parent, name, start_ns, end_ns."""
    with open(path, "w") as fh:
        fh.write("index,parent,name,start_ns,end_ns\n")
        for i, (name, start, end, parent) in enumerate(spans):
            fh.write(f"{i},{parent},{name},{start},{end}\n")


def read_spans(path):
    spans = []
    with open(path) as fh:
        next(fh)
        for line in fh:
            _, parent, name, start, end = line.rstrip("\n").split(",")
            spans.append((name, int(start), int(end), int(parent)))
    return spans
