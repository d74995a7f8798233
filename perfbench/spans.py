"""Span tracing of dyadwave's public functions, from outside the program.

``Tracer.install`` replaces each traced function by a wrapper in every
dyadwave module namespace that binds it (``lpharness.lp_norms`` as well as
``gridfn.lp_norms``), and ``uninstall`` puts the originals back.  Methods
(``TableCache.get``, ``GridFunction.__init__``) are patched on the class.
Spans stay in memory; the worker writes them out when the run ends.
"""

from __future__ import annotations

import csv
import functools
import sys
import time
from collections import defaultdict

MB = float(1 << 20)


def _mb(*arrays):
    return sum(a.nbytes for a in arrays if a is not None) / MB


# traced name -> how much data one call handles, in MB or cubes
MEASURES = {
    "refinable.cascade": lambda args, out: _mb(out.values,
                                               out.derivative_values),
    "mra1d.analyze_rows": lambda args, out: _mb(args[0]),
    "mra1d.synthesize_rows": lambda args, out: _mb(out[0]),
    "mrand.apply_axis": lambda args, out: _mb(out.data),
    "gridfn.GridFunction": lambda args, out: _mb(args[0].data),
    "gridfn.combine": lambda args, out: (_mb(out.data)
                                         if out is not NotImplemented else 0.0),
    "gridfn.lp_norms": lambda args, out: _mb(args[0].data),
    "lpharness.square_function": lambda args, out: _mb(out.data),
    "czd.cz_decompose": lambda args, out: float(len(out.cubes)),
}

# traced name -> (quantities reported, phase they cover).  Set-up layers are
# measured over the set-up; the others over one round of the measured phase.
LAYERS = {
    "refinable.cascade": (("calls", "time_s", "mb"), "setup"),
    "refinable.is_accepted": (("time_s",), "setup"),
    "refinable.TableCache.get": (("calls", "time_s"), "round"),
    "mra1d.analyze_rows": (("calls", "self_s", "mb_in"), "round"),
    "mra1d.synthesize_rows": (("calls", "self_s", "mb_out"), "round"),
    "mrand.apply_axis": (("calls", "self_s", "mb_out"), "round"),
    "mrand.project_nd": (("calls", "time_s"), "round"),
    "mrand.mixed_detail": (("calls", "time_s"), "round"),
    "mrand.partial_sum": (("time_s",), "round"),
    "gridfn.GridFunction": (("calls", "time_s", "mb"), "round"),
    "gridfn.combine": (("calls", "time_s", "mb"), "round"),
    "gridfn.lp_norms": (("calls", "time_s", "mb"), "round"),
    "gridfn.inner_product": (("calls", "time_s"), "round"),
    "lpharness.square_function": (("calls", "time_s", "frame_mb"), "round"),
    "lpharness.sign_operator": (("calls", "time_s"), "round"),
    "lpharness.standard_corpus": (("time_s",), "round"),
    "lpharness.write_ratio_csv": (("time_s",), "round"),
    "czd.cz_decompose": (("calls", "time_s", "cubes"), "round"),
    "czd.verify_cz": (("calls", "self_s"), "round"),
    "czd.write_cubes_csv": (("time_s",), "round"),
    "czd.format_report": (("time_s",), "round"),
}

UNITS = {"calls": "count", "cubes": "count", "time_s": "s", "self_s": "s",
         "mb": "MB", "mb_in": "MB", "mb_out": "MB", "frame_mb": "MB"}

OVERHEAD_METRIC = ("trace.overhead_pct", "%")


def metric_names():
    """Every per-layer metric as (name, unit), in a fixed order."""
    names = [(f"{layer}.{q}", UNITS[q])
             for layer, (quantities, _) in LAYERS.items() for q in quantities]
    return names + [OVERHEAD_METRIC]


class Tracer:
    """Records (name, start, end, parent span, phase, amount) per call.

    ``phase`` is 0 for the set-up and the round number for a round, so the
    spans of one round share it.
    """

    def __init__(self):
        self.spans = []
        self.phase = 0
        self._stack = []
        self._saved = []

    def _wrap(self, name, fn):
        measure = MEASURES.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                spans[index] = (name, start, time.perf_counter(), parent,
                                self.phase, 0.0)
                raise
            finally:
                stack.pop()
            end = time.perf_counter()
            amount = measure(args, out) if measure else 0.0
            spans[index] = (name, start, end, parent, self.phase, amount)
            return out

        return wrapper

    def install(self):
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "dyadwave"
                                         or key.startswith("dyadwave."))]
        for name in LAYERS:
            module_name, attr = name.split(".", 1)
            module = sys.modules[f"dyadwave.{module_name}"]
            if attr == "GridFunction":
                self._patch(module.GridFunction, "__init__", name)
            elif "." in attr:
                cls, method = attr.split(".")
                self._patch(getattr(module, cls), method, name)
            else:
                original = getattr(module, attr)
                wrapper = self._wrap(name, original)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            self._saved.append((m, key, original))
                            setattr(m, key, wrapper)

    def _patch(self, owner, attr, name):
        original = owner.__dict__[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def totals(self, phase):
        """{traced name: {calls, time_s, self_s, amount}} for one phase."""
        child_time = defaultdict(float)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "time_s": 0.0, "self_s": 0.0,
                                   "amount": 0.0})
        for i, (name, start, end, _, ph, amount) in enumerate(self.spans):
            if ph != phase:
                continue
            t = out[name]
            t["calls"] += 1
            t["time_s"] += end - start
            t["self_s"] += end - start - child_time[i]
            t["amount"] += amount
        return out

    def write(self, path):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["span", "name", "start", "end", "parent", "phase",
                        "amount"])
            for i, row in enumerate(self.spans):
                w.writerow([i, *row])
