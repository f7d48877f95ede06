"""Spans around calls into the sharkfin layers, for the traced run only.

The tracer wraps public names at every module binding that other modules
call through (for example both `sharkfin.detector.G_process` and the
name `detect` looks up) and `RenewalSpec.draw` on its class, records one
span per call, and restores the originals afterwards.  The untraced runs
never install it, so they run the package unmodified.

A span is [id, parent id, name, start ns, end ns, unit id, attrs].  Spans
stay in memory and are written once at the end.  A span's self time is
its duration minus the durations of its child spans; the calls are made
from one thread, so children never overlap.  The harness opens one root
span named `unit` around each timed unit, so the self times of all spans
add up to the traced wall time.

Calls of `detector.simulate_threshold` also run under tracemalloc, to
which numpy reports its array allocations, for the peak bytes the call's
arrays hold at once.  No hardware counters are available.

Private helpers are not wrapped: `theory._brownian_paths` counts with its
caller (`detector.simulate_threshold`, `theory.simulate_L_paths` or the
lab), and `series`/`presets` count with the layer that calls them.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import tracemalloc
from contextlib import contextmanager

import sharkfin.cli  # noqa: F401  (the cli module holds bindings too)
from sharkfin.renewal import RenewalSpec

from checks import LAB_REPORTS

LAYERS = ("renewal", "filtered", "theory", "detector", "lab", "cli")

CLOSED_FORM = ("m_function", "s_function", "shark_fin", "distortion",
               "mu_ri_theory", "mu_le_theory", "sigma2_ri_theory",
               "sigma2_le_theory")

SIMULATE = ("renewal.simulate_renewal", "renewal.simulate_compound")

# spans whose calls run under tracemalloc; their attrs get the peak "bytes"
ALLOC_TRACED = ("detector.simulate_threshold",)


def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _consistency_label(args, kwargs, out):
    model = _arg(args, kwargs, 0, "model")
    kind = "shape" if model.phi1.shape != model.phi2.shape else "rate"
    return {"check": f"estimator_consistency_{kind}_change"}


def _report_label(args, kwargs, out):
    return {"check": out.experiment}


def _events_out(args, kwargs, out):
    return {"events": len(out)}


# (module, attribute, span name, attrs from (args, kwargs, result))
TARGETS = [
    ("renewal", "simulate_renewal", "renewal.simulate_renewal", _events_out),
    ("renewal", "simulate_compound", "renewal.simulate_compound", _events_out),
    ("renewal", "read_event_file", "renewal.read_event_file", _events_out),
    ("renewal", "write_event_file", "renewal.write_event_file",
     lambda a, k, out: {"events": len(_arg(a, k, 1, "seq"))}),
    ("filtered", "window_estimate_series", "filtered.window_estimate_series",
     lambda a, k, out: {"nodes": int(out.grid.size)}),
    ("filtered", "G_process", "filtered.G_process",
     lambda a, k, out: {"invalid": int(out.valid.size - out.valid.sum())}),
    ("filtered", "s_hat", "filtered.s_hat", None),
    ("theory", "simulate_L_paths", "theory.simulate_L_paths",
     lambda a, k, out: {"paths": _arg(a, k, 3, "n_paths")}),
    *[("theory", name, "theory.closed_form", None) for name in CLOSED_FORM],
    ("detector", "simulate_threshold", "detector.simulate_threshold",
     lambda a, k, out: {"paths": _arg(a, k, 4, "n_sims")}),
    ("detector", "detect", "detector.detect", None),
    ("detector", "estimate_change_points", "detector.estimate_change_points", None),
    ("lab", "run_verification_suite", "lab.run_verification_suite", None),
    ("lab", "check_H0_limit", "lab.check", _report_label),
    ("lab", "check_alternative_limit", "lab.check", _report_label),
    ("lab", "check_window_lln", "lab.check", _report_label),
    ("lab", "check_estimator_consistency", "lab.check", _consistency_label),
    ("lab", "check_window_variance_forms", "lab.check", _report_label),
    ("series", "write_series_csv", "series.write_series_csv", None),
]


class Tracer:
    """In-memory span recorder that can patch itself into sharkfin."""

    def __init__(self):
        self.spans = []
        self.unit = None
        self._stack = []
        self._patches = []

    def _open(self, name):
        rec = [len(self.spans), self._stack[-1] if self._stack else -1,
               name, 0, 0, self.unit, None]
        self.spans.append(rec)
        self._stack.append(rec[0])
        rec[3] = time.perf_counter_ns()
        return rec

    def _close(self, rec):
        rec[4] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name, **attrs):
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)
            rec[6] = attrs or None

    def wrap(self, name, fn, attrs_fn=None):
        alloc = name in ALLOC_TRACED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name)
            if alloc:
                tracemalloc.start()
            try:
                out = fn(*args, **kwargs)
            finally:
                if alloc:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                self._close(rec)
            if attrs_fn is not None:
                rec[6] = attrs_fn(args, kwargs, out)
            if alloc:
                rec[6] = dict(rec[6] or {}, bytes=peak)
            return out
        return traced

    def install(self):
        """Replace every binding of each target inside sharkfin."""
        modules = [m for name, m in sys.modules.items()
                   if name == "sharkfin" or name.startswith("sharkfin.")]
        for modname, attr, span_name, attrs_fn in TARGETS:
            orig = getattr(sys.modules[f"sharkfin.{modname}"], attr)
            traced = self.wrap(span_name, orig, attrs_fn)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is orig:
                        setattr(module, key, traced)
                        self._patches.append((module, key, orig))
        orig_draw = RenewalSpec.draw
        RenewalSpec.draw = self.wrap(
            "renewal.draw", orig_draw,
            lambda a, k, out: {"size": int(_arg(a, k, 2, "size"))})
        self._patches.append((RenewalSpec, "draw", orig_draw))

    def uninstall(self):
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches.clear()

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "parent", "name", "start_ns", "end_ns",
                                  "unit", "attrs"], "spans": self.spans}, fh)


def _layer(name, parent_layer):
    prefix = name.split(".", 1)[0]
    if prefix in LAYERS:
        return prefix
    if prefix == "series":
        return parent_layer
    return "other"


def layer_metrics(spans, n_units: int) -> dict:
    """Per-layer counts and times from the spans, per timed unit.

    Also returns the per-check lab times and the renewal share of the lab
    suite; the harness adds the metrics it measures itself.
    """
    child_ns = [0] * len(spans)
    for s in spans:
        if s[1] >= 0:
            child_ns[s[1]] += s[4] - s[3]
    layer = [""] * len(spans)
    in_lab = [False] * len(spans)
    acc = {}

    def add(key, value):
        acc[key] = acc.get(key, 0) + value

    for s in spans:
        sid, parent, name, start, end, _, attrs = s
        attrs = attrs or {}
        dur = end - start
        self_ns = dur - child_ns[sid]
        parent_name = spans[parent][2] if parent >= 0 else ""
        layer[sid] = _layer(name, layer[parent] if parent >= 0 else "other")
        in_lab[sid] = name.startswith("lab.") or (parent >= 0 and in_lab[parent])
        add(f"{layer[sid]}.self_ns", self_ns)
        if layer[sid] == "renewal" and in_lab[sid]:
            add("lab_renewal_ns", self_ns)
        if name in SIMULATE:
            add("simulate.self_ns", self_ns)
            if parent_name not in SIMULATE:
                add("simulate.calls", 1)
                add("simulate.events", attrs.get("events", 0))
        elif name == "lab.check":
            add(f"lab.{attrs['check']}.ns", dur)
        elif name == "lab.run_verification_suite":
            add("lab.suite_ns", dur)
        else:
            add(f"{name}.calls", 1)
            add(f"{name}.self_ns", self_ns)
            add(f"{name}.ns", dur)
            for key, value in attrs.items():
                if isinstance(value, (int, float)):
                    add(f"{name}.{key}", value)
            if name == "renewal.draw" and parent_name == "renewal.draw":
                add("draw.retries", 1)

    def per_unit(key, scale=1.0):
        return acc.get(key, 0) * scale / max(n_units, 1)

    def ratio(num, den, scale=1.0):
        return acc.get(num, 0) * scale / acc[den] if acc.get(den) else 0.0

    ns = 1e-9
    out = {f"{lay}.self_s": per_unit(f"{lay}.self_ns", ns) for lay in LAYERS}
    out["other.self_s"] = per_unit("other.self_ns", ns)
    out.update({
        "renewal.simulate.calls": per_unit("simulate.calls"),
        "renewal.simulate.self_s": per_unit("simulate.self_ns", ns),
        "renewal.simulate.events": per_unit("simulate.events"),
        "renewal.draw.lifetimes": per_unit("renewal.draw.size"),
        "renewal.draw.self_s": per_unit("renewal.draw.self_ns", ns),
        "renewal.draw.retries": per_unit("draw.retries"),
        "renewal.draw.useful_frac": ratio("simulate.events", "renewal.draw.size"),
        "renewal.io.read_s": per_unit("renewal.read_event_file.ns", ns),
        "renewal.io.write_s": per_unit("renewal.write_event_file.ns", ns),
        "renewal.io.events": per_unit("renewal.read_event_file.events")
        + per_unit("renewal.write_event_file.events"),
        "filtered.window_estimate_series.calls":
            per_unit("filtered.window_estimate_series.calls"),
        "filtered.window_estimate_series.self_s":
            per_unit("filtered.window_estimate_series.self_ns", ns),
        "filtered.window_estimate_series.nodes":
            per_unit("filtered.window_estimate_series.nodes"),
        "filtered.window_estimate_series.ns_per_node":
            ratio("filtered.window_estimate_series.self_ns",
                  "filtered.window_estimate_series.nodes"),
        "filtered.G_process.self_s": per_unit("filtered.G_process.self_ns", ns),
        "filtered.G_process.invalid_nodes": per_unit("filtered.G_process.invalid"),
        "filtered.s_hat.calls": per_unit("filtered.s_hat.calls"),
        "filtered.s_hat.self_s": per_unit("filtered.s_hat.self_ns", ns),
        "theory.simulate_L_paths.calls": per_unit("theory.simulate_L_paths.calls"),
        "theory.simulate_L_paths.self_s": per_unit("theory.simulate_L_paths.self_ns", ns),
        "theory.simulate_L_paths.paths": per_unit("theory.simulate_L_paths.paths"),
        "theory.closed_form.self_s": per_unit("theory.closed_form.self_ns", ns),
        "detector.simulate_threshold.calls":
            per_unit("detector.simulate_threshold.calls"),
        "detector.simulate_threshold.self_s":
            per_unit("detector.simulate_threshold.self_ns", ns),
        "detector.simulate_threshold.paths_per_s":
            ratio("detector.simulate_threshold.paths",
                  "detector.simulate_threshold.ns", 1e9),
        "detector.simulate_threshold.bytes_computed":
            ratio("detector.simulate_threshold.bytes",
                  "detector.simulate_threshold.calls"),
        "detector.detect.calls": per_unit("detector.detect.calls"),
        "detector.detect.self_s": per_unit("detector.detect.self_ns", ns),
        "detector.estimate_change_points.calls":
            per_unit("detector.estimate_change_points.calls"),
        "detector.estimate_change_points.self_s":
            per_unit("detector.estimate_change_points.self_ns", ns),
        "lab.renewal_share": ratio("lab_renewal_ns", "lab.suite_ns"),
        "series.write_s": per_unit("series.write_series_csv.ns", ns),
    })
    for check in LAB_REPORTS:
        out[f"lab.{check}.s"] = per_unit(f"lab.{check}.ns", ns)
    return out
