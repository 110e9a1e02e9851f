"""Timing spans around the calls into each fbmcf layer, installed from outside.

Callers bind library names at import time (``from .flow import run as
flow_run``), so each wrapper is installed in the namespace of the module that
makes the call, not only where the function is defined.  Nothing under
``src/`` is changed: the wrappers are set with ``setattr`` and removed again
by ``Tracer.uninstall``.

A span is ``[name, start, end, parent, rep]``: ``parent`` is the index of the
enclosing span (-1 at the top) and ``rep`` the repetition it belongs to.
Spans stay in memory until ``Tracer.dump`` writes them out.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import time
from collections import defaultdict

import numpy as np

# (span name, [(module, attribute), ...]) -- every binding a caller uses.
SPANS = [
    ("cli.command_run", [("fbmcf.cli", "command_run")]),
    ("cli.command_monitor", [("fbmcf.cli", "command_monitor")]),
    ("cli.command_rescale", [("fbmcf.cli", "command_rescale")]),
    ("scenario.load_scenario", [("fbmcf.cli", "load_scenario")]),
    ("flow.run", [("fbmcf.cli", "flow_run")]),
    ("flow.step", [("fbmcf.flow", "step")]),
    ("geometry.GraphSurface.geometry", [("fbmcf.geometry.GraphSurface", "geometry")]),
    ("geometry.fundamental_forms", [("fbmcf.geometry", "fundamental_forms")]),
    ("geometry.disk_cell_weights", [("fbmcf.geometry", "disk_cell_weights")]),
    ("geometry.integrate", [("fbmcf.flow", "integrate"), ("fbmcf.monitors", "integrate"),
                            ("fbmcf.geometry", "integrate")]),
    ("geometry.perimeter", [("fbmcf.flow", "perimeter")]),
    ("support.chart_frames", [("fbmcf.geometry", "chart_frames"),
                              ("fbmcf.support", "chart_frames")]),
    ("monitors.monotonicity_report", [("fbmcf.cli", "monotonicity_report"),
                                      ("fbmcf.monitors", "monotonicity_report")]),
    ("monitors.interior_density_value", [("fbmcf.monitors", "interior_density_value")]),
    ("monitors.boundary_density_value", [("fbmcf.monitors", "boundary_density_value")]),
    ("monitors.singular_set_scan", [("fbmcf.cli", "singular_set_scan")]),
    ("analytic.AnalyticSurface.integral", [("fbmcf.analytic.AnalyticSurface", "integral")]),
    ("rescaling.parabolic_rescale", [("fbmcf.cli", "parabolic_rescale"),
                                     ("fbmcf.rescaling", "parabolic_rescale")]),
    ("rescaling.planarity_multiplicity", [("fbmcf.cli", "planarity_multiplicity")]),
    ("io.save_trajectory", [("fbmcf.cli", "save_trajectory")]),
    ("io.write_obj", [("fbmcf.cli", "write_obj"), ("fbmcf.io", "write_obj")]),
    ("io.save_snapshot", [("fbmcf.io", "save_snapshot")]),
    ("io.write_manifest", [("fbmcf.cli", "write_manifest")]),
    ("io.load_trajectory", [("fbmcf.cli", "load_trajectory")]),
]

# Counts recorded beside the spans; each has a unit for the report.
COUNTERS = {
    "monitors.scan_pair_evals": "count",
    "io.bytes_written": "bytes",
    "io.bytes_read": "bytes",
}


def _resolve(path):
    """Import 'pkg.mod' or 'pkg.mod.Class' and return the object."""
    parts = path.split(".")
    for k in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:k]))
        except ImportError:
            continue
        for attr in parts[k:]:
            obj = getattr(obj, attr)
        return obj
    raise ImportError(path)


def _file_bytes(paths):
    return sum(os.path.getsize(p) for p in paths if os.path.exists(p))


def _count_scan(tracer, args, out):
    snap = args[0].snapshots[-1]
    n_samples = int(np.count_nonzero(snap.geometry().mask))
    tracer.count("monitors.scan_pair_evals",
                 len(out.candidates) * n_samples * len(out.r_grid))


def _count_saved(tracer, args, out):
    tracer.count("io.bytes_written", _file_bytes(os.path.join(args[0], f) for f in out))


def _count_manifest(tracer, args, out):
    tracer.count("io.bytes_written", _file_bytes([os.path.join(args[0], "manifest.json")]))


def _count_loaded(tracer, args, out):
    outdir = args[0]
    with open(os.path.join(outdir, "trajectory.json")) as fh:
        meta = json.load(fh)
    names = ["trajectory.json", "monitors.csv"] + [r["npz"] for r in meta["snapshots"]]
    tracer.count("io.bytes_read", _file_bytes(os.path.join(outdir, f) for f in names))


# Hooks run after the span has closed, with tracing paused, so the library
# calls they make are neither timed nor counted.
_POST = {
    "monitors.singular_set_scan": _count_scan,
    "io.save_trajectory": _count_saved,
    "io.write_manifest": _count_manifest,
    "io.load_trajectory": _count_loaded,
}


class Tracer:
    """In-memory span recorder; wrappers pass straight through while inactive."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)   # (rep, counter) -> value
        self.active = False
        self.rep = 0
        self._stack = []
        self._saved = []

    def count(self, name, value):
        self.counts[(self.rep, name)] += value

    def _wrap(self, name, fn):
        post = _POST.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            rec = [name, time.perf_counter(), 0.0,
                   self._stack[-1] if self._stack else -1, self.rep]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                self._stack.pop()
            if post is not None:
                self.active = False
                try:
                    post(self, args, out)
                finally:
                    self.active = True
            return out

        return wrapper

    def install(self):
        for name, sites in SPANS:
            for owner_path, attr in sites:
                owner = _resolve(owner_path)
                original = owner.__dict__[attr] if isinstance(owner, type) \
                    else getattr(owner, attr)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "rep"],
                       "spans": self.spans}, fh)

    # -- per-layer statistics ------------------------------------------------

    def rep_stats(self, rep):
        """{span name: (calls, total_s, self_s)} for one repetition."""
        calls = defaultdict(int)
        total = defaultdict(float)
        child = defaultdict(float)   # span index -> time covered by children
        for name, t0, t1, parent, r in self.spans:
            if r != rep:
                continue
            calls[name] += 1
            total[name] += t1 - t0
            if parent >= 0:
                child[parent] += t1 - t0
        self_s = defaultdict(float)
        for k, (name, t0, t1, parent, r) in enumerate(self.spans):
            if r == rep:
                self_s[name] += (t1 - t0) - child[k]
        return {n: (calls[n], total[n], self_s[n]) for n in calls}

    def layer_metrics(self, reps):
        """Median over traced repetitions of every span triple and counter."""
        per_rep = [self.rep_stats(r) for r in reps]
        out = {}
        for name, _ in SPANS:
            for k, stat, unit, mid in ((0, "calls", "count", statistics.median_low),
                                       (1, "total_s", "s", statistics.median),
                                       (2, "self_s", "s", statistics.median)):
                vals = [st.get(name, (0, 0.0, 0.0))[k] for st in per_rep]
                out[f"{name}.{stat}"] = (mid(vals), unit)
        for name, unit in COUNTERS.items():
            vals = [self.counts.get((r, name), 0) for r in reps]
            out[name] = (statistics.median_low(vals), unit)
        geo = out["geometry.GraphSurface.geometry.calls"][0]
        ff = out["geometry.fundamental_forms.calls"][0]
        out["geometry.geometry_cache_hit_ratio"] = (1.0 - ff / geo if geo else 0.0,
                                                    "ratio")
        return out
