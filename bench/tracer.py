"""Spans and counts around the public functions of quasispec's layers.

Each traced function is replaced, in every quasispec module that holds it
(where its callers look it up), by a wrapper that records a span: name,
parent span, start and end.  A layer's self time is its span's duration
minus the durations of its child spans.  Counts are taken at the same
boundaries, from the call's arguments and result.  Spans stay in memory and
are summed when the run ends.  Nothing inside the program changes.
"""

import contextlib
import inspect
import os
import sys
import time

import numpy as np


def _counted(args, key):
    """Replace the iterable argument `key` by a generator that counts its items."""
    seen = [0]
    items = args[key]

    def gen():
        for item in items:
            seen[0] += 1
            yield item

    args[key] = gen()
    return seen


def _cache_files(args):
    d = args.get("cache_dir") or os.environ.get("QUASISPEC_CACHE")
    if d is None or not os.path.isdir(d):
        return d, set()
    return d, set(os.listdir(d))


def _cache_outcome(args, result, before):
    # a call that adds no file to an existing cache directory was served from it
    d, seen = before
    miss = d is None or bool(set(os.listdir(d)) - seen)
    return {"hits": int(not miss), "misses": int(miss)}


# (module, function) -> (pre, post, count names).  pre(args) runs before the
# call and may replace arguments; post(args, result, state) returns the counts
# other than "calls", which is the number of spans.
LAYERS = {
    ("eigensolve", "sturm_count_batch"): (
        None, lambda a, r, s: {"site_shifts": a["m"].n * np.size(a["energies"])},
        ("calls", "site_shifts")),
    ("eigensolve", "eigenvalues_bisect"): (None, None, ()),
    ("eigensolve", "cached_spectrum"): (_cache_files, _cache_outcome, ("hits", "misses")),
    ("model", "potential_vector"): (
        None, lambda a, r, s: {"sites": a["p"].n_sites}, ("sites",)),
    ("dos", "kde_density"): (
        None, lambda a, r, s: {"atoms": len(a["m"]), "grid_points": r.grid.size},
        ("calls", "atoms", "grid_points")),
    ("dos", "l2_bandwidth_trend"): (None, None, ()),
    ("dos", "convolve"): (
        None, lambda a, r, s: {"pairs": len(a["a"]) * len(a["b"])}, ("pairs",)),
    ("dos", "merge_atoms"): (
        None, lambda a, r, s: {"atoms_in": np.size(a["positions"]), "atoms_out": len(r)},
        ("atoms_in", "atoms_out")),
    ("dos", "empirical_measure"): (None, None, ()),
    ("dos", "local_dimension"): (None, None, ()),
    ("dos", "ids_curve"): (None, None, ()),
    ("tracemap", "escape_steps"): (
        None, lambda a, r, s: {"probes": np.size(r)}, ("calls", "probes")),
    ("tracemap", "spectrum_cover"): (
        None, lambda a, r, s: {"cells": 2 ** a["depth"], "intervals": len(r)},
        ("cells", "intervals")),
    ("intervals", "interval_set"): (
        lambda a: _counted(a, "pairs"), lambda a, r, s: {"pairs_in": s[0]}, ("pairs_in",)),
    ("intervals", "sumset"): (
        None, lambda a, r, s: {"pairs": len(a["x"]) * len(a["y"]), "intervals_out": len(r)},
        ("pairs", "intervals_out")),
    ("intervals", "gap_report"): (None, None, ()),
    ("regularity", "sample_pair"): (None, None, ("calls",)),
    ("regularity", "estimate_cond1"): (None, None, ()),
    ("regularity", "estimate_cond2"): (None, None, ()),
    ("regularity", "correlation_integral"): (None, None, ()),
    ("io", "write_csv"): (
        lambda a: _counted(a, "rows"),
        lambda a, r, s: {"rows": s[0], "bytes": os.path.getsize(r)}, ("rows", "bytes")),
    ("io", "write_manifest"): (None, None, ()),
}

# subcommands whose glue (cli.main minus the traced layers) gets a span
SUBCOMMANDS = ("spectrum1d", "ids", "dimension", "dos2d", "sumset2d", "regularity")

COUNT_UNITS = {"bytes": "B"}


def metric_units() -> dict:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for (mod, fn), (_, _, counts) in LAYERS.items():
        units[f"{mod}.{fn}.self_s"] = "s"
        for q in counts:
            units[f"{mod}.{fn}.{q}"] = COUNT_UNITS.get(q, "count")
    for sub in SUBCOMMANDS:
        units[f"cli.{sub}.self_s"] = "s"
    units["trace.overhead_pct"] = "%"
    return units


class Tracer:
    """Records spans and counts while installed; sums them on demand."""

    def __init__(self):
        self.spans = []   # [name, parent index or -1, start, end]
        self.counts = {}  # metric name -> total
        self._stack = []
        self._patched = []

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark itself, around one op."""
        idx = self._open(name)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(idx, t0, time.perf_counter())

    def install(self):
        mods = [m for k, m in sys.modules.items()
                if k == "quasispec" or k.startswith("quasispec.")]
        for (mod, fn), spec in LAYERS.items():
            orig = getattr(sys.modules[f"quasispec.{mod}"], fn)
            wrapper = self._wrap(f"{mod}.{fn}", orig, spec)
            for m in mods:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, attr, wrapper)
                        self._patched.append((m, attr, orig))

    def uninstall(self):
        for m, attr, orig in reversed(self._patched):
            setattr(m, attr, orig)
        self._patched.clear()

    def _open(self, name):
        idx = len(self.spans)
        self.spans.append([name, self._stack[-1] if self._stack else -1, 0.0, 0.0])
        self._stack.append(idx)
        return idx

    def _close(self, idx, t0, t1):
        self._stack.pop()
        self.spans[idx][2] = t0
        self.spans[idx][3] = t1

    def _wrap(self, name, fn, spec):
        pre, post, _ = spec
        sig = inspect.signature(fn) if (pre or post) else None

        def traced(*args, **kwargs):
            if sig is None:
                idx = self._open(name)
                t0 = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._close(idx, t0, time.perf_counter())
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            state = pre(bound.arguments) if pre else None
            idx = self._open(name)
            t0 = time.perf_counter()
            try:
                result = fn(*bound.args, **bound.kwargs)
            finally:
                self._close(idx, t0, time.perf_counter())
            for q, v in post(bound.arguments, result, state).items():
                key = f"{name}.{q}"
                self.counts[key] = self.counts.get(key, 0) + int(v)
            return result

        traced.__wrapped__ = fn
        return traced

    def totals(self) -> dict:
        """Metric name -> total: self time (duration minus child spans),
        calls, and the counts taken at each call."""
        child = [0.0] * len(self.spans)
        for name, parent, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = dict(self.counts)
        for (name, _, t0, t1), c in zip(self.spans, child):
            out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + (t1 - t0 - c)
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
        return out
