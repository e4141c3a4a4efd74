"""Spans around trionsim's public layer entry points, and the per-layer
metrics derived from them.

Tracing is installed from outside the package: every public function
listed in TARGETS is replaced by a recording wrapper in each trionsim
module that holds it, because `pipelines` and `cli` import the
correlator, fitter and event-file functions by name while
`montecarlo.run` is looked up through its module.  Spans stay in memory
and are written out by the caller when the measured pass ends.
Untraced passes never call `install`, so they run the package as is.
"""
from __future__ import annotations

import importlib
import os
import statistics
import time

import numpy as np

# span name -> (module holding the original, attribute)
TARGETS = {
    "pipelines.run_pipeline": ("trionsim.pipelines", "run_pipeline"),
    "pipelines.heralded_sweep": ("trionsim.pipelines", "heralded_sweep"),
    "cli.main": ("trionsim.cli", "main"),
    "montecarlo.run": ("trionsim.montecarlo", "run"),
    "correlator.correlate_cw": ("trionsim.correlator", "correlate_cw"),
    "correlator.build_map2d": ("trionsim.correlator", "build_map2d"),
    "correlator.bin_lifetime": ("trionsim.correlator", "bin_lifetime"),
    "fitkit.fit_damped_cosine": ("trionsim.fitkit", "fit_damped_cosine"),
    "events_io.write_events": ("trionsim.events_io", "write_events"),
    "events_io.read_events": ("trionsim.events_io", "read_events"),
}

# per-layer metric -> (unit, better, the end-to-end metric and workload it
# should move)
LAYERS = {
    "montecarlo.run_s": ("s", "lower",
                         "wall_s on heralded_sweep and cw_pump_sweep"),
    "montecarlo.shots_per_s": ("1/s", "higher",
                               "wall_s on heralded_sweep and cw_pump_sweep"),
    "montecarlo.events_per_s": ("1/s", "higher",
                                "wall_s on heralded_sweep and cw_pump_sweep"),
    "montecarlo.emitted_per_attempt": ("frac", "higher",
                                       "wall_s on cw_pump_sweep"),
    "montecarlo.recorded_frac": ("frac", "higher",
                                 "wall_s on heralded_sweep and cw_pump_sweep"),
    "montecarlo.speedup_1to2": ("ratio", "higher",
                                "wall_s and cpu_s on heralded_sweep"),
    "correlator.correlate_cw_s": ("s", "lower", "wall_s on cw_pump_sweep"),
    "correlator.correlate_cw_calls": ("count", "lower",
                                      "wall_s on cw_pump_sweep"),
    "correlator.pairs_per_s": ("1/s", "higher", "wall_s on cw_pump_sweep"),
    "correlator.build_map2d_s": ("s", "lower", "wall_s on heralded_sweep"),
    "correlator.map_shots_used_frac": ("frac", "higher",
                                       "wall_s on heralded_sweep"),
    "correlator.bin_lifetime_s": ("s", "lower", "wall_s on lifetime_files"),
    "fitkit.fit_s": ("s", "lower", "none: fits take about 1% of wall_s"),
    "fitkit.fit_calls": ("count", "lower",
                         "none: fits take about 1% of wall_s"),
    "fitkit.iterations": ("count", "lower",
                          "none: fits take about 1% of wall_s"),
    "fitkit.converged_frac": ("frac", "higher",
                              "none: fits take about 1% of wall_s"),
    **{f"events_io.{fmt}.{op}_s": ("s", "lower", "wall_s on lifetime_files")
       for fmt in ("binary", "csv") for op in ("write", "read")},
    **{f"events_io.{fmt}.{op}_mb_per_s": ("MB/s", "higher",
                                          "wall_s on lifetime_files")
       for fmt in ("binary", "csv") for op in ("write", "read")},
    "pipelines.self_s": ("s", "lower",
                         "wall_s on heralded_sweep and cw_pump_sweep"),
    "cli.self_s": ("s", "lower", "wall_s on lifetime_files"),
    "trace.overhead_frac": ("frac", "lower", "none: tracing cost only"),
}

# every module whose namespace may hold one of the targets
HOLDERS = ("trionsim", "trionsim.montecarlo", "trionsim.correlator",
           "trionsim.fitkit", "trionsim.events_io", "trionsim.pipelines",
           "trionsim.cli")


def _file_format(path) -> str:
    from trionsim.events_io import MAGIC
    with open(path, "rb") as fh:
        return "binary" if fh.read(len(MAGIC)) == MAGIC else "csv"


def _raw_pairs(hist) -> int:
    # a normalized histogram keeps counts = raw*f and errors = sqrt(raw)*f,
    # so counts**2 / errors**2 recovers the raw count in every bin
    counts = np.asarray(hist.counts, dtype=float)
    errors = np.asarray(hist.errors, dtype=float)
    ok = errors > 0
    return int(round(float(np.sum(counts[ok] ** 2 / errors[ok] ** 2))))


def _counters(name, args, kwargs, result) -> dict:
    """Counts taken at the layer boundary, after the span has ended."""
    if name == "montecarlo.run":
        d = result.diagnostics
        return {key: int(d.get(key, 0)) for key in
                ("n_shots", "n_attempts", "n_emitted", "n_events")}
    if name == "correlator.correlate_cw":
        return {"pairs": _raw_pairs(result)}
    if name == "correlator.build_map2d":
        return {"shots_used": int(result.diagnostics["shots_used"]),
                "n_shots": int(args[0].config.n_shots)}
    if name == "fitkit.fit_damped_cosine":
        return {"n_iter": int(result.n_iterations),
                "converged": bool(result.converged)}
    if name == "events_io.write_events":
        fmt = args[2] if len(args) > 2 else kwargs.get("fmt", "binary")
        return {"format": fmt, "bytes": os.path.getsize(args[0])}
    return {}


class Tracer:
    """In-memory span recorder: (id, name, start, end, parent, counters)."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, func):
        def traced(*args, **kwargs):
            extra = {}
            if name == "events_io.read_events":
                path = args[0] if args else kwargs["path"]
                extra = {"format": _file_format(path),
                         "bytes": os.path.getsize(path)}
            span = {"id": len(self.spans), "name": name,
                    "parent": self._stack[-1] if self._stack else None}
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            span.update(extra)
            span.update(_counters(name, args, kwargs, result))
            return result
        traced.__wrapped__ = func
        return traced

    def install(self):
        for name, (module_name, attr) in TARGETS.items():
            original = getattr(importlib.import_module(module_name), attr)
            traced = self.wrap(name, original)
            for holder_name in HOLDERS:
                holder = importlib.import_module(holder_name)
                if getattr(holder, attr, None) is original:
                    setattr(holder, attr, traced)


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_time(spans, name) -> float:
    """Summed duration of spans called `name`, less their children's cover."""
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return sum((s["end"] - s["start"] - _covered(children.get(s["id"], ()))
                for s in spans if s["name"] == name), 0.0)


def _sum(spans, name, key=None) -> float:
    return sum(((s["end"] - s["start"]) if key is None else s.get(key, 0)
                for s in spans if s["name"] == name), 0.0)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(spans, spans_1w, spans_2w, wall_untraced, wall_traced):
    """Per-layer metrics of one traced pass.

    `spans` is the pass at the workload's own worker count; `spans_1w`
    and `spans_2w` are the passes at 1 and 2 workers (one of them is
    `spans`).  A layer the workload never reaches reads 0.
    """
    m = {}
    run_s = _sum(spans, "montecarlo.run")
    m["montecarlo.run_s"] = run_s
    m["montecarlo.shots_per_s"] = _ratio(_sum(spans, "montecarlo.run",
                                              "n_shots"), run_s)
    m["montecarlo.events_per_s"] = _ratio(_sum(spans, "montecarlo.run",
                                               "n_events"), run_s)
    m["montecarlo.emitted_per_attempt"] = _ratio(
        _sum(spans, "montecarlo.run", "n_emitted"),
        _sum(spans, "montecarlo.run", "n_attempts"))
    m["montecarlo.recorded_frac"] = _ratio(
        _sum(spans, "montecarlo.run", "n_events"),
        _sum(spans, "montecarlo.run", "n_emitted"))
    m["montecarlo.speedup_1to2"] = _ratio(_sum(spans_1w, "montecarlo.run"),
                                          _sum(spans_2w, "montecarlo.run"))

    cw_s = _sum(spans, "correlator.correlate_cw")
    m["correlator.correlate_cw_s"] = cw_s
    m["correlator.correlate_cw_calls"] = sum(
        s["name"] == "correlator.correlate_cw" for s in spans)
    m["correlator.pairs_per_s"] = _ratio(
        _sum(spans, "correlator.correlate_cw", "pairs"), cw_s)
    m["correlator.build_map2d_s"] = _sum(spans, "correlator.build_map2d")
    m["correlator.map_shots_used_frac"] = _ratio(
        _sum(spans, "correlator.build_map2d", "shots_used"),
        _sum(spans, "correlator.build_map2d", "n_shots"))
    m["correlator.bin_lifetime_s"] = _sum(spans, "correlator.bin_lifetime")

    fits = [s for s in spans if s["name"] == "fitkit.fit_damped_cosine"]
    m["fitkit.fit_s"] = _sum(spans, "fitkit.fit_damped_cosine")
    m["fitkit.fit_calls"] = len(fits)
    m["fitkit.iterations"] = sum(s.get("n_iter", 0) for s in fits)
    m["fitkit.converged_frac"] = _ratio(
        sum(s.get("converged", False) for s in fits), len(fits))

    for op, span_name in (("write", "events_io.write_events"),
                          ("read", "events_io.read_events")):
        for fmt in ("binary", "csv"):
            sel = [s for s in spans
                   if s["name"] == span_name and s.get("format") == fmt]
            secs = sum((s["end"] - s["start"] for s in sel), 0.0)
            mb = sum(s.get("bytes", 0) for s in sel) / 1e6
            m[f"events_io.{fmt}.{op}_s"] = secs
            m[f"events_io.{fmt}.{op}_mb_per_s"] = _ratio(mb, secs)

    m["pipelines.self_s"] = (self_time(spans, "pipelines.run_pipeline")
                             + self_time(spans, "pipelines.heralded_sweep"))
    m["cli.self_s"] = self_time(spans, "cli.main")
    m["trace.overhead_frac"] = _ratio(wall_traced - wall_untraced,
                                      wall_untraced)
    return m


def median_metrics(per_pass):
    """Median of each metric over a list of metric dicts."""
    return {k: statistics.median(d[k] for d in per_pass) for k in per_pass[0]}
