"""In-memory span tracer for the benchmark's traced run.

Wrappers go around the public functions of ``qfdr`` at every name a caller
looks them up by (``cli`` binds several with ``from ... import``), record one
span per call (name, start, end, parent) and the call's work counts, and are
removed again when the traced pass ends.  Nothing in ``src/`` is edited.
Calls made outside an operation span (the correctness gates) pass straight
through and are not recorded.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import pkgutil
import statistics
import sys
import time
import tracemalloc
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field

import qfdr


def _arguments(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _size(a, r) -> int:
    return os.path.getsize(a["path"])


# layer -> {count name: count from the call's bound arguments ``a`` and result ``r``}
LAYERS = {
    "protocol.sample_work": {"step_draws": lambda a, r: a["runs"] * a["spec"].n_steps},
    "stats.bootstrap_q": {"step_draws": lambda a, r: a["resamples"] * a["runs"] * a["n_steps"]},
    "stats.estimate_from_samples": {},
    "io.write_samples": {"rows": lambda a, r: a["samples"].runs, "bytes": _size},
    "io.read_samples": {"rows": lambda a, r: r.runs},
    "io.write_table": {"rows": lambda a, r: len(a["rows"]), "bytes": _size},
    "analytics.incoherent_region_sweep": {
        "grid_cells": lambda a, r: len(r.points) + r.skipped,
        "points": lambda a, r: len(r.points),
    },
    "analytics.incoherent_correction": {"steps": lambda a, r: a["spec"].n_steps},
    "analytics.coherent_theory_curve": {},
    "analytics.spam_bound_curve": {},
    "reference.load_reference_points": {},
    "cli.load_config": {},
}

# layers whose peak traced allocation is reported; tracemalloc roughly
# doubles their run time, so it is switched on only in a separate pass
MEMORY_LAYERS = ("protocol.sample_work", "stats.bootstrap_q")

# layer -> (numerator count, rate name); the rate divides by the layer's self time
RATES = {
    "stats.bootstrap_q": ("step_draws", "step_draws_per_s"),
    "protocol.sample_work": ("step_draws", "step_draws_per_s"),
    "io.write_samples": ("rows", "rows_per_s"),
    "io.read_samples": ("rows", "rows_per_s"),
    "analytics.incoherent_region_sweep": ("grid_cells", "cells_per_s"),
}


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans of one pass, kept in memory in the order they were opened."""

    def __init__(self, measure_memory: bool = False):
        self.spans: list[Span] = []
        self.measure_memory = measure_memory
        self._open: list[int] = []

    def _push(self, name: str) -> Span:
        span = Span(name, 0.0, parent=self._open[-1] if self._open else None)
        self._open.append(len(self.spans))
        self.spans.append(span)
        return span

    @contextmanager
    def operation(self, name: str):
        """Top-level span around one benchmark operation."""
        span = self._push(name)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    def call(self, name, fn, counters, args, kwargs):
        if not self._open:
            return fn(*args, **kwargs)
        span = self._push(name)
        memory = self.measure_memory and name in MEMORY_LAYERS
        if memory:
            tracemalloc.start()
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._open.pop()
            if memory:
                span.counts["peak_mb"] = tracemalloc.get_traced_memory()[1] / 1e6
                tracemalloc.stop()
        if counters:
            bound = _arguments(fn, args, kwargs)
            span.counts.update({key: count(bound, result) for key, count in counters.items()})
        return result

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [span.duration for span in self.spans]
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.duration
        return own

    def to_json(self) -> list[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "counts": s.counts}
            for s in self.spans
        ]


def wrap(tracer: Tracer, name: str, fn, counters=None):
    """Return ``fn`` wrapped so each call inside an operation records a span."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, fn, counters, args, kwargs)

    return traced


def _qfdr_modules() -> list:
    names = [f"qfdr.{info.name}" for info in pkgutil.iter_modules(qfdr.__path__)]
    return [qfdr] + [importlib.import_module(name) for name in sorted(names)]


def _binding_sites(modules, layer: str):
    """Every (module, attribute) in qfdr bound to the layer's function."""
    module_name, attribute = layer.split(".")
    original = getattr(sys.modules[f"qfdr.{module_name}"], attribute)
    return original, [m for m in modules if getattr(m, attribute, None) is original]


@contextmanager
def installed(tracer: Tracer):
    """Patch every layer at every name it is bound to; restore on exit."""
    modules = _qfdr_modules()
    restore = []
    try:
        for layer, counters in LAYERS.items():
            original, sites = _binding_sites(modules, layer)
            traced = wrap(tracer, layer, original, counters)
            attribute = layer.split(".")[1]
            for module in sites:
                setattr(module, attribute, traced)
                restore.append((module, attribute, original))
        yield tracer
    finally:
        for module, attribute, original in restore:
            setattr(module, attribute, original)


def _pass_totals(tracer: Tracer, wall: float) -> Counter:
    """One pass's self time, calls and counts per layer, glue per CLI command."""
    totals = Counter()
    for span, self_s in zip(tracer.spans, tracer.self_times()):
        totals[f"{span.name}.self_s"] += self_s
        if span.parent is not None:
            totals[f"{span.name}.calls"] += 1
            totals.update({f"{span.name}.{k}": v for k, v in span.counts.items()})
    in_operations = sum(span.duration for span in tracer.spans if span.parent is None)
    totals["trace.unaccounted_frac"] = 1.0 - in_operations / wall
    return totals


def layer_metrics(passes: list[tuple[Tracer, float]], memory: Tracer, commands) -> dict:
    """Per-layer metrics of traced passes, given as (tracer, pass wall seconds).

    Self times, calls and counts are means of per-pass totals; a rate is
    the work of all passes over the layer's self time in all passes; a peak
    allocation is the largest of the memory pass's calls.  A CLI command's
    ``self_s`` is its operation span minus the layer spans inside it.
    """
    per_pass = [_pass_totals(tracer, wall) for tracer, wall in passes]

    def mean(key: str) -> float:
        return statistics.fmean(totals[key] for totals in per_pass)

    metrics = {}
    for layer, counters in LAYERS.items():
        metrics[f"{layer}.self_s"] = (mean(f"{layer}.self_s"), "s")
        metrics[f"{layer}.calls"] = (mean(f"{layer}.calls"), "count")
        for count in counters:
            unit = "bytes" if count == "bytes" else "count"
            metrics[f"{layer}.{count}"] = (mean(f"{layer}.{count}"), unit)
    for layer, (count, rate) in RATES.items():
        work = sum(totals[f"{layer}.{count}"] for totals in per_pass)
        busy = sum(totals[f"{layer}.self_s"] for totals in per_pass)
        metrics[f"{layer}.{rate}"] = (work / busy if busy > 0 else 0.0, "1/s")
    for layer in MEMORY_LAYERS:
        peaks = [span.counts["peak_mb"] for span in memory.spans if span.name == layer]
        metrics[f"{layer}.peak_mb"] = (max(peaks, default=0.0), "MB")
    for command in commands:
        metrics[f"cli.{command}.self_s"] = (mean(f"cli.{command}.self_s"), "s")
    metrics["trace.unaccounted_frac"] = (mean("trace.unaccounted_frac"), "fraction")
    return metrics
