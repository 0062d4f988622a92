"""Traced in-process run of the CLI, and the per-layer metrics derived from it.

Run as a script, this module wraps (from outside the package) the functions
that cross a module boundary on the sweep paths, runs ``kicked_ising.cli.main``
once in this process, writes the spans as JSON and exits with the CLI's exit
code::

    PYTHONPATH=src python3 perfbench/tracer.py SPANS.json -- <cli arguments>

A span is ``{id, name, start, end, parent, point}`` plus optional attributes.
Layers are named after the package modules (``cli``, ``sweep``, ``engine``,
``states``, ``observables``, ``spectral``).  The streaming
``iter_return_probability`` generator gets one aggregated span per grid point
holding its busy time and period count, not one span per period.  Spans are
kept in memory and written once, when the run ends.

Imported by the benchmark runner, it provides ``layer_metrics``, which turns a
span list into the per-layer metrics.  Import does not touch the package.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import sys
from time import perf_counter

# (module, attribute, span name): every public name one module calls in
# another on the sweep paths.  The span name is the module that owns the code.
WRAPPED = (
    ("cli", "parse_config", "sweep.parse_config"),
    ("cli", "run_sweep", "sweep.run_sweep"),
    ("sweep", "evolve_stroboscopic", "engine.evolve_stroboscopic"),
    ("sweep", "average_return", "observables.average_return"),
    ("sweep", "fourier_spectrum", "observables.fourier_spectrum"),
    ("sweep", "lifetime", "observables.lifetime"),
    ("sweep", "check_time_reflection", "spectral.check_time_reflection"),
    ("sweep", "count_exact_pi_pairs", "spectral.count_exact_pi_pairs"),
    ("sweep", "gap_statistics", "spectral.gap_statistics"),
    ("sweep", "propagator_spectrum", "spectral.propagator_spectrum"),
    ("spectral", "build_dense_propagator", "engine.build_dense_propagator"),
    ("spectral", "quasi_energies", "spectral.quasi_energies"),
    ("engine", "bond_sum_table", "states.bond_sum_table"),
)
STREAMED = ("sweep", "iter_return_probability", "engine.iter_return_probability")
# Fewer points than this make a p90 little more than the maximum, so it reads 0.
P90_MIN_POINTS = 100


class Tracer:
    """In-memory span recorder; ``stack`` holds the ids of the open spans."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.point = None

    def _open(self, name, **attrs):
        span = {"id": len(self.spans), "name": name, "start": perf_counter(), "end": None,
                "parent": self.stack[-1] if self.stack else None, "point": self.point, **attrs}
        self.spans.append(span)
        return span["id"], span

    def wrap(self, name, fn, attrs=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, span = self._open(name, **(attrs(*args, **kwargs) if attrs else {}))
            self.stack.append(sid)
            try:
                return fn(*args, **kwargs)
            finally:
                self.stack.pop()
                span["end"] = perf_counter()
        return traced

    def wrap_stream(self, name, fn):
        """One span per generator: busy time and step count over all its steps."""
        @functools.wraps(fn)
        def traced(initial, params, *args, **kwargs):
            sid, span = self._open(name, L=params.L, busy=0.0, periods=0)
            inner = fn(initial, params, *args, **kwargs)
            span["start"] = span["end"] = None

            def steps():
                while True:
                    self.stack.append(sid)
                    t0 = perf_counter()
                    try:
                        value = next(inner)
                    finally:
                        t1 = perf_counter()
                        self.stack.pop()
                    span["busy"] += t1 - t0
                    span["periods"] += 1
                    if span["start"] is None:
                        span["start"] = t0
                    span["end"] = t1
                    yield value
            return steps()
        return traced

    def wrap_points(self, run_points):
        """Give every grid point its own span; point ids follow grid order."""
        counter = itertools.count()

        def point_worker(worker):
            traced_worker = self.wrap("sweep.point", worker, lambda task: {"L": task[0]})

            def traced_point(task):
                self.point = next(counter)
                try:
                    return traced_worker(task)
                finally:
                    self.point = None
            return traced_point

        @functools.wraps(run_points)
        def traced(worker, tasks, jobs):
            if jobs != 1:
                raise RuntimeError("the traced run needs --jobs 1: spans do not cross processes")
            return run_points(point_worker(worker), tasks, jobs)
        return traced


def _evolve_attrs(initial, params, n_periods, *args, **kwargs):
    return {"L": params.L, "periods": n_periods}


def install(tracer: Tracer) -> None:
    """Replace the cross-module bindings with traced wrappers (fails if one is gone)."""
    import importlib

    def module(short):
        return importlib.import_module(f"kicked_ising.{short}")

    for short, attr, name in WRAPPED:
        mod = module(short)
        attrs = _evolve_attrs if name == "engine.evolve_stroboscopic" else None
        setattr(mod, attr, tracer.wrap(name, getattr(mod, attr), attrs))
    short, attr, name = STREAMED
    setattr(module(short), attr, tracer.wrap_stream(name, getattr(module(short), attr)))
    sweep = module("sweep")
    sweep._run_points = tracer.wrap_points(sweep._run_points)


def main(argv) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print("usage: tracer.py SPANS.json -- <cli arguments>", file=sys.stderr)
        return 2
    path, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    from kicked_ising import cli
    install(tracer)
    code = tracer.wrap("cli.main", cli.main)(cli_args)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(tracer.spans, handle)
    return code


# --------------------------------------------------------------------------
# span analysis

def _duration(span) -> float:
    if span["start"] is None:
        return 0.0
    return span["end"] - span["start"]


def _busy(span) -> float:
    """Time spent inside the span: busy time of a streamed span, else its duration."""
    return span["busy"] if "busy" in span else _duration(span)


def _covered(children) -> float:
    """Time the children cover: union of their intervals, streamed spans by busy time.

    A streamed span's steps interleave with its caller's own code, so only
    its busy time counts, not the interval from its first to its last step.
    """
    total, cursor = 0.0, -float("inf")
    for span in sorted((s for s in children if "busy" not in s and s["start"] is not None),
                       key=lambda s: s["start"]):
        start, end = max(span["start"], cursor), span["end"]
        if end > start:
            total += end - start
        cursor = max(cursor, end)
    return total + sum(s["busy"] for s in children if "busy" in s)


def layer_metrics(spans, max_L: int) -> dict:
    """Per-layer metrics of one traced run; ``max_L`` is the workload's largest L."""
    children = {span["id"]: [] for span in spans}
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append(span)

    def named(*names):
        return [s for s in spans if s["name"] in names]

    def self_time(span, module=None):
        """Duration minus the time covered by descendants outside ``module``.

        Descendants inside ``module`` (such as ``sweep.point`` under
        ``sweep.run_sweep``) count as the span's own time.
        """
        outside, todo = [], list(children[span["id"]])
        while todo:
            child = todo.pop()
            if module and child["name"].startswith(module + "."):
                todo.extend(children[child["id"]])
            else:
                outside.append(child)
        return _duration(span) - _covered(outside)

    evolving = named("engine.iter_return_probability", "engine.evolve_stroboscopic")
    busy = sum(map(_busy, evolving))
    periods = sum(s["periods"] for s in evolving)
    amp_periods = sum(s["periods"] * (1 << s["L"]) for s in evolving)
    at_max = [s for s in evolving if s["L"] == max_L]
    max_busy = sum(map(_busy, at_max))
    max_periods = sum(s["periods"] for s in at_max)
    period_bytes = (max_L + 1) * 32 * (1 << max_L)
    dense = named("engine.build_dense_propagator")
    points = [_duration(s) for s in named("sweep.point")]
    eig = named("spectral.quasi_energies")
    sweeps = named("sweep.run_sweep")
    return {
        "engine.periods": periods,
        "engine.busy_s": busy,
        "engine.period_ns_per_amp": 1e9 * busy / amp_periods if amp_periods else 0.0,
        "engine.period_bytes_computed": period_bytes,
        "engine.period_gbps_computed": (period_bytes * max_periods / max_busy / 1e9
                                        if max_periods else 0.0),
        "engine.dense_builds": len(dense),
        "engine.dense_build_s": sum(map(_duration, dense)),
        "engine.dense_builds_per_point": len(dense) / len(points) if points else 0.0,
        "states.bond_sum_table_calls": len(named("states.bond_sum_table")),
        "states.bond_sum_table_s": sum(map(_duration, named("states.bond_sum_table"))),
        "observables.busy_s": sum(map(_duration, named(
            "observables.lifetime", "observables.average_return", "observables.fourier_spectrum"))),
        "spectral.eig_calls": len(eig),
        "spectral.eig_s": sum(map(_duration, eig)),
        "spectral.reflection_s": sum(map(self_time, named("spectral.check_time_reflection"))),
        "spectral.stats_s": sum(map(_duration, named("spectral.gap_statistics",
                                                      "spectral.count_exact_pi_pairs"))),
        "sweep.self_s": sum(self_time(s, "sweep") for s in sweeps),
        "sweep.points": len(points),
        "sweep.point_p50_s": statistics.median(points) if points else 0.0,
        "sweep.point_p90_s": (statistics.quantiles(points, n=10, method="inclusive")[-1]
                              if len(points) >= P90_MIN_POINTS else 0.0),
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
