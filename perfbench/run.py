"""Benchmark of the kicked-ising CLI sweeps: end-to-end runs and a traced run per layer.

Run from the repository root::

    python3 perfbench/run.py --workload phase-L8 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn
    python3 perfbench/run.py --self-test             # shrunken workloads, a few seconds

``--trace 0`` measures the set-up cost (import plus ``parse_config``) in
separate processes, then runs the workload through ``python -m
kicked_ising.cli`` (one subprocess per run, ``src`` on ``PYTHONPATH``) as many
times as fit in ``--seconds`` (at least once), and reports medians.
``--trace 1`` runs the workload once untraced and once traced in-process
(both with ``--jobs 1``; see ``tracer.py``), probes the engine kernels at the
workload's largest L, and reports the per-layer metrics.  Every output of
every run is checked against reference values (``workloads.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
name every metric with its unit, plus ``error_rate`` and ``ref_mismatches``,
and a JSON ``detail`` record with the seed, the generated flags, every run and
the environment.  The exit code is non-zero on any failed row or reference
mismatch, and when the checkout has no ``src/kicked_ising``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "kicked_ising"
WORK = ROOT / ".perfbench-work"
SETUP_REPEATS = 5
RUN_DEADLINE_S = 170.0
PROBE_BATCHES = 7
PROBE_BATCH_S = 0.02
SETUP_SNIPPET = "import sys\nfrom kicked_ising.cli import parse_config\nparse_config(sys.argv[1:])\n"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class Budget:
    """Wall-clock deadline shared by every child of one benchmark invocation."""

    def __init__(self, seconds: float):
        self.end = perf_counter() + seconds

    def left(self) -> float:
        return max(1.0, self.end - perf_counter())


def spawn(args: list, log: Path, budget: Budget) -> dict:
    """Run a child to completion; wall time is launch to exit, RSS from wait4.

    On Linux the ``ru_maxrss`` of a reaped child is the largest peak RSS of
    any single process in its tree (the CLI or one of its pool workers), not
    their sum.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with open(log, "wb") as out:
        started = perf_counter()
        proc = subprocess.Popen(args, cwd=ROOT, env=env, stdout=out, stderr=subprocess.STDOUT)
        watchdog = threading.Timer(budget.left(), proc.kill)
        watchdog.start()
        status = None
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = perf_counter() - started
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            watchdog.cancel()
            if status is None:
                proc.kill()
                proc.wait()
    return {"wall_s": wall, "rss_mb": usage.ru_maxrss / 1024.0, "exit": proc.returncode}


def output_stats(out_dir: Path) -> dict:
    files = sorted(out_dir.glob("*.csv"))
    return {
        "files_written": len(files),
        "bytes_written": sum(f.stat().st_size for f in files),
        "rows_written": sum(len(workloads.read_csv(f)) for f in files),
    }


def finish_run(spec, run: dict, out: Path, log: Path, points: int) -> dict:
    """Check one run's outputs and count its rows; a failed exit fails every row.

    The rows read are kept in ``run["output_rows"]`` for the self-test.
    """
    check = workloads.Check()
    rows = workloads.read_csv(out) if run["exit"] == 0 and out.exists() else []
    if run["exit"] != 0 or len(rows) != points:
        tail = log.read_text(errors="replace")[-400:] if log.exists() else ""
        check.expect(False, f"exit {run['exit']}, {len(rows)} of {points} rows: {tail!r}")
        run.update(rows=points, failed_rows=points, amp_periods=0.0)
    else:
        spec.check(rows, out, spec, check)
        run.update(rows=len(rows), failed_rows=sum(1 for r in rows if r["error"]),
                   amp_periods=spec.work(rows) if spec.work else 0.0, max_L=max(int(r["L"]) for r in rows),
                   **output_stats(out.parent))
    run.update(checked=check.checked, mismatches=check.mismatches, output_rows=rows)
    return run


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def run_cli(spec, work: Path, budget: Budget, points: int, jobs=None) -> dict:
    out = fresh_dir(work / "out") / "sweep.csv"
    log = work / "cli.log"
    run = spawn([sys.executable, "-m", "kicked_ising.cli", *spec.cli_args(out, jobs)], log, budget)
    return finish_run(spec, run, out, log, points)


def run_traced(spec, work: Path, budget: Budget, points: int) -> tuple:
    out = fresh_dir(work / "out") / "sweep.csv"
    spans_path = work / "spans.json"
    spans_path.unlink(missing_ok=True)
    log = work / "traced.log"
    run = spawn([sys.executable, str(Path(tracer.__file__)), str(spans_path), "--",
                 *spec.cli_args(out, jobs=1)], log, budget)
    run = finish_run(spec, run, out, log, points)
    spans = json.loads(spans_path.read_text()) if spans_path.exists() else []
    return run, spans


def measure_setup(spec, work: Path, budget: Budget, repeats: int) -> list:
    """Launch-to-exit time of import + parse_config, after one unmeasured warm-up."""
    args = [sys.executable, "-c", SETUP_SNIPPET, *spec.cli_args(work / "setup.csv")]
    times = []
    for i in range(repeats + 1):
        run = spawn(args, work / "setup.log", budget)
        if run["exit"] != 0:
            raise RuntimeError(f"set-up probe failed: {(work / 'setup.log').read_text()[-500:]}")
        if i:
            times.append(run["wall_s"])
    return times


def engine_probes(L: int) -> dict:
    """ns per amplitude of one kick sweep, one ZZ-phase multiply and one overlap at ``L``."""
    from kicked_ising import (FloquetParams, apply_global_x_rotation, apply_zz_phase, overlap,
                              product_state)

    params = FloquetParams.from_dimensionless(L, 0.9, 0.1)
    # A tilted product state has every amplitude non-zero.  The polarized
    # state is avoided: at L=20 its kicked image misses the StateVector norm
    # tolerance (|norm - 1| = 2e-12 > 1e-12), so the public kick raises.
    start = product_state(L, [(0.3, 0.2)] * L)
    state = apply_global_x_rotation(start, params.theta)
    apply_zz_phase(state, params)  # fills the phase-table cache outside the timing
    calls = {
        "engine.kick_ns_per_amp": lambda: apply_global_x_rotation(start, params.theta),
        "engine.zz_ns_per_amp": lambda: apply_zz_phase(state, params),
        "engine.overlap_ns_per_amp": lambda: overlap(start, state),
    }
    result = {}
    for name, call in calls.items():
        t0 = perf_counter()
        call()
        per_batch = max(1, int(PROBE_BATCH_S / max(perf_counter() - t0, 1e-9)))
        samples = []
        for _ in range(PROBE_BATCHES):
            t0 = perf_counter()
            for _ in range(per_batch):
                call()
            samples.append((perf_counter() - t0) / per_batch)
        result[name] = 1e9 * statistics.median(samples) / (1 << L)
    return result


def _read(path: str) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return ""


def environment() -> dict:
    import numpy
    import scipy

    cpu_model = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                      if line.startswith("model name")), platform.processor())
    caches = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        caches.append(f"L{_read(index / 'level')} {_read(index / 'type')} {_read(index / 'size')}")
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    revision = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
        revision = git.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "caches": caches,
        "roofline": "none: the reported last-level cache is larger than 4x any array here, so "
                    "engine bytes are computed from array sizes and no roofline ratio is given",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_revision": revision,
    }


def _median(runs, key):
    return statistics.median(r[key] for r in runs)


def end_to_end(spec, work, seconds, budget, setup_repeats) -> tuple:
    points = len_points(spec)
    setup = measure_setup(spec, work, budget, setup_repeats)
    runs, t0 = [], perf_counter()
    while True:
        runs.append(run_cli(spec, work, budget, points))
        elapsed = perf_counter() - t0
        if runs[-1]["exit"] != 0 or elapsed + runs[-1]["wall_s"] > seconds:
            break
    wall = _median(runs, "wall_s")
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "points_per_s": points / wall,
        "peak_rss_mb": _median(runs, "rss_mb"),
    }
    extra = {}
    if spec.work:
        extra["amp_periods_per_s"] = statistics.median(r["amp_periods"] / r["wall_s"] for r in runs)
    return metrics, extra, runs, {"setup_s_samples": setup}


def per_layer(spec, work, budget) -> tuple:
    points = len_points(spec)
    plain = run_cli(spec, work, budget, points, jobs=1)
    traced, spans = run_traced(spec, work, budget, points)
    runs = [plain, traced]
    if "max_L" not in traced or not spans:
        return None, {}, runs, {}
    max_L = traced["max_L"]
    metrics = tracer.layer_metrics(spans, max_L)
    metrics.update(engine_probes(max_L))
    metrics.update({
        "sweep.rows": traced["rows_written"],
        "sweep.files_written": traced["files_written"],
        "sweep.bytes_written": traced["bytes_written"],
        "amp_periods_per_s": plain["amp_periods"] / plain["wall_s"],
        "trace.overhead_pct": 100.0 * (traced["wall_s"] - plain["wall_s"]) / plain["wall_s"],
    })
    return metrics, {}, runs, {"spans": len(spans)}


def len_points(spec) -> int:
    """Grid points of a workload, from its flags (the CLI's own grid expansion)."""
    from kicked_ising.sweep import parse_config

    return len(parse_config([*spec.cli_args(Path("unused.csv"))]).grid())


def run_workload(name: str, seed: int, seconds: float, trace: int, units: dict,
                 small: bool = False, inspect=None) -> dict:
    """Run and report one workload.

    ``inspect(spec, run, out)`` is called with the last run and its summary
    CSV path while that run's outputs are still on disk.
    """
    spec = workloads.make(name, seed, small)
    budget = Budget(RUN_DEADLINE_S)
    work = fresh_dir(WORK / f"{name}-{os.getpid()}")
    try:
        if trace:
            metrics, extra, runs, detail = per_layer(spec, work, budget)
        else:
            metrics, extra, runs, detail = end_to_end(spec, work, seconds, budget,
                                                      1 if small else SETUP_REPEATS)
        if inspect:
            inspect(spec, runs[-1], work / "out" / "sweep.csv")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted = sum(r["rows"] for r in runs)
    failed = sum(r["failed_rows"] for r in runs)
    mismatches = [m for r in runs for m in r["mismatches"]]
    correct = metrics is not None and not mismatches and failed == 0

    print(f"workload {name}  seed {seed}  trace {trace}")
    print(f"  cli: python -m kicked_ising.cli {' '.join(spec.cli_args(Path('OUT.csv')))}")
    shown = {**(metrics or {}), **extra, "error_rate": failed / attempted,
             "ref_mismatches": len(mismatches)}
    units = {**units, "error_rate": "fraction", "ref_mismatches": "count"}
    for key, value in shown.items():
        print(f"  {key:<30} {value:<24.10g} {units.get(key, '')}")
    for line in mismatches[:20]:
        print(f"  MISMATCH {line}")
    print(json.dumps({"detail": {
        "workload": name, "seed": seed, "trace": trace, "cli_args": list(spec.argv),
        "jobs": 1 if trace else spec.jobs, "oracle_cells": list(spec.oracle_cells),
        "runs": [{k: v for k, v in r.items() if k not in ("mismatches", "output_rows")}
                 for r in runs],
        "checked_values": sum(r["checked"] for r in runs), **detail,
        "environment": environment(),
    }}))
    return {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {key: {"value": value, "unit": units[key]}
                    for key, value in (metrics or {}).items() if key in units},
    }


def self_test(declared: dict) -> int:
    """Shrunken workloads through every harness path; fails if anything is missing or wrong."""
    problems = []
    keep = {"L", "jt_over_pi", "epsilon_over_pi", "n_max_pairs", "window", "n_periods",
            "series_file", "spectrum_file", "error"}

    def blank_outputs(spec, run, out):
        """The checks must notice wrong outputs: blank every result column."""
        blanked = [{k: (v if k in keep else "") for k, v in row.items()}
                   for row in run["output_rows"]]
        check = workloads.Check()
        spec.check(blanked, out, spec, check)
        if not blanked or not check.mismatches:
            problems.append(f"{spec.name}: blanked outputs passed the reference checks")

    for name in workloads.NAMES:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            result = run_workload(name, 1, 0.0, trace, declared["units"], small=True,
                                  inspect=None if trace else blank_outputs)
            if not result["correct"]:
                problems.append(f"{name} trace {trace}: outputs failed their checks")
            for metric in declared[group]:
                value = result["metrics"].get(metric, {}).get("value")
                if not isinstance(value, (int, float)) or not math.isfinite(value):
                    problems.append(f"{name} trace {trace}: metric {metric} = {value!r}")
    for line in problems:
        print(f"self-test: {line}", file=sys.stderr)
    print("self-test " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=(*workloads.NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)

    if not (PACKAGE / "cli.py").is_file():
        print(f"error: no package sources at {PACKAGE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    signal.signal(signal.SIGTERM, _terminate)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        "end_to_end": [m["name"] for m in spec["end_to_end"]],
        "per_layer": [m["name"] for m in spec["per_layer"]],
        "units": {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]},
    }
    try:
        if args.self_test:
            return self_test(declared)
        names = workloads.NAMES if args.workload == "all" else (args.workload,)
        ok = True
        for name in names:
            result = run_workload(name, args.seed, args.seconds, args.trace, declared["units"])
            print(json.dumps(result))
            ok = ok and result["correct"]
        return 0 if ok else 1
    finally:
        try:
            WORK.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
