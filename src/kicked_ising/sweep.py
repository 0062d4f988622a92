"""Parameter sweeps over the kicked-chain model, with CSV output.

Five sweep modes cover the standard numerical experiments:

``evolve``
    Stroboscopic time series (return probability and per-site magnetization)
    for each grid point, plus a summary row per point.
``lifetime-scan``
    First crossing of the even-period return probability below a threshold,
    scanned over chain length and drive parameters.  Points that never cross
    within the horizon are reported as censored.
``phase-diagram``
    Early-time average of the even-period return probability on a 2-d grid of
    drive parameters at a single chain length.
``spectrum``
    Quasi-energy pairing statistics, exact pair counts at the two anchor
    phases, and the time-reflection residual, per grid point.
``fourier``
    Discrete Fourier transform of the full return-probability series, with
    the dominant bin and the subharmonic (half drive frequency) weight.

``lifetime-scan``, ``phase-diagram`` and ``fourier`` read one stream of
P(nT) from the all-up start, the closed-form product over the two parity
sectors of the free-fermion chain (``sectors.sector_chunks``):
O(L) numbers per point at any chain length, and no 2**L array.  ``spectrum``
sums their mode phases into the 2**L levels (``sectors.free_fermion_levels``)
and runs no eigensolver.  ``evolve`` iterates the 2**L state, whose norm
drift and site magnetizations it reports.

Every run writes a single summary CSV whose first line is a ``#``-prefixed
JSON object echoing the sweep configuration and recording provenance
(tool, version, timestamp, elapsed time, the worker count asked for and the
processes started, and the engine -- ``free-fermion`` or ``iterative`` --
that computed each row).
The data that follows is a function of the configuration alone: repeated
runs produce byte-identical files once the provenance object is ignored,
regardless of ``jobs``.  Floats are written with ``repr`` so values
round-trip exactly.

Each mode is one ``_Mode`` row of the ``_MODES`` table: among its columns the
point function from ``(FloquetParams, SweepConfig)`` to result cells and the
kind of auxiliary CSV its points write, if any (one per grid point next to
the summary, ``<stem>_series_<idx>.csv`` or ``<stem>_spectrum_<idx>.csv``,
named in the row).  Each setting is one entry of ``_SETTINGS``, which the
subcommand parsers, the config-file check and the value conversion all read.
Every file is written under a temporary name and renamed into place, so a
failed write leaves no partial file.

Grid points are processed independently and rows are emitted in grid order.
The stream's points at one chain length run as batches of drives, arrays of
points at once, and ``lifetime-scan`` and ``phase-diagram`` compute the even
periods alone.  With ``jobs`` > 1 the tasks (a point each for ``evolve`` and
``spectrum``, on the stream runs of points that carry ``_TASK_WORK`` each) go
to a process pool, but only when there are two or more: a grid too cheap to
pay for the pool's start-up runs in-process.  A failure at one point is
captured in that row's ``error`` column instead of aborting the sweep.
"""

from __future__ import annotations

import argparse
import csv
import errno
import itertools
import json
import os
import time
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

import numpy as np

from . import __version__, blas
from .engine import evolve_stroboscopic
# perfbench/tracer.py wraps sweep.iter_return_probability; its install fails without the name.
from .engine import iter_return_probability  # noqa: F401
from .observables import average_return, fourier_spectrum, lifetime
from .sectors import _require_levels, _require_stream, _table_bytes, sector_chunks
from .spectral import (check_time_reflection, count_exact_pi_pairs, gap_statistics,
                       propagator_spectrum)
from .states import FloquetParams, _require_bytes, _require_state, polarized_state


class ConfigError(ValueError):
    """Invalid sweep configuration (bad values, bad grids, unknown keys)."""


@dataclass(frozen=True)
class SweepConfig:
    """Fully resolved description of one sweep run."""

    mode: str
    lengths: tuple[int, ...]
    jt_over_pi: tuple[float, ...]
    epsilon_over_pi: tuple[float, ...]
    n_periods: int
    threshold: float = 0.05
    window: int = 1000
    out: str = ""
    jobs: int = 1
    dump_spectra: bool = False

    def validate(self, problems: Iterable[str] = ()) -> None:
        """Raise ConfigError (wrong types, else all problems; ``problems`` from parsing first)
        or CapacityError (an array of the mode's path, the horizon's series included)."""
        problems = list(problems)
        mistyped = [f"{name}: expected {'a tuple, each ' if grid else ''}{_JSON_TYPES[kind]}, "
                    f"got {getattr(self, name)!r}" for name, kind, grid, _ in _SETTINGS.values()
                    if not _is_json(getattr(self, name), kind, grid)]
        if mistyped:
            raise ConfigError("invalid configuration:\n  - " + "\n  - ".join(problems + mistyped))
        if self.mode not in MODES:
            problems.append(f"unknown mode {self.mode!r}; choose from {', '.join(MODES)}")
        if not self.lengths:
            problems.append("no chain length given (--length)")
        for L in self.lengths:
            if L < 2:
                problems.append(f"chain length must be at least 2, got {L}")
        if not self.jt_over_pi:
            problems.append("no interaction phase given (--jt-over-pi)")
        if not self.epsilon_over_pi:
            problems.append("no kick imperfection given (--epsilon-over-pi)")
        drives = self.jt_over_pi + self.epsilon_over_pi
        non_finite = [x for x in drives if not np.isfinite(x)]
        if non_finite:
            problems.append(f"drive parameters must be finite, got {non_finite}")
        overflowing = [x for x in drives if np.isfinite(x) and not np.isfinite(np.pi * x)]
        if overflowing:
            problems.append(f"pi times a drive parameter overflows a float, got {overflowing}")
        for key, value in (("periods", self.n_periods), ("window", self.window),
                           ("jobs", self.jobs)):
            if value < 1:
                problems.append(f"{key} must be positive, got {value}")
        # one period has no DFT (fourier) and no even period to compare (lifetime-scan)
        if self.mode in ("fourier", "lifetime-scan") and self.n_periods == 1:
            problems.append(f"{self.mode} needs at least 2 periods, got 1")
        if not 0.0 < self.threshold < 1.0:
            problems.append(f"threshold must lie strictly between 0 and 1, got {self.threshold}")
        if not self.out:
            problems.append("no output path given (--out)")
        if self.dump_spectra and self.mode != "spectrum":
            problems.append(f"dump_spectra: only spectrum dumps spectra, not {self.mode}")
        if self.mode == "phase-diagram":
            if len(set(self.lengths)) > 1:
                problems.append("phase-diagram runs at a single chain length")
            if self.n_periods < 2 * self.window:
                problems.append("phase-diagram needs at least 2*window periods (window="
                                f"{self.window} even-period samples), got {self.n_periods}")
        if problems:
            raise ConfigError("invalid configuration:\n  - " + "\n  - ".join(problems))
        for L in self.lengths:
            _MODES[self.mode].require(L)
            # arrays that grow with the horizon: evolve's sz series, fourier's transform
            horizon = {"evolve": (8 * L, "the sz series"), "fourier": (16, "the transform")}
            if self.mode in horizon:
                per_period, what = horizon[self.mode]
                _require_bytes(L, per_period * self.n_periods, f"{what} of {self.n_periods} periods")

    def grid(self) -> list[tuple[int, float, float]]:
        """All (L, JT/pi, epsilon/pi) points, in deterministic grid order."""
        if self.mode == "phase-diagram":
            L = self.lengths[0]
            return [(L, jt, eps) for jt, eps in itertools.product(self.jt_over_pi, self.epsilon_over_pi)]
        return list(itertools.product(self.lengths, self.jt_over_pi, self.epsilon_over_pi))


@dataclass
class SweepResult:
    """Rows produced by a sweep, plus where they were written."""

    config: SweepConfig
    columns: tuple[str, ...]
    rows: list[dict]
    path: Path
    aux_files: list[Path] = field(default_factory=list)


#: Stream work of a task: samples read times phase-table rows, L + 1 a sample.  Two tasks of
#: this much pay for a pool of two workers, as each takes as long in-process as the pool's
#: start-up: 0.038 s in the CLI (median difference of 15 paired launches of a two-point
#: lifetime-scan at --jobs 2 and 1) at the batched stream's 60 million sample-rows a second
#: (phase-diagram at L = 8, 328 drives, window 500; about 90 million at L = 40), both on a
#: 2-core x86-64 host.
_TASK_WORK = 2_300_000
#: Phase-table bytes of one batch of drives streamed at once, 14 drives at L = 8.  On that
#: grid, batches of 3, 7, 14 and 28 drives took 62, 42, 33 and 31 ms, and the CLI's peak RSS
#: rose from 31.2 MB (one drive at a time) to 32.0 MB at 1 MiB and 33.4 MB at 2 MiB.
_BATCH_BYTES = 1 << 20


# --------------------------------------------------------------------------
# point functions: (FloquetParams, config) -> result cells, or (list of FloquetParams at one L,
# config) -> the cells of each; cells may hold an ``_aux = (columns, arrays)`` curve, one array
# per column, written next to the summary

def _evolve_point(params: FloquetParams, config: SweepConfig) -> dict:
    L = params.L
    series = evolve_stroboscopic(polarized_state(L), params, config.n_periods)
    even = series.return_probability[1::2]
    crossing = lifetime(even, config.threshold) if even.size else None
    window_used = min(config.window, even.size) if even.size else None
    columns = ["n", "t", "return_probability"] + [f"sz_{site}" for site in range(L)]
    # time in periods: t equals n, written as a float ("1.0", "2.0", ...) like the other curve columns
    curve = (series.n, series.n.astype(np.float64), series.return_probability, *series.sz.T)
    return dict(
        n_star=None if crossing is None else crossing.n_star,
        censored=None if crossing is None else crossing.censored,
        average_return=None if window_used is None else average_return(even, window_used),
        window_used=window_used,
        norm_drift=series.norm_drift,
        _aux=(columns, curve),
    )


def _sub_batches(drives: list) -> list[list]:
    """``drives`` in runs whose phase table takes ``_BATCH_BYTES`` at most, or one drive."""
    size = max(1, _BATCH_BYTES // _table_bytes(drives[0].L))
    return [drives[i:i + size] for i in range(0, len(drives), size)]


def _stream(batch: list, samples: int, even: bool):
    """The first ``samples`` columns of ``sector_chunks(batch, even)``, chunk by chunk."""
    for chunk in sector_chunks(batch, even):
        yield chunk[:, :samples]
        samples -= chunk.shape[1]
        if samples <= 0:
            return


def _lifetime_points(drives: list, config: SweepConfig) -> list[dict]:
    """``n_star`` indexes even periods (pairs); odd periods are never computed.  A drive leaves
    its batch's stream once it crosses, so it computes the chunks it would alone."""
    n_max, n_star = config.n_periods // 2, []
    for batch in _sub_batches(drives):
        found = [None] * len(batch)
        left = np.arange(len(batch))  # the drives still streamed
        stream = sector_chunks(batch, even=True)
        chunk, read = next(stream), 0
        while True:
            below = chunk[:, :n_max - read] < config.threshold
            crossed = below.any(axis=1)
            for row in np.flatnonzero(crossed):
                found[left[row]] = read + 1 + int(below[row].argmax())
            read, left = read + below.shape[1], left[~crossed]
            if read == n_max or not left.size:
                break
            chunk = stream.send(~crossed) if crossed.any() else next(stream)
        n_star += found
    return [{"n_star": n, "censored": n is None} for n in n_star]


def _phase_points(drives: list, config: SweepConfig) -> list[dict]:
    """The mean of the first ``window`` even samples, added up in order, as ``total += p``."""
    averages = []
    for batch in _sub_batches(drives):
        total = np.zeros(len(batch))
        for part in _stream(batch, config.window, even=True):
            part[:, 0] += total
            total = np.add.accumulate(part, axis=1)[:, -1]
        averages += (total / config.window).tolist()
    return [{"average_return": average} for average in averages]


def _spectrum_point(params: FloquetParams, config: SweepConfig) -> dict:
    spec = propagator_spectrum(params)
    cells = dict(**asdict(gap_statistics(spec)), **asdict(count_exact_pi_pairs(spec)),
                 reflection_residual=check_time_reflection(params))
    if config.dump_spectra:
        cells["_aux"] = (("index", "quasi_energy"), (np.arange(spec.dim), spec.energies))
    return cells


def _fourier_points(drives: list, config: SweepConfig) -> list[dict]:
    half = config.n_periods // 2 if config.n_periods % 2 == 0 else None
    cells = []
    for batch in _sub_batches(drives):
        for samples in np.concatenate(list(_stream(batch, config.n_periods, even=False)), axis=1):
            spectrum = fourier_spectrum(samples)
            peak = spectrum.peak_bin()
            cells.append(dict(
                peak_bin=peak,
                peak_frequency=float(spectrum.frequencies[peak]),
                peak_magnitude=float(spectrum.magnitudes[peak]),
                subharmonic_magnitude=None if half is None else float(spectrum.magnitudes[half]),
                _aux=(("bin", "frequency", "magnitude"),
                      (np.arange(spectrum.n_samples), spectrum.frequencies, spectrum.magnitudes)),
            ))
    return cells


def _each(point: Callable) -> Callable:
    """A point function of one FloquetParams as one of a task's list of them."""
    return lambda drives, config: [point(params, config) for params in drives]


_POINT = ("L", "jt_over_pi", "epsilon_over_pi")


class _Mode(NamedTuple):
    """A row of ``_MODES``."""

    columns: tuple[str, ...]  # summary columns
    point: Callable           # (list of FloquetParams at one L, SweepConfig) -> cells of each
    engine: str               # what computes every row (``provenance.paths``)
    require: Callable         # L -> None: checks the path's largest array, before any point
    aux: Optional[str]        # kind of the per-point CSV, if the points write one
    periods: int              # default horizon (``--periods``)
    help: str                 # the subcommand's help
    samples: Optional[Callable] = None  # config -> stream samples a point reads; None: not batched


_MODES = {
    "evolve": _Mode(_POINT + ("n_periods", "n_star", "censored", "average_return",
                              "window_used", "norm_drift", "series_file", "error"),
                    _each(_evolve_point), "iterative", _require_state, "series", 2000,
                    "record return probability and magnetization time series"),
    "lifetime-scan": _Mode(_POINT + ("threshold", "n_max_pairs", "n_star", "censored", "error"),
                           _lifetime_points, "free-fermion", _require_stream, None, 100_000,
                           "scan the threshold-crossing time of the even-period return "
                           "probability", lambda config: config.n_periods // 2),
    "phase-diagram": _Mode(_POINT + ("window", "average_return", "error"), _phase_points,
                           "free-fermion", _require_stream, None, 2000, "map the early-time "
                           "averaged return probability over drive parameters",
                           lambda config: config.window),
    "spectrum": _Mode(_POINT + ("delta0_mean", "delta_pi_mean", "ratio", "n_zero", "n_pi",
                                "reflection_residual", "spectrum_file", "error"),
                      _each(_spectrum_point), "free-fermion", _require_levels, "spectrum", 2000,
                      "report quasi-energy pairing statistics and symmetry residuals"),
    "fourier": _Mode(_POINT + ("n_periods", "peak_bin", "peak_frequency", "peak_magnitude",
                               "subharmonic_magnitude", "spectrum_file", "error"),
                     _fourier_points, "free-fermion", _require_stream, "spectrum", 2000,
                     "Fourier-analyze the return-probability series",
                     lambda config: config.n_periods),
}
MODES = tuple(_MODES)


def _tasks(config: SweepConfig) -> list[tuple]:
    """The grid as tasks ``(L, drives, config)`` in grid order, ``drives`` their (JT/pi,
    epsilon/pi): one point each, or on the stream the points at one L in as many runs of
    consecutive points, equal to within one, as carry ``_TASK_WORK`` each (one at least)."""
    samples = _MODES[config.mode].samples
    tasks = []
    for L, points in itertools.groupby(config.grid(), key=lambda point: point[0]):
        drives = [point[1:] for point in points]
        n = len(drives)
        count = n if samples is None else min(
            n, max(1, n * (L + 1) * samples(config) // max(_TASK_WORK, 1)))
        tasks += [(L, drives[i * n // count:(i + 1) * n // count], config) for i in range(count)]
    return tasks


def _sweep_points(task) -> list[dict]:
    """A task's grid points as summary rows, a failure recorded in ``error`` (pool-picklable).

    A batch that raises runs again point by point, so each error lands in its own row.
    """
    L, drives, config = task
    columns, point, *_ = _MODES[config.mode]
    rows = []
    for jt_pi, eps_pi in drives:
        cell = dict(L=L, jt_over_pi=jt_pi, epsilon_over_pi=eps_pi, n_periods=config.n_periods,
                    threshold=config.threshold, window=config.window,
                    n_max_pairs=config.n_periods // 2)
        rows.append({column: cell.get(column) for column in columns})
    try:
        results = point([FloquetParams.from_dimensionless(L, *drive) for drive in drives], config)
    except Exception as exc:  # noqa: BLE001 - recorded per row, sweep continues
        if len(drives) > 1:
            return [row for drive in drives for row in _sweep_points((L, [drive], config))]
        rows[0]["error"] = f"{type(exc).__name__}: {exc}"
        return rows
    for row, cells in zip(rows, results):
        row.update(cells)
    return rows


def _workers(jobs: int, tasks: int) -> int:
    """Processes a pool starts for ``tasks`` tasks at ``jobs``: none for one task or one job."""
    return 0 if jobs <= 1 or tasks <= 1 else min(jobs, tasks)


def _run_share(share: tuple) -> list:
    """``worker`` over its ``tasks``, in turn: one pool worker's items."""
    worker, tasks = share
    return [worker(task) for task in tasks]


def _run_points(worker, tasks: list[tuple], jobs: int) -> list:
    workers = _workers(jobs, len(tasks))
    if not workers:
        return [worker(task) for task in tasks]
    # Imported here, as only a pool needs it: multiprocessing would cost every launch's start-up.
    from concurrent.futures import ProcessPoolExecutor

    # One item per worker: worker k runs tasks[k::workers], so a grid of short tasks pays
    # the pool's round trip once per worker, not once per task.  The workers fork inside
    # one_thread, so each starts with OpenBLAS at one thread, and workers multiplying at
    # once do not oversubscribe the cores.
    results = [None] * len(tasks)
    with blas.one_thread(), ProcessPoolExecutor(max_workers=workers) as pool:
        shares = pool.map(_run_share, [(worker, tasks[k::workers]) for k in range(workers)])
        for k, share in enumerate(shares):
            results[k::workers] = share
    return results


# --------------------------------------------------------------------------
# CSV output

def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _config_echo(config: SweepConfig) -> dict:
    """The configuration without execution details (worker count, output path).

    Those go in the provenance object, so equal physics gives equal data sections.
    """
    echo = asdict(config)
    del echo["out"], echo["jobs"]
    return echo


def _write_csv(path: Path, columns: Sequence[str], rows: Iterable[Sequence],
               header: Optional[dict] = None) -> None:
    """Write ``<name>.tmp`` beside ``path`` and rename it into place; a failure leaves neither.

    ``rows`` yields one sequence of formatted cells per row, in the order of ``columns``.
    """
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as handle:
            if header is not None:
                handle.write("# " + json.dumps(header, sort_keys=True) + "\n")
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(columns)
            for row in rows:
                writer.writerow(row)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# --------------------------------------------------------------------------
# the runner

def run_sweep(config: SweepConfig) -> SweepResult:
    """Run every grid point of ``config.mode``; write aux CSVs, then the summary, or none."""
    config.validate()
    started = time.perf_counter()
    columns, _, engine, _, kind, *_ = _MODES[config.mode]
    out = Path(config.out)
    if not out.parent.is_dir():  # the error the summary's write would raise, before any point
        tmp = out.with_name(out.name + ".tmp")
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), str(tmp))
    tasks = _tasks(config)
    rows = [row for task_rows in _run_points(_sweep_points, tasks, config.jobs)
            for row in task_rows]
    aux_files = []
    try:
        for index, row in enumerate(rows):
            aux = row.pop("_aux", None)
            if aux is None:
                continue
            path = out.with_name(f"{out.stem}_{kind}_{index:03d}.csv")
            aux_columns, arrays = aux
            # every column is one numeric dtype, and repr of its ints and floats is _format_cell's
            _write_csv(path, aux_columns, zip(*(map(repr, array.tolist()) for array in arrays)))
            aux_files.append(path)
            row[f"{kind}_file"] = path.name
        provenance = dict(tool="kicked-ising", version=__version__,
                          timestamp=datetime.now(timezone.utc).isoformat(),
                          elapsed_seconds=time.perf_counter() - started,
                          jobs=config.jobs, workers=_workers(config.jobs, len(tasks)),
                          out=config.out, paths=[engine] * len(rows))
        header = {"config": _config_echo(config), "provenance": provenance}
        _write_csv(out, columns, ([_format_cell(row[column]) for column in columns]
                                  for row in rows), header)
    except BaseException:  # no aux file outlives a failed summary
        for path in aux_files:
            path.unlink(missing_ok=True)
        raise
    return SweepResult(config, columns, rows, out, aux_files)


# --------------------------------------------------------------------------
# configuration parsing

#: config key -> (SweepConfig field, JSON type of the value or of each grid value, whether
#: it is a grid, help).  The flag is the key with "-" for "_", and a config file may spell
#: the key either way.  A setting not given takes the field's default, or the mode's.
_SETTINGS = {
    "length": ("lengths", int, True, "chain length(s): 8 | 6,8,10 | 6:12 | 6:12:2"),
    "jt_over_pi": ("jt_over_pi", float, True,
                   "interaction phase JT in units of pi: 0.9 | 0.5,1.0 | 0.5:1.5:11"),
    "epsilon_over_pi": ("epsilon_over_pi", float, True,
                        "kick imperfection in units of pi (same grid syntax)"),
    "periods": ("n_periods", int, False, "number of drive periods per point"),
    "threshold": ("threshold", float, False, "return-probability threshold for lifetime detection"),
    "window": ("window", int, False, "even-period samples averaged for phase-diagram cells"),
    "out": ("out", str, False, "summary CSV path"),
    "jobs": ("jobs", int, False, "most worker processes; a grid too cheap to pay for them runs "
                                 "in-process (results identical for any value)"),
    "dump_spectra": ("dump_spectra", bool, False, "write one quasi-energy CSV per grid point"),
}
_JSON_TYPES = {int: "an integer", float: "a number", str: "a string", bool: "true or false"}


def _is_json(value, kind, grid: bool = False) -> bool:
    """Whether ``value`` has JSON type ``kind``: an integer is also a number, a boolean neither.

    With ``grid``, whether it is a tuple of such values, as a grid field holds them.
    """
    if grid:
        return isinstance(value, tuple) and all(_is_json(v, kind) for v in value)
    return isinstance(value, bool) == (kind is bool) and isinstance(
        value, (int, float) if kind is float else kind)


def _convert(key: str, value):
    """A flag's or config file's ``value`` of setting ``key``, as its SweepConfig field holds it.

    A grid takes 8 | [6, 8] | "6,8,10" | a range: "6:12" (inclusive) or "6:12:2" (step) for
    integers, "0.5:1.5:11" (linspace, inclusive) for floats.
    """
    _, kind, grid, _ = _SETTINGS[key]
    if _is_json(value, kind):
        return (kind(value),) if grid else kind(value)
    if not grid:
        raise ConfigError(f"{key}: expected {_JSON_TYPES[kind]}, got {value!r}")
    flag = "--" + key.replace("_", "-")
    if isinstance(value, (list, tuple)):
        return tuple(itertools.chain.from_iterable(_convert(key, v) for v in value))
    if not isinstance(value, str):
        raise ConfigError(f"{flag}: expected {_JSON_TYPES[kind]}, list, or range string, "
                          f"got {value!r}")
    text, span = value.strip(), "start:stop[:step]" if kind is int else "start:stop:count"
    try:
        if ":" not in text:
            return tuple(kind(p) for p in text.split(",") if p.strip())
        parts = text.split(":")
        if kind is int:
            start, stop, step = (*map(int, parts), 1)[:3]
            if len(parts) > 3 or step < 1 or stop < start:
                raise ValueError
            return tuple(range(start, stop + 1, step))
        start, stop, count = parts
        start, stop, count = float(start), float(stop), int(count)
        if count < 2:
            raise ValueError
    except ValueError:
        raise ConfigError(f"{flag}: expected {_JSON_TYPES[kind]}, a comma list, or {span}, "
                          f"got {value!r}") from None
    if not (np.isfinite(start) and np.isfinite(stop)):  # linspace would warn on inf
        raise ConfigError(f"{flag}: drive parameters must be finite, got {value!r}")
    return tuple(float(x) for x in np.linspace(start, stop, count))


def _load_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    values = {key.replace("-", "_"): value for key, value in raw.items()}
    unknown = sorted(set(values) - set(_SETTINGS) - {"mode"})
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    return values


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kicked-ising",
        description="Stroboscopic dynamics and quasi-energy spectra of the "
                    "transverse-kicked Ising chain.",
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode, row in _MODES.items():
        sp = sub.add_parser(mode, help=row.help)
        for key, (_, kind, grid, help_text) in _SETTINGS.items():
            flag = "--" + key.replace("_", "-")
            if kind is not bool:
                sp.add_argument(*(["-L"] if key == "length" else []), flag,
                                type=None if grid else kind, help=help_text)
            elif mode == "spectrum":  # the one switch; only spectrum points dump
                sp.add_argument(flag, action="store_const", const=True, help=help_text)
        sp.add_argument("--config",
                        help="JSON file with the same keys as the flags; flags override")
    return parser


def parse_config(argv: Optional[Sequence[str]] = None) -> SweepConfig:
    """Build and validate a SweepConfig from CLI arguments.

    Precedence: built-in defaults, then the ``--config`` JSON file, then
    explicit flags.  Raises ConfigError for bad values, among them a file's
    ``mode`` other than the subcommand, and CapacityError when the largest
    array of the mode's path would exceed ``MAX_ARRAY_BYTES`` at some
    chain length.
    """
    namespace = _build_parser().parse_args(argv)
    mode = namespace.mode
    values = {} if namespace.config is None else _load_config_file(namespace.config)
    values.update((key, getattr(namespace, key)) for key in _SETTINGS
                  if getattr(namespace, key, None) is not None)
    fields = dict(lengths=(), jt_over_pi=(), epsilon_over_pi=(), n_periods=_MODES[mode].periods,
                  out=f"kicked-ising-{mode}.csv")
    problems = []
    if values.get("mode", mode) != mode:  # the subcommand names the mode
        problems.append(f"config file mode {values['mode']!r} is not the subcommand {mode!r}")
    for key, (name, *_) in _SETTINGS.items():
        try:
            if key in values:
                fields[name] = _convert(key, values[key])
        except ConfigError as exc:
            problems.append(str(exc))
    config = SweepConfig(mode=mode, **fields)
    config.validate(problems)
    return config
