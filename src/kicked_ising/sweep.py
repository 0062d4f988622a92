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
    phases, and the time-reflection residual, per grid point.  The spectrum
    is the union of the L translation-momentum blocks (``sectors.py``).
``fourier``
    Discrete Fourier transform of the full return-probability series, with
    the dominant bin and the subharmonic (half drive frequency) weight.

``lifetime-scan``, ``phase-diagram`` and ``fourier`` read one stream of
P(nT) from the all-up start, the closed-form product over the two parity
sectors of the free-fermion chain (``sectors.sector_return_probability``):
O(L) numbers per point at any chain length, and no 2**L array.  ``evolve``
iterates the 2**L state, whose norm drift and site magnetizations it reports.

Every run writes a single summary CSV whose first line is a ``#``-prefixed
JSON object echoing the sweep configuration and recording provenance
(tool, version, timestamp, elapsed time, worker count, and the engine --
``free-fermion``, ``momentum`` or ``iterative`` -- that computed each row).
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

Grid points are processed independently (optionally in a process pool) and
rows are emitted in grid order.  A failure at one point is captured in that
row's ``error`` column instead of aborting the sweep.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

import numpy as np

from . import __version__, blas
from .engine import evolve_stroboscopic
# perfbench/tracer.py wraps sweep.iter_return_probability; its install fails without the name.
from .engine import iter_return_probability  # noqa: F401
from .observables import average_return, first_crossing, fourier_spectrum, lifetime
from .sectors import sector_return_probability
from .spectral import (check_time_reflection, count_exact_pi_pairs, gap_statistics,
                       propagator_spectrum)
from .states import (
    DENSE_MAX_SITES,
    EVOLVE_MAX_SITES,
    CapacityError,
    FloquetParams,
    polarized_state,
)


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
        """Raise ConfigError (all problems, ``problems`` from parsing first) or CapacityError."""
        problems = list(problems)
        if self.mode not in MODES:
            problems.append(f"unknown mode {self.mode!r}; choose from {', '.join(MODES)}")
        if not self.lengths:
            problems.append("no chain length given (--length)")
        for L in self.lengths:
            if not isinstance(L, int) or isinstance(L, bool):
                problems.append(f"chain length must be an integer, got {L!r}")
            elif L < 2:
                problems.append(f"chain length must be at least 2, got {L}")
        if not self.jt_over_pi:
            problems.append("no interaction phase given (--jt-over-pi)")
        if not self.epsilon_over_pi:
            problems.append("no kick imperfection given (--epsilon-over-pi)")
        non_finite = [x for x in self.jt_over_pi + self.epsilon_over_pi if not np.isfinite(x)]
        if non_finite:
            problems.append(f"drive parameters must be finite, got {non_finite}")
        for key, value in (("periods", self.n_periods), ("window", self.window),
                           ("jobs", self.jobs)):
            if value < 1:
                problems.append(f"{key} must be positive, got {value}")
        if self.mode == "fourier" and self.n_periods == 1:
            problems.append("fourier needs at least 2 periods (DFT samples), got 1")
        if not 0.0 < self.threshold < 1.0:
            problems.append(f"threshold must lie strictly between 0 and 1, got {self.threshold}")
        if not self.out:
            problems.append("no output path given (--out)")
        if self.mode == "phase-diagram":
            if len(set(self.lengths)) > 1:
                problems.append("phase-diagram runs at a single chain length")
            if self.n_periods < 2 * self.window:
                problems.append("phase-diagram needs at least 2*window periods (window="
                                f"{self.window} even-period samples), got {self.n_periods}")
        if problems:
            raise ConfigError("invalid configuration:\n  - " + "\n  - ".join(problems))
        cap = DENSE_MAX_SITES if self.mode == "spectrum" else EVOLVE_MAX_SITES
        for L in self.lengths:
            if L > cap:
                raise CapacityError(
                    f"chain length {L} exceeds the {cap}-site cap for mode {self.mode!r}"
                )

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


# --------------------------------------------------------------------------
# per-point functions: (params, config) -> result cells, plus an optional
# ``_aux = (columns, arrays)`` curve, one array per column, written next to the summary

def _evolve_point(params: FloquetParams, config: SweepConfig) -> dict:
    L = params.L
    series = evolve_stroboscopic(polarized_state(L), params, config.n_periods,
                                 observables=("return_probability", "sz"))
    even = series.return_probability[1::2]
    crossing = lifetime(even, config.threshold) if even.size else None
    window_used = min(config.window, even.size) if even.size else None
    columns = ["n", "t", "return_probability"] + [f"sz_{site}" for site in range(L)]
    curve = (series.n, series.n * params.T, series.return_probability, *series.sz.T)
    return dict(
        n_star=None if crossing is None else crossing.n_star,
        censored=None if crossing is None else crossing.censored,
        average_return=None if window_used is None else average_return(even, window_used),
        window_used=window_used,
        norm_drift=series.norm_drift,
        _aux=(columns, curve),
    )


def _pairs(config: SweepConfig) -> int:
    """Even-period samples a point needs: its horizon in pairs."""
    return config.window if config.mode == "phase-diagram" else config.n_periods // 2


def _lifetime_point(params: FloquetParams, config: SweepConfig) -> dict:
    """``n_star`` indexes even periods (pairs); odd periods are never compared."""
    even = itertools.islice(sector_return_probability(params), 1, None, 2)
    n_star = first_crossing(itertools.islice(even, _pairs(config)), config.threshold)
    return {"n_star": n_star, "censored": n_star is None}


def _phase_point(params: FloquetParams, config: SweepConfig) -> dict:
    total = 0.0
    for p_even in itertools.islice(sector_return_probability(params), 1, 2 * _pairs(config), 2):
        total += p_even
    return {"average_return": total / config.window}


def _spectrum_point(params: FloquetParams, config: SweepConfig) -> dict:
    spec = propagator_spectrum(params)
    stats = gap_statistics(spec)
    counts = count_exact_pi_pairs(spec)
    cells = dict(
        delta0_mean=stats.delta0_mean,
        delta_pi_mean=stats.delta_pi_mean,
        ratio=stats.ratio,
        n_zero=counts.n_zero,
        n_pi=counts.n_pi,
        reflection_residual=check_time_reflection(params),
    )
    if config.dump_spectra:
        cells["_aux"] = (("index", "quasi_energy"), (np.arange(spec.dim), spec.energies))
    return cells


def _fourier_point(params: FloquetParams, config: SweepConfig) -> dict:
    samples = np.fromiter(sector_return_probability(params), float, config.n_periods)
    spectrum = fourier_spectrum(samples)
    peak = spectrum.peak_bin()
    half = config.n_periods // 2 if config.n_periods % 2 == 0 else None
    return dict(
        peak_bin=peak,
        peak_frequency=float(spectrum.frequencies[peak]),
        peak_magnitude=float(spectrum.magnitudes[peak]),
        subharmonic_magnitude=None if half is None else float(spectrum.magnitudes[half]),
        _aux=(("bin", "frequency", "magnitude"),
              (np.arange(spectrum.n_samples), spectrum.frequencies, spectrum.magnitudes)),
    )


_POINT = ("L", "jt_over_pi", "epsilon_over_pi")


class _Mode(NamedTuple):
    """A row of ``_MODES``."""

    columns: tuple[str, ...]  # summary columns
    point: Callable           # (FloquetParams, SweepConfig) -> result cells
    engine: str               # what computes every row (``provenance.paths``)
    aux: Optional[str]        # kind of the per-point CSV, if the points write one
    periods: int              # default horizon (``--periods``)
    help: str                 # the subcommand's help


_MODES = {
    "evolve": _Mode(_POINT + ("n_periods", "n_star", "censored", "average_return",
                              "window_used", "norm_drift", "series_file", "error"),
                    _evolve_point, "iterative", "series", 2000,
                    "record return probability and magnetization time series"),
    "lifetime-scan": _Mode(_POINT + ("threshold", "n_max_pairs", "n_star", "censored", "error"),
                           _lifetime_point, "free-fermion", None, 100_000,
                           "scan the threshold-crossing time of the even-period return "
                           "probability"),
    "phase-diagram": _Mode(_POINT + ("window", "average_return", "error"), _phase_point,
                           "free-fermion", None, 2000, "map the early-time averaged return "
                           "probability over drive parameters"),
    "spectrum": _Mode(_POINT + ("delta0_mean", "delta_pi_mean", "ratio", "n_zero", "n_pi",
                                "reflection_residual", "spectrum_file", "error"),
                      _spectrum_point, "momentum", "spectrum", 2000,
                      "report quasi-energy pairing statistics and symmetry residuals"),
    "fourier": _Mode(_POINT + ("n_periods", "peak_bin", "peak_frequency", "peak_magnitude",
                               "subharmonic_magnitude", "spectrum_file", "error"),
                     _fourier_point, "free-fermion", "spectrum", 2000,
                     "Fourier-analyze the return-probability series"),
}
MODES = tuple(_MODES)


def _sweep_point(task) -> dict:
    """One grid point as a summary row, a failure recorded in ``error`` (pool-picklable)."""
    L, jt_pi, eps_pi, config = task
    columns, point, *_ = _MODES[config.mode]
    cell = dict(L=L, jt_over_pi=jt_pi, epsilon_over_pi=eps_pi, n_periods=config.n_periods,
                threshold=config.threshold, window=config.window, n_max_pairs=_pairs(config))
    row = {column: cell.get(column) for column in columns}
    try:
        params = FloquetParams.from_dimensionless(L, jt_pi, eps_pi)
        row.update(point(params, config))
    except Exception as exc:  # noqa: BLE001 - recorded per row, sweep continues
        row["error"] = f"{type(exc).__name__}: {exc}"
    return row


def _run_points(worker, tasks: list[tuple], jobs: int) -> list[dict]:
    if jobs <= 1 or len(tasks) <= 1:
        return [worker(task) for task in tasks]
    # A forked worker keeps the OpenBLAS thread count chosen for the whole machine, so
    # workers diagonalizing at once would oversubscribe the cores: one thread apiece.
    with ProcessPoolExecutor(max_workers=min(jobs, len(tasks)), initializer=blas.set_threads,
                             initargs=(1,)) as pool:
        return list(pool.map(worker, tasks))


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

    ``rows`` yields one sequence of cells per row, in the order of ``columns``.
    """
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as handle:
            if header is not None:
                handle.write("# " + json.dumps(header, sort_keys=True) + "\n")
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(columns)
            for row in rows:
                writer.writerow([_format_cell(cell) for cell in row])
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
    columns, _, engine, kind, *_ = _MODES[config.mode]
    tasks = [(L, jt, eps, config) for L, jt, eps in config.grid()]
    rows = _run_points(_sweep_point, tasks, config.jobs)
    out = Path(config.out)
    aux_files = []
    try:
        for index, row in enumerate(rows):
            aux = row.pop("_aux", None)
            if aux is None:
                continue
            path = out.with_name(f"{out.stem}_{kind}_{index:03d}.csv")
            aux_columns, arrays = aux
            _write_csv(path, aux_columns, zip(*(array.tolist() for array in arrays)))
            aux_files.append(path)
            row[f"{kind}_file"] = path.name
        provenance = dict(tool="kicked-ising", version=__version__,
                          timestamp=datetime.now(timezone.utc).isoformat(),
                          elapsed_seconds=time.perf_counter() - started,
                          jobs=config.jobs, out=config.out,
                          paths=[engine] * len(tasks))
        header = {"config": _config_echo(config), "provenance": provenance}
        _write_csv(out, columns, ([row[column] for column in columns] for row in rows), header)
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
    "jobs": ("jobs", int, False, "worker processes (results identical for any value)"),
    "dump_spectra": ("dump_spectra", bool, False, "write one quasi-energy CSV per grid point"),
}
_JSON_TYPES = {int: "an integer", float: "a number", str: "a string", bool: "true or false"}


def _convert(key: str, value):
    """A flag's or config file's ``value`` of setting ``key``, as its SweepConfig field holds it.

    A grid takes 8 | [6, 8] | "6,8,10" | a range: "6:12" (inclusive) or "6:12:2" (step) for
    integers, "0.5:1.5:11" (linspace, inclusive) for floats.
    """
    _, kind, grid, _ = _SETTINGS[key]
    # JSON types: an integer is also a number, a boolean neither
    if isinstance(value, bool) == (kind is bool) and isinstance(
            value, (int, float) if kind is float else kind):
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
    explicit flags.  Raises ConfigError for bad values and CapacityError
    when a requested chain length exceeds the mode's cap.
    """
    namespace = _build_parser().parse_args(argv)
    mode = namespace.mode
    values = {} if namespace.config is None else _load_config_file(namespace.config)
    values.update((key, getattr(namespace, key)) for key in _SETTINGS
                  if getattr(namespace, key, None) is not None)
    fields = dict(lengths=(), jt_over_pi=(), epsilon_over_pi=(), n_periods=_MODES[mode].periods,
                  out=f"kicked-ising-{mode}.csv")
    problems = []
    for key, (name, *_) in _SETTINGS.items():  # the subcommand names the mode, not the file
        try:
            if key in values:
                fields[name] = _convert(key, values[key])
        except ConfigError as exc:
            problems.append(str(exc))
    config = SweepConfig(mode=mode, **fields)
    config.validate(problems)
    return config
