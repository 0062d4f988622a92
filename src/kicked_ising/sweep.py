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
P(nT) from the all-up start (``_samples``).  Where one diagonalization of
the translation- and reflection-symmetric sector (``sectors.py``) costs less
than iterating the chain over a point's horizon, the samples come from that
sector; short horizons and chains beyond ``DENSE_MAX_SITES`` iterate.

Every run writes a single summary CSV whose first line is a ``#``-prefixed
JSON object echoing the sweep configuration and recording provenance
(tool, version, timestamp, elapsed time, worker count, and the path --
``sector``, ``momentum`` or ``iterative`` -- that computed each row).  The
data that follows is a function of the configuration alone: repeated runs
produce byte-identical files once the provenance object is ignored,
regardless of ``jobs``.  Floats are written with ``repr`` so values
round-trip exactly.

Each mode is one entry of the ``_MODES`` table: its summary columns, a point
function from ``(FloquetParams, SweepConfig)`` to result cells, and the kind
of auxiliary CSV its points write, if any (one per grid point next to the
summary, ``<stem>_series_<idx>.csv`` or ``<stem>_spectrum_<idx>.csv``, named
in the row).  Every file is written under a temporary name and renamed into
place, so a failed write leaves no partial file.

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
from typing import Iterable, Optional, Sequence

import numpy as np

from . import __version__, blas
from .engine import evolve_stroboscopic, iter_return_probability
from .observables import average_return, first_crossing, fourier_spectrum, lifetime
from .sectors import sector_dimension, sector_return_probability
from .spectral import (check_time_reflection, count_exact_pi_pairs, gap_statistics,
                       propagator_spectrum)
from .states import (
    DENSE_MAX_SITES,
    EVOLVE_MAX_SITES,
    CapacityError,
    FloquetParams,
    polarized_state,
)

_DEFAULT_THRESHOLD = 0.05
_DEFAULT_WINDOW = 1000
_DEFAULT_PERIODS = {"lifetime-scan": 100_000}
_DEFAULT_PERIODS_FALLBACK = 2000
#: Pairs x 2**L per cubed sector dimension from which building and diagonalizing
#: the sector costs less than iterating the chain.  The crossovers measured on a
#: 2-core Intel Xeon were about 950, 1450 and 1900 pairs at L = 12, 13 and 14 on
#: two BLAS threads (690, 1290 and 2600 on one), ratios 0.10 to 0.35; this is
#: their geometric middle, at most about 2x from either side of a crossover.
_SECTOR_BREAK_EVEN = 0.18


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
    threshold: float = _DEFAULT_THRESHOLD
    window: int = _DEFAULT_WINDOW
    out: str = ""
    jobs: int = 1
    dump_spectra: bool = False

    def validate(self) -> None:
        """Raise ConfigError (all problems at once) or CapacityError."""
        problems = []
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
        if self.n_periods < 1:
            problems.append(f"periods must be positive, got {self.n_periods}")
        if not 0.0 < self.threshold < 1.0:
            problems.append(f"threshold must lie strictly between 0 and 1, got {self.threshold}")
        if self.window < 1:
            problems.append(f"window must be positive, got {self.window}")
        if self.jobs < 1:
            problems.append(f"jobs must be positive, got {self.jobs}")
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
    """Even-period samples a point needs: its horizon in pairs, for ``_path``'s cost rule."""
    return config.window if config.mode == "phase-diagram" else config.n_periods // 2


def _path(config: SweepConfig, L: int) -> str:
    """Which engine computes a point: ``sector``, ``momentum`` or ``iterative``.

    A ``lifetime-scan``, ``phase-diagram`` or ``fourier`` point takes the
    sector when its set-up, which grows as the cube of the sector dimension,
    costs less than ``_pairs(config)`` iterated pairs of 2**L amplitudes.
    ``evolve`` reports the norm drift and site magnetizations of the 2**L state.
    """
    if config.mode == "spectrum":
        return "momentum"
    if config.mode != "evolve" and L <= DENSE_MAX_SITES and \
            _pairs(config) << L >= _SECTOR_BREAK_EVEN * sector_dimension(L) ** 3:
        return "sector"
    return "iterative"


def _samples(params: FloquetParams, config: SweepConfig):
    """Yield P(nT) of the all-up start for n = 1, 2, ..., from the engine ``_path`` picks."""
    if _path(config, params.L) == "sector":
        return sector_return_probability(params)
    return iter_return_probability(polarized_state(params.L), params)


def _lifetime_point(params: FloquetParams, config: SweepConfig) -> dict:
    """``n_star`` indexes even periods (pairs); odd periods are never compared."""
    even = itertools.islice(_samples(params, config), 1, None, 2)
    n_star = first_crossing(itertools.islice(even, _pairs(config)), config.threshold)
    return {"n_star": n_star, "censored": n_star is None}


def _phase_point(params: FloquetParams, config: SweepConfig) -> dict:
    total = 0.0
    for p_even in itertools.islice(_samples(params, config), 1, 2 * _pairs(config), 2):
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
    samples = np.fromiter(_samples(params, config), float, config.n_periods)
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

#: mode -> (summary columns, point function, aux-file kind or None).
_MODES = {
    "evolve": (_POINT + ("n_periods", "n_star", "censored", "average_return", "window_used",
                         "norm_drift", "series_file", "error"), _evolve_point, "series"),
    "lifetime-scan": (_POINT + ("threshold", "n_max_pairs", "n_star", "censored", "error"),
                      _lifetime_point, None),
    "phase-diagram": (_POINT + ("window", "average_return", "error"), _phase_point, None),
    "spectrum": (_POINT + ("delta0_mean", "delta_pi_mean", "ratio", "n_zero", "n_pi",
                           "reflection_residual", "spectrum_file", "error"),
                 _spectrum_point, "spectrum"),
    "fourier": (_POINT + ("n_periods", "peak_bin", "peak_frequency", "peak_magnitude",
                          "subharmonic_magnitude", "spectrum_file", "error"),
                _fourier_point, "spectrum"),
}
MODES = tuple(_MODES)


def _sweep_point(task) -> dict:
    """One grid point as a summary row, a failure recorded in ``error`` (pool-picklable)."""
    L, jt_pi, eps_pi, config = task
    columns, point, _ = _MODES[config.mode]
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
    columns, _, kind = _MODES[config.mode]
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
                          paths=[_path(config, L) for L, _, _ in config.grid()])
        header = {"config": _config_echo(config), "provenance": provenance}
        _write_csv(out, columns, ([row[column] for column in columns] for row in rows), header)
    except BaseException:  # no aux file outlives a failed summary
        for path in aux_files:
            path.unlink(missing_ok=True)
        raise
    return SweepResult(config, columns, rows, out, aux_files)


# --------------------------------------------------------------------------
# configuration parsing

def _parse_int_grid(value, flag: str) -> tuple[int, ...]:
    """Accept 8 | [6, 8] | "6,8,10" | "6:12" (inclusive) | "6:12:2" (step)."""
    if isinstance(value, bool):
        raise ConfigError(f"{flag}: expected an integer, got {value!r}")
    if isinstance(value, int):
        return (value,)
    if isinstance(value, (list, tuple)):
        return tuple(itertools.chain.from_iterable(_parse_int_grid(v, flag) for v in value))
    if isinstance(value, str):
        text = value.strip()
        try:
            if ":" in text:
                parts = [int(p) for p in text.split(":")]
                if len(parts) not in (2, 3):
                    raise ValueError
                start, stop, step = (*parts, 1)[:3]
                if step < 1 or stop < start:
                    raise ValueError
                return tuple(range(start, stop + 1, step))
            return tuple(int(p) for p in text.split(",") if p.strip())
        except ValueError:
            raise ConfigError(
                f"{flag}: expected an integer, a comma list, or start:stop[:step], got {value!r}"
            ) from None
    raise ConfigError(f"{flag}: expected an integer, list, or range string, got {value!r}")


def _parse_float_grid(value, flag: str) -> tuple[float, ...]:
    """Accept 0.9 | [0.75, 1.25] | "0.9,1.0" | "0.5:1.5:11" (linspace, inclusive)."""
    if isinstance(value, bool):
        raise ConfigError(f"{flag}: expected a number, got {value!r}")
    if isinstance(value, (int, float)):
        return (float(value),)
    if isinstance(value, (list, tuple)):
        return tuple(itertools.chain.from_iterable(_parse_float_grid(v, flag) for v in value))
    if isinstance(value, str):
        text = value.strip()
        try:
            if ":" in text:
                parts = text.split(":")
                if len(parts) != 3:
                    raise ValueError
                start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
                if count < 2:
                    raise ValueError
                return tuple(float(x) for x in np.linspace(start, stop, count))
            return tuple(float(p) for p in text.split(",") if p.strip())
        except ValueError:
            raise ConfigError(
                f"{flag}: expected a number, a comma list, or start:stop:count, got {value!r}"
            ) from None
    raise ConfigError(f"{flag}: expected a number, list, or range string, got {value!r}")


_CONFIG_KEYS = {
    "mode", "length", "jt_over_pi", "epsilon_over_pi", "periods",
    "threshold", "window", "out", "jobs", "dump_spectra",
}


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
    unknown = sorted(set(values) - _CONFIG_KEYS)
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
    descriptions = {
        "evolve": "record return probability and magnetization time series",
        "lifetime-scan": "scan the threshold-crossing time of the even-period return probability",
        "phase-diagram": "map the early-time averaged return probability over drive parameters",
        "spectrum": "report quasi-energy pairing statistics and symmetry residuals",
        "fourier": "Fourier-analyze the return-probability series",
    }
    for mode in MODES:
        sp = sub.add_parser(mode, help=descriptions[mode])
        sp.add_argument("-L", "--length", default=None,
                        help="chain length(s): 8 | 6,8,10 | 6:12 | 6:12:2")
        sp.add_argument("--jt-over-pi", default=None,
                        help="interaction phase JT in units of pi: 0.9 | 0.5,1.0 | 0.5:1.5:11")
        sp.add_argument("--epsilon-over-pi", default=None,
                        help="kick imperfection in units of pi (same grid syntax)")
        sp.add_argument("--periods", type=int, default=None,
                        help="number of drive periods per point")
        sp.add_argument("--threshold", type=float, default=None,
                        help="return-probability threshold for lifetime detection")
        sp.add_argument("--window", type=int, default=None,
                        help="even-period samples averaged for phase-diagram cells")
        sp.add_argument("--out", default=None, help="summary CSV path")
        sp.add_argument("--jobs", type=int, default=None,
                        help="worker processes (results identical for any value)")
        sp.add_argument("--config", default=None,
                        help="JSON file with the same keys as the flags; flags override")
        if mode == "spectrum":
            sp.add_argument("--dump-spectra", action="store_const", const=True,
                            default=None, help="write one quasi-energy CSV per grid point")
    return parser


def parse_config(argv: Optional[Sequence[str]] = None) -> SweepConfig:
    """Build and validate a SweepConfig from CLI arguments.

    Precedence: built-in defaults, then the ``--config`` JSON file, then
    explicit flags.  Raises ConfigError for bad values and CapacityError
    when a requested chain length exceeds the mode's cap.
    """
    namespace = _build_parser().parse_args(argv)
    mode = namespace.mode

    values: dict = {}
    if namespace.config is not None:
        values.update(_load_config_file(namespace.config))
    # Explicit flags win; the subcommand wins over any "mode" key in the file.
    values.update((key, value) for key, value in vars(namespace).items()
                  if value is not None and key != "config")

    problems = []
    grids = {}
    for key, parse in (("length", _parse_int_grid), ("jt_over_pi", _parse_float_grid),
                       ("epsilon_over_pi", _parse_float_grid)):
        try:
            grids[key] = parse(values[key], "--" + key.replace("_", "-")) if key in values else ()
        except ConfigError as exc:
            problems.append(str(exc))
            grids[key] = ()

    def _scalar(key, kind, default):
        value = values.get(key, default)
        try:
            return kind(value)
        except (TypeError, ValueError):
            problems.append(f"{key}: expected {kind.__name__}, got {value!r}")
            return default

    n_periods = _scalar("periods", int, _DEFAULT_PERIODS.get(mode, _DEFAULT_PERIODS_FALLBACK))
    threshold = _scalar("threshold", float, _DEFAULT_THRESHOLD)
    window = _scalar("window", int, _DEFAULT_WINDOW)
    jobs = _scalar("jobs", int, 1)
    out = str(values.get("out", f"kicked-ising-{mode}.csv"))
    dump_spectra = bool(values.get("dump_spectra", False))

    if problems:
        raise ConfigError("invalid configuration:\n  - " + "\n  - ".join(problems))

    config = SweepConfig(
        mode=mode, lengths=grids["length"], jt_over_pi=grids["jt_over_pi"],
        epsilon_over_pi=grids["epsilon_over_pi"],
        n_periods=n_periods, threshold=threshold, window=window, out=out,
        jobs=jobs, dump_spectra=dump_spectra,
    )
    config.validate()
    return config
