"""The four benchmark workloads: CLI flags, work accounting and reference checks.

Each workload is one ``python -m kicked_ising.cli`` invocation.  Its flags
come from the benchmark seed (only ``phase-L8`` actually varies with it; the
other grids are pinned by their reference values).  After a run the summary
CSV, and any auxiliary CSVs, are read back and every checked value is compared
with a reference that does not come from the code path under test: closed
forms, literature/acceptance values, or the dense propagator.

``small=True`` gives a shrunken variant of each workload (L <= 7, short
horizons) with the same reference logic, used by the harness self-test.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

# First even-period crossing n* of P(2nT) < 0.05 at JT = 0.9 pi, eps = 0.1 pi
# (acceptance criterion 06 grid).  L = 10 and 11 do not cross within 30000
# pairs, so any horizon up to 30000 pairs must report them as censored.
LIFETIME_N_STAR = {6: 1676, 7: 3615, 8: 11705, 9: 26671}
LIFETIME_NO_CROSSING_UP_TO = {10: 30000, 11: 30000}

# Exactly paired quasi-energies at JT = pi: (n_zero, n_pi) per chain length.
SPECTRUM_PAIRS_AT_PI = {6: (12, 12), 8: (32, 28), 10: (72, 72)}

PHASE_ORACLE_CELLS = 8
TOL_ORACLE = 1e-12
TOL_CLOSED_FORM = 1e-12
TOL_NORM_DRIFT = 1e-9
TOL_REFLECTION_EXACT = 1e-12
MIN_REFLECTION_BROKEN = 1e-2


@dataclass
class Check:
    """Tally of checked output values; ``mismatches`` holds a line per failure."""

    checked: int = 0
    mismatches: list = field(default_factory=list)

    def expect(self, ok: bool, what: str) -> None:
        self.checked += 1
        if not ok:
            self.mismatches.append(what)


@dataclass(frozen=True)
class Spec:
    """One generated workload instance: CLI flags plus what the checks need."""

    name: str
    argv: tuple            # CLI arguments without --out / --jobs
    jobs: int
    check: Callable        # (rows, out_path, spec, Check) -> None
    work: Callable | None  # rows -> amplitude-periods evolved; None if nothing evolves
    oracle_cells: tuple = ()

    def cli_args(self, out: Path, jobs: int | None = None) -> list:
        return [*self.argv, "--jobs", str(self.jobs if jobs is None else jobs), "--out", str(out)]


def read_csv(path: Path) -> list:
    """Data rows of a sweep CSV (the ``#`` provenance line is skipped)."""
    with open(path, encoding="utf-8", newline="") as handle:
        lines = [line for line in handle if not line.startswith("#")]
    return list(csv.DictReader(lines))


def _f(value: str) -> float:
    return float(value) if value != "" else math.nan


# --------------------------------------------------------------------------
# lifetime-L6-11

def _lifetime_check(rows, out, spec, check: Check) -> None:
    for row in rows:
        L, n_max = int(row["L"]), int(row["n_max_pairs"])
        where = f"lifetime L={L}"
        check.expect(row["error"] == "", f"{where}: error {row['error']!r}")
        if L in LIFETIME_N_STAR and LIFETIME_N_STAR[L] <= n_max:
            check.expect(row["censored"] == "false" and row["n_star"] == str(LIFETIME_N_STAR[L]),
                         f"{where}: n*={row['n_star']!r} censored={row['censored']}, "
                         f"expected n*={LIFETIME_N_STAR[L]}")
        elif (L in LIFETIME_N_STAR and LIFETIME_N_STAR[L] > n_max) or \
                n_max <= LIFETIME_NO_CROSSING_UP_TO.get(L, -1):
            check.expect(row["censored"] == "true" and row["n_star"] == "",
                         f"{where}: expected censored at {n_max} pairs, got n*={row['n_star']!r}")
        else:
            check.expect(False, f"{where}: no reference for horizon {n_max}")


def _lifetime_work(rows) -> float:
    total = 0.0
    for row in rows:
        pairs = int(row["n_max_pairs"]) if row["censored"] == "true" else int(row["n_star"])
        total += 2 * pairs * (1 << int(row["L"]))
    return total


# --------------------------------------------------------------------------
# phase-L8

def _phase_check(rows, out, spec, check: Check) -> None:
    import numpy as np
    from kicked_ising import FloquetParams, build_dense_propagator, polarized_state

    for row in rows:
        check.expect(row["error"] == "", f"phase cell {row['jt_over_pi']},{row['epsilon_over_pi']}: "
                                         f"error {row['error']!r}")
    for index in spec.oracle_cells:
        row = rows[index]
        L, window = int(row["L"]), int(row["window"])
        params = FloquetParams.from_dimensionless(L, float(row["jt_over_pi"]),
                                                  float(row["epsilon_over_pi"]))
        U = build_dense_propagator(params).matrix
        psi0 = polarized_state(L).amplitudes
        psi, total = psi0, 0.0
        for _ in range(window):
            psi = U @ (U @ psi)
            total += float(abs(np.vdot(psi0, psi)) ** 2)
        got = _f(row["average_return"])
        check.expect(abs(got - total / window) <= TOL_ORACLE,
                     f"phase cell {index}: average_return {got!r} vs dense {total / window!r}")


def _phase_work(rows) -> float:
    return sum(2 * int(r["window"]) * (1 << int(r["L"])) for r in rows)


def _phase_spec(seed: int, small: bool) -> Spec:
    rng = random.Random(seed)
    # Sub-step offsets move every cell off the round grid without changing
    # the amount of work per cell (fixed window, fixed L).
    if small:
        L, jt_n, jt_step, eps_n, eps_step, window = 4, 5, 0.5, 3, 0.14, 20
    else:
        L, jt_n, jt_step, eps_n, eps_step, window = 8, 41, 0.05, 8, 0.04, 500
    jt0 = rng.random() * jt_step
    eps0 = 0.02 + rng.random() * eps_step
    jt_axis = f"{jt0:.6f}:{jt0 + jt_step * (jt_n - 1):.6f}:{jt_n}"
    eps_axis = f"{eps0:.6f}:{eps0 + eps_step * (eps_n - 1):.6f}:{eps_n}"
    cells = tuple(sorted(rng.sample(range(jt_n * eps_n), min(PHASE_ORACLE_CELLS, jt_n * eps_n))))
    argv = ("phase-diagram", "-L", str(L), "--jt-over-pi", jt_axis, "--epsilon-over-pi", eps_axis,
            "--window", str(window), "--periods", str(2 * window))
    return Spec("phase-L8", argv, 2, _phase_check, _phase_work, cells)


# --------------------------------------------------------------------------
# evolve-L20

def _evolve_check(rows, out, spec, check: Check) -> None:
    for row in rows:
        L, eps = int(row["L"]), float(row["epsilon_over_pi"]) * math.pi
        where = f"evolve L={L} JT={row['jt_over_pi']}pi"
        check.expect(row["error"] == "", f"{where}: error {row['error']!r}")
        drift = _f(row["norm_drift"])
        check.expect(drift < TOL_NORM_DRIFT, f"{where}: norm_drift {drift!r}")
        if not row["series_file"]:
            check.expect(False, f"{where}: no series file")
            continue
        series = read_csv(out.parent / row["series_file"])
        check.expect(len(series) == int(row["n_periods"]),
                     f"{where}: {len(series)} series rows, expected {row['n_periods']}")
        sz_cols = [f"sz_{site}" for site in range(L)]
        first = series[0]
        p1 = _f(first["return_probability"])
        check.expect(abs(p1 - math.sin(eps) ** (2 * L)) <= TOL_CLOSED_FORM,
                     f"{where}: P(T)={p1!r}, expected sin^2L(eps)")
        for col in sz_cols:
            got = _f(first[col])
            check.expect(abs(got + math.cos(2 * eps)) <= TOL_CLOSED_FORM,
                         f"{where}: {col}(T)={got!r}, expected -cos(2 eps)")
        for entry in series:
            sz = [_f(entry[col]) for col in sz_cols]
            check.expect(max(sz) - min(sz) <= TOL_CLOSED_FORM,
                         f"{where}: sz spread {max(sz) - min(sz):.3e} at n={entry['n']}")


def _evolve_work(rows) -> float:
    return sum(int(r["n_periods"]) * (1 << int(r["L"])) for r in rows)


# --------------------------------------------------------------------------
# spectrum-L6-10

def _spectrum_check(rows, out, spec, check: Check) -> None:
    for row in rows:
        L, jt = int(row["L"]), float(row["jt_over_pi"])
        where = f"spectrum L={L} JT={jt}pi eps={row['epsilon_over_pi']}pi"
        check.expect(row["error"] == "", f"{where}: error {row['error']!r}")
        residual = _f(row["reflection_residual"])
        if jt == 1.0:
            pairs = (row["n_zero"], row["n_pi"])
            want = tuple(str(n) for n in SPECTRUM_PAIRS_AT_PI.get(L, ("?", "?")))
            check.expect(pairs == want, f"{where}: (n_zero, n_pi)={pairs}, expected {want}")
            check.expect(residual < TOL_REFLECTION_EXACT, f"{where}: reflection residual {residual!r}")
        else:
            check.expect(residual > MIN_REFLECTION_BROKEN, f"{where}: reflection residual {residual!r}")
        if not row["spectrum_file"]:
            check.expect(False, f"{where}: no spectrum file")
            continue
        energies = [_f(r["quasi_energy"]) for r in read_csv(out.parent / row["spectrum_file"])]
        check.expect(len(energies) == 1 << L, f"{where}: {len(energies)} levels")
        check.expect(all(a <= b for a, b in zip(energies, energies[1:])), f"{where}: spectrum unsorted")


# --------------------------------------------------------------------------

NAMES = ("lifetime-L6-11", "phase-L8", "evolve-L20", "spectrum-L6-10")


def make(name: str, seed: int, small: bool = False) -> Spec:
    """The workload ``name`` for ``seed``; ``small`` gives the self-test variant."""
    if name == "lifetime-L6-11":
        lengths, periods = ("6:7", "3400") if small else ("6:11", "60000")
        argv = ("lifetime-scan", "-L", lengths, "--jt-over-pi", "0.9", "--epsilon-over-pi", "0.1",
                "--periods", periods)
        return Spec(name, argv, 1, _lifetime_check, _lifetime_work)
    if name == "phase-L8":
        return _phase_spec(seed, small)
    if name == "evolve-L20":
        L, periods, window = ("6", "6", "2") if small else ("20", "50", "10")
        argv = ("evolve", "-L", L, "--jt-over-pi", "0.9,1.0", "--epsilon-over-pi", "0.1",
                "--periods", periods, "--window", window)
        return Spec(name, argv, 1, _evolve_check, _evolve_work)
    if name == "spectrum-L6-10":
        argv = ("spectrum", "-L", "6" if small else "6:10:2", "--jt-over-pi", "0.5,1.0",
                "--epsilon-over-pi", "0.1,0.2341", "--dump-spectra")
        return Spec(name, argv, 1, _spectrum_check, None)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
