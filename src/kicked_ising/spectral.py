"""Quasi-energy spectra, pairing statistics, and the time-reflection check.

Quasi-energies are in units of ``1/T``: a one-period propagator eigenvalue
``lambda = exp(-i e)`` defines the quasi-energy ``e`` modulo ``2 pi``, and
everything here works on the branch ``(-pi, pi]``.  Period-doubled dynamics
shows up as eigenstate pairs whose quasi-energies differ by exactly ``pi``.

Quasi-energy origin
-------------------
The propagator's overall phase is physically meaningless but moves every
quasi-energy rigidly, so statements like "states sit exactly at 0 and pi"
depend on a phase convention.  ``propagator_spectrum`` therefore divides out
the Ising phase of the fully aligned spin configuration (a global factor
``exp(-i JT L / 4)``).  With that origin, the exactly paired states of an
even-length chain at ``JT = pi`` anchor at 0 and ``pi`` for every even L;
with the raw propagator (``quasi_energies`` of the dense matrix) they sit at
0/pi only for L divisible by 4 and at ``+-pi/2`` for L = 6, 10, ....  Pair
*separations* and gap statistics are unaffected by the choice.

Free-fermion levels
-------------------
The drive is quadratic in Jordan-Wigner fermions, so ``propagator_spectrum``
takes every level from ``sectors.free_fermion_levels`` as a sum of mode
phases, with no matrix, no eigensolver and no eigenvectors.
``quasi_energies`` of the full matrix of ``engine.build_dense_propagator``
is the dense oracle of the levels.
"""

from __future__ import annotations

from dataclasses import dataclass

import math

import numpy as np

from .engine import _zz_phases
# perfbench/tracer.py wraps spectral.build_dense_propagator; its install fails without the name.
from .engine import build_dense_propagator  # noqa: F401
from .sectors import free_fermion_levels
from .states import FloquetParams, _require_unitary

#: Quasi-energies closer than this to an anchor count as exactly degenerate.
EXACT_PAIR_TOL = 1e-10


def fold_to_branch(x):
    """Map phases (or phase differences) into the branch (-pi, pi]."""
    return math.pi - np.mod(math.pi - np.asarray(x), 2.0 * math.pi)


@dataclass(frozen=True)
class QuasiEnergySpectrum:
    """Sorted quasi-energies of a propagator, ascending within (-pi, pi]."""

    L: int
    energies: np.ndarray

    @property
    def dim(self) -> int:
        return self.energies.size


@dataclass(frozen=True)
class GapStatistics:
    """Mean neighbour gap, mean deviation from exact pi pairing, and their ratio.

    ``delta0_mean`` averages the D - 1 neighbour gaps of the levels on the
    Floquet circle that remain once its largest gap is left out, that is
    ``(2 pi - largest circular gap) / (D - 1)``; it does not move when a
    level crosses the branch edge;
    ``delta_pi_mean`` averages ``|e[i + D/2] - e[i] - pi|`` (folded back into
    the branch) over the first half.  Small ``ratio`` means the spectrum is
    organized into rigid pi-separated pairs.
    """

    delta0_mean: float
    delta_pi_mean: float
    ratio: float


@dataclass(frozen=True)
class PairCounts:
    """Number of quasi-energies within tolerance of 0 and of pi."""

    n_zero: int
    n_pi: int


def quasi_energies(U: np.ndarray) -> QuasiEnergySpectrum:
    """Eigenvalues of a unitary matrix as quasi-energies e = -arg(lambda), sorted.

    The dense oracle of the levels: ``eigvals``, with no eigenvectors.
    """
    m = np.asarray(U, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    _require_unitary(m, "matrix")
    energies = fold_to_branch(-np.angle(np.linalg.eigvals(m)))
    energies.sort(kind="stable")
    energies.setflags(write=False)
    return QuasiEnergySpectrum(L=m.shape[0].bit_length() - 1, energies=energies)


def propagator_spectrum(params: FloquetParams) -> QuasiEnergySpectrum:
    """Spectrum of the one-period propagator with the aligned quasi-energy origin.

    Quasi-energies are measured relative to the Ising phase of the fully
    aligned configuration, i.e. of ``exp(+i JT L / 4) U``; see the module
    docstring.  The levels are the free-fermion eigenphases of
    ``sectors.free_fermion_levels``.
    """
    energies = fold_to_branch(-free_fermion_levels(params) - 0.25 * params.jt * params.L)
    energies.sort(kind="stable")
    energies.setflags(write=False)
    return QuasiEnergySpectrum(L=params.L, energies=energies)


def gap_statistics(spec: QuasiEnergySpectrum) -> GapStatistics:
    """Neighbour-gap and pi-pairing statistics of a sorted spectrum."""
    e = spec.energies
    D = e.size
    if D % 2 != 0:
        raise ValueError(f"need an even number of levels to pair, got {D}")
    if D < 2:
        raise ValueError("need at least two levels")
    largest_gap = max(float(np.max(np.diff(e))), float(e[0] + 2.0 * math.pi - e[-1]))
    delta0 = (2.0 * math.pi - largest_gap) / (D - 1)
    deviations = fold_to_branch(e[D // 2 :] - e[: D // 2] - math.pi)
    delta_pi = float(np.mean(np.abs(deviations)))
    ratio = delta_pi / delta0 if delta0 > 0 else math.inf
    return GapStatistics(delta0_mean=delta0, delta_pi_mean=delta_pi, ratio=ratio)


def check_time_reflection(params: FloquetParams) -> float:
    """Residual of the time-reflection symmetry of the one-period propagator.

    The symmetry combines R = (prod_i sigma^x_i)(prod_j sigma^z_j), which flips
    every spin with the sign (-1)**(number of up spins) of the source state,
    with complex conjugation in the spin basis — an antiunitary operation, as
    time reflection must be.  The identity tested is

        R conj(U) R^T = i**L U,    U = D K,

    which holds exactly at JT = pi for every chain length and any kick
    imperfection; the returned max-norm residual is then at floating-point
    level, and grows to O(1) away from JT = pi.  It comes from U's two factors:
    R = r^{(x)L} with r = [[0, -1], [1, 0]] and r conj(k) r^T = k, so
    R conj(K) R^T = K; D is diagonal with flip-invariant bond sums, so
    R conj(D) R^T = conj(D).  The residual is (conj(D) - i**L D) K; the largest
    entries of every row of K have modulus max(|cos theta|, |sin theta|)**L.
    A periodic chain has an even number f of anti-aligned bonds, so D takes
    only the L // 2 + 1 even-wall entries of ``engine._zz_phases``.
    """
    d = _zz_phases(params.L, params.jt)[::2]
    kick = max(abs(math.cos(params.theta)), abs(math.sin(params.theta))) ** params.L
    return float(np.max(np.abs(d.conj() - 1j ** (params.L % 4) * d))) * kick


def count_exact_pi_pairs(spec: QuasiEnergySpectrum, tol: float = EXACT_PAIR_TOL) -> PairCounts:
    """Count quasi-energies within ``tol`` of the anchors 0 and pi.

    Distances are measured on the Floquet circle, so a level just below the
    branch edge -pi counts toward the pi anchor.
    """
    d_zero = np.abs(fold_to_branch(spec.energies))
    d_pi = np.abs(fold_to_branch(spec.energies - math.pi))
    return PairCounts(n_zero=int(np.sum(d_zero <= tol)), n_pi=int(np.sum(d_pi <= tol)))
