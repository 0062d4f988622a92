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
phases, with no matrix and no eigensolver.  ``quasi_energies`` of the full
matrix of ``engine.build_dense_propagator`` is the dense oracle, and
``propagator_spectrum`` keeps eigenvectors from that matrix's Schur
decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import math

import numpy as np

from .engine import build_dense_propagator
from .sectors import free_fermion_levels
from .states import FloquetParams, StateVector, _require_unitary

#: Quasi-energies closer than this to an anchor count as exactly degenerate.
EXACT_PAIR_TOL = 1e-10


def fold_to_branch(x):
    """Map phases (or phase differences) into the branch (-pi, pi]."""
    return math.pi - np.mod(math.pi - np.asarray(x), 2.0 * math.pi)


@dataclass(frozen=True)
class QuasiEnergySpectrum:
    """Sorted quasi-energies of a propagator, optionally with eigenvectors.

    ``energies`` is ascending within (-pi, pi]; when kept, column j of
    ``eigenvectors`` belongs to ``energies[j]`` and the columns are
    orthonormal.
    """

    L: int
    energies: np.ndarray
    eigenvectors: Optional[np.ndarray] = None

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


def propagator_spectrum(params: FloquetParams, keep_vectors: bool = False) -> QuasiEnergySpectrum:
    """Spectrum of the one-period propagator with the aligned quasi-energy origin.

    Quasi-energies are measured relative to the Ising phase of the fully
    aligned configuration, i.e. of ``exp(+i JT L / 4) U``; see the module
    docstring.  The levels are the free-fermion eigenphases of
    ``sectors.free_fermion_levels``.  With ``keep_vectors`` they come from
    the complex Schur decomposition of the dense propagator instead, so the
    eigenvector columns are orthonormal even inside degenerate clusters, and
    column j is the Schur vector of level j; the builder checks the
    ``2**L x 2**L`` matrix against the array budget before it allocates.
    """
    shift = 0.25 * params.jt * params.L
    if not keep_vectors:
        energies = fold_to_branch(-free_fermion_levels(params) - shift)
        energies.sort(kind="stable")
        energies.setflags(write=False)
        return QuasiEnergySpectrum(L=params.L, energies=energies)
    U = build_dense_propagator(params).matrix
    _require_unitary(U, "matrix")
    # Imported here only: no sweep mode needs it, and it more than doubles the CLI's import time.
    import scipy.linalg

    triangular, vectors = scipy.linalg.schur(U, output="complex")
    raw = fold_to_branch(-np.angle(np.diag(triangular)))
    aligned = fold_to_branch(raw - shift)
    order = np.lexsort((raw, aligned))  # by aligned level, ties by raw level, then by index
    energies, vectors = aligned[order], vectors[:, order]
    energies.setflags(write=False)
    vectors.setflags(write=False)
    return QuasiEnergySpectrum(L=params.L, energies=energies, eigenvectors=vectors)


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
    only the L // 2 + 1 values of ``exp(-i (JT/4) (L - 2f))``.
    """
    d = np.exp(-0.25j * params.jt * (params.L - 2 * np.arange(0, params.L + 1, 2)))
    kick = max(abs(math.cos(params.theta)), abs(math.sin(params.theta))) ** params.L
    return float(np.max(np.abs(d.conj() - 1j ** (params.L % 4) * d))) * kick


def _anchor_distances(spec: QuasiEnergySpectrum) -> tuple[np.ndarray, np.ndarray]:
    """Folded distances ``|e|`` and ``|e - pi|`` of every level from the two anchors."""
    return (np.abs(fold_to_branch(spec.energies)), np.abs(fold_to_branch(spec.energies - math.pi)))


def count_exact_pi_pairs(spec: QuasiEnergySpectrum, tol: float = EXACT_PAIR_TOL) -> PairCounts:
    """Count quasi-energies within ``tol`` of the anchors 0 and pi.

    Distances are measured on the Floquet circle, so a level just below the
    branch edge -pi counts toward the pi anchor.
    """
    d_zero, d_pi = _anchor_distances(spec)
    return PairCounts(n_zero=int(np.sum(d_zero <= tol)), n_pi=int(np.sum(d_pi <= tol)))


def paired_superposition(
    spec: QuasiEnergySpectrum,
    zero_index: int,
    pi_index: int,
    sign: int = +1,
    tol: float = EXACT_PAIR_TOL,
) -> StateVector:
    """Equal-weight superposition of an anchor-0 and an anchor-pi eigenstate.

    Such a state swaps between its two superposition branches every period and
    returns to itself exactly every second period, for as long as the two
    quasi-energies are exact: stroboscopic revival with no decay.
    """
    if spec.eigenvectors is None:
        raise ValueError("spectrum was computed without eigenvectors")
    if sign not in (+1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    d_zero, d_pi = _anchor_distances(spec)
    dev_zero, dev_pi = float(d_zero[zero_index]), float(d_pi[pi_index])
    if dev_zero > tol:
        raise ValueError(f"state {zero_index} is {dev_zero:.3e} away from quasi-energy 0")
    if dev_pi > tol:
        raise ValueError(f"state {pi_index} is {dev_pi:.3e} away from quasi-energy pi")
    combo = spec.eigenvectors[:, zero_index] + sign * spec.eigenvectors[:, pi_index]
    combo = combo / np.linalg.norm(combo)
    return StateVector(spec.L, combo)


def overlap_with_pair_manifold(
    state: StateVector, spec: QuasiEnergySpectrum, tol: float = EXACT_PAIR_TOL
) -> float:
    """Squared projection of ``state`` onto the span of anchor-0/anchor-pi eigenstates."""
    if spec.eigenvectors is None:
        raise ValueError("spectrum was computed without eigenvectors")
    if state.L != spec.L:
        raise ValueError(f"state has L={state.L} but spectrum has L={spec.L}")
    d_zero, d_pi = _anchor_distances(spec)
    on_anchor = (d_zero <= tol) | (d_pi <= tol)
    if not np.any(on_anchor):
        return 0.0
    block = spec.eigenvectors[:, on_anchor]
    return float(np.sum(np.abs(block.conj().T @ state.amplitudes) ** 2))
