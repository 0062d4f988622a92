"""One-period propagator of the kicked Ising chain, structured and dense.

A period consists of the global x kick ``K = prod_i exp(-i theta sigma^x_i)``
with ``theta = pi/2 - epsilon`` acting first, followed by the Ising phase
``D = diag(exp(-i (JT/4) * bond_sum))``.  The kick is the tensor power
``k^{(x)L}`` of one symmetric 2x2 rotation ``k``, so it factorizes into a few
site factors ``k^{(x)n}`` of at most five sites each (Van Loan, "The
ubiquitous Kronecker product", J. Comput. Appl. Math. 123, 85 (2000)).  The
structured path applies each factor as one matrix product over a reshaped
view of the state, plus one diagonal multiply, and never materializes a
2**L x 2**L matrix: a period costs about ``2**n * L/n`` complex
multiply-adds per amplitude, done by BLAS.  The dense propagator is the
Kronecker product of the same factors times the phase table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional

import numpy as np

from .observables import _sz_from_weights
from .states import FloquetParams, StateVector, _norm, _require_matrix, bond_sum_table

OBSERVABLE_CHOICES = ("return_probability", "sz")


@dataclass(frozen=True)
class DensePropagator:
    """Explicit 2**L x 2**L one-period propagator matrix."""

    L: int
    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.ascontiguousarray(self.matrix, dtype=np.complex128)
        if m.shape != (1 << self.L, 1 << self.L):
            raise ValueError(f"expected a {1 << self.L}x{1 << self.L} matrix, got {m.shape}")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True)
class StroboscopicSeries:
    """Observables sampled once per period, n = 1 .. n_periods.

    ``return_probability[j]`` is measured against the initial state after
    period ``n[j]``; ``sz`` (optional) holds per-site magnetizations row-wise.
    ``norm_drift`` is |norm - 1| of the final state; evolution never
    renormalizes, so drift is a fidelity diagnostic of the arithmetic.
    """

    params: FloquetParams
    n: np.ndarray
    return_probability: np.ndarray
    sz: Optional[np.ndarray]
    norm_drift: float


@lru_cache(maxsize=128)
def _zz_phase_table(L: int, jt: float) -> np.ndarray:
    table = np.exp(-0.25j * jt * bond_sum_table(L))
    table.setflags(write=False)
    return table


#: Largest number of sites in one Kronecker factor of the kick.
_FACTOR_MAX_SITES = 5


def _factor_sites(L: int) -> tuple[int, ...]:
    """Split L sites into the fewest near-equal factors of at most five, highest sites first.

    8 -> (4, 4), 12 -> (4, 4, 4), 14 -> (5, 5, 4), 20 -> (5, 5, 5, 5).
    """
    count = -(-L // _FACTOR_MAX_SITES)
    size, larger = divmod(L, count)
    return (size + 1,) * larger + (size,) * (count - larger)


@lru_cache(maxsize=128)
def _kick_factor(n: int, theta: float) -> np.ndarray:
    """``k^{(x)n}`` with ``k = cos(theta) I - i sin(theta) sigma^x``, a symmetric 2**n matrix.

    Each entry is the product of its site entries taken from site 0 upwards.
    """
    c = np.cos(theta)
    s = np.sin(theta)
    k = np.array([[c, -1j * s], [-1j * s, c]])
    factor = k
    for _ in range(n - 1):
        factor = np.kron(k, factor)
    factor.setflags(write=False)
    return factor


def _kick(amps: np.ndarray, L: int, theta: float, width: int = 1) -> np.ndarray:
    """Apply exp(-i theta sigma^x) on every site; pure, returns a new flat array.

    ``amps`` holds 2**L rows of ``width`` entries each (row-major); the kick
    acts on the row index, so a flattened matrix has all its columns kicked.
    Each site factor, lowest sites first, is one (batched) matrix product.
    """
    low = 0
    for n in reversed(_factor_sites(L)):
        factor = _kick_factor(n, theta)
        if low == 0 and width == 1:
            # The lowest sites of a vector: one GEMM on the right, as the factor is symmetric.
            amps = amps.reshape(-1, 1 << n) @ factor
        else:
            # Middle axis is the factor's sites; lower sites and columns ride along in the last.
            amps = np.matmul(factor, amps.reshape(-1, 1 << n, (1 << low) * width))
        low += n
    return amps.reshape(-1)


def _require_same_sites(state: StateVector, params: FloquetParams) -> None:
    if state.L != params.L:
        raise ValueError(f"state has L={state.L} but params have L={params.L}")


def _periods(initial: StateVector, params: FloquetParams):
    """Yield the amplitudes after each drive period, indefinitely (the one period loop).

    Every yielded array is fresh and never written again, so callers may keep it.
    """
    _require_same_sites(initial, params)
    L = params.L
    theta = params.theta
    phases = _zz_phase_table(L, params.jt)
    amps = initial.amplitudes
    while True:
        amps = _kick(amps, L, theta)
        amps *= phases
        yield amps


def apply_global_x_rotation(state: StateVector, theta: float) -> StateVector:
    """Rotate every spin about x by ``theta``: cos(theta) I - i sin(theta) sigma^x per site."""
    return StateVector(state.L, _kick(state.amplitudes, state.L, float(theta)))


def apply_zz_phase(state: StateVector, params: FloquetParams) -> StateVector:
    """Multiply each basis amplitude by exp(-i (JT/4) bond_sum(index))."""
    _require_same_sites(state, params)
    return StateVector(state.L, state.amplitudes * _zz_phase_table(params.L, params.jt))


def floquet_step(state: StateVector, params: FloquetParams) -> StateVector:
    """Advance one drive period: kick first, then the Ising phase."""
    return StateVector(state.L, next(_periods(state, params)))


def evolve_stroboscopic(
    initial: StateVector,
    params: FloquetParams,
    n_periods: int,
    observables: Iterable[str] = ("return_probability",),
) -> StroboscopicSeries:
    """Iterate the one-period propagator, sampling observables after each period.

    The state is never renormalized; the accumulated norm drift is reported on
    the result and stays far below 1e-9 over 1e5 periods in practice.
    """
    _require_same_sites(initial, params)
    if n_periods < 1:
        raise ValueError(f"n_periods must be >= 1, got {n_periods}")
    wanted = tuple(observables)
    for name in wanted:
        if name not in OBSERVABLE_CHOICES:
            raise ValueError(f"unknown observable {name!r}; choose from {OBSERVABLE_CHOICES}")
    want_sz = "sz" in wanted

    L = params.L
    psi0 = initial.amplitudes
    p_out = np.empty(n_periods)
    sz_out = np.empty((n_periods, L)) if want_sz else None
    for j, amps in zip(range(n_periods), _periods(initial, params)):
        p_out[j] = abs(np.vdot(psi0, amps)) ** 2
        if want_sz:
            w = np.abs(amps) ** 2
            total = w.sum()
            sz_out[j] = [_sz_from_weights(w, L, site, total) for site in range(L)]

    drift = abs(_norm(amps) - 1.0)
    return StroboscopicSeries(
        params=params,
        n=np.arange(1, n_periods + 1),
        return_probability=p_out,
        sz=sz_out,
        norm_drift=drift,
    )


def iter_return_probability(initial: StateVector, params: FloquetParams):
    """Yield P(nT) against ``initial`` after each period, indefinitely.

    A lazy single-pass alternative to ``evolve_stroboscopic`` for scans that
    stop early (for instance once the return probability crosses a threshold):
    nothing is stored, the caller bounds the horizon.
    """
    psi0 = initial.amplitudes
    for amps in _periods(initial, params):
        yield float(abs(np.vdot(psi0, amps)) ** 2)


def build_dense_propagator(params: FloquetParams) -> DensePropagator:
    """Materialize the one-period propagator D*K as an explicit matrix.

    The kick is the Kronecker product of the site factors that ``_kick``
    applies, multiplied in the same order, so the columns equal
    ``floquet_step`` applied to the basis states.
    """
    _require_matrix(params.L, "a dense propagator")
    U = np.ones((1, 1), dtype=np.complex128)
    for n in reversed(_factor_sites(params.L)):
        U = np.kron(_kick_factor(n, params.theta), U)
    U *= _zz_phase_table(params.L, params.jt)[:, None]
    return DensePropagator(params.L, U)
