"""The translation- and reflection-symmetric sector, and lifetimes computed from it.

Both drive factors commute with the L translations of the periodic chain and
with site reflection, so they commute with the whole dihedral group.  That
group permutes basis states without signs.  The normalized orbit sums

    |r~> = N_r**-1/2 * sum of the N_r basis states in the orbit of r

therefore span the invariant subspace of momentum k = 0 and even reflection
parity.  The propagator maps that subspace into itself.  The all-up state
is an orbit of one state, so its whole evolution stays in the sector
(Sandvik, arXiv:1101.3281, section 4; Weinberg & Bukov, SciPost Phys. 2,
003 (2017)).  The sector has 13, 18, 30, 46, 78 and 126 states for
L = 6 ... 11 (the binary bracelet numbers), against 2**L.

One complex Schur decomposition of the sector propagator gives its
eigenphases ``theta_k`` and orthonormal eigenvectors, and then

    P(2nT) = |sum_k w_k exp(2i n theta_k)|**2,   w_k = |<k|up>|**2

for every n, with no period-by-period evolution.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import scipy.linalg

from .engine import _kick, _zz_phase_table
from .states import DENSE_MAX_SITES, FloquetParams, _require_sites

#: Largest strictly upper-triangular entry of the Schur factor accepted as rounding.
NORMALITY_TOL = 1e-10
#: Orbit-sum columns kicked together while the sector propagator is built.
_BLOCK = 8
#: Pairs evaluated per matrix-vector product in ``sector_return_probability``.
_CHUNK = 256


def sector_dimension(L: int) -> int:
    """Number of dihedral orbits of the 2**L basis states, by Burnside's lemma."""
    necklaces = sum(2 ** math.gcd(L, k) for k in range(L)) // L
    if L % 2:
        return (necklaces + 2 ** ((L + 1) // 2)) // 2
    return (2 * necklaces + 3 * 2 ** (L // 2)) // 4


def orbit_representatives(L: int) -> np.ndarray:
    """Smallest of the 2L dihedral images (L translations x site reflection) of every index."""
    _require_sites(L, DENSE_MAX_SITES, "sector")
    index = np.arange(1 << L)
    mask = (1 << L) - 1
    mirrored = np.zeros_like(index)
    for site in range(L):
        mirrored |= ((index >> site) & 1) << (L - 1 - site)
    smallest = index.copy()
    for image in (index, mirrored):
        for shift in range(L):
            np.minimum(smallest, ((image << shift) | (image >> (L - shift))) & mask, out=smallest)
    return smallest


def sector_propagator(params: FloquetParams) -> np.ndarray:
    """One-period propagator on the orbit-sum basis, representatives in ascending order.

    Entry ``[r', r] = <r'~|U|r~> = sqrt(N_r') * (U|r~>)[r']``, since ``U|r~>``
    is constant on each orbit.  Blocks of orbit-sum columns are kicked by the
    structured engine, so no 2**L x 2**L matrix is formed.
    """
    L = params.L
    representative = orbit_representatives(L)
    reps, orbit_of, sizes = np.unique(representative, return_inverse=True, return_counts=True)
    members = np.argsort(orbit_of, kind="stable")
    bounds = np.concatenate(([0], np.cumsum(sizes)))
    row_scale = np.sqrt(sizes) * _zz_phase_table(L, params.jt)[reps]
    M = reps.size
    U = np.empty((M, M), dtype=np.complex128)
    for start in range(0, M, _BLOCK):
        stop = min(start + _BLOCK, M)
        states = members[bounds[start]:bounds[stop]]
        columns = np.zeros((1 << L, stop - start), dtype=np.complex128)
        columns[states, orbit_of[states] - start] = 1.0 / np.sqrt(sizes[orbit_of[states]])
        kicked = _kick(columns.reshape(-1), L, params.theta, stop - start).reshape(1 << L, -1)
        U[:, start:stop] = kicked[reps] * row_scale[:, None]
    return U


def sector_eigenphases(params: FloquetParams) -> tuple[np.ndarray, np.ndarray]:
    """Eigenphases ``theta_k`` of the sector propagator and the weights ``|<k|up>|**2``.

    The complex Schur vectors stay orthonormal inside degenerate clusters
    (such as those at JT = pi).  A Schur factor that is not diagonal to
    ``NORMALITY_TOL`` means the operator is not normal, so not unitary, and
    raises ValueError.
    """
    triangular, vectors = scipy.linalg.schur(sector_propagator(params), output="complex")
    off_diagonal = float(np.max(np.abs(np.triu(triangular, 1))))
    if off_diagonal > NORMALITY_TOL:
        raise ValueError(f"sector propagator is not normal: Schur off-diagonal {off_diagonal:.3e}")
    # The all-up index 2**L - 1 is the largest representative, so the last row.
    return np.angle(np.diag(triangular)), np.abs(vectors[-1]) ** 2


def sector_return_probability(params: FloquetParams):
    """Yield P(2nT) of the all-up start for n = 1, 2, ..., indefinitely.

    Nothing is built before the first sample is requested.  Each chunk of
    ``_CHUNK`` pairs from ``n0`` on is one product of the fixed table
    ``exp(2i j theta_k)`` with ``w_k exp(2i n0 theta_k)``; no powers are
    accumulated, so the error does not compound from chunk to chunk.
    """
    theta, weights = sector_eigenphases(params)
    table = np.exp(np.outer(np.arange(_CHUNK), 2j * theta))
    for n0 in itertools.count(1, _CHUNK):
        amplitude = table @ (weights * np.exp(2j * n0 * theta))
        yield from (np.abs(amplitude) ** 2).tolist()
