"""Symmetry blocks of the propagator: the symmetric sector, its lifetimes, and momentum blocks.

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

    P(nT) = |sum_k w_k exp(i n theta_k)|**2,   w_k = |<k|up>|**2

for every n, odd or even, with no period-by-period evolution.

The translations alone split the whole space into L momentum blocks,
``k = 2 pi m / L``.  The momentum state of an orbit of size ``N_r``,

    |r,k> = N_r**-1/2 * sum_j exp(i k j) |s_j>,   s_j shifted j sites onto r,

exists when ``m N_r`` is a multiple of L, and block m holds exactly those
orbits, so the block sizes add up to 2**L (about 2**L / L each; 108 states
at most for L = 10).  The quasi-energy spectrum is the union of the block
spectra (``spectral.propagator_spectrum``).

Both kinds of block are built the same way (``OrbitBasis.propagator``): the
basis states are kicked in blocks of columns by the structured engine and
read back at the orbit representatives, so no 2**L x 2**L matrix is formed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg

from . import blas
from .engine import _kick, _zz_phase_table
from .states import DENSE_MAX_SITES, FloquetParams, _require_sites

#: Largest strictly upper-triangular entry of the Schur factor accepted as rounding.
NORMALITY_TOL = 1e-10
#: Basis states kicked together while a block propagator is built.
_BLOCK = 8
#: Periods evaluated per matrix-vector product in ``sector_return_probability``
#: (the rows of its phase table, rounded up to a power of two).
_CHUNK = 512


def sector_dimension(L: int) -> int:
    """Number of dihedral orbits of the 2**L basis states, by Burnside's lemma."""
    necklaces = sum(2 ** math.gcd(L, k) for k in range(L)) // L
    if L % 2:
        return (necklaces + 2 ** ((L + 1) // 2)) // 2
    return (2 * necklaces + 3 * 2 ** (L // 2)) // 4


def translation_orbits(L: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Representative, shift and orbit size of every basis index under the L translations.

    The representative ``r`` of index ``s`` is the smallest of its L cyclic
    shifts, the shift ``j`` is the first number of sites that rotates ``s``
    onto ``r`` (so ``0 <= j < N_r``), and ``N_r`` is the number of distinct
    shifts, a divisor of L.
    """
    _require_sites(L, DENSE_MAX_SITES, "sector")
    index = np.arange(1 << L)
    mask = (1 << L) - 1
    representative = index.copy()
    shift = np.zeros_like(index)
    fixed = np.zeros_like(index)
    for j in range(L):
        image = ((index << j) | (index >> (L - j))) & mask
        fixed += image == index
        smaller = image < representative
        representative[smaller] = image[smaller]
        shift[smaller] = j
    return representative, shift, L // fixed


def orbit_representatives(L: int) -> np.ndarray:
    """Smallest of the 2L dihedral images (L translations x site reflection) of every index."""
    representative = translation_orbits(L)[0]
    index = np.arange(1 << L)
    mirrored = np.zeros_like(index)
    for site in range(L):
        mirrored |= ((index >> site) & 1) << (L - 1 - site)
    return np.minimum(representative, representative[mirrored])


@dataclass(frozen=True)
class OrbitBasis:
    """Orthonormal states, one per orbit, each spread over the basis indices of its orbit.

    ``members`` lists the basis indices orbit by orbit, each orbit led by its
    representative (its smallest index), and ``amplitudes`` the state's
    entry on each of them; ``sizes`` holds the orbit sizes ``N_r``.  A
    representative's entry is ``N_r**-1/2``.  The states span a subspace
    that the propagator maps into itself.
    """

    L: int
    members: np.ndarray
    sizes: np.ndarray
    amplitudes: np.ndarray

    def _columns(self) -> np.ndarray:
        """The orbit (column) of every entry of ``members``."""
        return np.repeat(np.arange(self.sizes.size), self.sizes)

    def propagator(self, params: FloquetParams) -> np.ndarray:
        """One-period propagator on this basis, orbits in the order of ``members``.

        Entry ``[r', r] = sqrt(N_r') * (U|r>)[r']``, since ``U|r>`` lies in
        the span and each state's entry at its representative is
        ``N_r'**-1/2``.  Blocks of states are kicked by the structured
        engine and only the representative rows get the Ising phase.
        """
        L = params.L
        bounds = np.concatenate(([0], np.cumsum(self.sizes)))
        reps = self.members[bounds[:-1]]
        column = self._columns()
        row_scale = np.sqrt(self.sizes) * _zz_phase_table(L, params.jt)[reps]
        M = self.sizes.size
        U = np.empty((M, M), dtype=np.complex128)
        for start in range(0, M, _BLOCK):
            stop = min(start + _BLOCK, M)
            part = slice(bounds[start], bounds[stop])
            states = np.zeros((1 << L, stop - start), dtype=np.complex128)
            states[self.members[part], column[part] - start] = self.amplitudes[part]
            kicked = _kick(states.reshape(-1), L, params.theta, stop - start).reshape(1 << L, -1)
            U[:, start:stop] = kicked[reps] * row_scale[:, None]
        return U

    def lift(self, vectors: np.ndarray) -> np.ndarray:
        """Columns of coefficients on this basis as columns of 2**L spin-basis amplitudes."""
        lifted = np.zeros((1 << self.L, vectors.shape[1]), dtype=np.complex128)
        lifted[self.members] = self.amplitudes[:, None] * vectors[self._columns()]
        return lifted


@lru_cache(maxsize=None)
def _sector_basis(L: int) -> OrbitBasis:
    """The orbit-sum basis of the sector, representatives in ascending order (one per L)."""
    representative = orbit_representatives(L)
    _, orbit_of, sizes = np.unique(representative, return_inverse=True, return_counts=True)
    members = np.argsort(orbit_of, kind="stable")
    amplitudes = 1.0 / np.sqrt(sizes[orbit_of[members]])
    for shared in (members, sizes, amplitudes):  # every caller gets these arrays
        shared.flags.writeable = False
    return OrbitBasis(L, members, sizes, amplitudes)


def sector_propagator(params: FloquetParams) -> np.ndarray:
    """One-period propagator on the orbit-sum basis, representatives in ascending order."""
    return _sector_basis(params.L).propagator(params)


def momentum_blocks(L: int):
    """Yield the orbit bases of the L momentum blocks, ``k = 2 pi m / L`` for m = 0 .. L-1.

    Each basis holds the momentum states ``|r,k>`` of the orbits with
    ``m N_r`` a multiple of L, representatives in ascending order.
    """
    representative, shift, size = translation_orbits(L)
    members = np.argsort(representative, kind="stable")
    for m in range(L):
        block = members[(m * size[members]) % L == 0]
        sizes = size[block[representative[block] == block]]
        amplitudes = np.exp(2j * np.pi * m / L * shift[block]) / np.sqrt(size[block])
        yield OrbitBasis(L, block, sizes, amplitudes)


def sector_eigenphases(params: FloquetParams) -> tuple[np.ndarray, np.ndarray]:
    """Eigenphases ``theta_k`` of the sector propagator and the weights ``|<k|up>|**2``.

    The complex Schur vectors stay orthonormal inside degenerate clusters
    (such as those at JT = pi).  A Schur factor that is not diagonal to
    ``NORMALITY_TOL`` means the operator is not normal, so not unitary, and
    raises ValueError.  The Schur runs on one OpenBLAS thread, so its last
    bits do not depend on the process it runs in.
    """
    propagator = sector_propagator(params)
    with blas.one_thread():
        triangular, vectors = scipy.linalg.schur(propagator, output="complex")
    off_diagonal = float(np.max(np.abs(np.triu(triangular, 1))))
    if off_diagonal > NORMALITY_TOL:
        raise ValueError(f"sector propagator is not normal: Schur off-diagonal {off_diagonal:.3e}")
    # The all-up index 2**L - 1 is the largest representative, so the last row.
    return np.angle(np.diag(triangular)), np.abs(vectors[-1]) ** 2


def sector_return_probability(params: FloquetParams):
    """Yield P(nT) of the all-up start for n = 1, 2, ..., indefinitely.

    Nothing is built before the first sample is requested.  Each chunk of
    ``_CHUNK`` periods from ``n0`` on is one product of the fixed table
    ``exp(i j theta_k)`` with ``w_k exp(i n0 theta_k)``; no powers are
    accumulated, so the error does not compound from chunk to chunk.  The
    table is doubled up from ``exp(i 2**b theta_k)``: each entry is a product
    of at most log2(_CHUNK) exponentials of exactly scaled phases, which is
    both cheaper and closer than rounding ``j * theta_k`` before ``exp``.
    """
    theta, weights = sector_eigenphases(params)
    table = np.ones((1, theta.size), dtype=np.complex128)
    while table.shape[0] < _CHUNK:
        table = np.concatenate((table, table * np.exp(1j * table.shape[0] * theta)))
    for n0 in itertools.count(1, len(table)):
        amplitude = table @ (weights * np.exp(1j * n0 * theta))
        yield from (np.abs(amplitude) ** 2).tolist()
