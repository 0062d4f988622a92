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

Every block comes from one builder, ``orbit_basis(images, characters)``:
the group enters as one row of basis-index images per element and one
character per element.  The sector is the 2L dihedral images with every
character 1; block m is the L rotations with characters ``exp(i k j)``.
Both are built into operators the same way (``OrbitBasis.propagator``): the
basis states are kicked in blocks of columns by the structured engine and
read back at the orbit representatives, so no 2**L x 2**L matrix is formed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg

from . import blas
from .engine import _kick, _zz_phase_table
from .states import DENSE_MAX_SITES, FloquetParams, _require_sites, _require_unitary

#: Basis states kicked together while a block propagator is built.
_BLOCK = 8
#: Periods evaluated per matrix-vector product in ``sector_return_probability``
#: (the rows of its phase table, rounded up to a power of two).
_CHUNK = 512


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


def _rotations(L: int) -> np.ndarray:
    """The L cyclic shifts of every basis index, row j shifted by j sites (row 0 the identity)."""
    _require_sites(L, DENSE_MAX_SITES, "sector")
    index = np.arange(1 << L)
    mask = (1 << L) - 1
    return np.stack([((index << j) | (index >> (L - j))) & mask for j in range(L)])


def orbit_basis(images: np.ndarray, characters: np.ndarray) -> OrbitBasis:
    """The orbit states of a group that permutes the basis, one per orbit that survives.

    Row g of ``images`` holds the image of every basis index under group
    element g, the identity first, and ``characters[g]`` is its character.
    An orbit's representative is its first smallest image, and a member's
    entry is the character of the first element that maps it onto the
    representative, over ``sqrt(N_r)``.  The characters of a stabilizer add
    up to its order or cancel to zero, and an orbit is kept when they do
    not cancel.  Members are ordered by representative (a stable sort).
    """
    group, dim = images.shape
    first = np.argmin(images, axis=0)
    representative = images[first, np.arange(dim)]
    fixed = images == np.arange(dim)
    size = group // np.count_nonzero(fixed, axis=0)
    kept = np.abs(np.where(fixed, characters[:, None], 0).sum(axis=0)) > 0.5
    members = np.argsort(representative, kind="stable")
    members = members[kept[members]]
    sizes = size[members[representative[members] == members]]
    amplitudes = characters[first[members]] / np.sqrt(size[members])
    for shared in (members, sizes, amplitudes):  # a cached basis hands these to every caller
        shared.flags.writeable = False
    return OrbitBasis(dim.bit_length() - 1, members, sizes, amplitudes)


@lru_cache(maxsize=None)
def _sector_basis(L: int) -> OrbitBasis:
    """The orbit-sum basis of the sector: the 2L dihedral images, every character 1."""
    rotations = _rotations(L)
    mirrored = np.zeros_like(rotations[0])
    for site in range(L):
        mirrored |= ((rotations[0] >> site) & 1) << (L - 1 - site)
    return orbit_basis(np.concatenate((rotations, rotations[:, mirrored])), np.ones(2 * L))


def sector_dimension(L: int) -> int:
    """Number of dihedral orbits of the 2**L basis states (the binary bracelets)."""
    return _sector_basis(L).sizes.size


def sector_propagator(params: FloquetParams) -> np.ndarray:
    """One-period propagator on the orbit-sum basis, representatives in ascending order."""
    return _sector_basis(params.L).propagator(params)


def momentum_blocks(L: int):
    """Yield the orbit bases of the L momentum blocks, ``k = 2 pi m / L`` for m = 0 .. L-1.

    Block m is the L rotations with characters ``exp(i k j)``; it holds the
    momentum states ``|r,k>`` of the orbits with ``m N_r`` a multiple of L.
    """
    rotations = _rotations(L)
    for m in range(L):
        yield orbit_basis(rotations, np.exp(2j * np.pi * m / L * np.arange(L)))


def sector_eigenphases(params: FloquetParams) -> tuple[np.ndarray, np.ndarray]:
    """Eigenphases ``theta_k`` of the sector propagator and the weights ``|<k|up>|**2``.

    An operator that fails ``states._require_unitary`` raises ValueError.
    The complex Schur vectors stay orthonormal inside degenerate clusters
    (such as those at JT = pi).  The Schur runs on one OpenBLAS thread, so
    its last bits do not depend on the process it runs in.
    """
    propagator = sector_propagator(params)
    with blas.one_thread():
        _require_unitary(propagator, "sector propagator")
        triangular, vectors = scipy.linalg.schur(propagator, output="complex")
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
