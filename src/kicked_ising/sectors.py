"""Symmetry blocks: the all-up return amplitude in closed form, and momentum blocks.

The drive has no longitudinal field, so the Jordan-Wigner transformation with
``X_j = 1 - 2 n_j`` makes both of its factors quadratic in fermions (Lieb,
Schultz & Mattis, Ann. Phys. 16, 407 (1961); Prosen, Prog. Theor. Phys.
Suppl. 139, 191 (2000)).  Both factors commute with the parity
``prod_j X_j = (-1)**N``, and the all-up state is ``(|GHZ+> + |GHZ->) / sqrt(2)``,
so its return amplitude splits into one amplitude per parity sector,

    <up|U**n|up> = (A_NS(n) + A_R(n)) / 2,

where parity +1 (NS) takes the antiperiodic momenta ``k = pi (2m+1) / L`` and
parity -1 (R) the periodic momenta ``k = 2 pi m / L``.  In each sector the GHZ
state is the top eigenstate of the Ising bond sum: a product over the pairs
(k, -k), 0 < k < pi, of states in span{|0>, c+_k c+_-k |0>}, on which one
period acts as

    V_k = exp(-i (JT/4) H_k) diag(1, exp(4 i theta)),
    H_k = [[0, -2i sin k], [2i sin k, 4 cos k]].

One more phase per period holds the unpaired modes: ``-theta L`` in both
sectors, and in R ``2 theta - JT/2`` for its occupied k = 0 mode (k = pi
stays empty).  Writing ``H_k = 2 cos k + 2 n.sigma`` with
``n = (0, sin k, -cos k)`` makes ``V_k`` a phase ``exp(i beta_k)``,
``beta_k = 2 theta - (JT/2) cos k``, times a product of two rotations, which
is one rotation ``cos eps_k - i v.sigma`` by

    cos eps_k = cos(JT/2) cos(2 theta) + sin(JT/2) sin(2 theta) cos k,

the kicked-Ising dispersion.  The cos k of a sector's pairs add up to 0 for
even L and to +1/2 (NS) or -1/2 (R) for odd L, so with the ``beta_k`` the
phases per period close to ``gamma_NS = 0`` and ``gamma_R = -JT/2`` for even
L, and to ``-theta - JT/4`` and ``theta - JT/4`` for odd L.  H_k's top
eigenvector has weights ``(1 +- t_k) / 2``, ``t_k = v.n / |v|``, on the
eigenvectors of ``V_k`` with eigenphases ``beta_k -+ eps_k``, hence

    A_s(n) = exp(i n gamma_s) prod_k (cos(n eps_k) - i t_k sin(n eps_k)):

O(L) numbers at any L, and no 2**L array.

The translations alone split the whole space into L momentum blocks,
``k = 2 pi m / L``.  The momentum state of an orbit of size ``N_r``,

    |r,k> = N_r**-1/2 * sum_j exp(i k j) |s_j>,   s_j shifted j sites onto r,

exists when ``m N_r`` is a multiple of L, and block m holds exactly those
orbits, so the block sizes add up to 2**L (about 2**L / L each; 108 states
at most for L = 10).  The quasi-energy spectrum is the union of the block
spectra (``spectral.propagator_spectrum``).

Every block comes from one builder, ``orbit_basis(images, characters)``:
the group enters as one row of basis-index images per element and one
character per element; block m is the L rotations with characters
``exp(i k j)``.  ``OrbitBasis.propagator`` builds a block's operator: the
basis states are kicked in blocks of columns by the structured engine and
read back at the orbit representatives, so no 2**L x 2**L matrix is formed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .engine import _kick, _zz_phase_table
from .states import DENSE_MAX_SITES, FloquetParams, _require_sites

#: Basis states kicked together while a block propagator is built.
_BLOCK = 8
#: Periods evaluated per chunk in ``sector_return_probability`` (the rows of its
#: phase table, rounded up to a power of two).
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


def momentum_blocks(L: int):
    """Yield the orbit bases of the L momentum blocks, ``k = 2 pi m / L`` for m = 0 .. L-1.

    Block m is the L rotations with characters ``exp(i k j)``; it holds the
    momentum states ``|r,k>`` of the orbits with ``m N_r`` a multiple of L.
    """
    _require_sites(L, DENSE_MAX_SITES, "momentum block")
    index = np.arange(1 << L)
    mask = (1 << L) - 1
    rotations = np.stack([((index << j) | (index >> (L - j))) & mask for j in range(L)])
    for m in range(L):
        yield orbit_basis(rotations, np.exp(2j * np.pi * m / L * np.arange(L)))


def _parity_sectors(params: FloquetParams) -> list[tuple[float, np.ndarray, np.ndarray]]:
    """Per sector, NS then R: the phase per period ``gamma_s``, and ``eps_k`` and ``t_k``
    of its pairs (k, -k), 0 < k < pi."""
    L, jt, theta = params.L, params.jt, params.theta
    s, c = np.sin(jt / 2), np.cos(jt / 2)
    s2, c2 = np.sin(2 * theta), np.cos(2 * theta)
    gammas = (-theta - jt / 4, theta - jt / 4) if L % 2 else (0.0, -jt / 2)
    sectors = []
    for first, gamma in zip((1, 2), gammas):
        k = np.pi * np.arange(first, L, 2) / L
        cos_k = np.cos(k)
        v_z = c * s2 - s * c2 * cos_k
        sin_eps = np.hypot(s * np.sin(k), v_z)  # |v|
        eps = np.arctan2(sin_eps, c * c2 + s * s2 * cos_k)
        tilt = np.divide(s * c2 - c * s2 * cos_k, sin_eps, out=np.zeros_like(k),
                         where=sin_eps > 0)
        sectors.append((gamma, eps, tilt))
    return sectors


def sector_return_probability(params: FloquetParams):
    """Yield P(nT) of the all-up start for n = 1, 2, ..., indefinitely.

    Nothing is computed before the first sample is requested.  Each chunk of
    ``_CHUNK`` periods from ``n0`` on multiplies the fixed table
    ``exp(i j phi)``, one row per phase (the two ``gamma_s``, then every
    ``eps_k``), by ``exp(i n0 phi)``, and then multiplies the factors of each
    sector; no powers are accumulated, so the error does not compound from
    chunk to chunk.  The table is doubled up from ``exp(i 2**b phi)``: each
    entry is a product of at most log2(_CHUNK) exponentials of exactly scaled
    phases, which is both cheaper and closer than rounding ``j * phi`` before
    ``exp``.
    """
    (gamma_ns, eps_ns, tilt_ns), (gamma_r, eps_r, tilt_r) = _parity_sectors(params)
    phases = np.concatenate(([gamma_ns, gamma_r], eps_ns, eps_r))
    minus_tilt = -np.concatenate((tilt_ns, tilt_r))[:, None]
    split = 2 + eps_ns.size
    table = np.ones((phases.size, 1), dtype=np.complex128)
    while table.shape[1] < _CHUNK:
        table = np.concatenate((table, table * np.exp(1j * table.shape[1] * phases)[:, None]),
                               axis=1)
    for n0 in itertools.count(1, table.shape[1]):
        rotated = table * np.exp(1j * n0 * phases)[:, None]
        rotated.imag[2:] *= minus_tilt  # each pair's cos(n eps_k) - i t_k sin(n eps_k)
        amplitude = (rotated[0] * rotated[2:split].prod(axis=0)
                     + rotated[1] * rotated[split:].prod(axis=0))
        yield from (np.abs(amplitude / 2) ** 2).tolist()
