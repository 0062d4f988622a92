"""Basis conventions, drive parameters, and state vectors for a periodic spin-1/2 chain.

Conventions used throughout the package:

* Basis states are integers ``k`` in ``[0, 2**L)``; bit ``i`` of ``k`` set
  means spin ``i`` points up (``sigma^z_i = +1``).  Site 0 is the least
  significant bit and the chain is periodic, site ``L`` being site 0.
* For ``L = 2`` the periodic bond sum counts the single physical bond twice
  (terms ``i=0->1`` and ``i=1->0``), which is the literal reading of the
  wrap-around sum.  Physics checks therefore prefer ``L >= 3``.
* Time is counted in drive periods T (hbar = 1): a drive is the Ising phase
  ``jt = J*T`` and the kick imperfection ``epsilon``, and T appears nowhere else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

#: Largest array a computation may allocate: 256 MiB, one complex state of 24 sites.
#: Every path checks the bytes of its largest array, estimated from L, against it.
MAX_ARRAY_BYTES = 16 << 24

#: Tolerance on the 2-norm of a state vector.
NORM_TOL = 1e-12
#: Largest ``max |U^H U - I|`` accepted as unitary.
UNITARITY_TOL = 1e-10


class CapacityError(ValueError):
    """A requested chain size needs an array larger than ``MAX_ARRAY_BYTES``."""


def _norm(amps: np.ndarray, scratch: np.ndarray | None = None) -> float:
    """2-norm by pairwise sums (np.linalg.norm is 2.1e-12 off on a kicked 20-site state).

    Blocks of 2**16 reals keep the temporary of squares small, so peak memory does not grow.
    A float64 ``scratch`` of at least ``min(65536, 2 * amps.size)`` floats takes each block's
    squares instead, and nothing is allocated.
    """
    x = amps.view(np.float64)

    def block(i: int) -> float:
        part = x[i:i + 65536]
        return np.sum(np.square(part, out=None if scratch is None else scratch[:part.size]))

    return math.sqrt(sum(map(block, range(0, x.size, 65536))))


def _require_sites(L: int) -> None:
    if not isinstance(L, (int, np.integer)):
        raise TypeError(f"site count must be an integer, got {L!r}")
    if L < 2:
        raise ValueError(f"a periodic chain needs at least 2 sites, got L={L}")


def _pow2(n: int) -> float:
    """2.0**n, saturating at 2.0**1023: an estimate past that overflows to inf, builds nothing."""
    return 2.0 ** min(n, 1023)


def _require_bytes(L: int, nbytes: float, what: str) -> None:
    """Raise CapacityError when ``what``, estimated at ``nbytes`` for L sites, exceeds the budget.

    The message rounds both sizes to MiB and then gives them in bytes, exact below 1e17, so a
    request just over the budget does not read as equal to it.
    """
    if nbytes > MAX_ARRAY_BYTES:
        raise CapacityError(f"L={L}: {what} needs {nbytes / 2**20:.6g} MiB, over the "
                            f"{MAX_ARRAY_BYTES >> 20} MiB array capacity "
                            f"({nbytes:.17g} > {MAX_ARRAY_BYTES} bytes)")


def _require_state(L: int) -> None:
    """Check L and one complex state of L sites, ``16 * 2**L`` bytes, against the budget."""
    _require_sites(L)
    _require_bytes(L, 16 * _pow2(L), "a state vector")


def _require_matrix(L: int, what: str) -> None:
    """Check a dense ``2**L x 2**L`` complex matrix, ``16 * 4**L`` bytes, against the budget."""
    _require_bytes(L, 16 * _pow2(2 * L), what)


def _require_unitary(matrix: np.ndarray, what: str) -> None:
    """Raise ValueError unless ``max |U^H U - I| <= UNITARITY_TOL``."""
    gram = matrix.conj().T @ matrix
    gram.flat[::matrix.shape[0] + 1] -= 1.0  # U^H U - I without a dense identity
    residual = np.max(np.abs(gram))
    if residual > UNITARITY_TOL:
        raise ValueError(f"{what} is not unitary: max |U^H U - I| = {residual:.3e}")


@dataclass(frozen=True)
class FloquetParams:
    """Parameters of one drive period: the Ising phase ``jt = J*T``, then a global kick.

    Time is counted in periods (hbar = 1), so the drive has two dimensionless
    knobs: the interaction phase ``jt`` and the kick imperfection ``epsilon``.
    The kick rotates every spin about x by ``pi/2 - epsilon``; ``epsilon = 0``
    is a perfect spin flip.
    """

    L: int
    jt: float
    epsilon: float

    def __post_init__(self) -> None:
        _require_sites(self.L)
        if not (math.isfinite(self.jt) and math.isfinite(self.epsilon)):
            raise ValueError("drive parameters must be finite, "
                             f"got jt={self.jt}, epsilon={self.epsilon}")

    @property
    def theta(self) -> float:
        """Kick rotation angle pi/2 - epsilon (radians, signed)."""
        return math.pi / 2 - self.epsilon

    @classmethod
    def from_dimensionless(cls, L: int, jt_over_pi: float, epsilon_over_pi: float) -> "FloquetParams":
        """Build params from JT and epsilon expressed in multiples of pi."""
        return cls(L=L, jt=math.pi * jt_over_pi, epsilon=math.pi * epsilon_over_pi)


@dataclass(frozen=True)
class StateVector:
    """A normalized vector of 2**L complex amplitudes over the spin basis."""

    L: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        _require_state(self.L)
        amps = np.ascontiguousarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != (1 << self.L,):
            raise ValueError(
                f"expected {1 << self.L} amplitudes for L={self.L}, got shape {amps.shape}"
            )
        nrm = _norm(amps)
        if abs(nrm - 1.0) > NORM_TOL:
            raise ValueError(f"state vector is not normalized: |norm - 1| = {abs(nrm - 1.0):.3e}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return 1 << self.L

    def norm(self) -> float:
        return _norm(self.amplitudes)


def polarized_state(L: int, direction: str = "up") -> StateVector:
    """All spins up (basis index 2**L - 1) or all spins down (index 0)."""
    _require_state(L)
    amps = np.zeros(1 << L, dtype=np.complex128)
    if direction == "up":
        amps[-1] = 1.0
    elif direction == "down":
        amps[0] = 1.0
    else:
        raise ValueError(f"direction must be 'up' or 'down', got {direction!r}")
    return StateVector(L, amps)


def product_state(L: int, orientations) -> StateVector:
    """Tensor product of single-site states given as Bloch angles.

    Each entry of ``orientations`` is ``(theta, phi)``; site ``i`` is prepared
    in ``cos(theta/2)|up> + exp(i*phi) sin(theta/2)|down>``.  ``theta = 0`` is
    spin up, ``theta = pi`` spin down.
    """
    _require_state(L)
    pairs = [(float(t), float(p)) for (t, p) in orientations]
    if len(pairs) != L:
        raise ValueError(f"need exactly {L} (theta, phi) pairs, got {len(pairs)}")
    vec = np.array([1.0 + 0.0j])
    for theta, phi in pairs:
        # Index 0 of a site block is spin down, index 1 spin up (bit convention).
        site = np.array([np.exp(1j * phi) * np.sin(theta / 2), np.cos(theta / 2)])
        vec = np.outer(site, vec).reshape(-1)  # site i above the lower sites
    vec /= _norm(vec)  # pairwise sums: the bits do not depend on the BLAS thread count
    return StateVector(L, vec)


def overlap(a: StateVector, b: StateVector) -> complex:
    """Inner product <a|b> (conjugate-linear in ``a``)."""
    if a.L != b.L:
        raise ValueError(f"state dimensions differ: L={a.L} vs L={b.L}")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def bond_sum(index: int, L: int) -> int:
    """Eigenvalue of the nearest-neighbour Ising sum on basis state ``index``.

    Returns sum_i s(i) s(i+1 mod L) with s = +1 for an up spin.  Aligned
    neighbours contribute +1, anti-aligned -1; the wrap-around bond is
    included, so for L=2 the one physical bond appears twice.
    """
    _require_sites(L)
    index = int(index)
    if index < 0 or index >> L:
        raise ValueError(f"basis index {index} out of range for L={L}")
    top = (index >> (L - 1)) & 1  # single bits: no integer of L bits is built for the wrap bond
    flipped = (index ^ (index >> 1)).bit_count() - top + (top ^ (index & 1))
    return L - 2 * flipped


@lru_cache(maxsize=1)
def _domain_walls(L: int) -> np.ndarray:
    """The domain walls (anti-aligned bonds) of every basis state, as ``2**L`` uint8 counts.

    One array is cached, read-only: the period loop looks up the Ising phases
    of every JT of a sweep at one L by these counts.

    They are counted by doubling over the sites: the walls of an open chain
    of m sites are copied for spin m down and up, and each copy counts the
    new bond where spin m-1 differs.  Then the wrap-around bond counts where
    spin L-1 differs from spin 0.
    """
    _require_state(L)
    walls = np.zeros(1 << L, dtype=np.uint8)
    for m in range(1, L):
        half = 1 << m
        walls[half:2 * half] = walls[:half]
        walls[half >> 1:half] += 1  # spin m down, spin m-1 up
        walls[half:half + (half >> 1)] += 1  # spin m up, spin m-1 down
    half = walls.size >> 1
    walls[1:half:2] += 1  # spin L-1 down, spin 0 up
    walls[half::2] += 1  # spin L-1 up, spin 0 down
    walls.setflags(write=False)
    return walls


def bond_sum_table(L: int) -> np.ndarray:
    """``bond_sum`` for every basis index, as an int64 array of length 2**L: L minus twice the walls."""
    return L - 2 * _domain_walls(L).astype(np.int64)
