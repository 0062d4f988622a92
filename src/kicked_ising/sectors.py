"""The two parity sectors: the all-up return amplitude and the levels in closed form.

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

O(L) numbers at any L, and no 2**L array.  The same modes give all 2**L
levels of one period (``free_fermion_levels``) as sums of mode phases.
"""

from __future__ import annotations

import itertools

import numpy as np

from .states import FloquetParams, _pow2, _require_bytes

#: Periods evaluated per chunk in ``sector_return_probability`` (the columns of
#: its phase table, a power of two).
_CHUNK = 512
#: Rows of that table rotated at once.
_ROWS = 256


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


def _require_levels(L: int) -> None:
    """Check the ``2**L`` float eigenphases of ``free_fermion_levels``, ``8 * 2**L`` bytes."""
    _require_bytes(L, 8 * _pow2(L), "the quasi-energy levels")


def free_fermion_levels(params: FloquetParams) -> np.ndarray:
    """The 2**L eigenphases ``phi`` of one period, ``U |phi> = exp(i phi) |phi>``: NS's, then R's.

    A sector's modes are ``k = pi m / L``, m odd (NS) or even (R), 0 <= m <= L;
    with all of them empty its phase is ``-theta L``.  A pair (k, -k) adds
    ``beta_k -+ eps_k`` and keeps the fermion parity, or adds ``beta_k`` with
    one of its modes filled and flips it: ``beta_k - eps_k`` plus 0, ``eps_k``
    twice or ``2 eps_k``.  An unpaired mode (k = 0 or pi) adds 0, or ``beta_k``
    and flips it.  NS keeps the states of even parity, R those of odd.  So the
    levels are subset sums of L mode phases, built up in place mode by mode:
    one parity in the sector's half of the result, the other in a scratch half.
    """
    L, jt, theta = params.L, params.jt, params.theta
    _require_levels(L)
    half = 1 << (L - 1)
    levels, scratch = np.empty(2 * half), np.empty(half)
    for parity, (_, eps, _) in enumerate(_parity_sectors(params)):
        m = np.arange(1 - parity, L + 1, 2)
        paired = (m > 0) & (m < L)
        beta = 2 * theta - jt / 2 * np.cos(np.pi * m / L)
        modes = np.concatenate((np.repeat(eps, 2), beta[~paired]))
        even, odd = (levels[:half], scratch) if parity == 0 else (scratch, levels[half:])
        even[0] = np.sum(beta[paired] - eps) - theta * L
        odd[0] = even[0] + modes[0]
        for n, phase in zip(2 ** np.arange(L - 1), modes[1:]):
            np.add(odd[:n], phase, out=even[n:2 * n])
            np.add(even[:n], phase, out=odd[n:2 * n])
    return levels


def _require_stream(L: int) -> None:
    """Check the phase table of ``sector_return_probability``, L + 1 rows of ``_CHUNK``."""
    _require_bytes(L, 16 * _CHUNK * (L + 1), "the phase table")


def sector_return_probability(params: FloquetParams):
    """Yield P(nT) of the all-up start for n = 1, 2, ..., indefinitely.

    Nothing is computed before the first sample is requested.  Each chunk of
    ``_CHUNK`` periods from ``n0`` on multiplies the fixed table
    ``exp(i j phi)``, one row per phase (the two ``gamma_s``, then every
    ``eps_k``), by ``exp(i n0 phi)``, and then multiplies the factors of each
    sector in row order, ``_ROWS`` rows at a time, so no rotated copy of the
    whole table is held; no powers are accumulated, so the error does not
    compound from chunk to chunk.  The table is doubled up in place from
    ``exp(i 2**b phi)``: each entry is a product of at most log2(_CHUNK)
    exponentials of exactly scaled phases, which is both cheaper and closer
    than rounding ``j * phi`` before ``exp``.
    """
    _require_stream(params.L)
    (gamma_ns, eps_ns, tilt_ns), (gamma_r, eps_r, tilt_r) = _parity_sectors(params)
    phases = np.concatenate(([gamma_ns, gamma_r], eps_ns, eps_r))
    minus_tilt = -np.concatenate(([0.0, 0.0], tilt_ns, tilt_r))[:, None]  # by table row
    split = 2 + eps_ns.size
    table = np.empty((phases.size, _CHUNK), dtype=np.complex128)
    table[:, 0] = 1.0
    filled = 1
    while filled < _CHUNK:
        np.multiply(table[:, :filled], np.exp(1j * filled * phases)[:, None],
                    out=table[:, filled:2 * filled])
        filled *= 2
    block = np.empty((_ROWS + 1, _CHUNK), dtype=np.complex128)

    def pair_product(first: int, stop: int, start: np.ndarray) -> np.ndarray:
        """Product of rows ``first .. stop-1`` of ``table * start``, each row
        ``cos(n eps_k) - i t_k sin(n eps_k)``; row 0 of ``block`` carries it."""
        block[0] = 1.0
        for lo in range(first, stop, _ROWS):
            hi = min(lo + _ROWS, stop)
            rows = block[1:1 + hi - lo]
            np.multiply(table[lo:hi], start[lo:hi, None], out=rows)
            rows.imag *= minus_tilt[lo:hi]
            block[0] = block[:1 + hi - lo].prod(axis=0)
        return block[0]

    for n0 in itertools.count(1, _CHUNK):
        start = np.exp(1j * n0 * phases)
        amplitude = (table[0] * start[0] * pair_product(2, split, start)
                     + table[1] * start[1] * pair_product(split, phases.size, start))
        yield from (np.abs(amplitude / 2) ** 2).tolist()
