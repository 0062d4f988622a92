"""Shared fixtures and independent oracles for the drive.

The dense oracle builds the one-period propagator from explicit Pauli
Kronecker products and ``scipy.linalg.expm`` — no phase tables, no bit
tricks — so the structured engine and the oracle share no code paths beyond
numpy itself.  Beside it, ``reflection_operator`` is the dense matrix of the
time-reflection check's spin flip, and ``momentum_blocks`` cuts a matrix
that commutes with translation and the global spin flip into the blocks of
both, from the columns of the orbit representatives alone.
``schur_spectrum`` gives eigenvectors, which the package does not: the
complex Schur vectors of the package's dense propagator, orthonormal even
inside degenerate clusters.

The transfer-matrix oracle reaches any L.  Swapping the roles of space and
time, a trace of the kicked ring factorizes along the ring into one small
matrix per site, over that site's spin history (Akila, Waltner, Gutkin &
Guhr, J. Phys. A 49, 375101 (2016); Bertini, Kos & Prosen, PRL 121, 264101
(2018)): ``Tr U**m = Tr T_m**L`` (``transfer_trace``), and the all-up return
amplitude is the trace over histories pinned up at both ends
(``transfer_return_amplitude``).
"""

import csv
import functools
import io
import json
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from scipy.linalg import expm

from kicked_ising import EXACT_PAIR_TOL, build_dense_propagator, fold_to_branch
from kicked_ising.states import _norm

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
ID2 = np.eye(2, dtype=complex)


def site_operator(op: np.ndarray, site: int, L: int) -> np.ndarray:
    """Embed a single-site operator at ``site`` (bit ``site`` of the index)."""
    out = np.array([[1.0 + 0.0j]])
    for j in range(L - 1, -1, -1):
        out = np.kron(out, op if j == site else ID2)
    return out


def oracle_propagator(L: int, jt: float, epsilon: float) -> np.ndarray:
    """exp(-i JT/4 sum_i Z_i Z_{i+1}) @ exp(-i (pi/2 - eps) sum_i X_i).

    The bond sum runs over i = 0..L-1 with periodic wrap, so for L = 2 the
    single physical bond enters twice — same convention as the package.
    """
    theta = np.pi / 2.0 - epsilon
    kick_generator = sum(site_operator(SX, i, L) for i in range(L))
    ising_generator = sum(
        site_operator(SZ, i, L) @ site_operator(SZ, (i + 1) % L, L) for i in range(L)
    )
    kick = expm(-1j * theta * kick_generator)
    ising = expm(-0.25j * jt * ising_generator)
    return ising @ kick


def oracle_kick(L: int, theta: float, states: np.ndarray) -> np.ndarray:
    """exp(-i theta sum_i X_i) applied to the columns of ``states`` (2**L rows).

    The X_i commute, so the kick is the product of the single-site
    exponentials ``expm(-i theta X)``, each embedded at its site by sparse
    Kronecker products with identities; no dense 2**L x 2**L matrix is formed.
    """
    site_kick = expm(-1j * theta * SX)
    out = np.asarray(states, dtype=complex)
    for site in range(L):
        embedded = scipy.sparse.kron(
            scipy.sparse.identity(1 << (L - 1 - site)),
            scipy.sparse.kron(site_kick, scipy.sparse.identity(1 << site)),
            format="csr",
        )
        out = embedded @ out
    return out


def _histories(steps: int) -> np.ndarray:
    """Every spin history of one site over ``steps`` times, one row each: +1 up, -1 down."""
    return 1 - 2 * ((np.arange(1 << steps)[:, None] >> np.arange(steps)) & 1)


def _kick_weights(histories: np.ndarray, theta: float) -> np.ndarray:
    """Product of the kick entries along each row, times in order: ``cos theta`` where the
    spin stays, ``-i sin theta`` where it flips."""
    flips = np.count_nonzero(histories[:, 1:] != histories[:, :-1], axis=1)
    steps = histories.shape[1] - 1
    return np.cos(theta) ** (steps - flips) * (-1j * np.sin(theta)) ** flips


def transfer_trace(L: int, jt: float, epsilon: float, m: int) -> complex:
    """Tr U**m of the L-site ring as Tr T**L over one site's history ``s = (s^1 .. s^m)``.

    ``T[s, s'] = w(s) exp(-i (JT/4) s.s')``: ``w(s)`` takes the kick entries
    ``k[s^t, s^(t+1)]`` cyclically in t, and ``s.s'`` sums one bond's Ising
    products over the m periods.  T has 2**m rows at any L; at L = 2 the
    trace takes the one physical bond twice, as the package does.
    """
    s = _histories(m)
    weights = _kick_weights(np.hstack([s, s[:, :1]]), np.pi / 2 - epsilon)
    T = weights[:, None] * np.exp(-0.25j * jt * (s @ s.T))
    return complex(np.trace(np.linalg.matrix_power(T, L)))


def transfer_return_amplitude(L: int, jt: float, epsilon: float, n: int) -> complex:
    """<up|U**n|up> as Tr T**L over the histories pinned up at times 0 and n.

    The free spins are those of times 1 .. n-1, so T has 2**(n-1) rows; the
    Ising phase of time n, both spins up, adds 1 to every ``s.s'``.
    """
    s = _histories(n - 1)
    up = np.ones((s.shape[0], 1), dtype=s.dtype)
    weights = _kick_weights(np.hstack([up, s, up]), np.pi / 2 - epsilon)
    T = weights[:, None] * np.exp(-0.25j * jt * (s @ s.T + 1))
    return complex(np.trace(np.linalg.matrix_power(T, L)))


def _images(L: int) -> np.ndarray:
    """``images[f, j, s] = T**j F**f s``: T rotates the bits of a basis state by one, and the
    global spin flip F (the product of every sigma^x) inverts them all."""
    dim = 1 << L
    rotations = [np.arange(dim)]
    for _ in range(L - 1):
        s = rotations[-1]
        rotations.append(((s << 1) | (s >> (L - 1))) & (dim - 1))
    rotations = np.stack(rotations)
    return np.stack([rotations, rotations ^ (dim - 1)])


def orbit_representatives(L: int) -> np.ndarray:
    """The smallest member of every orbit of the basis states under T and F, ascending."""
    return np.flatnonzero(_images(L).min(axis=(0, 1)) == np.arange(1 << L))


def momentum_blocks(columns: np.ndarray, L: int) -> list[np.ndarray]:
    """The translation-momentum blocks of a ``2**L x 2**L`` matrix U that commutes with T and
    F, each split by F, from ``columns = U[:, orbit_representatives(L)]`` alone.

    T and F generate a group G of 2 L elements ``g = T**j F**f`` with the characters
    ``chi(g) = exp(2 pi i q j / L) sigma**f``, q = 0 .. L-1 and sigma = +1, -1 (index 0, 1).
    An orbit with smallest member r and n_r members spans one state of character chi if chi
    is 1 on the stabilizer of r, and
    ``<r', chi|U|r, chi> = sqrt(n_r n_r') / (2 L) sum_g chi(g) U[g r', r]``.
    The nonempty blocks of the 2 L characters together have 2**L rows.
    """
    images = _images(L)
    reps = orbit_representatives(L)
    waves = np.exp(2j * np.pi * np.outer(np.arange(L), np.arange(L)) / L)
    chi = waves[:, None, None, :] * np.array([[1, 1], [1, -1]])[None, :, :, None]  # [q, sigma, f, j]
    fixed = images[:, :, reps] == reps  # fixed[f, j, r]: g leaves r where it is
    on_stabilizer = np.abs(np.tensordot(chi, fixed, axes=2)) > 0.5  # [q, sigma, r]
    size = 2 * L / fixed.sum(axis=(0, 1))
    summed = np.tensordot(chi, columns[images[:, :, reps], :], axes=2)  # [q, sigma, r', r]
    summed *= np.sqrt(np.outer(size, size)) / (2 * L)
    blocks = []
    for q, sigma in np.ndindex(L, 2):
        kept = on_stabilizer[q, sigma]
        if kept.any():
            blocks.append(summed[q, sigma][np.ix_(kept, kept)])
    return blocks


def reflection_operator(L: int) -> np.ndarray:
    """Matrix of (prod_i sigma^x_i) (prod_j sigma^z_j) in the spin basis.

    Flips every spin and attaches the sign (-1)^(number of up spins) of the
    source state (for one site: [[0, -1], [1, 0]]); R is unitary with
    R^2 = (-1)^L I.  A global sign never matters where R is used twice, as in
    the time-reflection identity ``R conj(U) R^T = i^L U``.
    """
    if not isinstance(L, (int, np.integer)) or L < 1:
        raise ValueError(f"need at least one site, got L={L!r}")
    dim = 1 << L
    cols = np.arange(dim)
    R = np.zeros((dim, dim))
    R[cols ^ (dim - 1), cols] = functools.reduce(np.kron, [np.array([1.0, -1.0])] * L, np.ones(1))
    return R


def schur_spectrum(params) -> tuple[np.ndarray, np.ndarray]:
    """Aligned quasi-energies and eigenvector columns of the dense propagator, from its complex
    Schur decomposition, sorted by aligned level, ties by raw level, then by Schur order."""
    triangular, vectors = scipy.linalg.schur(build_dense_propagator(params).matrix, output="complex")
    raw = fold_to_branch(-np.angle(np.diag(triangular)))
    aligned = fold_to_branch(raw - 0.25 * params.jt * params.L)
    order = np.lexsort((raw, aligned))
    return aligned[order], vectors[:, order]


def paired_superposition(vectors: np.ndarray, zero_index: int, pi_index: int,
                         sign: int = 1) -> np.ndarray:
    """Normalized sum (sign +1) or difference (-1) of two eigenvector columns."""
    combo = vectors[:, zero_index] + sign * vectors[:, pi_index]
    return combo / np.linalg.norm(combo)


def pair_manifold_weight(amplitudes: np.ndarray, energies: np.ndarray, vectors: np.ndarray) -> float:
    """Squared projection onto the eigenvectors whose levels lie within EXACT_PAIR_TOL of 0 or pi."""
    on_anchor = np.minimum(np.abs(fold_to_branch(energies)),
                           np.abs(fold_to_branch(energies - np.pi))) <= EXACT_PAIR_TOL
    return float(np.sum(np.abs(vectors[:, on_anchor].conj().T @ amplitudes) ** 2))


def random_state(L: int, rng: np.random.Generator) -> np.ndarray:
    """Normalized complex vector over the 2**L basis; the pairwise-sum norm keeps its bits off
    the BLAS thread count."""
    amps = rng.normal(size=2**L) + 1j * rng.normal(size=2**L)
    return amps / _norm(amps)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260816)


def read_result_csv(path):
    """Parse a sweep output file into (header dict or None, list of row dicts)."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    header = None
    if lines and lines[0].startswith("# "):
        header = json.loads(lines[0][2:])
        lines = lines[1:]
    rows = list(csv.DictReader(io.StringIO("\n".join(lines))))
    return header, rows


def file_without_provenance(path) -> str:
    """File content with the provenance object removed, for determinism diffs."""
    lines = Path(path).read_text(encoding="utf-8").splitlines(keepends=True)
    if lines and lines[0].startswith("# "):
        head = json.loads(lines[0][2:])
        head.pop("provenance", None)
        lines[0] = "# " + json.dumps(head, sort_keys=True) + "\n"
    return "".join(lines)
