"""Shared fixtures and an independent dense oracle for the drive.

The oracle builds the one-period propagator from explicit Pauli Kronecker
products and ``scipy.linalg.expm`` — no phase tables, no bit tricks — so the
structured engine and the oracle share no code paths beyond numpy itself.
Beside it, ``reflection_operator`` is the dense matrix of the time-reflection
check's spin flip.
"""

import csv
import functools
import io
import json
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse
from scipy.linalg import expm

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


def random_state(L: int, rng: np.random.Generator) -> np.ndarray:
    """Normalized complex vector over the 2**L basis."""
    amps = rng.normal(size=2**L) + 1j * rng.normal(size=2**L)
    return amps / np.linalg.norm(amps)


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
