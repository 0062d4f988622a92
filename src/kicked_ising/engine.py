"""One-period evolution of the kicked Ising chain.

A period consists of the global x kick ``K = prod_i exp(-i theta sigma^x_i)``
with ``theta = pi/2 - epsilon`` acting first, followed by the Ising phase
``D = diag(exp(-i (JT/4) * bond_sum))``.  The kick is the tensor power
``k^{(x)L}`` of one 2x2 rotation ``k = cos(theta) I - i sin(theta) sigma^x``.

The engine works in the frame ``S = diag(1, i)`` on every site, that is
``S = diag(i**popcount(b))``, where the kick is real: ``S k S^-1`` is the
rotation ``r = [[cos theta, -sin theta], [sin theta, cos theta]]``.  S is
diagonal, so it commutes with D, and it leaves every |amplitude|**2,
overlap and norm unchanged.  ``r^{(x)L}`` factorizes into a few real site
factors ``r^{(x)n}`` of at most four sites each (Van Loan, "The ubiquitous
Kronecker product", J. Comput. Appl. Math. 123, 85 (2000)).  Each factor is
one float64 matrix product over the real view of the complex state, whose
real and imaginary parts ride along as columns; that halves the
multiply-adds of a complex product for every factor but the lowest, which
is one product with ``kron(F^T, I_2)``.  That one has twice the
multiply-adds of the others, which is why the factors stop at four sites.
``_kick_products`` is the only code that knows the factors and their order.
A stack of states is just more leading rows, so one product per factor
serves any number of them.

There is one period loop, ``_periods``, on a stack of frame states.  It
alternates between the stack and one spare buffer (``np.matmul(..., out=)``)
and multiplies the phase in place, so a period allocates nothing, and the
stack it yields is overwritten by the next period; until then the other
buffer is idle.  ``evolve_stroboscopic`` and ``iter_return_probability``
move the start state into the frame once, and hold two states and half a
table while they run.  The frame start becomes the loop's stack, and the
overlap keeps only the start's non-zero amplitudes: one for the polarized
start, whose overlap is then one exact product, and a copy of them all for
a dense start.  The overlap's products, |amp|**2, the sz tree and the final
norm go into the idle buffer.  The phase table holds the lower half of the
basis: a global spin flip keeps every bond sum, so the upper half of a
state takes the same table reversed.
``_stacked_period`` is the loop's first period on spin-basis states, moved
into the frame and back within the one call.  ``floquet_step``,
``apply_global_x_rotation`` (the kick alone) and ``build_dense_propagator``
run it; the last steps the rows of the identity in batches, so the dense
matrix's columns are ``floquet_step`` of the basis states, bit for bit.  So
the frame, the factor layout and the phase table stay in this module.

A stack of at least ``_SPLIT_AMPS`` amplitudes (a lone state of 18 sites or
more) is split over threads when OpenBLAS runs more than one.  The loop then
owns the BLAS thread count: it holds OpenBLAS at one thread for as long as
it runs, and runs every product and the phase multiply as slices, one on
the calling thread and the rest on a pool, one slice per BLAS thread (one
half-table per slice at two).  ``evolve_stroboscopic`` runs |amp|**2 on
the same threads; its sz tree and the overlap are numpy sums on the calling
thread.  Slices sum in the same order as the whole, so the results do not
depend on the thread count.  The count comes from
``OPENBLAS_NUM_THREADS`` or from ``blas.set_threads`` (sweep pool workers
run one thread, so they never split).
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from . import blas
from .observables import _sz_profile
from .states import (FloquetParams, StateVector, _domain_walls, _norm, _require_bytes,
                     _require_matrix)
# perfbench/tracer.py wraps engine.bond_sum_table; its install fails without the name.
from .states import bond_sum_table  # noqa: F401


@dataclass(frozen=True)
class StroboscopicSeries:
    """Observables sampled once per period, n = 1 .. n_periods.

    ``return_probability[j]`` is measured against the initial state after
    period ``n[j]``; ``sz`` holds the per-site magnetizations row-wise.
    ``norm_drift`` is |norm - 1| of the final state; evolution never
    renormalizes, so drift is a fidelity diagnostic of the arithmetic.
    """

    params: FloquetParams
    n: np.ndarray
    return_probability: np.ndarray
    sz: np.ndarray
    norm_drift: float


@lru_cache(maxsize=1)
def _zz_phase_table(L: int, jt: float) -> np.ndarray:
    """``exp(-i (JT/4) bond_sum)`` over the lower half of the basis (spin L-1 down), read-only.

    One table is cached, as every reuse repeats the last (L, JT).  A global
    spin flip keeps every bond sum and maps index k to 2**L - 1 - k, so the
    upper half's phases are this table reversed (``_phase_calls``).  A bond
    sum is L minus twice the domain walls, so the L + 1 phases are computed
    once each and looked up by the uint8 wall counts.
    """
    table = np.exp(-0.25j * jt * (L - 2 * np.arange(L + 1)))[_domain_walls(L)]
    table.setflags(write=False)
    return table


def _phase_calls(amps: np.ndarray, out: np.ndarray, table: np.ndarray,
                 pieces: int = 1) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The ``np.multiply`` calls ``(a, phase, out)`` that put the Ising phase times every row
    of the stack ``amps`` (..., 2**L) into ``out``, which may be ``amps``.

    A row's lower half takes ``table`` (``_zz_phase_table``) and its upper
    half the mirror view ``table[::-1]``; each half is cut into ``pieces``
    calls.  The phases equal the whole table's, so the products are its
    products bit for bit; the state stays the first operand, as numpy's
    complex product may round otherwise with its operands swapped.
    """
    half = table.size
    calls = []
    for side, phases in enumerate((table, table[::-1])):
        a, o = (x.reshape(-1, 2, half)[:, side] for x in (amps, out))
        calls += zip(_cuts(a, pieces, -1), _cuts(phases, pieces), _cuts(o, pieces, -1))
    return calls


#: Largest number of sites in one Kronecker factor of the kick.
_FACTOR_MAX_SITES = 4


def _factor_sites(L: int) -> tuple[int, ...]:
    """Split L sites into the fewest near-equal factors of at most four, highest sites first.

    5 -> (3, 2), 8 -> (4, 4), 14 -> (4, 4, 3, 3), 20 -> (4, 4, 4, 4, 4).
    """
    count = -(-L // _FACTOR_MAX_SITES)
    size, larger = divmod(L, count)
    return (size + 1,) * larger + (size,) * (count - larger)


#: ``i**m`` for m = 0, 1, 2, 3.
_UNITS = np.array([1, 1j, -1, -1j])
#: Sites whose frame phases one table holds: all of a dense propagator's chain (L <= 12).
_FRAME_SITES = 12


@lru_cache(maxsize=None)
def _frame_table(sites: int, inverse: bool) -> np.ndarray:
    """The unit phases ``i**popcount(b)`` of ``sites`` sites (conjugated for S^-1), read-only.

    The set bits are counted in uint8 by doubling over the sites: setting bit m adds one.
    """
    counts = np.zeros(1 << sites, dtype=np.uint8)
    for m in range(sites):
        counts[1 << m:2 << m] = counts[:1 << m] + 1
    table = _UNITS[counts & 3]
    if inverse:
        table = table.conj()
    table.setflags(write=False)
    return table


def _frame(amps: np.ndarray, L: int, inverse: bool = False) -> None:
    """Multiply every row of the C-contiguous stack ``amps`` (..., 2**L) by S (or S^-1) in place.

    ``S = kron(S_high, S_low)`` over the low ``min(L, 12)`` sites and any
    above them.  One multiply by a table of their unit phases
    ``i**popcount(b)`` applies S_low, and on a longer chain a second one, by
    the table's head, S_high, so no table grows with the state (which stops
    at 24 sites).  The phases are +-1 and +-i, so the multiplies are exact.
    """
    low = min(L, _FRAME_SITES)
    table = _frame_table(low, inverse)
    rows = amps.reshape(-1, 1 << (L - low), 1 << low)
    rows *= table
    if L > low:
        rows *= table[:1 << (L - low), None]


@lru_cache(maxsize=128)
def _kick_factor(n: int, theta: float) -> np.ndarray:
    """``r^{(x)n}`` with ``r = [[cos theta, -sin theta], [sin theta, cos theta]]``, a real 2**n matrix.

    ``r = S k S^-1`` is the kick ``k = cos(theta) I - i sin(theta) sigma^x``
    of one site in the frame.  Each entry is the product of its site entries
    taken from site 0 upwards.
    """
    c = np.cos(theta)
    s = np.sin(theta)
    r = np.array([[c, -s], [s, c]])
    factor = r
    for _ in range(n - 1):
        factor = np.kron(r, factor)
    factor.setflags(write=False)
    return factor


@lru_cache(maxsize=128)
def _lowest_factor(n: int, theta: float) -> np.ndarray:
    """``kron(F^T, I_2)`` for ``F = r^{(x)n}``: F on the lowest n sites of a real view.

    A state's real view holds the real and imaginary part of an amplitude side
    by side, so one product on the right applies F to both.
    """
    factor = np.kron(_kick_factor(n, theta).T, np.eye(2))
    factor.setflags(write=False)
    return factor


#: Fewest amplitudes in a stack whose periods are cut into slices, one per BLAS thread.
#: On two cores a split evolve period took 23% longer at 2**16 amplitudes, 3-5% less at
#: 2**17 and 13-22% less at 2**18; dense builds step 2**17 at a time and stay unsplit.
_SPLIT_AMPS = 1 << 18


@contextlib.contextmanager
def _threads(size: int):
    """Yield ``(count, run)`` for a stack of ``size`` amplitudes.

    ``run(fn, calls)`` returns ``[fn(*args) for args in calls]``, and
    ``count`` is the number of slices a call is cut into.  Below
    ``_SPLIT_AMPS``, or with one BLAS thread, the count is 1 and the calls
    run in turn.  Otherwise the count is the BLAS thread count: OpenBLAS is
    held at one thread, the calling thread runs the first call, and a pool of
    the other threads the rest, until the context exits.
    """
    count = blas.threads() if size >= _SPLIT_AMPS else 1
    if count == 1:
        yield 1, lambda fn, calls: [fn(*args) for args in calls]
        return
    # Imported here, as only a split loop needs it: at start-up it costs every run 0.3 MB.
    from concurrent.futures import ThreadPoolExecutor

    with blas.one_thread(), ThreadPoolExecutor(count - 1) as pool:
        def run(fn, calls):
            futures = [pool.submit(fn, *args) for args in calls[1:]]
            return [fn(*calls[0]), *(future.result() for future in futures)]
        yield count, run


#: Widest column block of a factor's product.  At 20 sites the top factor's product took
#: 2.4-3.4 ms on one thread in blocks of 1024 columns against 4.5-4.8 ms whole.  The blocks
#: are powers of two: OpenBLAS sums a product's edge columns in another order unless their
#: count is a multiple of its kernel width (8 doubles for AVX-512 dgemm).
_CHUNK = 1024


def _cuts(array: np.ndarray, count: int, axis: int = 0) -> list[np.ndarray]:
    """``count`` near-equal views of ``array`` along ``axis``."""
    return np.array_split(array, count, axis) if count > 1 else [array]


def _kick_products(amps: np.ndarray, spare: np.ndarray, L: int, theta: float,
                   count: int) -> list[list[tuple[np.ndarray, np.ndarray, np.ndarray]]]:
    """The products that apply ``r^{(x)L}`` to every row of the stack ``amps`` (..., 2**L).

    One float64 matrix product per site factor, lowest sites first, over the
    real views of the two buffers, whose last axis carries real and imaginary
    parts (and the lower sites) along, and whose leading axis the higher
    sites and the rows.  Above the lowest factor the columns come in blocks
    of at most ``_CHUNK``, each its own matrix of a batch.  Each product is a
    list of ``count`` calls ``(a, b, out)`` for ``np.matmul(a, b, out)``, one
    per slice of the state: the rows of the lowest product's 2-D view, and
    the leading axis of the others' batch, or the blocks when the leading
    axis is shorter than ``count`` (a lone state's top factor).  A slice
    holds whole rows or whole matrices, so it sums as the whole does.  The
    products write alternately into ``spare`` and ``amps``: the result lands
    in ``amps`` after an even number of factors, else in ``spare``.
    """
    buffers = (amps.view(np.float64), spare.view(np.float64))
    products = []
    low = 0
    for step, n in enumerate(reversed(_factor_sites(L))):
        src, dst = buffers[step % 2], buffers[1 - step % 2]
        if low == 0:
            shape = (-1, 2 << n)
            factor = _lowest_factor(n, theta)
            slices = zip(_cuts(src.reshape(shape), count), _cuts(dst.reshape(shape), count))
            products.append([(a, factor, out) for a, out in slices])
        else:
            # The factor's sites are the third axis; the lower sites ride along in the last,
            # in chunks of at most _CHUNK columns.
            width = min(2 << low, _CHUNK)
            shape = (-1, 1 << n, (2 << low) // width, width)
            src, dst = (x.reshape(shape).transpose(0, 2, 1, 3) for x in (src, dst))
            axis = 0 if len(src) >= count else 1
            factor = _kick_factor(n, theta)
            slices = zip(_cuts(src, count, axis), _cuts(dst, count, axis))
            products.append([(factor, b, out) for b, out in slices])
        low += n
    return products


def _periods(amps: np.ndarray, L: int, theta: float, jt: Optional[float] = None, threads=None,
             spare: Optional[np.ndarray] = None):
    """Yield the C-contiguous stack ``amps`` (..., 2**L) of frame states after each period, indefinitely.

    The one period loop: the real kick ``r^{(x)L}``, then the Ising phase of
    ``jt`` (the kick alone when ``jt`` is None), on every row.  It alternates
    between ``amps`` and a spare buffer of its shape (``spare``, else one of
    its own), so every yielded array is overwritten by the next period: a
    caller keeps what it copies, and ``_frame(..., inverse=True)`` maps that
    back to the spin basis.  Between a yield and the next period the buffer
    not yielded is idle: a caller that passed ``spare`` may use it as
    scratch.

    Every product and the phase multiply run as the slices of ``threads``,
    the ``(count, run)`` of a caller's ``_threads`` context, which then
    serves the caller between periods too.  Without it the loop holds a
    context of its own until it is closed.  The states do not depend on the
    count (see ``_kick_products``).  The phase multiply cuts each half-table
    into half the count, rounded up: at two slices one half each.
    """
    if threads is None:
        with _threads(amps.size) as threads:
            yield from _periods(amps, L, theta, jt, threads, spare)
        return
    count, run = threads
    buffers = (amps, np.empty_like(amps) if spare is None else spare)
    table = None if jt is None else _zz_phase_table(L, jt)

    def plan(start: int) -> list:
        """The ``(fn, args)`` calls of a period that starts in ``buffers[start]``."""
        products = _kick_products(buffers[start], buffers[1 - start], L, theta, count)
        steps = [(np.matmul, calls) for calls in products]
        if table is not None:
            end = buffers[(start + len(products)) % 2]
            steps.append((np.multiply, _phase_calls(end, end, table, -(-count // 2))))
        # One slice is called directly, as ``run`` would in turn.
        if count == 1:
            return [(fn, args) for fn, calls in steps for args in calls]
        return [(run, step) for step in steps]

    flips = len(_factor_sites(L)) % 2
    # Built once; the second plan serves only when a period ends in the spare.
    plans = (plan(0), plan(1) if flips else None)
    current = 0
    while True:
        for fn, args in plans[current]:
            fn(*args)
        current ^= flips
        yield buffers[current]


def _weights(amps: np.ndarray, out: np.ndarray) -> None:
    """``|amps|**2`` into ``out``."""
    np.abs(amps, out=out)
    np.square(out, out=out)


def _stacked_period(states: np.ndarray, L: int, theta: float,
                    jt: Optional[float] = None) -> np.ndarray:
    """One period on every row of the C-contiguous stack ``states`` (..., 2**L) of spin-basis states.

    The frame S, the first period of ``_periods`` (the kick alone when
    ``jt`` is None), then S^-1.  ``states`` is overwritten; the result is it
    or a new array of its shape.
    """
    _frame(states, L)
    stepped = next(_periods(states, L, theta, jt))
    _frame(stepped, L, inverse=True)
    return stepped


def _start(initial: StateVector) -> tuple[np.ndarray, tuple]:
    """``S initial`` as a new array, the loop's stack, and what the overlap keeps of it.

    That is ``(support, conj)``: the indices of its non-zero amplitudes (a
    slice when all are) and their conjugates.  From a basis state, such as
    the polarized start, both hold one entry.
    """
    stack = _in_frame(initial.amplitudes, initial.L)
    support = np.flatnonzero(stack)
    if support.size == stack.size:
        support = slice(None)
    return stack, (support, stack[support].conj())


def _overlap(start: tuple, amps: np.ndarray, idle: np.ndarray) -> complex:
    """``<start|amps>`` for a ``start`` from ``_start``, using the idle buffer ``idle`` as scratch.

    The products go into ``idle`` and numpy sums them pairwise, so the bits
    do not depend on the BLAS thread count.  From a basis state it is one
    exact product.
    """
    support, conj = start
    products = idle[:conj.size]
    np.multiply(conj, amps[support], out=products)
    return products.sum()


def _in_frame(amps: np.ndarray, L: int) -> np.ndarray:
    """``S amps`` as a new array."""
    moved = np.array(amps, dtype=np.complex128)
    _frame(moved, L)
    return moved


def _require_same_sites(state: StateVector, params: FloquetParams) -> None:
    if state.L != params.L:
        raise ValueError(f"state has L={state.L} but params have L={params.L}")


def apply_global_x_rotation(state: StateVector, theta: float) -> StateVector:
    """Rotate every spin about x by ``theta``: cos(theta) I - i sin(theta) sigma^x per site."""
    return StateVector(state.L, _stacked_period(state.amplitudes.copy(), state.L, float(theta)))


def apply_zz_phase(state: StateVector, params: FloquetParams) -> StateVector:
    """Multiply each basis amplitude by exp(-i (JT/4) bond_sum(index))."""
    _require_same_sites(state, params)
    phased = np.empty_like(state.amplitudes)
    for args in _phase_calls(state.amplitudes, phased, _zz_phase_table(params.L, params.jt)):
        np.multiply(*args)
    return StateVector(state.L, phased)


def floquet_step(state: StateVector, params: FloquetParams) -> StateVector:
    """Advance one drive period: kick first, then the Ising phase."""
    _require_same_sites(state, params)
    stepped = _stacked_period(state.amplitudes.copy(), state.L, params.theta, params.jt)
    return StateVector(state.L, stepped)


#: Amplitudes stepped together while the dense propagator is built: ``max(1, _BATCH >> L)``
#: rows of the identity.
_BATCH = 1 << 17


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


def build_dense_propagator(params: FloquetParams) -> DensePropagator:
    """Materialize the one-period propagator D*K as an explicit matrix.

    The rows of the identity are stepped one period, ``max(1, _BATCH >> L)``
    at a time as one stack (``_stacked_period``), and each batch's transpose
    fills as many columns, bit for bit those of ``floquet_step``.
    """
    L = params.L
    _require_matrix(L, "a dense propagator")
    dim = 1 << L
    batch = max(1, _BATCH >> L)
    U = np.empty((dim, dim), dtype=np.complex128)
    for start in range(0, dim, batch):
        rows = np.eye(min(batch, dim - start), dim, start, dtype=np.complex128)
        U[:, start:start + batch] = _stacked_period(rows, L, params.theta, params.jt).T
    return DensePropagator(L, U)


def evolve_stroboscopic(initial: StateVector, params: FloquetParams,
                        n_periods: int) -> StroboscopicSeries:
    """Iterate the one-period propagator, sampling P(nT) and every site's sz after each period.

    The state is never renormalized; the accumulated norm drift is reported on
    the result and stays far below 1e-9 over 1e5 periods in practice.
    """
    _require_same_sites(initial, params)
    if n_periods < 1:
        raise ValueError(f"n_periods must be >= 1, got {n_periods}")
    L = params.L
    _require_bytes(L, 8 * L * n_periods, f"the sz series of {n_periods} periods")
    stack, start = _start(initial)
    _zz_phase_table(L, params.jt)  # its temporaries come and go beside one state
    spare = np.empty_like(stack)
    p_out = np.empty(n_periods)
    sz_out = np.empty((n_periods, L))
    with _threads(stack.size) as threads:
        count, run = threads
        loop = _periods(stack, L, params.theta, params.jt, threads, spare)
        for j, amps in zip(range(n_periods), loop):
            idle = spare if amps is stack else stack
            p_out[j] = abs(_overlap(start, amps, idle)) ** 2
            weights = idle.view(np.float64)[:amps.size]
            run(_weights, list(zip(_cuts(amps, count), _cuts(weights, count))))
            sz_out[j] = _sz_profile(weights, L)

    drift = abs(_norm(amps, idle.view(np.float64)) - 1.0)
    return StroboscopicSeries(
        params=params,
        n=np.arange(1, n_periods + 1),
        return_probability=p_out,
        sz=sz_out,
        norm_drift=drift,
    )


def iter_return_probability(initial: StateVector, params: FloquetParams):
    """Yield P(nT) against ``initial`` after each period, indefinitely.

    A lazy single-pass form of ``evolve_stroboscopic`` without the sz:
    nothing is stored, the caller bounds the horizon.  No sweep runs it
    (their streams are the closed form of
    ``sectors.sector_return_probability``); it is the iterative reference of
    the stream tests, and the name perfbench's tracer wraps.
    """
    _require_same_sites(initial, params)
    stack, start = _start(initial)
    spare = np.empty_like(stack)
    for amps in _periods(stack, params.L, params.theta, params.jt, spare=spare):
        yield float(abs(_overlap(start, amps, spare if amps is stack else stack)) ** 2)
