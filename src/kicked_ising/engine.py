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
``_split_factors`` and ``_period_passes`` are the only code that knows the
factors and their order.  A stack of states is just more leading rows, so
one product per factor serves any number of them.

There is one period loop, ``_periods``, on a stack of frame states, which
it steps in place in two cache-blocked passes (Haner and Steiger, "0.5
Petabyte Simulation of a 45-Qubit Quantum Circuit", SC17, arXiv:1704.01127).
Pass 1 runs each contiguous chunk of the stack through the factors of the
low sites, at most 12 of them; pass 2 runs each block of the low index's
columns, across all the high indices, through the factors of the high
sites, and multiplies it by its Ising phases.  Both go through two scratch
buffers per slice, each a 32nd of a large stack, and the stack the loop
yields is overwritten by the next period.  The chunks and blocks follow L
and the stack's size alone (``_blocks``), never the slice count.  The
phases are looked up by the uint8 wall counts of the basis
(``states._domain_walls``, ``2**L`` bytes for every JT at one L), once per
loop on a chain of at most 12 sites and once per block and period above.
``evolve_stroboscopic`` and ``iter_return_probability`` move the start
state into the frame once, and the frame start becomes the loop's stack.
The overlap keeps only the start's non-zero amplitudes and a buffer for
their products: one for the polarized start, whose overlap is then one
exact product, and copies of them all for a dense start.  For
``evolve_stroboscopic`` each block of pass 2 then writes its |amp|**2 into
the scratch that held its phases and sums it by the low index and by the
high index, two arrays of a few rows, whose marginal trees give every
site's sz; up to 12 sites pass 1 squares the whole state instead.  So the
state is read once a period, and the final state is squared in place for
its norm.
``_stacked_period`` is the loop's first period on spin-basis states, moved
into the frame and back within the one call.  ``floquet_step``,
``apply_global_x_rotation`` (the kick alone) and ``build_dense_propagator``
run it; the last steps the rows of the identity in batches, so the dense
matrix's columns are ``floquet_step`` of the basis states, bit for bit.  So
the frame, the factor layout and the phase lookup stay in this module.

A stack of at least ``_SPLIT_AMPS`` amplitudes (a lone state of 18 sites or
more) is split over threads when OpenBLAS runs more than one.  The loop then
owns the BLAS thread count: it holds OpenBLAS at one thread for as long as
it runs, and runs each pass as slices of its chunks or blocks, one on the
calling thread and the rest on a pool, one slice per BLAS thread.
The blocks' |amp|**2 and sums run on the same threads, and the sz trees and
the overlap are numpy sums on the calling thread.  Every chunk and block
sums as the whole stack would, and the blocks do not follow the count, so
no result depends on the thread count.  The count comes from
``OPENBLAS_NUM_THREADS`` or from ``blas.set_threads`` (sweep pool workers
are forked inside ``blas.one_thread``, so they never split).
"""

from __future__ import annotations

import contextlib
import itertools
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


def _zz_phases(L: int, jt: float) -> np.ndarray:
    """The L + 1 Ising phases ``exp(-i (JT/4) (L - 2 w))`` of the wall counts w = 0 .. L.

    A bond sum is L minus twice the domain walls, so a basis state's phase is
    this array at its wall count (``states._domain_walls``).
    """
    return np.exp(-0.25j * jt * (L - 2 * np.arange(L + 1)))


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


#: Most sites of the factors that pass 1 applies to a chunk of the stack; a chunk holds
#: whole multiples of their 2**12 amplitudes, and the whole chain of a dense propagator.
_LOW_SITES = 12
#: Most amplitudes in a chunk: with its two scratch buffers 1.5 MiB, within a core's L2.
#: A stack of at most this many is one chunk (and one block).
_CHUNK = 1 << 15
#: Share of a larger stack that the scratch buffers of two slices hold together, two per
#: slice, whatever the slice count: at 20 sites, chunks of 2**15 amplitudes (pass 1) and
#: blocks of 256 real columns (pass 2).  A block's width is a power of two, at least 8:
#: OpenBLAS sums a product's edge columns in another order unless their count is a multiple
#: of its kernel width (8 doubles for AVX-512 dgemm).
_SCRATCH = 1 / 8


def _split_factors(L: int) -> tuple[list[int], list[int]]:
    """The site counts of the kick's factors, lowest sites first, as (low, high).

    The low factors are the longest run that fits in ``_LOW_SITES`` sites:
    every factor of a chain of at most 12 sites.
    """
    factors = _factor_sites(L)[::-1]
    low = sum(1 for sites in itertools.accumulate(factors) if sites <= _LOW_SITES)
    return list(factors[:low]), list(factors[low:])


def _blocks(L: int, size: int) -> tuple[int, int, int]:
    """``(sites, chunk, width)`` of the loop on a stack of ``size`` amplitudes: the low sites
    of pass 1, the amplitudes of its chunks, and the real columns of a block of pass 2.

    They follow from L and the stack's size alone, never from the slice count, so the
    blocks' sums of |amp|**2, and the sz that ``evolve_stroboscopic`` takes from them, are
    the same bits under any thread count.  A scratch buffer holds a 32nd of a stack larger
    than ``_CHUNK`` (``_SCRATCH`` over two slices), or the whole of a smaller one.
    """
    sites = sum(_split_factors(L)[0])
    unit = 1 << sites
    share = int(size * _SCRATCH) // 4 if size > _CHUNK else size
    chunk = unit * max(1, min(share, _CHUNK) // unit)
    width = 1 << max(3, min(sites + 1, (2 * max(chunk, share) >> (L - sites)).bit_length() - 1))
    return sites, chunk, width


def _product(src: np.ndarray, dst: np.ndarray, n: int, columns: int, theta: float) -> tuple:
    """The call ``(np.matmul, args)`` that applies ``r^{(x)n}`` to the real view ``src`` into ``dst``.

    ``columns`` is the number of real columns that ride along with each row
    of the factor: the real and imaginary parts and the sites below it.  The
    lowest factor (``columns`` 2) is one product on the right with
    ``kron(F^T, I_2)``; any other is a batch of products on the left, one
    matrix of ``columns`` columns per value of the sites above it.
    """
    if columns == 2:
        shape = (-1, 2 << n)
        return np.matmul, (src.reshape(shape), _lowest_factor(n, theta), dst.reshape(shape))
    shape = (-1, 1 << n, columns)
    return np.matmul, (_kick_factor(n, theta), src.reshape(shape), dst.reshape(shape))


def _period_passes(amps: np.ndarray, L: int, theta: float, jt: Optional[float], count: int,
                   sums: Optional[tuple[np.ndarray, np.ndarray]] = None
                   ) -> list[list[list[tuple]]]:
    """The calls of one period on the stack ``amps`` (..., 2**L), in place: a list of passes,
    each a list of up to ``count`` slices, each a list of ``(fn, args)`` to call in turn.

    Pass 1 runs each contiguous chunk of at least ``2**Lb`` amplitudes
    through every low factor (sites 0 .. Lb-1, ``_split_factors``), through
    the slice's two scratch buffers, and the last product writes back into
    the chunk.  When the low factors are the whole kick (L <= 12) the chunks
    hold whole rows, and pass 1 multiplies them by their phases instead,
    one table looked up here by the wall counts.  Pass 2 takes a block of
    the low index's real columns across all ``2**(L-Lb)`` high indices
    through the high factors in scratch, then multiplies it by its phases,
    looked up by the block's wall counts, and writes it back.  The state
    stays the first operand of the phase product: numpy's complex product
    may round otherwise with its operands swapped.

    With ``sums``, the arrays ``(low, high)`` for a lone state, each block
    then writes its |amp|**2 into the scratch that held its phases, its
    column sums into ``low`` (``2**Lb``, by the low index) and its row sums
    into row c of ``high`` (blocks x ``2**(L-Lb)``, by the high index);
    on a chain of at most 12 sites pass 1 writes the |amp|**2 of the whole
    state into ``low`` and leaves ``high`` alone.

    Each chunk and block is a whole matrix of every product's batch, whose
    column count is a power of two, so it sums as it would in a whole-stack
    product, on whichever slice it runs: the states do not depend on the
    count, and the blocks (``_blocks``) do not either.  A slice's scratch is
    allocated here, once per loop.
    """
    low, high = _split_factors(L)
    sites, chunk, width = _blocks(L, amps.size)
    phases = None if jt is None else _zz_phases(L, jt)
    flat = amps.reshape(-1)
    rows = 1 << (L - sites)
    size = max(2 * chunk, rows * width if high else 0)
    chunks = [flat[i:i + chunk] for i in range(0, flat.size, chunk)]
    states = amps.reshape(-1, rows, (2 << sites) // width, width // 2).view(np.float64)
    blocks = [(r, c) for r in range(len(states)) for c in range(states.shape[2])] if high else []
    # The wall counts of the basis, as rows of the low index (one row when pass 1 applies
    # the phases, whose table of at most 2**12 values is looked up once here).
    walls = _domain_walls(L).reshape(rows, 1 << sites)
    table = np.take(phases, walls) if not high and phases is not None else None

    def chunk_calls(part: np.ndarray, scratch) -> list:
        x = part.view(np.float64)
        buffers = [s[:x.size] for s in scratch]
        calls, src, below = [], x, 0
        for i, n in enumerate(low):
            # The last product writes back, unless the phases follow or it reads the chunk.
            last = i == len(low) - 1 and i > 0 and table is None
            dst = x if last else buffers[i % 2]
            calls.append(_product(src, dst, n, 2 << below, theta))
            src, below = dst, below + n
        if table is not None:
            calls.append((np.multiply, (src.view(np.complex128).reshape(-1, 1 << L), table,
                                        part.reshape(-1, 1 << L))))
        elif src is not x:
            calls.append((np.copyto, (x, src)))
        if sums and not high:
            calls += [(np.abs, (part, sums[0])), (np.square, (sums[0], sums[0]))]
        return calls

    def block_calls(block: tuple[int, int], scratch) -> list:
        r, c = block
        target = states[r, :, c]
        buffers = [s[:target.size].reshape(target.shape) for s in scratch]
        calls, src, below = [], target, 0
        for i, n in enumerate(high):
            dst = buffers[i % 2]
            calls.append(_product(src, dst, n, width << below, theta))
            src, below = dst, below + n
        # The products go into the contiguous scratch, as a ufunc into a strided view
        # allocates, and so do the phases and then the weights.
        free = buffers[len(high) % 2]
        products = src.view(np.complex128)
        columns = slice(c * width // 2, (c + 1) * width // 2)
        if phases is not None:
            out = free.view(np.complex128)
            calls += [(np.take, (phases, walls[:, columns], None, out, "clip")),
                      (np.multiply, (products, out, products))]
        calls.append((np.copyto, (target, src)))
        if sums:
            weights = free.reshape(-1)[:products.size].reshape(products.shape)
            calls += [(np.abs, (products, weights)), (np.square, (weights, weights)),
                      (np.add.reduce, (weights, 0, None, sums[0][columns])),
                      (np.add.reduce, (weights, 1, None, sums[1][c]))]
        return calls

    slices = min(count, max(len(chunks), len(blocks)))
    # A slice's two buffers are one allocation: at 20 sites two 512 KiB arrays stayed on the
    # heap after the loop, where the next evolve's state reused (and zeroed) them.
    scratch = [np.empty((2, size)) for _ in range(slices)]
    passes = []
    for items, calls_of in ((chunks, chunk_calls), (blocks, block_calls)):
        if items:
            cuts = np.array_split(np.arange(len(items)), slices)
            passes.append([[call for i in cut for call in calls_of(items[i], buffers)]
                           for cut, buffers in zip(cuts, scratch) if cut.size])
    return passes


def _in_turn(calls: list) -> None:
    for fn, args in calls:
        fn(*args)


def _periods(amps: np.ndarray, L: int, theta: float, jt: Optional[float] = None, threads=None,
             sums: Optional[tuple[np.ndarray, np.ndarray]] = None):
    """Yield the C-contiguous stack ``amps`` (..., 2**L) of frame states after each period, indefinitely.

    The one period loop: the real kick ``r^{(x)L}``, then the Ising phase of
    ``jt`` (the kick alone when ``jt`` is None), on every row, in place
    (``_period_passes``).  Every yield is ``amps`` itself, overwritten by the
    next period: a caller keeps what it copies, and
    ``_frame(..., inverse=True)`` maps that back to the spin basis.

    Each pass runs as the slices of ``threads``, the ``(count, run)`` of a
    caller's ``_threads`` context.  Without it the loop holds a context of its
    own until it is closed.  With ``sums`` every period also sums the
    |amp|**2 of a lone state into them (``_period_passes``).
    """
    if threads is None:
        with _threads(amps.size) as threads:
            yield from _periods(amps, L, theta, jt, threads, sums)
        return
    count, run = threads
    passes = _period_passes(amps, L, theta, jt, count, sums)
    if count == 1:  # one slice is called directly, as ``run`` would in turn
        calls = [call for slices in passes for call in slices[0]]
        while True:
            _in_turn(calls)
            yield amps
    passes = [[(calls,) for calls in slices] for slices in passes]
    while True:
        for slices in passes:
            run(_in_turn, slices)
        yield amps


def _stacked_period(states: np.ndarray, L: int, theta: float,
                    jt: Optional[float] = None) -> np.ndarray:
    """One period on every row of the C-contiguous stack ``states`` (..., 2**L) of spin-basis states.

    The frame S, the first period of ``_periods`` (the kick alone when
    ``jt`` is None), then S^-1, all in place; returns ``states``.
    """
    _frame(states, L)
    next(_periods(states, L, theta, jt))
    _frame(states, L, inverse=True)
    return states


def _start(initial: StateVector) -> tuple[np.ndarray, tuple]:
    """``S initial`` as a new array, the loop's stack, and what the overlap keeps of it.

    That is ``(support, conj, products)``: the indices of its non-zero
    amplitudes (a slice when all are), their conjugates, and a buffer for
    their products.  From a basis state, such as the polarized start, each
    holds one entry.
    """
    stack = _in_frame(initial.amplitudes, initial.L)
    support = np.flatnonzero(stack)
    if support.size == stack.size:
        support = slice(None)
    conj = stack[support].conj()
    return stack, (support, conj, np.empty_like(conj))


def _overlap(start: tuple, amps: np.ndarray) -> complex:
    """``<start|amps>`` for a ``start`` from ``_start``.

    numpy sums the products pairwise, so the bits do not depend on the BLAS
    thread count.  From a basis state it is one exact product.
    """
    support, conj, products = start
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
    L = params.L
    phased = np.take(_zz_phases(L, params.jt), _domain_walls(L))
    np.multiply(state.amplitudes, phased, out=phased)
    return StateVector(L, phased)


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

    The loop sums each period's |amp|**2 as it goes (``_period_passes``): by
    the low index, and by the high index in each block of pass 2.  Two
    marginal trees over those sums give every site's sz
    (``observables._sz_profile``), so the state is read once a period and no
    array of weights grows with it.  The state is never renormalized; the
    accumulated norm drift is reported on the result and stays far below
    1e-9 over 1e5 periods in practice.
    """
    _require_same_sites(initial, params)
    if n_periods < 1:
        raise ValueError(f"n_periods must be >= 1, got {n_periods}")
    L = params.L
    _require_bytes(L, 8 * L * n_periods, f"the sz series of {n_periods} periods")
    stack, start = _start(initial)
    # The loop's sums of |amp|**2 over the high index (the low sites' marginal) and over
    # each block's columns (summed over the blocks, the high sites' marginal).
    sites, _, width = _blocks(L, stack.size)
    sums = np.empty(1 << sites), np.zeros(((2 << sites) // width, 1 << (L - sites)))
    p_out = np.empty(n_periods)
    sz_out = np.empty((n_periods, L))
    with _threads(stack.size) as threads:
        periods = _periods(stack, L, params.theta, params.jt, threads, sums)
        for n, amps in zip(range(n_periods), periods):
            p_out[n] = abs(_overlap(start, amps)) ** 2
            sz_out[n] = _sz_profile(sums[0], sums[1].sum(axis=0))
    # The final state is not kept, so its norm squares it in place.
    drift = abs(_norm(stack, stack.view(np.float64)) - 1.0)
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
    for amps in _periods(stack, params.L, params.theta, params.jt):
        yield float(abs(_overlap(start, amps)) ** 2)
