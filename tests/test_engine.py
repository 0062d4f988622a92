"""Structured propagator against an independent Kronecker/expm oracle."""

import itertools
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kicked_ising import (
    CapacityError,
    FloquetParams,
    StateVector,
    apply_global_x_rotation,
    apply_zz_phase,
    bond_sum,
    bond_sum_table,
    build_dense_propagator,
    evolve_stroboscopic,
    floquet_step,
    iter_return_probability,
    local_sz,
    polarized_state,
    propagator_spectrum,
    return_probability,
)

from kicked_ising import blas, engine, states
from kicked_ising.engine import _factor_sites, _frame, _in_frame, _periods, _stacked_period

from conftest import oracle_kick, oracle_propagator, random_state


@pytest.mark.parametrize("L", [2, 3, 4, 5, 6])
def test_dense_propagator_matches_oracle(L, rng):
    """Structured assembly equals the expm-built matrix over a parameter grid."""
    for jt_over_pi in (0.0, 0.5, 0.9, 1.3, 2.0):
        for eps_over_pi in (-0.3, -0.1, 0.0, 0.11, 0.3):
            params = FloquetParams.from_dimensionless(L, jt_over_pi, eps_over_pi)
            built = build_dense_propagator(params).matrix
            reference = oracle_propagator(L, params.jt, params.epsilon)
            assert np.max(np.abs(built - reference)) < 1e-12


@pytest.mark.parametrize("L", [2, 4, 6])
def test_floquet_step_matches_dense_application(L, rng):
    params = FloquetParams.from_dimensionless(L, 0.9, 0.07)
    U = build_dense_propagator(params).matrix
    amps = random_state(L, rng)
    stepped = floquet_step(StateVector(L, amps), params)
    assert np.max(np.abs(stepped.amplitudes - U @ amps)) < 1e-13


def test_dense_propagator_is_unitary():
    params = FloquetParams.from_dimensionless(6, 1.37, 0.21)
    U = build_dense_propagator(params).matrix
    assert np.max(np.abs(U.conj().T @ U - np.eye(2**6))) < 1e-13


def test_zz_phase_on_basis_states():
    params = FloquetParams.from_dimensionless(4, 0.7, 0.0)
    for index in (0, 0b0101, 0b0011):
        amps = np.zeros(16, dtype=complex)
        amps[index] = 1.0
        phased = apply_zz_phase(StateVector(4, amps), params)
        expected = np.exp(-0.25j * params.jt * bond_sum(index, 4))
        assert phased.amplitudes[index] == pytest.approx(expected)


def test_one_wall_array_is_cached():
    """Only the last L keeps its wall counts, read-only, and every JT looks phases up in them."""
    states._domain_walls.cache_clear()
    for jt_over_pi in (0.7, 0.9):
        apply_zz_phase(polarized_state(6), FloquetParams.from_dimensionless(6, jt_over_pi, 0.0))
    assert states._domain_walls.cache_info()[:2] == (1, 1)  # one hit, one miss
    assert not states._domain_walls(6).flags.writeable
    apply_zz_phase(polarized_state(7), FloquetParams.from_dimensionless(7, 0.9, 0.0))
    assert states._domain_walls.cache_info().currsize == 1


PHASE_JTS = (0.0, 0.37, 0.9 * math.pi, math.pi, 5.1)


@pytest.mark.parametrize("L", range(2, 21))
def test_phase_table_is_the_exponential_of_the_bond_sums(L):
    """The phases the loop looks up by wall count are the exponentials of the whole
    bond-sum table, bit for bit: the L + 1 distinct phases are looked up by the uint8 walls
    of every basis state."""
    bonds = bond_sum_table(L)
    walls = states._domain_walls(L)
    for jt in PHASE_JTS:
        assert walls.size == 1 << L
        looked_up = np.take(engine._zz_phases(L, jt), walls)
        expected = np.exp(-0.25j * jt * bonds)
        assert looked_up.tobytes() == expected.tobytes()


@pytest.mark.parametrize("L", [2, 3, 8, 13, 18])
def test_apply_zz_phase_is_the_product_with_the_whole_table(L, rng):
    """A state multiplied by the phases looked up by wall count gives the product with the
    whole table, bit for bit."""
    state = StateVector(L, random_state(L, rng))
    for jt in PHASE_JTS:
        params = FloquetParams(L=L, jt=jt, epsilon=0.1)
        # Named: numpy would multiply a large temporary in place, with the operands of the
        # complex product swapped, which moves the last bit of some imaginary parts.
        table = np.exp(-0.25j * jt * bond_sum_table(L))
        expected = state.amplitudes * table
        assert apply_zz_phase(state, params).amplitudes.tobytes() == expected.tobytes()


def test_perfect_kick_is_a_global_spin_flip():
    """theta = pi/2 sends all-up to (-i)^L times all-down."""
    for L in (2, 3, 5):
        state = apply_global_x_rotation(polarized_state(L, "up"), math.pi / 2)
        assert state.amplitudes[0] == pytest.approx((-1j) ** L)
        assert np.count_nonzero(np.abs(state.amplitudes) > 1e-15) == 1


def test_perfect_pulse_alternation_short():
    """At eps = 0 the polarized return probability alternates 0, 1 exactly."""
    params = FloquetParams.from_dimensionless(4, 0.37, 0.0)
    series = evolve_stroboscopic(polarized_state(4), params, 20)
    assert np.max(np.abs(series.return_probability[0::2] - 0.0)) < 1e-14
    assert np.max(np.abs(series.return_probability[1::2] - 1.0)) < 1e-14


def test_step_composition_matches_evolve(rng):
    params = FloquetParams.from_dimensionless(5, 0.83, 0.11)
    initial = StateVector(5, random_state(5, rng))
    state = initial
    stepped = []
    for _ in range(6):
        state = floquet_step(state, params)
        stepped.append(abs(np.vdot(initial.amplitudes, state.amplitudes)) ** 2)
    series = evolve_stroboscopic(initial, params, 6)
    assert np.allclose(series.return_probability, stepped, atol=1e-14)


def test_iterator_matches_evolve(rng):
    params = FloquetParams.from_dimensionless(4, 1.1, 0.09)
    initial = StateVector(4, random_state(4, rng))
    series = evolve_stroboscopic(initial, params, 12)
    stream = iter_return_probability(initial, params)
    drawn = [next(stream) for _ in range(12)]
    assert np.array_equal(np.asarray(drawn), series.return_probability)


def test_jt_periodicity(rng):
    """Bond sums are integers, so JT -> JT + 8 pi is an exact identity.

    JT -> JT + 4 pi multiplies the propagator by the global phase
    (-1)^bond_sum = (-1)^L, invisible in any probability.
    """
    initial = StateVector(4, random_state(4, rng))
    base = FloquetParams(L=4, jt=0.9 * math.pi, epsilon=0.31)
    plus8 = FloquetParams(L=4, jt=0.9 * math.pi + 8 * math.pi, epsilon=0.31)
    plus4 = FloquetParams(L=4, jt=0.9 * math.pi + 4 * math.pi, epsilon=0.31)
    a = floquet_step(initial, base).amplitudes
    b = floquet_step(initial, plus8).amplitudes
    c = floquet_step(initial, plus4).amplitudes
    assert np.max(np.abs(a - b)) < 1e-12
    assert np.max(np.abs(np.abs(a) - np.abs(c))) < 1e-12


def test_return_series_symmetric_about_jt_pi():
    """From a polarized start, P(nT) is identical at JT = pi -+ x."""
    low = FloquetParams.from_dimensionless(5, 0.7, 0.13)
    high = FloquetParams.from_dimensionless(5, 1.3, 0.13)
    p_low = evolve_stroboscopic(polarized_state(5), low, 200).return_probability
    p_high = evolve_stroboscopic(polarized_state(5), high, 200).return_probability
    assert np.max(np.abs(p_low - p_high)) < 1e-10


def test_sz_series_for_perfect_pulses():
    params = FloquetParams.from_dimensionless(3, 0.9, 0.0)
    series = evolve_stroboscopic(polarized_state(3), params, 4)
    assert series.n.tolist() == [1, 2, 3, 4]
    assert series.sz.shape == (4, 3)
    assert np.allclose(series.sz[0::2], -1.0, atol=1e-14)
    assert np.allclose(series.sz[1::2], +1.0, atol=1e-14)


def test_period_count_and_sites_validation():
    params = FloquetParams.from_dimensionless(3, 0.9, 0.1)
    other = FloquetParams.from_dimensionless(4, 0.9, 0.1)
    with pytest.raises(ValueError):
        evolve_stroboscopic(polarized_state(3), params, 0)
    with pytest.raises(ValueError, match="state has L=3 but params have L=4"):
        floquet_step(polarized_state(3), other)
    with pytest.raises(ValueError, match="state has L=3 but params have L=4"):
        evolve_stroboscopic(polarized_state(3), other, 10)
    stream = iter_return_probability(polarized_state(3), other)
    with pytest.raises(ValueError, match="state has L=3 but params have L=4"):
        next(stream)


def test_sz_series_capacity():
    """8 * L bytes a period: the sz series of 2**23 + 1 periods at L = 4 is refused before
    any array is allocated."""
    params = FloquetParams.from_dimensionless(4, 0.9, 0.1)
    with pytest.raises(CapacityError, match="L=4: the sz series of 8388609 periods needs"):
        evolve_stroboscopic(polarized_state(4), params, (1 << 23) + 1)


@given(
    L=st.integers(2, 6),
    jt_over_pi=st.floats(-2.0, 2.0, allow_nan=False),
    eps_over_pi=st.floats(-0.45, 0.45, allow_nan=False),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_step_preserves_norm(L, jt_over_pi, eps_over_pi, seed):
    params = FloquetParams.from_dimensionless(L, jt_over_pi, eps_over_pi)
    state = StateVector(L, random_state(L, np.random.default_rng(seed)))
    assert floquet_step(state, params).norm() == pytest.approx(1.0, abs=1e-12)


def test_norm_drift_stays_tiny():
    params = FloquetParams.from_dimensionless(8, 0.9, 0.1)
    series = evolve_stroboscopic(polarized_state(8), params, 2000)
    assert series.norm_drift < 1e-10


# --------------------------------------------------------------------------
# the kick as matrix products over Kronecker site factors


def sweep_kick(amps: np.ndarray, L: int, theta) -> np.ndarray:
    """The per-site kick: L sweeps of one 2x2 rotation, in the dtype of ``amps`` and ``theta``.

    Kept as an oracle; with ``np.clongdouble`` it gives an extended-precision reference.
    """
    c = np.cos(theta)
    s = np.sin(theta)
    for i in range(L):
        view = amps.reshape(1 << (L - 1 - i), 2, 1 << i)
        amps = (c * view - 1j * s * view[:, ::-1, :]).reshape(-1)
    return amps


@pytest.mark.parametrize("L", range(2, 13))
def test_kick_matches_the_oracle(L, rng):
    """Every factor split of L = 2..12, on one random state.

    The dense builder steps batches of rows; ``test_dense_propagator_matches_oracle``
    holds that path to the same oracle.
    """
    assert sum(_factor_sites(L)) == L
    assert max(_factor_sites(L)) <= 5
    for theta in (math.pi / 2 - 0.1 * math.pi, 0.37, -1.2):
        amps = random_state(L, rng)
        kicked = apply_global_x_rotation(StateVector(L, amps), theta).amplitudes
        assert np.max(np.abs(kicked - oracle_kick(L, theta, amps))) < 1e-13


def test_factor_split_is_fewest_near_equal():
    assert [_factor_sites(L) for L in (2, 5, 6, 8, 11, 12, 14, 20, 24)] == [
        (2,), (3, 2), (3, 3), (4, 4), (4, 4, 3), (4, 4, 4), (4, 4, 3, 3), (4, 4, 4, 4, 4), (4,) * 6]


@pytest.mark.parametrize("L", [6, 8])
def test_long_run_against_extended_precision(L):
    """Over 1e4 periods the engine stays within 2e-12 of a clongdouble per-site sweep.

    ``_periods`` yields frame amplitudes; S^-1 maps them back to the spin basis.
    """
    params = FloquetParams.from_dimensionless(L, 0.9, 0.1)
    theta = np.longdouble(params.theta)
    phases = np.exp(np.clongdouble(-0.25j) * np.longdouble(params.jt) *
                    np.array([bond_sum(index, L) for index in range(1 << L)], dtype=np.longdouble))
    reference = polarized_state(L).amplitudes.astype(np.clongdouble)
    worst = 0.0
    start = _in_frame(polarized_state(L).amplitudes, L)
    for _, amps in zip(range(10_000), _periods(start, L, params.theta, params.jt)):
        reference = sweep_kick(reference, L, theta) * phases
        spins = amps.copy()
        _frame(spins, L, inverse=True)
        worst = max(worst, float(np.max(np.abs(spins - reference))))
    assert worst <= 2e-12


def test_evolve_matches_repeated_steps_over_200_periods(rng):
    """evolve_stroboscopic reads each period's buffer before the next period overwrites it."""
    L = 10
    params = FloquetParams.from_dimensionless(L, 0.9, 0.1)
    initial = StateVector(L, random_state(L, rng))
    series = evolve_stroboscopic(initial, params, 200)
    state = initial
    for j in range(200):
        state = floquet_step(state, params)
        assert abs(series.return_probability[j] - return_probability(state, initial)) <= 1e-12
        assert np.max(np.abs(series.sz[j] - [local_sz(state, site) for site in range(L)])) <= 1e-12


#: Two drives for the sz checks: the locked point's neighbourhood and a generic one.
_SZ_DRIVES = [(0.9, 0.1), (0.5, 0.2341)]


def _sz_of_whole_weights(amps: np.ndarray) -> np.ndarray:
    """sigma^z of every site by one marginal tree over the |amp|**2 of the whole basis: the
    upper half's sum is the top site's up weight, and the two halves added are the weights
    of the sites below it, down to the total."""
    weights = np.square(np.abs(amps))
    up = np.empty(weights.size.bit_length() - 1)
    size = weights.size
    for site in reversed(range(up.size)):
        size //= 2
        up[site] = weights[size:2 * size].sum()
        weights[:size] += weights[size:2 * size]
    return 2.0 * up - weights[0]


@pytest.mark.parametrize("L", range(2, 13))
def test_sz_up_to_12_sites_is_the_tree_over_the_whole_weights(L, rng):
    """Up to 12 sites the loop's one chunk squares the whole state, so evolve's sz is, bit for
    bit, the tree over the |amp|**2 of the states of repeated floquet_step."""
    for jt, eps in _SZ_DRIVES:
        params = FloquetParams.from_dimensionless(L, jt, eps)
        for initial in (polarized_state(L), StateVector(L, random_state(L, rng))):
            series = evolve_stroboscopic(initial, params, 4)
            state = initial
            for row in series.sz:
                state = floquet_step(state, params)
                assert np.array_equal(row, _sz_of_whole_weights(state.amplitudes))


@pytest.mark.parametrize("L", [13, 14, 16])
def test_sz_from_the_blocks_matches_local_sz(L, rng):
    """Above 12 sites sz comes from the pass-2 blocks' sums of |amp|**2; it is within 1e-12
    of local_sz on the states of repeated floquet_step, from the polarized and a random
    start."""
    for jt, eps in _SZ_DRIVES:
        params = FloquetParams.from_dimensionless(L, jt, eps)
        for initial in (polarized_state(L), StateVector(L, random_state(L, rng))):
            series = evolve_stroboscopic(initial, params, 3)
            state = initial
            for row in series.sz:
                state = floquet_step(state, params)
                assert np.max(np.abs(row - [local_sz(state, site) for site in range(L)])) <= 1e-12


@pytest.mark.parametrize("L", [*range(2, 10), 12, 13, 16])
def test_frame_is_i_to_the_number_of_up_spins(L, rng):
    """S = diag(i**popcount(b)); S^-1 undoes it exactly."""
    diagonal = np.array([1j ** bin(b).count("1") for b in range(1 << L)])
    amps = rng.normal(size=1 << L) + 1j * rng.normal(size=1 << L)
    moved = amps.copy()
    _frame(moved, L)
    assert np.array_equal(moved, diagonal * amps)
    _frame(moved, L, inverse=True)
    assert np.array_equal(moved, amps)


@pytest.mark.parametrize("L", range(2, 11))
def test_stacked_period_is_floquet_step_per_row(L, rng):
    """A stack of three states takes the same period as each state alone, bit for bit
    from two site factors on.  With one factor (L <= 5) a lone state's lowest product
    has one row, which BLAS runs as a matrix-vector product that sums in another
    order, so there the rows agree to rounding."""
    params = FloquetParams.from_dimensionless(L, 0.9, 0.1)
    rows = np.stack([random_state(L, rng) for _ in range(3)])
    stepped = _stacked_period(rows.copy(), L, params.theta, params.jt)
    assert stepped.shape == rows.shape
    for row, out in zip(rows, stepped):
        alone = floquet_step(StateVector(L, row), params).amplitudes
        if len(_factor_sites(L)) > 1:
            assert np.array_equal(out, alone)
        else:
            assert np.max(np.abs(out - alone)) <= 1e-15


@pytest.mark.parametrize("with_phase", [True, False])
@pytest.mark.parametrize("L", range(2, 11))
def test_period_loop_steps_a_stack_as_its_rows(L, with_phase, rng):
    """Three frame states stepped as one stack for 20 periods, with and without the
    Ising phase, equal each state stepped alone, bit for bit from two site factors on
    (see ``test_stacked_period_is_floquet_step_per_row`` for one factor)."""
    params = FloquetParams.from_dimensionless(L, 0.9, 0.1)
    jt = params.jt if with_phase else None
    rows = np.stack([_in_frame(random_state(L, rng), L) for _ in range(3)])
    *_, stack = itertools.islice(_periods(rows.copy(), L, params.theta, jt), 20)
    for row, out in zip(rows, stack):
        *_, alone = itertools.islice(_periods(row.copy(), L, params.theta, jt), 20)
        if len(_factor_sites(L)) > 1:
            assert np.array_equal(out, alone)
        else:
            assert np.max(np.abs(out - alone)) <= 1e-15


@pytest.mark.parametrize("L", range(2, 11))
def test_floquet_steps_are_the_period_loop(L, rng):
    """Repeated floquet_step is the loop's periods mapped back to the spin basis, bit for
    bit: both step one row and multiply the phase in the frame."""
    params = FloquetParams.from_dimensionless(L, 0.9, 0.1)
    state = StateVector(L, random_state(L, rng))
    loop = _periods(_in_frame(state.amplitudes, L), L, params.theta, params.jt)
    for _, amps in zip(range(20), loop):
        state = floquet_step(state, params)
        spins = amps.copy()
        _frame(spins, L, inverse=True)
        assert np.array_equal(state.amplitudes, spins)


@pytest.mark.parametrize("L", [2, 5, 6, 8, 11])
def test_dense_propagator_columns_are_floquet_steps(L):
    """One, two and three site factors: the identity's rows, stepped in batches, equal the
    basis states stepped one by one, bit for bit."""
    for eps_over_pi in (0.1, 0.0, -0.23):
        params = FloquetParams.from_dimensionless(L, 0.9, eps_over_pi)
        U = build_dense_propagator(params).matrix
        for index in range(1 << L):
            basis = np.zeros(1 << L, dtype=complex)
            basis[index] = 1.0
            column = floquet_step(StateVector(L, basis), params).amplitudes
            assert np.array_equal(U[:, index], column)


def test_dense_propagator_capacity(monkeypatch):
    """16 * 4**L bytes: 12 sites fit the budget exactly, 13 do not, though 13 sites of levels
    alone fit, and they step no matrix."""
    with pytest.raises(CapacityError, match="L=13: a dense propagator needs 1024 MiB, over the "
                                            "256 MiB array capacity"):
        build_dense_propagator(FloquetParams.from_dimensionless(13, 1.0, 0.1))

    def past_the_check(*args):
        raise LookupError("the capacity check passed")

    monkeypatch.setattr(engine, "_stacked_period", past_the_check)
    with pytest.raises(LookupError, match="capacity check passed"):
        build_dense_propagator(FloquetParams.from_dimensionless(12, 1.0, 0.1))
    assert propagator_spectrum(FloquetParams.from_dimensionless(13, 1.0, 0.1)).dim == 2**13


def _blas_counts() -> list[int]:
    return [blas.threads()] if blas._thread_functions() else []


def test_numpy_openblas_is_found():
    """``blas`` holds a library exactly when the numpy wheel bundles an OpenBLAS, whatever
    the names of its build's thread-count functions."""
    bundled = any((Path(np.__file__).parents[1] / "numpy.libs").glob("*openblas*"))
    assert (blas._thread_functions() is not None) == bundled


#: The smallest chain whose state is split over threads.
_SPLIT_L = engine._SPLIT_AMPS.bit_length() - 1


@pytest.mark.skipif(not blas._thread_functions(), reason="no bundled OpenBLAS")
@pytest.mark.parametrize("L", [_SPLIT_L, 20])
def test_split_periods_equal_the_unsplit_loop(L, rng):
    """Under the BLAS's own thread count (split over threads when it is above 1) and under
    one thread (unsplit), 20 periods give the same P, sz and drift bit for bit, and each
    run leaves the thread counts as they were."""
    params = FloquetParams.from_dimensionless(L, 0.9, 0.1)
    before = _blas_counts()
    for initial in (polarized_state(L), StateVector(L, random_state(L, rng))):
        split = evolve_stroboscopic(initial, params, 20)
        assert _blas_counts() == before
        with blas.one_thread():
            whole = evolve_stroboscopic(initial, params, 20)
        assert _blas_counts() == before
        assert np.array_equal(split.return_probability, whole.return_probability)
        assert np.array_equal(split.sz, whole.sz)
        assert split.norm_drift == whole.norm_drift
    if L == _SPLIT_L:
        stepped = floquet_step(initial, params)
        assert _blas_counts() == before
        with blas.one_thread():
            assert np.array_equal(stepped.amplitudes, floquet_step(initial, params).amplitudes)
    stream = iter_return_probability(initial, params)
    next(stream)
    if before and max(before) > 1:
        assert _blas_counts() == [1] * len(before)  # held while the generator is suspended
    stream.close()
    assert _blas_counts() == before


#: (``_SCRATCH``, ``_CHUNK``, ``_LOW_SITES``): the default chunks and blocks, one chunk and
#: one block, smaller ones, and the narrowest blocks (8 real columns at 15 and 20 sites)
#: with a pass 2 on every chain.
_WIDTHS = [(1 / 8, 1 << 15, 12), (1, 1 << 20, 12), (1 / 32, 1 << 12, 10), (1 / 512, 1 << 8, 8)]


@pytest.mark.parametrize("count", [2, 3])
@pytest.mark.parametrize("L", [12, 15, 20])
def test_slices_of_a_period_equal_the_whole(L, count, rng, monkeypatch):
    """The loop's slices, run in turn on one thread, give the whole period's bits, whatever
    the widths of its chunks and column blocks: two and three slices (uneven ones) of a
    lone state and, below 20 sites, of a stack of three rows, against one slice of the
    default widths."""
    params = FloquetParams.from_dimensionless(L, 0.9, 0.1)
    in_turn = lambda fn, calls: [fn(*args) for args in calls]  # noqa: E731
    starts = [_in_frame(random_state(L, rng), L)]
    if L < 20:
        starts.append(np.stack([_in_frame(random_state(L, rng), L) for _ in range(3)]))
    periods = 5 if L < 20 else 2
    for start in starts:
        *_, whole = itertools.islice(
            _periods(start.copy(), L, params.theta, params.jt, (1, in_turn)), periods)
        for scratch, chunk, low_sites in _WIDTHS:
            monkeypatch.setattr(engine, "_SCRATCH", scratch)
            monkeypatch.setattr(engine, "_CHUNK", chunk)
            monkeypatch.setattr(engine, "_LOW_SITES", low_sites)
            *_, sliced = itertools.islice(
                _periods(start.copy(), L, params.theta, params.jt, (count, in_turn)), periods)
            assert np.array_equal(whole, sliced)


@pytest.mark.parametrize("L", [_SPLIT_L - 2, _SPLIT_L])
def test_evolve_holds_one_state(L):
    """From the polarized start, evolve_stroboscopic allocates at most 1.3 states while it
    runs (tracemalloc): the loop's stack, the scratch of the period's slices, which also
    takes each block's |amp|**2, the index copy of each block's phase lookup, and the
    blocks' sums for sz, a 32nd of a state or less.  The tables every run at this L
    shares, the wall counts and the frame's unit phases, are built by a first run.  The
    larger L runs the split loop when OpenBLAS runs more than one thread."""
    params = FloquetParams.from_dimensionless(L, 0.9, 0.1)
    initial = polarized_state(L)
    evolve_stroboscopic(initial, params, 1)
    tracemalloc.start()
    try:
        evolve_stroboscopic(initial, params, 4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.3 * 16 * (1 << L)


@pytest.mark.parametrize("L", [14, 16])
def test_overlap_does_not_depend_on_the_blas_threads(L, rng):
    """From a random start, P is the same bits under the BLAS's own thread count and under
    one thread, for the stored series and the stream."""
    params = FloquetParams.from_dimensionless(L, 0.9, 0.1)
    initial = StateVector(L, random_state(L, rng))
    threaded = evolve_stroboscopic(initial, params, 5).return_probability
    stream = list(itertools.islice(iter_return_probability(initial, params), 5))
    with blas.one_thread():
        one = evolve_stroboscopic(initial, params, 5).return_probability
        one_stream = list(itertools.islice(iter_return_probability(initial, params), 5))
    assert np.array_equal(threaded, one)
    assert stream == one_stream == threaded.tolist()
