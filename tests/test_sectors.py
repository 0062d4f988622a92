"""The free-fermion polarized-start stream against the iterative engine, the dense
propagator and the transfer-matrix trace, and the dense builder's batches."""

import itertools
import tracemalloc

import numpy as np
import pytest

from kicked_ising import (
    FloquetParams,
    SweepConfig,
    build_dense_propagator,
    first_crossing,
    fourier_spectrum,
    iter_return_probability,
    polarized_state,
    run_sweep,
)
from kicked_ising import engine, sectors
from kicked_ising.sectors import sector_return_probability

from conftest import read_result_csv, transfer_return_amplitude

JT_GRID = (0.0, 0.5, 1.0, 1.3)
EPS_GRID = (0.0, 0.1, -0.2)
#: (JT/pi, eps/pi) drives off the grid above, for the per-period agreement.
OFF_GRID = ((0.9, 0.1), (0.5, 0.2341), (2.0, 0.3))
#: (JT/pi, eps/pi) points whose even-period series cross 0.05 within 2000 pairs for some L.
CROSSING_POINTS = ((0.9, 0.1), (0.5, 0.1), (1.3, -0.2))


def _iterative_periods(L, jt_over_pi, eps_over_pi, n_periods):
    params = FloquetParams.from_dimensionless(L, jt_over_pi, eps_over_pi)
    stream = iter_return_probability(polarized_state(L), params)
    return np.array(list(itertools.islice(stream, n_periods)))


def _iterative_pairs(L, jt_over_pi, eps_over_pi, n_pairs):
    return _iterative_periods(L, jt_over_pi, eps_over_pi, 2 * n_pairs)[1::2]


class TestBlockPropagator:
    @pytest.mark.parametrize("L", [5, 8, 10])
    def test_batch_size_moves_no_bit(self, L, monkeypatch):
        """The dense propagator built from the identity's rows stepped one at a time equals
        that of the default batches, bit for bit from two site factors on (a one-factor row
        is a matrix-vector product; see ``test_stacked_period_is_floquet_step_per_row``)."""
        params = FloquetParams.from_dimensionless(L, 0.9, 0.1)
        batched = build_dense_propagator(params).matrix
        monkeypatch.setattr(engine, "_BATCH", 1)
        one_by_one = build_dense_propagator(params).matrix
        if L > 5:
            assert np.array_equal(one_by_one, batched)
        else:
            assert np.max(np.abs(one_by_one - batched)) <= 1e-15


class TestSectorOperator:
    @pytest.mark.parametrize("L", range(2, 9))
    def test_unitary_and_inside_the_dense_spectrum(self, L):
        """Every choice of one eigenphase -+eps_k per pair, plus the sector's phase, is an
        eigenphase of the dense propagator, and each pair's weights (1 +- t_k) / 2 lie in [0, 1]."""
        for jt, eps in itertools.product(JT_GRID, EPS_GRID):
            params = FloquetParams.from_dimensionless(L, jt, eps)
            dense = np.linalg.eigvals(build_dense_propagator(params).matrix)
            for gamma, pair_phases, tilt in sectors._parity_sectors(params):
                assert np.max(np.abs(tilt), initial=0.0) <= 1.0 + 1e-15
                for signs in itertools.product((-1, 1), repeat=pair_phases.size):
                    phase = gamma + np.dot(signs, pair_phases)
                    assert np.min(np.abs(np.exp(1j * phase) - dense)) < 1e-12


class TestSectorReturnProbability:
    @pytest.mark.parametrize("L", range(2, 15))
    def test_matches_the_iterative_engine(self, L):
        """Every period, odd ones included, across more than one evaluation chunk."""
        n_periods = sectors._CHUNK + 100
        for jt, eps in (*itertools.product(JT_GRID, EPS_GRID), *OFF_GRID):
            params = FloquetParams.from_dimensionless(L, jt, eps)
            stream = np.fromiter(sector_return_probability(params), float, n_periods)
            assert np.max(np.abs(stream - _iterative_periods(L, jt, eps, n_periods))) <= 1e-12

    @pytest.mark.parametrize("L", (6, 8, 10))
    def test_drift_within_a_linear_budget_over_4000_periods(self, L):
        """The rounding of the phases adds up linearly in n: |dP| <= 5e-13 + 2e-15 n.

        Measured over these five points at L = 6, 8, 10: at most 0.26 of the budget.
        """
        n_periods = 4000
        budget = 5e-13 + 2e-15 * np.arange(1, n_periods + 1)
        for jt, eps in CROSSING_POINTS + ((1.0, 0.1), (0.0, 0.1)):
            params = FloquetParams.from_dimensionless(L, jt, eps)
            stream = np.fromiter(sector_return_probability(params), float, n_periods)
            assert np.all(np.abs(stream - _iterative_periods(L, jt, eps, n_periods)) <= budget)

    @pytest.mark.parametrize("L", range(2, 10))
    def test_same_lifetime_over_2000_pairs(self, L):
        for jt, eps in CROSSING_POINTS:
            params = FloquetParams.from_dimensionless(L, jt, eps)
            stream = itertools.islice(sector_return_probability(params), 1, 4000, 2)
            iterative = _iterative_pairs(L, jt, eps, 2000).tolist()
            assert first_crossing(stream, 0.05) == first_crossing(iterative, 0.05)

    @pytest.mark.parametrize("L", (3, 12, 17, 32, 200))
    def test_matches_the_transfer_matrix_trace(self, L):
        """P(nT) = |Tr T**L|**2 over the pinned histories (``conftest.transfer_return_amplitude``),
        n = 1..10, within 1e-12; measured at most 9.2e-14, at L = 200 and eps = 0.02 pi.  That
        near-perfect kick keeps P near 1 at L = 200, where the others' samples are below 1e-17.
        """
        for jt, eps in ((0.9, 0.1), (1.0, 0.02), (0.5, 0.2341)):
            params = FloquetParams.from_dimensionless(L, jt, eps)
            stream = np.fromiter(sector_return_probability(params), float, 10)
            traced = [abs(transfer_return_amplitude(L, params.jt, params.epsilon, n)) ** 2
                      for n in range(1, 11)]
            assert np.max(np.abs(stream - traced)) <= 1e-12

    def test_sixteen_sites(self):
        n_periods = 500
        params = FloquetParams.from_dimensionless(16, 0.9, 0.1)
        stream = np.fromiter(sector_return_probability(params), float, n_periods)
        assert np.max(np.abs(stream - _iterative_periods(16, 0.9, 0.1, n_periods))) <= 1e-12

    def test_no_state_vector_at_the_evolution_cap(self, tmp_path):
        """A lifetime point at L = 24 holds under 4 MB; one 2**24 state would take 268 MB."""
        config = SweepConfig(mode="lifetime-scan", lengths=(24,), jt_over_pi=(0.9,),
                             epsilon_over_pi=(0.1,), n_periods=2000, out=str(tmp_path / "s.csv"))
        tracemalloc.start()
        try:
            row = run_sweep(config).rows[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (row["censored"], row["error"]) == (True, None)
        assert peak < 4 << 20

    def test_row_blocks_give_the_same_samples(self, monkeypatch):
        """The sector products run over row blocks in row order, so the block size moves no bit."""
        params = FloquetParams.from_dimensionless(40, 0.9, 0.1)
        whole = np.fromiter(sector_return_probability(params), float, 2 * sectors._CHUNK)
        monkeypatch.setattr(sectors, "_ROWS", 3)
        blocks = np.fromiter(sector_return_probability(params), float, 2 * sectors._CHUNK)
        assert np.array_equal(blocks, whole)

    def test_peak_memory_is_one_phase_table(self):
        """At L = 2001 the table takes 16.4 MB; no second table-sized array is held."""
        params = FloquetParams.from_dimensionless(2001, 0.9, 0.1)
        table_bytes = 16 * sectors._CHUNK * (params.L + 1)
        tracemalloc.start()
        try:
            samples = list(itertools.islice(sector_return_probability(params), 2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(samples) == 2
        assert peak < 1.2 * table_bytes

    def test_lifetime_ends_at_thirty_two_sites(self, tmp_path):
        """The early minimum of P(2nT) falls with L and dips below 0.05 at L = 32, while n* is
        censored over 1e7 pairs for L = 20-30: the lifetime's growth with L is a finite-size
        regime."""
        config = SweepConfig(mode="lifetime-scan", lengths=(32,), jt_over_pi=(0.9,),
                             epsilon_over_pi=(0.1,), n_periods=500_000,
                             out=str(tmp_path / "s.csv"))
        assert run_sweep(config).rows[0]["n_star"] == 203_323


class TestModesOnTheSector:
    """``phase-diagram`` and ``fourier`` rows from the stream against the iterative engine."""

    @pytest.mark.parametrize("L", range(2, 11))
    def test_phase_cells(self, tmp_path, L):
        out = tmp_path / "map.csv"
        config = SweepConfig(mode="phase-diagram", lengths=(L,), jt_over_pi=JT_GRID,
                             epsilon_over_pi=EPS_GRID, n_periods=200, window=100, out=str(out))
        rows = run_sweep(config).rows
        header, _ = read_result_csv(out)
        assert header["provenance"]["paths"] == ["free-fermion"] * len(rows)
        for row in rows:
            expected = _iterative_pairs(L, row["jt_over_pi"], row["epsilon_over_pi"], 100).mean()
            assert row["error"] is None
            assert abs(row["average_return"] - expected) <= 1e-12

    @pytest.mark.parametrize("L", (4, 8, 10))
    def test_fourier_rows(self, tmp_path, L):
        out = tmp_path / "fft.csv"
        config = SweepConfig(mode="fourier", lengths=(L,), jt_over_pi=(0.0, 0.9, 1.0),
                             epsilon_over_pi=(0.0, 0.07), n_periods=2000, out=str(out))
        result = run_sweep(config)
        header, _ = read_result_csv(out)
        assert header["provenance"]["paths"] == ["free-fermion"] * len(result.rows)
        for row, dumped in zip(result.rows, result.aux_files):
            expected = fourier_spectrum(_iterative_periods(L, row["jt_over_pi"],
                                                           row["epsilon_over_pi"], 2000))
            peak = expected.peak_bin()
            assert (row["peak_bin"], row["error"]) == (peak, None)
            assert abs(row["peak_magnitude"] - expected.magnitudes[peak]) <= 1e-12
            assert abs(row["subharmonic_magnitude"] - expected.magnitudes[1000]) <= 1e-12
            _, curve = read_result_csv(dumped)
            magnitudes = np.array([float(line["magnitude"]) for line in curve])
            assert np.max(np.abs(magnitudes - expected.magnitudes)) <= 1e-12

