"""The free-fermion polarized-start stream against the iterative engine and the dense
propagator, and the momentum-block orbits against brute-force images."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from kicked_ising import sectors
from kicked_ising.sectors import momentum_blocks, orbit_basis, sector_return_probability

from conftest import read_result_csv

JT_GRID = (0.0, 0.5, 1.0, 1.3)
EPS_GRID = (0.0, 0.1, -0.2)
#: (JT/pi, eps/pi) drives off the grid above, for the per-period agreement.
OFF_GRID = ((0.9, 0.1), (0.5, 0.2341), (2.0, 0.3))
#: (JT/pi, eps/pi) points whose even-period series cross 0.05 within 2000 pairs for some L.
CROSSING_POINTS = ((0.9, 0.1), (0.5, 0.1), (1.3, -0.2))


def _images(index: int, L: int) -> list[int]:
    """The 2L dihedral images of ``index``, rotating and reversing its bit string."""
    bits = format(index, f"0{L}b")
    words = [w[k:] + w[:k] for w in (bits, bits[::-1]) for k in range(L)]
    return [int(w, 2) for w in words]


def _iterative_periods(L, jt_over_pi, eps_over_pi, n_periods):
    params = FloquetParams.from_dimensionless(L, jt_over_pi, eps_over_pi)
    stream = iter_return_probability(polarized_state(L), params)
    return np.array(list(itertools.islice(stream, n_periods)))


def _iterative_pairs(L, jt_over_pi, eps_over_pi, n_pairs):
    return _iterative_periods(L, jt_over_pi, eps_over_pi, 2 * n_pairs)[1::2]


def _orbit_of_members(basis) -> tuple[np.ndarray, np.ndarray]:
    """Representative and orbit size at every basis index the basis holds (-1 elsewhere)."""
    column = np.repeat(np.arange(basis.sizes.size), basis.sizes)
    starts = np.cumsum(basis.sizes) - basis.sizes
    representative = np.full(2**basis.L, -1)
    size = np.full(2**basis.L, -1)
    representative[basis.members] = basis.members[starts][column]
    size[basis.members] = basis.sizes[column]
    return representative, size


def _assert_symmetric(basis, images, characters):
    """The lifted states are orthonormal, and reading one at the images of element g gives
    it times the conjugate character: psi[g s] = conj(chi(g)) psi[s]."""
    lifted = basis.lift(np.eye(basis.sizes.size))
    assert np.max(np.abs(lifted.conj().T @ lifted - np.eye(basis.sizes.size))) < 1e-13
    for image, character in zip(images, characters):
        assert np.max(np.abs(lifted[image] - np.conj(character) * lifted)) < 1e-13


class TestOrbits:
    """``orbit_basis`` against the brute-force dihedral images of ``_images``."""

    @given(L=st.integers(2, 14), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_translation_orbits(self, L, data):
        """A member of block m carries exp(i k j) / sqrt(N_r), j its first shift onto r."""
        index = data.draw(st.integers(0, 2**L - 1))
        rotations = _images(index, L)[:L]
        rep, orbit_size = min(rotations), len(set(rotations))
        shift = rotations.index(rep)
        for m, basis in enumerate(momentum_blocks(L)):
            representative, size = _orbit_of_members(basis)
            where = np.flatnonzero(basis.members == index)
            if m * orbit_size % L:
                assert where.size == 0
                continue
            assert (representative[index], size[index]) == (rep, orbit_size)
            # Bit for bit: the characters of block m, taken at the first shift.
            characters = np.exp(2j * np.pi * m / L * np.arange(L))
            assert basis.amplitudes[where[0]] == characters[shift] / np.sqrt(orbit_size)
        # The all-up state is an orbit of its own, in the k = 0 block only.
        holders = [m for m, basis in enumerate(momentum_blocks(L)) if 2**L - 1 in basis.members]
        assert holders == [0]

    @pytest.mark.parametrize("L", range(2, 11))
    def test_momentum_blocks_partition_the_space(self, L):
        rotations = np.array([_images(index, L)[:L] for index in range(2**L)]).T
        sizes = np.array([len(set(column)) for column in rotations.T])
        shifts = np.array([list(column).index(min(column)) for column in rotations.T])
        bases = list(momentum_blocks(L))
        assert len(bases) == L
        assert sum(basis.sizes.size for basis in bases) == 2**L
        for m, basis in enumerate(bases):
            assert np.all(m * basis.sizes % L == 0)
            assert basis.sizes.sum() == basis.members.size
            assert np.array_equal(_orbit_of_members(basis)[1][basis.members], sizes[basis.members])
            characters = np.exp(2j * np.pi * m / L * np.arange(L))
            assert np.array_equal(basis.amplitudes, characters[shifts[basis.members]]
                                  / np.sqrt(sizes[basis.members]))
            _assert_symmetric(basis, rotations, characters)
        # Together the blocks are one orthonormal basis of the whole space.
        lifted = np.hstack([basis.lift(np.eye(basis.sizes.size)) for basis in bases])
        assert np.max(np.abs(lifted.conj().T @ lifted - np.eye(2**L))) < 1e-13
        # Every orbit has a k = 0 state, so that block is the largest.
        assert max(basis.sizes.size for basis in bases) == bases[0].sizes.size

    @pytest.mark.parametrize("L", (6, 8, 9))
    def test_cancelling_stabilizers_drop_their_orbits(self, L):
        """Reflections with character -1 cancel every orbit that a reflection fixes.

        Those are all orbits below L = 6; 1, 6 and 14 chiral orbits (necklaces less
        bracelets) are left at L = 6, 8, 9.
        """
        images = np.array([_images(index, L) for index in range(2**L)]).T
        characters = np.repeat([1.0, -1.0], L)
        basis = orbit_basis(images, characters)
        kept = {min(column) for column in images.T if not any(column[L:] == column[0])}
        assert set(basis.members[np.cumsum(basis.sizes) - basis.sizes]) == kept
        assert len(kept) == {6: 1, 8: 6, 9: 14}[L]
        _assert_symmetric(basis, images, characters)
        _assert_symmetric(orbit_basis(images, np.ones(2 * L)), images, np.ones(2 * L))

    def test_bracelet_numbers(self):
        counts = [len({min(_images(index, L)) for index in range(2**L)}) for L in range(6, 12)]
        assert counts == [13, 18, 30, 46, 78, 126]
        # The k = 0 momentum blocks count the necklaces.
        assert [next(momentum_blocks(L)).sizes.size for L in (6, 8, 10)] == [14, 36, 108]


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

