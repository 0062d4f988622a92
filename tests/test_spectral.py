"""Quasi-energy extraction, pairing statistics, and the reflection symmetry."""

import itertools
import math

import numpy as np
import pytest
import scipy.linalg

from kicked_ising import (
    EXACT_PAIR_TOL,
    FloquetParams,
    PairCounts,
    QuasiEnergySpectrum,
    StateVector,
    build_dense_propagator,
    check_time_reflection,
    count_exact_pi_pairs,
    evolve_stroboscopic,
    floquet_step,
    fold_to_branch,
    gap_statistics,
    polarized_state,
    propagator_spectrum,
    quasi_energies,
)

from kicked_ising import engine, sectors, states
from kicked_ising.engine import _kick_factor

from conftest import (momentum_blocks, oracle_propagator, orbit_representatives, pair_manifold_weight,
                      paired_superposition, random_state, reflection_operator, schur_spectrum,
                      transfer_return_amplitude, transfer_trace)

#: (JT/pi, epsilon/pi) drive points of the time-reflection comparisons.
DRIVES = ((1.0, 0.1), (0.5, 0.1), (1.0, 0.0), (0.2, 0.35), (0.0, 0.0), (1.3, 0.2341))


class TestFoldToBranch:
    def test_edges_and_interior(self):
        assert fold_to_branch(0.0) == pytest.approx(0.0)
        assert fold_to_branch(math.pi) == pytest.approx(math.pi)
        assert fold_to_branch(-math.pi) == pytest.approx(math.pi)  # branch is half-open
        assert fold_to_branch(1.5 * math.pi) == pytest.approx(-0.5 * math.pi)
        assert fold_to_branch(-1.5 * math.pi) == pytest.approx(0.5 * math.pi)

    def test_array_and_period(self):
        folded = fold_to_branch(np.array([2.0 * math.pi, 3.0 * math.pi]))
        assert np.allclose(folded, [0.0, math.pi])


class TestQuasiEnergies:
    def test_identity_and_global_phase(self):
        spec = quasi_energies(np.eye(4, dtype=complex))
        assert np.allclose(spec.energies, 0.0)
        spec = quasi_energies(np.exp(-1j * math.pi / 2) * np.eye(4, dtype=complex))
        assert np.allclose(spec.energies, math.pi / 2)

    def test_diagonal_example_sorted_on_branch(self):
        targets = np.array([math.pi, -math.pi / 2, 0.0, math.pi / 2])
        U = np.diag(np.exp(-1j * targets))
        spec = quasi_energies(U)
        assert np.allclose(spec.energies, sorted(targets), atol=1e-14)
        assert spec.dim == 4
        assert spec.L == 2

    def test_rejects_non_unitary_and_non_square(self):
        with pytest.raises(ValueError, match="unitary"):
            quasi_energies(np.diag([1.0, 0.5]).astype(complex))
        with pytest.raises(ValueError, match="square"):
            quasi_energies(np.ones((2, 3), dtype=complex))

    def test_eigvals_and_schur_paths_agree(self):
        params = FloquetParams.from_dimensionless(5, 0.83, 0.12)
        U = build_dense_propagator(params).matrix
        fast = quasi_energies(np.exp(0.25j * params.jt * params.L) * U)
        energies, _ = schur_spectrum(params)
        assert np.max(np.abs(fast.energies - energies)) < 1e-10

    def test_reconstruction_from_schur_vectors(self):
        params = FloquetParams.from_dimensionless(5, 0.83, 0.12)
        U = build_dense_propagator(params).matrix
        energies, V = schur_spectrum(params)
        assert np.max(np.abs(V.conj().T @ V - np.eye(energies.size))) < 1e-12
        rebuilt = V @ np.diag(np.exp(-1j * energies)) @ V.conj().T
        assert np.max(np.abs(np.exp(-0.25j * params.jt * params.L) * rebuilt - U)) < 1e-9

    @pytest.mark.parametrize("L", range(2, 9))
    def test_kept_schur_vectors_are_sorted_by_one_permutation(self, L):
        """The oracle's one lexsort is the Schur sorted by raw level, aligned, and sorted again,
        both sorts stable: ties in the aligned level fall to the raw level, then to the Schur
        order.  The drives have degenerate clusters, where that order picks the anchors."""
        for jt_over_pi, eps_over_pi in ((1.0, 0.0), (1.0, 0.1), (0.0, 0.0)):
            params = FloquetParams.from_dimensionless(L, jt_over_pi, eps_over_pi)
            U = build_dense_propagator(params).matrix
            triangular, vectors = scipy.linalg.schur(U, output="complex")
            raw = fold_to_branch(-np.angle(np.diag(triangular)))
            first = np.argsort(raw, kind="stable")
            aligned = fold_to_branch(raw[first] - 0.25 * params.jt * L)
            second = np.argsort(aligned, kind="stable")
            energies, kept = schur_spectrum(params)
            assert np.array_equal(energies, aligned[second])
            assert np.array_equal(kept, vectors[:, first][:, second])


class TestGapStatistics:
    def test_four_level_example(self):
        energies = np.array([-math.pi / 2, 0.0, math.pi / 2, math.pi])
        stats = gap_statistics(QuasiEnergySpectrum(L=2, energies=energies))
        assert stats.delta0_mean == pytest.approx(math.pi / 2)
        assert stats.delta_pi_mean == pytest.approx(0.0, abs=1e-15)
        assert stats.ratio == pytest.approx(0.0, abs=1e-15)

    def test_synthetic_rigid_pairs_have_zero_pi_deviation(self, rng):
        g = np.sort(rng.uniform(0.05, math.pi / 2 - 0.05, size=8))
        energies = np.concatenate([g - math.pi, g])  # each level has a partner at +pi
        stats = gap_statistics(QuasiEnergySpectrum(L=4, energies=energies))
        assert stats.delta_pi_mean == pytest.approx(0.0, abs=1e-14)

    def test_degenerate_spectrum_gives_infinite_ratio(self):
        energies = np.zeros(4)
        stats = gap_statistics(QuasiEnergySpectrum(L=2, energies=energies))
        assert math.isinf(stats.ratio)

    def test_a_level_crossing_the_branch_edge_changes_nothing(self, rng):
        """A level at pi that rounding folds to -pi moves no figure."""
        inner = rng.uniform(-math.pi + 0.1, math.pi - 0.1, size=7)

        def stats(level):
            energies = np.sort(np.append(inner, level))
            return gap_statistics(QuasiEnergySpectrum(L=3, energies=energies))

        at_edge, folded = stats(math.pi), stats(-math.pi + 1e-15)
        assert folded.delta0_mean == pytest.approx(at_edge.delta0_mean, rel=1e-13)
        assert folded.delta_pi_mean == pytest.approx(at_edge.delta_pi_mean, rel=1e-13)
        assert folded.ratio == pytest.approx(at_edge.ratio, rel=1e-13)

    def test_odd_dimension_rejected(self):
        with pytest.raises(ValueError):
            gap_statistics(QuasiEnergySpectrum(L=2, energies=np.zeros(3)))


def _circular_mismatch(a: np.ndarray, b: np.ndarray) -> float:
    """Largest level distance of the best one-to-one matching of two T = 1 spectra on the circle.

    Both are cut open in the middle of the largest gap of ``b``; on the line
    the sorted orders match best.
    """
    period = 2.0 * math.pi
    gaps = np.diff(np.append(b, b[0] + period))
    cut = b[np.argmax(gaps)] + gaps.max() / 2
    return float(np.max(np.abs(np.sort(np.mod(a - cut, period)) - np.sort(np.mod(b - cut, period)))))


#: (JT/pi, eps/pi): degenerate perfect kicks at JT = 0 and pi, the benchmark's
#: locked and melted points, and a generic point.
BLOCK_GRID = ((0.0, 0.0), (1.0, 0.0), (1.0, 0.1), (0.5, 0.2341), (1.3, 0.1))


class TestMomentumBlocks:
    @staticmethod
    def _dense(params):
        """The dense oracle: one diagonalization of the whole aligned propagator."""
        U = build_dense_propagator(params).matrix
        return quasi_energies(np.exp(0.25j * params.jt * params.L) * U)

    @pytest.mark.parametrize("L", range(2, 11))
    def test_levels_counts_and_statistics_match_the_dense_oracle(self, L):
        for jt_over_pi, eps_over_pi in BLOCK_GRID:
            params = FloquetParams.from_dimensionless(L, jt_over_pi, eps_over_pi)
            blocks, dense = propagator_spectrum(params), self._dense(params)
            assert blocks.dim == 2**L and blocks.L == L
            assert np.all(np.diff(blocks.energies) >= 0)
            assert _circular_mismatch(blocks.energies, dense.energies) <= 1e-12
            assert count_exact_pi_pairs(blocks) == count_exact_pi_pairs(dense)
            ours, theirs = gap_statistics(blocks), gap_statistics(dense)
            for name in ("delta0_mean", "delta_pi_mean", "ratio"):
                assert abs(getattr(ours, name) - getattr(theirs, name)) <= 1e-12, name

    @pytest.mark.parametrize("L", range(2, 11))
    def test_lifted_vectors_are_orthonormal_eigenvectors(self, L):
        for jt_over_pi, eps_over_pi in ((1.0, 0.1), (0.0, 0.0)):
            params = FloquetParams.from_dimensionless(L, jt_over_pi, eps_over_pi)
            energies, V = schur_spectrum(params)
            assert np.max(np.abs(V.conj().T @ V - np.eye(2**L))) <= 1e-12
            phase = np.exp(0.25j * params.jt * L)
            eigenvalues = np.exp(-1j * energies) / phase
            U = build_dense_propagator(params).matrix
            assert np.max(np.linalg.norm(U @ V - V * eigenvalues, axis=0)) <= 1e-12


#: (JT/pi, eps/pi) of the level traces: the locked point, the bare kick and a generic drive.
TRACE_DRIVES = ((1.0, 0.1), (0.0, 0.1), (0.5, 0.2341))
#: Bound on |sum_j exp(i m phi_j) - Tr T_m**L| over 2**L: at most 6.7e-15 measured over these
#: drives, m = 1..8 and L = 11-16, 20 and 22.  Perfect kicks (eps = 0) reach 2.8e-14.
LEVEL_TRACE_TOL = 5e-14
#: (JT/pi, eps/pi) of the level comparison with the momentum blocks.
LEVEL_DRIVES = tuple(itertools.product((0.0, 0.5, 0.9, 1.0, 1.3, 2.0),
                                       (0.0, 0.1, -0.2, 0.2341, 0.3)))


class TestFreeFermionLevels:
    @staticmethod
    def _blocks(params):
        """The spectra of the propagator's momentum blocks, split by the spin flip
        (``conftest.momentum_blocks``), merged and aligned, from eigvals.  Only the columns of
        the orbit representatives are stepped, as the dense builder steps all of them."""
        L = params.L
        reps = orbit_representatives(L)
        basis = np.zeros((reps.size, 1 << L), dtype=complex)
        basis[np.arange(reps.size), reps] = 1.0
        columns = engine._stacked_period(basis, L, params.theta, params.jt).T
        energies = np.concatenate([quasi_energies(block).energies
                                   for block in momentum_blocks(columns, L)])
        aligned = fold_to_branch(energies - 0.25 * params.jt * params.L)
        return QuasiEnergySpectrum(params.L, np.sort(aligned))

    @pytest.mark.parametrize("L", (11, 12))
    @pytest.mark.parametrize("jt_over_pi", sorted({jt for jt, _ in LEVEL_DRIVES}))
    def test_levels_match_the_blocks_past_the_dense_oracle(self, L, jt_over_pi):
        for eps_over_pi in (eps for jt, eps in LEVEL_DRIVES if jt == jt_over_pi):
            params = FloquetParams.from_dimensionless(L, jt_over_pi, eps_over_pi)
            levels, blocks = propagator_spectrum(params), self._blocks(params)
            assert _circular_mismatch(levels.energies, blocks.energies) <= 1e-12
            assert count_exact_pi_pairs(levels) == count_exact_pi_pairs(blocks)
            ours, theirs = gap_statistics(levels), gap_statistics(blocks)
            assert abs(ours.delta0_mean - theirs.delta0_mean) <= 1e-12
            assert abs(ours.delta_pi_mean - theirs.delta_pi_mean) <= 1e-12
            if theirs.ratio > 1e-3:
                assert ours.ratio == pytest.approx(theirs.ratio, rel=1e-12, abs=0)
            else:
                assert abs(ours.ratio - theirs.ratio) <= 1e-11

    @pytest.mark.parametrize("L", (*range(11, 17), 20))
    def test_level_traces_match_the_transfer_matrix(self, L):
        """``sum_j exp(i m phi_j) = Tr U**m = Tr T_m**L`` (``conftest.transfer_trace``) for
        m = 1..8, past the dense oracle.  One mode phase off by 1e-9 misses the bound."""
        for jt_over_pi, eps_over_pi in TRACE_DRIVES:
            params = FloquetParams.from_dimensionless(L, jt_over_pi, eps_over_pi)
            levels = sectors.free_fermion_levels(params)
            for m in range(1, 9):
                traced = transfer_trace(L, params.jt, params.epsilon, m)
                assert abs(np.exp(1j * m * levels).sum() - traced) <= LEVEL_TRACE_TOL * 2**L, m

    @pytest.mark.parametrize("L, anchored", [(14, 432), (18, 2592)])
    def test_exact_pairing_past_the_blocks(self, L, anchored):
        """At JT = pi every level of these chains has a partner pi away."""
        spec = propagator_spectrum(FloquetParams.from_dimensionless(L, 1.0, 0.1))
        assert spec.dim == 2**L and np.all(np.diff(spec.energies) >= 0)
        assert gap_statistics(spec).delta_pi_mean <= EXACT_PAIR_TOL
        assert count_exact_pi_pairs(spec) == PairCounts(anchored, anchored)


class TestTransferMatrix:
    """The transfer-matrix traces of ``conftest`` against powers of the expm oracle."""

    @pytest.mark.parametrize("L", range(2, 8))
    def test_traces_are_those_of_the_dense_powers(self, L):
        for jt_over_pi, eps_over_pi in (*TRACE_DRIVES, (1.3, -0.3), (0.9, 0.0)):
            params = FloquetParams.from_dimensionless(L, jt_over_pi, eps_over_pi)
            U = oracle_propagator(L, params.jt, params.epsilon)
            power = np.eye(2**L)
            for m in range(1, 11):
                power = U @ power
                if m <= 8:
                    traced = transfer_trace(L, params.jt, params.epsilon, m)
                    assert abs(np.trace(power) - traced) <= 1e-13 * 2**L
                amplitude = transfer_return_amplitude(L, params.jt, params.epsilon, m)
                assert abs(power[-1, -1] - amplitude) <= 1e-13  # all up: the last index


class TestMomentumBlockOracle:
    """``conftest.momentum_blocks`` against the whole dense spectrum."""

    @pytest.mark.parametrize("L", range(2, 9))
    def test_blocks_partition_the_dense_spectrum(self, L):
        for jt_over_pi, eps_over_pi in ((1.0, 0.1), (0.5, 0.2341), (1.3, -0.3)):
            params = FloquetParams.from_dimensionless(L, jt_over_pi, eps_over_pi)
            U = oracle_propagator(L, params.jt, params.epsilon)
            blocks = momentum_blocks(U[:, orbit_representatives(L)], L)
            assert sum(block.shape[0] for block in blocks) == 2**L
            merged = np.sort(np.concatenate([quasi_energies(b).energies for b in blocks]))
            assert _circular_mismatch(merged, quasi_energies(U).energies) <= 1e-12


class TestReflectionOperator:
    def test_single_site_matrix(self):
        assert np.array_equal(reflection_operator(1), np.array([[0.0, -1.0], [1.0, 0.0]]))

    def test_two_site_matrix(self):
        expected = np.array(
            [
                [0.0, 0.0, 0.0, 1.0],
                [0.0, 0.0, -1.0, 0.0],
                [0.0, -1.0, 0.0, 0.0],
                [1.0, 0.0, 0.0, 0.0],
            ]
        )
        assert np.array_equal(reflection_operator(2), expected)

    @pytest.mark.parametrize("L", [1, 2, 3, 4, 5])
    def test_unitary_and_squares_to_parity_sign(self, L):
        R = reflection_operator(L)
        dim = 2**L
        assert np.max(np.abs(R @ R.T - np.eye(dim))) < 1e-14
        assert np.max(np.abs(R @ R - (-1.0) ** L * np.eye(dim))) < 1e-14

    def test_validation(self):
        with pytest.raises(ValueError):
            reflection_operator(0)


class TestTimeReflection:
    @pytest.mark.parametrize("L", [3, 4, 5, 6, 16])
    def test_exact_at_jt_pi_for_any_kick(self, L):
        for eps_over_pi in (0.1, 0.1177):
            params = FloquetParams.from_dimensionless(L, 1.0, eps_over_pi)
            assert check_time_reflection(params) < 1e-12

    @pytest.mark.parametrize("L", [3, 4, 5, 6, 16])
    def test_broken_away_from_jt_pi(self, L):
        params = FloquetParams.from_dimensionless(L, 0.5, 0.1)
        assert check_time_reflection(params) > 1e-2

    @pytest.mark.parametrize("n", range(1, 6))
    def test_kick_factors_are_reflection_invariant(self, n):
        """R conj(F) R^T == F bit for bit for every kick factor F = k^(x)n."""
        s = reflection_operator(n).sum(axis=1)
        for theta in (0.4 * math.pi, 0.2659 * math.pi, 1.3):
            F = _kick_factor(n, theta)
            assert np.array_equal(np.outer(s, s) * F.conj()[::-1, ::-1], F)

    @pytest.mark.parametrize("L", range(2, 9))
    def test_index_reversal_equals_the_dense_product(self, L):
        """R A R^T is the signed index reversal (s s^T) * A[::-1, ::-1], bit for bit."""
        R = reflection_operator(L)
        s = R.sum(axis=1)
        for jt_over_pi, eps_over_pi in DRIVES:
            params = FloquetParams.from_dimensionless(L, jt_over_pi, eps_over_pi)
            A = build_dense_propagator(params).matrix.conj()
            assert np.array_equal(R @ A @ R.T, np.outer(s, s) * A[::-1, ::-1])

    @pytest.mark.parametrize("L", range(2, 11))
    def test_factored_residual_equals_the_dense_product(self, L):
        """The residual from U's two factors is max |R conj(U) R^T - i^L U| of the dense U."""
        R = reflection_operator(L)
        for jt_over_pi, eps_over_pi in DRIVES:
            params = FloquetParams.from_dimensionless(L, jt_over_pi, eps_over_pi)
            U = build_dense_propagator(params).matrix
            dense = float(np.max(np.abs(R @ U.conj() @ R.T - 1j ** (L % 4) * U)))
            assert abs(check_time_reflection(params) - dense) <= 1e-15

    @pytest.mark.parametrize("L", range(2, 17))
    def test_bond_sum_values_equal_the_phase_table(self, L):
        """The L // 2 + 1 bond sums give the residual of the phases the loop looks up for the
        whole basis, bit for bit."""
        for jt_over_pi, eps_over_pi in DRIVES:
            params = FloquetParams.from_dimensionless(L, jt_over_pi, eps_over_pi)
            d = engine._zz_phases(L, params.jt)[states._domain_walls(L)]
            kick = max(abs(math.cos(params.theta)), abs(math.sin(params.theta))) ** L
            table = float(np.max(np.abs(d.conj() - 1j ** (L % 4) * d))) * kick
            assert check_time_reflection(params) == table

    def test_a_thousand_sites_without_a_table(self, monkeypatch):
        def refuse(L):
            raise AssertionError(f"bond_sum_table({L}) was called")

        monkeypatch.setattr(states, "bond_sum_table", refuse)
        monkeypatch.setattr(engine, "bond_sum_table", refuse)
        assert check_time_reflection(FloquetParams.from_dimensionless(1000, 1.0, 0.0)) < 1e-12
        assert check_time_reflection(FloquetParams.from_dimensionless(1000, 0.5, 0.0)) > 1e-2


class TestPairCounting:
    def test_tolerance_drives_the_count(self):
        energies = np.sort(
            np.array([0.0, 1e-12, -math.pi + 3e-11, math.pi - 1e-9, 0.4])
        )
        spec = QuasiEnergySpectrum(L=2, energies=energies)
        counts = count_exact_pi_pairs(spec)
        assert counts.n_zero == 2
        # -pi + 3e-11 sits 3e-11 from the pi anchor across the branch edge;
        # pi - 1e-9 misses the default 1e-10 tolerance.
        assert counts.n_pi == 1
        loose = count_exact_pi_pairs(spec, tol=1e-8)
        assert loose.n_pi == 2

    def test_aligned_counts_at_the_special_point(self):
        spec = propagator_spectrum(FloquetParams.from_dimensionless(4, 1.0, 0.1))
        counts = count_exact_pi_pairs(spec)
        assert (counts.n_zero, counts.n_pi) == (4, 6)

    def test_raw_reference_swaps_the_anchors_for_this_size(self):
        # exp(+i JT L / 4) = -1 at L = 4, JT = pi: a rigid half-period shift.
        params = FloquetParams.from_dimensionless(4, 1.0, 0.1)
        raw = count_exact_pi_pairs(quasi_energies(build_dense_propagator(params).matrix))
        assert (raw.n_zero, raw.n_pi) == (6, 4)


class TestPairedStates:
    @pytest.fixture
    def paired_spectrum(self):
        params = FloquetParams.from_dimensionless(4, 1.0, 0.1)
        return params, *schur_spectrum(params)

    @staticmethod
    def _anchor_indices(energies):
        zero_index = int(np.argmin(np.abs(fold_to_branch(energies))))
        pi_index = int(np.argmin(np.abs(fold_to_branch(energies - math.pi))))
        return zero_index, pi_index

    def test_superposition_swaps_and_revives(self, paired_spectrum):
        params, energies, vectors = paired_spectrum
        zero_index, pi_index = self._anchor_indices(energies)
        plus = StateVector(4, paired_superposition(vectors, zero_index, pi_index, sign=+1))
        minus = StateVector(4, paired_superposition(vectors, zero_index, pi_index, sign=-1))
        once = floquet_step(plus, params)
        # One period maps the + combination onto the - one (up to global phase)...
        assert abs(np.vdot(minus.amplitudes, once.amplitudes)) == pytest.approx(1.0, abs=1e-10)
        # ...and two periods bring it back exactly.
        twice = floquet_step(once, params)
        p2 = abs(np.vdot(plus.amplitudes, twice.amplitudes)) ** 2
        assert p2 == pytest.approx(1.0, abs=1e-10)

    def test_manifold_weight_of_a_paired_state_is_one(self, paired_spectrum):
        _, energies, vectors = paired_spectrum
        state = paired_superposition(vectors, *self._anchor_indices(energies))
        assert pair_manifold_weight(state, energies, vectors) == pytest.approx(1.0, abs=1e-10)

    def test_manifold_weight_is_a_probability(self, paired_spectrum, rng):
        _, energies, vectors = paired_spectrum
        weight = pair_manifold_weight(random_state(4, rng), energies, vectors)
        assert 0.0 <= weight <= 1.0 + 1e-12

    def test_polarized_state_weight_at_eight_sites(self):
        energies, vectors = schur_spectrum(FloquetParams.from_dimensionless(8, 1.0, 0.1))
        weight = pair_manifold_weight(polarized_state(8).amplitudes, energies, vectors)
        assert weight == pytest.approx(0.854990, abs=1e-5)


def test_paired_state_revival_survives_evolution():
    """The constructed superposition returns to itself every second period."""
    params = FloquetParams.from_dimensionless(4, 1.0, 0.1)
    energies, vectors = schur_spectrum(params)
    zero_index = int(np.argmin(np.abs(fold_to_branch(energies))))
    pi_index = int(np.argmin(np.abs(fold_to_branch(energies - math.pi))))
    state = StateVector(4, paired_superposition(vectors, zero_index, pi_index))
    series = evolve_stroboscopic(state, params, 40)
    assert np.min(series.return_probability[1::2]) > 1.0 - 1e-10
