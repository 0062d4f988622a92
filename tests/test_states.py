"""Basis conventions, parameter containers, and state constructors."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kicked_ising import (
    MAX_ARRAY_BYTES,
    CapacityError,
    FloquetParams,
    StateVector,
    apply_global_x_rotation,
    bond_sum,
    bond_sum_table,
    overlap,
    polarized_state,
    product_state,
)

import kicked_ising
from kicked_ising import blas, states

from conftest import random_state


class TestFloquetParams:
    def test_jt_and_theta(self):
        params = FloquetParams(L=4, jt=0.9 * math.pi, epsilon=0.1 * math.pi)
        assert params.jt == pytest.approx(0.9 * math.pi)
        assert params.theta == pytest.approx(math.pi / 2 - 0.1 * math.pi)

    def test_from_dimensionless_units(self):
        params = FloquetParams.from_dimensionless(6, jt_over_pi=1.0, epsilon_over_pi=0.05)
        assert params.jt == pytest.approx(math.pi)
        assert params.epsilon == pytest.approx(0.05 * math.pi)

    def test_validation(self):
        with pytest.raises(ValueError):
            FloquetParams(L=1, jt=1.0, epsilon=0.0)
        with pytest.raises(TypeError):
            FloquetParams(L=4.0, jt=1.0, epsilon=0.0)
        with pytest.raises(TypeError):
            FloquetParams(L=4, jt=1.0, epsilon=0.0, T=1.0)  # time is counted in periods
        with pytest.raises(TypeError):
            FloquetParams(L=4, jt=1.0, epsilon=0.0, boundary="open")

    def test_drive_must_be_finite(self):
        for jt, epsilon in ((math.inf, 0.1), (0.9, math.nan), (-math.inf, 0.0)):
            with pytest.raises(ValueError, match="drive parameters must be finite"):
                FloquetParams(L=4, jt=jt, epsilon=epsilon)
        with pytest.raises(ValueError, match="drive parameters must be finite"):
            FloquetParams.from_dimensionless(4, 1e308, 0.1)  # finite in units of pi, not in radians

    def test_capacity_error_is_a_value_error(self):
        assert issubclass(CapacityError, ValueError)

    def test_any_length_is_a_drive(self):
        """A drive allocates nothing, so no array budget limits L."""
        assert FloquetParams(L=32, jt=1.0, epsilon=0.1).L == 32
        assert FloquetParams(L=10**12, jt=1.0, epsilon=0.1).L == 10**12


class TestStateCapacity:
    """Every 2**L state allocation checks 16 * 2**L bytes against the budget: 24 sites fit."""

    def test_the_budget_is_one_state_of_24_sites(self):
        assert MAX_ARRAY_BYTES == 16 * 2**24

    @pytest.mark.parametrize("build", [
        polarized_state,
        lambda L: product_state(L, [(0.0, 0.0)] * L),
        lambda L: StateVector(L, np.zeros(1, dtype=complex)),
        bond_sum_table,
    ], ids=["polarized_state", "product_state", "StateVector", "bond_sum_table"])
    def test_25_sites_are_refused(self, build):
        with pytest.raises(CapacityError, match=r"L=25: .*512 MiB, over the 256 MiB array capacity"):
            build(25)

    def test_scalar_bond_sum_has_no_budget(self):
        assert bond_sum(0, 10**12) == 10**12
        assert bond_sum(1, 10**12) == 10**12 - 4
        assert bond_sum(1 << (10**6 - 1), 10**6) == 10**6 - 4
        assert bond_sum(1, 100) == 96
        with pytest.raises(ValueError, match="out of range"):
            bond_sum(1 << 100, 100)


class TestStateVector:
    def test_shape_and_norm_checks(self):
        with pytest.raises(ValueError, match="amplitudes"):
            StateVector(3, np.zeros(4, dtype=complex))
        with pytest.raises(ValueError, match="normalized"):
            StateVector(2, np.full(4, 0.9, dtype=complex))

    def test_amplitudes_are_read_only(self):
        state = polarized_state(3)
        with pytest.raises(ValueError):
            state.amplitudes[0] = 1.0

    def test_dim_and_norm(self, rng):
        state = StateVector(4, random_state(4, rng))
        assert state.dim == 16
        assert state.norm() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("L", [16, 18])
    def test_norm_scratch_holds_one_block(self, L, rng):
        """A scratch of one block of 2**16 reals, none, and the state's own real view (as
        evolve_stroboscopic squares its final state) give the same norm, bit for bit."""
        amps = random_state(L, rng)
        plain = states._norm(amps)
        assert states._norm(amps, np.empty(65536)) == plain
        squared = amps.copy()
        assert states._norm(squared, squared.view(np.float64)) == plain

    def test_kicked_polarized_state_at_twenty_sites_is_normalized(self):
        # np.linalg.norm puts this state 2.1e-12 off, above NORM_TOL = 1e-12.
        params = FloquetParams.from_dimensionless(20, 0.9, 0.1)
        state = apply_global_x_rotation(polarized_state(20), params.theta)
        assert abs(state.norm() - 1.0) < 1e-14


class TestPolarizedAndProduct:
    def test_polarized_indices(self):
        up = polarized_state(5, "up")
        down = polarized_state(5, "down")
        assert up.amplitudes[2**5 - 1] == 1.0
        assert np.count_nonzero(up.amplitudes) == 1
        assert down.amplitudes[0] == 1.0
        with pytest.raises(ValueError):
            polarized_state(5, "sideways")

    def test_product_matches_polarized(self):
        all_up = product_state(4, [(0.0, 0.0)] * 4)
        assert np.allclose(all_up.amplitudes, polarized_state(4, "up").amplitudes)
        all_down = product_state(4, [(math.pi, 0.0)] * 4)
        assert abs(all_down.amplitudes[0]) == pytest.approx(1.0)

    def test_single_site_superposition_indices(self):
        # Site 0 on the equator, sites 1 and 2 up: weight on indices 0b110 and 0b111.
        state = product_state(3, [(math.pi / 2, 0.0), (0.0, 0.0), (0.0, 0.0)])
        assert state.amplitudes[0b111] == pytest.approx(1 / math.sqrt(2))
        assert state.amplitudes[0b110] == pytest.approx(1 / math.sqrt(2))
        assert np.allclose(np.delete(state.amplitudes, [0b110, 0b111]), 0.0)

    def test_azimuthal_phase_lands_on_down_component(self):
        state = product_state(2, [(math.pi / 2, math.pi / 2), (0.0, 0.0)])
        # Down component of site 0 (bit 0 clear) carries exp(i phi) = i.
        assert state.amplitudes[0b10] == pytest.approx(1j / math.sqrt(2))
        assert state.amplitudes[0b11] == pytest.approx(1 / math.sqrt(2))

    def test_orientation_count_must_match(self):
        with pytest.raises(ValueError):
            product_state(3, [(0.0, 0.0)] * 2)

    def test_bits_do_not_depend_on_the_blas_threads(self):
        """The norm is a pairwise sum, so an 18-site state is the same bits on one BLAS thread
        and on the default count (``np.linalg.norm``'s threaded sum moved them from 16 sites)."""
        orientations = [(0.3, 0.2)] * 18
        threaded = product_state(18, orientations).amplitudes
        with blas.one_thread():
            assert np.array_equal(product_state(18, orientations).amplitudes, threaded)


def test_seeded_random_start_does_not_depend_on_the_blas_threads():
    """``conftest.random_state`` normalizes by the pairwise sum too, so a seeded start is the
    same bytes under one BLAS thread and three (``np.linalg.norm`` moved them at 14 and 18)."""
    script = ("import hashlib, numpy as np; from conftest import random_state; "
              "print([hashlib.sha256(random_state(L, np.random.default_rng(20260816)).tobytes())"
              ".hexdigest() for L in (14, 18)])")
    path = [str(Path(__file__).parent), str(Path(kicked_ising.__file__).parents[1]),
            os.environ.get("PYTHONPATH")]
    printed = []
    for threads in ("1", "3"):
        completed = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path)),
                 "OPENBLAS_NUM_THREADS": threads},
        )
        assert completed.returncode == 0, completed.stderr
        printed.append(completed.stdout)
    assert printed[0] == printed[1]


class TestOverlap:
    def test_basis_states_are_orthonormal(self):
        up = polarized_state(3, "up")
        down = polarized_state(3, "down")
        assert overlap(up, up) == pytest.approx(1.0)
        assert overlap(up, down) == pytest.approx(0.0)

    def test_conjugate_symmetry(self, rng):
        a = StateVector(4, random_state(4, rng))
        b = StateVector(4, random_state(4, rng))
        assert overlap(a, b) == pytest.approx(np.conj(overlap(b, a)))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            overlap(polarized_state(3), polarized_state(4))


class TestBondSum:
    def test_explicit_values(self):
        assert bond_sum(0, 4) == 4                 # all aligned
        assert bond_sum(0b1111, 4) == 4
        assert bond_sum(0b0101, 4) == -4           # Neel: every bond anti-aligned
        assert bond_sum(0b0001, 4) == 0            # one flip breaks two bonds

    def test_two_site_chain_counts_the_bond_twice(self):
        assert bond_sum(0b00, 2) == 2
        assert bond_sum(0b01, 2) == -2

    def test_table_matches_scalar(self):
        for L in (2, 3, 5, 8):
            table = bond_sum_table(L)
            assert table.shape == (2**L,)
            for k in range(2**L):
                assert table[k] == bond_sum(k, L)

    def test_table_is_the_wall_count_by_rotation(self):
        """``L - 2 popcount(k XOR rot(k))`` in int64, byte for byte; rot(k) moves bit i+1 to bit i."""
        for L in range(2, 21):
            k = np.arange(1 << L, dtype=np.int64)
            walls = np.zeros(1 << L, dtype=np.int64)
            diff = k ^ ((k >> 1) | ((k & 1) << (L - 1)))
            for site in range(L):
                walls += (diff >> site) & 1
            expected = L - 2 * walls
            table = bond_sum_table(L)
            assert table.dtype == expected.dtype
            assert table.tobytes() == expected.tobytes()

    @given(L=st.integers(2, 12), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_invariants(self, L, data):
        k = data.draw(st.integers(0, 2**L - 1))
        b = bond_sum(k, L)
        assert -L <= b <= L
        # Aligned-neighbour count parity: b differs from L by twice an even number.
        assert (b - L) % 4 == 0
        # Global spin flip and cyclic shift leave every bond unchanged.
        assert bond_sum(k ^ (2**L - 1), L) == b
        shifted = ((k << 1) | (k >> (L - 1))) & (2**L - 1)
        assert bond_sum(shifted, L) == b

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            bond_sum(16, 4)
