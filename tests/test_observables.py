"""Fourier, lifetime, and magnetization diagnostics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kicked_ising import (
    StateVector,
    average_return,
    first_crossing,
    fourier_spectrum,
    lifetime,
    local_sz,
    polarized_state,
    return_probability,
)

from kicked_ising.observables import _sz_profile

from conftest import random_state


class TestFourierSpectrum:
    def test_alternating_sequence_peaks_at_half_frequency(self):
        x = np.tile([1.0, 0.0], 32)  # period-2 signal, 64 samples
        spec = fourier_spectrum(x)
        assert spec.n_samples == 64
        assert spec.peak_bin() == 32
        assert spec.frequencies[32] == pytest.approx(0.5)
        assert spec.magnitudes[32] == pytest.approx(0.5)
        assert spec.magnitudes[0] == pytest.approx(0.5)  # DC = mean

    def test_pure_cosine_lands_on_its_bin(self):
        n, k = 128, 8
        x = 0.3 + 2.0 * np.cos(2 * np.pi * k * np.arange(n) / n)
        spec = fourier_spectrum(x)
        assert spec.peak_bin() == k
        assert spec.magnitudes[k] == pytest.approx(1.0)  # amplitude/2
        assert spec.peak_bin(skip_dc=False) in (0, k)

    def test_real_series_peaks_in_the_lower_half(self):
        """Mirror bins of a real series tie to rounding; the lower one is the peak."""
        n, k = 64, 6
        x = 0.3 + np.cos(2 * np.pi * k * np.arange(n) / n)
        spec = fourier_spectrum(x)
        assert spec.magnitudes[n - k] == pytest.approx(spec.magnitudes[k], rel=1e-14)
        assert spec.peak_bin() == k
        assert spec.peak_bin(skip_dc=False) == k

    def test_parseval(self, rng):
        x = rng.normal(size=200)
        spec = fourier_spectrum(x)
        assert np.sum(spec.magnitudes**2) == pytest.approx(np.mean(x**2), abs=1e-12)

    def test_needs_at_least_two_samples(self):
        with pytest.raises(ValueError):
            fourier_spectrum([1.0])
        with pytest.raises(ValueError):
            fourier_spectrum(np.ones((3, 3)))


class TestLifetime:
    def test_first_crossing_is_one_based(self):
        result = lifetime([0.9, 0.6, 0.04, 0.9])
        assert result.n_star == 3
        assert not result.censored
        assert result.effective_n() == 3

    def test_first_crossing_stops_consuming_at_the_crossing(self):
        drawn = []

        def samples():
            for p in (0.9, 0.6, 0.04, 0.01, 0.9):
                drawn.append(p)
                yield p

        assert first_crossing(samples(), 0.05) == 3
        assert drawn == [0.9, 0.6, 0.04]
        assert first_crossing(iter([0.9, 0.8]), 0.05) is None
        assert first_crossing([], 0.05) is None

    def test_censored_run(self):
        result = lifetime([0.9, 0.8], threshold=0.05)
        assert result.n_star is None
        assert result.censored
        assert result.effective_n() == 2

    def test_crossing_is_strict(self):
        # A sample exactly at the threshold does not count as below it.
        assert lifetime([0.05], threshold=0.05).censored
        assert lifetime([0.049999], threshold=0.05).n_star == 1

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            lifetime([0.5], threshold=0.0)
        with pytest.raises(ValueError):
            lifetime([0.5], threshold=1.0)
        with pytest.raises(ValueError):
            lifetime([])

    @given(
        samples=st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=1, max_size=50),
        t1=st.floats(0.01, 0.99),
        t2=st.floats(0.01, 0.99),
    )
    @settings(max_examples=80, deadline=None)
    def test_lower_threshold_never_shortens_the_lifetime(self, samples, t1, t2):
        lo, hi = sorted((t1, t2))
        assert lifetime(samples, lo).effective_n() >= lifetime(samples, hi).effective_n()


class TestAverageReturn:
    def test_mean_over_window(self):
        assert average_return([1.0, 0.5, 0.0, 0.0], window=2) == pytest.approx(0.75)

    def test_window_validation(self):
        with pytest.raises(ValueError):
            average_return([1.0, 0.5], window=3)
        with pytest.raises(ValueError):
            average_return([1.0], window=0)


class TestStateDiagnostics:
    def test_return_probability_examples(self):
        up = polarized_state(3, "up")
        down = polarized_state(3, "down")
        assert return_probability(up, up) == pytest.approx(1.0)
        assert return_probability(up, down) == pytest.approx(0.0)

    def test_local_sz_on_polarized_states(self):
        up = polarized_state(4, "up")
        for site in range(4):
            assert local_sz(up, site) == pytest.approx(1.0)
            assert local_sz(polarized_state(4, "down"), site) == pytest.approx(-1.0)

    def test_local_sz_matches_brute_force(self, rng):
        state = StateVector(4, random_state(4, rng))
        w = np.abs(state.amplitudes) ** 2
        for site in range(4):
            expected = sum(
                w[k] * (1.0 if (k >> site) & 1 else -1.0) for k in range(16)
            )
            assert local_sz(state, site) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("L", range(2, 13))
    def test_sz_profile_matches_local_sz(self, L, rng):
        """The one-pass marginal trees give every site's sigma^z of a random state from the
        weights summed over the high sites and over the low sites, for every split of the
        chain, none of its sites high included."""
        for _ in range(3):
            state = StateVector(L, random_state(L, rng))
            expected = [local_sz(state, site) for site in range(L)]
            for high in range(L):
                weights = (np.abs(state.amplitudes) ** 2).reshape(1 << high, -1)
                profile = _sz_profile(weights.sum(axis=0), weights.sum(axis=1))
                assert np.max(np.abs(profile - expected)) <= 1e-14

    def test_local_sz_site_range(self):
        with pytest.raises(ValueError):
            local_sz(polarized_state(3), 3)
