"""Scalar diagnostics over stroboscopic trajectories.

Lifetime and averaged-return diagnostics operate on series sampled at even
periods, ``P(2nT)`` with n = 1, 2, ...; Fourier analysis uses the full
every-period series so the period-doubled component shows up at half the
drive frequency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .states import StateVector


@dataclass(frozen=True)
class FourierSpectrum:
    """Plain DFT magnitudes of a stroboscopic sequence.

    ``frequencies`` are in units of the drive frequency (cycles per period),
    on the grid k/N for k = 0 .. N-1; ``magnitudes[k] = |sum_n x_n
    exp(-2 pi i k n / N)| / N``.  No windowing or detrending is applied.
    """

    frequencies: np.ndarray
    magnitudes: np.ndarray
    n_samples: int

    def peak_bin(self, skip_dc: bool = True) -> int:
        """Index of the largest magnitude in bins 0 .. N//2, optionally excluding bin 0.

        A real series has ``magnitudes[k] == magnitudes[N - k]`` up to
        rounding, so only the lower half is searched; otherwise rounding
        would pick between the two mirror bins.
        """
        first = 1 if skip_dc else 0
        return first + int(np.argmax(self.magnitudes[first:self.n_samples // 2 + 1]))


@dataclass(frozen=True)
class LifetimeResult:
    """First crossing of the return probability below a threshold.

    ``n_star`` is the smallest pair index n with P(2nT) < threshold, or None
    when censored (no crossing within the simulated horizon of ``n_max``
    period pairs).
    """

    n_star: Optional[int]
    censored: bool
    n_max: int
    threshold: float

    def effective_n(self) -> int:
        """n_star, with censored runs counted at the horizon."""
        return self.n_max if self.censored else int(self.n_star)


def return_probability(current: StateVector, initial: StateVector) -> float:
    """|<initial|current>|^2."""
    if current.L != initial.L:
        raise ValueError(f"state dimensions differ: L={current.L} vs L={initial.L}")
    return float(abs(np.vdot(initial.amplitudes, current.amplitudes)) ** 2)


def _sz_profile(low: np.ndarray, high: np.ndarray) -> np.ndarray:
    """sigma^z on every site of a chain from two marginals of its weights; overwrites both.

    The chain's sites split into its low sites and the sites above them.
    ``low`` holds the basis weights |amp|^2 summed over the high sites, one
    entry per state of the low sites, and ``high`` the weights summed over
    the low sites (one entry when there is no high site).  A marginal tree on
    each, in one pass: the upper half of the weights is the up weight of the
    highest site left, and the two halves added are the weights of the sites
    below it.  Halving ``low`` down to one entry leaves the total.
    """
    up = []
    for weights in (low, high):
        size = weights.size
        ups = np.empty(size.bit_length() - 1)
        for site in reversed(range(ups.size)):
            size //= 2
            lower, upper = weights[:size], weights[size:2 * size]
            ups[site] = upper.sum()
            lower += upper
        up.append(ups)
    return 2.0 * np.concatenate(up) - low[0]


def local_sz(state: StateVector, site: int) -> float:
    """Expectation of sigma^z on ``site``: sum of |amp|^2 weighted by the spin sign."""
    if not 0 <= site < state.L:
        raise ValueError(f"site {site} out of range for L={state.L}")
    weights = np.abs(state.amplitudes) ** 2
    up = weights.reshape(1 << (state.L - 1 - site), 2, 1 << site)[:, 1, :].sum()
    return float(2.0 * up - weights.sum())


def fourier_spectrum(samples) -> FourierSpectrum:
    """DFT magnitudes of a real stroboscopic sequence sampled once per period."""
    x = np.asarray(samples, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise ValueError("need a 1-D sequence of at least 2 samples")
    n = x.size
    mags = np.abs(np.fft.fft(x)) / n
    freqs = np.arange(n) / n
    return FourierSpectrum(frequencies=freqs, magnitudes=mags, n_samples=n)


def first_crossing(samples: Iterable[float], threshold: float) -> Optional[int]:
    """1-based index of the first sample strictly below ``threshold``, or None.

    Consumes ``samples`` (any iterable, e.g. an open-ended generator) only up to the crossing.
    """
    for n, p in enumerate(samples, start=1):
        if p < threshold:
            return n
    return None


def lifetime(samples, threshold: float = 0.05) -> LifetimeResult:
    """Scan P(2nT) samples (n = 1, 2, ...) for the first dip below ``threshold``."""
    p = np.asarray(samples, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("need a 1-D sequence of at least 1 sample")
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must lie in (0, 1), got {threshold}")
    n_star = first_crossing(p.tolist(), threshold)
    return LifetimeResult(n_star=n_star, censored=n_star is None, n_max=p.size, threshold=threshold)


def average_return(samples, window: int = 1000) -> float:
    """Arithmetic mean of the first ``window`` P(2nT) samples."""
    p = np.asarray(samples, dtype=float)
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if window > p.size:
        raise ValueError(f"window {window} exceeds the {p.size} available samples")
    return float(np.mean(p[:window]))
