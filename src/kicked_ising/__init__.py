"""Exact stroboscopic dynamics of a periodically kicked Ising chain.

The package builds around a two-part drive on a periodic chain of L
spins-1/2: a global x rotation by pi/2 - epsilon on every site, followed by
a nearest-neighbour Ising phase accumulated for one period.  Everything is
exact: states are dense vectors over the 2**L computational basis, and one
drive period is a few real matrix products with Kronecker factors of the
kick (at most four sites each, in the frame where the kick is real) plus a
diagonal phase, split over OpenBLAS's threads from 18 sites on.  The
chain's free fermions give the rest in closed form, from the two parity
sectors: the return probability of the all-up start, behind the lifetime,
phase-diagram and Fourier sweeps, with no 2**L array, and every
quasi-energy level as a sum of mode phases.  No array may exceed
``MAX_ARRAY_BYTES`` (256 MiB), which allows states up to 24 sites, spectra
up to 25, the dense propagator up to 12 and the closed-form stream up to
32767.  A drive is ``FloquetParams(L, jt, epsilon)``: time is counted in
periods, so quasi-energies are in units of ``1/T`` on ``(-pi, pi]``.

Quick start::

    from kicked_ising import FloquetParams, polarized_state, evolve_stroboscopic

    params = FloquetParams.from_dimensionless(L=8, jt_over_pi=1.0, epsilon_over_pi=0.05)
    series = evolve_stroboscopic(polarized_state(8), params, n_periods=200)
    print(series.return_probability[:4])
"""

__version__ = "0.1.0"

from .states import (
    MAX_ARRAY_BYTES,
    CapacityError,
    FloquetParams,
    StateVector,
    bond_sum,
    bond_sum_table,
    overlap,
    polarized_state,
    product_state,
)
from .engine import (
    DensePropagator,
    StroboscopicSeries,
    apply_global_x_rotation,
    apply_zz_phase,
    build_dense_propagator,
    evolve_stroboscopic,
    floquet_step,
    iter_return_probability,
)
from .observables import (
    FourierSpectrum,
    LifetimeResult,
    average_return,
    first_crossing,
    fourier_spectrum,
    lifetime,
    local_sz,
    return_probability,
)
from .spectral import (
    EXACT_PAIR_TOL,
    GapStatistics,
    PairCounts,
    QuasiEnergySpectrum,
    check_time_reflection,
    count_exact_pi_pairs,
    fold_to_branch,
    gap_statistics,
    propagator_spectrum,
    quasi_energies,
)
from .magnon import (
    MagnonPrediction,
    c1_magnitude,
    predicted_P2T,
    predicted_P2T_unexpanded,
    predicted_return,
)
from .sweep import (
    ConfigError,
    SweepConfig,
    SweepResult,
    parse_config,
    run_sweep,
)

__all__ = [
    "__version__",
    # states
    "MAX_ARRAY_BYTES", "CapacityError", "FloquetParams",
    "StateVector", "bond_sum", "bond_sum_table", "overlap", "polarized_state",
    "product_state",
    # engine
    "DensePropagator", "StroboscopicSeries", "apply_global_x_rotation", "apply_zz_phase",
    "build_dense_propagator", "evolve_stroboscopic", "floquet_step", "iter_return_probability",
    # observables
    "FourierSpectrum", "LifetimeResult", "average_return", "first_crossing",
    "fourier_spectrum", "lifetime", "local_sz", "return_probability",
    # spectral
    "EXACT_PAIR_TOL", "GapStatistics", "PairCounts", "QuasiEnergySpectrum",
    "check_time_reflection", "count_exact_pi_pairs", "fold_to_branch",
    "gap_statistics", "propagator_spectrum", "quasi_energies",
    # magnon
    "MagnonPrediction", "c1_magnitude", "predicted_P2T",
    "predicted_P2T_unexpanded", "predicted_return",
    # sweep
    "ConfigError", "SweepConfig", "SweepResult", "parse_config", "run_sweep",
]
