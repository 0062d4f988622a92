"""Exact stroboscopic dynamics of a periodically kicked Ising chain.

The package builds around a two-part drive on a periodic chain of L
spins-1/2: a global x rotation by pi/2 - epsilon on every site, followed by
a nearest-neighbour Ising phase accumulated for one period.  Everything is
exact: states are dense vectors over the 2**L computational basis, one
drive period is a few matrix products with Kronecker factors of the kick
(at most five sites each) plus a diagonal phase, and quasi-energy spectra up
to 14 sites come from the translation-momentum blocks.  The return
probability of the all-up start, behind the lifetime, phase-diagram and
Fourier sweeps, is a closed-form product over the two parity sectors of the
chain's free fermions, with no 2**L array at any size.

Quick start::

    from kicked_ising import FloquetParams, polarized_state, evolve_stroboscopic

    params = FloquetParams.from_dimensionless(L=8, jt_over_pi=1.0, epsilon_over_pi=0.05)
    series = evolve_stroboscopic(polarized_state(8), params, n_periods=200)
    print(series.return_probability[:4])
"""

__version__ = "0.1.0"

from .states import (
    DENSE_MAX_SITES,
    EVOLVE_MAX_SITES,
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
    overlap_with_pair_manifold,
    paired_superposition,
    propagator_spectrum,
    quasi_energies,
    reflection_operator,
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
    "DENSE_MAX_SITES", "EVOLVE_MAX_SITES", "CapacityError", "FloquetParams",
    "StateVector", "bond_sum", "bond_sum_table", "overlap", "polarized_state",
    "product_state",
    # engine
    "DensePropagator", "StroboscopicSeries", "apply_global_x_rotation",
    "apply_zz_phase", "build_dense_propagator", "evolve_stroboscopic",
    "floquet_step", "iter_return_probability",
    # observables
    "FourierSpectrum", "LifetimeResult", "average_return", "first_crossing",
    "fourier_spectrum", "lifetime", "local_sz", "return_probability",
    # spectral
    "EXACT_PAIR_TOL", "GapStatistics", "PairCounts", "QuasiEnergySpectrum",
    "check_time_reflection", "count_exact_pi_pairs", "fold_to_branch",
    "gap_statistics", "overlap_with_pair_manifold", "paired_superposition",
    "propagator_spectrum", "quasi_energies", "reflection_operator",
    # magnon
    "MagnonPrediction", "c1_magnitude", "predicted_P2T",
    "predicted_P2T_unexpanded", "predicted_return",
    # sweep
    "ConfigError", "SweepConfig", "SweepResult", "parse_config", "run_sweep",
]
