"""Arithmetic-function summatory series and their growth statistics.

The package sieves five pointwise arithmetic functions (Mobius, Liouville,
the prime indicator, and the two Chebyshev log-terms), accumulates their
summatory series exactly (64-bit integers for the ±1/0 kinds, correctly
rounded sums for the Chebyshev log-terms), and measures the moment,
scaling, and dependence behaviour of the resulting deviations. Sieved
values can be checked against trial division: factor_oracle factors one
n, trial_division_counts every k in [1, n] at once, and values_from_counts
maps the FactorCounts of either to the five kinds.
"""

from .cache import fnv1a64, load, save
from .errors import (
    CorruptionError,
    DomainError,
    IntegrityError,
    ResourceError,
    SummatoriaError,
)
from .kernels import (
    FactorCounts,
    Factorization,
    FunctionKind,
    ValueTable,
    factor_oracle,
    primes_upto,
    sieve_values,
    trial_division_counts,
    values_from_counts,
)
from .moments import (
    AdjacentPrimeStats,
    LagCovariance,
    MomentReport,
    ParityCounts,
    covariance_gap,
    grid_sum_ratio,
    lag_covariance,
    moment_scan,
    pair_product_counts,
    parity_counts,
    prime_adjacent_joint,
    second_moment_decomposition,
    sum_of_squares,
)
from .scaling import (
    CoverageReport,
    ExponentFit,
    SlowGrowthSpec,
    chebyshev_bound_coverage,
    fit_exponent,
    normalized_envelope,
    slow_growth_check,
)
from .series import (
    DeviationSeries,
    MeanModel,
    SummatorySeries,
    accumulate,
    deviation_series,
    geometric_ladder,
    resolve_checkpoints,
    value_at,
)

__version__ = "0.1.0"

__all__ = [
    "AdjacentPrimeStats",
    "CorruptionError",
    "CoverageReport",
    "DeviationSeries",
    "DomainError",
    "ExponentFit",
    "FactorCounts",
    "Factorization",
    "FunctionKind",
    "IntegrityError",
    "LagCovariance",
    "MeanModel",
    "MomentReport",
    "ParityCounts",
    "ResourceError",
    "SlowGrowthSpec",
    "SummatoriaError",
    "SummatorySeries",
    "ValueTable",
    "accumulate",
    "chebyshev_bound_coverage",
    "covariance_gap",
    "deviation_series",
    "factor_oracle",
    "fit_exponent",
    "fnv1a64",
    "geometric_ladder",
    "grid_sum_ratio",
    "lag_covariance",
    "load",
    "moment_scan",
    "normalized_envelope",
    "pair_product_counts",
    "parity_counts",
    "prime_adjacent_joint",
    "primes_upto",
    "resolve_checkpoints",
    "save",
    "second_moment_decomposition",
    "sieve_values",
    "slow_growth_check",
    "sum_of_squares",
    "trial_division_counts",
    "value_at",
    "values_from_counts",
    "__version__",
]
