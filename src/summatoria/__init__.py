"""Arithmetic-function summatory series and their growth statistics.

The package sieves five pointwise arithmetic functions (Mobius, Liouville,
the prime indicator, and the two Chebyshev log-terms), accumulates their
summatory series exactly (64-bit integers for the ±1/0 kinds, correctly
rounded sums for the Chebyshev log-terms), and measures the moment,
scaling, and dependence behaviour of the resulting sums. Sieved
values can be checked against trial division: trial_division_counts
factors every k in [1, n] at once, and values_from_counts maps its
FactorCounts to the five kinds.
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
    FunctionKind,
    ValueTable,
    primes_upto,
    sieve_values,
    trial_division_counts,
    values_from_counts,
)
from .moments import (
    AdjacentPrimeStats,
    LagCovariance,
    MomentTable,
    lag_covariance,
    moment_scan,
    prime_adjacent_joint,
)
from .scaling import (
    CoverageReport,
    ExponentFit,
    SlowGrowthSpec,
    chebyshev_bound_coverage,
    fit_exponent,
    normalized_envelope,
)
from .series import (
    SummatorySeries,
    accumulate,
    geometric_ladder,
    resolve_checkpoints,
)

__version__ = "0.1.0"

__all__ = [
    "AdjacentPrimeStats",
    "CorruptionError",
    "CoverageReport",
    "DomainError",
    "ExponentFit",
    "FactorCounts",
    "FunctionKind",
    "IntegrityError",
    "LagCovariance",
    "MomentTable",
    "ResourceError",
    "SlowGrowthSpec",
    "SummatoriaError",
    "SummatorySeries",
    "ValueTable",
    "__version__",
    "accumulate",
    "chebyshev_bound_coverage",
    "fit_exponent",
    "fnv1a64",
    "geometric_ladder",
    "lag_covariance",
    "load",
    "moment_scan",
    "normalized_envelope",
    "prime_adjacent_joint",
    "primes_upto",
    "resolve_checkpoints",
    "save",
    "sieve_values",
    "trial_division_counts",
    "values_from_counts",
]
