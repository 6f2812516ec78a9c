"""The public API: what summatoria exports, and names kept out of it."""

import summatoria
from summatoria import kernels, moments, scaling, series

PUBLIC = [
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

#: S(n) is its own deviation and moment_scan returns every per-n moment as
#: one table of columns, so these wrappers and per-n helpers and objects stay
#: out of their home modules. Sign and sign-pair counts are two cumsums in
#: verify's criterion 2, not package API. trial_division_counts is the one
#: oracle; the scalar one lives in tests/scalar_oracle.py.
REMOVED = {
    kernels: ("Factorization", "factor_oracle"),
    series: ("MeanModel", "DeviationSeries", "deviation_series", "value_at"),
    moments: ("sum_of_squares", "covariance_gap", "second_moment_decomposition",
              "grid_sum_ratio", "_report_at", "MomentReport", "SecondMomentDecomposition",
              "_report", "parity_counts", "pair_product_counts", "ParityCounts",
              "PairProducts"),
    scaling: ("slow_growth_check",),
}


def test_all_is_the_sorted_public_list():
    assert PUBLIC == sorted(PUBLIC)
    assert summatoria.__all__ == PUBLIC
    for name in PUBLIC:
        assert getattr(summatoria, name) is not None, name


def test_removed_names_stay_removed():
    for module, names in REMOVED.items():
        for name in names:
            assert not hasattr(summatoria, name), name
            assert not hasattr(module, name), f"{module.__name__}.{name}"
    assert not hasattr(kernels.ValueTable, "value_at")
    assert not hasattr(kernels.FactorCounts, "of")
    # a series is read through its ns and sums columns
    for name in ("checkpoints", "final_sum"):
        assert not hasattr(series.SummatorySeries, name), name
