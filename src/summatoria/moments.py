"""Exact finite-n moment statistics of the arithmetic functions.

Everything here reduces to two prefix aggregates, S(n) = sum of f(k) and
Q(n) = sum of f(k)^2 for k <= n, combined into pair averages over the n x n
index grid. Both come from the exact segment walk in series.py: exact 64-bit
integers for the ±1/0-valued kinds, so the algebraic identities hold
bit-for-bit, and correctly rounded sums for the Chebyshev kinds. moment_scan
returns them at every checkpoint of a plan from one such walk, as one
MomentTable of numpy columns with no Python object per checkpoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, ResourceError
from .kernels import FunctionKind, ValueTable
from .kernels import sieve_values  # noqa: F401  kept for the benchmark's tracer (ROADMAP direction 1)
from .series import (
    _FLOAT_EXACT_LIMIT,
    DEFAULT_SEGMENT,
    MAX_CHECKPOINTS,
    _ExactRun,
    _ordered_segments,
    _prefix_sums,
    resolve_checkpoints,
)


class AdjacentPrimeStats(NamedTuple):
    """Empirical joint vs product frequency for consecutive prime indicators."""

    joint: float
    product: float


@dataclass(frozen=True)
class LagCovariance:
    """Sample covariance of (f(k), f(k+lag)) over an index window."""

    kind: FunctionKind
    lag: int
    window: tuple[int, int]
    cov: float
    corr: float

    def __post_init__(self) -> None:
        if abs(self.corr) > 1.0 + 1e-9:
            raise DomainError(f"correlation {self.corr} outside [-1, 1]")


class MomentTable(NamedTuple):
    """All per-n moment quantities of one kind, one read-only column each.

    Row i is the prefix [1, n[i]]: S and Q are S(n) and Q(n), int64 for the
    ±1/0 kinds and float64 for the Chebyshev kinds. grid_ratio is S^2/n^2,
    the pair average of f(i)f(j) over the full grid. cov_gap is the pair
    average over i != j minus the squared mean, (S^2 - Q)/(n(n-1)) - (S/n)^2:
    exactly -1/(n-1) for a ±1-valued kind at a zero of S, and NaN at n = 1,
    where that average is empty. F2 = S^2 splits into the diagonal diag = Q
    and the off-diagonal cross = F2 - Q. Every float cell is the value
    Python's float arithmetic gives from the exact S and Q.
    """

    kind: FunctionKind
    n: np.ndarray
    S: np.ndarray
    Q: np.ndarray
    grid_ratio: np.ndarray
    cov_gap: np.ndarray
    F2: np.ndarray
    diag: np.ndarray
    cross: np.ndarray


def _moment_table(kind: FunctionKind, n: np.ndarray, s: np.ndarray, q: np.ndarray) -> MomentTable:
    """The MomentTable for prefix aggregates S(n) = s and Q(n) = q."""
    f2 = s * s
    nf = n.astype(np.float64)
    grid = f2 / (nf * nf)
    pair_mean = np.divide(f2 - q, nf * (nf - 1), out=np.full(len(n), np.nan), where=n > 1)
    if kind.is_integer_valued:
        # float64 rounds n^2 and n(n-1) past 2**53; there, divide the exact ints.
        for i in np.flatnonzero(n > math.isqrt(1 << 53)).tolist():
            ni, si, qi = int(n[i]), int(s[i]), int(q[i])
            grid[i], pair_mean[i] = si * si / (ni * ni), (si * si - qi) / (ni * (ni - 1))
    # float_power is the C pow behind Python's **; x * x and np.power are
    # off by one ulp on some rows.
    gap = pair_mean - np.float_power(s / nf, np.full(len(n), 2.0))
    columns = (n, s, q, grid, gap, f2, q, f2 - q)
    for col in columns:
        col.flags.writeable = False
    return MomentTable(kind, *columns)


def lag_covariance(table: ValueTable, lag: int, window: tuple[int, int]) -> LagCovariance:
    """Covariance and correlation of pairs (f(k), f(k+lag)) for k in a window.

    Pairs run over k = lo .. hi-lag; normalization divides by the pair
    count. Correlation is defined as 0 when either marginal variance is 0.
    All sums are exact integers, the log-terms and their float64 products
    in fixed point, so for the ±1/0 kinds a zero variance is detected
    exactly rather than up to rounding.

    Raises:
        DomainError: lag < 1 or a window outside the table or too short.
        ResourceError: a Chebyshev table past the exact-summation limit.
    """
    lo, hi = window
    if lag < 1:
        raise DomainError(f"lag must be >= 1, got {lag}")
    if lo < table.lo or hi > table.hi:
        raise DomainError(f"window [{lo}, {hi}] outside table [{table.lo}, {table.hi}]")
    if hi - lo + 1 <= lag + 1:
        raise DomainError(f"window [{lo}, {hi}] too short for lag {lag}")
    integer = table.kind.is_integer_valued
    if not integer and table.hi > _FLOAT_EXACT_LIMIT:
        raise ResourceError(f"float sums are exact only up to k = {_FLOAT_EXACT_LIMIT}")
    x = table.values[lo - table.lo : hi - lag - table.lo + 1]
    y = table.values[lo + lag - table.lo : hi - table.lo + 1]
    m = len(x)

    def total(terms, scale):
        run = _ExactRun(None if integer else scale)
        run.add(terms, np.array([len(terms)]))
        return run.total

    # Sums of log-terms carry 2**53 and of their products 2**54; the weight
    # w puts m times a product sum on the 2**106 scale of sx * sy.
    w, unit = (m, 1) if integer else (m << 52, 1 << 106)
    sx, sy = total(x, 53), total(y, 53)
    cov_num = w * total(x * y, 54) - sx * sy
    varx_num = w * total(x * x, 54) - sx * sx
    vary_num = w * total(y * y, 54) - sy * sy
    cov = cov_num / (m * m * unit)
    if varx_num <= 0 or vary_num <= 0:  # rounded squares can undershoot 0
        return LagCovariance(table.kind, lag, (lo, hi), cov, 0.0)
    corr = cov_num / math.sqrt(varx_num) / math.sqrt(vary_num)
    return LagCovariance(table.kind, lag, (lo, hi), cov, corr)


def prime_adjacent_joint(N: int, *, threads: int = 1) -> AdjacentPrimeStats:
    """Joint vs product frequency of consecutive prime indicators.

    Over k = 3 .. N-1: the joint frequency of (k prime and k+1 prime),
    against the product of the two marginal frequencies. One of any two
    consecutive integers above 2 is an even composite, so the joint count
    is identically 0 while the product stays positive; the two disagree,
    which is the dependence being probed.

    One walk over the segments of [1, N] that moment_scan walks, with one
    base-prime sieve, counts the primes and prime pairs; no table is taken.
    threads segments are sieved at once, as in moment_scan, and the counts
    are taken in segment order, so the result never depends on threads.
    """
    if N < 5:
        raise DomainError(f"need N >= 5 for the k in [3, N-1] window, got {N}")
    primes = joint = 0
    last = False  # the indicator just before the current segment
    for lo, _, values in _ordered_segments(FunctionKind.PRIME_INDICATOR, N, DEFAULT_SEGMENT, threads):
        prime = values == 1
        prime[: max(0, 3 - lo)] = False  # the window starts at k = 3
        primes += int(np.count_nonzero(prime))
        joint += int(np.count_nonzero(prime[:-1] & prime[1:])) + int(last and prime[0])
        last = bool(prime[-1])
    count = N - 3
    # k = 3 .. N-1 holds every prime counted but N, and k+1 = 4 .. N all but the prime 3.
    return AdjacentPrimeStats(joint / count, (primes - last) / count * ((primes - 1) / count))


def moment_scan(
    kind: FunctionKind,
    limit: int,
    checkpoint_plan=None,
    *,
    segment_size: int = DEFAULT_SEGMENT,
    threads: int = 1,
) -> MomentTable:
    """The MomentTable at every planned checkpoint, from one pass over [1, limit].

    One exact reduction yields S and Q together, so a full ladder of
    moments costs the same as a single accumulation. Results depend only
    on (kind, n), never on the plan, segment_size or threads.

    Raises:
        DomainError: limit < 1, segment_size < 1 or a malformed plan.
        ResourceError: before the walk, limit > DEFAULT_MAX_LIMIT, a plan
            of more than MAX_CHECKPOINTS // 5 rows (before a generated plan
            is built), or a float kind past the exact-summation limit.
    """
    # A table row is 56 bytes and peaks at 80 while it is built, five times
    # a series row, so a table gets the same 1.6 GB budget as a series.
    cps = resolve_checkpoints(limit, checkpoint_plan, max_points=MAX_CHECKPOINTS // 5)
    s, q = _prefix_sums(kind, cps, segment_size=segment_size, threads=threads, squares=True)
    return _moment_table(kind, cps, s, q)
