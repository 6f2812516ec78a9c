import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from summatoria import kernels
from summatoria import moments as moments_mod
from summatoria import series as series_mod
from summatoria.errors import DomainError, ResourceError
from summatoria.kernels import FunctionKind, ValueTable, sieve_values
from summatoria.moments import (
    _moment_table,
    lag_covariance,
    moment_scan,
    prime_adjacent_joint,
)
from summatoria.series import (
    _FLOAT_EXACT_LIMIT,
    DEFAULT_SEGMENT,
    accumulate,
    resolve_checkpoints,
)


@pytest.fixture(scope="module")
def lam():
    """The Liouville moments at every n <= 2000; row n - 1 is the one at n."""
    return moment_scan(FunctionKind.LIOUVILLE, 2000, "all")


@pytest.fixture(scope="module")
def mob():
    return moment_scan(FunctionKind.MOBIUS, 2000, "all")


def constant_one(*ns):
    """The moments of f identically 1 at ns: S(n) = Q(n) = n."""
    n = np.array(ns, dtype=np.int64)
    return _moment_table(FunctionKind.PRIME_INDICATOR, n, n, n)


def reference_row(n, s, q):
    """(grid_ratio, cov_gap, F2, diag, cross) at one n, in Python scalars.

    The per-row formula the columns must reproduce bit for bit: exact int
    arithmetic for the integer kinds, float arithmetic for the others.
    """
    gap = None if n < 2 else (s * s - q) / (n * (n - 1)) - (s / n) ** 2
    return (s * s) / (n * n), gap, s * s, q, s * s - q


def bits(values):
    """Python scalars as exactly comparable keys: floats by their bits, NaN as None."""
    return [None if v is None or v != v else v.hex() if isinstance(v, float) else v
            for v in values]


def assert_matches_reference(table):
    rows = [reference_row(n, s, q)
            for n, s, q in zip(table.n.tolist(), table.S.tolist(), table.Q.tolist())]
    for name, want in zip(("grid_ratio", "cov_gap", "F2", "diag", "cross"), zip(*rows)):
        assert bits(getattr(table, name).tolist()) == bits(want), name


class TestGridSumRatio:
    def test_liouville_10(self, lam):
        assert lam.grid_ratio[9] == 0.0

    def test_mobius_10(self, mob):
        assert mob.grid_ratio[9] == 0.01

    def test_constant_series_is_one(self):
        assert constant_one(1, 7, 50).grid_ratio.tolist() == [1.0, 1.0, 1.0]

    def test_rejects_n_zero(self):
        with pytest.raises(DomainError):
            moment_scan(FunctionKind.LIOUVILLE, 0)


class TestCovarianceGap:
    def test_liouville_2(self, lam):
        assert lam.cov_gap[1] == -1.0

    def test_liouville_10_exact_fraction(self, lam):
        assert lam.cov_gap[9] == -1.0 / 9.0

    def test_constant_series_gap_zero(self):
        assert constant_one(2, 11, 40).cov_gap.tolist() == [0.0, 0.0, 0.0]

    def test_needs_two_terms(self, lam):
        assert np.isnan(lam.cov_gap[0])
        assert not np.isnan(lam.cov_gap[1:]).any()

    def test_zero_sum_anchor_is_closed_form(self, lam):
        zeros = np.flatnonzero(lam.S[1:] == 0) + 1
        assert len(zeros), "Liouville summatory has zeros in range"
        for i in zeros.tolist():
            assert lam.cov_gap[i] == -1.0 / (lam.n[i] - 1)

    @given(st.integers(min_value=2, max_value=300))
    @settings(max_examples=25, deadline=None)
    def test_matches_brute_force_pair_mean(self, n):
        values = sieve_values(FunctionKind.MOBIUS, 1, n).values.astype(np.int64)
        s = int(values.sum())
        pair_sum = 0
        for i, j in itertools.product(range(n), repeat=2):
            if i != j:
                pair_sum += int(values[i]) * int(values[j])
        brute = pair_sum / (n * (n - 1)) - (s / n) ** 2
        gap = moment_scan(FunctionKind.MOBIUS, n, [n]).cov_gap[-1]
        assert gap == pytest.approx(brute, rel=1e-12, abs=1e-15)


class TestSumOfSquares:
    def test_liouville_shortcut(self):
        assert moment_scan(FunctionKind.LIOUVILLE, 12345, [12345]).Q[-1] == 12345

    def test_mobius_counts_squarefree(self):
        t = sieve_values(FunctionKind.MOBIUS, 1, 1000)
        q = moment_scan(FunctionKind.MOBIUS, 1000, [1000], segment_size=130).Q[-1]
        assert q == int(np.count_nonzero(t.values))

    def test_float_kind(self):
        t = sieve_values(FunctionKind.CHEBYSHEV_THETA_TERM, 1, 500)
        want = math.fsum(t.values * t.values)
        t = moment_scan(FunctionKind.CHEBYSHEV_THETA_TERM, 500, [500], segment_size=77)
        assert t.Q[-1] == want


class TestLagCovariance:
    def test_zero_variance_convention(self):
        # 24..28 are all composite, so the prime indicator is constant there
        t = sieve_values(FunctionKind.PRIME_INDICATOR, 1, 30)
        lc = lag_covariance(t, 1, (24, 28))
        assert lc.cov == 0.0 and lc.corr == 0.0

    def test_matches_numpy_reference(self):
        t = sieve_values(FunctionKind.LIOUVILLE, 1, 5000)
        lc = lag_covariance(t, 3, (10, 4300))
        # pairs (f(k), f(k+3)) for k = 10 .. 4297
        x = t.values[9:4297].astype(float)
        y = t.values[12:4300].astype(float)
        want_cov = float(np.mean(x * y) - x.mean() * y.mean())
        want_corr = want_cov / math.sqrt(
            (np.mean(x * x) - x.mean() ** 2) * (np.mean(y * y) - y.mean() ** 2)
        )
        assert lc.cov == pytest.approx(want_cov, rel=1e-12)
        assert lc.corr == pytest.approx(want_corr, rel=1e-10)
        assert abs(lc.corr) <= 1 + 1e-12

    def test_prime_indicator_negative_adjacent(self):
        t = sieve_values(FunctionKind.PRIME_INDICATOR, 1, 10**5)
        lc = lag_covariance(t, 1, (3, 10**5))
        assert lc.cov < 0

    def test_window_validation(self):
        t = sieve_values(FunctionKind.LIOUVILLE, 1, 100)
        with pytest.raises(DomainError):
            lag_covariance(t, 1, (1, 101))
        with pytest.raises(DomainError):
            lag_covariance(t, 5, (10, 15))
        with pytest.raises(DomainError):
            lag_covariance(t, 0, (1, 100))

    def test_float_kind_path(self):
        t = sieve_values(FunctionKind.CHEBYSHEV_PSI_TERM, 1, 2000)
        lc = lag_covariance(t, 2, (1, 2000))
        assert abs(lc.corr) <= 1 + 1e-12

    def test_float_table_beyond_exact_limit_refused(self):
        lo = _FLOAT_EXACT_LIMIT - 5
        t = ValueTable(FunctionKind.CHEBYSHEV_THETA_TERM, lo, lo + 9, np.zeros(10))
        with pytest.raises(ResourceError):
            lag_covariance(t, 1, (lo, lo + 9))


class TestAdjacentPrimes:
    def test_100_joint_zero_product_positive(self):
        stats = prime_adjacent_joint(100)
        assert stats.joint == 0.0
        assert stats.product > 0.04

    def test_million_dependence(self):
        stats = prime_adjacent_joint(10**6)
        assert stats.joint == 0.0
        assert stats.product > 0.0
        assert stats.joint != stats.product

    @given(st.integers(min_value=5, max_value=3000))
    @settings(max_examples=40, deadline=None)
    def test_joint_always_zero(self, n):
        stats = prime_adjacent_joint(n)
        assert stats.joint == 0.0
        assert 0.0 < stats.product <= 1.0

    def test_small_n_rejected(self):
        with pytest.raises(DomainError):
            prime_adjacent_joint(4)

    @staticmethod
    def counted(values, n):
        """(joint, product) over k = 3 .. n-1 from one indicator array, k at index k - 1."""
        prime = values[2:n] == 1  # k = 3 .. n
        count = n - 3
        joint = int(np.count_nonzero(prime[:-1] & prime[1:]))
        return joint / count, int(np.count_nonzero(prime[:-1])) / count * (
            int(np.count_nonzero(prime[1:])) / count)

    def test_segmented_sieve_matches_one_table(self):
        n = DEFAULT_SEGMENT + 5
        want = self.counted(sieve_values(FunctionKind.PRIME_INDICATOR, 1, n).values, n)
        assert tuple(prime_adjacent_joint(n)) == want

    # Two threads run the pool; a one-thread case keeps the segment alone as its id.
    @pytest.mark.parametrize("segment, threads", [
        pytest.param(segment, threads, id=str(segment) + ("" if threads == 1 else "-threads-2"))
        for threads in (1, 2) for segment in (1, 2, 3, 7, 64)
    ])
    def test_counts_carry_across_segment_boundaries(self, monkeypatch, segment, threads):
        # A made-up indicator with adjacent ones, so that the pairs that
        # straddle a boundary count; real primes above 2 have none.
        n = 60
        values = np.random.default_rng(segment).integers(0, 2, n).astype(np.int8)
        values[[0, 1, 2, 3, 4, 30, 31, n - 2, n - 1]] = 1

        def fake(kind, lo, hi, *, primes=None):
            assert hi - lo + 1 <= segment
            return ValueTable(kind, lo, hi, values[lo - 1 : hi])

        monkeypatch.setattr(moments_mod, "DEFAULT_SEGMENT", segment)
        monkeypatch.setattr(series_mod, "sieve_values", fake)
        want = self.counted(values, n)
        assert want[0] > 0
        assert tuple(prime_adjacent_joint(n, threads=threads)) == want

    def test_one_base_prime_sieve_per_walk(self, monkeypatch):
        calls = []
        real = kernels.primes_upto
        monkeypatch.setattr(kernels, "primes_upto", lambda limit: calls.append(limit) or real(limit))
        monkeypatch.setattr(moments_mod, "DEFAULT_SEGMENT", 1000)
        prime_adjacent_joint(10**5)
        assert calls == [math.isqrt(10**5)]


class TestDecomposition:
    def test_liouville_10(self, lam):
        assert (lam.F2[9], lam.diag[9], lam.cross[9]) == (0, 10, -10)

    def test_mobius_8(self, mob):
        assert (mob.F2[7], mob.diag[7], mob.cross[7]) == (4, 6, -2)

    def test_single_term(self, mob):
        assert (mob.F2[0], mob.diag[0], mob.cross[0]) == (1, 1, 0)

    @pytest.mark.parametrize("kind", list(FunctionKind), ids=lambda k: k.label)
    def test_identity_exact_across_kinds(self, kind):
        t = moment_scan(kind, 800, [1, 2, 17, 256, 800])
        assert np.array_equal(t.F2, t.diag + t.cross)
        if kind.is_integer_valued:
            assert (t.diag <= t.n).all()  # diagonal bounded by the term count

    def test_brute_force_cross_sum(self):
        n = 60
        values = sieve_values(FunctionKind.LIOUVILLE, 1, n).values.astype(np.int64)
        cross = sum(
            int(values[i]) * int(values[j])
            for i, j in itertools.product(range(n), repeat=2)
            if i != j
        )
        assert moment_scan(FunctionKind.LIOUVILLE, n, [n]).cross[-1] == cross


class TestMomentScan:
    def test_matches_standalone_ops(self):
        t = moment_scan(FunctionKind.MOBIUS, 2000, "geometric", segment_size=333)
        series = accumulate(FunctionKind.MOBIUS, 2000, "all")
        assert np.array_equal(t.S, series.sums[t.n - 1])

    def test_float_kind_scan(self):
        t = moment_scan(FunctionKind.CHEBYSHEV_PSI_TERM, 3000, segment_size=450)
        values = sieve_values(FunctionKind.CHEBYSHEV_PSI_TERM, 1, 3000).values
        for n, s, q, f2, diag, cross in zip(*(getattr(t, c)[-4:].tolist()
                                               for c in ("n", "S", "Q", "F2", "diag", "cross"))):
            assert s == math.fsum(values[:n])
            assert q == math.fsum((values * values)[:n])
            assert f2 == pytest.approx(diag + cross, rel=1e-12)

    @pytest.mark.parametrize("kind", [FunctionKind.CHEBYSHEV_PSI_TERM,
                                      FunctionKind.CHEBYSHEV_THETA_TERM], ids=lambda k: k.label)
    def test_dense_float_scan_matches_fsum_prefixes(self, kind):
        n = 3000
        values = sieve_values(kind, 1, n).values
        t = moment_scan(kind, n, "all", segment_size=701)
        assert t.S.tolist() == [math.fsum(values[:k]) for k in range(1, n + 1)]
        squares = values * values
        assert t.Q.tolist() == [math.fsum(squares[:k]) for k in range(1, n + 1)]

    def test_float_scan_beyond_exact_limit_refused(self):
        with pytest.raises(ResourceError):
            moment_scan(FunctionKind.CHEBYSHEV_PSI_TERM, _FLOAT_EXACT_LIMIT + 1)


class TestMomentTable:
    """The columns against the per-row formula, bit for bit."""

    @pytest.mark.parametrize("kind", list(FunctionKind), ids=lambda k: k.label)
    @pytest.mark.parametrize("limit, plan", [(3000, "all"), (10**6, 1.01)], ids=["all", "ladder"])
    def test_columns_match_reference_rows(self, kind, limit, plan):
        t = moment_scan(kind, limit, plan)
        assert np.array_equal(t.n, resolve_checkpoints(limit, plan))
        assert_matches_reference(t)

    def test_exact_division_above_two_to_the_53(self):
        rng = np.random.default_rng(53)
        bound = math.isqrt(1 << 53)  # the largest n with n^2 < 2**53
        n = np.concatenate([[bound, bound + 1], rng.integers(bound - 10**4, 10**9, 5000)])
        s = rng.integers(-n, n + 1)
        q = rng.integers(np.abs(s), n + 1)
        t = _moment_table(FunctionKind.MOBIUS, n, s, q)
        assert_matches_reference(t)
        # The rows reach where float64 denominators would round.
        nf = n.astype(np.float64)
        assert not np.array_equal(t.grid_ratio, (s * s) / (nf * nf))

    @pytest.mark.parametrize("kind", list(FunctionKind), ids=lambda k: k.label)
    def test_column_dtypes_and_read_only(self, kind):
        t = moment_scan(kind, 100)
        exact = np.int64 if kind.is_integer_valued else np.float64
        for name in ("S", "Q", "F2", "diag", "cross"):
            assert getattr(t, name).dtype == exact, name
        assert t.n.dtype == np.int64
        assert t.grid_ratio.dtype == t.cov_gap.dtype == np.float64
        with pytest.raises(ValueError):
            t.cov_gap[1] = 0.0

    @pytest.mark.parametrize("kind", [FunctionKind.MOBIUS, FunctionKind.CHEBYSHEV_PSI_TERM],
                             ids=lambda k: k.label)
    def test_threads_never_change_the_table(self, kind):
        one, two = (moment_scan(kind, 10**5, "geometric", segment_size=9999, threads=k)
                    for k in (1, 2))
        for name in ("n", "S", "Q", "grid_ratio", "cov_gap", "F2", "diag", "cross"):
            assert getattr(one, name).tobytes() == getattr(two, name).tobytes(), name
