import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from summatoria.errors import DomainError, ResourceError
from summatoria.kernels import FunctionKind, ValueTable, sieve_values
from summatoria.moments import (
    _report,
    lag_covariance,
    moment_scan,
    pair_product_counts,
    parity_counts,
    prime_adjacent_joint,
)
from summatoria.series import _FLOAT_EXACT_LIMIT, accumulate


@pytest.fixture(scope="module")
def lam_reports():
    """The Liouville reports at every n <= 2000; entry n - 1 is the one at n."""
    return moment_scan(FunctionKind.LIOUVILLE, 2000, "all")


@pytest.fixture(scope="module")
def mob_reports():
    return moment_scan(FunctionKind.MOBIUS, 2000, "all")


def constant_one_report(n):
    """The report for f identically 1: S(n) = Q(n) = n."""
    return _report(FunctionKind.PRIME_INDICATOR, n, n, n)


class TestGridSumRatio:
    def test_liouville_10(self, lam_reports):
        assert lam_reports[9].grid_ratio == 0.0

    def test_mobius_10(self, mob_reports):
        assert mob_reports[9].grid_ratio == 0.01

    def test_constant_series_is_one(self):
        for n in (1, 7, 50):
            assert constant_one_report(n).grid_ratio == 1.0

    def test_rejects_n_zero(self):
        with pytest.raises(DomainError):
            moment_scan(FunctionKind.LIOUVILLE, 0)


class TestParityCounts:
    def test_liouville_10(self):
        t = sieve_values(FunctionKind.LIOUVILLE, 1, 10)
        pc = parity_counts(t, 10)
        assert (pc.n_plus, pc.n_minus, pc.n_zero) == (5, 5, 0)

    def test_mobius_8(self):
        t = sieve_values(FunctionKind.MOBIUS, 1, 8)
        pc = parity_counts(t, 8)
        assert (pc.n_plus, pc.n_minus, pc.n_zero) == (2, 4, 2)

    def test_liouville_1(self):
        t = sieve_values(FunctionKind.LIOUVILLE, 1, 1)
        pc = parity_counts(t, 1)
        assert (pc.n_plus, pc.n_minus) == (1, 0)

    def test_table_must_cover_prefix(self):
        t = sieve_values(FunctionKind.LIOUVILLE, 2, 10)
        with pytest.raises(DomainError):
            parity_counts(t, 5)
        t2 = sieve_values(FunctionKind.LIOUVILLE, 1, 4)
        with pytest.raises(DomainError):
            parity_counts(t2, 5)


class TestPairProducts:
    def test_balanced_ten(self):
        t = sieve_values(FunctionKind.LIOUVILLE, 1, 10)
        pp = pair_product_counts(parity_counts(t, 10))
        assert pp == (25, 25, 25, 25)
        assert pp.n_pp + pp.n_mm == 10**2 / 2  # same-sign half of the grid

    def test_all_plus(self):
        from summatoria.moments import ParityCounts

        pp = pair_product_counts(ParityCounts(7, 7, 0, 0))
        assert pp == (49, 0, 0, 0)

    def test_mobius_8(self):
        t = sieve_values(FunctionKind.MOBIUS, 1, 8)
        assert pair_product_counts(parity_counts(t, 8)) == (4, 16, 8, 8)

    @given(st.integers(0, 500), st.integers(0, 500), st.integers(0, 500))
    def test_total_is_square_of_nonzero_count(self, plus, minus, zero):
        from summatoria.moments import ParityCounts

        pc = ParityCounts(plus + minus + zero, plus, minus, zero)
        pp = pair_product_counts(pc)
        assert pp.n_pp + pp.n_mm + pp.n_pm + pp.n_mp == (plus + minus) ** 2


class TestCovarianceGap:
    def test_liouville_2(self, lam_reports):
        assert lam_reports[1].covariance_gap == -1.0

    def test_liouville_10_exact_fraction(self, lam_reports):
        assert lam_reports[9].covariance_gap == -1.0 / 9.0

    def test_constant_series_gap_zero(self):
        for n in (2, 11, 40):
            assert constant_one_report(n).covariance_gap == 0.0

    def test_needs_two_terms(self, lam_reports):
        assert lam_reports[0].covariance_gap is None

    def test_zero_sum_anchor_is_closed_form(self, lam_reports):
        zeros = [r for r in lam_reports[1:] if r.sum_S == 0]
        assert zeros, "Liouville summatory has zeros in range"
        for r in zeros:
            assert r.covariance_gap == -1.0 / (r.n - 1)

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
        gap = moment_scan(FunctionKind.MOBIUS, n, [n])[-1].covariance_gap
        assert gap == pytest.approx(brute, rel=1e-12, abs=1e-15)


class TestSumOfSquares:
    def test_liouville_shortcut(self):
        assert moment_scan(FunctionKind.LIOUVILLE, 12345, [12345])[-1].sum_Q == 12345

    def test_mobius_counts_squarefree(self):
        t = sieve_values(FunctionKind.MOBIUS, 1, 1000)
        q = moment_scan(FunctionKind.MOBIUS, 1000, [1000], segment_size=130)[-1].sum_Q
        assert q == int(np.count_nonzero(t.values))

    def test_float_kind(self):
        t = sieve_values(FunctionKind.CHEBYSHEV_THETA_TERM, 1, 500)
        want = math.fsum(t.values * t.values)
        r = moment_scan(FunctionKind.CHEBYSHEV_THETA_TERM, 500, [500], segment_size=77)[-1]
        assert r.sum_Q == want


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

    def test_table_reuse_must_match(self):
        t = sieve_values(FunctionKind.LIOUVILLE, 1, 100)
        with pytest.raises(DomainError):
            prime_adjacent_joint(100, table=t)


class TestDecomposition:
    def test_liouville_10(self, lam_reports):
        assert lam_reports[9].decomposition == (0, 10, -10)

    def test_mobius_8(self, mob_reports):
        assert mob_reports[7].decomposition == (4, 6, -2)

    def test_single_term(self, mob_reports):
        f2, diag, cross = mob_reports[0].decomposition
        assert (f2, diag, cross) == (1, 1, 0)

    @pytest.mark.parametrize("kind", list(FunctionKind), ids=lambda k: k.label)
    def test_identity_exact_across_kinds(self, kind):
        for r in moment_scan(kind, 800, [1, 2, 17, 256, 800]):
            f2, diag, cross = r.decomposition
            assert f2 == diag + cross
            if kind.is_integer_valued:
                assert diag <= r.n  # diagonal bounded by the term count

    def test_brute_force_cross_sum(self):
        n = 60
        values = sieve_values(FunctionKind.LIOUVILLE, 1, n).values.astype(np.int64)
        cross = sum(
            int(values[i]) * int(values[j])
            for i, j in itertools.product(range(n), repeat=2)
            if i != j
        )
        assert moment_scan(FunctionKind.LIOUVILLE, n, [n])[-1].decomposition.cross_sum == cross


class TestMomentScan:
    def test_matches_standalone_ops(self):
        reports = moment_scan(FunctionKind.MOBIUS, 2000, "geometric", segment_size=333)
        series = accumulate(FunctionKind.MOBIUS, 2000, "all")
        for r in reports:
            assert r.sum_S == int(series.sums[r.n - 1])

    def test_float_kind_scan(self):
        reports = moment_scan(FunctionKind.CHEBYSHEV_PSI_TERM, 3000, segment_size=450)
        values = sieve_values(FunctionKind.CHEBYSHEV_PSI_TERM, 1, 3000).values
        for r in reports[-4:]:
            assert r.sum_S == math.fsum(values[: r.n])
            assert r.sum_Q == math.fsum((values * values)[: r.n])
            f2, diag, cross = r.decomposition
            assert f2 == pytest.approx(diag + cross, rel=1e-12)

    @pytest.mark.parametrize("kind", [FunctionKind.CHEBYSHEV_PSI_TERM,
                                      FunctionKind.CHEBYSHEV_THETA_TERM], ids=lambda k: k.label)
    def test_dense_float_scan_matches_fsum_prefixes(self, kind):
        n = 3000
        values = sieve_values(kind, 1, n).values
        reports = moment_scan(kind, n, "all", segment_size=701)
        assert [r.sum_S for r in reports] == [math.fsum(values[:k]) for k in range(1, n + 1)]
        squares = values * values
        assert [r.sum_Q for r in reports] == [math.fsum(squares[:k]) for k in range(1, n + 1)]

    def test_float_scan_beyond_exact_limit_refused(self):
        with pytest.raises(ResourceError):
            moment_scan(FunctionKind.CHEBYSHEV_PSI_TERM, _FLOAT_EXACT_LIMIT + 1)
