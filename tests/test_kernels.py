import functools
import itertools
import math
import random
import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from summatoria import kernels
from summatoria.errors import CorruptionError, DomainError, ResourceError
from summatoria.kernels import (
    KIND_BY_LABEL,
    FactorCounts,
    FunctionKind,
    ValueTable,
    primes_upto,
    sieve_values,
    trial_division_counts,
    values_from_counts,
)

from plain_profile import plain_profile
from scalar_oracle import Factorization, counts_of, factor_oracle

ALL_KINDS = list(FunctionKind)
INT_KINDS = [k for k in ALL_KINDS if k.is_integer_valued]


def bits(values):
    """The array itself for the integer kinds, its int64 view for the float kinds."""
    return values.view(np.int64) if values.dtype == np.float64 else values


def oracle_values(kind, ks):
    """The scalar oracle's values of one kind at ks, mapped in one batch."""
    return values_from_counts(kind, counts_of(factor_oracle(k) for k in ks))


def oracle_value(kind, n):
    return oracle_values(kind, [n]).item()


def assert_matches_oracle(lo, hi, ks=None, kinds=ALL_KINDS):
    """Each kind's sieve over [lo, hi] equals the oracle at ks (default: all k).

    Float kinds are compared bitwise, as int64 views.
    """
    ks = list(range(lo, hi + 1) if ks is None else ks)
    counts = counts_of(factor_oracle(k) for k in ks)
    at = np.array(ks, dtype=np.int64) - lo
    for kind in kinds:
        got = sieve_values(kind, lo, hi).values[at]
        want = values_from_counts(kind, counts)
        assert got.dtype == want.dtype, kind.label
        bad = np.flatnonzero(bits(got) != bits(want))
        assert bad.size == 0, (kind.label, ks[bad[0]])


class TestSieveExamples:
    def test_mobius_1_to_8(self):
        t = sieve_values(FunctionKind.MOBIUS, 1, 8)
        assert t.values.tolist() == [1, -1, -1, 0, -1, 1, -1, 0]

    def test_liouville_1_to_4(self):
        t = sieve_values(FunctionKind.LIOUVILLE, 1, 4)
        assert t.values.tolist() == [1, -1, -1, 1]

    def test_mobius_at_1(self):
        t = sieve_values(FunctionKind.MOBIUS, 1, 1)
        assert t.values.tolist() == [1]

    def test_prime_indicator_1_to_10(self):
        t = sieve_values(FunctionKind.PRIME_INDICATOR, 1, 10)
        assert t.values.tolist() == [0, 1, 1, 0, 1, 0, 1, 0, 0, 0]

    def test_chebyshev_terms_1_to_10(self):
        psi = sieve_values(FunctionKind.CHEBYSHEV_PSI_TERM, 1, 10)
        # prime powers <= 10: 2,3,4,5,7,8,9 contribute log of the base prime
        want = [0, math.log(2), math.log(3), math.log(2), math.log(5),
                0, math.log(7), math.log(2), math.log(3), 0]
        assert np.allclose(psi.values, want, rtol=0, atol=1e-15)
        theta = sieve_values(FunctionKind.CHEBYSHEV_THETA_TERM, 1, 10)
        want = [0, math.log(2), math.log(3), 0, math.log(5), 0, math.log(7), 0, 0, 0]
        assert np.allclose(theta.values, want, rtol=0, atol=1e-15)
        # the psi column sums to log lcm(1..10) = log 2520
        assert math.isclose(math.fsum(psi.values), math.log(2520), rel_tol=1e-14)


class TestFactorOracle:
    def test_12(self):
        assert factor_oracle(12).factors == ((2, 2), (3, 1))

    def test_1_is_empty(self):
        assert factor_oracle(1).factors == ()

    def test_97_prime(self):
        assert factor_oracle(97).factors == ((97, 1),)

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            factor_oracle(0)

    @given(st.integers(min_value=1, max_value=10**6))
    def test_product_reconstructs_n(self, n):
        fact = factor_oracle(n)
        prod = 1
        for p, m in fact.factors:
            prod *= p**m
        assert prod == n
        assert list(fact.factors) == sorted(fact.factors)


class TestPointwise:
    def test_mobius_12_has_square(self):
        assert oracle_value(FunctionKind.MOBIUS, 12) == 0

    def test_liouville_12(self):
        assert oracle_value(FunctionKind.LIOUVILLE, 12) == -1

    def test_liouville_1(self):
        assert oracle_value(FunctionKind.LIOUVILLE, 1) == 1

    def test_chebyshev_on_prime_powers(self):
        assert oracle_value(FunctionKind.CHEBYSHEV_PSI_TERM, 8) == pytest.approx(math.log(2))
        assert oracle_value(FunctionKind.CHEBYSHEV_THETA_TERM, 8) == 0.0
        assert oracle_value(FunctionKind.CHEBYSHEV_THETA_TERM, 7) == pytest.approx(math.log(7))


class TestOracleEquivalence:
    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.label)
    def test_first_three_thousand(self, kind):
        table = sieve_values(kind, 1, 3000).values
        want = oracle_values(kind, range(1, 3001))
        assert want.dtype == table.dtype
        assert np.array_equal(bits(table), bits(want))  # same np.log on both paths

    @given(st.integers(min_value=1, max_value=10**5))
    @settings(max_examples=60, deadline=None)
    def test_random_offsets(self, n):
        assert_matches_oracle(n, n)


@pytest.fixture(scope="module")
def scalar_counts():
    """The scalar oracle's counts for every n <= 10**5, in one batch."""
    return counts_of(factor_oracle(n) for n in range(1, 10**5 + 1))


class TestTrialDivisionCounts:
    """The whole-array oracle against the scalar one, counts and values alike."""

    # d*d - 1, d*d and d*d + 1 for the first trial divisors, where an entry
    # first stays live for d; then the edges of the second phase: 11**2,
    # 11*13 and 13**2 and either side, 210 and the 7-rough 211, 1001 =
    # 7*11*13, which adds the counts of its 7-rough residue 143, 2431 =
    # 11*13*17, factored by the second phase alone, and 99999
    EDGES = sorted({1, 2, 3, 4, 20000, 10**5} | {p * p + e for p in (2, 3, 5, 7, 11, 13, 97)
                                                 for e in (-1, 0, 1)}
                   | {120, 121, 122, 142, 143, 144, 168, 169, 170, 210, 211, 1001, 2431, 99999})

    @pytest.mark.parametrize("n", EDGES)
    def test_matches_the_scalar_oracle(self, scalar_counts, n):
        counts = trial_division_counts(n)
        scalar = FactorCounts(*(field[:n] for field in scalar_counts))
        for name, got, want in zip(FactorCounts._fields, counts, scalar):
            assert np.array_equal(got, want), name
        for kind in ALL_KINDS:
            got = values_from_counts(kind, counts)
            want = values_from_counts(kind, scalar)
            assert got.dtype == want.dtype == kind.dtype, kind.label
            assert np.array_equal(bits(got), bits(want)), kind.label

    def test_uses_no_sieve_stage(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the oracle reached a sieve stage")

        for name in ("primes_upto", "factor_profile", "values_from_profile", "sieve_values"):
            monkeypatch.setattr(kernels, name, refuse)
        assert int(trial_division_counts(10**4).big_omega.sum()) > 0

    def test_bad_sizes_rejected(self):
        with pytest.raises(DomainError):
            trial_division_counts(0)
        with pytest.raises(ResourceError):
            trial_division_counts(2**31)  # raises before it allocates


class TestBeyondTheSmallOracle:
    """Windows far above 10**5, checked against trial division at sampled k."""

    @pytest.mark.parametrize("lo", [10**9 - 2000, 10**12 - 2000, 10**12 + 39],
                             ids=["1e9", "1e12", "prime-1e12+39"])
    def test_sampled_window(self, lo):
        hi = lo + 4095
        ks = sorted(set(random.Random(lo).sample(range(lo, hi + 1), 24)) | {lo, hi})
        assert_matches_oracle(lo, hi, ks)

    @pytest.mark.parametrize("p", [int(primes_upto(31623)[-1]), 999983])
    def test_windows_around_a_large_prime_square(self, p):
        sq = p * p
        for lo, hi in [(sq - 2, sq - 1), (sq - 1, sq), (sq, sq + 1)]:
            assert_matches_oracle(lo, hi)


SIGNED = [FunctionKind.MOBIUS, FunctionKind.LIOUVILLE]


@functools.cache
def counts_to_2_17():
    return trial_division_counts(2**17 + 1)


def assert_matches_counts(lo, hi):
    """The mobius and liouville sieves over [lo, hi] equal the whole-array oracle, lo <= hi <= 2**17 + 1."""
    counts = FactorCounts(*(field[lo - 1 : hi] for field in counts_to_2_17()))
    for kind in SIGNED:
        assert np.array_equal(sieve_values(kind, lo, hi).values, values_from_counts(kind, counts)), kind.label


def floor_log(k):
    """floor(256 * log2 k), exactly."""
    return (k**256).bit_length() - 1


class TestLogWeightTail:
    """The mobius and liouville test for a prime cofactor above sqrt(hi).

    The score is 2*s + c: s sums w_p = floor(256 * log2 p) and c counts the
    primes; k has the cofactor when score < 2*t_j in its quarter-octave block.
    """

    @pytest.mark.parametrize("ps, tolerance", [
        (primes_upto(10**4).tolist(), 0),
        ([10007, 65521, 999983, 1048573, 2**26 - 5], 1),  # float log2 may miss by one
    ], ids=["below-1e4", "larger"])
    def test_weights_are_floor_256_log2_p(self, ps, tolerance):
        for p in ps:
            assert factor_oracle(p).factors == ((p, 1),)
            score = kernels.factor_profile(p, p, FunctionKind.LIOUVILLE, primes=np.array([p]))[0]
            assert abs(int(score[0]) // 2 - floor_log(p)) <= tolerance, p

    def test_blocks_start_at_the_quarter_octave_edges(self):
        blocks = list(kernels._tail_blocks(1, 2**52))
        assert len(blocks) == 4 * 52 + 1
        for j, (block, _) in enumerate(blocks):
            e = 1 + block.start  # e_j
            assert e**4 >= 2**j > (e - 1) ** 4

    @pytest.mark.parametrize("lo, hi", [(1, 2**52), (3, 10**6), (10**9 - 2**22, 10**9),
                                        (10**12, 10**12 + 4095), (2**40 - 1, 2**40 + 1)])
    def test_thresholds_keep_their_margin(self, lo, hi):
        # A k <= 2**52 has at most three prime factors above 10**4, whose w_p
        # may be one off; each moves the score by 2.
        slack = 6
        covered = 0
        for block, t in kernels._tail_blocks(lo, hi):
            assert covered == block.start <= block.stop  # in order, tiling the window
            covered = block.stop
            if block.start == block.stop:
                continue
            first, last = lo + block.start, lo + block.stop - 1
            big_omega = last.bit_length() - 1
            # sqrt(hi)-smooth: s >= 256 * log2 k - Omega(k); with a cofactor
            # q >= 2: s <= 256 * log2(k / 2) and c <= Omega(k) - 1.
            smooth_min = 2 * (floor_log(first) - big_omega)
            cofactor_max = 2 * (floor_log(last) - 256) + big_omega - 1
            assert smooth_min - 2 * t >= slack, (first, t)
            assert 2 * t - cofactor_max > slack, (last, t)
        assert covered == hi - lo + 1

    @pytest.mark.parametrize("m", range(2, 41))
    def test_around_powers_of_two(self, m):
        assert_matches_oracle(2**m - 1, 2**m + 1, kinds=SIGNED)  # Omega(2**m) = m

    @pytest.mark.parametrize("near", [1000, 2**16, 10**6, 2**20])
    def test_cofactor_is_the_first_prime_above_sqrt_hi(self, near):
        primes = primes_upto(near + 1000)
        i = int(np.searchsorted(primes, near, side="right")) - 1
        p, q = int(primes[i]), int(primes[i + 1])
        k = p * q
        assert p <= math.isqrt(k + 8) < q
        assert_matches_oracle(k - 8, k + 8, [k - 1, k, k + 1], kinds=SIGNED)

    def test_every_k_through_block_edge_68(self):
        n = 2**17 + 1  # e_68 = 2**17
        for kind in SIGNED:
            assert np.array_equal(sieve_values(kind, 1, n).values, values_from_counts(kind, counts_to_2_17()))

    def test_tail_table_is_twice_t_j_and_never_below_0(self):
        table = kernels._tail_table()
        assert len(table) == 2**16 and not table.flags.writeable
        covered = 0
        for block, t in kernels._tail_blocks(1, 2**16):
            assert block.start == covered
            covered = block.stop
            assert np.all(table[block] == max(2 * t, 0)), t
        assert covered == 2**16

    @pytest.mark.parametrize("lo", [2, 65535, 65536, 65537])
    def test_windows_across_the_tail_table(self, lo):
        # the table covers k <= 2**16, and the blocks loop only above it
        for hi in (65536, 65537, 65538, 2**17 + 1):
            if hi >= lo:
                assert_matches_counts(lo, hi)

    @given(st.integers(1, 2**17 + 1), st.integers(0, 2**17))
    @settings(max_examples=40, deadline=None)
    def test_windows_below_2_17(self, lo, width):
        assert_matches_counts(lo, min(lo + width, 2**17 + 1))

    @pytest.mark.parametrize("j", range(69, 4 * 32 + 1))
    def test_at_and_next_to_block_edge(self, j):
        e = math.isqrt(math.isqrt(2**j - 1)) + 1
        assert_matches_oracle(e - 1, e + 1, kinds=SIGNED)

    @pytest.mark.parametrize("kind", SIGNED, ids=lambda k: k.label)
    def test_peak_memory_per_entry(self, kind):
        n = 2**20
        for block in (kernels._SIEVE_BLOCK, 2**16):  # one block, and 16 of them
            with mock.patch.object(kernels, "_SIEVE_BLOCK", block):
                sieve_values(kind, 1, n)
                tracemalloc.start()
                try:
                    sieve_values(kind, 1, n)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
            assert peak <= 8 * n, block


class TestWindowEdges:
    """lo or hi on p**2, p**2 +- 1, and the first or last multiple of p."""

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 97, 313])
    def test_every_k_matches_the_oracle(self, p):
        windows = []
        for edge in (p * p - 1, p * p, p * p + 1):
            windows += [(edge, edge + 2 * p), (max(1, edge - 2 * p), edge)]
        first = 1000 * p
        windows += [(first, first + 3 * p), (first + 1, first + 3 * p - 1)]
        for lo, hi in windows:
            assert_matches_oracle(lo, hi)


def assert_plain_profile(lo, hi, kinds=ALL_KINDS, primes=None):
    """factor_profile over [lo, hi] equals plain_profile, array for array, for each kind.

    primes, if given, holds at least the primes <= sqrt(hi); the window gets those.
    """
    primes = kernels.base_primes(hi) if primes is None else primes
    primes = primes[: int(np.searchsorted(primes, math.isqrt(hi), side="right"))]
    for kind in kinds:
        got = kernels.factor_profile(lo, hi, kind, primes=primes)
        want = plain_profile(lo, hi, kind, primes=primes)
        assert len(got) == len(want), kind.label
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w), (kind.label, lo, hi)


@functools.cache
def primes_to_root_1e13():
    return primes_upto(math.isqrt(2 * 10**13))


class TestWheel:
    """The wheel tile of 2, 3, 5, 7 gives the profile of the plain strided loop."""

    @pytest.mark.parametrize("period", [210, 44100])
    @pytest.mark.parametrize("j", [1, 2, 3, 211, 10**5])
    def test_around_multiples_of_the_periods(self, period, j):
        e = j * period
        for edge in (e - 1, e, e + 1):
            for width in (1, 2, 211, period + 1):
                assert_plain_profile(edge, edge + width - 1)
            assert_plain_profile(max(1, edge - 210), edge)

    def test_long_window_across_many_periods(self):
        assert_plain_profile(10**9 - 44100 * 3 - 1, 10**9 + 44100 * 2)

    @pytest.mark.parametrize("hi", [48, 49, 50])
    def test_every_window_where_the_wheel_switches_on(self, hi):
        for lo in range(1, hi + 1):
            assert_plain_profile(lo, hi)

    @pytest.mark.parametrize("hi", [49, 50, 120, 210, 211, 44100, 44101, 10**5])
    def test_wheel_primes_inside_the_window(self, hi):
        for lo in range(1, 9):
            assert_plain_profile(lo, hi)

    @given(st.integers(1, 10**13), st.integers(1, 50000), st.sampled_from(ALL_KINDS))
    # Primes above the width hit the window at most once per power, all in one step:
    # k = 4 * 500009 * 500029 has two of them, 999983**2 is a liouville p**2, and
    # it is the one mobius entry of its window with a square factor.
    @example(4 * 500009 * 500029 - 500, 1001, FunctionKind.MOBIUS)
    @example(4 * 500009 * 500029 - 500, 1001, FunctionKind.LIOUVILLE)
    @example(999983**2 - 500, 1001, FunctionKind.LIOUVILLE)
    @example(999983**2, 1, FunctionKind.MOBIUS)
    @example(10**13 - 22050, 44107, FunctionKind.MOBIUS)
    @example(10**13 - 44101, 44103, FunctionKind.LIOUVILLE)
    @example(10**13 + 1, 211, FunctionKind.PRIME_INDICATOR)
    @example(10**13 - 209, 44101, FunctionKind.CHEBYSHEV_PSI_TERM)
    @example(10**13 - 1, 2, FunctionKind.CHEBYSHEV_THETA_TERM)
    @settings(max_examples=12, deadline=None)
    def test_windows_up_to_1e13(self, lo, width, kind):
        assert_plain_profile(lo, lo + width - 1, kinds=[kind], primes=primes_to_root_1e13())

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.label)
    def test_windows_below_60_with_a_long_shared_prime_list(self, kind):
        # The list holds 2, 3, 5 and 7, so the tile is used even where hi < 49;
        # a wheel prime above hi is not re-marked.
        primes = primes_upto(100)
        for hi in range(1, 60):
            for lo in range(1, hi + 1):
                got = sieve_values(kind, lo, hi, primes=primes).values
                assert np.array_equal(bits(got), bits(sieve_values(kind, lo, hi).values)), (lo, hi)

    def test_tiles_are_read_only_and_shared(self):
        for kind in ALL_KINDS:
            tile = kernels._wheel_tile(kind)
            assert not tile.flags.writeable and tile is kernels._wheel_tile(kind)
            assert len(tile) % (2 * 3 * 5 * 7) ** 2 == 0


BLOCKS = [7, 64, 420, 2**20]
BLOCKED_BELOW = [2, 12, 256, 2**27]  # the last is above every base prime


def block_edges(test):
    """@examples per block and split: lo = 1, hi = 48 and 49, and a multiple of a
    blocked p**2 (p = 11 or 251) at the second block edge and one either side."""
    for block, below in itertools.product(BLOCKS, BLOCKED_BELOW):
        test = example((1, 2 * block + 5, block), below)(test)
        test = example((1, 48, block), below)(test)
        test = example((1, 49, block), below)(test)
        square = 251**2 if below > 251 else 11**2
        edge = square * (2 * block // square + 1)
        for shift in (-1, 0, 1):
            test = example((edge - 2 * block + shift, 3 * block, block), below)(test)
    return test


class TestBlockedWalk:
    """The primes below _BLOCKED_BELOW, walked _SIEVE_BLOCK entries at a time,
    give the profile of the plain strided loop."""

    @given(st.sampled_from(BLOCKS).flatmap(lambda block: st.tuples(  # (lo, width, block)
        st.integers(1, 10**9), st.integers(1, 5 * block + 3), st.just(block))),
        st.sampled_from(BLOCKED_BELOW))
    @block_edges
    @settings(max_examples=16, deadline=None)
    def test_windows_across_block_edges(self, window, below):
        lo, width, block = window
        with mock.patch.object(kernels, "_SIEVE_BLOCK", block), \
                mock.patch.object(kernels, "_BLOCKED_BELOW", below):
            assert_plain_profile(lo, lo + width - 1, primes=primes_to_root_1e13())


class TestCrossOff:
    """_cross_off on an all-True mask: an odd p clears only its odd multiples from
    max(p**2, lo) on, as the wheel tile or p = 2 has cleared the even k; p = 2
    clears every even k >= 4."""

    @staticmethod
    def crossed(lo, n, p):
        prime = np.ones(n, dtype=bool)
        kernels._cross_off(prime, lo, [p])
        return np.flatnonzero(~prime) + lo

    @pytest.mark.parametrize("p", [3, 11, 257])
    def test_odd_prime(self, p):
        # lo odd and even, below p**2, on it, and above it on a multiple of p and off one
        for lo in (1, 2, p * p - 2, p * p - 1, p * p, p * p + 1, 7 * p * p, 7 * p * p + 1, 10**6, 10**6 + 1):
            n = 6 * p + 5
            ks = np.arange(lo, lo + n)
            want = ks[(ks % p == 0) & (ks % 2 == 1) & (ks >= p * p)]
            assert np.array_equal(self.crossed(lo, n, p), want), lo

    def test_two(self):
        for lo in range(1, 9):
            for n in (1, 2, 3, 10, 11):
                ks = np.arange(lo, lo + n)
                assert np.array_equal(self.crossed(lo, n, 2), ks[(ks % 2 == 0) & (ks >= 4)]), (lo, n)


class TestSegmentIndependence:
    @given(st.integers(min_value=1, max_value=9999))
    @settings(max_examples=25, deadline=None)
    def test_any_split_point(self, m):
        for kind in ALL_KINDS:
            whole = sieve_values(kind, 1, 10000).values
            left = sieve_values(kind, 1, m).values
            right = sieve_values(kind, m + 1, 10000).values
            assert np.array_equal(whole, np.concatenate([left, right]))


PSI, THETA = FunctionKind.CHEBYSHEV_PSI_TERM, FunctionKind.CHEBYSHEV_THETA_TERM


def plain_terms(kind, lo, hi, primes):
    """The nonzero psi or theta terms over [lo, hi] from plain_profile: offsets and logs.

    The primes are the flatnonzero of the plain mask; psi appends its prime
    powers and sorts, so nothing is shared with chebyshev_terms.
    """
    profile = plain_profile(lo, hi, kind, primes=primes)
    at = np.flatnonzero(profile[0])
    logs = np.log((at + lo).astype(np.float64))
    if kind is PSI:
        at = np.concatenate((at, profile[1]))
        logs = np.concatenate((logs, np.log(profile[2].astype(np.float64))))
        order = np.argsort(at, kind="stable")
        at, logs = at[order], logs[order]
    return at, logs


def assert_terms_match_plain(lo, hi, kind):
    """sieve_terms over [lo, hi] equals plain_terms, and the nonzero entries of sieve_values."""
    shared = primes_to_root_1e13()
    primes = shared[: int(np.searchsorted(shared, math.isqrt(hi), side="right"))]
    at, logs = kernels.sieve_terms(kind, lo, hi, primes=primes)
    want_at, want_logs = plain_terms(kind, lo, hi, primes)
    assert at.dtype == want_at.dtype and np.array_equal(at, want_at)
    assert logs.dtype == np.float64 and np.array_equal(bits(logs), bits(want_logs))
    values = sieve_values(kind, lo, hi, primes=primes).values
    assert np.array_equal(np.flatnonzero(values), at)
    assert np.array_equal(bits(values[at]), bits(logs))


def wheel_classes(test):
    """An @example per lo % 210 class, kind and width 419, 420 or 421: 1 or 2 rows of 210."""
    for r, kind, width in itertools.product(range(210), (PSI, THETA), (419, 420, 421)):
        test = example(r + 1, width, kind)(test)
    return test


class TestChebyshevTerms:
    """sieve_terms gives the nonzero entries of the plain sieve's table, and of its own, in order."""

    @given(st.integers(1, 10**13), st.integers(1, 5000), st.sampled_from([PSI, THETA]))
    @example(1, 1, PSI)
    @example(1, 3000, PSI)
    @example(1, 48, THETA)  # hi < 49: no wheel
    @example(1, 49, PSI)
    @example(40, 9, PSI)  # hi = 48
    @example(40, 10, THETA)  # hi = 49
    @example(5, 44, PSI)
    @example(2, 6, THETA)  # [2, 7]: only the wheel primes
    @example(7, 420, THETA)  # the wheel prime 7 in front of the columns
    @example(114, 13, THETA)  # [114, 126] holds no term
    @example(121, 1, PSI)  # its only term is the prime power 11**2
    @example(10**9 - 2000, 4096, PSI)
    @example(10**9 - 2000, 4096, THETA)
    @example(10**12 - 2000, 4096, PSI)
    @example(10**12 - 2000, 4096, THETA)
    @wheel_classes
    @settings(max_examples=25, deadline=None)
    def test_terms_are_the_nonzero_entries_of_the_table(self, lo, width, kind):
        with mock.patch.object(kernels, "_WHEEL_SCAN", 420):  # the least window with 2 rows
            assert_terms_match_plain(lo, lo + width - 1, kind)

    @pytest.mark.parametrize("lo", [1, 10**9 + 13])
    @pytest.mark.parametrize("kind", [PSI, THETA], ids=lambda k: k.label)
    def test_windows_around_the_wheel_scan_length(self, lo, kind):
        for width in (kernels._WHEEL_SCAN - 1, kernels._WHEEL_SCAN, kernels._WHEEL_SCAN + 211):
            assert_terms_match_plain(lo, lo + width - 1, kind)

    def test_windows_with_no_term_or_a_prime_power_only(self):
        at, logs = kernels.sieve_terms(THETA, 114, 126)
        assert at.size == logs.size == 0
        at, logs = kernels.sieve_terms(PSI, 121, 121)
        assert at.tolist() == [0] and logs.tolist() == [math.log(11)]


class TestValueRanges:
    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.label)
    def test_full_scan_validates(self, kind):
        table = sieve_values(kind, 1, 50000)
        table.validate()  # raises on any violated range invariant
        v = table.values
        if kind is FunctionKind.MOBIUS:
            assert set(np.unique(v)) <= {-1, 0, 1}
        elif kind is FunctionKind.LIOUVILLE:
            assert set(np.unique(v)) == {-1, 1}
        elif kind is FunctionKind.PRIME_INDICATOR:
            assert set(np.unique(v)) <= {0, 1}
        else:
            assert v.min() >= 0.0
            assert v.max() <= math.log(50000)

    def test_validate_catches_planted_value(self):
        table = sieve_values(FunctionKind.LIOUVILLE, 1, 100)
        hacked = table.values.copy()
        hacked[50] = 0
        bad = ValueTable(FunctionKind.LIOUVILLE, 1, 100, hacked)
        with pytest.raises(CorruptionError):
            bad.validate()


class TestMultiplicativity:
    @given(st.integers(min_value=1, max_value=1000), st.integers(min_value=1, max_value=1000))
    @settings(max_examples=200)
    def test_liouville_completely_multiplicative(self, a, b):
        la, lb, lab = oracle_values(FunctionKind.LIOUVILLE, [a, b, a * b]).tolist()
        assert lab == la * lb


class TestErrorsAndEdges:
    def test_lo_zero_rejected(self):
        with pytest.raises(DomainError):
            sieve_values(FunctionKind.MOBIUS, 0, 10)

    def test_empty_interval_rejected(self):
        with pytest.raises(DomainError):
            sieve_values(FunctionKind.MOBIUS, 5, 4)

    def test_oversized_interval_rejected(self, monkeypatch):
        monkeypatch.setattr(kernels, "DEFAULT_MAX_SEGMENT", 50)
        with pytest.raises(ResourceError):
            sieve_values(FunctionKind.MOBIUS, 1, 100)

    def test_base_primes_beyond_the_cap_rejected(self, monkeypatch):
        with pytest.raises(ResourceError):
            sieve_values(FunctionKind.MOBIUS, 10**18, 10**18)
        monkeypatch.setattr(kernels, "DEFAULT_MAX_SEGMENT", 10)
        with pytest.raises(ResourceError):
            sieve_values(FunctionKind.MOBIUS, 121, 121)
        assert sieve_values(FunctionKind.MOBIUS, 120, 120).values.tolist() == [0]

    def test_value_at_bounds(self):
        t = sieve_values(FunctionKind.MOBIUS, 10, 20)
        assert len(t) == len(t.values) == 11
        assert t.values[0] == oracle_value(FunctionKind.MOBIUS, 10)
        assert t.values[-1] == oracle_value(FunctionKind.MOBIUS, 20)

    def test_values_are_read_only(self):
        t = sieve_values(FunctionKind.MOBIUS, 1, 10)
        with pytest.raises(ValueError):
            t.values[0] = 5

    def test_factorization_accessors(self):
        f = Factorization(12, ((2, 2), (3, 1)))
        assert f.big_omega == 3
        assert f.distinct == 2
        assert not f.is_squarefree
        assert Factorization(1, ()).is_squarefree

    def test_kind_labels_round_trip(self):
        for kind in ALL_KINDS:
            assert KIND_BY_LABEL[kind.label] is kind


def test_primes_upto_small():
    assert primes_upto(1).tolist() == []
    assert primes_upto(30).tolist() == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert len(primes_upto(10**6)) == 78498


def test_sieve_values_reaches_every_stage_through_module_globals(monkeypatch):
    # The benchmark's traced pass times these stages by rebinding them on the
    # module, so sieve_values must look each one up there on every call.
    calls = Counter()
    for name in ("factor_profile", "values_from_profile", "primes_upto"):
        def counted(*args, _real=getattr(kernels, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(kernels, name, counted)
    for kind in ALL_KINDS:
        sieve_values(kind, 10, 100)
    assert calls == {name: len(ALL_KINDS) for name in
                     ("factor_profile", "values_from_profile", "primes_upto")}
