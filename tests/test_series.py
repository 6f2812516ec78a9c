import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from summatoria import kernels
from summatoria.errors import DomainError, ResourceError
from summatoria.kernels import FunctionKind, sieve_values
from summatoria.moments import moment_scan
from summatoria.series import (
    _FLOAT_EXACT_LIMIT,
    DEFAULT_MAX_LIMIT,
    DEFAULT_SEGMENT,
    DeviationSeries,
    MeanModel,
    SummatorySeries,
    _ExactRun,
    accumulate,
    deviation_series,
    geometric_ladder,
    resolve_checkpoints,
    value_at,
)


class TestAccumulateExamples:
    def test_mobius_full_prefix_to_10(self):
        s = accumulate(FunctionKind.MOBIUS, 10, "all")
        assert s.sums.tolist() == [1, 0, -1, -1, -2, -1, -2, -2, -2, -1]

    def test_liouville_prefix_to_10(self):
        s = accumulate(FunctionKind.LIOUVILLE, 10, "all")
        assert s.sums.tolist() == [1, 0, -1, 0, -1, 0, -1, -2, -1, 0]

    def test_prime_count_at_10(self):
        s = accumulate(FunctionKind.PRIME_INDICATOR, 10, [10])
        assert s.checkpoints == [(10, 4)]

    def test_psi_at_10(self):
        s = accumulate(FunctionKind.CHEBYSHEV_PSI_TERM, 10, [10])
        assert s.final_sum == pytest.approx(math.log(2520), rel=1e-14)

    def test_limit_one(self):
        s = accumulate(FunctionKind.MOBIUS, 1)
        assert s.final_sum == 1

    def test_limit_cap(self):
        with pytest.raises(ResourceError):
            accumulate(FunctionKind.MOBIUS, 101, max_limit=100)


class TestLadder:
    def test_default_ladder_values(self):
        assert geometric_ladder(100).tolist() == [1, 2, 3, 4, 6, 8, 12, 16, 23, 32, 46, 64, 91, 100]

    def test_always_ends_at_limit(self):
        for limit in (1, 2, 7, 1000, 999983):
            lad = geometric_ladder(limit)
            assert lad[-1] == limit and lad[0] == 1
            assert (np.diff(lad) > 0).all()

    def test_explicit_plan_sorted_deduped_extended(self):
        cps = resolve_checkpoints(50, [10, 20, 10])
        assert cps.tolist() == [10, 20, 50]

    def test_plan_all(self):
        assert resolve_checkpoints(5, "all").tolist() == [1, 2, 3, 4, 5]

    def test_bad_plans(self):
        with pytest.raises(DomainError):
            resolve_checkpoints(10, "sometimes")
        with pytest.raises(DomainError):
            resolve_checkpoints(10, [0, 5])
        with pytest.raises(DomainError):
            resolve_checkpoints(10, [20])
        with pytest.raises(DomainError):
            resolve_checkpoints(10, 0.5)

    def test_ratio_plan(self):
        assert resolve_checkpoints(64, 2.0).tolist() == [1, 2, 4, 8, 16, 32, 64]


class TestDeviation:
    def test_zero_model_is_identity(self):
        s = accumulate(FunctionKind.LIOUVILLE, 500)
        d = deviation_series(s)
        assert np.array_equal(d.deviations, s.sums.astype(float))

    def test_mertens_at_10(self):
        s = accumulate(FunctionKind.MOBIUS, 10, "all")
        d = deviation_series(s, MeanModel(0.0))
        assert d.deviations[-1] == -1.0

    def test_constant_density_cancels(self):
        # synthetic S(n) = n, the prefix sums of f identically 1
        ns = np.arange(1, 21, dtype=np.int64)
        s = SummatorySeries(FunctionKind.PRIME_INDICATOR, 20, ns, ns.copy())
        d = deviation_series(s, MeanModel(1.0))
        assert np.all(d.deviations == 0.0)

    def test_mean_model_must_be_finite(self):
        with pytest.raises(DomainError):
            MeanModel(math.inf)

    def test_checkpoints_property(self):
        s = accumulate(FunctionKind.MOBIUS, 10, "all")
        d = deviation_series(s)
        assert d.checkpoints[-1] == (10, -1.0)
        assert d.ns is s.ns


class TestSeriesInvariants:
    @pytest.mark.parametrize("kind", [FunctionKind.MOBIUS, FunctionKind.LIOUVILLE,
                                      FunctionKind.PRIME_INDICATOR], ids=lambda k: k.label)
    def test_bounded_by_n(self, kind):
        s = accumulate(kind, 20000, "all")
        assert bool((np.abs(s.sums) <= s.ns).all())

    def test_construction_rejects_bad_checkpoints(self):
        ns = np.array([1, 5, 3], dtype=np.int64)
        with pytest.raises(DomainError):
            SummatorySeries(FunctionKind.MOBIUS, 5, ns, np.zeros(3, dtype=np.int64))
        with pytest.raises(DomainError):
            SummatorySeries(FunctionKind.MOBIUS, 5, np.array([1, 4], dtype=np.int64),
                            np.zeros(2, dtype=np.int64))  # last != limit
        with pytest.raises(DomainError):
            SummatorySeries(FunctionKind.MOBIUS, 5, np.empty(0, dtype=np.int64),
                            np.empty(0, dtype=np.int64))

    def test_rejects_impossible_magnitudes(self):
        ns = np.array([1, 5], dtype=np.int64)
        sums = np.array([1, 9], dtype=np.int64)
        with pytest.raises(DomainError):
            SummatorySeries(FunctionKind.MOBIUS, 5, ns, sums)


class TestPrefixAdditivity:
    @given(st.integers(min_value=1, max_value=4000), st.integers(min_value=1, max_value=4000))
    @settings(max_examples=30, deadline=None)
    def test_differences_match_fresh_segments(self, a, b):
        if a > b:
            a, b = b, a
        series = accumulate(FunctionKind.MOBIUS, 4000)
        gap = sieve_values(FunctionKind.MOBIUS, a + 1, b).values if a < b else np.array([], dtype=np.int8)
        assert value_at(series, b) - value_at(series, a) == int(gap.astype(np.int64).sum())


B = 1 << 12
EDGES = (B - 1, B, B + 1)


def exact_prefix(terms: np.ndarray) -> np.ndarray:
    return np.concatenate(([0], np.cumsum(terms, dtype=np.int64)))


def read_out(terms: np.ndarray, counts) -> tuple[list[int], int]:
    run = _ExactRun()
    return run.add(terms, counts).tolist(), run.total


def stretch_sums(terms: np.ndarray, counts) -> list[int]:
    """Sums of terms[counts[i - 1]:counts[i]] (from 0 for i = 0), read out of the prefixes."""
    sums, _ = read_out(terms, np.asarray(counts, dtype=np.int64))
    return np.diff([0, *sums]).tolist()


class TestIntegerReadout:
    def test_stretch_sums_with_empty_and_repeated_counts(self):
        terms = np.array([1, -1, 1, 1, 0, -1], dtype=np.int8)
        assert stretch_sums(terms, []) == []
        assert stretch_sums(terms, [0, 2, 2, 6]) == [0, 0, 0, 1]
        assert stretch_sums(terms, [3, 3]) == [1, 0]

    @given(st.lists(st.integers(0, 40), max_size=8), st.integers(0, 40))
    @settings(max_examples=60, deadline=None)
    def test_stretch_sums_match_a_cumsum(self, counts, length):
        terms = np.resize(np.array([1, -1, 0, 1, 1], dtype=np.int8), length)
        counts = sorted(c for c in counts if c <= length)
        cum = exact_prefix(terms)
        assert np.cumsum(stretch_sums(terms, counts), dtype=np.int64).tolist() == cum[counts].tolist()

    @given(
        st.integers(0, 3 * B + 17),
        st.sampled_from([(-1, 0, 1), (0, 1)]),
        st.integers(0, 2**32 - 1),
        st.lists(st.integers(0, 3 * B + 17), max_size=10),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_an_int64_cumsum(self, length, alphabet, seed, picks):
        terms = np.random.default_rng(seed).choice(np.array(alphabet, dtype=np.int8), length)
        cum = exact_prefix(terms)
        counts = sorted(c for c in [0, 0, length, length, *EDGES, *picks] if c <= length)
        counts = np.array(counts, dtype=np.int64)
        assert read_out(terms, counts) == (cum[counts].tolist(), cum[-1])
        assert read_out(terms, np.array([], dtype=np.int64)) == ([], cum[-1])

    @pytest.mark.parametrize("plan", ["geometric", "all"])
    def test_one_full_segment(self, plan):
        n = 1 << 22
        terms = sieve_values(FunctionKind.MOBIUS, 1, n).values
        counts = resolve_checkpoints(n, plan)
        cum = exact_prefix(terms)
        sums, total = read_out(terms, counts)
        assert sums == cum[counts].tolist() and total == cum[-1]

    def test_peak_memory_per_entry(self):
        n = 1 << 20
        terms = sieve_values(FunctionKind.MOBIUS, 1, n).values
        counts = geometric_ladder(n)
        read_out(terms, counts)
        tracemalloc.start()
        try:
            _ExactRun().add(terms, counts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * n

    @pytest.mark.parametrize("kind", [k for k in FunctionKind if k.is_integer_valued], ids=lambda k: k.label)
    def test_segment_size_never_changes_s_or_q(self, kind):
        limit = 5 * B + 3
        sizes = (B - 1, B, B + 1, DEFAULT_SEGMENT)
        for plan in ("geometric", "all"):
            sums = {accumulate(kind, limit, plan, segment_size=z).sums.tobytes() for z in sizes}
            scans = {tuple((r.sum_S, r.sum_Q) for r in moment_scan(kind, limit, plan, segment_size=z))
                     for z in sizes}
            assert len(sums) == 1 and len(scans) == 1
            full = sieve_values(kind, 1, limit).values
            cps = resolve_checkpoints(limit, plan)
            assert np.frombuffer(sums.pop(), dtype=np.int64).tolist() == exact_prefix(full)[cps].tolist()
            assert [q for _, q in scans.pop()] == exact_prefix(full * full)[cps].tolist()


class TestValueAt:
    def test_examples(self):
        m = accumulate(FunctionKind.MOBIUS, 10, "all")
        assert value_at(m, 10) == -1
        l = accumulate(FunctionKind.LIOUVILLE, 10)
        assert value_at(l, 1) == 1
        p = accumulate(FunctionKind.PRIME_INDICATOR, 10)
        assert value_at(p, 10) == 4

    def test_gap_rescan_matches_dense(self):
        dense = accumulate(FunctionKind.LIOUVILLE, 3000, "all")
        sparse = accumulate(FunctionKind.LIOUVILLE, 3000)
        for n in (1, 2, 17, 100, 1234, 2999, 3000):
            assert value_at(sparse, n, segment_size=577) == int(dense.sums[n - 1])

    def test_beyond_limit_rejected(self):
        s = accumulate(FunctionKind.MOBIUS, 100)
        with pytest.raises(DomainError):
            value_at(s, 101)
        with pytest.raises(DomainError):
            value_at(s, 0)

    def test_float_kind_gap(self):
        dense = accumulate(FunctionKind.CHEBYSHEV_THETA_TERM, 2000, "all")
        sparse = accumulate(FunctionKind.CHEBYSHEV_THETA_TERM, 2000, [2000])
        got = value_at(sparse, 1234, segment_size=300)
        assert got == float(dense.sums[1233])


class TestParityBalanceConsistency:
    def test_liouville_sum_equals_count_difference(self):
        table = sieve_values(FunctionKind.LIOUVILLE, 1, 5000)
        series = accumulate(FunctionKind.LIOUVILLE, 5000, "all")
        plus = np.cumsum(table.values == 1)
        minus = np.cumsum(table.values == -1)
        assert np.array_equal(series.sums, plus - minus)


class TestDeterminism:
    def test_thread_count_never_changes_results(self):
        for kind in (FunctionKind.MOBIUS, FunctionKind.CHEBYSHEV_PSI_TERM):
            base = accumulate(kind, 100000, "geometric", segment_size=1 << 13, threads=1)
            for threads in (2, 5):
                again = accumulate(kind, 100000, "geometric", segment_size=1 << 13, threads=threads)
                assert np.array_equal(base.ns, again.ns)
                assert base.sums.tobytes() == again.sums.tobytes()

    def test_segmentation_invariance_for_integer_kinds(self):
        a = accumulate(FunctionKind.MOBIUS, 30000, "geometric", segment_size=1 << 20)
        b = accumulate(FunctionKind.MOBIUS, 30000, "geometric", segment_size=997)
        assert np.array_equal(a.sums, b.sums)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_one_base_prime_sieve_per_walk(self, monkeypatch, threads):
        for kind in (FunctionKind.MOBIUS, FunctionKind.LIOUVILLE):
            whole = accumulate(kind, 30000, "all")
            calls = []
            real = kernels.primes_upto
            monkeypatch.setattr(kernels, "primes_upto", lambda n: calls.append(n) or real(n))
            split = accumulate(kind, 30000, "all", segment_size=997, threads=threads)
            monkeypatch.undo()
            assert calls == [math.isqrt(30000)]
            assert np.array_equal(split.sums, whole.sums)

    def test_base_primes_past_the_cap_refused_before_sieving(self, monkeypatch):
        def refuse(limit):
            raise AssertionError(f"sieved the primes up to {limit}")

        monkeypatch.setattr(kernels, "primes_upto", refuse)
        with pytest.raises(ResourceError):
            accumulate(FunctionKind.MOBIUS, 2**53, [1], max_limit=2**53)


class TestFloatAccuracy:
    def test_psi_checkpoints_match_exact_partial_sums(self):
        limit = 200000
        series = accumulate(FunctionKind.CHEBYSHEV_PSI_TERM, limit, segment_size=1 << 14)
        values = sieve_values(FunctionKind.CHEBYSHEV_PSI_TERM, 1, limit).values
        for n, s in series.checkpoints[-6:]:
            exact = math.fsum(values[:n])
            assert s == exact, (n, s, exact)

    def test_psi_plan_independent(self):
        geometric = accumulate(FunctionKind.CHEBYSHEV_PSI_TERM, 10**5)
        dense = accumulate(FunctionKind.CHEBYSHEV_PSI_TERM, 10**5, "all")
        assert dense.sums[geometric.ns - 1].tobytes() == geometric.sums.tobytes()

    @pytest.mark.parametrize("kind", [FunctionKind.CHEBYSHEV_PSI_TERM,
                                      FunctionKind.CHEBYSHEV_THETA_TERM], ids=lambda k: k.label)
    def test_random_prefixes_match_fsum_for_any_segmentation(self, kind):
        limit = 30000
        values = sieve_values(kind, 1, limit).values
        ns = np.random.default_rng(7).choice(np.arange(1, limit), 50, replace=False)
        want = [math.fsum(values[:n]) for n in sorted(ns)] + [math.fsum(values)]
        for segment_size, threads in ((1 << 22, 1), (997, 1), (4096, 3)):
            series = accumulate(kind, limit, ns, segment_size=segment_size, threads=threads)
            assert series.sums.tolist() == want
        sparse = accumulate(kind, limit, [limit])
        assert [value_at(sparse, int(n), segment_size=613) for n in sorted(ns)] == want[:-1]


class TestFloatExactRange:
    """The fixed-point limbs cannot overflow int64 up to _FLOAT_EXACT_LIMIT."""

    def test_bound_covers_default_max_limit(self):
        assert _FLOAT_EXACT_LIMIT >= DEFAULT_MAX_LIMIT

    def test_limb_bounds_at_the_limit(self):
        n = _FLOAT_EXACT_LIMIT
        log_n = math.log(n)
        # a square (log p)^2 scaled by 2**54 fits int64
        assert log_n**2 * 2**54 < 2**63
        # high limbs of S and Q; psi(x) < 1.03883 x (Rosser-Schoenfeld)
        assert 1.03883 * n * 2**(53 - 29) < 2**62
        assert 1.03883 * n * log_n * 2**(54 - 29) < 2**62

    @pytest.mark.parametrize("kind", [FunctionKind.CHEBYSHEV_PSI_TERM,
                                      FunctionKind.CHEBYSHEV_THETA_TERM], ids=lambda k: k.label)
    def test_float_kinds_refuse_beyond_the_limit(self, kind):
        limit = _FLOAT_EXACT_LIMIT + 1
        with pytest.raises(ResourceError):
            accumulate(kind, limit, max_limit=limit)
