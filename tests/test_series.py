import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from summatoria import kernels
from summatoria import series as series_mod
from summatoria.errors import DomainError, ResourceError
from summatoria.kernels import FunctionKind, sieve_values
from summatoria.moments import moment_scan
from summatoria.series import (
    _FLOAT_EXACT_LIMIT,
    DEFAULT_MAX_LIMIT,
    DEFAULT_SEGMENT,
    SummatorySeries,
    _ExactRun,
    accumulate,
    geometric_ladder,
    resolve_checkpoints,
    segment_runs,
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
        assert (s.ns.tolist(), s.sums.tolist()) == ([10], [4])

    def test_psi_at_10(self):
        s = accumulate(FunctionKind.CHEBYSHEV_PSI_TERM, 10, [10])
        assert s.sums[-1] == pytest.approx(math.log(2520), rel=1e-14)

    def test_limit_one(self):
        s = accumulate(FunctionKind.MOBIUS, 1)
        assert (s.ns.tolist(), s.sums.tolist()) == ([1], [1])

    def test_limit_cap(self, monkeypatch):
        monkeypatch.setattr(series_mod, "DEFAULT_MAX_LIMIT", 100)
        assert accumulate(FunctionKind.MOBIUS, 100).ns[-1] == 100
        with pytest.raises(ResourceError, match="limit 101 exceeds the configured maximum 100"):
            accumulate(FunctionKind.MOBIUS, 101)


class TestChangePoints:
    def test_first_values(self):
        [(ns, sums, lengths)] = segment_runs(FunctionKind.MOBIUS, 10)
        assert (ns.tolist(), sums.tolist()) == ([1, 2, 3, 5, 6, 7, 10], [1, 0, -1, -2, -1, -2, -1])
        assert lengths.tolist() == [1, 1, 2, 1, 1, 3, 1]
        [(ns, sums, _)] = segment_runs(FunctionKind.CHEBYSHEV_PSI_TERM, 10)
        assert ns.tolist() == [1, 2, 3, 4, 5, 7, 8, 9]
        assert sums[0] == 0.0 and sums[-1] == accumulate(FunctionKind.CHEBYSHEV_PSI_TERM, 10, [10]).sums[0]

    def test_segment_without_a_change_point(self):
        runs = segment_runs(FunctionKind.PRIME_INDICATOR, 100, segment_size=5)  # [91, 95] has no prime
        [(ns, sums, lengths)] = [run for run in runs if run[0][0] == 91]
        assert (ns.tolist(), sums.tolist(), lengths.tolist()) == ([91], [24], [5])

    def test_refuses_what_accumulate_refuses(self, monkeypatch):
        monkeypatch.setattr(series_mod, "DEFAULT_MAX_LIMIT", 100)
        for kwargs, error in (({"limit": 0}, DomainError), ({"limit": 101}, ResourceError),
                              ({"limit": 10, "segment_size": 0}, DomainError)):
            with pytest.raises(error) as ours:
                next(segment_runs(FunctionKind.MOBIUS, **kwargs))
            with pytest.raises(error) as every_n:
                accumulate(FunctionKind.MOBIUS, checkpoint_plan="all", **kwargs)
            assert str(ours.value) == str(every_n.value)
        monkeypatch.undo()
        monkeypatch.setattr(series_mod, "MAX_CHECKPOINTS", 1000)
        assert sum(len(ns) for ns, _, _ in segment_runs(FunctionKind.LIOUVILLE, 1000)) == 1000
        with pytest.raises(ResourceError, match="every n is 1001 checkpoints, above the cap of 1000"):
            next(segment_runs(FunctionKind.CHEBYSHEV_PSI_TERM, 1001))


LADDER_RATIOS = (3.0, 2.0, 1.5, 1.4999999, 1.3, 1.1, 1.01, 1.001, 1.0001, 1.00001, 1.000007, 1.000003)


def reference_ladder(limit: int, ratio: float) -> list[int]:
    """The ratio ladder as one power per iteration: ceil(ratio**j) <= limit, plus limit."""
    points = {limit}
    j = 0
    while True:
        n = math.ceil(ratio**j)
        if n > limit:
            break
        points.add(n)
        j += 1
    return sorted(points)


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
        with pytest.raises(DomainError):
            resolve_checkpoints(10, math.inf)

    def test_ratio_plan(self):
        assert resolve_checkpoints(64, 2.0).tolist() == [1, 2, 4, 8, 16, 32, 64]

    @pytest.mark.parametrize("ratio", LADDER_RATIOS)
    def test_ratio_ladder_matches_the_power_loop(self, ratio):
        for limit in (1, 2, 3, 10, 99, 1000, 4097, 10**5, 10**6):
            ladder = geometric_ladder(limit, ratio)
            assert ladder.dtype == np.int64
            assert ladder.tolist() == reference_ladder(limit, ratio), limit

    def test_ratio_next_to_one_is_linear_in_the_points(self):
        t0 = time.monotonic()
        for ratio in (1 + 1e-12, 1.0000001, 1 + 2**-52):
            assert geometric_ladder(10**6, ratio).tolist() == list(range(1, 10**6 + 1))
        assert time.monotonic() - t0 < 5.0

    def test_fine_ratio_ladder_is_quick(self):
        t0 = time.monotonic()
        ladder = geometric_ladder(10**8, 1.00001)
        elapsed = time.monotonic() - t0
        assert ladder.tolist() == reference_ladder(10**8, 1.00001)
        assert elapsed < 0.25

    def test_block_ends_off_by_one_ulp_fall_back_to_the_power_loop(self, monkeypatch):
        real = np.float_power
        monkeypatch.setattr(np, "float_power", lambda x, j: np.nextafter(real(x, j), np.inf))
        for ratio in (1.001, 1.00001):
            assert geometric_ladder(10**5, ratio).tolist() == reference_ladder(10**5, ratio)

    def test_checkpoint_cap_before_the_ladder(self, monkeypatch):
        with pytest.raises(ResourceError, match="above the cap"):
            resolve_checkpoints(10**9, "all")
        with pytest.raises(ResourceError, match="above the cap"):
            geometric_ladder(10**9, 1 + 2**-52)
        monkeypatch.setattr(series_mod, "MAX_CHECKPOINTS", 1000)
        assert len(resolve_checkpoints(1000, "all")) == 1000
        with pytest.raises(ResourceError):
            resolve_checkpoints(1001, "all")
        assert len(geometric_ladder(10**6, 1.02)) <= 1000
        with pytest.raises(ResourceError):
            geometric_ladder(10**6, 1.001)  # 500 points below 500, then about 7600 powers

    def test_limit_cap_before_the_ladder(self, monkeypatch):
        with pytest.raises(ResourceError):
            resolve_checkpoints(DEFAULT_MAX_LIMIT + 1)
        monkeypatch.setattr(series_mod, "DEFAULT_MAX_LIMIT", 100)
        assert resolve_checkpoints(100, "all")[-1] == 100
        with pytest.raises(ResourceError):
            resolve_checkpoints(101, "all")


def set_resolved(limit, plan):
    """The explicit plan resolved through a Python set of every position."""
    points = sorted({int(n) for n in plan} | {limit})
    if points[0] < 1:
        raise DomainError("explicit checkpoints must be positive integers")
    if points[-1] > limit:
        raise DomainError(f"checkpoint {points[-1]} exceeds limit {limit}")
    return points


CONTAINERS = {
    "list": list,
    "tuple": tuple,
    "set": set,
    "generator": lambda v: (n for n in v),
    "array": lambda v: np.array(v, dtype=np.int64),
}


class TestExplicitPlans:
    @given(limit=st.integers(1, 200), values=st.lists(st.integers(-3, 250), max_size=40),
           with_limit=st.booleans(), container=st.sampled_from(sorted(CONTAINERS)))
    @settings(max_examples=300, deadline=None)
    def test_numpy_resolver_equals_the_set(self, limit, values, with_limit, container):
        values = values + [limit] * with_limit
        try:
            want = set_resolved(limit, values)
        except DomainError as exc:
            with pytest.raises(DomainError) as got:
                resolve_checkpoints(limit, CONTAINERS[container](values))
            assert str(got.value) == str(exc)
            return
        got = resolve_checkpoints(limit, CONTAINERS[container](values))
        assert got.dtype == np.int64
        assert got.tolist() == want

    @pytest.mark.parametrize("container", ["list", "tuple", "set", "generator"])
    @pytest.mark.parametrize("big", [2**63, 10**20, -(2**63) - 1])
    def test_positions_past_int64_are_domain_errors(self, container, big):
        with pytest.raises(DomainError):
            set_resolved(10, [5, big])
        with pytest.raises(DomainError):
            resolve_checkpoints(10, CONTAINERS[container]([5, big]))

    def test_peak_memory_per_checkpoint(self):
        n = 10**6
        plan = np.arange(1, n + 1)
        resolve_checkpoints(n, plan)
        tracemalloc.start()
        try:
            resolve_checkpoints(n, plan)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # A Python set of every position took 99 bytes per checkpoint.
        assert peak <= 40 * n


class TestDeviation:
    """Every kind has zero density, so S(n) is its own deviation from the mean."""

    def test_mertens_at_10(self):
        s = accumulate(FunctionKind.MOBIUS, 10, "all")
        assert s.sums[-1] == -1

    def test_checkpoints_property(self):
        s = accumulate(FunctionKind.MOBIUS, 10, [4, 10])
        assert (s.ns.tolist(), s.sums.tolist()) == ([4, 10], [-1, -1])
        assert s.ns.dtype == s.sums.dtype == np.int64
        theta = accumulate(FunctionKind.CHEBYSHEV_THETA_TERM, 10, [10])
        assert theta.ns.tolist() == [10] and theta.sums.dtype == np.float64
        assert theta.sums[-1] == pytest.approx(math.log(210), rel=1e-14)


class TestSeriesInvariants:
    @pytest.mark.parametrize("kind", [FunctionKind.MOBIUS, FunctionKind.LIOUVILLE,
                                      FunctionKind.PRIME_INDICATOR], ids=lambda k: k.label)
    def test_bounded_by_n(self, kind):
        s = accumulate(kind, 20000, "all")
        assert bool((np.abs(s.sums) <= s.ns).all())

    def test_construction_rejects_bad_checkpoints(self):
        for ns in ([1, 5, 3], [1, 5, 5]):
            with pytest.raises(DomainError):
                SummatorySeries(FunctionKind.MOBIUS, 5, np.array(ns, dtype=np.int64),
                                np.zeros(3, dtype=np.int64))
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

    BLOCK = series_mod._CHECK_BLOCK

    @pytest.mark.parametrize("row", [BLOCK, BLOCK - 1, 4 * BLOCK - 1],
                             ids=["block-first-row", "block-last-row", "last-row"])
    def test_blockwise_checks_catch_a_fault_at_any_row(self, row):
        """Row BLOCK repeating row BLOCK - 1 is out of order only across the block boundary."""
        n = 4 * self.BLOCK
        ns, sums = np.arange(1, n + 1), np.zeros(n, dtype=np.int64)
        SummatorySeries(FunctionKind.MOBIUS, n, ns.copy(), sums.copy())
        repeated = ns.copy()
        repeated[row] = repeated[row - 1]
        with pytest.raises(DomainError, match="strictly increasing"):
            SummatorySeries(FunctionKind.MOBIUS, int(repeated[-1]), repeated, sums.copy())
        too_big = sums.copy()
        too_big[row] = -ns[row] - 1
        with pytest.raises(DomainError, match="accumulator is corrupt"):
            SummatorySeries(FunctionKind.MOBIUS, n, ns.copy(), too_big)

    def test_checks_allocate_a_block_not_the_series(self):
        n = 4 * self.BLOCK
        ns, sums = np.arange(1, n + 1), np.zeros(n, dtype=np.int64)
        tracemalloc.start()
        try:
            SummatorySeries(FunctionKind.MOBIUS, n, ns, sums)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Whole-series temporaries peaked at 37.7 MB; a block of checks takes 9.4 MB.
        assert peak <= 16 * 2**20


class TestPrefixAdditivity:
    @given(st.integers(min_value=1, max_value=4000), st.integers(min_value=1, max_value=4000))
    @settings(max_examples=30, deadline=None)
    def test_differences_match_fresh_segments(self, a, b):
        if a > b:
            a, b = b, a
        s = accumulate(FunctionKind.MOBIUS, 4000, [a, b])
        at = dict(zip(s.ns.tolist(), s.sums.tolist()))
        gap = sieve_values(FunctionKind.MOBIUS, a + 1, b).values if a < b else np.array([], dtype=np.int8)
        assert at[b] - at[a] == int(gap.astype(np.int64).sum())


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

    @pytest.mark.parametrize("term", [7, -7])
    def test_block_sums_at_the_int16_edge(self, term):
        # A whole block of +-7 sums to +-28,672, the most an int16 block sum holds;
        # the int64 prefix over three of them and a partial tail does not fit int16.
        terms = np.full(3 * B + 100, term, dtype=np.int8)
        counts = [0, 1, B - 1, B, B + 1, 2 * B, 3 * B - 1, 3 * B, 3 * B + 1, 3 * B + 100]
        want = [0, *itertools.accumulate(terms.tolist())]
        sums, total = series_mod._block_prefix(terms, np.array(counts, dtype=np.int64))
        assert sums.dtype == np.int64
        assert sums.tolist() == [want[c] for c in counts] and total == want[-1] == term * len(terms)

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

    @pytest.mark.parametrize("kind", [FunctionKind.MOBIUS, FunctionKind.CHEBYSHEV_PSI_TERM],
                             ids=lambda k: k.label)
    def test_peak_memory_of_an_every_n_walk(self, kind):
        n = 10**6
        accumulate(kind, 1000, "all")
        tracemalloc.start()
        try:
            accumulate(kind, n, "all")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # A readout per checkpoint took 53 (mobius) and 67 (psi) bytes per n.
        assert peak <= 46 * n

    @pytest.mark.parametrize("kind", list(FunctionKind), ids=lambda k: k.label)
    def test_segment_size_never_changes_s_or_q(self, kind):
        limit = 5 * B + 3
        sizes = (B - 1, B, B + 1, DEFAULT_SEGMENT)
        for plan in ("geometric", "all"):
            sums = {accumulate(kind, limit, plan, segment_size=z).sums.tobytes() for z in sizes}
            scans = {(t.S.tobytes(), t.Q.tobytes())
                     for t in (moment_scan(kind, limit, plan, segment_size=z) for z in sizes)}
            assert len(sums) == 1 and len(scans) == 1
            full = sieve_values(kind, 1, limit).values
            cps = resolve_checkpoints(limit, plan)
            if kind.is_integer_valued:
                want_s, want_q = exact_prefix(full)[cps], exact_prefix(full * full)[cps]
            else:
                # Between its terms f is 0, so S(n) is the fsum of the terms up to n.
                terms = full[full != 0]
                count = np.cumsum(full != 0)[cps - 1]
                want_s = np.array([math.fsum(terms[:c]) for c in range(len(terms) + 1)])[count]
                want_q = np.array([math.fsum(terms[:c] ** 2) for c in range(len(terms) + 1)])[count]
            s, q = scans.pop()
            assert sums.pop() == s == want_s.tobytes()
            assert q == want_q.tobytes()


def exact_run_terms(scale, length: int, seed: int) -> np.ndarray:
    """Terms _ExactRun(scale) takes: ±1/0, log p (2**-53 grid) or its square (2**-54 grid)."""
    rng = np.random.default_rng(seed)
    if scale is None:
        return rng.choice(np.array([-1, 0, 1], dtype=np.int8), length)
    logs = np.log(rng.choice(np.array([2.0, 3.0, 5.0, 97.0, 65521.0, 999983.0]), length))
    return logs if scale == 53 else logs * logs


def check_exact_run(scale, steps, edges=None):
    """Feed _ExactRun(scale) the steps (length, extra, seed) and check every readout.

    Each step reads out length + extra random counts, or with edges a
    sixteenth of that plus 0, length, and the counts on and just past each
    multiple of edges. A readout must equal the exact sum of the terms so
    far, or for a scale its correctly rounded float.
    """
    run, exact = _ExactRun(scale), [0]
    for length, extra, seed in steps:
        terms = exact_run_terms(scale, length, seed)
        size = max(0, length + extra) // (1 if edges is None else 16)
        counts = np.random.default_rng(seed).integers(0, length + 1, size)
        if edges is not None:
            on = np.arange(0, length + 1, edges)
            counts = np.concatenate((counts, on, on[1:] + 1, [0, length]))
            counts = counts[counts <= length]
        counts = np.sort(counts)
        base = len(exact) - 1
        units = terms.tolist() if scale is None else [int(t) for t in np.ldexp(terms, scale)]
        for u in units:
            exact.append(exact[-1] + u)
        out = run.add(terms, counts).tolist()
        if scale is None:
            assert out == [exact[base + c] for c in counts.tolist()]
        else:
            assert out == [math.ldexp(float(exact[base + c]), -scale) for c in counts.tolist()]
        assert run.total == exact[-1]


class TestDenseReadout:
    """Counts at least as many as the terms take one readout of every prefix."""

    @given(
        st.sampled_from([None, 53, 54]),
        st.lists(st.tuples(st.integers(0, B + 17), st.integers(-1, 1), st.integers(0, 2**32 - 1)),
                 min_size=1, max_size=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_below_at_and_above_the_term_count(self, scale, steps):
        check_exact_run(scale, steps)

    @pytest.mark.parametrize("kind", list(FunctionKind), ids=lambda k: k.label)
    def test_walk_dense_then_sparse(self, kind, monkeypatch):
        limit, size = 12000, 1000
        plan = [*range(1, 3001), *range(3001, limit, 700)]
        sparse = []
        real = series_mod._block_prefix
        monkeypatch.setattr(series_mod, "_block_prefix",
                            lambda terms, counts: sparse.append(len(counts)) or real(terms, counts))
        table = moment_scan(kind, limit, plan, segment_size=size)
        values = sieve_values(kind, 1, limit).values
        if kind.is_integer_valued:
            assert table.S.tolist() == exact_prefix(values)[table.n].tolist()
            assert table.Q.tolist() == exact_prefix(values * values)[table.n].tolist()
            # Only the nine segments past the every-n stretch hold fewer counts than terms.
            assert len(sparse) == 2 * 9
        else:
            squares = values * values
            assert table.S.tolist() == [math.fsum(values[:n]) for n in table.n.tolist()]
            assert table.Q.tolist() == [math.fsum(squares[:n]) for n in table.n.tolist()]


class TestLongStreamReadout:
    """A stream longer than 2**16 terms is read out in one fixed-point pass, at counts on and past 2**16."""

    @pytest.mark.parametrize("edges", [2**16, None], ids=["sparse", "dense"])
    @pytest.mark.parametrize("scale", [53, 54])
    def test_counts_on_and_past_each_multiple_of_2_16(self, scale, edges):
        check_exact_run(scale, [(2**17 + 5, 0, 2**17)], edges=edges)

    @pytest.mark.parametrize("start", [0, 1])
    def test_slice_counts_equal_the_same_counts_as_an_array(self, start):
        terms = exact_run_terms(53, 2**17 + 5, start)
        by_slice, by_array = _ExactRun(53), _ExactRun(53)
        for _ in range(2):  # the second add starts from a nonzero total
            want = by_array.add(terms, np.arange(start, len(terms) + 1))
            assert by_slice.add(terms, slice(start, None)).tobytes() == want.tobytes()


class TestValueAt:
    """S(n) at any n <= limit, read through explicit checkpoints."""

    def test_examples(self):
        assert accumulate(FunctionKind.MOBIUS, 10, [10]).sums[-1] == -1
        s = accumulate(FunctionKind.LIOUVILLE, 10, [1])
        assert (s.ns[0], s.sums[0]) == (1, 1)
        assert accumulate(FunctionKind.PRIME_INDICATOR, 10, [10]).sums[-1] == 4

    def test_gap_rescan_matches_dense(self):
        dense = accumulate(FunctionKind.LIOUVILLE, 3000, "all")
        ns = [1, 2, 17, 100, 1234, 2999, 3000]
        sparse = accumulate(FunctionKind.LIOUVILLE, 3000, ns, segment_size=577)
        assert sparse.sums.tolist() == dense.sums[np.array(ns) - 1].tolist()

    def test_beyond_limit_rejected(self):
        with pytest.raises(DomainError):
            accumulate(FunctionKind.MOBIUS, 100, [101])
        with pytest.raises(DomainError):
            accumulate(FunctionKind.MOBIUS, 100, [0])

    def test_float_kind_gap(self):
        dense = accumulate(FunctionKind.CHEBYSHEV_THETA_TERM, 2000, "all")
        sparse = accumulate(FunctionKind.CHEBYSHEV_THETA_TERM, 2000, [1234, 2000], segment_size=300)
        assert sparse.sums[0] == dense.sums[1233]


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

    def test_pool_only_for_a_walk_of_several_segments(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("started a thread pool")

        whole = accumulate(FunctionKind.MOBIUS, 5000, "all")
        monkeypatch.setattr(series_mod, "ThreadPoolExecutor", refuse)
        one = accumulate(FunctionKind.MOBIUS, 5000, "all", threads=2, segment_size=5000)
        assert np.array_equal(one.sums, whole.sums)
        with pytest.raises(AssertionError, match="thread pool"):
            accumulate(FunctionKind.MOBIUS, 5000, "all", threads=2, segment_size=4999)

    def test_base_primes_past_the_cap_refused_before_sieving(self, monkeypatch):
        def refuse(limit):
            raise AssertionError(f"sieved the primes up to {limit}")

        monkeypatch.setattr(kernels, "primes_upto", refuse)
        monkeypatch.setattr(series_mod, "DEFAULT_MAX_LIMIT", 2**53)
        with pytest.raises(ResourceError):
            accumulate(FunctionKind.MOBIUS, 2**53, [1])


class TestFloatAccuracy:
    def test_psi_checkpoints_match_exact_partial_sums(self):
        limit = 200000
        series = accumulate(FunctionKind.CHEBYSHEV_PSI_TERM, limit, segment_size=1 << 14)
        values = sieve_values(FunctionKind.CHEBYSHEV_PSI_TERM, 1, limit).values
        for n, s in zip(series.ns[-6:].tolist(), series.sums[-6:].tolist()):
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
        for segment_size, threads in ((1 << 22, 1), (997, 1), (613, 1), (4096, 3)):
            series = accumulate(kind, limit, ns, segment_size=segment_size, threads=threads)
            assert series.sums.tolist() == want


    @pytest.mark.parametrize("walk, kind", [(accumulate, FunctionKind.CHEBYSHEV_PSI_TERM),
                                            (moment_scan, FunctionKind.CHEBYSHEV_THETA_TERM)],
                             ids=["accumulate-psi", "moment_scan-theta"])
    def test_peak_memory_of_a_float_walk(self, walk, kind):
        n = 2 * 10**6  # one segment, geometric plan
        walk(kind, n)
        tracemalloc.start()
        try:
            walk(kind, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # A dense float64 table per segment took the peak to 11.6 (psi) and 12.2 (theta) bytes.
        assert peak <= 5 * n


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
    def test_float_kinds_refuse_beyond_the_limit(self, kind, monkeypatch):
        limit = _FLOAT_EXACT_LIMIT + 1
        monkeypatch.setattr(series_mod, "DEFAULT_MAX_LIMIT", limit)
        with pytest.raises(ResourceError, match="exact only up to"):
            accumulate(kind, limit)
