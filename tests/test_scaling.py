import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from summatoria.errors import DomainError
from summatoria.kernels import KIND_BY_LABEL, FunctionKind
from summatoria.scaling import (
    RUN_MARGIN,
    SlowGrowthSpec,
    _covered,
    _envelope,
    _samples,
    chebyshev_bound_coverage,
    fit_exponent,
    fold_scaling,
    normalized_envelope,
)
from summatoria.series import SummatorySeries, accumulate, geometric_ladder, segment_runs

#: Every entry of the phi menu, with the constants and powers the reports use.
MENU = ("log", "log2", "loglog", "const", "const:0.01", "const:0.5", "pow:0.1", "pow:0.55", "pow:0.6")


def synthetic_series(ns, sums):
    ns = np.asarray(ns, dtype=np.int64)
    return SummatorySeries(FunctionKind.MOBIUS, int(ns[-1]), ns, np.asarray(sums, dtype=np.int64))


class TestFitExponent:
    def test_exact_square_root_law(self):
        fit = fit_exponent([(n, math.sqrt(n)) for n in (4, 16, 64, 256)])
        assert fit.alpha == pytest.approx(0.5, abs=1e-12)
        assert fit.log_c == pytest.approx(0.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert fit.residual_max < 1e-12
        assert fit.samples_used == 4

    def test_constant_is_flat(self):
        fit = fit_exponent([(n, 7.0) for n in (4, 16, 64, 256)])
        assert fit.alpha == pytest.approx(0.0, abs=1e-12)
        assert fit.log_c == pytest.approx(math.log(7), abs=1e-12)
        assert fit.r_squared == 1.0

    @given(
        st.floats(min_value=-1.5, max_value=1.5),
        st.floats(min_value=0.1, max_value=50.0),
    )
    @settings(max_examples=80)
    def test_recovers_planted_power_law(self, alpha, c):
        samples = [(n, c * n**alpha) for n in (8, 32, 128, 512, 2048)]
        fit = fit_exponent(samples)
        assert fit.alpha == pytest.approx(alpha, abs=1e-9)
        assert fit.log_c == pytest.approx(math.log(c), abs=1e-9)

    def test_zero_magnitudes_dropped_not_floored(self):
        samples = [(4, 2.0), (9, 3.0), (16, 4.0), (25, 0.0), (36, 6.0)]
        fit = fit_exponent(samples)
        assert fit.samples_used == 4
        assert fit.alpha == pytest.approx(0.5, abs=1e-12)

    def test_too_few_usable_samples(self):
        with pytest.raises(DomainError):
            fit_exponent([(4, 1.0), (9, 0.0), (16, 2.0)])
        with pytest.raises(DomainError):
            fit_exponent([(1, 1.0), (1, 1.0), (1, 1.0), (4, 2.0), (9, 3.0)])

    def test_degenerate_same_n(self):
        with pytest.raises(DomainError):
            fit_exponent([(5, 1.0), (5, 2.0), (5, 3.0)])

    def test_mertens_ladder_alpha_in_band(self):
        series = accumulate(FunctionKind.MOBIUS, 10**6)
        samples = [(n, abs(s)) for n, s in zip(series.ns.tolist(), series.sums.tolist())]
        fit = fit_exponent(samples)
        assert 0.2 <= fit.alpha <= 0.75


class TestEnvelope:
    def test_zero_series(self):
        series = synthetic_series([3, 5, 9], [0, 0, 0])
        assert normalized_envelope(series) == (0.0, 3)

    def test_tie_breaks_to_smaller_n(self):
        series = synthetic_series([4, 16], [2, -4])  # both ratios exactly 1.0
        ratio, argmax = normalized_envelope(series)
        assert ratio == 1.0 and argmax == 4

    def test_mertens_to_1e6_peaks_at_start(self):
        series = accumulate(FunctionKind.MOBIUS, 10**6, "all")
        env = normalized_envelope(series)
        assert env.max_ratio <= 1.0
        assert env.argmax_n == 1

    def test_liouville_to_1e4(self):
        series = accumulate(FunctionKind.LIOUVILLE, 10**4, "all")
        env = normalized_envelope(series)
        assert env.max_ratio <= 1.5
        # measured once with this exact scan, then frozen
        assert env.max_ratio == pytest.approx(1.2903645416728189, rel=1e-12)
        assert env.argmax_n == 9840

    def test_refinement_never_decreases(self):
        sparse = accumulate(FunctionKind.LIOUVILLE, 5000)
        dense = accumulate(FunctionKind.LIOUVILLE, 5000, "all")
        env_sparse = normalized_envelope(sparse)
        env_dense = normalized_envelope(dense)
        assert env_dense.max_ratio >= env_sparse.max_ratio


class TestSlowGrowth:
    def test_loglog_stays_positive_from_two(self):
        spec = SlowGrowthSpec.from_name("loglog")
        ns = np.array([2.0, 3.0, 10.0, 10**6])
        assert bool((np.asarray(spec.evaluator(ns)) > 0).all())

    def test_menu_parsing(self):
        assert SlowGrowthSpec.from_name("const").evaluator(17) == 1.0
        assert SlowGrowthSpec.from_name("const:0.01").evaluator(17) == 0.01
        assert SlowGrowthSpec.from_name("pow:0.5").evaluator(16.0) == 4.0
        with pytest.raises(DomainError):
            SlowGrowthSpec.from_name("cubic")
        with pytest.raises(DomainError):
            SlowGrowthSpec.from_name("const:-1")
        with pytest.raises(DomainError):
            SlowGrowthSpec.from_name("pow")

    @pytest.mark.parametrize("name", ["const:inf", "pow:inf", "const:nan", "pow:-inf"])
    def test_numbers_must_be_finite(self, name):
        with pytest.raises(DomainError, match="bad phi"):
            SlowGrowthSpec.from_name(name)


class TestCoverage:
    def test_zero_series_full_coverage(self):
        series = synthetic_series([2, 5, 9], [0, 0, 0])
        report = chebyshev_bound_coverage(series, SlowGrowthSpec.from_name("log"))
        assert report.fraction == 1.0

    def test_mertens_log_coverage_full(self):
        series = accumulate(FunctionKind.MOBIUS, 10**6, "all")
        report = chebyshev_bound_coverage(series, SlowGrowthSpec.from_name("log"))
        assert report.fraction == 1.0
        assert report.total == 10**6 - 1  # n = 1 excluded

    def test_tiny_constant_violated_somewhere(self):
        phi = SlowGrowthSpec.from_name("const:0.01")
        for report in (chebyshev_bound_coverage(accumulate(FunctionKind.MOBIUS, 10**6, "all"), phi),
                       fold_scaling(FunctionKind.MOBIUS, 10**6, "all", phi)[2]()):
            assert report.fraction < 1.0
            # measured once with this exact scan, then frozen
            assert (report.satisfied, report.total) == (52052, 10**6 - 1)

    def test_monotone_in_phi(self):
        series = accumulate(FunctionKind.LIOUVILLE, 20000, "all")
        f_small = chebyshev_bound_coverage(series, SlowGrowthSpec.from_name("const:0.2")).fraction
        f_big = chebyshev_bound_coverage(series, SlowGrowthSpec.from_name("const:2")).fraction
        assert f_small <= f_big

    def test_nonpositive_phi_rejected(self):
        series = synthetic_series([2, 5], [1, -1])

        bad = SlowGrowthSpec("bad", lambda n: np.zeros_like(np.asarray(n, dtype=float)))
        with pytest.raises(DomainError):
            chebyshev_bound_coverage(series, bad)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, -1.0])
    def test_phi_not_positive_and_finite_rejected(self, value):
        spec = SlowGrowthSpec("bad", lambda n: np.where(np.asarray(n) < 5, 1.0, value))
        with pytest.raises(DomainError, match="not positive and finite"):
            chebyshev_bound_coverage(accumulate(FunctionKind.MOBIUS, 100, "all"), spec)
        coverage = fold_scaling(FunctionKind.MOBIUS, 100, "all", spec)[2]
        with pytest.raises(DomainError, match="not positive and finite"):
            coverage()

    def test_overflowing_power_rejected_without_a_warning(self):
        """3**1000 overflows float64; pytest turns a numpy overflow warning into an error."""
        spec = SlowGrowthSpec.from_name("pow:1000")
        with pytest.raises(DomainError, match="not positive and finite"):
            chebyshev_bound_coverage(accumulate(FunctionKind.LIOUVILLE, 100, "all"), spec)
        coverage = fold_scaling(FunctionKind.CHEBYSHEV_PSI_TERM, 100, "all", spec)[2]
        with pytest.raises(DomainError, match="not positive and finite"):
            coverage()


def reference_envelope(series):
    """normalized_envelope as one expression over fresh temporaries."""
    ratios = np.abs(series.sums) / np.sqrt(series.ns.astype(np.float64))
    idx = int(np.argmax(ratios))
    return float(ratios[idx]), int(series.ns[idx])


def reference_coverage(series, phi):
    """The satisfied count of chebyshev_bound_coverage, over a boolean mask of n >= 2."""
    mask = series.ns >= 2
    ns = series.ns[mask].astype(np.float64)
    sums = np.abs(series.sums[mask])
    return int(np.count_nonzero(sums <= np.sqrt(ns) * np.asarray(phi.evaluator(ns), dtype=np.float64)))


class TestInPlaceMatchesReference:
    @pytest.mark.parametrize("kind", [FunctionKind.LIOUVILLE, FunctionKind.CHEBYSHEV_PSI_TERM],
                             ids=lambda k: k.label)
    @pytest.mark.parametrize("plan", ["all", [2, 3, 9840, *range(5000, 20000, 7)]],
                             ids=["from-1", "from-2"])
    def test_envelope_and_coverage(self, kind, plan):
        series = accumulate(kind, 20000, plan)
        assert (int(series.ns[0]) == 1) == (plan == "all")
        env = normalized_envelope(series)
        assert (env.max_ratio, env.argmax_n) == reference_envelope(series)
        for name in ("log", "log2", "loglog", "const", "const:0.2", "pow:0.1"):
            phi = SlowGrowthSpec.from_name(name)
            report = chebyshev_bound_coverage(series, phi)
            assert report.satisfied == reference_coverage(series, phi)
            assert report.total == len(series) - (plan == "all")

    def test_phi_that_returns_its_argument(self):
        ns = np.array([4, 9, 16], dtype=np.int64)
        series = SummatorySeries(FunctionKind.CHEBYSHEV_PSI_TERM, 16, ns, np.array([5.0, 9.0, 60.0]))
        phi = SlowGrowthSpec("identity", lambda n: n)
        assert chebyshev_bound_coverage(series, phi).satisfied == reference_coverage(series, phi) == 3


def expanded(runs):
    """S(n) at every n, from each segment's runs by np.repeat, concatenated."""
    return np.concatenate([sums if lengths is None else np.repeat(sums, lengths) for _, sums, lengths in runs])


def reference_fit_samples(every, ladder):
    """(n, |S(n)|) at each ladder point, read off an every-n checkpoint series."""
    return [(int(n), abs(float(every.sums[n - 1]))) for n in ladder]


class TestChangePointsMatchEveryN:
    """Samples, envelope and coverage folded over each segment's runs equal those of every n, point by point."""

    @given(st.sampled_from(sorted(KIND_BY_LABEL)), st.integers(1, 3 * 10**4),
           st.sampled_from([3, 7, 97, 4096]), st.sampled_from([1, 2]))
    @settings(max_examples=40, deadline=None)
    def test_every_kind_and_phi(self, label, limit, segment_size, threads):
        kind = KIND_BY_LABEL[label]
        limit = min(limit, 300 * segment_size)  # one Python step per segment
        every = accumulate(kind, limit, "all", segment_size=segment_size)
        runs = list(segment_runs(kind, limit, segment_size=segment_size, threads=threads))
        assert expanded(runs).dtype == every.sums.dtype
        assert expanded(runs).tobytes() == every.sums.tobytes()
        for name in MENU:
            phi = SlowGrowthSpec.from_name(name)
            samples, envelope, coverage = fold_scaling(kind, limit, "all", phi, segment_size=segment_size,
                                                       threads=threads)
            assert envelope == reference_envelope(every)
            assert samples == reference_fit_samples(every, geometric_ladder(limit))
            if limit == 1:
                with pytest.raises(DomainError, match="at least one checkpoint with n >= 2"):
                    coverage()
                continue
            report = coverage()
            assert (report.kind, report.limit, report.phi) == (kind, limit, phi)
            assert (report.satisfied, report.total) == (reference_coverage(every, phi), limit - 1)

    def test_runs_cut_at_segment_ends(self):
        # pi(n) = 24 on [89, 96]: with segments of 3 that run spans [88, 90], [91, 93], [94, 96],
        # so one segment starts inside a run, and [97, 99] starts on a change point.
        kind, limit, phi = FunctionKind.PRIME_INDICATOR, 1000, SlowGrowthSpec.from_name("const:0.5")
        starts = {int(ns[0]): (ns.tolist(), sums.tolist(), lengths)
                  for ns, sums, lengths in segment_runs(kind, limit, segment_size=3)}
        assert starts[88] == ([88, 89], [23, 24], starts[88][2]) and starts[88][2].tolist() == [1, 2]
        assert starts[91][:2] == ([91], [24]) and starts[91][2].tolist() == [3]
        assert starts[97][:2] == ([97], [25]) and starts[97][2].tolist() == [3]
        every = accumulate(kind, limit, "all")
        for segment_size in (3, 7, 97):
            samples, envelope, coverage = fold_scaling(kind, limit, "all", phi, segment_size=segment_size)
            assert envelope == reference_envelope(every)
            assert coverage().satisfied == reference_coverage(every, phi)

    @pytest.mark.parametrize("label", ["prime-indicator", "theta"])
    def test_runs_that_straddle_the_log_bound(self, label):
        # Up to 10**6 one pi(n) run and two theta runs cross sqrt(n) log n inside the run.
        kind, phi = KIND_BY_LABEL[label], SlowGrowthSpec.from_name("log")
        every = accumulate(kind, 10**6, "all")
        report = fold_scaling(kind, 10**6, "all", phi)[2]()
        assert report.satisfied == reference_coverage(every, phi)

    @given(st.lists(st.tuples(st.integers(1, 40), st.floats(0.0, 1.0), st.sampled_from([-1, 0, 1])),
                    min_size=1, max_size=60),
           st.sampled_from(MENU))
    @settings(max_examples=200, deadline=None)
    def test_synthetic_runs_on_the_bound(self, runs, name):
        # Each run's |S| is the bound at a point inside the run, nudged by an ulp, so
        # most runs straddle it and are judged at each n.
        phi = SlowGrowthSpec.from_name(name)
        lengths = np.array([length for length, _, _ in runs], dtype=np.int64)
        ns = np.concatenate(([1], 1 + np.cumsum(lengths)[:-1]))
        limit = int(ns[-1] + lengths[-1] - 1)
        at = np.maximum(ns + np.array([int(f * (length - 1)) for length, f, _ in runs]), 2)
        bound = np.sqrt(at.astype(np.float64)) * phi.evaluator(at.astype(np.float64))
        sums = np.array([np.nextafter(b, b + nudge) if nudge else b
                         for b, (_, _, nudge) in zip(bound.tolist(), runs)])
        sums *= np.where(np.arange(len(sums)) % 2, -1.0, 1.0)
        every = SummatorySeries(FunctionKind.CHEBYSHEV_PSI_TERM, limit,
                                np.arange(1, limit + 1), np.repeat(sums, lengths))
        assert _envelope(ns, sums) == reference_envelope(every)
        if limit == 1:
            return
        assert _covered(ns, sums, lengths, phi) == (reference_coverage(every, phi), limit - 1)

    def test_margin_covers_the_float_error_of_the_bound(self):
        # A run judged whole at its start must hold at every n of it: the bound's
        # float evaluation may dip below its start value by far less than the margin.
        ns = np.arange(2, 10**6, dtype=np.float64)
        for name in MENU:
            phi = SlowGrowthSpec.from_name(name)
            bound = np.sqrt(ns) * phi.evaluator(ns)
            assert bool((bound[1:] >= bound[:-1] * (1 - RUN_MARGIN / 4)).all()), name


def reference_ladder_samples(series, ladder):
    """The samples at the ladder points that are checkpoints; a point before ns[0] reads ns[-1] = limit."""
    idx = np.searchsorted(series.ns, ladder, side="right") - 1
    return [(int(n), abs(float(series.sums[i]))) for n, i in zip(ladder, idx) if series.ns[i] == n]


class TestFoldOfACheckpointSeries:
    """The fold over a checkpoint series, a run of one n per checkpoint, equals the series functions."""

    @given(st.sampled_from(sorted(KIND_BY_LABEL)), st.integers(1, 10**5),
           st.one_of(st.floats(1.001, 4.0), st.lists(st.integers(1, 10**5), max_size=40)),
           st.sampled_from(MENU))
    @example("mobius", 5000, [1, 100, 1000], "log")
    @example("psi", 7, [3], "const:0.01")
    @example("liouville", 1, [1], "log")
    @example("theta", 65537, 1.5, "pow:0.55")
    @settings(max_examples=80, deadline=None)
    def test_every_kind_and_plan(self, label, limit, plan, name):
        kind, phi = KIND_BY_LABEL[label], SlowGrowthSpec.from_name(name)
        if isinstance(plan, list):
            plan = [n for n in plan if n <= limit]  # n = 1 and points off the ladder among them
        series = accumulate(kind, limit, plan)
        samples, envelope, coverage = fold_scaling(kind, limit, plan, phi)
        assert samples == reference_ladder_samples(series, geometric_ladder(limit))
        assert envelope == normalized_envelope(series)
        if limit == 1:
            with pytest.raises(DomainError, match="at least one checkpoint with n >= 2"):
                coverage()
        else:
            assert coverage() == chebyshev_bound_coverage(series, phi)


class TestChangePointForm:
    def test_run_lengths(self):
        [(ns, sums, lengths)] = segment_runs(FunctionKind.PRIME_INDICATOR, 10)
        assert (ns.tolist(), sums.tolist(), lengths.tolist()) == ([1, 2, 3, 5, 7], [0, 1, 2, 3, 4], [1, 1, 2, 2, 4])
        [(ns, _, lengths)] = segment_runs(FunctionKind.LIOUVILLE, 10)
        assert ns.tolist() == list(range(1, 11)) and lengths is None

    def test_run_from_one_counts_from_two(self):
        # S = 1 on [1, 3]: n = 1 is left out, n = 2 and 3 are judged as a run.
        ns, sums = np.array([1, 4]), np.array([1, 3])
        # 1 <= sqrt(2), sqrt(3); 3 > sqrt(4), sqrt(5)
        assert _covered(ns, sums, np.array([3, 2]), SlowGrowthSpec.from_name("const")) == (2, 4)
        assert _envelope(ns, sums) == (1.5, 4)

    def test_ladder_samples_of_a_checkpoint_series_skip_missing_points(self):
        series = synthetic_series([3, 8, 20], [1, -2, 4])
        points = np.array([1, 2, 3, 4, 8, 20])
        assert _samples(series.ns, series.sums, None, points) == [(3, 1.0), (8, 2.0), (20, 4.0)]

    def test_fold_holds_a_few_segments_not_the_limit(self):
        # The change-point arrays of every n took 16 bytes per n, 32 MB here.
        n, segment = 2 * 10**6, 1 << 16
        phi = SlowGrowthSpec.from_name("log")
        fold_scaling(FunctionKind.LIOUVILLE, 10**4, "all", phi, segment_size=segment)
        tracemalloc.start()
        try:
            fold_scaling(FunctionKind.LIOUVILLE, n, "all", phi, segment_size=segment)[2]()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 8 * segment
