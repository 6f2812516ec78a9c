"""Acceptance gate: ten numbered criteria, one test and one printed line each.

Every test pulls its criterion from a single shared verification run at the
default scale (10**6) and asserts an outright PASS. A handful of criteria
carry their own extra obligations (wall-clock ceilings, byte-level CLI
comparisons at other scales); those run inside the matching test.
"""

import time

import numpy as np

from summatoria.cli import main
from summatoria.kernels import FunctionKind, sieve_values, values_from_counts
from summatoria.scaling import normalized_envelope
from summatoria.series import accumulate

from conftest import ACCEPTANCE_LINES
from scalar_oracle import counts_of, factor_oracle

ACCEPT_SCALE = 10**6
LARGE_SCALE = 10**7


def criterion(suite_outcome, number):
    outcome, elapsed, log = suite_outcome
    match = [c for c in outcome.criteria if c.number == number]
    assert len(match) == 1, f"criterion {number} missing from the suite"
    c = match[0]
    line = f"{c.status} criterion {c.number}: {c.name} [{c.measured}]"
    print(line)
    ACCEPTANCE_LINES.append(line)
    return c


def test_criterion_01_oracle_equivalence(suite_outcome):
    c = criterion(suite_outcome, 1)
    assert c.status == "PASS", c.measured
    # independent re-run of the sweep through the scalar oracle, under its own
    # wall-clock ceiling; floats are compared bitwise
    t0 = time.monotonic()
    n_max = 10**5
    counts = counts_of(factor_oracle(n) for n in range(1, n_max + 1))
    for kind in FunctionKind:
        got = sieve_values(kind, 1, n_max).values
        expect = values_from_counts(kind, counts)
        assert got.dtype == expect.dtype, kind.label
        if not kind.is_integer_valued:
            got, expect = got.view(np.int64), expect.view(np.int64)
        bad = np.flatnonzero(got != expect)
        assert bad.size == 0, f"{kind.label}({bad[0] + 1}): sieve and oracle differ"
    assert time.monotonic() - t0 <= 30.0


def test_criterion_02_exact_identities(suite_outcome):
    c = criterion(suite_outcome, 2)
    assert c.status == "PASS", c.measured


def test_criterion_03_cross_sum_decay(suite_outcome):
    c = criterion(suite_outcome, 3)
    assert c.status == "PASS", c.measured
    assert "note=" not in c.measured  # ran at full scale, not skipped


def test_criterion_04_pair_average_decay(suite_outcome):
    c = criterion(suite_outcome, 4)
    assert c.status == "PASS", c.measured
    assert "anchor_exact=yes" in c.measured


def test_criterion_05_sqrt_envelope(suite_outcome):
    c = criterion(suite_outcome, 5)
    assert c.status == "PASS", c.measured
    # fresh dense scan from scratch, timed
    t0 = time.monotonic()
    for kind in (FunctionKind.MOBIUS, FunctionKind.LIOUVILLE):
        series = accumulate(kind, ACCEPT_SCALE, "all")
        env = normalized_envelope(series)
        assert env.max_ratio <= 1.5, f"{kind.label}: {env.max_ratio} at n={env.argmax_n}"
    assert time.monotonic() - t0 <= 60.0


def test_criterion_06_growth_bound_coverage(suite_outcome):
    c = criterion(suite_outcome, 6)
    assert c.status == "PASS", c.measured
    assert "mobius_log=1" in c.measured and "liouville_log=1" in c.measured


def test_criterion_07_adjacent_prime_dependence(suite_outcome):
    c = criterion(suite_outcome, 7)
    assert c.status == "PASS", c.measured
    assert "joint=0 " in c.measured


def test_criterion_08_thread_determinism(suite_outcome, tmp_path):
    c = criterion(suite_outcome, 8)
    assert c.status == "PASS", c.measured
    # separate CLI invocations must emit identical bytes whatever the
    # worker count; the float kind at 10**7 spans several sieve segments
    outputs = {}
    for threads in (1, 4):
        for fmt in ("csv", "json"):
            out = tmp_path / f"t{threads}.{fmt}"
            code = main(["sum", "--kind", "psi", "--limit", str(LARGE_SCALE),
                         "--threads", str(threads), "--format", fmt,
                         "--output", str(out)])
            assert code == 0
            outputs[(threads, fmt)] = out.read_bytes()
    assert outputs[(1, "csv")] == outputs[(4, "csv")]
    assert outputs[(1, "json")] == outputs[(4, "json")]


def test_criterion_09_cache_integrity(suite_outcome):
    c = criterion(suite_outcome, 9)
    assert c.status == "PASS", c.measured
    assert "round_trips=100/100" in c.measured
    assert "fuzz_detected=100/100" in c.measured


def test_criterion_10_runtime_budget(suite_outcome):
    c = criterion(suite_outcome, 10)
    assert c.status == "PASS", c.measured
    outcome, elapsed, _ = suite_outcome
    assert elapsed <= 180.0, f"full suite took {elapsed:.1f}s"
    # the large-scale workload gets its own, wider ceiling
    t0 = time.monotonic()
    for kind in (FunctionKind.MOBIUS, FunctionKind.LIOUVILLE):
        series = accumulate(kind, LARGE_SCALE, "geometric", threads=4)
        env = normalized_envelope(series)
        assert env.max_ratio <= 1.5
    assert time.monotonic() - t0 <= 900.0


def test_all_criteria_reported_exactly_once(suite_outcome):
    outcome, _, _ = suite_outcome
    assert [c.number for c in outcome.criteria] == list(range(1, 11))
    assert outcome.all_passed
    assert all(c.status == "PASS" for c in outcome.criteria)
