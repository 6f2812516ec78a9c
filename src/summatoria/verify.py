"""One-shot verification suite behind the `verify` subcommand.

Ten numbered criteria, declared once in CRITERIA; run_suite runs each,
prints PASS / FAIL / SKIP to stderr with its measured values and elapsed
time, and collects the results. cli renders them as the CSV or JSON report,
with the row renderer of every other report. The results hold only
deterministic fields, never timings, so two runs of `verify --limit 1e6`
emit byte-identical reports regardless of threads.

The suite is a client of the package. The second moments that criteria 2
and 4 check are the columns of the MomentTable that moment_scan returns,
the table the `stats` subcommand prints, and criterion 5 is
normalized_envelope, the envelope the `scaling` subcommand reports. The
every-n S(n) of criteria 2 to 6 is accumulate(kind, n, "all"). Criterion 2
holds the geometric table against it, so the walk's dense readout meets its
sparse one, and against N(+1) and N(-1), two int64 cumsums of the sieved
table: S = N(+1) - N(-1) and Q = N(+1) + N(-1).
Criterion 1 sieves each kind over [1, min(limit, 10**5)] and compares it
with the package's one oracle, trial_division_counts, bound here as
factor_oracle: trial division over that whole array at once, mapped to the
five kinds by values_from_counts. The benchmark's traced pass times the
oracle by rebinding that name. Criterion 9 sends its 100 round trips and
its 100 single-byte mutants through the cache codec, encode and decode, in
memory; only the first value table and the first series also go through
save and load, in a temporary directory, so a broken file path still fails
it while the criterion creates two files, not one per artifact.

Criteria whose thresholds were frozen at the default scale (10**6) switch
to SKIP below that scale: the measured values are still reported, but an
empirical constant validated at one scale is not asserted at another.
"""

from __future__ import annotations

import math
import random
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .cache import decode, encode, load, save
from .errors import IntegrityError, SummatoriaError
from .kernels import FunctionKind, ValueTable, sieve_values, values_from_counts
from .kernels import trial_division_counts as factor_oracle
from .moments import lag_covariance, moment_scan, prime_adjacent_joint
from .scaling import SlowGrowthSpec, chebyshev_bound_coverage, normalized_envelope
from .series import accumulate, resolve_checkpoints

FULL_SCALE = 10**6
ORACLE_SCALE = 10**5
BUDGET_S = 180.0
BUDGET_LARGE_S = 900.0


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    status: str  # PASS | FAIL | SKIP
    measured: str


@dataclass(frozen=True)
class VerifyOutcome:
    limit: int
    criteria: list[CriterionResult]

    @property
    def all_passed(self) -> bool:
        return all(c.status != "FAIL" for c in self.criteria)


def _same_artifact(back, artifact) -> bool:
    """Whether back is artifact: the same type, kind, bounds and bytes of values."""
    if type(back) is not type(artifact) or back.kind is not artifact.kind:
        return False
    if isinstance(artifact, ValueTable):
        return ((back.lo, back.hi) == (artifact.lo, artifact.hi)
                and back.values.tobytes() == artifact.values.tobytes())
    return (back.limit == artifact.limit and np.array_equal(back.ns, artifact.ns)
            and back.sums.tobytes() == artifact.sums.tobytes())


def fmt12(x) -> str:
    """A real number with 12 significant digits; -0.0 normalized to 0."""
    v = float(x)
    if v == 0.0:
        v = 0.0
    return format(v, ".12g")


class _Suite:
    """Shared state for one verification run; each criterion returns (status, measured)."""

    def __init__(self, limit: int, threads: int, err):
        self.ladder = resolve_checkpoints(limit)  # criterion 10's, first: a bad limit stops here
        self.limit = limit
        self.scale = min(limit, FULL_SCALE)
        self.full = limit >= FULL_SCALE
        self.threads = max(1, threads)
        self.err = err
        self.t0 = time.monotonic()

        n = self.scale
        self.tables = {kind: sieve_values(kind, 1, n) for kind in FunctionKind if kind.is_integer_valued}
        # S(n) at every n <= scale, for the two ±1/0 kinds the paper studies.
        self.dense = {kind: accumulate(kind, n, "all", threads=self.threads)
                      for kind in (FunctionKind.MOBIUS, FunctionKind.LIOUVILLE)}
        self.scans = {kind: moment_scan(kind, n, "geometric") for kind in self.dense}

    def oracle_equivalence(self):
        n_max = min(self.limit, ORACLE_SCALE)
        counts = factor_oracle(n_max)
        mismatches = sum(
            int(np.count_nonzero(values_from_counts(kind, counts) != sieve_values(kind, 1, n_max).values))
            for kind in FunctionKind
        )
        status = "PASS" if mismatches == 0 else "FAIL"
        return status, f"checked={n_max} kinds=5 mismatches={mismatches}"

    def exact_identities(self):
        bad = points = 0
        for kind, series in self.dense.items():
            t = self.scans[kind]
            at = t.n - 1
            v = self.tables[kind].values
            n_plus = np.cumsum(v == 1, dtype=np.int64)[at]
            n_minus = np.cumsum(v == -1, dtype=np.int64)[at]
            ok = ((t.S == series.sums[at]) & (t.S == n_plus - n_minus) & (t.Q == n_plus + n_minus)
                  & (t.F2 == t.diag + t.cross) & (t.F2 == t.S * t.S) & (t.diag == t.Q))
            points += len(ok)
            bad += int(np.count_nonzero(~ok))
        return "PASS" if bad == 0 else "FAIL", f"ladder_points={points} violations={bad}"

    def cross_sum_decay(self):
        n_hi = self.scale
        if n_hi < 2:
            return "SKIP", "note=needs-limit>=2"
        n_lo = max(2, n_hi // 1000)
        parts = []
        ok = True
        for kind, series in self.dense.items():
            label = kind.label
            r_hi = (int(series.sums[n_hi - 1]) / n_hi) ** 2
            r_lo = (int(series.sums[n_lo - 1]) / n_lo) ** 2
            factor = r_lo / r_hi if r_hi > 0 else math.inf
            parts.append(f"{label}_ratio_lo={fmt12(r_lo)} {label}_ratio_hi={fmt12(r_hi)} "
                         f"{label}_factor={fmt12(factor)}")
            if not (r_hi <= 1e-3 and factor >= 10):
                ok = False
        measured = f"n_lo={n_lo} n_hi={n_hi} " + " ".join(parts)
        if not self.full:
            return "SKIP", measured + " note=thresholds-frozen-at-1e6"
        return "PASS" if ok else "FAIL", measured

    def pair_average_decay(self):
        gaps = np.concatenate([t.n[t.n >= 100] * np.abs(t.cov_gap[t.n >= 100])
                               for t in self.scans.values()])
        if not len(gaps):
            return "SKIP", "note=no-ladder-points-above-100"
        worst = float(gaps.max())
        zeros = np.nonzero(self.dense[FunctionKind.LIOUVILLE].sums == 0)[0]
        anchor_ok = True
        anchor_n = None
        if len(zeros):
            anchor_n = int(zeros[-1]) + 1
            gap = moment_scan(FunctionKind.LIOUVILLE, anchor_n, [anchor_n]).cov_gap[-1]
            anchor_ok = gap == -1.0 / (anchor_n - 1)
        ok = worst <= 2.0 and anchor_ok
        measured = (f"max_n_times_gap={fmt12(worst)} anchor_n={anchor_n} "
                    f"anchor_exact={'yes' if anchor_ok else 'no'}")
        return "PASS" if ok else "FAIL", measured

    def sqrt_envelope(self):
        envs = {kind: normalized_envelope(series) for kind, series in self.dense.items()}
        measured = " ".join(f"{kind.label}_max={fmt12(env.max_ratio)} {kind.label}_argmax={env.argmax_n}"
                            for kind, env in envs.items())
        ok = all(env.max_ratio <= 1.5 for env in envs.values())
        return "PASS" if ok else "FAIL", measured

    def growth_bound_coverage(self):
        if self.scale < 10:
            return "SKIP", "note=needs-limit>=10"
        phi_log, phi_small = SlowGrowthSpec.from_name("log"), SlowGrowthSpec.from_name("const:0.01")
        parts = []
        ok = True
        for kind, series in self.dense.items():
            label = kind.label
            frac_log = chebyshev_bound_coverage(series, phi_log).fraction
            frac_small = chebyshev_bound_coverage(series, phi_small).fraction
            parts.append(f"{label}_log={fmt12(frac_log)} {label}_const0.01={fmt12(frac_small)}")
            if frac_log != 1.0 or not frac_small < 1.0:
                ok = False
        return "PASS" if ok else "FAIL", " ".join(parts)

    def adjacent_prime_dependence(self):
        if self.scale < 5:
            return "SKIP", "note=needs-limit>=5"
        primes = self.tables[FunctionKind.PRIME_INDICATOR]
        stats = prime_adjacent_joint(self.scale, threads=self.threads)
        lc_prime = lag_covariance(primes, 1, (3, self.scale))
        lc_lam = lag_covariance(self.tables[FunctionKind.LIOUVILLE], 1, (3, self.scale))
        factor = (abs(lc_prime.corr) / abs(lc_lam.corr)) if lc_lam.corr != 0 else math.inf
        measured = (f"joint={fmt12(stats.joint)} product={fmt12(stats.product)} "
                    f"corr_prime={fmt12(lc_prime.corr)} corr_liouville={fmt12(lc_lam.corr)} "
                    f"factor={fmt12(factor)}")
        ok = stats.joint == 0.0 and stats.product > 0.0
        if not self.full:
            return "PASS" if ok else "FAIL", measured + " note=factor-threshold-frozen-at-1e6"
        ok = ok and factor >= 5.0
        return "PASS" if ok else "FAIL", measured

    def thread_determinism(self):
        many = max(2, self.threads)
        # Several segments each, so that the pool really runs on `many` threads.
        segment = max(1, self.scale // 7)
        equal = []
        for kind in (FunctionKind.MOBIUS, FunctionKind.CHEBYSHEV_PSI_TERM):
            serial, pooled = (moment_scan(kind, self.scale, "geometric", threads=k, segment_size=segment)
                              for k in (1, many))
            equal.append(all(a.tobytes() == b.tobytes() for a, b in zip(serial[1:], pooled[1:])))
        ints_equal, floats_equal = equal
        print(f"info: rebuilt moments with 1 and {many} worker threads", file=self.err)
        measured = (f"integer_series_equal={'yes' if ints_equal else 'no'} "
                    f"float_series_bitwise_equal={'yes' if floats_equal else 'no'}")
        return "PASS" if all(equal) else "FAIL", measured

    def cache_integrity(self):
        rng = random.Random(0x5EED)
        tmp = Path(tempfile.mkdtemp(prefix="summatoria-verify-"))
        kinds = list(FunctionKind)
        on_disk = set()  # the first table and the first series go through a file
        try:
            round_trips = 0
            for i in range(100):
                kind = rng.choice(kinds)
                if rng.random() < 0.5:
                    lo = rng.randrange(1, 5000)
                    hi = lo + rng.randrange(0, 1500)
                    artifact = sieve_values(kind, lo, hi)
                else:
                    limit = rng.randrange(1, 3000)
                    plan = rng.choice(["geometric", "all", None])
                    artifact = accumulate(kind, limit, plan)
                try:
                    if type(artifact) in on_disk:
                        back = decode(b"".join(encode(artifact)))
                    else:
                        on_disk.add(type(artifact))
                        path = tmp / f"artifact-{i}.sumf"
                        save(path, artifact)
                        back = load(path)
                except SummatoriaError:
                    continue
                round_trips += int(_same_artifact(back, artifact))

            raw = b"".join(encode(sieve_values(FunctionKind.MOBIUS, 1, 512)))
            detected = 0
            for i in range(100):
                buf = bytearray(raw)
                pos = rng.randrange(len(raw))
                buf[pos] ^= rng.randrange(1, 256)
                try:
                    decode(buf)
                except IntegrityError:
                    detected += 1
                except SummatoriaError:
                    pass
            ok = round_trips == 100 and detected == 100
            measured = f"round_trips={round_trips}/100 fuzz_detected={detected}/100"
            return "PASS" if ok else "FAIL", measured
        finally:
            shutil.rmtree(tmp, ignore_errors=True)

    def runtime_budget(self):
        measured_extra = ""
        budget = BUDGET_S
        if self.limit > FULL_SCALE:
            budget = BUDGET_LARGE_S
            envs = []
            for kind in (FunctionKind.MOBIUS, FunctionKind.LIOUVILLE):
                series = accumulate(kind, self.limit, self.ladder, threads=self.threads)
                env = normalized_envelope(series)
                envs.append(f"{kind.label}_ladder_max={fmt12(env.max_ratio)} "
                            f"{kind.label}_ladder_argmax={env.argmax_n}")
            measured_extra = " " + " ".join(envs)
        elapsed = time.monotonic() - self.t0
        print(f"info: total elapsed {elapsed:.2f}s against budget {budget:.0f}s", file=self.err)
        measured = f"budget_s={fmt12(budget)}{measured_extra}"
        return "PASS" if elapsed <= budget else "FAIL", measured


CRITERIA = (
    (1, "oracle-equivalence", _Suite.oracle_equivalence),
    (2, "exact-identities", _Suite.exact_identities),
    (3, "cross-sum-decay", _Suite.cross_sum_decay),
    (4, "pair-average-decay", _Suite.pair_average_decay),
    (5, "sqrt-envelope", _Suite.sqrt_envelope),
    (6, "growth-bound-coverage", _Suite.growth_bound_coverage),
    (7, "adjacent-prime-dependence", _Suite.adjacent_prime_dependence),
    (8, "thread-determinism", _Suite.thread_determinism),
    (9, "cache-integrity", _Suite.cache_integrity),
    (10, "runtime-budget", _Suite.runtime_budget),
)


def run_suite(limit: int = FULL_SCALE, threads: int = 1, err=None) -> VerifyOutcome:
    """Run all ten criteria and return the deterministic outcome."""
    err = err if err is not None else sys.stderr
    suite = _Suite(limit, threads, err)
    results = []
    for number, name, method in CRITERIA:
        t = time.monotonic()
        status, measured = method(suite)
        print(f"{status:4s} {number:2d} {name}  {measured}  ({time.monotonic() - t:.2f}s)",
              file=err)
        results.append(CriterionResult(number, name, status, measured))
    return VerifyOutcome(limit, results)
