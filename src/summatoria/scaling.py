"""Growth-exponent fits, sqrt(n) envelopes, and deviation-bound coverage.

The questions answered here: how fast does |S(n)| grow (log-log least
squares), how large does |S(n)|/sqrt(n) ever get (normalized envelope), and
for what fraction of n does |S(n)| stay below sqrt(n) times a slowly
growing function (coverage). Every kind has zero density, so S(n) is its
own deviation from the mean.

fold_scaling answers all three for any checkpoint plan in one fold over
runs of constant S(n): the runs of series.segment_runs for every n, else a
checkpoint series, each checkpoint a run of its own n. The envelope of a
run is at its start, and coverage decides a whole run from the bound at its
ends where it can, so every n is counted without a row.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import DomainError
from .kernels import FunctionKind
from .series import DEFAULT_SEGMENT, SummatorySeries, accumulate, geometric_ladder, segment_runs

log = logging.getLogger(__name__)

#: Relative margin of a whole-run coverage decision. It is sound while each
#: float64 evaluation of sqrt(n) * phi(n) lies within 1000 ulp (a relative
#: 2.2e-13) of its exact value: numpy's sqrt is correctly rounded, and the
#: log, log1p and power of the phi menu are within a few ulp.
RUN_MARGIN = 1e-12


class EnvelopeResult(NamedTuple):
    """Largest |S(n)|/sqrt(n) over the checkpoints and where it occurs."""

    max_ratio: float
    argmax_n: int


@dataclass(frozen=True)
class ExponentFit:
    """Least-squares power law |S(n)| ~ c * n^alpha on log-log axes."""

    alpha: float
    log_c: float
    r_squared: float
    samples_used: int
    residual_max: float

    def __post_init__(self) -> None:
        if self.samples_used < 3:
            raise DomainError(f"exponent fit needs >= 3 samples, used {self.samples_used}")
        if not -1e-12 <= self.r_squared <= 1.0 + 1e-12:
            raise DomainError(f"r_squared {self.r_squared} outside [0, 1]")


@dataclass(frozen=True)
class SlowGrowthSpec:
    """A named slowly growing function phi(n) from a fixed menu.

    Menu names: "log", "log2" (squared logarithm), "loglog" (iterated
    logarithm, realized as log(1 + log n) so it stays positive from n = 2),
    "const" or "const:C", and "pow:E" for n**E, with C and E positive and
    finite. The evaluator accepts numpy arrays and Python scalars alike.
    Coverage needs phi positive, finite and nondecreasing for n >= 2, as
    every menu entry is until n**E overflows float64.
    """

    name: str
    evaluator: Callable

    @staticmethod
    def from_name(name: str) -> "SlowGrowthSpec":
        base, _, arg = name.partition(":")
        if base == "log" and not arg:
            return SlowGrowthSpec("log", np.log)
        if base == "log2" and not arg:
            return SlowGrowthSpec("log2", lambda n: np.log(n) ** 2)
        if base == "loglog" and not arg:
            return SlowGrowthSpec("loglog", lambda n: np.log1p(np.log(n)))
        try:
            number = float(arg) if arg else None
        except ValueError:
            raise DomainError(f"bad phi {name!r}: {arg!r} is not a number") from None
        if number is not None and not math.isfinite(number):
            raise DomainError(f"bad phi {name!r}: {arg!r} is not finite")
        if base == "const":
            c = 1.0 if number is None else number
            if not c > 0:
                raise DomainError(f"constant phi must be positive, got {c}")
            return SlowGrowthSpec(f"const:{c:g}", lambda n, c=c: np.full_like(
                np.asarray(n, dtype=np.float64), c) if np.ndim(n) else c)
        if base == "pow":
            if number is None:
                raise DomainError("pow phi needs an exponent, e.g. pow:0.1")
            if not number > 0:
                raise DomainError(f"pow phi exponent must be positive, got {number}")
            return SlowGrowthSpec(f"pow:{number:g}",
                                  lambda n, e=number: np.asarray(n, dtype=np.float64) ** e)
        raise DomainError(f"unknown phi name {name!r}")


@dataclass(frozen=True)
class CoverageReport:
    """How often |S(n)| <= sqrt(n) * phi(n) holds across the checkpoints."""

    kind: FunctionKind
    limit: int
    phi: SlowGrowthSpec
    satisfied: int
    total: int

    def __post_init__(self) -> None:
        if self.total < 1:
            raise DomainError("coverage needs at least one checkpoint with n >= 2")
        if not 0 <= self.satisfied <= self.total:
            raise DomainError("satisfied count outside [0, total]")

    @property
    def fraction(self) -> float:
        return self.satisfied / self.total


def fit_exponent(samples: Sequence[tuple[int, float]]) -> ExponentFit:
    """Ordinary least squares of log(magnitude) against log(n).

    Samples with magnitude 0 or n < 2 are dropped (disclosed via the count
    of samples used and a debug log line); magnitudes hitting exact zero
    are routine for oscillating series and flooring them would bias the
    slope.

    Raises:
        DomainError: fewer than 3 usable samples, or all n identical.
    """
    usable = [(n, mag) for n, mag in samples if n >= 2 and mag > 0]
    dropped = len(samples) - len(usable)
    if dropped:
        log.debug("fit_exponent dropped %d of %d samples (zero magnitude or n < 2)",
                  dropped, len(samples))
    if len(usable) < 3:
        raise DomainError(f"exponent fit needs >= 3 usable samples, got {len(usable)}")
    xs = np.array([math.log(n) for n, _ in usable])
    ys = np.array([math.log(m) for _, m in usable])
    x_mean = xs.mean()
    y_mean = ys.mean()
    var_x = float(((xs - x_mean) ** 2).sum())
    if var_x == 0.0:
        raise DomainError("exponent fit needs at least two distinct n values")
    alpha = float(((xs - x_mean) * (ys - y_mean)).sum()) / var_x
    log_c = float(y_mean - alpha * x_mean)
    residuals = ys - (alpha * xs + log_c)
    ss_res = float((residuals**2).sum())
    ss_tot = float(((ys - y_mean) ** 2).sum())
    r_squared = 1.0 if ss_tot == 0.0 else max(0.0, 1.0 - ss_res / ss_tot)
    return ExponentFit(alpha, log_c, r_squared, len(usable), float(np.abs(residuals).max()))


def _samples(ns: np.ndarray, sums: np.ndarray, lengths: np.ndarray | None,
             points: np.ndarray) -> list[tuple[int, float]]:
    """(n, |S(n)|) at each of points that a run holds, for fit_exponent.

    Runs start at ns with S(n) = sums and hold lengths n (1 if lengths is None).
    """
    idx = np.searchsorted(ns, points, side="right") - 1
    held = (idx >= 0) & (points < ns[idx] + (1 if lengths is None else lengths[idx]))
    return [(int(n), abs(float(sums[i]))) for n, i in zip(points[held], idx[held])]


def _envelope(ns: np.ndarray, sums: np.ndarray) -> EnvelopeResult:
    """Max of |S(n)|/sqrt(n) over ns; ties go to the smaller n."""
    ratios = np.sqrt(ns, dtype=np.float64)
    np.divide(np.abs(sums), ratios, out=ratios)
    idx = int(np.argmax(ratios))  # first occurrence, hence the smallest n
    return EnvelopeResult(float(ratios[idx]), int(ns[idx]))


def normalized_envelope(series: SummatorySeries) -> EnvelopeResult:
    """Max of |S(n)|/sqrt(n) over the checkpoints of the series; ties go to the smaller n."""
    return _envelope(series.ns, series.sums)


def _bound(ns: np.ndarray, phi: SlowGrowthSpec) -> np.ndarray:
    """sqrt(n) * phi(n) at the float64 n of ns, in place of ns if it can.

    An overflow reads as inf and is refused, not warned about.

    Raises:
        DomainError: sqrt(n) * phi(n) not positive and finite (NaN included)
            at one of ns.
    """
    with np.errstate(over="ignore"):
        phi_vals = np.asarray(phi.evaluator(ns), dtype=np.float64)
        bound = np.sqrt(ns, out=None if np.may_share_memory(ns, phi_vals) else ns)
        bound *= phi_vals
    if not (bound.min(initial=1.0) > 0 and bound.max(initial=1.0) < math.inf):  # NaN fails both
        raise DomainError(f"phi {phi.name!r} is not positive and finite on the checkpoint range")
    return bound


def _covered(ns: np.ndarray, sums: np.ndarray, lengths: np.ndarray | None,
             phi: SlowGrowthSpec) -> tuple[int, int]:
    """(satisfied, total): how many n >= 2 of the runs have |S(n)| <= sqrt(n) * phi(n), of how many.

    Runs start at ns with S(n) = sums and hold lengths n (1 if lengths is
    None; lengths may be changed). A run of one n is judged at it, a longer
    run whole when |S| <= bound(start) * (1 - RUN_MARGIN), where every n of
    it holds, or |S| > bound(end) * (1 + RUN_MARGIN), where none does; the
    few runs between are judged at each n. The count is the pointwise one
    while phi is positive and nondecreasing for n >= 2.

    Raises:
        DomainError: sqrt(n) * phi(n) not positive and finite at a probed n.
    """
    # n = 1 leaves with its run if the run is n = 1 alone, else the run starts at 2.
    first = int(ns[0] < 2 and (lengths is None or lengths[0] == 1))
    ns = ns[first:]
    mags = np.abs(sums[first:])
    if lengths is None:
        return int(np.count_nonzero(mags <= _bound(ns.astype(np.float64), phi))), len(ns)
    lengths = lengths[first:]
    if ns[0] < 2:
        lengths[0] -= 1
    total = int(lengths.sum())
    bound = _bound(np.maximum(ns, 2, dtype=np.float64), phi)
    long = lengths > 1
    held = mags <= bound
    held &= ~long
    satisfied = int(np.count_nonzero(held))  # runs of one n, judged at it
    bound *= 1 - RUN_MARGIN
    np.less_equal(mags, bound, out=held)
    held &= long
    satisfied += int(lengths.sum(where=held))  # long runs that hold at every n
    long &= ~held
    del bound, held
    # The other long runs hold at no n, or straddle the bound and are judged at each n.
    rest = np.flatnonzero(long)
    mags, lengths = mags[rest], lengths[rest]
    ends = np.maximum(ns[rest], 2, dtype=np.float64)
    ends += lengths
    ends -= 1
    top = _bound(ends.copy(), phi)
    top *= 1 + RUN_MARGIN
    mid = np.flatnonzero(mags <= top)
    if len(mid):
        mags, lengths, ends = mags[mid], lengths[mid], ends[mid]
        points = np.repeat(ends - np.cumsum(lengths), lengths)
        points += np.arange(1, len(points) + 1)
        satisfied += int(np.count_nonzero(np.repeat(mags, lengths) <= _bound(points, phi)))
    return satisfied, total


def chebyshev_bound_coverage(series: SummatorySeries, phi: SlowGrowthSpec) -> CoverageReport:
    """Count the checkpoints n >= 2 of the series where |S(n)| <= sqrt(n) * phi(n).

    n = 1 is excluded: the menu logarithms vanish there and the bound would
    be judged on an empty-growth point.

    Raises:
        DomainError: sqrt(n) * phi(n) not positive and finite at a
            checkpoint, or no checkpoint n >= 2.
    """
    return CoverageReport(series.kind, series.limit, phi, *_covered(series.ns, series.sums, None, phi))


def fold_scaling(kind: FunctionKind, limit: int, checkpoint_plan, phi: SlowGrowthSpec, *,
                 segment_size: int = DEFAULT_SEGMENT, threads: int = 1):
    """Fit samples, envelope and coverage of S(n) at the planned checkpoints, folded over runs.

    "all" folds the runs of segment_runs one segment at a time; any other
    plan folds the series of accumulate as one chunk of runs of one n. The
    fold keeps the samples (n, |S(n)|) at the points of geometric_ladder(limit)
    that a run holds, for fit_exponent; the envelope of each chunk, kept when
    strictly above the one so far; and coverage's counts, summed. A run cut at
    a segment end changes no count and no maximum, so each result equals that
    of the series accumulate(kind, limit, checkpoint_plan).

    Returns (samples, envelope, coverage). coverage() gives the
    CoverageReport, or raises what chebyshev_bound_coverage would, so that
    a caller can fit the samples first. What accumulate and segment_runs
    raise comes before the walk.
    """
    if isinstance(checkpoint_plan, str) and checkpoint_plan == "all":
        chunks = segment_runs(kind, limit, segment_size=segment_size, threads=threads)
    else:
        series = accumulate(kind, limit, checkpoint_plan, segment_size=segment_size, threads=threads)
        chunks = [(series.ns, series.sums, None)]
    ladder = geometric_ladder(limit)
    samples, envelope, counts, error = [], EnvelopeResult(-math.inf, 0), [], None
    for ns, sums, lengths in chunks:
        samples += _samples(ns, sums, lengths, ladder)
        envelope = max(envelope, _envelope(ns, sums), key=lambda e: e.max_ratio)  # the first on a tie
        if error is None:
            try:
                counts.append(_covered(ns, sums, lengths, phi))
            except DomainError as exc:
                error = exc

    def coverage() -> CoverageReport:
        if error is not None:
            raise error
        return CoverageReport(kind, limit, phi, *map(sum, zip(*counts)))

    return samples, envelope, coverage
