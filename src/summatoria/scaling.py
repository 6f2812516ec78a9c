"""Growth-exponent fits, sqrt(n) envelopes, and deviation-bound coverage.

The questions answered here: how fast does |S(n)| grow (log-log least
squares), how large does |S(n)|/sqrt(n) ever get (normalized envelope), and
for what fraction of n does |S(n)| stay below sqrt(n) times a slowly
growing function (coverage). Every kind has zero density, so S(n) is its
own deviation from the mean.

Each function takes a checkpoint series (SummatorySeries), whose every
checkpoint stands for its own n, or a ChangePointSeries, which holds S(n)
at every n as runs of constant value: a checkpoint series is the case where
every run has length 1. The envelope of a run is at its start, and coverage
decides a whole run from the bound at its ends where it can, so that every
n is counted without a row per n.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import DomainError
from .kernels import FunctionKind
from .series import ChangePointSeries, SummatorySeries

log = logging.getLogger(__name__)

#: Relative margin of a whole-run coverage decision. It is sound while each
#: float64 evaluation of sqrt(n) * phi(n) lies within 1000 ulp (a relative
#: 2.2e-13) of its exact value: numpy's sqrt is correctly rounded, and the
#: log, log1p and power of the phi menu are within a few ulp.
RUN_MARGIN = 1e-12

Series = SummatorySeries | ChangePointSeries


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
    fraction: float

    def __post_init__(self) -> None:
        if not 0 <= self.satisfied <= self.total:
            raise DomainError("satisfied count outside [0, total]")


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


def ladder_samples(series: Series, ladder: np.ndarray) -> list[tuple[int, float]]:
    """(n, |S(n)|) at each point of ladder the series holds, for fit_exponent.

    A ChangePointSeries holds every n, at the change point at or before it;
    a checkpoint series holds only its checkpoints.
    """
    idx = np.searchsorted(series.ns, ladder, side="right") - 1
    if isinstance(series, SummatorySeries):  # a point before ns[0] gets ns[-1] = limit, no hit
        hit = series.ns[idx] == ladder
        ladder, idx = ladder[hit], idx[hit]
    return [(int(n), abs(float(series.sums[i]))) for n, i in zip(ladder, idx)]


def normalized_envelope(series: Series) -> EnvelopeResult:
    """Max of |S(n)|/sqrt(n) over the n the series holds; ties go to the smaller n.

    Within a run of constant S(n) the ratio is largest at the run's start,
    since sqrt and division are correctly rounded and monotone, so only the
    starts are scanned.
    """
    ratios = np.sqrt(series.ns, dtype=np.float64)
    np.divide(np.abs(series.sums), ratios, out=ratios)
    idx = int(np.argmax(ratios))  # first occurrence, hence the smallest n
    return EnvelopeResult(float(ratios[idx]), int(series.ns[idx]))


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


def chebyshev_bound_coverage(series: Series, phi: SlowGrowthSpec) -> CoverageReport:
    """Count the n >= 2 the series holds where |S(n)| <= sqrt(n) * phi(n).

    n = 1 is excluded: the menu logarithms vanish there and the bound would
    be judged on an empty-growth point. phi must be positive and
    nondecreasing for n >= 2. A run of length 1 is judged at its n. A longer
    run is judged whole when |S| <= bound(start) * (1 - RUN_MARGIN), where
    every n of it holds, or |S| > bound(end) * (1 + RUN_MARGIN), where none
    does; the few runs between are judged at each n. The count is the
    pointwise count either way.

    Raises:
        DomainError: sqrt(n) * phi(n) not positive and finite at a probed n,
            or no n >= 2.
    """
    lengths = series.run_lengths()
    # n = 1 leaves with its run if the run is n = 1 alone, else the run starts at 2.
    first = int(series.ns[0] < 2 and (lengths is None or lengths[0] == 1))
    ns = series.ns[first:]
    if len(ns) == 0:
        raise DomainError("coverage needs at least one checkpoint with n >= 2")
    mags = np.abs(series.sums[first:])
    if lengths is None:
        satisfied = int(np.count_nonzero(mags <= _bound(ns.astype(np.float64), phi)))
        total = len(ns)
        return CoverageReport(series.kind, series.limit, phi, satisfied, total, satisfied / total)
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
    return CoverageReport(series.kind, series.limit, phi, satisfied, total, satisfied / total)
