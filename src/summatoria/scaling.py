"""Growth-exponent fits, sqrt(n) envelopes, and deviation-bound coverage.

The questions answered here: how fast does |S(n)| grow (log-log least
squares), how large does |S(n)|/sqrt(n) ever get (normalized envelope), and
for what fraction of n does |S(n)| stay below sqrt(n) times a slowly
growing function (coverage). Every kind has zero density, so S(n) is its
own deviation from the mean.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import DomainError
from .kernels import FunctionKind
from .series import SummatorySeries

log = logging.getLogger(__name__)


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
    "const" or "const:C", and "pow:E" for n**E. The evaluator accepts
    numpy arrays and Python scalars alike.
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


def normalized_envelope(series: SummatorySeries) -> EnvelopeResult:
    """Max of |S(n)|/sqrt(n) over the checkpoints; ties go to the smaller n."""
    ratios = np.sqrt(series.ns, dtype=np.float64)
    np.divide(np.abs(series.sums), ratios, out=ratios)
    idx = int(np.argmax(ratios))  # first occurrence, hence the smallest n
    return EnvelopeResult(float(ratios[idx]), int(series.ns[idx]))


def chebyshev_bound_coverage(series: SummatorySeries, phi: SlowGrowthSpec) -> CoverageReport:
    """Count checkpoints where |S(n)| <= sqrt(n) * phi(n).

    Checkpoints at n = 1 are excluded: the menu logarithms vanish there
    and the bound would be judged on an empty-growth point.

    Raises:
        DomainError: phi non-positive somewhere on the probed checkpoints.
    """
    start = int(series.ns[0] < 2)  # ns is strictly increasing from n >= 1
    ns = series.ns[start:].astype(np.float64)
    if len(ns) == 0:
        raise DomainError("coverage needs at least one checkpoint with n >= 2")
    phi_vals = np.asarray(phi.evaluator(ns), dtype=np.float64)
    if bool((phi_vals <= 0).any()):
        raise DomainError(f"phi {phi.name!r} is non-positive on the checkpoint range")
    bound = np.sqrt(ns, out=None if np.may_share_memory(ns, phi_vals) else ns)
    bound *= phi_vals
    satisfied = int(np.count_nonzero(np.abs(series.sums[start:]) <= bound))
    total = int(len(ns))
    return CoverageReport(series.kind, series.limit, phi, satisfied, total,
                          satisfied / total)
