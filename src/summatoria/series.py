"""Checkpointed summatory series S(n) and their deviations.

accumulate() streams sieve segments over [1, limit] in a single monotone
pass, recording S(n) at the requested checkpoints; the same walk also gives
Q(n) = sum of f(k)^2 to moment_scan. Integer-valued kinds are read out of
each segment exactly: an int64 prefix over blocks of 4096 terms, plus an
int16 prefix within each block that holds a checkpoint. The Chebyshev
terms are summed exactly in fixed point and each checkpoint is rounded
once, so every value is the correctly rounded sum of f(1..n) (what
math.fsum returns) and depends only on (kind, n), for n up to
_FLOAT_EXACT_LIMIT.

Segments may be sieved by a thread pool, but the reduction is always applied
in segment order.
"""

from __future__ import annotations

import math
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ResourceError
from .kernels import FunctionKind, base_primes, sieve_values

#: Default sieve segment length for streaming accumulation.
DEFAULT_SEGMENT = 1 << 22
#: Refuse limits above this unless the caller raises the cap explicitly.
DEFAULT_MAX_LIMIT = 10**9
#: Largest n for which float prefix sums stay exact. The fixed-point scale
#: of a square (log p)^2 is 2**54, so it fits int64 while (log n)^2 < 2**9,
#: and the high limb 2**25 Q(n) stays below 2**62, since Q(n) <= log(n) psi(n)
#: < 1.03883 n log n (Rosser and Schoenfeld).
_FLOAT_EXACT_LIMIT = 5 * 10**9
#: Width of the low fixed-point limb; 29 bits keeps every limb cumsum and
#: every readout residue far inside int64 and the float64 mantissa.
_LIMB = 29
_LIMB_MASK = (1 << _LIMB) - 1
#: Block length of the integer readout: a within-block prefix of int8 terms
#: of magnitude <= 7 stays inside int16.
_BLOCK_BITS = 12
_BLOCK = 1 << _BLOCK_BITS


@dataclass(frozen=True, eq=False)
class SummatorySeries:
    """Prefix sums S(n) of one arithmetic function at chosen checkpoints.

    ns holds the checkpoint positions (strictly increasing, ending at
    limit); sums holds S(n) for each, int64 for the ±1/0 kinds and float64
    for the Chebyshev kinds.
    """

    kind: FunctionKind
    limit: int
    ns: np.ndarray
    sums: np.ndarray

    def __post_init__(self) -> None:
        if self.limit < 1:
            raise DomainError(f"series limit must be >= 1, got {self.limit}")
        if len(self.ns) == 0:
            raise DomainError("series needs at least one checkpoint")
        if len(self.ns) != len(self.sums):
            raise DomainError("checkpoint positions and sums differ in length")
        if self.ns[0] < 1 or int(self.ns[-1]) != self.limit:
            raise DomainError("checkpoints must start at n >= 1 and end at limit")
        if len(self.ns) > 1 and not bool((np.diff(self.ns) > 0).all()):
            raise DomainError("checkpoint positions must be strictly increasing")
        if self.kind.is_integer_valued and bool((np.abs(self.sums) > self.ns).any()):
            raise DomainError("|S(n)| <= n violated; accumulator is corrupt")
        self.ns.setflags(write=False)
        self.sums.setflags(write=False)

    def __len__(self) -> int:
        return len(self.ns)

    @property
    def checkpoints(self) -> list[tuple[int, int] | tuple[int, float]]:
        """The (n, S(n)) pairs as Python scalars, ascending in n."""
        cast = int if self.kind.is_integer_valued else float
        return [(int(n), cast(s)) for n, s in zip(self.ns, self.sums)]

    @property
    def final_sum(self):
        """S(limit)."""
        s = self.sums[-1]
        return int(s) if self.kind.is_integer_valued else float(s)


@dataclass(frozen=True)
class MeanModel:
    """Linear density model: the deviation is F(n) = S(n) - m*n.

    All five built-in kinds have vanishing natural density, so m defaults
    to 0 and F coincides with S.
    """

    m: float = 0.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.m):
            raise DomainError(f"mean model constant must be finite, got {self.m}")


@dataclass(frozen=True, eq=False)
class DeviationSeries:
    """Checkpointed deviations F(n) = S(n) - m*n of a summatory series."""

    base: SummatorySeries
    model: MeanModel
    deviations: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        if len(self.deviations) != len(self.base.ns):
            raise DomainError("deviation array does not match base checkpoints")
        self.deviations.setflags(write=False)

    @property
    def ns(self) -> np.ndarray:
        return self.base.ns

    @property
    def checkpoints(self) -> list[tuple[int, float]]:
        return [(int(n), float(f)) for n, f in zip(self.base.ns, self.deviations)]


def geometric_ladder(limit: int, ratio: float | None = None) -> np.ndarray:
    """Checkpoint positions ceil(ratio**j) <= limit, deduplicated, plus limit.

    The default ratio sqrt(2) doubles the checkpoint every two steps, which
    spaces samples evenly on a log axis; that default is evaluated in exact
    integer arithmetic as ceil(sqrt(2**j)) so no float drift creeps in.
    """
    if limit < 1:
        raise DomainError(f"ladder limit must be >= 1, got {limit}")
    if ratio is not None and not ratio > 1.0:
        raise DomainError(f"ladder ratio must exceed 1, got {ratio}")
    points = {limit}
    j = 0
    while True:
        if ratio is None:
            root = math.isqrt(1 << j)
            n = root if root * root == 1 << j else root + 1
        else:
            n = math.ceil(ratio**j)
        if n > limit:
            break
        points.add(n)
        j += 1
    return np.array(sorted(points), dtype=np.int64)


def resolve_checkpoints(limit: int, plan=None) -> np.ndarray:
    """Turn a checkpoint plan into an ascending int64 array ending at limit.

    Accepted plans: None or "geometric" (default ladder), "all" (every n),
    a numeric ratio > 1, or an explicit iterable of positions. Explicit
    positions are deduplicated, sorted, and extended with limit if absent.
    """
    if limit < 1:
        raise DomainError(f"limit must be >= 1, got {limit}")
    if plan is None or (isinstance(plan, str) and plan == "geometric"):
        return geometric_ladder(limit)
    if isinstance(plan, str):
        if plan == "all":
            return np.arange(1, limit + 1, dtype=np.int64)
        raise DomainError(f"unknown checkpoint plan {plan!r}")
    if isinstance(plan, (int, float)) and not isinstance(plan, bool):
        return geometric_ladder(limit, ratio=float(plan))
    points = sorted({int(n) for n in plan} | {limit})
    if not points or points[0] < 1:
        raise DomainError("explicit checkpoints must be positive integers")
    if points[-1] > limit:
        raise DomainError(f"checkpoint {points[-1]} exceeds limit {limit}")
    return np.array(points, dtype=np.int64)


def _ordered_segments(kind: FunctionKind, start: int, stop: int, segment_size: int, threads: int):
    """Yield (lo, hi, values) per segment of [start, stop] in order, sieving ahead.

    The base primes are sieved once per walk, and each segment gets those up
    to sqrt(hi), so its table is still the one sieve_values(kind, lo, hi) gives.
    """
    primes = base_primes(stop)

    def sieve(lo: int, hi: int):
        own = primes[: int(np.searchsorted(primes, math.isqrt(hi), side="right"))]
        return lo, hi, sieve_values(kind, lo, hi, primes=own).values

    bounds = ((a, min(a + segment_size - 1, stop)) for a in range(start, stop + 1, segment_size))
    if threads <= 1:
        yield from (sieve(lo, hi) for lo, hi in bounds)
        return
    with ThreadPoolExecutor(max_workers=threads) as pool:
        pending: deque = deque()
        for lo, hi in bounds:
            pending.append(pool.submit(sieve, lo, hi))
            if len(pending) > threads:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()


def _cumsum0(terms: np.ndarray) -> np.ndarray:
    """int64 prefix sums of terms with a leading 0: entry c sums c terms."""
    out = np.zeros(len(terms) + 1, dtype=np.int64)
    np.cumsum(terms, dtype=np.int64, out=out[1:])
    return out


def _block_prefix(terms: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, int]:
    """int64 sums of terms[:c] for each c in counts, and the sum of all terms.

    counts must be nondecreasing and at most len(terms), and |terms| <= 7,
    so that a prefix within one block of _BLOCK terms is exact in int16.
    S(c) is the int64 prefix P over whole blocks before c plus the in-block
    prefix of the block c falls in; only blocks that hold a count get one.
    """
    nb = len(terms) >> _BLOCK_BITS
    full = terms[: nb << _BLOCK_BITS].reshape(nb, _BLOCK)
    tail = terms[nb << _BLOCK_BITS :]
    prefix = np.zeros(nb + 2, dtype=np.int64)
    full.sum(1, dtype=np.int64, out=prefix[1:-1])
    prefix[-1] = tail.sum(dtype=np.int64)
    np.cumsum(prefix, out=prefix)
    block = counts >> _BLOCK_BITS
    held = np.zeros(nb + 1, dtype=bool)
    held[block] = True
    held = np.flatnonzero(held)
    # Row i of inner is the exclusive prefix of block held[i]. Block nb is
    # the partial (maybe empty) tail; if it holds a count, it is held[-1].
    inner = np.zeros((len(held), _BLOCK), dtype=np.int16)
    k = len(held) - int(held[-1] == nb)
    np.cumsum(full[held[:k], :-1], axis=1, dtype=np.int16, out=inner[:k, 1:])
    if k < len(held):
        np.cumsum(tail, dtype=np.int16, out=inner[k, 1 : len(tail) + 1])
    # Count c sits at flat index row * _BLOCK + (c mod _BLOCK) of inner.
    shift = np.zeros(nb + 1, dtype=np.int64)
    shift[held] = (np.arange(len(held)) - held) << _BLOCK_BITS
    flat = shift[block]
    flat += counts
    out = prefix[block]
    out += inner.ravel()[flat]
    return out, int(prefix[-1])


class _ExactRun:
    """An exact running sum of a stream of terms, read out at term counts.

    With scale None the terms are small integers (see _block_prefix), read
    out of int64 block prefixes and int16 in-block prefixes. Otherwise they
    are nonnegative multiples of 2**-scale below 2**(63 - scale): exact
    int64 in fixed point, cumsummed as two 29-bit limbs, and each readout
    is the correctly rounded float64 of the exact total.
    """

    def __init__(self, scale: int | None = None):
        self.scale = scale
        self.total = 0  # the exact sum so far, in units of 2**-scale

    def add(self, terms: np.ndarray, counts) -> np.ndarray:
        """Append terms; return the running sum after counts[i] of them."""
        if self.scale is None:
            if len(counts) == 0:
                self.total += int(terms.sum(dtype=np.int64))
                return np.zeros(0, dtype=np.int64)
            out, total = _block_prefix(terms, counts)
            out += self.total
            self.total += total
            return out
        x = np.ldexp(terms, self.scale).astype(np.int64)
        hi, lo = _cumsum0(x >> _LIMB), _cumsum0(x & _LIMB_MASK)
        h, l = hi[counts], lo[counts]
        h += self.total >> _LIMB
        l += self.total & _LIMB_MASK
        self.total += (int(hi[-1]) << _LIMB) + int(lo[-1])
        # float(h) is exact up to the residue e = h - float(h), so the total
        # is float(h) * 2**29 + (e * 2**29 + l): two doubles, rounded once.
        h += l >> _LIMB
        l &= _LIMB_MASK
        a = h.astype(np.float64)
        h -= a.astype(np.int64)
        h <<= _LIMB
        h += l
        np.ldexp(a, _LIMB, out=a)
        a += h
        return np.ldexp(a, -self.scale, out=a)


def _prefix_sums(
    kind: FunctionKind,
    cps: np.ndarray,
    *,
    lo: int = 1,
    segment_size: int = DEFAULT_SEGMENT,
    threads: int = 1,
    squares: bool = False,
):
    """(S, Q) over [lo, n] for each n in cps; Q = sum of f(k)^2, or None.

    The one segment walk of the package. Float kinds are reduced over their
    nonzero terms log p, which lie on the 2**-53 grid, their squares on the
    2**-54 grid.

    Raises:
        DomainError: segment_size < 1.
        ResourceError: a float kind past _FLOAT_EXACT_LIMIT, or sqrt(n) above
            the base-prime cap of the sieve.
    """
    if segment_size < 1:
        raise DomainError(f"segment size must be >= 1, got {segment_size}")
    integer = kind.is_integer_valued
    if not integer and int(cps[-1]) > _FLOAT_EXACT_LIMIT:
        raise ResourceError(f"{kind.label} sums are exact only up to n = {_FLOAT_EXACT_LIMIT}, "
                            f"got {int(cps[-1])}")
    s_run = _ExactRun(None if integer else 53)
    q_run = _ExactRun(None if integer else 54)
    s = np.empty(len(cps), dtype=np.int64 if integer else np.float64)
    q = np.empty_like(s) if squares else None

    pos = 0
    for seg_lo, seg_hi, values in _ordered_segments(kind, lo, int(cps[-1]), segment_size, threads):
        end = pos + int(np.searchsorted(cps[pos:], seg_hi, side="right"))
        at = cps[pos:end]
        if integer:
            terms, counts = values, at - (seg_lo - 1)
        else:
            nz = np.flatnonzero(values)
            terms, counts = values[nz], np.searchsorted(nz + seg_lo, at, side="right")
        s[pos:end] = s_run.add(terms, counts)
        if squares:
            q[pos:end] = q_run.add(terms * terms, counts)
        pos = end
    return s, q


def accumulate(
    kind: FunctionKind,
    limit: int,
    checkpoint_plan=None,
    *,
    segment_size: int = DEFAULT_SEGMENT,
    threads: int = 1,
    max_limit: int = DEFAULT_MAX_LIMIT,
) -> SummatorySeries:
    """Build S(n) = sum of f(k) for k <= n at the planned checkpoints.

    A single monotone pass over [1, limit] in sieve segments. Integer kinds
    are exact; Chebyshev kinds are the correctly rounded sums. Results
    depend only on (kind, n), never on the plan, segment_size or threads.

    Raises:
        DomainError: limit < 1, segment_size < 1 or a malformed plan.
        ResourceError: limit > max_limit, or a float kind past _FLOAT_EXACT_LIMIT.
    """
    if limit > max_limit:
        raise ResourceError(f"limit {limit} exceeds the configured maximum {max_limit}")
    cps = resolve_checkpoints(limit, checkpoint_plan)
    sums, _ = _prefix_sums(kind, cps, segment_size=segment_size, threads=threads)
    return SummatorySeries(kind, limit, cps, sums)


def deviation_series(series: SummatorySeries, model: MeanModel = MeanModel()) -> DeviationSeries:
    """F(n) = S(n) - m*n at every checkpoint of the series."""
    devs = series.sums.astype(np.float64) - model.m * series.ns.astype(np.float64)
    return DeviationSeries(series, model, devs)


def value_at(series: SummatorySeries, n: int, *, segment_size: int = DEFAULT_SEGMENT):
    """S(n) for any n <= limit, equal to what accumulate reports at n.

    A stored checkpoint is returned as is. Otherwise integer kinds add the
    gap past the nearest checkpoint below n; Chebyshev kinds reduce [1, n]
    again, since a rounded checkpoint cannot seed an exact sum.

    Raises:
        DomainError: n < 1 or n > series.limit.
    """
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if n > series.limit:
        raise DomainError(f"n={n} exceeds series limit {series.limit}")
    idx = int(np.searchsorted(series.ns, n, side="right")) - 1
    if idx >= 0 and int(series.ns[idx]) == n:
        return series.sums[idx].item()
    base, start = 0, 1
    if idx >= 0 and series.kind.is_integer_valued:
        base, start = series.sums[idx].item(), int(series.ns[idx]) + 1
    s, _ = _prefix_sums(series.kind, np.array([n]), lo=start, segment_size=segment_size)
    return base + s[0].item()
