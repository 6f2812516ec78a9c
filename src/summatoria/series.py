"""Checkpointed summatory series S(n).

accumulate() streams sieve segments over [1, limit] in a single monotone
pass, recording S(n) at the requested checkpoints; the same walk also gives
Q(n) = sum of f(k)^2 to moment_scan. Integer-valued kinds are read out of
each segment exactly: an int64 prefix over int16 sums of blocks of 4096
terms, plus an int16 prefix within each block that holds a checkpoint.
The Chebyshev kinds are walked as their nonzero terms, which the sieve
gives as offsets and logs with no table; they are summed exactly in fixed
point and each checkpoint is rounded once, so every value is the correctly
rounded sum of f(1..n) (what math.fsum returns) and depends only on
(kind, n), for n up to _FLOAT_EXACT_LIMIT.

The Chebyshev terms of a segment are cumsummed in one in-place pass of
fixed-point limbs. A segment holding at least as many checkpoints as terms
(every n, say) is read out once at every prefix and then gathered: one
int64 cumsum for the integer kinds, one rounding per term count for the
Chebyshev kinds. Either route forms the same exact sum and rounds it once.

segment_runs() gives S(n) at every n without a row per n: each segment
comes as its runs of constant S(n), one starting at the segment's lo and
one at each n with f(n) != 0, read out after every nonzero term by the
same exact readout, so every value is bit-identical to accumulate(kind,
limit, "all"). Only one segment's runs are held at a time. Up to 10**6,
psi has 78,735 runs (n = 1 and the prime powers), mobius about 6/pi**2 of
every n, and liouville every n.

Segments may be sieved by a thread pool, but the reduction is always applied
in segment order.
"""

from __future__ import annotations

import math
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ResourceError
from .kernels import FunctionKind, base_primes, sieve_terms, sieve_values

#: Default sieve segment length for streaming accumulation.
DEFAULT_SEGMENT = 1 << 22
#: The one series limit, read at each call: change the cap by setting this constant.
DEFAULT_MAX_LIMIT = 10**9
#: Refuse a ladder of more checkpoints than this: 1.6 GB of int64 n and S(n).
MAX_CHECKPOINTS = 10**8
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
#: Powers per numpy block of a ratio ladder.
_LADDER_BLOCK = 1 << 16
#: Rows per block of the checks on a new SummatorySeries.
_CHECK_BLOCK = 1 << 20


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
        # A block of rows at a time, so that no temporary spans the series;
        # each block's order check starts at the last row of the block before.
        for lo in range(0, len(self.ns), _CHECK_BLOCK):
            hi = lo + _CHECK_BLOCK
            ns = self.ns[max(lo - 1, 0) : hi]
            if not bool((ns[1:] > ns[:-1]).all()):
                raise DomainError("checkpoint positions must be strictly increasing")
            if self.kind.is_integer_valued and bool((np.abs(self.sums[lo:hi]) > self.ns[lo:hi]).any()):
                raise DomainError("|S(n)| <= n violated; accumulator is corrupt")
        self.ns.setflags(write=False)
        self.sums.setflags(write=False)

    def __len__(self) -> int:
        return len(self.ns)


def geometric_ladder(limit: int, ratio: float | None = None, *,
                     max_points: int | None = None) -> np.ndarray:
    """Checkpoint positions ceil(ratio**j) <= limit, deduplicated, plus limit.

    The default ratio sqrt(2) doubles the checkpoint every two steps, which
    spaces samples evenly on a log axis; that default is evaluated in exact
    integer arithmetic as ceil(sqrt(2**j)) so no float drift creeps in.
    Past max_points points (default MAX_CHECKPOINTS), ResourceError comes
    before any allocation.
    """
    if limit < 1:
        raise DomainError(f"ladder limit must be >= 1, got {limit}")
    if ratio is not None and not 1.0 < ratio < math.inf:
        raise DomainError(f"ladder ratio must be finite and exceed 1, got {ratio}")
    if ratio is None:  # ceil(sqrt(m)) = isqrt(m - 1) + 1
        points = {math.isqrt((1 << j) - 1) + 1 for j in range(2 * limit.bit_length())}
        return np.array(sorted(n for n in points | {limit} if n <= limit), dtype=np.int64)
    # While ratio**j <= 0.5 / (ratio - 1), consecutive powers differ by at
    # most 1/2, so their ceilings take every integer up to ceil(ratio**j).
    top = 0.5 / (ratio - 1.0)
    count = min(limit, top) + max(0.0, (math.log(limit) - math.log(top)) / math.log(ratio))
    cap = MAX_CHECKPOINTS if max_points is None else max_points
    if count > cap:
        raise ResourceError(f"a ladder of ratio {ratio!r} up to {limit} has about {count:.3g} "
                            f"checkpoints, above the cap of {cap}")
    j = max(0, int(math.log(top) / math.log(ratio)))
    while j > 0 and ratio**j > top:
        j -= 1
    parts = [np.arange(1, min(math.ceil(ratio**j), limit))]
    # Above that, the powers come in blocks from float_power, the C pow behind
    # **; a block whose ends differ from ** is taken from ** term by term.
    # They are more than 1/2 apart, far above one ulp, so their ceilings
    # ascend and only repeats need to go.
    last = int(math.log(limit) / math.log(ratio)) + 1  # about the first power past limit
    while True:
        end = max(min(j + _LADDER_BLOCK, last + 1), j + 1)
        power = np.float_power(ratio, np.arange(j, end, dtype=np.float64))
        if power[0] != ratio**j or power[-1] != ratio ** (end - 1):
            power = np.array([ratio**k for k in range(j, end)])
        n = np.ceil(power)
        over = n > limit
        if over.any():
            parts += [n[: int(over.argmax())].astype(np.int64), np.array([limit])]
            points = np.concatenate(parts)
            return points[np.concatenate(([True], points[1:] != points[:-1]))]
        parts.append(n.astype(np.int64))
        j = end


def _check_limit(limit: int) -> None:
    if limit < 1:
        raise DomainError(f"limit must be >= 1, got {limit}")
    if limit > DEFAULT_MAX_LIMIT:
        raise ResourceError(f"limit {limit} exceeds the configured maximum {DEFAULT_MAX_LIMIT}")


def _check_every_n(limit: int, cap: int) -> None:
    if limit > cap:
        raise ResourceError(f"every n is {limit} checkpoints, above the cap of {cap}")


def resolve_checkpoints(limit: int, plan=None, *, max_points: int | None = None) -> np.ndarray:
    """Turn a checkpoint plan into an ascending int64 array ending at limit.

    Accepted plans: None or "geometric" (default ladder), "all" (every n),
    a numeric ratio > 1, or an explicit iterable of positions. Explicit
    positions are resolved in numpy: one array with limit appended, sorted,
    checked, cast to int64 and deduplicated, once per walk. A limit above
    DEFAULT_MAX_LIMIT, or more than max_points points (default MAX_CHECKPOINTS),
    raises ResourceError; a generated plan raises it before any allocation.
    """
    _check_limit(limit)
    cap = MAX_CHECKPOINTS if max_points is None else max_points
    if plan is None or (isinstance(plan, str) and plan == "geometric"):
        return geometric_ladder(limit)
    if isinstance(plan, str):
        if plan == "all":
            _check_every_n(limit, cap)
            return np.arange(1, limit + 1, dtype=np.int64)
        raise DomainError(f"unknown checkpoint plan {plan!r}")
    if isinstance(plan, (int, float)) and not isinstance(plan, bool):
        return geometric_ladder(limit, ratio=float(plan), max_points=cap)
    points = np.sort(np.append(plan, limit) if isinstance(plan, np.ndarray) else np.array([*plan, limit]))
    if points[0] < 1:
        raise DomainError("explicit checkpoints must be positive integers")
    if points[-1] > limit:
        raise DomainError(f"checkpoint {points[-1]} exceeds limit {limit}")
    points = points.astype(np.int64, copy=False)
    points = points[np.concatenate(([True], points[1:] != points[:-1]))]
    if len(points) > cap:
        raise ResourceError(f"a plan of {len(points)} checkpoints is above the cap of {cap}")
    return points


def _ordered_segments(kind: FunctionKind, stop: int, segment_size: int, threads: int):
    """Yield (lo, hi, values) per segment of [1, stop] in order, sieving ahead.

    values is the int8 table of an integer kind and the nonzero terms
    (offsets, logs) of a Chebyshev kind, as sieve_values and sieve_terms
    give them over [lo, hi]. The base primes are sieved once per walk, and
    each segment gets those up to sqrt(hi).
    """
    primes = base_primes(stop)

    def sieve(lo: int, hi: int):
        own = primes[: int(np.searchsorted(primes, math.isqrt(hi), side="right"))]
        if kind.is_integer_valued:
            return lo, hi, sieve_values(kind, lo, hi, primes=own).values
        return lo, hi, sieve_terms(kind, lo, hi, primes=own)

    bounds = ((a, min(a + segment_size - 1, stop)) for a in range(1, stop + 1, segment_size))
    if threads <= 1 or stop <= segment_size:  # one segment overlaps nothing
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


def _block_prefix(terms: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, int]:
    """int64 sums of terms[:c] for each c in counts (maybe none), and the sum of all terms.

    counts must be nondecreasing and at most len(terms), and |terms| <= 7,
    so that a block sum and a prefix within one block of _BLOCK terms are
    exact in int16.
    S(c) is the int64 prefix P over whole blocks before c plus the in-block
    prefix of the block c falls in; only blocks that hold a count get one.
    """
    nb = len(terms) >> _BLOCK_BITS
    full = terms[: nb << _BLOCK_BITS].reshape(nb, _BLOCK)
    tail = terms[nb << _BLOCK_BITS :]
    prefix = np.zeros(nb + 2, dtype=np.int64)
    full.sum(1, dtype=np.int16, out=prefix[1:-1])  # |block sum| <= 7 * _BLOCK < 2**15
    prefix[-1] = tail.sum(dtype=np.int64)
    np.cumsum(prefix, out=prefix)
    block = counts >> _BLOCK_BITS
    held = np.zeros(nb + 1, dtype=bool)
    held[block] = True
    held = np.flatnonzero(held)
    # Row i of inner is the exclusive prefix of block held[i]. Block nb is
    # the partial (maybe empty) tail; if it holds a count, it is held[-1].
    inner = np.zeros((len(held), _BLOCK), dtype=np.int16)
    k = int(np.searchsorted(held, nb))
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
    int64 in fixed point, cumsummed in place as two 29-bit limbs in one pass
    over the stream, and each readout is the correctly rounded float64 of
    the exact total. One pass over a segment's at most DEFAULT_MAX_SEGMENT =
    2**26 terms stays exact: the low limbs sum to below 2**26 * 2**29 =
    2**55, and the high limbs to below 2**25 Q(n) < 2**62, the bound that
    _FLOAT_EXACT_LIMIT states.
    """

    def __init__(self, scale: int | None = None):
        self.scale = scale
        self.total = 0  # the exact sum so far, in units of 2**-scale

    def add(self, terms: np.ndarray, counts) -> np.ndarray:
        """Append terms; return the running sum after counts[i] of them.

        counts may also be a slice of the counts 0..m of m terms. When it is,
        or when counts are at least as many as the terms, every prefix 0..m
        is read out once and gathered at counts; otherwise only the counts are.
        """
        dense = isinstance(counts, slice) or len(counts) >= len(terms)
        if self.scale is None:
            if dense:
                prefix = np.zeros(len(terms) + 1, dtype=np.int64)  # entry c sums c terms
                np.cumsum(terms, dtype=np.int64, out=prefix[1:])
                out, total = prefix[counts], int(prefix[-1])
            else:
                out, total = _block_prefix(terms, counts)
            out += self.total
            self.total += total
            return out
        # h and l: the high and low limbs of the terms after a leading 0, then their prefix sums.
        h = np.zeros(len(terms) + 1, dtype=np.int64)
        np.ldexp(terms, self.scale, out=h[1:], casting="unsafe")
        l = h & _LIMB_MASK
        h >>= _LIMB
        np.cumsum(h, out=h)
        np.cumsum(l, out=l)
        total = (int(h[-1]) << _LIMB) + int(l[-1])
        if not dense:
            h, l = h[counts], l[counts]
        h += self.total >> _LIMB
        l += self.total & _LIMB_MASK
        self.total += total
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
        np.ldexp(a, -self.scale, out=a)
        return a[counts] if dense else a


def _check_walk(kind: FunctionKind, stop: int, segment_size: int) -> None:
    if segment_size < 1:
        raise DomainError(f"segment size must be >= 1, got {segment_size}")
    if not kind.is_integer_valued and stop > _FLOAT_EXACT_LIMIT:
        raise ResourceError(f"{kind.label} sums are exact only up to n = {_FLOAT_EXACT_LIMIT}, "
                            f"got {stop}")


def _prefix_sums(
    kind: FunctionKind,
    cps: np.ndarray,
    *,
    segment_size: int = DEFAULT_SEGMENT,
    threads: int = 1,
    squares: bool = False,
):
    """(S, Q) over [1, n] for each n in cps; Q = sum of f(k)^2, or None.

    Reads the one segment walk of the package, _ordered_segments, as
    segment_runs and moments.prime_adjacent_joint do. Float kinds are
    reduced over their nonzero terms log p, which lie on the 2**-53 grid,
    their squares on the 2**-54 grid; the count of terms at or before each
    checkpoint comes from the term offsets, by an int32 cumsum of a bool
    mark of them when the segment reads out every prefix and by
    searchsorted otherwise.

    Raises:
        DomainError: segment_size < 1.
        ResourceError: a float kind past _FLOAT_EXACT_LIMIT, or sqrt(n) above
            the base-prime cap of the sieve.
    """
    _check_walk(kind, int(cps[-1]), segment_size)
    integer = kind.is_integer_valued
    s_run = _ExactRun(None if integer else 53)
    q_run = _ExactRun(None if integer else 54)
    s = np.empty(len(cps), dtype=np.int64 if integer else np.float64)
    q = np.empty_like(s) if squares else None

    pos = 0
    for seg_lo, seg_hi, values in _ordered_segments(kind, int(cps[-1]), segment_size, threads):
        end = pos + int(np.searchsorted(cps[pos:], seg_hi, side="right"))
        at = cps[pos:end]
        if integer:
            terms, counts = values, at - (seg_lo - 1)
        else:
            offsets, terms = values
            if len(at) >= len(terms):  # dense: _ExactRun reads out every prefix
                mark = np.zeros(seg_hi - seg_lo + 1, dtype=bool)
                mark[offsets] = True
                counts = np.cumsum(mark, dtype=np.int32)[at - seg_lo]
            else:
                counts = np.searchsorted(offsets, at - seg_lo, side="right")
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
) -> SummatorySeries:
    """Build S(n) = sum of f(k) for k <= n at the planned checkpoints.

    A single monotone pass over [1, limit] in sieve segments. Integer kinds
    are exact; Chebyshev kinds are the correctly rounded sums. Results
    depend only on (kind, n), never on the plan, segment_size or threads.

    Raises:
        DomainError: limit < 1, segment_size < 1 or a malformed plan.
        ResourceError: before the walk, limit > DEFAULT_MAX_LIMIT, a plan
            over the checkpoint cap, or a float kind past _FLOAT_EXACT_LIMIT.
    """
    cps = resolve_checkpoints(limit, checkpoint_plan)
    sums, _ = _prefix_sums(kind, cps, segment_size=segment_size, threads=threads)
    return SummatorySeries(kind, limit, cps, sums)


def segment_runs(kind: FunctionKind, limit: int, *, segment_size: int = DEFAULT_SEGMENT,
                 threads: int = 1):
    """Yield the runs of constant S(n) over [1, limit], one segment at a time, as (ns, sums, lengths).

    A run starts at the segment's lo and at each n with f(n) != 0, and holds
    up to the next start minus 1 or the segment's end, so the first run
    carries S(lo - 1) when f(lo) = 0. ns holds the starts, sums S(n) there,
    and lengths the n each run holds, or is None when every n starts a run.
    The sums are the walk of accumulate(kind, limit, "all") read out after
    each nonzero term, so each is bit-identical to that series, and the same
    limits are refused first, at the first next().

    Raises:
        DomainError: limit < 1 or segment_size < 1.
        ResourceError: limit > DEFAULT_MAX_LIMIT or above MAX_CHECKPOINTS.
    """
    _check_limit(limit)
    _check_every_n(limit, MAX_CHECKPOINTS)
    _check_walk(kind, limit, segment_size)
    integer = kind.is_integer_valued
    run = _ExactRun(None if integer else 53)
    for lo, hi, values in _ordered_segments(kind, limit, segment_size, threads):
        if integer and np.count_nonzero(values) == len(values):
            yield np.arange(lo, hi + 1), run.add(values, slice(1, None)), None
            continue
        if integer:
            offsets = np.flatnonzero(values)
            terms = values[offsets]
        else:
            offsets, terms = values
        carry = int(len(offsets) == 0 or offsets[0] > 0)  # f(lo) = 0: a run of S(lo - 1) starts at lo
        ns = np.empty(len(offsets) + carry, dtype=np.int64)
        ns[0] = lo
        np.add(offsets, lo, out=ns[carry:])
        sums = run.add(terms, slice(1 - carry, None))
        lengths = None
        if len(ns) < hi - lo + 1:
            lengths = np.empty_like(ns)
            np.subtract(ns[1:], ns[:-1], out=lengths[:-1])
            lengths[-1] = hi + 1 - ns[-1]
        yield ns, sums, lengths
