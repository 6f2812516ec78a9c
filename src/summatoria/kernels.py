"""Pointwise arithmetic functions over integer intervals.

Exact sieved kernels for the Mobius function, the Liouville function, the
prime indicator, and the two Chebyshev log-terms (the summands of psi and
theta), plus a trial-division oracle used to cross-validate the sieves.

Each kind has its own segment kernel and does only the work it needs, in
two stages: factor_profile walks the primes p <= sqrt(hi) once, and
values_from_profile finishes the values. No step divides. Once hi >= 49 the
walk starts at 11: a cached tile of period 44100 = (2*3*5*7)**2, read from
lo mod 44100, gives what 2, 3, 5, 7 and their squares add (a wheel pre-sieve).
The primes below 256 touch every cache line of the window, so they are
walked over 2**20 entries at a time (2 MB of score, 1 MB of mask, within a
core's L2); the larger ones touch few lines each and walk the whole window
once, as more but shorter numpy calls would queue on the GIL when two
segments are sieved on two threads. A prime above the window's width hits
it at most once per power, so all of those take one vectorised step.

Mobius and Liouville keep one uint16 score per entry and no product. At
each multiple of p (Mobius) or of each prime power p**j (Liouville) the
score gains 2*w_p + 1, with w_p = floor(256 * log2 p); Mobius sets bit 15
where p**2 divides k, which makes it 0. So score = 2*s + c, where s sums the
log weights and the parity of c, the primes counted, is the sign. A k <= hi
has at most one prime factor q > sqrt(hi), which flips the sign once more,
and s shows whether it is there. Block j holds the k with
2**j <= k**4 < 2**(j+1), from e_j, the least k with e_j**4 >= 2**j; k has
the cofactor q exactly when score < 2*t_j, t_j = 64*j - 115. Why that is
exact: a sqrt(hi)-smooth k has s >= 256 * log2 k - Omega(k) >= 64*j - 52,
since Omega(k) <= 52 below the 2**52 cap on hi; a k with q >= 2 has
s <= 256 * (log2 k - 1) < 64*j - 192 and c <= 51. So score - 2*t_j is at
least 126 for the first and at most -105 for the second, room enough for a
w_p one off from float log2 in every prime factor. A cached table holds
2*t_j for k <= 2**16, so that part of a window takes one compare. The
prime indicator is a segmented Eratosthenes mask, theta puts log k at its
primes, and psi also puts log p at the prime powers. The tile (or p = 2
itself, below hi = 49) clears the even k, so each odd p crosses off only
its odd multiples, in steps of 2p: half the writes of the plain walk.
chebyshev_terms gives those nonzero terms in order, as offsets from lo and
their logs: sieve_terms hands them to the segment walk, which needs no
table, and values_from_profile scatters the same terms into the float
table of sieve_values.

All integer-valued kernels are computed with exact integer arithmetic; the
Chebyshev terms are double-precision natural logarithms of exact primes.
A table sieved over [lo, hi] is identical whether the enclosing range was
computed in one segment or many.

The oracle shares nothing with the sieves. trial_division_counts factors
every k in [1, n] at once into FactorCounts (distinct primes, primes with
multiplicity, squarefree, least prime): it divides every k by 2, 3, 5 and
7, trial-divides only the k left whole by the larger d, and reads the
counts of every other k's residue from theirs. values_from_counts, the one
mapping from those counts to the five kinds, gives the values.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import CorruptionError, DomainError, ResourceError

#: Hard cap on the length of a single sieved interval (entries).
DEFAULT_MAX_SEGMENT = 1 << 26
#: The wheel primes, and the period of their tile: p**2 divides it for each.
_WHEEL_PRIMES = (2, 3, 5, 7)
_WHEEL = 44100
#: From this many entries (at least 420) on, a prime mask is read by its wheel columns.
_WHEEL_SCAN = 1 << 18
#: The primes below this are sieved over _SIEVE_BLOCK entries at a time (2 MB of
#: score, 1 MB of mask: within a 2 MB L2), the larger ones over the whole window.
_BLOCKED_BELOW = 256
_SIEVE_BLOCK = 1 << 20


class FunctionKind(Enum):
    """The five supported pointwise arithmetic functions.

    Enum values double as the kind tags of the binary cache format, so the
    numbering is load-bearing and must not change.
    """

    MOBIUS = 0
    LIOUVILLE = 1
    PRIME_INDICATOR = 2
    CHEBYSHEV_PSI_TERM = 3
    CHEBYSHEV_THETA_TERM = 4

    @property
    def is_integer_valued(self) -> bool:
        """True for kinds whose values lie in {-1, 0, +1}."""
        return self in _INTEGER_KINDS

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(np.int8) if self.is_integer_valued else np.dtype(np.float64)

    @property
    def label(self) -> str:
        """Stable lowercase name used by the CLI and cache filenames."""
        return _KIND_LABELS[self]


_INTEGER_KINDS = frozenset(
    {FunctionKind.MOBIUS, FunctionKind.LIOUVILLE, FunctionKind.PRIME_INDICATOR}
)

_KIND_LABELS = {
    FunctionKind.MOBIUS: "mobius",
    FunctionKind.LIOUVILLE: "liouville",
    FunctionKind.PRIME_INDICATOR: "prime-indicator",
    FunctionKind.CHEBYSHEV_PSI_TERM: "psi",
    FunctionKind.CHEBYSHEV_THETA_TERM: "theta",
}

KIND_BY_LABEL = {label: kind for kind, label in _KIND_LABELS.items()}


@dataclass(frozen=True, eq=False)
class ValueTable:
    """Dense f(k) values over the inclusive interval [lo, hi] for one kind.

    Integer-valued kinds store int8 entries in {-1, 0, +1}; the Chebyshev
    log-terms store float64 entries in [0, log hi]. The backing array is
    marked read-only on construction, so tables are safe to share across
    threads.
    """

    kind: FunctionKind
    lo: int
    hi: int
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.lo < 1:
            raise DomainError(f"table lower bound must be >= 1, got {self.lo}")
        if self.hi < self.lo:
            raise DomainError(f"table interval is empty: [{self.lo}, {self.hi}]")
        if len(self.values) != self.hi - self.lo + 1:
            raise DomainError(
                f"table length {len(self.values)} does not match [{self.lo}, {self.hi}]"
            )
        self.values.setflags(write=False)

    def __len__(self) -> int:
        return self.hi - self.lo + 1

    def validate(self) -> None:
        """Full-scan check of the value-range invariants.

        Raises CorruptionError on the first violated invariant. Used when
        reconstructing tables from untrusted bytes.
        """
        v = self.values
        kind = self.kind
        if kind.is_integer_valued:
            if v.dtype != np.int8:
                raise CorruptionError(f"{kind.label} table has dtype {v.dtype}, expected int8")
            lo_ok = -1 if kind is not FunctionKind.PRIME_INDICATOR else 0
            if v.min(initial=0) < lo_ok or v.max(initial=0) > 1:
                raise CorruptionError(f"{kind.label} table holds values outside its range")
            if kind is FunctionKind.LIOUVILLE and bool((v == 0).any()):
                raise CorruptionError("liouville table holds a zero value")
        else:
            if v.dtype != np.float64:
                raise CorruptionError(f"{kind.label} table has dtype {v.dtype}, expected float64")
            if bool((v < 0).any()) or bool((v > math.log(self.hi) + 1e-12).any()):
                raise CorruptionError(f"{kind.label} table holds values outside [0, log hi]")


def primes_upto(limit: int) -> np.ndarray:
    """Ascending primes <= limit via a plain Eratosthenes sieve."""
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return np.nonzero(mask)[0].astype(np.int64)


def _tail_blocks(lo: int, hi: int):
    """(slice of [lo, hi], t_j) per quarter-octave block j, e_j <= k < e_(j+1)."""
    j, start = (lo**4).bit_length() - 1, lo
    while start <= hi:
        stop = min(math.isqrt(math.isqrt((1 << (j + 1)) - 1)) + 1, hi + 1)  # e_(j+1)
        yield slice(start - lo, stop - lo), 64 * j - 115
        j, start = j + 1, stop


@functools.cache
def _tail_table() -> np.ndarray:
    """max(2*t_j, 0) at k = 1 .. 2**16, read-only: no uint16 score is below a 2*t_j <= 0."""
    table = np.zeros(1 << 16, dtype=np.uint16)
    for block, t in _tail_blocks(1, len(table)):
        table[block] = max(2 * t, 0)
    table.setflags(write=False)
    return table


def _log_weights(primes: np.ndarray) -> np.ndarray:
    """2*w_p + 1 for each prime p, with w_p = floor(256 * log2 p)."""
    return 2 * np.floor(256 * np.log2(primes)).astype(np.int64) + 1


@functools.cache
def _wheel_tile(kind: FunctionKind) -> np.ndarray:
    """The primes <= 7 at k = 0 .. 2*_WHEEL - 1, read-only: for mobius and liouville
    the score of 2, 3, 5, 7 and their squares, else the mask of k coprime to 210."""
    if kind is not FunctionKind.MOBIUS and kind is not FunctionKind.LIOUVILLE:
        tile = np.gcd(np.arange(2 * _WHEEL), 210) == 1
    else:
        tile = np.zeros(2 * _WHEEL, dtype=np.uint16)
        for p, w in zip(_WHEEL_PRIMES, _log_weights(np.array(_WHEEL_PRIMES)).tolist()):
            tile[::p] += w
            if kind is FunctionKind.LIOUVILLE:
                tile[:: p * p] += w
            else:
                tile[:: p * p] |= 1 << 15
    tile.setflags(write=False)
    return tile


def _add_scores(score: np.ndarray, lo: int, steps, every_power: bool) -> None:
    """Walk steps, each (p, 2*w_p + 1, the first power of p to sieve), over score,
    which holds [lo, lo + len(score) - 1]: one strided update per power of p."""
    hi = lo + len(score) - 1
    for p, w, pk in steps:
        while pk <= hi:
            view = score[(-lo) % pk :: pk]
            if pk > p and not every_power:
                view |= 1 << 15  # p**2 divides k
                break
            view += w
            pk *= p


def _cross_off(prime: np.ndarray, lo: int, ps) -> None:
    """Clear the multiples from p**2 on of each p in ps in prime, which holds [lo, lo + len(prime) - 1].

    An odd p clears only its odd multiples, stepping by 2p from the first odd
    one >= max(p**2, lo): the wheel tile, or p = 2 in ps below hi = 49, has
    cleared the even k. Halving the writes took the mask of [1, 2**22] from
    6.5-7.3 to 3.8-4.2 ms on one core of a 2-vCPU Xeon VM.
    """
    for p in ps:
        odd = p & 1  # an odd p steps by 2p, over its odd multiples only
        q = max(p, -(-lo // p)) | odd  # the first multiplier: >= p, >= lo / p, odd if p is
        prime[q * p - lo :: p << odd] = False


def _walk(update, profile: np.ndarray, lo: int, blocked, rest) -> None:
    """update(view, lo of the view, steps): blocked over each _SIEVE_BLOCK entries in turn, then rest."""
    for start in range(0, len(profile), _SIEVE_BLOCK):
        update(profile[start : start + _SIEVE_BLOCK], lo + start, blocked)
    update(profile, lo, rest)


def _powers(primes: np.ndarray, hi: int, j: int):
    """(i, p**j) for j, j + 1, ... while some p = primes[i] has p**j <= hi, ascending in i."""
    i = np.flatnonzero(primes**j <= hi)  # j <= 2 and p <= 2**26: no overflow
    pk = primes[i] ** j
    while len(i):
        yield i, pk
        more = pk <= hi // primes[i]
        i = i[more]
        pk = pk[more] * primes[i]


def factor_profile(lo: int, hi: int, kind: FunctionKind, *, primes) -> tuple[np.ndarray, ...]:
    """Sieve what one kind needs to know about every k in [lo, hi].

    Walks primes, the ascending primes <= sqrt(hi), once, and never divides:

    - mobius and liouville: (score,), the uint16 log-weight score of the
      module docstring.
    - prime-indicator and theta: (prime,), a segmented Eratosthenes mask.
    - psi: (prime, at, of), the mask plus the offsets from lo of the
      prime powers p**j (j >= 2) in [lo, hi] and their primes.

    From hi = 49 on, the window starts as the wheel tile and the walk at 11.
    Each p <= n = hi - lo + 1 gets one strided slice update per power (or
    one for the mask): those below _BLOCKED_BELOW over each _SIEVE_BLOCK
    entries in turn, so that their dense updates stay in cache, the rest
    over the whole window. The p > n hit the window at most once per power
    and take one vectorised step together. The result depends only on
    (lo, hi, kind), never on any enclosing segmentation.
    """
    n = hi - lo + 1
    ps = primes.tolist()
    wheel = ps[:4] == [*_WHEEL_PRIMES]  # hi >= 49
    tile = np.resize(_wheel_tile(kind)[lo % _WHEEL :][: min(n, _WHEEL)], n) if wheel else None
    begin = 4 if wheel else 0
    wide = max(begin, int(np.searchsorted(primes, n, side="right")))
    small = min(max(begin, int(np.searchsorted(primes, _BLOCKED_BELOW))), wide)
    if kind is FunctionKind.MOBIUS or kind is FunctionKind.LIOUVILLE:
        every_power = kind is FunctionKind.LIOUVILLE
        score = np.zeros(n, dtype=np.uint16) if tile is None else tile
        weights = _log_weights(primes)
        steps = list(zip(ps[:wide], weights[:wide].tolist(), ps[:wide]))
        # The tile holds p and p**2 for p <= 7; liouville still sieves p**3 on.
        wheel_steps = [(p, w, p**3) for p, w, _ in steps[:begin]] if every_power else []
        update = functools.partial(_add_scores, every_power=every_power)
        _walk(update, score, lo, wheel_steps + steps[begin:small], steps[small:])
        far, w = primes[wide:], weights[wide:].astype(np.uint16)
        for j, (i, pk) in enumerate(_powers(far, hi, 1), 1):
            at = (-lo) % pk
            hit = at < n
            if j > 1 and not every_power:
                score[at[hit]] |= 1 << 15
                break
            np.add.at(score, at[hit], w[i[hit]])  # two wide primes can divide one k
        return (score,)
    prime = np.ones(n, dtype=bool) if tile is None else tile
    if wheel:  # the tile crossed off 2, 3, 5 and 7 themselves
        prime[[p - lo for p in _WHEEL_PRIMES if lo <= p <= hi]] = True
    if lo == 1:
        prime[0] = False
    _walk(_cross_off, prime, lo, ps[begin:small], ps[small:wide])
    far = primes[wide:]
    at = np.maximum(far * far, (-lo) % far + lo) - lo
    prime[at[at < n]] = False
    if kind is not FunctionKind.CHEBYSHEV_PSI_TERM:
        return (prime,)
    at, of = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    for i, pk in _powers(primes, hi, 2):
        inside = pk >= lo
        at.append(pk[inside] - lo)
        of.append(primes[i[inside]])
    of = np.concatenate(of)
    order = np.argsort(of, kind="stable")  # by p, then by j
    return prime, np.concatenate(at)[order], of[order]


def _prime_offsets(kind: FunctionKind, mask: np.ndarray, lo: int) -> np.ndarray:
    """np.flatnonzero of a prime mask over [lo, lo + len(mask) - 1], as chebyshev_terms reads it."""
    if len(mask) < _WHEEL_SCAN:
        return np.flatnonzero(mask)
    rows = len(mask) // 210
    cols = np.flatnonzero(_wheel_tile(kind)[lo % 210 :][:210])  # the 48 k coprime to 210
    i = np.flatnonzero(np.take(mask[: rows * 210].reshape(rows, 210), cols, axis=1))
    q = np.floor_divide(i, 48, dtype=np.int32)  # index i is at offset 210q + cols[i - 48q]
    i -= q * 48
    head, tail = [p - lo for p in _WHEEL_PRIMES if p >= lo], np.flatnonzero(mask[rows * 210 :])
    at = np.empty(len(head) + len(i) + len(tail), dtype=np.int64)
    at[: len(head)], at[len(head) + len(i) :] = head, tail + rows * 210
    body = at[len(head) : len(head) + len(i)]
    np.take(cols, i, out=body, mode="clip")  # clip takes no buffered copy; i is in 0..47
    q *= 210
    body += q
    return at


def chebyshev_terms(kind: FunctionKind, lo: int, profile: tuple) -> tuple[np.ndarray, np.ndarray]:
    """The nonzero terms of a psi or theta profile: ascending offsets from lo, and their values.

    log k at each prime k; psi merges in log p at each prime power p**j, sorted
    and placed by searchsorted. From _WHEEL_SCAN entries on, where it beats one
    flatnonzero, the primes above 7 come from the 48 columns coprime to 210 of
    the mask's rows of 210, where 21-33% of the entries are prime, not about 7%.
    """
    at = _prime_offsets(kind, profile[0], lo)
    logs = np.add(at, lo, dtype=np.float64)
    np.log(logs, out=logs)
    if kind is FunctionKind.CHEBYSHEV_PSI_TERM:
        _, powers, of = profile
        order = np.argsort(powers)
        where = np.searchsorted(at, powers[order])
        at = np.insert(at, where, powers[order])
        logs = np.insert(logs, where, np.log(of[order].astype(np.float64)))
    return at, logs


def values_from_profile(kind: FunctionKind, lo: int, hi: int, profile: tuple) -> np.ndarray:
    """Finish one kind's values from its sieved profile.

    The mobius and liouville sign is the score's parity, flipped where the
    score is below 2*t_j; mobius is 0 where bit 15 is set. The k <= 2**16
    are compared with _tail_table at once, and only the k above loop over
    their blocks (about 4 us each; [1, 10**5] has 67). The Chebyshev
    table scatters the terms of chebyshev_terms into zeros, so it holds
    exactly what a segment walk sums.
    """
    if kind is FunctionKind.MOBIUS or kind is FunctionKind.LIOUVILLE:
        (score,) = profile
        out = score.astype(np.int8)  # the low byte, which holds the parity
        out &= 1
        table = _tail_table()
        low = min(max(len(table) + 1 - lo, 0), len(out))  # the k <= 2**16
        out[:low] ^= score[:low] < table[lo - 1 :][:low]
        for block, t in _tail_blocks(lo + low, hi):
            out[low:][block] ^= score[low:][block] < 2 * t
        out *= -2
        out += 1
        if kind is FunctionKind.MOBIUS:
            out *= score < 1 << 15
        return out
    if kind is FunctionKind.PRIME_INDICATOR:
        return profile[0].view(np.int8)
    if kind not in (FunctionKind.CHEBYSHEV_PSI_TERM, FunctionKind.CHEBYSHEV_THETA_TERM):
        raise DomainError(f"unknown function kind {kind!r}")
    out = np.zeros(hi - lo + 1, dtype=np.float64)
    at, logs = chebyshev_terms(kind, lo, profile)
    out[at] = logs
    return out


def base_primes(hi: int) -> np.ndarray:
    """The primes <= sqrt(hi); ResourceError if sqrt(hi) is above DEFAULT_MAX_SEGMENT."""
    root = math.isqrt(hi)
    if root > DEFAULT_MAX_SEGMENT:
        raise ResourceError(f"sieving up to {hi} needs the primes up to {root}, "
                            f"above the cap of {DEFAULT_MAX_SEGMENT}")
    return primes_upto(root)


def _sieved_profile(kind: FunctionKind, lo: int, hi: int, primes: np.ndarray | None) -> tuple:
    """factor_profile over [lo, hi] once the interval is checked; see sieve_values."""
    if lo < 1:
        raise DomainError(f"sieve lower bound must be >= 1, got {lo}")
    if hi < lo:
        raise DomainError(f"sieve interval is empty: [{lo}, {hi}]")
    if hi - lo + 1 > DEFAULT_MAX_SEGMENT:
        raise ResourceError(
            f"interval [{lo}, {hi}] has {hi - lo + 1} entries, above the cap of {DEFAULT_MAX_SEGMENT}"
        )
    if primes is None:
        primes = base_primes(hi)
    return factor_profile(lo, hi, kind, primes=primes)


def sieve_values(
    kind: FunctionKind,
    lo: int,
    hi: int,
    *,
    primes: np.ndarray | None = None,
) -> ValueTable:
    """Sieve f(k) for every k in the inclusive interval [lo, hi].

    Args:
        kind: which arithmetic function to evaluate.
        lo, hi: interval bounds, 1 <= lo <= hi.
        primes: the primes <= sqrt(hi), if shared; by default base_primes(hi).

    Raises:
        DomainError: lo < 1 or hi < lo.
        ResourceError: interval longer than DEFAULT_MAX_SEGMENT, or sqrt(hi)
            above it (the base-prime sieve would need that many entries).
    """
    profile = _sieved_profile(kind, lo, hi, primes)
    return ValueTable(kind, lo, hi, values_from_profile(kind, lo, hi, profile))


def sieve_terms(
    kind: FunctionKind, lo: int, hi: int, *, primes: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """The nonzero psi or theta terms over [lo, hi], as chebyshev_terms gives them.

    Sieves as sieve_values does, with the same checks, but builds no table.
    """
    return chebyshev_terms(kind, lo, _sieved_profile(kind, lo, hi, primes))


class FactorCounts(NamedTuple):
    """What the five kinds need to know about the factorization of each n.

    omega counts the distinct primes and big_omega the primes with
    multiplicity (int8), squarefree is a bool mask, and least is the least
    prime factor, 0 at n = 1.
    """

    omega: np.ndarray
    big_omega: np.ndarray
    squarefree: np.ndarray
    least: np.ndarray


def trial_division_counts(n: int) -> FactorCounts:
    """Factor every k in [1, n] at once by trial division, in two phases.

    Each hit of a divisor d is divided by d for as long as d divides it.
    Phase one tries 2, 3, 5 and 7 on every k; phase two tries each d >= 11
    prime to 210 with d*d <= n on the k left whole (1 and the 7-rough k,
    about 23%) while their residue is at least d*d, below which it is 1 or
    a prime, one more prime if above 1. Every other k then adds the counts
    of its 7-rough residue r > 1. Only // touches the entries, never a
    strided slice, the base primes or a segment kernel, so the oracle is an
    independent check of the sieves; (v // d) * d == v tests that d divides
    v, as numpy's // of int32 by a scalar is several times faster than %.
    """
    if n < 1:
        raise DomainError(f"trial division needs n >= 1, got {n}")
    if n > np.iinfo(np.int32).max:
        raise ResourceError(f"trial division holds k in int32, and {n} does not fit")
    m = np.arange(1, n + 1, dtype=np.int32)
    omega = np.zeros(n, dtype=np.int8)
    big_omega = np.zeros(n, dtype=np.int8)
    squarefree = np.ones(n, dtype=bool)
    least = np.zeros(n, dtype=np.int32)

    def divide_out(hit, d):
        omega[hit] += 1
        least[hit[least[hit] == 0]] = d
        while hit.size:
            v = m[hit] // d
            m[hit] = v
            big_omega[hit] += 1
            hit = hit[(v // d) * d == v]
            squarefree[hit] = False

    for d in _WHEEL_PRIMES:
        divide_out(np.flatnonzero((m // d) * d == m), d)
    live = rough = np.flatnonzero(least == 0)  # 1 and the 7-rough k
    done = np.flatnonzero((least > 0) & (m > 1))  # the k with a 7-rough residue r > 1
    for d in range(11, math.isqrt(n) + 1, 2):
        if math.gcd(d, 210) == 1:
            live = live[m[live] >= d * d]
            v = m[live]
            divide_out(live[(v // d) * d == v], d)
    rough = rough[m[rough] > 1]
    omega[rough] += 1
    big_omega[rough] += 1
    least[rough] = np.where(least[rough] == 0, m[rough], least[rough])
    r = m[done] - 1
    omega[done] += omega[r]
    big_omega[done] += big_omega[r]
    squarefree[done] &= squarefree[r]
    return FactorCounts(omega, big_omega, squarefree, least)


def values_from_counts(kind: FunctionKind, counts: FactorCounts) -> np.ndarray:
    """Evaluate one kind at every n of a batch from its factorization counts.

    Mobius: 0 unless squarefree, else (-1)**omega.
    Liouville: (-1)**big_omega.
    Prime indicator: 1 iff big_omega == 1.
    Chebyshev psi term: log of the least prime where omega == 1 (a prime power).
    Chebyshev theta term: the same where big_omega == 1 (a prime).
    The logs are np.log of exact primes as float64, as in the sieve.
    """
    omega, big_omega, squarefree, least = counts
    if kind is FunctionKind.MOBIUS:
        return (1 - 2 * (omega & 1)) * squarefree
    if kind is FunctionKind.LIOUVILLE:
        return 1 - 2 * (big_omega & 1)
    if kind is FunctionKind.PRIME_INDICATOR:
        return (big_omega == 1).view(np.int8)
    if kind is FunctionKind.CHEBYSHEV_PSI_TERM:
        at = np.flatnonzero(omega == 1)
    elif kind is FunctionKind.CHEBYSHEV_THETA_TERM:
        at = np.flatnonzero(big_omega == 1)
    else:
        raise DomainError(f"unknown function kind {kind!r}")
    out = np.zeros(len(least), dtype=np.float64)
    out[at] = np.log(least[at].astype(np.float64))
    return out
