"""The segment kernels' sieve stage without the wheel, as a test reference.

plain_profile is factor_profile as it was before the wheel pre-sieve: every
base prime, 2, 3, 5 and 7 included, gets its own strided slice update. The
wheel must give the same profile, array for array, on every window.
"""

import numpy as np

from summatoria.kernels import FunctionKind


def plain_profile(lo: int, hi: int, kind: FunctionKind, *, primes) -> tuple[np.ndarray, ...]:
    """factor_profile(lo, hi, kind, primes=primes) by the plain strided loop."""
    n = hi - lo + 1
    if kind is FunctionKind.MOBIUS or kind is FunctionKind.LIOUVILLE:
        every_power = kind is FunctionKind.LIOUVILLE
        score = np.zeros(n, dtype=np.uint16)
        weights = 2 * np.floor(256 * np.log2(primes)).astype(np.int64) + 1
        for p, w in zip(primes.tolist(), weights.tolist()):
            pk = p
            while pk <= hi:
                view = score[(-lo) % pk :: pk]
                if pk > p and not every_power:
                    view |= 1 << 15
                    break
                view += w
                pk *= p
        return (score,)
    prime = np.ones(n, dtype=bool)
    if lo == 1:
        prime[0] = False
    for p in primes.tolist():
        prime[max(p * p, lo + (-lo) % p) - lo :: p] = False
    if kind is not FunctionKind.CHEBYSHEV_PSI_TERM:
        return (prime,)
    at, of = [], []
    for p in primes.tolist():
        pk = p * p
        while pk <= hi:
            if pk >= lo:
                at.append(pk - lo)
                of.append(p)
            pk *= p
    return prime, np.array(at, dtype=np.int64), np.array(of, dtype=np.int64)
