"""A scalar trial-division oracle, kept beside the tests as a second opinion.

The package's oracle is kernels.trial_division_counts, which factors every
k in [1, n] at once. This one factors one n at a time in plain Python ints,
so the tests can hold the two oracles to each other and check sieve windows
far above where the whole-array oracle reaches.
"""

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from summatoria.errors import DomainError
from summatoria.kernels import FactorCounts


@dataclass(frozen=True)
class Factorization:
    """Prime factorization of n as (prime, multiplicity) pairs, ascending.

    n = 1 is represented by the empty tuple.
    """

    n: int
    factors: tuple[tuple[int, int], ...]

    @property
    def big_omega(self) -> int:
        """Number of prime factors counted with multiplicity."""
        return sum(m for _, m in self.factors)

    @property
    def distinct(self) -> int:
        return len(self.factors)

    @property
    def is_squarefree(self) -> bool:
        return all(m == 1 for _, m in self.factors)


def factor_oracle(n: int) -> Factorization:
    """Trial-division factorization of one n, independent of the sieves.

    Deterministic; one n costs at most about sqrt(n)/3 trial divisions.
    """
    if n == 0:
        raise DomainError("0 has no prime factorization")
    if n < 0:
        raise DomainError(f"expected a positive integer, got {n}")
    factors: list[tuple[int, int]] = []
    m = n
    for p in (2, 3):
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        if e:
            factors.append((p, e))
    d = 5
    while d * d <= m:
        for p in (d, d + 2):
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            if e:
                factors.append((p, e))
        d += 6
    if m > 1:
        factors.append((m, 1))
    return Factorization(n, tuple(factors))


def counts_of(facts: Iterable[Factorization]) -> FactorCounts:
    """The FactorCounts of a batch of scalar factorizations, in the order given."""
    facts = list(facts)
    return FactorCounts(
        np.array([f.distinct for f in facts], dtype=np.int8),
        np.array([f.big_omega for f in facts], dtype=np.int8),
        np.array([f.is_squarefree for f in facts], dtype=bool),
        np.array([f.factors[0][0] if f.factors else 0 for f in facts], dtype=np.int64),
    )
