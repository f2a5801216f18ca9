"""Exact integer arithmetic and multiplicative functions.

Everything here is computed from an explicit factorization, so a single
audited code path serves all multiplicative functions.  Inputs are desk
scale (a few thousand in practice); factorization is trial division on a
2, 3, 5 wheel up to sqrt(n), for n <= 10^12, which takes at most about
2.7 * 10^5 divisions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

_MAX_INPUT = 10**12


@dataclass(frozen=True)
class Factorization:
    """Factorization of a positive integer into sorted (prime, exponent) pairs."""

    value: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self):
        prod = 1
        last_p = 0
        for p, e in self.factors:
            if p <= last_p or e < 1:
                raise ValueError("factors must have strictly increasing primes, exponents >= 1")
            prod *= p**e
            last_p = p
        if prod != self.value:
            raise ValueError(f"factor product {prod} != value {self.value}")

    def divisors(self) -> list[int]:
        """All positive divisors, sorted."""
        divs = [1]
        for p, e in self.factors:
            divs = [d * p**j for d in divs for j in range(e + 1)]
        return sorted(divs)


@lru_cache(maxsize=65536)
def factorize(n: int) -> Factorization:
    """Exact factorization of 1 <= n <= 10^12 by trial division on a wheel."""
    if n < 1:
        raise ValueError(f"factorize requires n >= 1, got {n}")
    if n > _MAX_INPUT:
        raise OverflowError(f"factorize input {n} exceeds 10^12")
    value = n
    out: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    p = 7
    inc = (4, 2, 4, 2, 4, 6, 2, 6)
    i = 0
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += inc[i]
        i = (i + 1) % 8
    if n > 1:
        # no prime below p divides n and p * p > n, so n is prime
        out[n] = 1
    return Factorization(value, tuple(sorted(out.items())))


def moebius(n: int) -> int:
    f = factorize(n)
    if any(e > 1 for _, e in f.factors):
        return 0
    return -1 if len(f.factors) % 2 else 1


def euler_phi(n: int) -> int:
    result = 1
    for p, e in factorize(n).factors:
        result *= p ** (e - 1) * (p - 1)
    return result


def divisor_count(n: int) -> int:
    result = 1
    for _, e in factorize(n).factors:
        result *= e + 1
    return result


def divisors(n: int) -> list[int]:
    return factorize(n).divisors()


def phi_star(q: int) -> int:
    """Number of primitive characters mod q: sum_{d|q} mu(q/d) phi(d)."""
    if q < 1:
        raise ValueError("q must be positive")
    return sum(moebius(q // d) * euler_phi(d) for d in divisors(q))


def is_admissible(q: int) -> bool:
    """True iff primitive characters mod q exist, i.e. q != 2 (mod 4)."""
    if q < 1:
        raise ValueError("q must be positive")
    return q % 4 != 2


@lru_cache(maxsize=2)
def divisor_count_sieve(limit: int):
    """tau(n) for 1 <= n <= limit as a read-only int64 array (index 0 unused).

    Divisors are counted in pairs (d, n/d) with d <= sqrt(n): every multiple
    n >= d^2 of d gains two, and the square n = d^2 gives back the one it
    counted twice.  Only d <= sqrt(limit) is visited.  The residue-pair matrix
    builds one table per modulus, for both parities; the cache keeps the last
    two.
    """
    import numpy as np

    tau = np.zeros(limit + 1, dtype=np.int64)
    for d in range(1, math.isqrt(limit) + 1):
        tau[d * d::d] += 2
        tau[d * d] -= 1
    tau.flags.writeable = False
    return tau

