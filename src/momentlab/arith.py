"""Exact integer arithmetic and multiplicative functions.

Everything here is computed from an explicit factorization, so a single
audited code path serves all multiplicative functions.  Inputs are desk
scale (a few thousand in practice) but factorization is happy up to 2^63
thanks to Miller-Rabin + Pollard rho behind the trial-division wheel.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import lru_cache

_MAX_INPUT = 2**63


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

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    def divisors(self) -> list[int]:
        """All positive divisors, sorted."""
        divs = [1]
        for p, e in self.factors:
            divs = [d * p**j for d in divs for j in range(e + 1)]
        return sorted(divs)


def _is_probable_prime(n: int) -> bool:
    # deterministic Miller-Rabin for n < 3.3 * 10^24 with this witness set
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    if n % 2 == 0:
        return 2
    rng = random.Random(n)
    while True:
        c = rng.randrange(1, n)
        x = y = rng.randrange(2, n)
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d


def _factor_into(n: int, out: dict[int, int]) -> None:
    if n == 1:
        return
    if _is_probable_prime(n):
        out[n] = out.get(n, 0) + 1
        return
    d = _pollard_rho(n)
    _factor_into(d, out)
    _factor_into(n // d, out)


@lru_cache(maxsize=65536)
def factorize(n: int) -> Factorization:
    """Exact factorization of n >= 1, deterministic for a given n."""
    if n < 1:
        raise ValueError(f"factorize requires n >= 1, got {n}")
    if n > _MAX_INPUT:
        raise OverflowError(f"factorize input {n} exceeds 2^63")
    value = n
    out: dict[int, int] = {}
    # wheel over small primes first; Pollard rho mops up the cofactor
    for p in (2, 3, 5):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    p = 7
    inc = (4, 2, 4, 2, 4, 6, 2, 6)
    i = 0
    while p * p <= n and p < 10**6:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += inc[i]
        i = (i + 1) % 8
    _factor_into(n, out)
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
    counted twice.  Only d <= sqrt(limit) is visited.  The cache holds one
    table per parity of the moment sweep.
    """
    import numpy as np

    tau = np.zeros(limit + 1, dtype=np.int64)
    for d in range(1, math.isqrt(limit) + 1):
        tau[d * d::d] += 2
        tau[d * d] -= 1
    tau.flags.writeable = False
    return tau

