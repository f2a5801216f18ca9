import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentlab.arith import (Factorization, divisor_count, divisor_count_sieve,
                             divisors, euler_phi, factorize, is_admissible,
                             moebius, phi_star)


@given(st.integers(min_value=1, max_value=10**12))
@settings(max_examples=200, deadline=None)
def test_factorize_roundtrip(n):
    f = factorize(n)
    assert f.value == n
    assert math.prod(p**e for p, e in f.factors) == n
    for p, _ in f.factors:
        assert all(p % r != 0 for r in range(2, min(p, 1000)) if r * r <= p)


@pytest.mark.parametrize("n, factors", [
    (999983**2, ((999983, 2),)),
    (999983 * 999979, ((999979, 1), (999983, 1))),
    (2**39, ((2, 39),)),
    (10**12, ((2, 12), (5, 12))),
])
def test_factorize_exact_up_to_the_bound(n, factors):
    assert factorize(n).factors == factors


def test_factorize_rejects_input_past_the_bound():
    with pytest.raises(OverflowError, match=r"10\^12"):
        factorize(10**12 + 1)


def test_factorization_validation():
    with pytest.raises(ValueError):
        Factorization(6, ((3, 1), (2, 1)))   # primes out of order
    with pytest.raises(ValueError):
        Factorization(6, ((2, 1),))          # wrong product


@given(st.integers(min_value=1, max_value=5000), st.integers(min_value=1, max_value=5000))
@settings(max_examples=100, deadline=None)
def test_multiplicative_on_coprime(m, n):
    if math.gcd(m, n) != 1:
        return
    assert moebius(m * n) == moebius(m) * moebius(n)
    assert euler_phi(m * n) == euler_phi(m) * euler_phi(n)
    assert divisor_count(m * n) == divisor_count(m) * divisor_count(n)


def test_divisors_sorted_complete():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(1) == [1]


def test_phi_star_known_values():
    # number of primitive characters: phi*(1)=1, phi*(3)=1, phi*(4)=1,
    # phi*(5)=3, phi*(8)=2, phi*(9)=4; zero exactly at q = 2 (mod 4)
    assert [phi_star(q) for q in (1, 3, 4, 5, 8, 9)] == [1, 1, 1, 3, 2, 4]
    for q in (2, 6, 10, 14, 198):
        assert phi_star(q) == 0
        assert not is_admissible(q)
    for q in (1, 3, 4, 5, 7, 8, 9, 200):
        assert is_admissible(q)


def test_phi_star_equals_sum_over_conductors():
    # phi(q) = sum over d | q of phi*(d)
    for q in range(1, 120):
        assert euler_phi(q) == sum(phi_star(d) for d in divisors(q))


def test_sieves_match_pointwise():
    tau = divisor_count_sieve(2000)
    for n in (1, 2, 12, 97, 360, 1024, 1999):
        assert tau[n] == divisor_count(n)


def test_divisor_sieve_counts_divisor_pairs():
    tau = divisor_count_sieve(5000)
    assert [int(t) for t in tau[1:]] == [divisor_count(n) for n in range(1, 5001)]
    for limit in (0, 1, 2, 4, 9, 10_000):
        assert len(divisor_count_sieve(limit)) == limit + 1


def test_divisor_sieve_is_read_only():
    # the cached table is shared by every caller
    tau = divisor_count_sieve(100)
    with pytest.raises(ValueError):
        tau[12] = 0
    assert divisor_count_sieve(100)[12] == 6


def test_divisor_sieve_is_int16_up_to_its_limit():
    # tau(n) <= 26 880 < 2^15 for n <= 10^15; past that the limit is refused
    # before the table is allocated (2 PB here)
    tau = divisor_count_sieve(1000)
    assert tau.dtype == np.int16 and not tau.flags.writeable
    assert int(tau[840]) == 32
    with pytest.raises(ValueError, match="10\\^15"):
        divisor_count_sieve(10**15 + 1)
    assert divisor_count_sieve.cache_info().currsize == 1


def test_input_validation():
    with pytest.raises(ValueError):
        factorize(0)
    with pytest.raises(ValueError):
        phi_star(0)
