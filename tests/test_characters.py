import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentlab.arith import divisors, euler_phi, factorize, phi_star
from momentlab.characters import (_primitive_root_odd_prime_power, build_group,
                                  enumerated_orthogonality, gauss_eps, orthogonality_sum)


def test_group_sizes_and_parity_split():
    for q in (1, 3, 4, 5, 8, 9, 12, 24, 40, 45):
        g = build_group(q)
        assert g.n_chars == euler_phi(q)
        assert int(g.is_primitive.sum()) == phi_star(q)
        if q > 2:
            # even and odd characters split the group evenly
            assert int((g.parity == 1).sum()) == g.n_chars // 2


@given(st.integers(min_value=3, max_value=60))
@settings(max_examples=40, deadline=None)
def test_character_multiplicativity(q):
    g = build_group(q)
    rng = np.random.default_rng(q)
    units = [x for x in range(q) if math.gcd(x, q) == 1]
    for _ in range(5):
        i = rng.integers(0, g.n_chars)
        x, y = rng.choice(units, 2)
        lhs = g.chi(i, int(x) * int(y))
        rhs = g.chi(i, int(x)) * g.chi(i, int(y))
        assert abs(lhs - rhs) < 1e-12


def test_exact_exponent_storage_consistent():
    # the table gathers one exp per root of unity: the same bits as an exp
    # per entry, and 0 off the units
    for q in (*range(1, 65), 281, 283, 284, 1009):
        g = build_group(q)
        units = g.exponents[0] >= 0
        recon = np.exp(2j * np.pi * g.exponents[:, units] / g.group_exponent)
        assert np.array_equal(g.values[:, units], recon)
        assert not g.values[:, ~units].any()


def test_conductor_and_primitivity_mod_12():
    g = build_group(12)
    # mod 12: four characters with conductors 1, 3, 4, 12
    assert sorted(int(c) for c in g.conductor) == [1, 3, 4, 12]
    assert int(g.is_primitive.sum()) == 1


def test_character_tables_are_read_only():
    # build_group is cached: one caller's edit would reach every later caller
    g = build_group(12)
    for arr in (g.exponents, g.values, g.parity, g.conductor, g.is_primitive):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = arr[0]
    assert sorted(int(c) for c in build_group(12).conductor) == [1, 3, 4, 12]


def test_mod5_character_table():
    g = build_group(5)
    quad = [i for i in g.primitive_indices(parity=1)
            if np.allclose(g.values[i].imag, 0) and not np.allclose(g.values[i, 2], 1)]
    assert len(quad) == 1
    chi = g.values[quad[0]]
    assert np.allclose(chi[[1, 2, 3, 4]], [1, -1, -1, 1])


def test_gauss_sum_quadratic_mod5_is_one():
    g = build_group(5)
    for i in g.primitive_indices():
        gd = gauss_eps(g, i)
        assert abs(abs(gd.eps_chi) - 1) < 1e-12
        if np.allclose(g.values[i].imag, 0) and g.parity[i] == 1:
            # real even character mod 5: eps_chi = +1
            assert abs(gd.eps_chi - 1) < 1e-10


def test_gauss_rejects_imprimitive():
    g = build_group(12)
    bad = [i for i in range(g.n_chars) if not g.is_primitive[i]][0]
    with pytest.raises(ValueError):
        gauss_eps(g, bad)


@given(st.integers(min_value=3, max_value=60),
       st.integers(min_value=1, max_value=30),
       st.integers(min_value=1, max_value=30),
       st.sampled_from([1, -1]))
@settings(max_examples=120, deadline=None)
def test_orthogonality_formula(q, m, n, sigma):
    if q % 4 == 2 or math.gcd(m * n, q) != 1:
        return
    exact = orthogonality_sum(q, m, n, sigma)
    assert exact.denominator in (1, 2)
    enum = enumerated_orthogonality(q, m, n, sigma)
    assert abs(enum.imag) < 1e-9
    assert abs(enum.real - float(exact)) < 1e-9


def test_orthogonality_rejects_common_factor():
    with pytest.raises(ValueError):
        orthogonality_sum(15, 3, 1, 1)


def test_group_cache_keeps_the_last_group():
    build_group.cache_clear()
    g101 = build_group(101)
    info = build_group.cache_info()
    assert build_group(101) is g101   # a repeat is a hit on the same object
    assert build_group.cache_info().hits == info.hits + 1
    assert build_group.cache_info().misses == info.misses
    g103 = build_group(103)           # a second modulus replaces the first
    assert build_group.cache_info().currsize == 1
    assert build_group(103) is g103 and build_group(101) is not g101
    for arr in (g101.exponents, g101.values, g101.parity, g101.conductor, g101.is_primitive):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = arr[0]


def _crt_lift(res, pe, rest, q):
    """Residue mod q that is `res` mod pe and 1 mod rest."""
    if rest == 1:
        return res % q
    inv = pow(pe, -1, rest)
    return (res + pe * ((1 - res) * inv % rest)) % q


def _reference_dlogs(q, units):
    """The earlier per-unit construction, kept as the reference: generators
    lifted to residues mod q, with orders, and the discrete logs of every
    unit, one branch for 2^e (e >= 3) and one for the rest."""
    gens, dlogs = [], []
    for p, e in factorize(q).factors:
        pe = p**e
        rest = q // pe
        if p == 2 and e == 1:
            continue
        if p == 2 and e >= 3:
            sign_log = -np.ones(pe, dtype=np.int64)
            five_log = -np.ones(pe, dtype=np.int64)
            val = 1
            for t in range(2 ** (e - 2)):
                sign_log[val] = 0
                five_log[val] = t
                sign_log[pe - val] = 1
                five_log[pe - val] = t
                val = val * 5 % pe
            for g_res, order, log_tab in ((pe - 1, 2, sign_log), (5, 2 ** (e - 2), five_log)):
                gens.append((_crt_lift(g_res, pe, rest, q), order))
                dlogs.append(np.array([log_tab[x % pe] for x in units], dtype=np.int64))
        else:
            if p == 2:
                g_res, order = 3, 2
            else:
                g_res, order = _primitive_root_odd_prime_power(p, e), euler_phi(pe)
            log_tab = -np.ones(pe, dtype=np.int64)
            val = 1
            for t in range(order):
                log_tab[val] = t
                val = val * g_res % pe
            gens.append((_crt_lift(g_res, pe, rest, q), order))
            dlogs.append(np.array([log_tab[x % pe] for x in units], dtype=np.int64))
    return gens, dlogs


def _reference_conductor(q, units, expo):
    if q == 1:
        return 1
    for f in divisors(q):
        if all(expo[x] == 0 for x in units if x % f == 1 % f):
            return f
    return q


def _reference_tables(q):
    units = [x for x in range(q) if math.gcd(x, q) == 1] if q > 1 else [0]
    gens, dlogs = _reference_dlogs(q, units)
    orders = [order for _, order in gens]
    n_chars = math.prod(orders) if orders else 1
    group_exp = math.lcm(*orders) if orders else 1
    if orders:
        grids = np.indices(orders).reshape(len(orders), -1).T
        weights = np.array([group_exp // order for order in orders], dtype=np.int64)
        nums = (grids * weights) @ np.stack(dlogs) % group_exp
    else:
        grids = np.zeros((1, 0), dtype=np.int64)
        nums = np.zeros((1, len(units)), dtype=np.int64)
    exponents = -np.ones((n_chars, q), dtype=np.int64)
    exponents[:, units] = nums
    values = np.zeros(exponents.shape, dtype=np.complex128)
    values[:, units] = np.exp(2j * np.pi * nums / group_exp)
    minus_one = (q - 1) % q if q > 1 else 0
    parity = np.where(exponents[:, minus_one] == 0, 1, -1).astype(np.int8)
    conductor = np.array([_reference_conductor(q, units, exponents[i])
                          for i in range(n_chars)], dtype=np.int64)
    tables = dict(exponents=exponents, values=values, parity=parity,
                  conductor=conductor, is_primitive=conductor == q)
    return tables, gens, grids, group_exp


def test_tables_match_per_unit_construction():
    for q in [*range(1, 301), 1000, 1024, 1728, 2310]:
        ref, gens, grids, group_exp = _reference_tables(q)
        g = build_group(q)
        assert g.group_exponent == group_exp
        for name, want in ref.items():
            got = getattr(g, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), (q, name)
        # character i sends the j-th generator, lifted to 1 mod the other
        # prime powers, to e(grids[i, j] / order_j): the documented indexing
        for j, (g_lift, order) in enumerate(gens):
            assert np.array_equal(g.exponents[:, g_lift], grids[:, j] * (group_exp // order))
