import math
from collections import OrderedDict
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentlab.arith import euler_phi, phi_star
from momentlab import characters
from momentlab.characters import (build_group, enumerated_orthogonality,
                                  gauss_eps, orthogonality_sum)


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
    g = build_group(36)
    units = np.nonzero(g.exponents[0] >= 0)[0]
    recon = np.exp(2j * np.pi * g.exponents[:, units] / g.group_exponent)
    assert np.max(np.abs(recon - g.values[:, units])) < 1e-12


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


def test_group_cache_is_bounded_by_bytes(monkeypatch):
    monkeypatch.setattr(characters, "_GROUPS", OrderedDict())
    # the sweep's three largest moduli stay cached under the default bound
    top = [build_group(q) for q in (281, 283, 284)]
    misses = build_group.cache_info().misses
    assert all(build_group(q) is g for q, g in zip((281, 283, 284), top))
    assert build_group.cache_info().misses == misses
    assert build_group.cache_info().nbytes == sum(g.nbytes for g in top)

    monkeypatch.setattr(characters, "_GROUPS", OrderedDict())
    g103, g101 = build_group(103), build_group(101)
    bound = g103.nbytes + g101.nbytes
    monkeypatch.setattr(characters, "_GROUP_CACHE_BYTES", bound)
    assert build_group(103) is g103  # a hit: 103 becomes the most recent
    build_group(97)                  # over the bound: drops 101, the least recent
    assert list(characters._GROUPS) == [103, 97]
    assert build_group.cache_info().nbytes <= bound
    monkeypatch.setattr(characters, "_GROUP_CACHE_BYTES", 1)
    big = build_group(109)           # alone over the bound, but kept
    assert list(characters._GROUPS) == [109]
    assert build_group(109) is big
