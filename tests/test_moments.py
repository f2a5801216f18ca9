import dataclasses
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from momentlab import moments
from momentlab.arith import is_admissible, phi_star
from momentlab.characters import build_group
from momentlab.eigenforms import EigenformData
from momentlab.lfunctions import (afe_length, afe_triple_product, moment_table_length,
                                  triple_weight)
from momentlab.moments import (MomentQuery, brute_moment, c_ab,
                               divisor_route_moment, error_exponent, main_term,
                               residue_pair_matrix, sweep)


def _weight_18(form):
    """form's lambda(n) under weight 18, whose root number (-1)^9 = -1 makes
    the moment average the odd characters; the matrix and both routes read
    nothing of a form but lambda and k."""
    return dataclasses.replace(form, weight=18, tau_exact=None)


def test_query_validation():
    MomentQuery(5, 1, 1)
    with pytest.raises(ValueError):
        MomentQuery(2)
    with pytest.raises(ValueError):
        MomentQuery(6)           # 2 mod 4
    with pytest.raises(ValueError):
        MomentQuery(15, 3, 1)    # (ab, q) != 1
    with pytest.raises(ValueError):
        MomentQuery(5, 0, 1)


def test_matrix_is_symmetric_and_matches_direct_sum(delta_small):
    q = 5
    # entry check against a direct double loop over small residues, at the
    # weight of each parity
    from momentlab.arith import divisor_count_sieve
    for form in (delta_small, _weight_18(delta_small)):
        F = residue_pair_matrix(form, q, 1e-9)
        assert np.allclose(F, F.T)
        V = triple_weight(form)
        X = int(math.ceil(V.cutoff(1e-9) * q * q))
        tau = divisor_count_sieve(X)
        direct = 0.0
        u, v = 1, 2
        for m in range(1, X + 1):
            if m % q != u or math.gcd(m, q) != 1:
                continue
            for n in range(1, X // m + 1):
                if n % q != v or math.gcd(n, q) != 1:
                    continue
                w = V(m * n / (q * q)) / math.sqrt(m * n)
                direct += (form.lam[m] * tau[n] + form.lam[n] * tau[m]) * w
        assert F[u, v] == pytest.approx(direct, rel=1e-10)


@pytest.mark.parametrize("a", [0, 1])
def test_matrix_matches_direct_sum_at_composite_modulus(delta_small, a):
    # q = 12: the residues prime to q are sparse and the non-coprime rows and
    # columns must stay exactly zero; parity exponent a at weight 12 + 6a
    from momentlab.arith import divisor_count
    q = 12
    form = dataclasses.replace(delta_small, weight=12 + 6 * a, tau_exact=None)
    F = residue_pair_matrix(form, q, 1e-9)
    V = triple_weight(form)
    X = int(math.ceil(V.cutoff(1e-9) * q * q))
    lam = form.lam
    direct = np.zeros((q, q))
    for m in range(1, X + 1):
        if math.gcd(m, q) != 1:
            continue
        for n in range(1, X // m + 1):
            if math.gcd(n, q) != 1:
                continue
            w = V(m * n / (q * q)) / math.sqrt(m * n)
            direct[m % q, n % q] += (lam[m] * divisor_count(n) + lam[n] * divisor_count(m)) * w
    non_units = [u for u in range(q) if math.gcd(u, q) != 1]
    assert np.all(F[non_units] == 0.0) and np.all(F[:, non_units] == 0.0)
    assert np.allclose(F, direct, rtol=1e-10, atol=1e-12 * np.abs(direct).max())


def _residue_pair_loop(form, q, v_tol):
    """The residue-pair matrix from the coprime integers c <= X: one gather
    and bincount per small c, first as the row coordinate and then, against
    the c > sqrt(X), as the column; kept as the reference for
    residue_pair_matrix."""
    from momentlab.arith import divisor_count_sieve
    V = triple_weight(form)
    X = int(math.ceil(V.cutoff(v_tol) * q * q))
    tau = divisor_count_sieve(X)
    ns = np.arange(X + 1, dtype=np.float64)
    Vk = np.zeros(X + 1)
    Vk[1:] = V(ns[1:] / (q * q))
    inv_sqrt = np.zeros(X + 1)
    inv_sqrt[1:] = 1.0 / np.sqrt(ns[1:])
    c = 1 + np.flatnonzero(np.gcd(np.arange(1, X + 1), q) == 1)
    c_res = c % q
    c_tau = tau[c].astype(np.float64)
    c_lam = form.lam[c]
    c_inv = inv_sqrt[c]
    # T1[u, v] = sum over ordered pairs (m, n), mn <= X of lambda(m) tau(n) w
    T1 = np.zeros((q, q))
    n_small = int(np.searchsorted(c, math.isqrt(X), side="right"))
    ends = np.searchsorted(c, X // c[:n_small], side="right")   # c[:ends[i]] pair with c[i]
    for i in range(n_small):                     # first coordinate small
        j = ends[i]
        w = Vk[c[i] * c[:j]] * (c_inv[i] * c_inv[:j])
        T1[c_res[i]] += np.bincount(c_res[:j], weights=c_lam[i] * c_tau[:j] * w, minlength=q)
    for i in np.flatnonzero(ends > n_small):     # first coordinate large
        j = ends[i]
        w = Vk[c[n_small:j] * c[i]] * (c_inv[i] * c_inv[n_small:j])
        T1[:, c_res[i]] += np.bincount(c_res[n_small:j],
                                       weights=c_lam[n_small:j] * c_tau[i] * w, minlength=q)
    return T1 + T1.T


@pytest.mark.parametrize("q", [31, 97, 9, 25, 27, 12, 15, 20, 100])
def test_matrix_matches_two_loop_reference(delta_mid, q, monkeypatch):
    # primes, prime powers and composites, at the weight of each parity; then
    # with chunks of q entries, so that every row, down to its shortest of
    # about sqrt(X) > 2q entries, spans several chunks
    non_units = [u for u in range(q) if math.gcd(u, q) != 1]
    for form in (delta_mid, _weight_18(delta_mid)):
        want = _residue_pair_loop(form, q, 1e-9)
        for chunk in (moments._CHUNK, q):
            monkeypatch.setattr(moments, "_CHUNK", chunk)
            F = residue_pair_matrix(form, q, 1e-9)
            assert np.abs(F - want).max() <= 1e-13 * np.abs(want).max()
            assert np.all(F[non_units] == 0.0) and np.all(F[:, non_units] == 0.0)


def test_matrix_peak_memory_is_about_two_length_x_arrays(delta_mid):
    # V and the 16-bit sieve (a quarter of an array) are the only arrays of
    # length X; the chunks, G and F add well under one more
    import tracemalloc

    from momentlab import arith
    q, v_tol = 283, 1e-8
    X = afe_length(12, q, v_tol)
    arith.divisor_count_sieve.cache_clear()
    tracemalloc.start()
    try:
        residue_pair_matrix(delta_mid, q, v_tol)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 8 * (X + 1)


@pytest.mark.parametrize("q", [9, 12, 16, 21, 25, 284])
def test_brute_moment_matches_per_character_quadratic_form(delta_mid, q):
    # the ratio-class sums T against chi F chi^* formed per character over
    # group.values, for the forms of both parities and a shifted (a, b)
    group = build_group(q)
    pstar = phi_star(q)
    for form in (delta_mid, _weight_18(delta_mid)):
        F = residue_pair_matrix(form, q, 1e-8)
        idx = group.primitive_indices(parity=form.epsilon)
        vals = [group.values[i] @ F @ np.conj(group.values[i]) for i in idx]
        for a, b in ((1, 1), (1, 11)):
            rep = brute_moment(form, MomentQuery(q, a, b), F)
            want = sum(group.values[i, b % q] * np.conj(group.values[i, a % q]) * v
                       for i, v in zip(idx, vals)) / pstar
            got = complex(rep.moment, rep.moment_im)
            assert abs(got - want) <= 1e-12 * sum(abs(v) for v in vals) / pstar
            assert rep.chars_used == len(idx)


def test_sweep_does_not_import_numpy_ma():
    # np.median imports numpy.ma on first use, about 12 ms of a fresh process
    code = ("import sys\n"
            "from momentlab.eigenforms import delta_coefficients\n"
            "from momentlab.moments import sweep\n"
            "sweep(delta_coefficients(750_000), 12, 13, v_tol=1e-8)\n"
            "print('numpy.ma' in sys.modules)\n")
    src = str(Path(moments.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_one_sieve_per_modulus(delta_small, monkeypatch):
    # one divisor sieve, at the AFE length of the form's parity
    from momentlab import arith
    limits = []

    def recording_sieve(limit):
        limits.append(limit)
        return arith.divisor_count_sieve(limit)

    arith.divisor_count_sieve.cache_clear()
    monkeypatch.setattr(moments, "divisor_count_sieve", recording_sieve)
    q = 13
    brute_moment(delta_small, MomentQuery(q), residue_pair_matrix(delta_small, q, 1e-9))
    assert limits == [afe_length(12, q, 1e-9)]
    assert arith.divisor_count_sieve.cache_info().misses == 1


def test_sweep_keeps_one_sieve_table(delta_mid):
    # each modulus builds its own table; the previous one is not kept alive
    from momentlab import arith
    arith.divisor_count_sieve.cache_clear()
    sweep(delta_mid, 12, 13, v_tol=1e-8)
    info = arith.divisor_count_sieve.cache_info()
    assert (info.misses, info.currsize) == (2, 1)


def _afe_per_m_loop(group, index, form, v_tol=1e-12):
    """The triple-product AFE summed over m one at a time, each m against
    all n <= X / m at once; kept as the reference for afe_triple_product."""
    from momentlab.arith import divisor_count_sieve
    q = group.modulus
    assert group.parity[index] == form.epsilon
    V = triple_weight(form)
    X = int(math.ceil(V.cutoff(v_tol) * q * q))
    tau = divisor_count_sieve(X)
    ns = np.arange(X + 1, dtype=np.float64)
    inv_sqrt = np.zeros(X + 1)
    inv_sqrt[1:] = 1.0 / np.sqrt(ns[1:])
    chi_of = group.values[index][np.arange(X + 1) % q]
    # V(mn / q^2) depends only on k = mn <= X: Vk[k - 1] = V(k / q^2)
    Vk = V(ns[1:] / (q * q))
    total = 0j
    for m in range(1, X + 1):
        cm = chi_of[m]
        if cm == 0:
            continue
        n_hi = X // m
        n_idx = np.arange(1, n_hi + 1)
        weights = Vk[m - 1::m] * inv_sqrt[1:n_hi + 1] * inv_sqrt[m]
        lam_m_tau_n = form.lam[m] * tau[1:n_hi + 1]
        tau_m_lam_n = tau[m] * form.lam[1:n_hi + 1]
        inner = np.sum((lam_m_tau_n + tau_m_lam_n) * weights * np.conj(chi_of[n_idx]))
        total += cm * inner
    return complex(total)


@pytest.mark.parametrize("q", [5, 7, 12, 13, 16])
def test_afe_matches_per_m_loop(delta_small, q):
    # chi F conj(chi) of the residue-pair matrix against the per-m sum, at
    # the characters of each form's parity
    g = build_group(q)
    for form in (delta_small, _weight_18(delta_small)):
        indices = g.primitive_indices(parity=form.epsilon)
        for idx, got in zip(indices, afe_triple_product(g, indices, form)):
            want = _afe_per_m_loop(g, idx, form)
            assert abs(got - want) <= 1e-12 * abs(want)


def test_afe_matches_per_character_quadratic_form_at_a_sweep_modulus(delta_mid):
    # all 140 even primitive chi mod 283, X = 648 495: the ratio classes
    # against chi F conj(chi) formed per character.  One value is 4.1e-6,
    # so the error is bounded by the largest value, not by each one's own
    q = 283
    assert afe_length(12, q, 1e-12) == 648_495
    g = build_group(q)
    even = g.primitive_indices(parity=1)
    got = afe_triple_product(g, even, delta_mid)
    F = residue_pair_matrix(delta_mid, q, 1e-12)
    want = [g.values[i] @ F @ np.conj(g.values[i]) for i in even]
    assert len(got) == 140
    assert np.abs(np.subtract(got, want)).max() <= 1e-12 * np.abs(want).max()


def test_brute_matches_per_character_afe(delta_small):
    # the quadratic-form evaluation equals the per-character AFE sum
    q = 5
    query = MomentQuery(q, 1, 2)
    rep = brute_moment(delta_small, query, residue_pair_matrix(delta_small, q, 1e-9))
    g = build_group(q)
    from momentlab.arith import phi_star
    total = 0j
    for idx in g.primitive_indices(parity=1):
        chi = g.values[idx]
        total += chi[2] * np.conj(chi[1]) * _afe_per_m_loop(g, idx, delta_small, v_tol=1e-9)
    total /= phi_star(q)
    assert abs(complex(rep.moment, rep.moment_im) - total) < 1e-8 * max(abs(total), 1.0)


@pytest.mark.parametrize("q,a,b", [(5, 1, 1), (7, 1, 2), (13, 3, 2), (9, 1, 1)])
def test_routes_agree(delta_small, q, a, b):
    query = MomentQuery(q, a, b)
    for form in (delta_small, _weight_18(delta_small)):
        F = residue_pair_matrix(form, q, 1e-9)
        r1 = brute_moment(form, query, F)
        r2 = divisor_route_moment(form, query, F)
        assert abs(r1.moment - r2.moment) < 1e-8 * max(abs(r1.moment), 1.0)


def test_routes_report_the_same_chars_used(delta_small):
    # both count the primitive characters of the form's parity; the matrix
    # F does not enter the count, so zeros stand in for it.  The weight
    # picks the parity: epsilon = (-1)^(k/2) is -1 at k = 18
    for form in (delta_small, _weight_18(delta_small)):
        for q in filter(is_admissible, range(3, 101)):
            F = np.zeros((q, q))
            query = MomentQuery(q, 1, 1)
            brute = brute_moment(form, query, F).chars_used
            assert divisor_route_moment(form, query, F).chars_used == brute


@pytest.mark.parametrize("size", [17, 11])
def test_routes_reject_a_matrix_of_another_modulus(delta_small, size):
    # both routes reject an F of another modulus, which they would otherwise
    # read without error if larger, or fail on by index or broadcast if smaller
    F = residue_pair_matrix(delta_small, size, 1e-9)
    for route in (brute_moment, divisor_route_moment):
        with pytest.raises(ValueError, match=rf"shape \({size}, {size}\) .* q = 13$"):
            route(delta_small, MomentQuery(13), F)


def test_moment_is_real(delta_small):
    F = residue_pair_matrix(delta_small, 13, 1e-9)
    rep = brute_moment(delta_small, MomentQuery(13, 2, 3), F)
    assert isinstance(rep.moment, float)


def test_c_ab_trivial_and_shift_symmetry(delta_small):
    val, tail = c_ab(delta_small, 1, 1)
    assert val == pytest.approx(1.0, abs=1e-10)
    assert tail < 1e-10
    v23, t1 = c_ab(delta_small, 2, 3)
    assert t1 < 1e-8
    # independent oracle: the sum splits as a product of two local series,
    # evaluated here directly from the Hecke recursion at p = 2 and 3
    def lam_pow(lam_p, k):
        lo, hi = 1.0, lam_p
        for _ in range(k):
            lo, hi = hi, lam_p * hi - lo
        return lo
    lam2, lam3 = float(delta_small.lam[2]), float(delta_small.lam[3])
    s2 = sum(lam_pow(lam2, 1 + e) * (e + 1) / 2**e for e in range(200))
    s3 = sum(lam_pow(lam3, e) * (e + 2) / 3**e for e in range(200))
    assert v23 == pytest.approx(s2 * s3, rel=1e-10)


def test_main_term_normalizations(delta_mid):
    mt = main_term(delta_mid, MomentQuery(101, 1, 1))
    assert mt.value_corollary == pytest.approx(2 * mt.value_theorem, rel=1e-14)
    assert mt.shift_factor == pytest.approx(2.0, abs=1e-9)   # c_{1,1} = 1 twice
    assert mt.value_theorem > 0


def test_error_exponent_exact_values():
    b = error_exponent(Fraction(0), Fraction(0), Fraction(0))
    assert b.eta == Fraction(1, 22)
    assert b.balanced == Fraction(1, 20)
    b2 = error_exponent(Fraction(7, 64), Fraction(0), Fraction(0))
    assert b2.eta == Fraction(5, 152)
    with pytest.raises(ValueError):
        error_exponent(Fraction(1, 2))
    with pytest.raises(ValueError):
        error_exponent(Fraction(0), Fraction(-1, 10))


def test_small_sweep(delta_mid):
    seen = []
    summary = sweep(delta_mid, 29, 45, v_tol=1e-8, progress=seen.append)
    assert summary.winner in ("theorem", "corollary")
    assert len(summary.rows) == sum(1 for q in range(29, 46)
                                    if q % 4 != 2 and q >= 3)
    assert seen == summary.rows


def test_afe_length_is_the_cutoff_of_the_forms_parity():
    # X of Delta's own (even) parity at sweep-top's largest modulus and tolerance
    assert afe_length(12, 284, 1e-8) == 327_319


def test_moment_table_length_is_the_prefix_the_moment_needs(delta_mid):
    # at q = 284 and tol 1e-10 the AFE, not L(1, f)'s 450 000 terms, sets the
    # length; one entry short of it is an IndexError naming the length, not a
    # silently truncated sum
    n = moment_table_length(12, 284, 1e-10)
    assert n == afe_length(12, 284, 1e-10) == 480_438
    query = MomentQuery(284)
    exact = EigenformData(12, 0.0, delta_mid.lam[:n + 1], label="delta")
    assert brute_moment(exact, query, residue_pair_matrix(exact, 284, 1e-10)).moment == \
        brute_moment(delta_mid, query, residue_pair_matrix(delta_mid, 284, 1e-10)).moment
    short = EigenformData(12, 0.0, delta_mid.lam[:n], label="delta")
    with pytest.raises(IndexError, match="needs lambda up to 480438$"):
        residue_pair_matrix(short, 284, 1e-10)
