import dataclasses
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from momentlab.arith import is_admissible
from momentlab.characters import build_group
from momentlab.lfunctions import afe_triple_product
from momentlab.moments import (MomentQuery, brute_moment, c_ab,
                               divisor_route_moment, error_exponent, main_term,
                               residue_pair_matrix, sweep)


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
    F = residue_pair_matrix(delta_small, q, 1e-9)
    # entry check against a direct double loop over small residues
    from momentlab.arith import divisor_count_sieve
    from momentlab.lfunctions import triple_weight
    for sigma, parity_a in ((1, 0), (-1, 1)):
        assert np.allclose(F[sigma], F[sigma].T)
        V = triple_weight(delta_small, parity_a)
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
                direct += (delta_small.lam[m] * tau[n] + delta_small.lam[n] * tau[m]) * w
        assert F[sigma][u, v] == pytest.approx(direct, rel=1e-10)


@pytest.mark.parametrize("parity_a", [0, 1])
def test_matrix_matches_direct_sum_at_composite_modulus(delta_small, parity_a):
    # q = 12: the residues prime to q are sparse and the non-coprime rows and
    # columns must stay exactly zero
    from momentlab.arith import divisor_count
    from momentlab.lfunctions import triple_weight
    q = 12
    F = residue_pair_matrix(delta_small, q, 1e-9)[1 if parity_a == 0 else -1]
    V = triple_weight(delta_small, parity_a)
    X = int(math.ceil(V.cutoff(1e-9) * q * q))
    lam = delta_small.lam
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


def _residue_pair_loop(form, q, parity_a, v_tol):
    """The residue-pair matrix of one parity from the coprime integers c <= X:
    one gather and bincount per small c, first as the row coordinate and then,
    against the c > sqrt(X), as the column; kept as the reference for
    residue_pair_matrix."""
    from momentlab.arith import divisor_count_sieve
    from momentlab.lfunctions import triple_weight
    V = triple_weight(form, parity_a)
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
def test_matrix_matches_two_loop_reference(delta_mid, q):
    # primes, prime powers and composites: both parities from one call, each
    # against its own truncation X_sigma in the reference
    F = residue_pair_matrix(delta_mid, q, 1e-9)
    assert sorted(F) == [-1, 1]
    non_units = [u for u in range(q) if math.gcd(u, q) != 1]
    for sigma, parity_a in ((1, 0), (-1, 1)):
        want = _residue_pair_loop(delta_mid, q, parity_a, 1e-9)
        assert np.abs(F[sigma] - want).max() <= 1e-13 * np.abs(want).max()
        assert np.all(F[sigma][non_units] == 0.0) and np.all(F[sigma][:, non_units] == 0.0)


def test_one_sieve_per_modulus(delta_small, monkeypatch):
    # both parities share one divisor sieve, at the longer of their cutoffs
    from momentlab import arith, moments
    from momentlab.lfunctions import triple_weight
    limits = []

    def recording_sieve(limit):
        limits.append(limit)
        return arith.divisor_count_sieve(limit)

    arith.divisor_count_sieve.cache_clear()
    monkeypatch.setattr(moments, "divisor_count_sieve", recording_sieve)
    q = 13
    brute_moment(delta_small, MomentQuery(q), v_tol=1e-9)
    assert limits == [max(math.ceil(triple_weight(delta_small, a).cutoff(1e-9) * q * q)
                          for a in (0, 1))]
    assert arith.divisor_count_sieve.cache_info().misses == 1


def _afe_per_m_loop(group, index, form, v_tol=1e-12):
    """The triple-product AFE summed over m one at a time, each m against
    all n <= X / m at once; kept as the reference for afe_triple_product."""
    from momentlab.arith import divisor_count_sieve
    from momentlab.lfunctions import triple_weight
    q = group.modulus
    V = triple_weight(form, 0 if group.parity[index] == 1 else 1)
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
    # chi F conj(chi) of the residue-pair matrix against the per-m sum
    g = build_group(q)
    for idx in g.primitive_indices(parity=1):
        want = _afe_per_m_loop(g, idx, delta_small)
        assert abs(afe_triple_product(g, idx, delta_small) - want) <= 1e-12 * abs(want)


def test_brute_matches_per_character_afe(delta_small):
    # the quadratic-form evaluation equals the per-character AFE sum
    q = 5
    query = MomentQuery(q, 1, 2)
    rep = brute_moment(delta_small, query, v_tol=1e-9)
    g = build_group(q)
    from momentlab.arith import phi_star
    total = 0j
    for idx in g.primitive_indices(parity=1):
        chi = g.values[idx]
        total += chi[2] * np.conj(chi[1]) * _afe_per_m_loop(g, idx, delta_small, v_tol=1e-9)
    total /= phi_star(q)
    assert abs(rep.m_even - total) < 1e-8 * max(abs(total), 1.0)


@pytest.mark.parametrize("q,a,b", [(5, 1, 1), (7, 1, 2), (13, 3, 2), (9, 1, 1)])
def test_routes_agree(delta_small, q, a, b):
    query = MomentQuery(q, a, b)
    F = residue_pair_matrix(delta_small, q, 1e-9)
    r1 = brute_moment(delta_small, query, F_by_parity=F)
    r2 = divisor_route_moment(delta_small, query, F_by_parity=F)
    assert abs(r1.moment - r2.moment) < 1e-8 * max(abs(r1.moment), 1.0)
    assert abs(complex(r1.m_odd).real - complex(r2.m_odd).real) < 1e-8 * max(abs(r1.moment), 1.0)


def test_routes_report_the_same_chars_used(delta_small):
    # both count the primitive characters of the form's parity; the matrix
    # F does not enter the count, so zeros stand in for it
    for form in (delta_small, dataclasses.replace(delta_small, epsilon=-1)):
        for q in filter(is_admissible, range(3, 101)):
            F = {1: np.zeros((q, q)), -1: np.zeros((q, q))}
            query = MomentQuery(q, 1, 1)
            brute = brute_moment(form, query, F_by_parity=F).chars_used
            assert divisor_route_moment(form, query, F_by_parity=F).chars_used == brute


def test_moment_is_real(delta_small):
    rep = brute_moment(delta_small, MomentQuery(13, 2, 3), v_tol=1e-9)
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


def test_small_sweep(delta_mid, tmp_path):
    csvp = tmp_path / "sweep.csv"
    summary = sweep(delta_mid, 29, 45, out=str(csvp), v_tol=1e-8)
    assert summary.winner in ("theorem", "corollary")
    assert len(summary.rows) == sum(1 for q in range(29, 46)
                                    if q % 4 != 2 and q >= 3)
    text = csvp.read_text().splitlines()
    assert text[0].startswith("q,a,b,form")
    assert len(text) == len(summary.rows) + 1
    lines = (tmp_path / "sweep.csv.jsonl").read_text().splitlines()
    assert [json.loads(line)["q"] for line in lines] == [r.q for r in summary.rows]
