import cmath
import math
import re

import numpy as np
import pytest

from momentlab import expsums
from momentlab.arith import divisor_count
from momentlab.expsums import (ConvolutionQuery, aq_vanishing_certificate,
                               bilinear_incomplete, emn_brute, kloosterman,
                               kloosterman_cusp, shifted_conv_Aq, thmAq_bound,
                               thmAq_ratio, trivial_bounds, weil_certify)
from momentlab.special import interval_bump


def _kloosterman_brute(m, n, c):
    total = 0j
    for x in range(c):
        if math.gcd(x, c) != 1:
            continue
        xi = pow(x, -1, c)
        total += cmath.exp(2j * cmath.pi * (m * x + n * xi) / c)
    return total.real


def test_kloosterman_known_values():
    assert kloosterman(1, 1, 1) == 1.0
    assert kloosterman(1, 1, 2) == pytest.approx(1.0, abs=1e-12)
    assert kloosterman(1, 1, 3) == pytest.approx(-1.0, abs=1e-12)
    # Salie-type: S(1,1;5) = 2 cos(2 pi 2/5) + 2 cos(2 pi 3/5) exact check
    assert kloosterman(1, 1, 5) == pytest.approx(_kloosterman_brute(1, 1, 5), abs=1e-12)


def test_kloosterman_symmetry_and_brute():
    for (m, n, c) in [(2, 3, 7), (5, 1, 12), (4, 9, 25), (3, 3, 16)]:
        assert kloosterman(m, n, c) == pytest.approx(_kloosterman_brute(m, n, c), abs=1e-10)
        assert kloosterman(m, n, c) == pytest.approx(kloosterman(n, m, c), abs=1e-10)


def test_kloosterman_twisted_multiplicativity():
    # S(m, n; c1 c2) = S(m c2bar^2 ... ) form: use the standard identity
    # S(m, n; c1 c2) = S(m1, n; c1) S(m2, n; c2) with m1 = m * c2^{-2 mod c1} etc.
    m, n, c1, c2 = 3, 5, 7, 11
    lhs = kloosterman(m, n, c1 * c2)
    m1 = (m * pow(c2, -2, c1)) % c1
    m2 = (m * pow(c1, -2, c2)) % c2
    rhs = kloosterman(m1, n, c1) * kloosterman(m2, n, c2)
    assert lhs == pytest.approx(rhs, abs=1e-9)


def test_kloosterman_guards():
    with pytest.raises(ValueError):
        kloosterman(1, 1, 0)
    with pytest.raises(ValueError):
        kloosterman(1, 1, 2 * 10**6)


def test_cusp_sum_reduces_at_v_equal_one():
    # v = 1: prefactor trivial, plain S(m, n; u w)
    assert kloosterman_cusp(2, 3, 5, 1, 4) == pytest.approx(
        kloosterman(2, 3, 20), abs=1e-10)


def test_cusp_sum_modulus_invariance():
    # |cusp sum| = |S(m vbar, n; uw)| regardless of the prefactor phase
    val = kloosterman_cusp(2, 3, 5, 7, 4)
    vbar = pow(7, -1, 20)
    assert abs(val) == pytest.approx(abs(kloosterman((2 * vbar) % 20, 3, 20)), abs=1e-10)
    with pytest.raises(ValueError):
        kloosterman_cusp(1, 1, 7, 7, 2)


def _weil_loop(c_max, grid, dc):
    """Cell-by-cell Weil scan in (c, m, n) order with d(c) replaced by dc(c):
    ("violation", (m, n, c)) at the first violation, else
    (max_ratio, argmax, cells) with a strict > update."""
    best, arg, cells = 0.0, (0, 0, 0), 0
    for c in range(1, c_max + 1):
        x = np.arange(c)
        units = x[np.gcd(x, c) == 1]
        inv = np.array([pow(int(t), -1, c) for t in units], dtype=np.int64)
        for m in range(1, grid + 1):
            for n in range(1, grid + 1):
                s = 1.0 if c == 1 else float(
                    np.sum(np.exp(2j * np.pi * ((m * units + n * inv) % c) / c)).real)
                ratio = abs(s) / (dc(c) * math.sqrt(math.gcd(m, math.gcd(n, c)) * c))
                cells += 1
                if ratio > 1.0 + 1e-9:
                    return "violation", (m, n, c)
                if ratio > best:
                    best, arg = ratio, (m, n, c)
    return best, arg, cells


@pytest.mark.parametrize("c1_bound", [1, 10])
def test_weil_certify_matches_loop_definition(monkeypatch, c1_bound):
    # with d(1) inflated to 10 the maximum moves off the trivial cell c = 1
    def dc(c):
        return c1_bound if c == 1 else divisor_count(c)

    monkeypatch.setattr(expsums, "divisor_count", dc)
    rep = weil_certify(c_max=60, grid=8)
    assert (rep.max_ratio, rep.argmax, rep.cells) == _weil_loop(60, 8, dc)
    assert (rep.argmax[2] == 1) == (c1_bound == 1)


def test_weil_certify_reports_first_violation(monkeypatch):
    def dc(c):
        return 0.25 if c == 7 else divisor_count(c)

    kind, (m, n, c) = _weil_loop(60, 8, dc)
    assert kind == "violation" and c == 7
    monkeypatch.setattr(expsums, "divisor_count", dc)
    with pytest.raises(AssertionError, match=re.escape(f"S({m},{n};{c})")):
        weil_certify(c_max=60, grid=8)


def test_weil_certify_small():
    rep = weil_certify(c_max=60, grid=8)
    assert 0 < rep.max_ratio <= 1.0
    assert rep.cells == 60 * 64
    with pytest.raises(ValueError):
        weil_certify(c_max=501)


def test_aq_vanishing(delta_small):
    # windows supported in [M, 2M], [N, 2N] with 2M, 2N < q/2
    q = 101
    query = ConvolutionQuery(1, 1, 10.0, 10.0, q,
                             window=interval_bump(1.0))
    assert aq_vanishing_certificate(query)
    assert shifted_conv_Aq(query, delta_small) == 0.0


def test_aq_q1_matches_full_rectangle(delta_small):
    # q = 1: every pair with bm != an enters twice (once per sign) in the
    # congruence enumeration, since +an and -an hit the same residue class 0.
    from momentlab.arith import divisor_count_sieve
    from momentlab.special import standard_window
    W = standard_window()
    M = N = 30.0
    query = ConvolutionQuery(1, 1, M, N, 1)
    got = shifted_conv_Aq(query, delta_small)
    tau = divisor_count_sieve(200)
    expect = 0.0
    for m in range(1, 100):
        for n in range(1, 100):
            if m == n:
                continue
            expect += 2 * float(delta_small.lam[m]) * tau[n] * float(W(m / M)) * float(W(n / N))
    assert got == pytest.approx(expect, rel=1e-10)


def test_aq_bound_and_ratio_finite(delta_small):
    query = ConvolutionQuery(1, 2, 120.0, 60.0, 101)
    bound = thmAq_bound(query)
    assert bound > 0
    r = thmAq_ratio(query, delta_small)
    assert math.isfinite(r) and r >= 0


def test_aq_budget_guard(delta_small):
    query = ConvolutionQuery(1, 1, 1e7, 1e7, 3)
    with pytest.raises(ValueError):
        shifted_conv_Aq(query, delta_small, budget=10**4)


def test_emn_brute_within_trivial_bounds(delta_small):
    for q in (17, 35):
        val = emn_brute(40.0, 20.0, 1, 1, q, delta_small)
        bA, bB = trivial_bounds(40.0, 20.0, 1, 1, q)
        assert abs(val) <= min(bA, bB)


def test_emn_diagonal_excluded(delta_small):
    # with a = b and M = N, the diagonal m = n is explicitly removed;
    # sanity: the d = 1 term alone would otherwise dominate
    val = emn_brute(25.0, 25.0, 1, 1, 9, delta_small)
    assert math.isfinite(val)


def test_bilinear_incomplete_single_a():
    # one a-coefficient, nonnegative alpha: value = |incomplete Kloosterman|
    q, c, B = 23, 1, 15
    beta = np.ones(B)
    val, ratio = bilinear_incomplete([1.0], beta, c, q)
    direct = abs(sum(cmath.exp(2j * cmath.pi * pow(b, -1, q) / q)
                     for b in range(1, B + 1) if math.gcd(b, q) == 1))
    assert val == pytest.approx(direct, abs=1e-10)
    assert 0 <= ratio <= 1.0   # bound comfortably holds here


def test_bilinear_guards():
    with pytest.raises(ValueError):
        bilinear_incomplete([1.0], [1.0], 5, 10)     # (c, q) != 1
    with pytest.raises(ValueError):
        bilinear_incomplete(np.ones(2 * 10**4), [1.0], 1, 7)
