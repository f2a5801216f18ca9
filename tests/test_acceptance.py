"""End-to-end acceptance suite.

Each test states its runtime budget and asserts it; the budgets are generous
on a typical desktop, so a failure indicates a performance regression, not
machine noise.
"""

import dataclasses
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from momentlab.arith import is_admissible
from momentlab.characters import build_group, orthogonality_sum
from momentlab.eigenforms import (coprime_removal_exact_delta,
                                  coprime_removal_exact_tau,
                                  delta_coefficients, hecke_violations,
                                  ramanujan_tau_exact)
from momentlab.expsums import (ConvolutionQuery, aq_grid_report,
                               aq_vanishing_certificate, shifted_conv_Aq,
                               weil_certify)
from momentlab.lfunctions import (afe_triple_product, conjugate_index,
                                  dirichlet_L_half, twisted_L_half)
from momentlab.moments import (MomentQuery, brute_moment,
                               divisor_route_moment, error_exponent,
                               residue_pair_matrix, sweep)
from momentlab.special import interval_bump
from momentlab.voronoi import VoronoiCase, voronoi_check


def test_acceptance_1_orthogonality():
    """Divisor-sum formula == enumerated character sum, q <= 60, m,n <= 30."""
    t0 = time.time()
    worst = 0.0
    for q in range(3, 61):
        if not is_admissible(q):
            continue
        g = build_group(q)
        mn = [x for x in range(1, 31) if math.gcd(x, q) == 1]
        for sigma in (1, -1):
            idx = g.primitive_indices(parity=sigma)
            C = g.values[idx]
            # E[m_i, n_j] = sum over primitive chi of parity sigma
            E = np.einsum("im,in->mn", C[:, np.array(mn) % q],
                          np.conj(C[:, np.array(mn) % q]))
            for i, m in enumerate(mn):
                for j, n in enumerate(mn):
                    exact = float(orthogonality_sum(q, m, n, sigma))
                    worst = max(worst, abs(E[i, j] - exact))
    assert worst <= 1e-9
    assert time.time() - t0 < 10.0


def test_acceptance_2_hecke_and_deligne_exact():
    """Exact multiplicativity for mn <= 1e4; exact Deligne bound n <= 1e4."""
    t0 = time.time()
    n = 10**4
    form = delta_coefficients(n)
    assert hecke_violations(form, n) == 0
    tau = ramanujan_tau_exact(n)
    for m in range(1, n + 1):
        # |tau(m)| <= d(m) m^{11/2}, squared to stay in integers
        d = 1
        mm = m
        p = 2
        while p * p <= mm:
            e = 0
            while mm % p == 0:
                mm //= p
                e += 1
            d *= e + 1
            p += 1
        if mm > 1:
            d *= 2
        assert tau[m - 1] ** 2 <= d * d * m**11
    assert time.time() - t0 < 30.0


def test_acceptance_3_weil_certification():
    t0 = time.time()
    rep = weil_certify(c_max=500, grid=20)
    assert rep.cells == 500 * 400
    assert rep.max_ratio <= 1.0 + 1e-9
    assert time.time() - t0 < 0.5


def test_acceptance_4_afe_cross_route(delta_small):
    """Triple-product AFE vs independent oracle product, every even
    primitive character mod 5, 7, 13."""
    t0 = time.time()
    worst = 0.0
    for q in (5, 7, 13):
        g = build_group(q)
        even = g.primitive_indices(parity=1)
        for idx, lhs in zip(even, afe_triple_product(g, even, delta_small)):
            rhs = twisted_L_half(g, idx, delta_small) * \
                dirichlet_L_half(g, conjugate_index(g, idx)) ** 2
            worst = max(worst, abs(lhs - rhs) / abs(lhs))
    assert worst <= 1e-9
    assert time.time() - t0 < 10.0


def test_acceptance_5_voronoi_grid(delta_large):
    """Residual <= 1e-6 for every d <= 5, unit b mod d, q in {1,2,3,6},
    X in {10,20,40}."""
    t0 = time.time()
    worst = 0.0
    cells = 0
    for d in range(1, 6):
        for b in range(1, d + 1):
            if math.gcd(b, d) != 1 or b > max(d - 1, 1):
                continue
            for q in (1, 2, 3, 6):
                for X in (10.0, 20.0, 40.0):
                    resid = voronoi_check(VoronoiCase(b, d, q, X, delta_large))
                    worst = max(worst, resid)
                    cells += 1
    assert cells == (1 + 1 + 2 + 2 + 4) * 4 * 3
    assert worst <= 1e-6
    assert time.time() - t0 < 5.0


def test_acceptance_6_coprime_removal_exact():
    """Residual exactly zero in integer arithmetic, q <= 200, support 1e3."""
    t0 = time.time()
    for q in range(1, 201):
        assert coprime_removal_exact_delta(q, 1000) == 0
        assert coprime_removal_exact_tau(q, 1000) == 0
    assert time.time() - t0 < 5.0


def test_acceptance_7_moment_realness_and_route_agreement(delta_mid):
    """Brute route real to 1e-8 relative (asserted inside brute_moment) and
    equal to the divisor route to 1e-6 relative, q <= 100, a,b in {1,2,3},
    for Delta (even characters) and for its lambda(n) at weight 18, whose
    root number -1 selects the odd characters; the routes read only lambda
    and k."""
    t0 = time.time()
    for form in (delta_mid, dataclasses.replace(delta_mid, weight=18, tau_exact=None)):
        for q in range(3, 101):
            if not is_admissible(q):
                continue
            F = residue_pair_matrix(form, q, 1e-9)
            for a in (1, 2, 3):
                for b in (1, 2, 3):
                    if math.gcd(a * b, q) != 1:
                        continue
                    query = MomentQuery(q, a, b)
                    r1 = brute_moment(form, query, F)
                    r2 = divisor_route_moment(form, query, F)
                    scale = max(abs(r1.moment), 1e-3)
                    assert abs(r1.moment - r2.moment) <= 1e-6 * scale
    assert time.time() - t0 < 20.0


def test_acceptance_8_main_term_trend(delta_mid):
    """Sweep q in [30, 300], a = b = 1: the adjudicated normalization's
    |ratio - 1| median improves from the bottom third to the top third."""
    t0 = time.time()
    summary = sweep(delta_mid, 30, 300, a=1, b=1, v_tol=1e-8)
    assert summary.winner in ("theorem", "corollary")

    qs = np.array([r.q for r in summary.rows], dtype=np.float64)
    lo_cut = 30 + (300 - 30) / 3.0
    hi_cut = 300 - (300 - 30) / 3.0
    devs = np.array([abs((r.ratio_theorem if summary.winner == "theorem"
                          else r.ratio_corollary) - 1) for r in summary.rows])
    med_top = float(np.median(devs[qs >= hi_cut]))
    med_bot = float(np.median(devs[qs <= lo_cut]))
    assert med_top < med_bot
    # fitted error exponent is reported (trend only; no tolerance asserted)
    assert math.isfinite(summary.error_exponent_fit)
    assert time.time() - t0 < 20.0


def test_acceptance_9_exponent_arithmetic():
    t0 = time.time()
    assert error_exponent(Fraction(0), Fraction(0), Fraction(0)).eta == Fraction(1, 22)
    assert error_exponent(Fraction(7, 64), Fraction(0), Fraction(0)).eta == Fraction(5, 152)
    assert time.time() - t0 < 1.0


def test_acceptance_10_shifted_convolution(delta_mid):
    """Exact vanishing when the window supports preclude solutions, and
    finite bound ratios across the theorem grid (reported, not asserted)."""
    t0 = time.time()
    for q in (211, 401, 1009):
        query = ConvolutionQuery(1, 1, q / 8.0, q / 8.0, q,
                                 window=interval_bump(1.0))
        assert aq_vanishing_certificate(query)
        assert shifted_conv_Aq(query, delta_mid) == 0.0
    rows = aq_grid_report(delta_mid, (101, 199, 401))
    assert rows
    for row in rows:
        assert math.isfinite(row["ratio"])
        assert row["bound"] > 0
    assert time.time() - t0 < 60.0
