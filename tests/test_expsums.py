import cmath
import math
import re
import tracemalloc

import numpy as np
import pytest

from momentlab import expsums
from momentlab.arith import (divisor_count, divisor_count_sieve, divisors, euler_phi,
                             moebius, phi_star)
from momentlab.expsums import (ConvolutionQuery, aq_vanishing_certificate,
                               bilinear_incomplete, emn_brute, shifted_conv_Aq,
                               thmAq_bound, trivial_bounds, weil_certify)
from momentlab.special import interval_bump, standard_window


def _kloosterman_brute(m, n, c):
    total = 0j
    for x in range(c):
        if math.gcd(x, c) != 1:
            continue
        xi = pow(x, -1, c)
        total += cmath.exp(2j * cmath.pi * (m * x + n * xi) / c)
    return total.real


def _kloosterman(m, n, c):
    """S(m, n; c) from the FFT-row kernel: the last table it yields."""
    for _, _, s in expsums._kloosterman_grids(np.array([m]), np.array([n]), c):
        pass
    return float(s[0, 0])


def test_kloosterman_known_values():
    assert _kloosterman(1, 1, 1) == 1.0
    assert _kloosterman(1, 1, 2) == pytest.approx(1.0, abs=1e-12)
    assert _kloosterman(1, 1, 3) == pytest.approx(-1.0, abs=1e-12)
    # Salie-type: S(1,1;5) = 2 cos(2 pi 2/5) + 2 cos(2 pi 3/5) exact check
    assert _kloosterman(1, 1, 5) == pytest.approx(_kloosterman_brute(1, 1, 5), abs=1e-12)


def test_kloosterman_symmetry_and_brute():
    for (m, n, c) in [(2, 3, 7), (5, 1, 12), (4, 9, 25), (3, 3, 16)]:
        assert _kloosterman(m, n, c) == pytest.approx(_kloosterman_brute(m, n, c), abs=1e-10)
        assert _kloosterman(m, n, c) == _kloosterman(n, m, c)


def test_kloosterman_twisted_multiplicativity():
    # S(m, n; c1 c2) = S(m1, n; c1) S(m2, n; c2) with m1 = m * c2^{-2 mod c1},
    # m2 = m * c1^{-2 mod c2}
    m, n, c1, c2 = 3, 5, 7, 11
    lhs = _kloosterman(m, n, c1 * c2)
    m1 = (m * pow(c2, -2, c1)) % c1
    m2 = (m * pow(c1, -2, c2)) % c2
    rhs = _kloosterman(m1, n, c1) * _kloosterman(m2, n, c2)
    assert lhs == pytest.approx(rhs, abs=1e-9)


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
    max_ratio, argmax, cells = _weil_loop(60, 8, dc)
    # an FFT row is not the loop's sum: the ratio may differ in its last bit
    assert (rep.argmax, rep.cells) == (argmax, cells)
    assert rep.max_ratio == pytest.approx(max_ratio, rel=1e-14, abs=0)
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


@pytest.mark.parametrize("kwargs,name", [
    (dict(c_max=0), "c_max"), (dict(c_max=-3), "c_max"),
    (dict(grid=0), "grid"), (dict(c_max=60, grid=-1), "grid")])
def test_weil_certify_rejects_an_empty_range(kwargs, name):
    # c_max = 0 once gave a vacuous report of 0 cells, grid = 0 an argmax error
    with pytest.raises(ValueError, match=f"^{name} must be at least 1, got "):
        weil_certify(**kwargs)


def _kloosterman_per_c(ms, ns, c):
    """S(m, n; c) over the grid ms x ns built per modulus: units and their
    inverses x^{phi(c)-1}, the c-th roots gathered at (m x + n xbar) mod c,
    and c = 1 as the all-ones table."""
    if c == 1:
        return np.ones((len(ms), len(ns)), dtype=np.complex128)
    x = np.arange(c)
    units = x[np.gcd(x, c) == 1]
    phi = euler_phi(c)
    inv = np.array([pow(int(t), phi - 1, c) for t in units], dtype=np.int64)
    roots = np.exp(2j * np.pi * np.arange(c) / c)
    return np.sum(roots[(ms[:, None, None] * units + ns[None, :, None] * inv) % c], axis=-1)


def test_kloosterman_table_matches_per_c_construction():
    # every modulus that acceptance 3 certifies, on its 20 x 20 grid; an FFT
    # row is not bit-identical to the direct sum (measured within 1.0e-13)
    ms = np.arange(1, 21)
    for c, g, s in expsums._kloosterman_grids(ms, ms, 500):
        assert np.abs(s - _kloosterman_per_c(ms, ms, c).real).max() <= 1e-12
        assert np.array_equal(g, np.gcd(ms[:, None], np.gcd(ms[None, :], c)))
    # m or n zero or negative: Selberg's identity holds there too, with
    # S(1, 0; c') = mu(c') the Ramanujan sum
    ms, ns = np.array([1, 2, 0, 7, -3]), np.array([1, 3, 5, 0, 4])
    for c, _, s in expsums._kloosterman_grids(ms, ns, 1000):
        if c in (1, 2, 12, 97, 199, 997, 1000):
            assert np.abs(s - _kloosterman_per_c(ms, ns, c).real).max() <= 1e-12


def test_kloosterman_table_is_exactly_symmetric():
    # S(m, n; c) and S(n, m; c) read the same row entries
    ms = np.arange(1, 21)
    for _, _, s in expsums._kloosterman_grids(ms, ms, 500):
        assert np.array_equal(s, s.T)


def test_weil_certify_memory_stays_small():
    # the gathered 400 phi(c) terms per modulus, in L2-sized blocks, peaked at
    # 1.12 MiB; the FFT rows kept for c <= 250 are 0.25 MB (0.76 MiB in all
    # with cold arith caches).  numpy.fft loads on first use, at a size that
    # is NumPy's, so it is loaded before the count starts.
    np.fft.ifft(np.ones(2))
    tracemalloc.start()
    try:
        rep = weil_certify(500, 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.cells == 200_000 and peak < 2**20


def test_unit_inverses_match_python_pow():
    # every c <= 1000, and the largest prime below bilinear_incomplete's cap
    # q <= 10^6, where the square-and-multiply forms products near 10^12
    assert [a.tolist() for a in expsums._unit_inverses(1)] == [[0], [0]]
    rng = np.random.default_rng(0)
    for c in [*range(2, 1001), 999_983]:
        units, inv = expsums._unit_inverses(c)
        assert units.tolist() == [x for x in range(c) if math.gcd(x, c) == 1]
        picks = range(len(units)) if c <= 1000 else rng.choice(len(units), 4000, replace=False)
        assert [int(inv[i]) for i in picks] == [pow(int(units[i]), -1, c) for i in picks]


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
    r = abs(shifted_conv_Aq(query, delta_small)) / bound
    assert math.isfinite(r) and r >= 0


def test_aq_budget_guard(delta_small):
    query = ConvolutionQuery(1, 1, 1e7, 1e7, 3)
    with pytest.raises(ValueError):
        shifted_conv_Aq(query, delta_small)


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


def _bilinear_unblocked(alpha, beta, c, q):
    """sum_a alpha_a |sum_b beta_b e(c a b^{-1} / q)| from the whole A x B
    phase matrix at once."""
    A, B = len(alpha), len(beta)
    xbar = np.zeros(q, dtype=np.int64)
    for b in range(1, q):
        if math.gcd(b, q) == 1:
            xbar[b] = pow(b, -1, q)
    bs = np.arange(1, B + 1)
    phase = np.exp(2j * np.pi * (np.outer(np.arange(1, A + 1), c * xbar[bs % q]) % q) / q)
    return float(np.sum(alpha * np.abs(phase @ (beta * (np.gcd(bs, q) == 1)))))


@pytest.mark.parametrize("A,B,c,q", [(1, 1, 1, 2), (37, 500, 3, 1009), (3000, 3000, 7, 2999),
                                     (300, 40, 7, 360)])
def test_bilinear_incomplete_matches_unblocked(A, B, c, q):
    rng = np.random.default_rng(A + B)
    alpha, beta = rng.random(A), rng.standard_normal(B)
    val, _ = bilinear_incomplete(alpha, beta, c, q)
    want = _bilinear_unblocked(alpha, beta, c, q)
    assert abs(val - want) <= 1e-12 * abs(want)


def test_bilinear_incomplete_reads_c_mod_q():
    # c near 10^18 used to overflow int64 in c * a * b^{-1}
    q, ones = 999_983, np.ones(50)
    assert bilinear_incomplete(ones, ones, 10**18 + 1, q) == \
        bilinear_incomplete(ones, ones, (10**18 + 1) % q, q)


def test_bilinear_incomplete_blocks_stay_small():
    # the whole 3000 x 3000 phase matrix at once peaked at 275 MiB
    ones = np.ones(3000)
    tracemalloc.start()
    try:
        bilinear_incomplete(ones, ones, 1, 2999)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_bilinear_guards():
    with pytest.raises(ValueError):
        bilinear_incomplete([1.0], [1.0], 5, 10)     # (c, q) != 1
    with pytest.raises(ValueError):
        bilinear_incomplete(np.ones(2 * 10**4), [1.0], 1, 7)


def test_emn_rejects_inadmissible_modulus(delta_small):
    for q in (2, 6):
        with pytest.raises(ValueError, match="no primitive characters"):
            emn_brute(20.0, 20.0, 1, 1, q, delta_small)


def _shifted_conv_loop(query, form):
    """A_q by bucketing n per residue of an mod q and looping over m, each
    sign's class visited on its own (a pair in both classes counts twice)."""
    a, b, q, W = query.a, query.b, query.q, query.windows()
    m_lo, m_hi, n_lo, n_hi = expsums._support_ranges(query)
    tau = divisor_count_sieve(max(n_hi, 1))
    ns = np.arange(n_lo, n_hi + 1)
    an = a * ns
    wn = W(an / query.N) * tau[ns]
    order = np.argsort(an % q, kind="stable")
    starts = np.searchsorted((an % q)[order], np.arange(q + 1))
    wms = W(b * np.arange(m_lo, m_hi + 1) / query.M).tolist()
    total = 0.0
    for m, wm in zip(range(m_lo, m_hi + 1), wms):
        if wm == 0.0:
            continue
        bm = b * m
        lam_w = float(form.lam[m]) * wm
        for sgn in (1, -1):
            r = (sgn * bm) % q
            sel = order[starts[r]:starts[r + 1]]
            if sel.size:
                total += lam_w * float(np.sum(wn[sel[an[sel] != bm]]))
    return total


def _emn_loop(M, N, a, b, q, form):
    """E_{M,N} by the same bucketing per d | q over the residue set
    {bm, -bm} mod d (a pair in both classes counts once)."""
    W = standard_window()
    lo, hi = W.support
    m_lo, m_hi = max(1, int(lo * M)), int(math.ceil(hi * M))
    n_lo, n_hi = max(1, int(lo * N)), int(math.ceil(hi * N))
    tau = divisor_count_sieve(max(n_hi, 1))
    ns = np.arange(n_lo, n_hi + 1)
    ns = ns[np.gcd(ns, q) == 1]
    wn = W(ns / N) * tau[ns]
    an = a * ns
    wms = W(np.arange(m_lo, m_hi + 1) / M).tolist()
    total = 0.0
    for d in divisors(q):
        mu = moebius(q // d)
        if mu == 0:
            continue
        order = np.argsort(an % d, kind="stable")
        starts = np.searchsorted((an % d)[order], np.arange(d + 1))
        inner = 0.0
        for m, wm in zip(range(m_lo, m_hi + 1), wms):
            if math.gcd(m, q) != 1 or wm == 0.0:
                continue
            bm = b * m
            lam_w = float(form.lam[m]) * wm
            for r in {bm % d, -bm % d}:
                sel = order[starts[r]:starts[r + 1]]
                if sel.size:
                    inner += lam_w * float(np.sum(wn[sel[an[sel] != bm]]))
        total += euler_phi(d) * mu * inner
    return total / (phi_star(q) * math.sqrt(M * N))


_SHAPES = ((30.0, 30.0), (60.0, 15.0), (15.0, 60.0), (10.0, 1000.0))   # last: an > bm


@pytest.mark.parametrize("q", [1, 2, 3, 4, 5, 12, 101, 199, 401, 1009])
def test_aq_matches_per_m_loop(delta_small, q):
    for M, N in _SHAPES:
        for a, b in ((1, 1), (1, 2), (3, 2), (2, 5)):
            query = ConvolutionQuery(a, b, M, N, q)
            ref = _shifted_conv_loop(query, delta_small)
            assert abs(shifted_conv_Aq(query, delta_small) - ref) <= 1e-11 * max(1.0, abs(ref))


@pytest.mark.parametrize("q", [1, 3, 4, 5, 8, 9, 12, 17, 35, 60, 101])
def test_emn_matches_per_m_loop(delta_small, q):
    for M, N in _SHAPES:
        for a, b in ((1, 1), (1, 2), (3, 2)):
            ref = _emn_loop(M, N, a, b, q, delta_small)
            assert abs(emn_brute(M, N, a, b, q, delta_small) - ref) <= 1e-11 * max(1.0, abs(ref))


def test_emn_with_no_coprime_n(delta_small):
    # every n in [2, 12] shares a prime with 4620 = 4 * 3 * 5 * 7 * 11
    assert emn_brute(4.0, 4.0, 1, 1, 4620, delta_small) == 0.0
    assert _emn_loop(4.0, 4.0, 1, 1, 4620, delta_small) == 0.0
