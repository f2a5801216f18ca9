import math

import mpmath
import numpy as np
import pytest
from scipy.special import loggamma

from momentlab import lfunctions, special
from momentlab.characters import build_group, gauss_eps
from momentlab.eigenforms import EigenformData
from momentlab.lfunctions import (L_one_f, ParityVanishing, afe_triple_product,
                                  conjugate_index, dirichlet_L_half, hurwitz_zeta,
                                  root_numbers, triple_weight, twist_weight,
                                  twisted_L_half, WeightFunction, weight_V_reference,
                                  zeta_two)

mpmath.mp.dps = 30


def test_hurwitz_zeta_vs_mpmath():
    for s in (0.5, 0.5 + 3j, 2.0):
        for x in (0.25, 0.5, 0.9, 1.0):
            ours = hurwitz_zeta(s, x)
            ref = complex(mpmath.zeta(s, x))
            assert abs(ours - ref) < 1e-12 * max(1.0, abs(ref))
    with pytest.raises(ValueError):
        hurwitz_zeta(1, 0.5)


def test_dirichlet_L_half_vs_mpmath():
    # chi_{-4}: L(1/2, chi) ~ 0.667691... (real)
    g = build_group(4)
    idx = [i for i in range(g.n_chars) if g.is_primitive[i]][0]
    ours = dirichlet_L_half(g, idx)
    # Dirichlet beta at 1/2 through mpmath's Hurwitz zeta
    ref = complex(4 ** mpmath.mpf("-0.5")
                  * (mpmath.zeta(0.5, 0.25) - mpmath.zeta(0.5, 0.75)))
    assert abs(ours - ref) < 1e-10
    with pytest.raises(ValueError):
        dirichlet_L_half(g, [i for i in range(g.n_chars) if not g.is_primitive[i]][0])


@pytest.mark.parametrize("q", [5, 7, 13])
def test_dirichlet_functional_equation(q):
    # L(1/2, chi) = eps L(1/2, conj chi), eps = i^{-a} eps_chi, both parities
    g = build_group(q)
    for idx in g.primitive_indices():
        L = dirichlet_L_half(g, idx)
        Lbar = dirichlet_L_half(g, conjugate_index(g, idx))
        assert abs(L - gauss_eps(g, idx).eps * Lbar) < 1e-10


def test_conjugate_index_involution():
    g = build_group(13)
    for i in range(g.n_chars):
        j = conjugate_index(g, i)
        assert conjugate_index(g, j) == i
        assert np.allclose(g.values[j], np.conj(g.values[i]))


def test_weight_small_x_tends_to_one(delta_small):
    V = triple_weight(delta_small)
    # V(x) = 1 + O(x^{1/4}) with the contour at Re s = -1/4
    assert V(1e-10) == pytest.approx(1.0, abs=1e-2 * 1e-10 ** 0.25 * 100)
    assert abs(V(1e-12) - 1.0) < abs(V(1e-6) - 1.0) < abs(V(1e-2) - 1.0)
    assert abs(V(1e4)) < 1e-10


def test_weight_monotone_cutoffs():
    V = triple_weight(_form_of_weight(18))       # the odd characters' weight
    assert V.cutoff(1e-9) < V.cutoff(1e-12)
    assert abs(V(2 * V.cutoff(1e-9))) < 1e-9


def _cutoff_by_suffix_scan(grid_x, grid_v, tol):
    """Definition of WeightFunction.cutoff: the first i with |V| < tol on all of i:."""
    below = np.abs(grid_v) < tol
    for i in range(len(grid_x)):
        if below[i:].all():
            return float(grid_x[i])
    return float(grid_x[-1])


def test_weight_cutoff_matches_suffix_scan(delta_small):
    xs = np.logspace(-2, 2, 9)
    grids = [np.full(9, 1e-15),                                   # all below
             np.array([1.0] * 8 + [0.5]),                         # last above
             np.array([1.0, 0.5, 1e-15, 1e-15, 0.2, 1e-15, 1e-15, 1e-15, 1e-15]),
             np.array([1.0, 1e-15, np.nan, 1e-15, 1e-15, 1e-15, 1e-15, 1e-15, 1e-15]),
             np.array([1e-15] * 8 + [np.nan]),                    # NaN last
             np.array([1e-15, 1.0] + [1e-15] * 7)]
    V = triple_weight(delta_small)
    cases = [(xs, v) for v in grids] + [(V.grid_x, V.grid_v)]
    for grid_x, grid_v in cases:
        w = WeightFunction(None, grid_x, grid_v)
        for tol in (1e-300, 1e-14, 1e-9, 0.3, 0.7, 10.0):
            assert w.cutoff(tol) == _cutoff_by_suffix_scan(grid_x, grid_v, tol)


def _refined_contour_sum(log_G, xs):
    """weight_V_reference's refined contour sum (T doubled, h halved) for any
    Gamma factor, at many x at once."""
    h = lfunctions._CONTOUR_H / 2
    t = np.arange(-2 * lfunctions._CONTOUR_T, 2 * lfunctions._CONTOUR_T + h / 2, h)
    out = np.empty(len(xs))
    for half, c, residue in ((xs <= 1.0, -0.25, 1.0), (xs > 1.0, 3.0, 0.0)):
        g = np.exp(log_G(c + 1j * t)) / (c + 1j * t)
        powers = xs[half][:, None] ** (-c - 1j * t)[None, :]
        out[half] = residue + h / (2 * np.pi) * np.real(powers @ g)
    return out


def _off_grid_points():
    """280 x in [1e-12, 1e6] between the weight grid's knots: 250 spread over
    the range, 24 within 0.1-2.5 grid steps of x = 1, 6 next to the ends."""
    D = math.log(10) / 120
    rng = np.random.default_rng(20)
    knots = rng.integers(-12 * 120, 6 * 120, 250)
    spread = (knots + rng.uniform(0.1, 0.9, 250)) * D
    steps = np.array([0.25, 0.5, 0.75, 1.25, 1.5, 1.75, 2.25, 2.5, 0.1, 0.9, 1.1, 1.9])
    seam = np.concatenate([steps, -steps]) * D
    ends = np.concatenate([math.log(1e-12) + np.array([0.1, 0.5, 1.5]) * D,
                           math.log(1e6) - np.array([0.1, 0.5, 1.5]) * D])
    return np.exp(np.concatenate([spread, seam, ends]))


def test_weight_spline_matches_reference():
    # both Gamma factors at the weights of both parities (even at k = 12, odd
    # at k = 18, 22), between the knots and on both sides of x = 1, where the
    # two contours meet
    xs = _off_grid_points()
    for k in (12, 18, 22):
        form = _form_of_weight(k)
        for V, log_G in ((triple_weight(form), lfunctions._log_gamma_ratio_triple(k)),
                         (twist_weight(form), lfunctions._log_gamma_ratio_twist(k))):
            assert np.max(np.abs(V(xs) - _refined_contour_sum(log_G, xs))) <= 2e-11
            assert V(1e-13) == V(1e-12)
            assert V(2e6) == 0.0
        # the sum above is the public oracle's
        triple = lfunctions._log_gamma_ratio_triple(k)
        for x in (1e-6, 0.7, 1.0, 2.5):
            assert _refined_contour_sum(triple, np.array([x]))[0] == pytest.approx(
                weight_V_reference(x, form), abs=1e-15)


def _log_gamma_ratio_triple_inline(k, a):
    """The triple Gamma factor of weight k at parity exponent a, with the
    twist factor written out, as it was before it was built on the twist
    factor."""

    def log_G(s):
        val = -s * np.log(2 * np.pi) + loggamma(k / 2 + s) - loggamma(k / 2)
        val = val + 2 * (-(s / 2) * np.log(np.pi)
                         + loggamma((0.5 + s + a) / 2) - loggamma((0.5 + a) / 2))
        return val
    return log_G


def _grid_v_direct(log_G):
    """grid_v as the direct sum of the contour nodes against a dense power
    matrix, at the same nodes as the FFT build."""
    h = lfunctions._CONTOUR_H
    halves = []
    for xs, c, residue in ((np.logspace(-12.0, 0.0, 12 * 120 + 1), -0.25, 1.0),
                           (np.logspace(0.0, 6.0, 6 * 120 + 1), 3.0, 0.0)):
        t = np.arange(-40.0, 40.0 + h / 2, h)
        g = np.exp(log_G(c + 1j * t)) / (c + 1j * t)
        phases = xs[:, None] ** (-c - 1j * t)[None, :]
        halves.append(residue + (h / (2 * np.pi)) * np.real(phases @ g))
    return np.concatenate([halves[0], halves[1][1:]])


def _form_of_weight(k):
    """A weight-k form; the weights read nothing of it but k."""
    return EigenformData(k, 0.0, np.zeros(2), label=f"weight-{k}")


@pytest.mark.parametrize("k,a", [(12, 0), (18, 1), (22, 1)],
                         ids=["delta", "weight18", "weight22"])
def test_weight_grid_matches_direct_sum(k, a):
    # the FFT against the dense power-matrix sum at the same nodes, on the
    # Gamma factors of Delta and of forms of weight 18 and 22; the parity
    # exponent is written out here, a = 1 where (-1)^{k/2} = -1
    form = _form_of_weight(k)
    for V, log_G in ((triple_weight(form), _log_gamma_ratio_triple_inline(k, a)),
                     (twist_weight(form), lfunctions._log_gamma_ratio_twist(k))):
        ref = _grid_v_direct(log_G)
        assert np.max(np.abs(V.grid_v - ref)) <= 2e-13
        direct = WeightFunction(None, V.grid_x, ref)
        for tol in (1e-8, 1e-9, 1e-12, 1e-14):
            assert V.cutoff(tol) == direct.cutoff(tol)


def test_weight_contour_is_aligned_with_the_grid():
    # h D = 2 pi / L, and L covers the nodes and each half-line with its
    # spline pad, so no FFT index wraps
    L, h = lfunctions._CONTOUR_FFT_LEN, lfunctions._CONTOUR_H
    D = math.log(10) / 120
    assert L * h * D == pytest.approx(2 * math.pi, rel=1e-15)
    assert h == pytest.approx(0.05, rel=1e-6)
    t, _ = lfunctions._contour_values(lambda s: 0 * s, 3.0, lfunctions._CONTOUR_T, h)
    assert L >= len(t) == 1601
    V = twist_weight(_form_of_weight(18))
    assert np.allclose(np.diff(np.log(V.grid_x)), D, rtol=1e-9, atol=0)
    n_small = int(np.count_nonzero(V.grid_x <= 1.0))
    n_large = len(V.grid_x) - n_small + 1
    assert (n_small, n_large) == (1441, 721)
    for n in (n_small, n_large):
        assert L >= n + special._SPLINE_PAD


def test_weight_rejects_nonpositive(delta_small):
    with pytest.raises(ValueError):
        triple_weight(delta_small)(-1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_weight_rejects_nonfinite(delta_small, bad):
    # a NaN fails every range mask, so its output slot used to stay unwritten
    V = triple_weight(delta_small)
    with pytest.raises(ValueError, match="positive and finite"):
        V(np.array([bad, 0.5, bad]))
    with pytest.raises(ValueError, match="positive and finite"):
        V(bad)


def test_twist_weight_checks_parity(delta_small):
    # the twist weight takes no parity, as L_inf(s, f x chi) has none: one
    # object
    lfunctions._cached_weight.cache_clear()
    assert twist_weight(delta_small) is twist_weight(delta_small)
    assert lfunctions._cached_weight.cache_info().currsize == 1
    with pytest.raises(TypeError):
        twist_weight(delta_small, 0)


def test_weight_cache_is_bounded_and_read_only():
    # one triple factor and one twist factor per weight: 10 weights, 8 kept
    for k in (12, 16, 18, 20, 22):
        form = _form_of_weight(k)
        for V in (triple_weight(form), twist_weight(form)):
            assert lfunctions._cached_weight.cache_info().currsize <= 8
            for arr in (V.grid_x, V.grid_v, V._spline.coeffs):
                assert not arr.flags.writeable


@pytest.mark.parametrize("tol", [0.0, -1e-9, math.nan, math.inf])
def test_cutoff_rejects_tolerance_outside_the_positive_reals(delta_small, tol):
    # at tol <= 0 or NaN no grid value is below it: the cutoff would be x = 1e6
    with pytest.raises(ValueError, match="tolerance must be finite and > 0"):
        triple_weight(delta_small).cutoff(tol)


def test_cached_weight_arrays_are_read_only(delta_small):
    V = triple_weight(delta_small)
    v0 = float(V.grid_v[0])
    for arr in (V.grid_x, V.grid_v):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    assert triple_weight(delta_small).grid_v[0] == v0


def test_cached_weight_spline_coefficients_are_read_only(delta_small):
    v = triple_weight(delta_small)(0.5)
    with pytest.raises(ValueError):
        triple_weight(delta_small)._spline.coeffs[...] = 0.0
    assert triple_weight(delta_small)(0.5) == v != 0.0


@pytest.mark.parametrize("k", [12, 18], ids=["delta", "weight18"])
def test_log_gamma_matches_scipy_on_the_contours(k):
    # every Gamma argument the weights put on both contours (and the
    # oracle's doubled one), with the normalising constants
    h = lfunctions._CONTOUR_H
    t = np.arange(-2 * lfunctions._CONTOUR_T, 2 * lfunctions._CONTOUR_T + h / 4, h / 2)
    s = np.concatenate([-0.25 + 1j * t, 3.0 + 1j * t, [0.0]])
    z = np.concatenate([(0.5 + s) / 2, (1.5 + s) / 2, k / 2 + s])
    assert np.max(np.abs(np.exp(special._log_gamma(z) - loggamma(z)) - 1.0)) <= 1e-12


def test_root_numbers_delta(delta_small):
    g = build_group(5)
    for idx in g.primitive_indices():
        rn = root_numbers(g, idx, delta_small)
        assert abs(abs(rn.eps_twist) - 1) < 1e-12
        # holomorphic: eps(f, chi) = chi(-1) since eps(Delta) = +1
        assert rn.eps_pair == int(g.parity[idx])


def test_afe_rejects_bad_inputs(delta_small):
    g5 = build_group(5)
    odd = [i for i in g5.primitive_indices(parity=-1)][0]
    with pytest.raises(ParityVanishing):
        afe_triple_product(g5, [odd], delta_small)
    even = [i for i in g5.primitive_indices(parity=1)][0]
    with pytest.raises(ParityVanishing):                 # eps = -1 at weight 18
        afe_triple_product(g5, [even], EigenformData(18, 0.0, delta_small.lam))
    g12 = build_group(12)
    imprim = [i for i in range(g12.n_chars) if not g12.is_primitive[i]][0]
    with pytest.raises(ValueError):
        afe_triple_product(g12, [imprim], delta_small)


def test_afe_checks_every_index_before_building_F(delta_small, monkeypatch):
    from momentlab import moments

    def unreached(*args):
        raise AssertionError("F was built")

    monkeypatch.setattr(moments, "residue_pair_matrix", unreached)
    g5 = build_group(5)
    even, odd = g5.primitive_indices(parity=1)[0], g5.primitive_indices(parity=-1)[0]
    with pytest.raises(ParityVanishing):
        afe_triple_product(g5, [even, odd], delta_small)
    g12 = build_group(12)
    imprim = [i for i in range(g12.n_chars) if not g12.is_primitive[i]][0]
    with pytest.raises(ValueError, match="primitive"):
        afe_triple_product(g12, [*g12.primitive_indices(), imprim], delta_small)


def test_afe_real_for_real_character(delta_small, monkeypatch):
    monkeypatch.setattr(lfunctions, "_AFE_TOL", 1e-9)
    g = build_group(5)
    real_even = [i for i in g.primitive_indices(parity=1)
                 if np.allclose(g.values[i].imag, 0)][0]
    val, = afe_triple_product(g, [real_even], delta_small)
    assert abs(val.imag) < 1e-9 * abs(val)


def test_twisted_fe_internal_consistency(delta_small):
    # L(1/2, f x chi) = eps(f x chi) L(1/2, f x conj chi)
    g = build_group(7)
    for idx in g.primitive_indices(parity=1):
        L = twisted_L_half(g, idx, delta_small)
        Lbar = twisted_L_half(g, conjugate_index(g, idx), delta_small)
        assert abs(L - root_numbers(g, idx, delta_small).eps_twist * Lbar) < 1e-9


def test_cross_route_single_character(delta_small, monkeypatch):
    # triple AFE == (balanced twisted AFE) * L(1/2, conj chi)^2
    monkeypatch.setattr(lfunctions, "_AFE_TOL", 1e-9)
    g = build_group(5)
    idx = [i for i in g.primitive_indices(parity=1)
           if np.allclose(g.values[i].imag, 0)][0]
    lhs, = afe_triple_product(g, [idx], delta_small)
    rhs = twisted_L_half(g, idx, delta_small) * \
        dirichlet_L_half(g, conjugate_index(g, idx)) ** 2
    assert abs(lhs - rhs) < 1e-7 * abs(rhs)


def test_zeta_two():
    assert zeta_two() == pytest.approx(math.pi**2 / 6, rel=1e-15)


def test_L_one_f_stability(delta_mid):
    a = L_one_f(delta_mid, X=4000.0)
    b = L_one_f(delta_mid, X=16000.0)
    assert a == pytest.approx(0.8393455120318737, abs=1e-9)
    assert abs(a - b) < 1e-8
    with pytest.raises(IndexError):
        L_one_f(delta_mid, X=1e6)


def test_L_one_f_sums_in_chunks(delta_mid):
    # the chunked sum against the one-pass formula over all 45 X terms; no
    # array of that length (3.6 MB at the default X) is held
    import tracemalloc
    X = 1e4
    ns = np.arange(1, int(45 * X) + 1, dtype=np.float64)
    t = ns / X
    one_pass = float(np.sum(delta_mid.lam[1:len(ns) + 1] / ns * np.exp(-t) * (1 + t + t * t / 2)))
    tracemalloc.start()
    try:
        got = L_one_f(delta_mid, X=X)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == pytest.approx(one_pass, rel=1e-14, abs=0)
    assert peak < 2**20
