import functools
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest
import scipy.integrate
import scipy.special

from momentlab import special, voronoi
from momentlab.eigenforms import EigenformData, varpi_table
from momentlab.special import interval_bump
from momentlab.voronoi import (PHASE_SIGN, TAIL_TOL, VoronoiCase, _cached_spline,
                               _composite_nodes, dual_cutoff, hankel_grid,
                               tail_certificate, voronoi_check, voronoi_lhs,
                               voronoi_rhs)


@functools.lru_cache(maxsize=1)
def _gauss_legendre_rule():
    """The 80-point Gauss-Legendre rule on [-1, 1], nodes ascending: Newton's
    method on P_80 in 40-digit arithmetic from the textbook starts
    cos(pi (k - 1/4) / (n + 1/2)), weights 2 / ((1 - x^2) P_80'(x)^2),
    rounded to float64."""
    n = 80
    nodes, weights = [], []
    with mpmath.workdps(40):
        def legendre(t):
            p0, p1 = mpmath.mpf(1), t
            for j in range(2, n + 1):
                p0, p1 = p1, ((2 * j - 1) * t * p1 - (j - 1) * p0) / j
            return p1, n * (t * p1 - p0) / (t * t - 1)

        for k in range(1, n + 1):
            t = mpmath.cos(mpmath.pi * (k - mpmath.mpf(1) / 4) / (n + mpmath.mpf(1) / 2))
            for _ in range(8):
                p, dp = legendre(t)
                t -= p / dp
            nodes.append(float(t))
            weights.append(float(2 / ((1 - t * t) * legendre(t)[1] ** 2)))
    return np.array(nodes[::-1]), np.array(weights[::-1])     # the starts descend


def _composite_gauss_legendre(lo, hi, n_panels):
    """Composite Gauss-Legendre nodes/weights on [lo, hi]: n_panels panels
    of the 80-point rule."""
    x, w = _gauss_legendre_rule()
    edges = np.linspace(lo, hi, n_panels + 1)
    half = (edges[1] - edges[0]) / 2.0
    mids = (edges[:-1] + edges[1:]) / 2.0
    return (mids[:, None] + half * x[None, :]).ravel(), np.tile(half * w, n_panels)


def _hankel_single_batch(case, ys):
    """The earlier hankel_grid, kept as the reference: one dense Bessel
    matrix whose node count is set by the largest y of the batch, with no
    panel floor."""
    ys = np.asarray(ys, dtype=np.float64)
    k = int(case.form.weight)
    lo, hi = case.window.support
    cycles = 2.0 * math.sqrt(hi * float(np.max(ys, initial=0.0)))
    xs, ws = _composite_gauss_legendre(lo, hi, max(1, int(math.ceil(cycles / 20.0))))
    ws = ws * case.window(xs)
    mat = scipy.special.jv(k - 1, 4.0 * math.pi * np.sqrt(np.outer(ys, xs)))
    return (1j ** (k % 4)) * 2.0 * math.pi * (mat @ ws)


def _hankel_gauss_legendre(case, ys, bessel=special._bessel_j):
    """The earlier hankel_grid, kept as the reference: composite
    Gauss-Legendre at every y, max(4, ceil(2 sqrt(hi y) / 20)) panels of 80
    nodes, with the kernel bessel(k - 1, z), special._bessel_j by default."""
    ys = np.asarray(ys, dtype=np.float64)
    lo, hi = case.window.support
    out = np.empty(len(ys))
    for i, y in enumerate(ys):
        xs, ws = _composite_gauss_legendre(lo, hi, max(4, math.ceil(2.0 * math.sqrt(hi * y) / 20.0)))
        kernel = bessel(case.form.weight - 1, 4.0 * math.pi * np.sqrt(y * xs))
        out[i] = np.dot(kernel, ws * case.window(xs))
    return case.form.epsilon * 2.0 * math.pi * out


def _far(case, ys):
    """The ys hankel_grid sums by Hankel's expansion: 4 pi sqrt(lo y) >= z0."""
    lo, _ = case.window.support
    return ys[4.0 * math.pi * np.sqrt(lo * ys) >= special._bessel_plan(case.form.weight - 1)[0]]


def _hankel_uniform_rfft(case, us):
    """The earlier _hankel_uniform, kept as the reference: every term of
    Hankel's expansion is one real FFT of length L over the zero-padded
    window samples, of whose L/2 + 1 bins the grid keeps the first n."""
    nu = case.form.weight - 1
    lo, hi = case.window.support
    root_lo = math.sqrt(lo)
    z0 = special._bessel_plan(nu)[0]
    coeffs = special._hankel_coefficients(nu, z0)
    n = len(us)
    w = 4.0 * math.pi * root_lo * us
    head = int(np.searchsorted(w, z0))
    out = np.empty(n)
    out[:head] = hankel_grid(case, us[:head] ** 2)
    if head == n:
        return out
    du = us[1] - us[0]
    L = 1 << math.ceil(math.log2(voronoi._ALIAS_FACTOR * (n - 1)))
    ds = 1.0 / (2.0 * L * du)
    s = root_lo + ds * np.arange(int(math.ceil((math.sqrt(hi) - root_lo) / ds)) + 1)
    t = s / root_lo
    buf = np.zeros(L)
    c = buf[:len(s)]
    c[:] = ds * 2.0 * s * case.window(s * s) / np.sqrt(t)
    inv_t, inv_w = 1.0 / t, 1.0 / w[head:]
    power = np.ones(n - head)
    acc = np.zeros(n - head, dtype=np.complex128)
    for j, a in enumerate(coeffs):
        acc += (1j ** (j % 4) * a) * power * np.fft.rfft(buf)[head:n].conj()
        c *= inv_t
        power *= inv_w
    phase = np.exp(1j * (w[head:] - (nu / 2.0 + 0.25) * math.pi))
    bessel_sum = math.sqrt(2.0 / math.pi) * (phase * acc * np.sqrt(inv_w)).real
    out[head:] = case.form.epsilon * 2.0 * math.pi * bessel_sum
    return out


def _cutoff_by_suffix_scan(ys, vals, tol):
    """The earlier dual_cutoff scan, kept as the reference."""
    below = vals < tol
    for i in range(len(ys)):
        if below[i:].all():
            return float(ys[i])
    raise ArithmeticError("transform decay certificate failed: no cutoff found")


def _tail_certificate_per_cell(case):
    """The earlier tail_certificate, kept as the reference: every cell builds
    its own 120-point envelope with hankel_grid."""
    y_cut = _cached_spline(case).y_cut
    ys = np.logspace(math.log10(y_cut), math.log10(max(10 * y_cut, 1e6 / case.X)), 120)
    env = np.abs(hankel_grid(case, ys))
    total = 0.0
    for delta, varpi_lam in varpi_table(case.form, case.q):
        if varpi_lam == 0.0:
            continue
        g = math.gcd(delta, case.d)
        d_prime = case.d // g
        D = delta * d_prime**2
        dens = 3.0 * np.log(np.maximum(D * ys, 3.0)) ** 2
        tail = D * float(np.trapezoid(env * dens, ys))
        total += abs(varpi_lam) / (delta * d_prime) * tail
    return total


def _voronoi_rhs_per_cell(case, spline):
    """The earlier voronoi_rhs, kept as the reference: every delta branch
    evaluates the spline at n/D for each n <= n_cut and sums with a complex
    phase per n, of the sign voronoi.PHASE_SIGN holds at the call."""
    total = 0j
    for delta, varpi_lam in varpi_table(case.form, case.q):
        if varpi_lam == 0.0:
            continue
        g = math.gcd(delta, case.d)
        d_prime = case.d // g
        delta_prime = delta // g
        D = delta * d_prime**2
        n_cut = max(1, int(math.ceil(D * spline.y_cut)))
        ns = np.arange(1, n_cut + 1)
        transforms = spline(ns / D)
        if d_prime == 1:
            inner = np.sum(case.form.lam[ns] * transforms)
        else:
            inv = pow(delta_prime * case.b, -1, d_prime)
            phases = np.exp(2j * np.pi * voronoi.PHASE_SIGN * ((inv * ns) % d_prime) / d_prime)
            inner = np.sum(case.form.lam[ns] * transforms * phases)
        total += varpi_lam / (delta * d_prime) * inner
    return complex(total)


def _acceptance_cells():
    """(b, d, q) of acceptance 5: d <= 5, every unit b <= max(d - 1, 1)."""
    return [(b, d, q) for d in range(1, 6) for b in range(1, max(d - 1, 1) + 1)
            if math.gcd(b, d) == 1 for q in (1, 2, 3, 6)]


def _cutoff_grid(X):
    return np.logspace(-6, 6, 300) / X


@pytest.fixture(scope="module")
def reference_scan(delta_large):
    """X -> (case, reference transform on the dual_cutoff grid), built once per X."""
    scans = {}

    def scan(X):
        if X not in scans:
            case = VoronoiCase(1, 1, 1, X, delta_large)
            scans[X] = case, _hankel_single_batch(case, _cutoff_grid(X))
        return scans[X]
    return scan


def test_case_validation(delta_large):
    with pytest.raises(ValueError):
        VoronoiCase(2, 4, 1, 10.0, delta_large)    # (b, d) != 1
    with pytest.raises(ValueError):
        VoronoiCase(1, 0, 1, 10.0, delta_large)


@pytest.mark.parametrize("name,value", [("X", 0.0), ("X", -5.0), ("X", math.nan), ("X", math.inf)])
def test_case_rejects_bad_scale_and_tolerance(delta_large, name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite and > 0"):
        VoronoiCase(1, 1, 1, value, delta_large)


@pytest.mark.parametrize("b,d,q,X", [(1, 1, 1, 10.0), (1, 2, 3, 10.0),
                                     (2, 3, 2, 20.0), (3, 4, 1, 10.0)])
def test_small_grid_residuals(delta_large, b, d, q, X):
    case = VoronoiCase(b, d, q, X, delta_large)
    assert voronoi_check(case) < 1e-6


def test_wrong_phase_sign_breaks_identity(delta_large, monkeypatch):
    case = VoronoiCase(1, 3, 1, 10.0, delta_large)
    good = voronoi_check(case)
    monkeypatch.setattr(voronoi, "PHASE_SIGN", -PHASE_SIGN)
    bad = voronoi_check(case)
    assert good < 1e-6
    assert bad > 1e3 * max(good, 1e-9)


def test_truncation_doubling_within_certificate(delta_large, monkeypatch):
    case = VoronoiCase(1, 2, 3, 10.0, delta_large)
    r1 = voronoi_rhs(case)
    certificate = tail_certificate(case)
    doubled, _, _ = _build_spline(case, 2.0)
    monkeypatch.setattr(voronoi, "_cached_spline", lambda case: doubled)
    r2 = voronoi_rhs(case)
    assert abs(r1 - r2) <= certificate


def test_tail_certificate_builds_one_envelope_per_spline(delta_large, monkeypatch):
    cases = [VoronoiCase(b, d, q, 10.0, delta_large) for b, d, q in _acceptance_cells()]
    monkeypatch.setattr(voronoi, "_SPLINE_CACHE", {})
    _cached_spline(cases[0])          # the spline build calls hankel_grid on its own
    calls = []
    grid = voronoi.hankel_grid
    monkeypatch.setattr(voronoi, "hankel_grid", lambda case, ys: calls.append(len(ys))
                        or grid(case, ys))
    tails = [tail_certificate(case) for case in cases]
    assert len(cases) == 40 and calls == [120]
    assert all(math.isfinite(t) and t > 0 for t in tails)


def test_tail_certificate_matches_per_cell_reference(delta_large):
    # the second cell of each X reads the envelope the first one left
    for b, d, q, X in ((1, 1, 1, 10.0), (1, 5, 6, 10.0), (1, 2, 3, 20.0), (2, 3, 2, 20.0),
                       (1, 1, 6, 40.0), (3, 4, 3, 40.0)):
        case = VoronoiCase(b, d, q, X, delta_large)
        assert tail_certificate(case) == _tail_certificate_per_cell(case)


@pytest.mark.parametrize("truncation_factor", [1.0, 2.0])
def test_rhs_matches_per_cell_reference(delta_large, monkeypatch, truncation_factor):
    spline, _, _ = _build_spline(VoronoiCase(1, 1, 1, 20.0, delta_large), truncation_factor)
    monkeypatch.setattr(voronoi, "_cached_spline", lambda case: spline)
    for b, d, q in _acceptance_cells():
        case = VoronoiCase(b, d, q, 20.0, delta_large)
        for sign in (-1, 1):
            monkeypatch.setattr(voronoi, "PHASE_SIGN", sign)
            ref = _voronoi_rhs_per_cell(case, spline)
            rhs = voronoi_rhs(case)
            assert abs(rhs - ref) <= 1e-12 * max(1.0, abs(ref))


def test_residue_memo_stays_within_cap(delta_large, monkeypatch):
    cases = [VoronoiCase(b, d, q, 10.0, delta_large) for b, d, q in _acceptance_cells()]
    uncapped = [voronoi_rhs(case) for case in cases]
    # a fresh spline, so that every (D, d') is a miss under the small cap
    monkeypatch.setattr(voronoi, "_SPLINE_CACHE", {})
    monkeypatch.setattr(voronoi, "_RESIDUE_CAP", 6)
    spline = _cached_spline(cases[0])
    for case, want in zip(cases, uncapped):
        assert voronoi_rhs(case) == want
        assert spline.residues_stored == sum(len(R) for _, R in spline._residues.values())
        assert spline.residues_stored <= 6
    # the memo holds sums of one table: another table of the same weight,
    # and so the same spline, gets its own, not a stale vector
    doubled = EigenformData(12, 0.0, 2.0 * delta_large.lam, label=delta_large.label)
    last = cases[-1]
    case = VoronoiCase(last.b, last.d, last.q, 10.0, doubled)
    assert _cached_spline(case) is spline
    ref = _voronoi_rhs_per_cell(case, spline)
    assert abs(voronoi_rhs(case) - ref) <= 1e-12 * abs(ref)
    assert abs(ref - uncapped[-1]) > 1.0


def test_residue_sums_match_the_unchunked_sum(delta_large, monkeypatch):
    # a prime chunk splits every range, up to n_cut = 533 079 at D = 900,
    # into chunks that cut across the residues mod d'
    monkeypatch.setattr(voronoi, "_SPLINE_CACHE", {})
    monkeypatch.setattr(voronoi, "_RESIDUE_CHUNK", 97)
    spline = _cached_spline(VoronoiCase(1, 1, 1, 20.0, delta_large))
    lam = delta_large.lam
    for D, d_prime in ((1, 1), (4, 2), (36, 3), (900, 5)):
        ns = np.arange(1, max(1, math.ceil(D * spline.y_cut)) + 1)
        terms = lam[ns] * spline(ns / D)
        want = np.bincount(ns % d_prime, weights=terms, minlength=d_prime)
        R = spline.residue_sums(lam, D, d_prime)
        assert len(ns) > 97
        assert np.abs(R - want).max() <= 1e-13 * np.abs(terms).sum()


def _modules_after(code: str, *modules: str) -> list[bool]:
    """Run code in a fresh interpreter; whether each module is then loaded."""
    code += f"\nimport sys\nprint(*(m in sys.modules for m in {modules!r}))\n"
    src = str(Path(voronoi.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True)
    assert out.returncode == 0, out.stderr
    return [flag == "True" for flag in out.stdout.split()]


def test_hankel_grid_does_not_import_numpy_ma():
    # np.unique imports numpy.ma on first use, about 15 ms of a fresh process
    code = ("import numpy as np\n"
            "from momentlab.eigenforms import EigenformData\n"
            "from momentlab.voronoi import VoronoiCase, hankel_grid\n"
            "case = VoronoiCase(1, 1, 1, 20.0, EigenformData(12, 0.0, np.zeros(2)))\n"
            "hankel_grid(case, np.array([0.01, 1.0, 30.0, 1.0]))")
    assert _modules_after(code, "numpy.ma") == [False]


def test_spline_build_does_not_import_numpy_polynomial():
    # leggauss imported numpy.polynomial and solved an 80 x 80 eigenproblem,
    # 8-13 ms and 1.55 MB of a fresh process
    code = ("import numpy as np\n"
            "from momentlab.eigenforms import EigenformData\n"
            "from momentlab.voronoi import VoronoiCase, _cached_spline\n"
            "case = VoronoiCase(1, 1, 1, 20.0, EigenformData(12, 0.0, np.zeros(2)))\n"
            "_cached_spline(case)")
    assert _modules_after(code, "numpy.polynomial") == [False]


@pytest.mark.parametrize("X", [10.0, 40.0])
def test_hankel_grid_matches_single_batch(reference_scan, X):
    case, ref = reference_scan(X)
    assert np.max(np.abs(hankel_grid(case, _cutoff_grid(X)) - ref)) <= 1e-13 * np.max(np.abs(ref))
    # every 50th point of the u = sqrt(y) grid that _DualSpline builds on
    _, hi = case.window.support
    u_max = math.sqrt(dual_cutoff(case))
    step = 0.1 / (4.0 * math.pi * math.sqrt(hi))
    us = np.linspace(0.0, u_max, int(u_max / step) + 8)[::50]
    ref = _hankel_single_batch(case, us**2)
    assert np.max(np.abs(hankel_grid(case, us**2) - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("X", [10.0, 16.0, 20.0, 24.0, 40.0])
def test_dual_cutoff_matches_single_batch(reference_scan, X):
    case, ref = reference_scan(X)
    assert dual_cutoff(case) == _cutoff_by_suffix_scan(_cutoff_grid(X), np.abs(ref), TAIL_TOL)


def test_dual_cutoff_matches_suffix_scan(reference_scan, monkeypatch):
    case, real = reference_scan(10.0)
    ys = _cutoff_grid(10.0)
    tiny, big = 0.1 * TAIL_TOL, 10.0 * TAIL_TOL
    grids = [np.full(300, tiny),                                  # all below
             np.r_[np.full(299, tiny), big],                      # last above
             np.r_[np.full(150, big), np.full(150, tiny)],
             np.r_[big, np.full(100, tiny), big, np.full(198, tiny)],
             np.r_[np.full(10, tiny), np.nan, np.full(289, tiny)],  # NaN inside
             np.r_[np.full(299, tiny), np.nan],                   # NaN last
             np.abs(real)]
    for vals in grids:
        monkeypatch.setattr(voronoi, "hankel_grid",
                            lambda case, got, vals=vals: vals[np.searchsorted(ys, got)])
        try:
            expected = _cutoff_by_suffix_scan(ys, vals, TAIL_TOL)
        except ArithmeticError:
            with pytest.raises(ArithmeticError, match="no cutoff"):
                dual_cutoff(case)
        else:
            assert dual_cutoff(case) == expected


def test_dual_cutoff_evaluates_only_the_top_of_its_grid(delta_large, monkeypatch):
    case = VoronoiCase(1, 1, 1, 20.0, delta_large)
    sent = []
    real = voronoi.hankel_grid
    monkeypatch.setattr(voronoi, "hankel_grid", lambda case, ys: sent.append(ys) or real(case, ys))
    y_cut = dual_cutoff(case)
    sent = np.concatenate(sent)
    ys = _cutoff_grid(20.0)
    assert len(sent) <= 50
    assert set(ys[ys >= y_cut].tolist()) <= set(sent.tolist())


def test_hankel_grid_is_batch_invariant(delta_large):
    case = VoronoiCase(1, 1, 1, 20.0, delta_large)
    ys = np.r_[np.logspace(-6, 6, 60) / 20.0, np.linspace(0.0, 600.0, 40)]
    batch = hankel_grid(case, ys)
    for i in range(len(ys)):
        assert batch[i] == hankel_grid(case, ys[i:i + 1])[0]


@pytest.mark.parametrize("X", [10.0, 40.0])
def test_hankel_grid_resolves_window_at_small_y(delta_large, X):
    # at small y the kernel hardly oscillates and the bump window alone
    # sets the sample count: 320 intervals miss it by 2.3e-13 at X = 40
    case = VoronoiCase(1, 1, 1, X, delta_large)
    ys = np.array([0.0, 1e-6, 1e-3, 0.01, 0.1, 1.0]) / X
    lo, hi = case.window.support
    xs, ws = _composite_gauss_legendre(lo, hi, 64)
    ws = ws * case.window(xs)
    mat = scipy.special.jv(11, 4.0 * math.pi * np.sqrt(np.outer(ys, xs)))
    ref = (1j ** 12) * 2.0 * math.pi * (mat @ ws)
    assert np.max(np.abs(hankel_grid(case, ys) - ref)) <= 1e-13


def test_hankel_grid_rejects_negative_y(delta_large):
    case = VoronoiCase(1, 1, 1, 10.0, delta_large)
    for bad in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="y >= 0"):
            hankel_grid(case, np.array([1.0, bad]))


def test_dual_cutoff_scales_inversely_with_X(delta_large):
    c10 = dual_cutoff(VoronoiCase(1, 1, 1, 10.0, delta_large))
    c40 = dual_cutoff(VoronoiCase(1, 1, 1, 40.0, delta_large))
    # transform depends on X y only, so y_cut ~ const / X; the scan grid is
    # log-spaced, so allow a couple of grid steps of quantization
    assert c40 * 40.0 == pytest.approx(c10 * 10.0, rel=0.35)


def _build_spline(case, truncation_factor):
    """A fresh _DualSpline of case, the u-grid it was built on and, for each
    term of Hankel's expansion, the (input length, transform length) of the
    FFT that took it."""
    grids, ffts = [], []
    fast, fft = voronoi._hankel_uniform, np.fft.fft
    y_cut = dual_cutoff(case) * truncation_factor

    def record(a, n=None):
        if n is not None:                   # a term; the kernel spectra come whole
            ffts.append((len(a), n))
        return fft(a, n)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(voronoi, "_hankel_uniform", lambda case, us: grids.append(us) or fast(case, us))
        mp.setattr(np.fft, "fft", record)
        spline = voronoi._DualSpline(case, y_cut)
    return spline, grids[0], ffts


@pytest.mark.parametrize("truncation_factor", [1.0, 2.0])
@pytest.mark.parametrize("X", [10.0, 40.0])
def test_spline_matches_hankel_grid_on_its_grid(delta_large, X, truncation_factor):
    case = VoronoiCase(1, 1, 1, X, delta_large)
    spline, us, _ = _build_spline(case, truncation_factor)
    ref = hankel_grid(case, us**2)
    assert np.max(np.abs(spline(us**2) - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_cached_spline_coefficients_are_read_only(delta_large):
    case = VoronoiCase(1, 1, 1, 10.0, delta_large)
    spline = _cached_spline(case)
    before = spline(np.array([0.5, 4.0]))
    with pytest.raises(ValueError):
        spline._spline.coeffs[...] = 0.0
    assert np.array_equal(_cached_spline(case)(np.array([0.5, 4.0])), before)


def test_spline_cache_is_keyed_on_weight_and_scale(delta_large, monkeypatch):
    monkeypatch.setattr(voronoi, "_SPLINE_CACHE", {})
    spline = _cached_spline(VoronoiCase(1, 1, 1, 10.0, delta_large))
    # the label and the table do not enter the transform; the phase and q
    # enter only the dual sums
    relabelled = EigenformData(12, 0.0, delta_large.lam, label="other")
    assert _cached_spline(VoronoiCase(1, 3, 6, 10.0, relabelled)) is spline
    assert _cached_spline(VoronoiCase(1, 1, 1, 20.0, delta_large)) is not spline
    assert len(voronoi._SPLINE_CACHE) == 2


def _spline_head_ys(case):
    """The ys a fresh spline build of case sends to hankel_grid."""
    y_cut = dual_cutoff(case)
    sent = []
    real = voronoi.hankel_grid
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(voronoi, "hankel_grid", lambda case, ys: sent.append(ys) or real(case, ys))
        voronoi._DualSpline(case, y_cut)
    return np.concatenate(sent)


def test_spline_build_leaves_only_the_head_to_hankel_grid(delta_large):
    case = VoronoiCase(1, 1, 1, 20.0, delta_large)
    assert 0 < len(_spline_head_ys(case)) < 1000


@pytest.mark.parametrize("X", [10.0, 20.0, 40.0])
def test_hankel_grid_is_independent_of_the_block_size(delta_large, monkeypatch, X):
    case = VoronoiCase(1, 1, 1, X, delta_large)
    ys = np.concatenate([_cutoff_grid(X), _spline_head_ys(case)])
    outs = []
    for block in (2**10, 2**14, 2**17):
        monkeypatch.setattr(voronoi, "_BLOCK_ELEMENTS", block)
        outs.append(hankel_grid(case, ys))
    assert all(np.array_equal(out, outs[0]) for out in outs[1:])


def test_hankel_grid_head_blocks_stay_small(delta_large):
    case = VoronoiCase(1, 1, 1, 20.0, delta_large)
    ys = _spline_head_ys(case)
    hankel_grid(case, ys)                   # the caches of a first call are filled
    tracemalloc.start()
    try:
        hankel_grid(case, ys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5e6


@pytest.mark.parametrize("weight", [12, 18, 20, 26])
@pytest.mark.parametrize("X", [10.0, 20.0, 40.0])
def test_hankel_uniform_matches_the_rfft_route(delta_large, X, weight):
    form = EigenformData(weight, 0.0, delta_large.lam, label="w")
    case = VoronoiCase(1, 1, 1, X, form)
    for truncation_factor in (1.0, 2.0):
        _, us, _ = _build_spline(case, truncation_factor)
        ref = _hankel_uniform_rfft(case, us)
        assert np.max(np.abs(voronoi._hankel_uniform(case, us) - ref)) <= 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("truncation_factor,L_expected", [(1.0, 2**17), (2.0, 2**18)])
def test_hankel_expansion_constants_follow_the_tolerance_rule(delta_large, truncation_factor,
                                                             L_expected):
    case = VoronoiCase(1, 1, 1, 20.0, delta_large)
    _, us, ffts = _build_spline(case, truncation_factor)
    K = len(ffts)
    M = ffts[0][0]
    assert K == 25 and {m for m, _ in ffts} == {M}
    # L, which sets the s-step: the smallest power of two with L du >= 5 u_max
    L = 1 << math.ceil(math.log2(voronoi._ALIAS_FACTOR * (len(us) - 1)))
    assert L == L_expected
    assert L >= voronoi._ALIAS_FACTOR * (len(us) - 1) > L // 2
    lo, hi = case.window.support
    du = us[1] - us[0]
    ds = 1.0 / (2.0 * L * du)
    assert M == math.ceil((math.sqrt(hi) - math.sqrt(lo)) / ds) + 1
    # K: the first k >= nu - 1/2 with |a_k(nu)| z0^-k below the tolerance
    nu, z0, tol = 11, special._HANKEL_Z0, special._HANKEL_TOL
    a = [1.0]
    for j in range(1, K + 1):
        a.append(a[-1] * (4 * nu * nu - (2 * j - 1) ** 2) / (8 * j))
    terms = [abs(a_j) * z0 ** -j for j, a_j in enumerate(a)]
    assert K >= nu - 0.5 and terms[K] < tol
    assert all(t >= tol for t in terms[math.ceil(nu - 0.5):K])
    # the outputs of term j: every w = 4 pi u sqrt(lo) >= z0 while j < nu - 1/2,
    # then those with |a_j| w^-j > tol that term j - 1 has too
    w = 4.0 * math.pi * math.sqrt(lo) * us
    w = w[w >= z0]
    prefixes = [len(w)]
    for j in range(1, K):
        keep = prefixes[-1] if j < nu - 0.5 else min(prefixes[-1], int(np.sum(abs(a[j]) / w**j > tol)))
        prefixes.append(keep)
    assert prefixes[math.floor(nu - 0.5)] == len(w) > prefixes[-1] > 0
    # term j is one transform of the smallest length 2^a, 3 2^a or 5 2^a
    # that holds the linear convolution of its M inputs and p_j outputs
    lengths = sorted(f << e for f in (1, 3, 5) for e in range(20))
    for (_, n), p in zip(ffts, prefixes):
        assert n == min(x for x in lengths if x >= p + M - 1)
    assert sum(n for _, n in ffts) < 0.1 * K * L


@pytest.mark.parametrize("weight", [18, 20, 22, 26])
def test_hankel_uniform_keeps_hankel_grid_where_the_series_cancels(delta_large, weight):
    # below the order's own z0 (special._bessel_plan: 25 at k = 18, 28, 34
    # and 48 at k = 20, 22, 26) the values are hankel_grid's; past it, the
    # chirp-z transforms
    form = EigenformData(weight, 0.0, delta_large.lam, label="w")
    case = VoronoiCase(1, 1, 1, 10.0, form)
    us = np.linspace(0.0, 40.0, 400)      # past the cutoff, u = 34 at X = 10
    ref = hankel_grid(case, us**2)
    out = voronoi._hankel_uniform(case, us)
    head = int(np.searchsorted(4.0 * math.pi * math.sqrt(10.0) * us,
                               special._bessel_plan(weight - 1)[0]))
    assert 0 < head < len(us)
    assert np.array_equal(out[:head], ref[:head]) and not np.array_equal(out, ref)
    assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("weight,picks", [(12, (165, 190, 215, 237)), (26, (180, 200, 220, 237))])
@pytest.mark.parametrize("X", [10.0, 40.0])
def test_hankel_grid_far_branch_matches_adaptive_quadrature(delta_large, X, weight, picks):
    # points of the dual_cutoff grid past z0, from near the peak of |H| down
    # to the last decade above TAIL_TOL; the largest difference measured
    # was 2.3e-14
    case = VoronoiCase(1, 1, 1, X, EigenformData(weight, 0.0, delta_large.lam, label="w"))
    lo, hi = case.window.support
    ys = _cutoff_grid(X)[list(picks)]
    assert np.array_equal(_far(case, ys), ys)
    vals = hankel_grid(case, ys)
    assert np.all(np.abs(vals) >= 1e-6)
    for y, val in zip(ys, vals):
        ref, _ = scipy.integrate.quad(
            lambda x: 2 * math.pi * case.form.epsilon * float(case.window(x))
            * scipy.special.jv(weight - 1, 4 * math.pi * math.sqrt(x * y)),
            lo, hi, limit=400, epsabs=1e-13, epsrel=1e-12)
        assert abs(val - ref) <= 1e-13


@pytest.mark.parametrize("weight", [12, 18, 20, 26])
@pytest.mark.parametrize("X", [10.0, 20.0, 40.0])
def test_hankel_grid_far_branch_matches_gauss_legendre(delta_large, X, weight):
    # the far points of the dual_cutoff grid and of every 50th point of the
    # spline's u-grid, against Gauss-Legendre with scipy's Bessel function.
    # Largest measured: 6.0e-14 max|ref|, at k = 20 just past z0, where the
    # expansion's terms reach 80 times their sum
    case = VoronoiCase(1, 1, 1, X, EigenformData(weight, 0.0, delta_large.lam, label="w"))
    _, hi = case.window.support
    u_max = math.sqrt(dual_cutoff(case))
    step = 0.1 / (4.0 * math.pi * math.sqrt(hi))
    us = np.linspace(0.0, u_max, int(u_max / step) + 8)[::50]
    for ys in (_far(case, _cutoff_grid(X)), _far(case, us**2)):
        ref = _hankel_gauss_legendre(case, ys, scipy.special.jv)
        assert np.max(np.abs(hankel_grid(case, ys) - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("weight", [12, 18, 20, 26])
@pytest.mark.parametrize("X", [10.0, 20.0, 40.0])
def test_hankel_grid_head_matches_gauss_legendre(delta_large, X, weight):
    # every y a spline build leaves to hankel_grid lies below z0, where
    # _bessel_j is taken at the trapezoid rule's nodes.  Largest measured:
    # 1.8e-15 max|ref|, at k = 20
    case = VoronoiCase(1, 1, 1, X, EigenformData(weight, 0.0, delta_large.lam, label="w"))
    ys = _spline_head_ys(case)
    assert len(ys) and not len(_far(case, ys))
    ref = _hankel_gauss_legendre(case, ys, scipy.special.jv)
    assert np.max(np.abs(hankel_grid(case, ys) - ref)) <= 2e-15 * np.max(np.abs(ref))


@pytest.mark.parametrize("X", [1.0, 10.0, 40.0])
def test_composite_nodes_integrate_the_window(X):
    # the bump's ramps are symmetric, so its integral is 0.5 X + 2 (0.25 X) / 2
    xs, ws = _composite_nodes(X, 2.0 * X, 384)
    assert abs(np.sum(ws * interval_bump(X)(xs)) / (0.75 * X) - 1.0) <= 1e-15


@pytest.mark.parametrize("weight", [12, 18, 20, 26])
@pytest.mark.parametrize("X", [10.0, 16.0, 20.0, 24.0, 40.0])
def test_dual_cutoff_keeps_the_gauss_legendre_cutoff(delta_large, monkeypatch, X, weight):
    case = VoronoiCase(1, 1, 1, X, EigenformData(weight, 0.0, delta_large.lam, label="w"))
    y_cut = dual_cutoff(case)
    monkeypatch.setattr(voronoi, "hankel_grid", _hankel_gauss_legendre)
    assert dual_cutoff(case) == y_cut


def test_dual_cutoff_evaluates_no_bessel_function(delta_large, monkeypatch):
    # every y it evaluates at X = 20 is past z0; by Gauss-Legendre they sent
    # 374 000 arguments to the Bessel kernel
    case = VoronoiCase(1, 1, 1, 20.0, delta_large)
    sent = []
    monkeypatch.setattr(voronoi, "_bessel_j",
                        lambda n, z: sent.append(np.size(z)) or special._bessel_j(n, z))
    dual_cutoff(case)
    assert sum(sent) == 0


def test_dual_cutoff_stays_small(delta_large):
    case = VoronoiCase(1, 1, 1, 20.0, delta_large)
    dual_cutoff(case)
    tracemalloc.start()
    try:
        dual_cutoff(case)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5e6


def test_lhs_is_plain_sum(delta_large):
    case = VoronoiCase(1, 1, 2, 10.0, delta_large)
    val = voronoi_lhs(case)
    direct = sum(float(delta_large.lam[n]) * float(case.window(float(n)))
                 for n in range(10, 21) if n % 2 == 1)
    assert val.real == pytest.approx(direct, rel=1e-12)
    assert val.imag == 0.0
