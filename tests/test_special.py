import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
import scipy.integrate
import scipy.interpolate
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

import momentlab
from momentlab import special
from momentlab.special import BumpFunction, interval_bump, standard_window
from momentlab.voronoi import VoronoiCase, hankel_grid


def test_window_shape():
    w = standard_window()
    assert w(0.4) == 0.0
    assert w(3.1) == 0.0
    assert w(1.5) == 1.0
    assert 0.0 < w(0.75) < 1.0
    # the exp(-1/t) ramp is symmetric about its midpoint
    assert w(0.75) == pytest.approx(0.5, abs=1e-12)
    assert w(2.5) == pytest.approx(0.5, abs=1e-12)


def test_window_derivatives_match_finite_differences():
    w = standard_window()
    xs = np.array([0.6, 0.8, 0.95, 2.2, 2.8])
    h = 1e-6
    for j in (1, 2):
        exact = w.derivative(j, xs)
        lower = w.derivative(j - 1, xs - h)
        upper = w.derivative(j - 1, xs + h)
        fd = (upper - lower) / (2 * h)
        assert np.allclose(exact, fd, rtol=1e-5, atol=1e-5)
    with pytest.raises(ValueError):
        w.derivative(7, 1.0)


@pytest.mark.parametrize("shape", [(0.5, 1.0, 2.0, 3.0), (20.0, 25.0, 35.0, 40.0)])
def test_window_derivatives_match_mpmath(shape):
    """W^(j), j <= 6, against 50-digit numerical differentiation of the ramp
    at 12 points inside each ramp, relative to B_j = 1.05 max |W^(j)| on
    4000 points per ramp."""
    lo, p1, p2, hi = shape
    w = BumpFunction(*shape)
    grid = np.concatenate([np.linspace(lo + 1e-9, p1 - 1e-9, 4000),
                           np.linspace(p2 + 1e-9, hi - 1e-9, 4000)])
    bounds = [1.05 * np.max(np.abs(w.derivative(j, grid))) for j in range(7)]

    def ramp(x):
        t = (x - lo) / (p1 - lo) if x < p1 else (hi - x) / (hi - p2)
        return 1 / (1 + mpmath.exp(1 / t - 1 / (1 - t)))

    xs = np.concatenate([np.linspace(lo, p1, 14)[1:-1], np.linspace(p2, hi, 14)[1:-1]])
    with mpmath.workdps(50):
        for x in xs:
            exact = [float(d) for d in mpmath.diffs(ramp, mpmath.mpf(float(x)), 6)]
            for j in range(7):
                assert abs(w.derivative(j, x) - exact[j]) <= 1e-14 * bounds[j]


def test_windows_do_not_import_sympy():
    code = ("import sys\n"
            "import numpy as np\n"
            "import momentlab.expsums, momentlab.voronoi\n"
            "from momentlab.special import interval_bump, standard_window\n"
            "for w in (standard_window(), interval_bump(20.0)):\n"
            "    w(np.linspace(0.0, 50.0, 101))\n"
            "    [w.derivative(j, np.linspace(0.0, 50.0, 101)) for j in range(7)]\n"
            "print('sympy' in sys.modules)\n")
    src = str(Path(momentlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"


def test_interval_bump_support():
    w = interval_bump(10.0)
    assert w.support == (10.0, 20.0)
    assert w(15.0) == 1.0
    assert w(9.9) == 0.0 and w(20.1) == 0.0


def test_holomorphic_kernels(delta_small):
    # the dual kernel of a weight-k holomorphic form is 2 pi i^k J_{k-1};
    # for Delta, i^12 = 1, so the transform is real.  Reference: adaptive
    # quadrature, independent of hankel_grid's Gauss-Legendre panels.
    case = VoronoiCase(1, 1, 1, 10.0, delta_small)
    lo, hi = case.window.support
    ys = np.array([0.0, 0.01, 0.1, 1.0, 5.0])
    vals = hankel_grid(case, ys)
    assert np.all(vals.imag == 0.0)
    for y, val in zip(ys, vals.real):
        ref, _ = scipy.integrate.quad(
            lambda x: 2 * math.pi * float(case.window(x))
            * scipy.special.jv(11, 4 * math.pi * math.sqrt(x * y)),
            lo, hi, limit=400, epsabs=1e-13, epsrel=1e-12)
        assert val == pytest.approx(ref, rel=1e-9, abs=1e-11)


@pytest.mark.parametrize("n", [0, 1, 11, 19])
def test_bessel_j_matches_mpmath(n):
    z0 = special._bessel_plan(n)[0]
    zs = np.r_[0.0, 1e-300, 1e-12, 1e-3, np.linspace(0.01, 1.5 * z0, 90),
               np.nextafter(z0, 0.0), z0, np.geomspace(z0, 2e4, 60)]
    ours = special._bessel_j(n, zs)
    with mpmath.workdps(30):
        ref = np.array([float(mpmath.besselj(n, mpmath.mpf(float(z)))) for z in zs])
    assert np.max(np.abs(ours - ref)) <= 1e-14
    assert ours[0] == (1.0 if n == 0 else 0.0)


def test_bessel_branch_point_grows_with_order():
    # Hankel's expansion at z0 = 25 cancels too much from order 19 on, so
    # _bessel_j, and voronoi._hankel_uniform with it, start it further out
    z0 = {n: special._bessel_plan(n)[0] for n in (0, 11, 19, 29)}
    assert z0[0] == z0[11] == special._HANKEL_Z0 < z0[19] < z0[29]
    assert special._hankel_coefficients(19, special._HANKEL_Z0) is None


def test_bessel_j_is_elementwise():
    zs = np.r_[0.0, np.geomspace(1e-3, 2e4, 257)]
    batch = special._bessel_j(19, zs)
    for i in range(len(zs)):
        assert batch[i] == special._bessel_j(19, zs[i:i + 1])[0]


def _bessel_j_both_branches(n, z):
    """The earlier _bessel_j, kept as the reference: it runs Hankel's
    expansion and Miller's recurrence on every call, even on an empty
    branch."""
    z = np.asarray(z, dtype=np.float64)
    z0, p_coeffs, q_coeffs, start = special._bessel_plan(n)
    out = np.empty_like(z)
    far = z >= z0
    x = z[far]
    inv2 = 1.0 / (x * x)
    p = np.full_like(x, p_coeffs[-1])
    for a in p_coeffs[-2::-1]:
        p = p * inv2 + a
    q = np.full_like(x, q_coeffs[-1])
    for a in q_coeffs[-2::-1]:
        q = q * inv2 + a
    r = (2 * n + 1) % 8
    c = math.sqrt(0.5) * (1.0 if r in (1, 7) else -1.0)
    s = math.sqrt(0.5) * (1.0 if r in (1, 3) else -1.0)
    cos_z, sin_z = np.cos(x), np.sin(x)
    out[far] = np.sqrt(2.0 / (math.pi * x)) * (p * (cos_z * c + sin_z * s)
                                               - (q / x) * (sin_z * c - cos_z * s))
    x = z[~far]
    rho = np.zeros_like(x)
    ratio = np.ones_like(x)
    evens = np.ones_like(x)
    for m in range(start, 0, -1):
        above = rho
        rho = x / (2.0 * m - x * above)
        if m % 2:
            evens = 1.0 + rho * above * evens
        if m <= n:
            ratio *= rho
    out[~far] = ratio / (2.0 * evens - 1.0)
    return out


@pytest.mark.parametrize("n", [11, 17, 25])
def test_bessel_j_skips_an_empty_branch_bit_identically(n):
    z0 = special._bessel_plan(n)[0]
    far = np.geomspace(z0, 2e4, 97)
    near = np.r_[0.0, np.geomspace(1e-3, np.nextafter(z0, 0.0), 96)]
    for zs in (far, near, np.r_[near, far][::-1], np.empty(0), np.empty((0, 3)),
               np.outer(near[:8], far[:5] / z0)):
        assert np.array_equal(special._bessel_j(n, zs), _bessel_j_both_branches(n, zs))


def _smooth(x):
    return np.sin(3.0 * x) * np.exp(-0.1 * x) + 0.5 * np.cos(0.7 * x)


def test_uniform_spline_matches_scipy():
    pad, n, dx = special._SPLINE_PAD, 400, 0.05
    x = (np.arange(-pad, n + pad) - 7) * dx
    f = _smooth(x)
    spline = special._UniformSpline(x[0], dx, f)
    assert np.max(np.abs(spline(x) - f)) <= 1e-14 * np.max(np.abs(f))
    core = x[pad:-pad]
    ref = scipy.interpolate.make_interp_spline(core, f[pad:-pad], k=5)
    # inside, away from the ends where the scipy spline's end conditions act
    xi = np.linspace(core[2 * pad], core[-2 * pad - 1], 4001)
    assert np.max(np.abs(spline(xi) - ref(xi))) <= 1e-12 * np.max(np.abs(f))
    # with the pad, the ends of the core are as good as the inside
    edge = np.linspace(core[0], core[pad], 1001)
    inside_error = np.max(np.abs(spline(xi) - _smooth(xi)))
    assert np.max(np.abs(spline(edge) - _smooth(edge))) <= 2.0 * inside_error


def test_uniform_spline_is_read_only_and_clamped():
    x = np.arange(100) * 0.1
    spline = special._UniformSpline(0.0, 0.1, np.cos(x))
    with pytest.raises(ValueError):
        spline.coeffs[0, 0] = 1.0
    assert spline(np.array([-1.0, 50.0])).tolist() == spline(np.array([0.0, x[-1]])).tolist()


def test_runtime_does_not_import_scipy():
    code = ("import sys\n"
            "sys.modules['scipy'] = None\n"
            "import numpy as np\n"
            "from momentlab import (arith, characters, cli, eigenforms, expsums, lfunctions,\n"
            "                       moments, special, voronoi)\n"
            "delta = eigenforms.delta_coefficients(40_000)\n"
            "v = lfunctions.triple_weight(delta)(np.array([1e-3, 0.5, 2.0]))\n"
            "assert np.all(np.isfinite(v))\n"
            "assert voronoi.voronoi_check(voronoi.VoronoiCase(1, 1, 1, 10.0, delta)) < 1e-6\n"
            "print(sorted(m for m, mod in sys.modules.items()\n"
            "             if m.split('.')[0] == 'scipy' and mod is not None))\n")
    src = str(Path(momentlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
