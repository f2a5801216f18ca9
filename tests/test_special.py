import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import momentlab
from momentlab.eigenforms import delta_coefficients
from momentlab.special import (BumpFunction, HolomorphicKernel, MaassKernel,
                               UnsupportedKernel, bessel_j, fourier_hat,
                               interval_bump, kernels_for, log_gamma,
                               standard_window, vring_pm)


def test_log_gamma_values():
    assert log_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-14)
    assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-14)
    with pytest.raises(ValueError):
        log_gamma(-3.0)


def test_bessel_j_values_and_guards():
    # J_{1/2}(x) = sqrt(2/(pi x)) sin x
    for x in (0.7, 3.0, 50.0):
        assert bessel_j(0.5, x) == pytest.approx(
            math.sqrt(2 / (math.pi * x)) * math.sin(x), rel=1e-12)
    with pytest.raises(ValueError):
        bessel_j(-1.0, 2.0)
    with pytest.raises(ValueError):
        bessel_j(2.0, 0.0)
    with pytest.raises(ValueError):
        bessel_j(2.0, 2e6)


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


def test_window_derivative_bounds_certify_grid():
    w = standard_window()
    bounds = w.derivative_bounds
    assert bounds[0] >= 1.0
    grid = np.linspace(0.5, 3.0, 5000)
    for j in range(7):
        assert np.max(np.abs(w.derivative(j, grid))) <= bounds[j] + 1e-9
    with pytest.raises(ValueError):
        w.derivative(7, 1.0)


@pytest.mark.parametrize("shape", [(0.5, 1.0, 2.0, 3.0), (20.0, 25.0, 35.0, 40.0)])
def test_window_derivatives_match_mpmath(shape):
    """W^(j), j <= 6, against 50-digit numerical differentiation of the ramp
    at 12 points inside each ramp, relative to the certified bound B_j."""
    lo, p1, p2, hi = shape
    w = BumpFunction(*shape)
    bounds = w.derivative_bounds

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
            "    w.derivative_bounds\n"
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
    plus = kernels_for(delta_small, 1)
    minus = kernels_for(delta_small, -1)
    assert isinstance(plus, HolomorphicKernel)
    assert minus.is_zero
    assert np.all(minus(np.array([1.0, 2.0])) == 0.0)
    assert plus(3.0) == pytest.approx(2 * math.pi * bessel_j(11, 3.0), rel=1e-12)
    assert plus.phase == 1.0   # i^12


def test_maass_kernel_raises():
    k = MaassKernel(9.5, 1)
    with pytest.raises(UnsupportedKernel):
        k(1.0)


def test_vring_exact_zero_off_support(delta_small):
    # supports [hq + N/2, hq + 3N] and [M/2, 3M] are disjoint here
    val = vring_pm(delta_small, b=1.0, q=100.0, M=10.0, N=10.0, y=1.0, h=5.0)
    assert val == 0j


def test_vring_minus_kernel_zero(delta_small):
    val = vring_pm(delta_small, b=1.0, q=10.0, M=50.0, N=50.0, y=1.0, h=0.0, sign=-1)
    assert val == 0j


def test_vring_nonzero_and_real_phase(delta_small):
    val = vring_pm(delta_small, b=1.0, q=10.0, M=50.0, N=50.0, y=0.01, h=0.0)
    assert abs(val) > 0
    assert abs(val.imag) < 1e-12   # i^12 = 1, real integrand


def test_fourier_hat_at_zero_is_mass():
    w = standard_window()
    mass = fourier_hat(w, 0.0)
    grid = np.linspace(0.5, 3.0, 20001)
    assert mass.imag == pytest.approx(0.0, abs=1e-12)
    assert mass.real == pytest.approx(float(np.trapezoid(w(grid), grid)), abs=1e-6)


def test_fourier_hat_decay():
    w = standard_window()
    assert abs(fourier_hat(w, 40.0)) < 1e-4 * abs(fourier_hat(w, 0.0))
