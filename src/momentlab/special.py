"""Log-gamma, Bessel J, smooth bump windows, and Hankel-type transforms.

The bump windows are plateau mollifiers built from exp(-1/t) ramps, evaluated
in closed form with NumPy; their derivatives to order 6 come from a truncated
Taylor jet of the ramp (see _ramp_jet), and the derivative-bound certificates
are grid maxima of those jets, checked against finite differences and an
mpmath oracle in the test suite.

The transforms used by the Voronoi machinery carry the kernel
J_plus = 2 pi i^k J_{k-1} for holomorphic forms; the i^k factor is kept as
an exact quarter-turn phase.  Maass kernels (imaginary-order K-Bessel) are
deliberately unsupported: the interface exists but evaluation raises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.integrate
import scipy.special


class UnsupportedKernel(NotImplementedError):
    """Maass-kernel evaluation (K_{2 i kappa}) is out of scope."""


def log_gamma(z: complex) -> complex:
    """Principal-branch log Gamma; rejects poles at nonpositive integers."""
    z = complex(z)
    if z.imag == 0.0 and z.real <= 0.0 and z.real == int(z.real):
        raise ValueError(f"log_gamma pole at z = {z}")
    return complex(scipy.special.loggamma(z))


def bessel_j(nu: float, x: float) -> float:
    """J_nu(x) for real order 0 <= nu <= 60 and 0 < x <= 1e6."""
    if not 0 <= nu <= 60:
        raise ValueError(f"order nu = {nu} out of supported range [0, 60]")
    if not 0 < x <= 1e6:
        raise ValueError(f"argument x = {x} out of supported range (0, 1e6]")
    return float(scipy.special.jv(nu, x))


def _ramp_jet(t: np.ndarray, order: int) -> list[np.ndarray]:
    """Taylor coefficients [f_0, ..., f_order] in s of r(t + s), 0 < t < 1.

    The ramp is r = sigma(u) with sigma(u) = 1 / (1 + e^-u) and
    u(t) = 1/(1-t) - 1/t, whose coefficients are
    u_k = (1-t)^-(k+1) - (-1)^k t^-(k+1).  From sigma' = sigma (1 - sigma),
    (k+1) f_{k+1} = sum_{i<=k} g_i (k-i+1) u_{k-i+1} with g = f h, h = 1 - f.
    h_0 = sigma(-u_0) is taken directly, not as 1 - f_0, so the jet keeps
    its digits next to the plateau.  Where g_i underflows to 0 the product
    with a huge u_k is 0, not 0 * inf.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        u = [(1.0 - t) ** -(k + 1) - (-1) ** k * t ** -(k + 1) for k in range(order + 1)]
        f = [1.0 / (1.0 + np.exp(-u[0]))]
        h = [1.0 / (1.0 + np.exp(u[0]))]
        g: list[np.ndarray] = []
        for k in range(order):
            g.append(sum(f[a] * h[k - a] for a in range(k + 1)))
            terms = (np.where(g[i] == 0.0, 0.0, g[i] * ((k - i + 1) * u[k - i + 1]))
                     for i in range(k + 1))
            f.append(sum(terms) / (k + 1))
            h.append(-f[-1])
    return f


@dataclass(frozen=True)
class BumpFunction:
    """C-infinity plateau window: 0 outside [lo, hi], 1 on [p1, p2]."""

    lo: float = 0.5
    p1: float = 1.0
    p2: float = 2.0
    hi: float = 3.0

    def __call__(self, x):
        x = np.asarray(x, dtype=np.float64)
        out = np.zeros_like(x)
        out[(x >= self.p1) & (x <= self.p2)] = 1.0
        self._fill_ramps(0, x, out)
        return out if out.shape else float(out)

    def derivative(self, j: int, x):
        """j-th derivative, 0 <= j <= 6."""
        if not 0 <= j <= 6:
            raise ValueError("derivatives available for j <= 6 only")
        if j == 0:
            return self(x)
        x = np.asarray(x, dtype=np.float64)
        out = np.zeros_like(x)
        # ramps only: derivative vanishes on the plateau and outside support
        self._fill_ramps(j, x, out)
        return out if out.shape else float(out)

    def _fill_ramps(self, j: int, x: np.ndarray, out: np.ndarray) -> None:
        """out = W^(j)(x) on the open ramps (lo, p1) and (p2, hi).

        The left ramp is r(t), t = (x - lo)/(p1 - lo); the right one is
        r(t), t = (hi - x)/(hi - p2), so W^(j) = j! f_j(t) (dt/dx)^j.
        """
        left = (x > self.lo) & (x < self.p1)
        right = (x > self.p2) & (x < self.hi)
        for mask, t, slope in (
                (left, (x[left] - self.lo) / (self.p1 - self.lo), 1.0 / (self.p1 - self.lo)),
                (right, (self.hi - x[right]) / (self.hi - self.p2), -1.0 / (self.hi - self.p2))):
            if t.size:
                out[mask] = math.factorial(j) * _ramp_jet(t, j)[j] * slope**j

    @property
    def derivative_bounds(self) -> tuple[float, ...]:
        """Certificates B_j >= sup |W^(j)| for j <= 6 (grid max with margin)."""
        return _derivative_bounds(self.lo, self.p1, self.p2, self.hi)

    @property
    def support(self) -> tuple[float, float]:
        return (self.lo, self.hi)

    def scaled(self, scale: float) -> "BumpFunction":
        return BumpFunction(self.lo * scale, self.p1 * scale, self.p2 * scale, self.hi * scale)


@lru_cache(maxsize=32)
def _derivative_bounds(lo, p1, p2, hi) -> tuple[float, ...]:
    w = BumpFunction(lo, p1, p2, hi)
    grid = np.concatenate([np.linspace(lo + 1e-9, p1 - 1e-9, 4000),
                           np.linspace(p2 + 1e-9, hi - 1e-9, 4000)])
    return tuple(1.05 * float(np.max(np.abs(w.derivative(j, grid)))) for j in range(7))


def standard_window() -> BumpFunction:
    """The canonical test window: support [1/2, 3], plateau [1, 2]."""
    return BumpFunction()


def interval_bump(X: float) -> BumpFunction:
    """Bump scaled to support [X, 2X] with plateau [1.25 X, 1.75 X]."""
    return BumpFunction(X, 1.25 * X, 1.75 * X, 2.0 * X)


# ---------------------------------------------------------------------------
# Hankel-type transforms


@dataclass(frozen=True)
class HolomorphicKernel:
    """J_plus = 2 pi i^k J_{k-1}; J_minus vanishes identically."""

    weight: int
    sign: int   # +1 or -1

    @property
    def phase(self) -> complex:
        return 1j ** (self.weight % 4)

    def __call__(self, x):
        if self.sign == -1:
            return np.zeros_like(np.asarray(x, dtype=np.float64))
        return 2.0 * math.pi * scipy.special.jv(self.weight - 1, x)

    @property
    def is_zero(self) -> bool:
        return self.sign == -1


@dataclass(frozen=True)
class MaassKernel:
    kappa: float
    sign: int

    def __call__(self, x):
        raise UnsupportedKernel(
            "imaginary-order Bessel kernels for Maass forms are not implemented")

    @property
    def is_zero(self) -> bool:
        return False

    phase = 1.0 + 0j


def kernels_for(form, sign: int):
    """Voronoi kernel J_{+-} for a form; holomorphic only."""
    if form.is_holomorphic:
        return HolomorphicKernel(int(form.weight), sign)
    return MaassKernel(form.kappa, sign)


@dataclass(frozen=True)
class HankelResult:
    value: complex
    abserr: float
    envelope: float     # Lemma-style i=j=0 size certificate X1 (1 + (Xy)^{-theta})


def hankel_transform(F, support: tuple[float, float], y: float, kernel,
                     x_scale: float | None = None,
                     width: float | None = None) -> HankelResult:
    """integral of F(x) * kernel(4 pi sqrt(x y)) dx by adaptive quadrature.

    support gives [a, b] with F zero outside; x_scale ~ X and width ~ X1
    feed the reported size envelope (defaults from the support).
    """
    a, b = support
    X = x_scale if x_scale is not None else a
    X1 = width if width is not None else (b - a)
    envelope = X1  # theta = 0 kernels (J of nonnegative real order)
    if getattr(kernel, "is_zero", False) or b <= a:
        return HankelResult(0j, 0.0, envelope)
    phase = getattr(kernel, "phase", 1.0 + 0j)

    def integrand(x):
        return F(x) * kernel(4.0 * math.pi * math.sqrt(x * y))

    # split at oscillation scale: phase advances 2 pi over dx ~ sqrt(x/y) / 1
    n_osc = int(2.0 * (math.sqrt(b * y) - math.sqrt(a * y))) + 1
    pts = np.linspace(a, b, min(n_osc + 1, 1000))
    total = 0.0
    err = 0.0
    for lo, hi in zip(pts[:-1], pts[1:]):
        v, e = scipy.integrate.quad(integrand, lo, hi, limit=200,
                                    epsabs=1e-12, epsrel=1e-12)
        total += v
        err += e
    if err > 1e-8:
        raise ArithmeticError(f"hankel_transform quadrature achieved only {err:.3g}")
    return HankelResult(phase * total, err, envelope)


def vring_pm(form, b: float, q: float, M: float, N: float, y: float, h: float,
             sign: int = 1, window: BumpFunction | None = None) -> complex:
    """The two-window transform:

        integral W((b x - h q)/N) W(b x / M) J_{sign}(4 pi sqrt(x y)) dx

    with J from the form's Voronoi kernel.  Exact 0 on empty support.
    """
    W = window or standard_window()
    kernel = kernels_for(form, sign)
    if kernel.is_zero:
        return 0j
    lo1, hi1 = W.support
    a = max((h * q + lo1 * N) / b, lo1 * M / b)
    bb = min((h * q + hi1 * N) / b, hi1 * M / b)
    if bb <= a:
        return 0j

    def F(x):
        return W((b * x - h * q) / N) * W(b * x / M)

    res = hankel_transform(F, (a, bb), y, kernel,
                           x_scale=M / b, width=min(M, N) / b)
    return res.value


def fourier_hat(window: BumpFunction, t: float) -> complex:
    """Fourier transform integral W(x) e(-x t) dx with oscillatory splitting."""
    a, b = window.support
    n_seg = max(1, int(4 * abs(t) * (b - a)) + 1)
    pts = np.linspace(a, b, min(n_seg + 1, 2000))
    re = im = 0.0
    for lo, hi in zip(pts[:-1], pts[1:]):
        re += scipy.integrate.quad(lambda x: float(window(x)) * math.cos(2 * math.pi * t * x),
                                   lo, hi, epsabs=1e-12)[0]
        im += scipy.integrate.quad(lambda x: -float(window(x)) * math.sin(2 * math.pi * t * x),
                                   lo, hi, epsabs=1e-12)[0]
    return complex(re, im)
