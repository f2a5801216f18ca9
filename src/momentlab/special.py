"""Smooth bump windows.

The bump windows are plateau mollifiers built from exp(-1/t) ramps, evaluated
in closed form with NumPy; their derivatives to order 6 come from a truncated
Taylor jet of the ramp (see _ramp_jet), and the derivative-bound certificates
are grid maxima of those jets, checked against finite differences and an
mpmath oracle in the test suite.

The Hankel transform of a window, with the kernel 2 pi i^k J_{k-1} of a
holomorphic form, lives in voronoi: the dual spline is built from FFTs of
Hankel's expansion of the Bessel kernel (voronoi._hankel_uniform), and
voronoi.hankel_grid, Gauss-Legendre with jv, is its oracle and serves the
small arguments, the cutoff scan and the tail certificate.  Maass kernels
are not supported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


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
