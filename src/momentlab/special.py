"""Smooth bump windows, and the NumPy special-function kernels of the
package.

The bump windows are plateau mollifiers built from exp(-1/t) ramps, evaluated
in closed form with NumPy; their derivatives to order 6 come from a truncated
Taylor jet of the ramp (see _ramp_jet), checked against finite differences
and an mpmath oracle in the test suite.

The kernels are private: _log_gamma (the AFE weights' Gamma factors),
_bessel_j (the Hankel transform's kernel J_{k-1}), _hankel_coefficients (the
one Hankel expansion, shared with voronoi._hankel_uniform) and
_UniformSpline (the quintic of the AFE weights and of the dual side).  The
benchmark tracer wraps public callables only, so their time counts in their
callers.  The test suite checks them against mpmath and other reference
libraries.
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
    def support(self) -> tuple[float, float]:
        return (self.lo, self.hi)


def standard_window() -> BumpFunction:
    """The canonical test window: support [1/2, 3], plateau [1, 2]."""
    return BumpFunction()


def interval_bump(X: float) -> BumpFunction:
    """Bump scaled to support [X, 2X] with plateau [1.25 X, 1.75 X]."""
    return BumpFunction(X, 1.25 * X, 1.75 * X, 2.0 * X)


# ---------------------------------------------------------------------------
# Complex log-Gamma

# B_2, B_4, ..., B_16: Stirling's series here and the Euler-Maclaurin tail
# of lfunctions.hurwitz_zeta
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510)
_STIRLING_RE = 12.0


def _log_gamma(z) -> np.ndarray:
    """log Gamma(z) for complex z with Re z > 0, up to a multiple of 2 pi i:
    its exponential, the only use the weights make of it, is exact.

    The batch is raised to Re z >= 12 by Gamma(z) = Gamma(z + m) / (z (z + 1)
    ... (z + m - 1)), one m for all; there Stirling's series with the terms
    B_2 ... B_16 leaves a first omitted term below 1e-19."""
    z = np.asarray(z, dtype=np.complex128)
    m = max(0, math.ceil(_STIRLING_RE - float(np.min(z.real, initial=_STIRLING_RE))))
    shifts = np.ones_like(z)
    for j in range(m):
        shifts *= z + j
    z = z + m
    inv = 1.0 / z
    inv2 = inv * inv
    series = np.zeros_like(z)
    for j in range(len(_BERNOULLI), 0, -1):
        series = series * inv2 + _BERNOULLI[j - 1] / ((2 * j) * (2 * j - 1))
    return ((z - 0.5) * np.log(z) - z + 0.5 * math.log(2.0 * math.pi)
            + series * inv - np.log(shifts))


# ---------------------------------------------------------------------------
# Bessel J_n of integer order

# Hankel's expansion J_nu(z) = sqrt(2 / (pi z)) (P cos chi - Q sin chi),
# chi = z - (nu / 2 + 1/4) pi, with P and Q the even and odd parts of
# sum_k i^k a_k(nu) z^-k (DLMF 10.17.1-3).  For real z and K >= nu - 1/2
# terms, the remainders of P and Q are bounded by their first omitted terms
# (DLMF 10.17(iii)), so K is the first k >= nu - 1/2 with |a_k(nu)| z0^-k
# below the tolerance, 1e-17 of the leading amplitude.  At z0 = 25 the terms
# are still shrinking there for nu = 11 (K = 25).
_HANKEL_Z0 = 25.0
_HANKEL_TOL = 1e-17


def _hankel_coefficients(nu: float, z0: float) -> list[float] | None:
    """a_0(nu), ..., a_{K-1}(nu) of Hankel's expansion, good to _HANKEL_TOL
    for every z >= z0; None where the series at z0 loses over two digits to
    cancellation or diverges before it reaches the tolerance."""
    coeffs, term = [1.0], 1.0
    while len(coeffs) < nu + 0.5 or term >= _HANKEL_TOL:
        j = len(coeffs)
        coeffs.append(coeffs[-1] * (4.0 * nu * nu - (2 * j - 1) ** 2) / (8.0 * j))
        term = abs(coeffs[-1]) * z0 ** -j
        if term > 1e2 or j > 2.0 * z0 + nu:
            return None
    coeffs.pop()                                  # a_K, the first omitted term
    return coeffs


@lru_cache(maxsize=None)
def _bessel_plan(n: int) -> tuple[float, tuple[float, ...], tuple[float, ...], int]:
    """(z0, P, Q, start) for J_n.  z0 is the first integer >= 25 at which
    Hankel's expansion holds (it grows with n: 25 for n = 11, 28 for n = 19);
    P and Q are its signed coefficients as polynomials in z^-2; below z0,
    Miller's recurrence starts at m = start, z0 + 8 z0^(1/3) + 10, where
    J_start(z0) is negligible (the test suite checks it against mpmath)."""
    z0 = _HANKEL_Z0
    while (coeffs := _hankel_coefficients(n, z0)) is None:
        z0 += 1.0
    signed = [(-1) ** (k // 2) * a for k, a in enumerate(coeffs)]
    return z0, tuple(signed[0::2]), tuple(signed[1::2]), math.ceil(z0 + 8.0 * z0 ** (1 / 3)) + 10


def _bessel_j(n: int, z) -> np.ndarray:
    """J_n(z) for an integer n >= 0 and real z >= 0, to about 2e-15.

    From z0(n) on, Hankel's expansion; below it, Miller's backward
    recurrence in ratio form, rho_m = J_m / J_{m-1} = z / (2m - z rho_{m+1})
    from rho_{start+1} = 0 (DLMF 10.74(iv)), normalised by
    J_0 + 2 (J_2 + J_4 + ...) = 1; it has no overflow and gives J_n(0) exactly.
    Every value is a function of its own z alone: the branch and the
    start index depend on n, never on the other z of the batch."""
    z = np.asarray(z, dtype=np.float64)
    z0, p_coeffs, q_coeffs, start = _bessel_plan(n)
    out = np.empty_like(z)
    far = z >= z0
    if far.any():                                 # each branch only where it has a z
        x = z[far]
        inv2 = 1.0 / (x * x)
        p = np.full_like(x, p_coeffs[-1])
        for a in p_coeffs[-2::-1]:
            p = p * inv2 + a
        q = np.full_like(x, q_coeffs[-1])
        for a in q_coeffs[-2::-1]:
            q = q * inv2 + a
        # cos and sin of chi from those of z: (2n + 1) pi / 4 is an odd multiple
        # of pi / 4, so its cosine and sine are +-sqrt(1/2)
        r = (2 * n + 1) % 8
        c = math.sqrt(0.5) * (1.0 if r in (1, 7) else -1.0)
        s = math.sqrt(0.5) * (1.0 if r in (1, 3) else -1.0)
        cos_z, sin_z = np.cos(x), np.sin(x)
        out[far] = np.sqrt(2.0 / (math.pi * x)) * (p * (cos_z * c + sin_z * s)
                                                   - (q / x) * (sin_z * c - cos_z * s))
    if far.all():
        return out
    x = z[~far]
    rho = np.zeros_like(x)
    ratio = np.ones_like(x)                       # J_n / J_0
    evens = np.ones_like(x)                       # (J_{m-1} + J_{m+1} + ...) / J_{m-1}, m odd
    for m in range(start, 0, -1):
        above = rho
        rho = x / (2.0 * m - x * above)
        if m % 2:
            evens = 1.0 + rho * above * evens
        if m <= n:
            ratio *= rho
    out[~far] = ratio / (2.0 * evens - 1.0)
    return out


# ---------------------------------------------------------------------------
# Interpolating splines on uniform knots

# Samples a spline needs past each end of the range it serves.  The
# coefficients come from a periodic deconvolution, whose wrap-around error
# decays into the samples like |z1|^j, z1 = 0.431 the quintic B-spline
# filter's pole nearest the unit circle: 0.431^50 = 5e-19.
_SPLINE_PAD = 50
# Points a spline evaluates at once.  Each Horner step is one pass over the
# block, so a block's few arrays should stay in cache: evaluated whole, 2M
# points took 2.5 times as long.
_EVAL_BLOCK = 2**15


@lru_cache(maxsize=1)
def _bspline_pieces() -> np.ndarray:
    """M[r, e]: the coefficient of t^(5 - e) in beta(t - r + 2), 0 <= t < 1,
    for the centred quintic cardinal B-spline beta: interval i of a spline
    sum_k c_k beta(x - k) is sum_r c_{i+r-2} times row r."""
    out = np.zeros((6, 6))
    for r in range(6):
        for e in range(6):
            total = sum((-1) ** i * math.comb(6, i) * math.comb(5, e) * (5 - r - i) ** e
                        for i in range(7) if 5 - r - i >= 0)
            out[r, e] = total / 120
    out.flags.writeable = False
    return out


class _UniformSpline:
    """The quintic interpolating spline through real samples at the uniform
    knots x0 + j dx, j = 0, ..., len(samples) - 1; outside the knots it is
    clamped to the nearest end.

    Its B-spline coefficients are one FFT deconvolution of the samples
    (Unser, "Splines: a perfect fit", IEEE SPM 1999), which treats them as
    periodic: the spline matches every sample, and between knots it has
    quintic accuracy except within _SPLINE_PAD knots of either end.  A
    caller serves a range with that many true samples past each end.  The
    per-interval coefficients are read-only (shared through caches), and
    evaluation is index arithmetic and Horner's rule."""

    def __init__(self, x0: float, dx: float, samples: np.ndarray):
        samples = np.asarray(samples, dtype=np.float64)
        n = len(samples)
        self.x0, self.dx = float(x0), float(dx)
        pieces = _bspline_pieces()
        # the sampled B-spline beta(j), |j| <= 2, and its transform
        taps = pieces[:, -1]
        freqs = 2.0 * math.pi * np.arange(n) / n
        transfer = taps[2] + 2.0 * (taps[3] * np.cos(freqs) + taps[4] * np.cos(2.0 * freqs))
        c = np.fft.ifft(np.fft.fft(samples) / transfer).real
        # interval i of the samples uses c_{i-2}, ..., c_{i+3}, indices
        # taken mod n as the deconvolution does
        c = np.concatenate([c[n - 2:], c, c[:3]])
        windows = np.stack([c[r:r + n - 1] for r in range(6)])
        self.coeffs = pieces.T @ windows          # row e: t^(5 - e), one column per interval
        self.coeffs.flags.writeable = False

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        flat = x.ravel()
        out = np.empty_like(flat)
        last = self.coeffs.shape[1] - 1
        for a in range(0, len(flat), _EVAL_BLOCK):
            t = np.clip((flat[a:a + _EVAL_BLOCK] - self.x0) / self.dx, 0.0, last + 1.0)
            i = t.astype(np.intp)
            np.minimum(i, last, out=i)
            t -= i
            block = out[a:a + _EVAL_BLOCK]
            self.coeffs[0].take(i, out=block)
            for row in self.coeffs[1:]:
                block *= t
                block += row.take(i)
        return out.reshape(x.shape)
