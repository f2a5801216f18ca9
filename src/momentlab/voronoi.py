"""Numerical verification of the coprime-twisted Voronoi summation formula
for holomorphic forms, with the window interval_bump(X) supported on [X, 2X].

The dual side couples the Bessel kernel to the inverted additive phase; the
classical convention pairs the J-kernel branch with e(-conj(.) n / d'), and
the numerical experiment in the test suite confirms that choice (the
opposite sign leaves an O(1) residual).  PHASE_SIGN records it.  The dual
sum stops at dual_cutoff; tail_certificate bounds the rest.  The transform
carries i^k = eps = (-1)^{k/2}, the root number (k is even), so it is real.

Coprimality to q is removed with the varpi(delta, q) coefficients, so every
delta branch is a dual sum over n of lambda(n) H(n/D) e(-+conj(delta' b) n/d')
with D = delta d'^2.  The phase depends on n only through n mod d', so the
sum is taken as residue sums
    R[r] = sum_{n <= n_cut, n = r (mod d')} lambda(n) H(n/D)
and a length-d' phase sum over r.  R depends on (D, d') alone, not on b, q,
delta' or the phase sign, so it is computed once, kept next to the spline
that H comes from, and shared by every cell that asks for the same (D, d').
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .eigenforms import EigenformData, varpi_table
from .special import (_HANKEL_TOL, _SPLINE_PAD, BumpFunction, _UniformSpline, _bessel_j,
                      _bessel_plan, _hankel_coefficients, interval_bump)

PHASE_SIGN = -1   # empirically fixed: J-kernel branch carries e(-(conj) n/d')
TAIL_TOL = 1e-8   # the dual sum stops where the sampled |transform| stays below this


@dataclass
class VoronoiCase:
    """One instance of the summation formula: phase b/d, coprimality to q,
    and the window interval_bump(X), supported on [X, 2X]."""

    b: int
    d: int
    q: int
    X: float
    form: EigenformData
    window: BumpFunction = field(init=False)

    def __post_init__(self):
        if not (math.isfinite(self.X) and self.X > 0):
            raise ValueError(f"X must be finite and > 0, got X={self.X}")
        if self.d < 1 or self.q < 1:
            raise ValueError("d, q must be positive")
        if math.gcd(self.b, self.d) != 1:
            raise ValueError("(b, d) = 1 required")
        self.window = interval_bump(self.X)


def voronoi_lhs(case: VoronoiCase) -> complex:
    """sum over (n, q) = 1 of lambda(n) V(n) e(b n / d): exact finite sum."""
    lo, hi = case.window.support
    n_lo, n_hi = max(1, int(math.floor(lo))), int(math.ceil(hi))
    if n_hi > case.form.n_max:
        raise IndexError(f"need lambda up to {n_hi}")
    ns = np.arange(n_lo, n_hi + 1)
    ns = ns[np.gcd(ns, case.q) == 1]
    if ns.size == 0:
        return 0j
    vals = case.form.lam[ns] * case.window(ns.astype(np.float64))
    phases = np.exp(2j * np.pi * ((case.b * ns) % case.d) / case.d)
    return complex(np.sum(vals * phases))


_GL_ORDER = 80
_MIN_PANELS = 4            # resolves the bump window itself, whatever X is
# rows x nodes of one Bessel block: _bessel_j holds about 7 float64 arrays of
# that size (the arguments, its branch copies and its recurrence), about 1 MB
# in all, so a block stays in a 2 MB L2.  The 354 spline-head ys at X = 20
# (median of 7, tracemalloc peak; 2-vCPU Xeon VM, 2 MB L2 per core):
# 2^17 27.1 ms, 8.0 MB; 2^15 23.8 ms, 2.7 MB; 2^14 22.2 ms, 1.6 MB;
# 2^13 25.7 ms, 0.9 MB.
_BLOCK_ELEMENTS = 2**14


@lru_cache(maxsize=1)
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """The 80-point Gauss-Legendre rule on [-1, 1], nodes ascending, read-only.

    Newton's method on P_80 by its three-term recurrence finds the 40
    positive nodes from cos(pi (k - 1/4) / (n + 1/2)), and the weights are
    2 / ((1 - x^2) P_80'(x)^2); the negative half is their mirror image.
    Nodes agree with a 40-digit reference within 1 ulp and weights within
    1.4e-14 relative.  Built on first use, in about 2 ms and without
    numpy.polynomial, whose eigenvalue route took 8-13 ms."""
    n = _GL_ORDER

    def legendre(x):            # P_n(x) and P_n'(x)
        p0, p1 = np.ones_like(x), x
        for j in range(2, n + 1):
            p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
        return p1, n * (x * p1 - p0) / (x * x - 1)

    x = np.cos(np.pi * (np.arange(1, n // 2 + 1) - 0.25) / (n + 0.5))
    for _ in range(10):         # four steps from these starts
        p, dp = legendre(x)
        step = p / dp
        x = x - step
        if np.abs(step).max() < 1e-15:
            break
    w = 2 / ((1 - x * x) * legendre(x)[1] ** 2)
    x, w = np.concatenate([-x, x[::-1]]), np.concatenate([w, w[::-1]])
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _composite_nodes(lo: float, hi: float, n_panels: int):
    """Composite Gauss-Legendre nodes/weights on [lo, hi]: n_panels panels of
    80 points each.  hankel_grid asks for 4 nodes per oscillation cycle (20
    cycles per panel) and never fewer than 4 panels; every interval_bump(X)
    is one shape rescaled, so that floor resolves the window at every X."""
    x, w = _gauss_legendre()
    edges = np.linspace(lo, hi, n_panels + 1)
    half = (edges[1] - edges[0]) / 2.0
    mids = (edges[:-1] + edges[1:]) / 2.0
    xs = (mids[:, None] + half * x[None, :]).ravel()
    ws = np.tile(half * w, n_panels)
    return xs, ws


def hankel_grid(case: VoronoiCase, ys: np.ndarray) -> np.ndarray:
    """Dual-side transform of the window at a vector of arguments:
    2 pi eps integral V(x) J_{k-1}(4 pi sqrt(x y)) dx, eps the form's root
    number (i^k at level 1), by composite
    Gauss-Legendre sized for each y on its own: the kernel makes
    2 sqrt(hi y) cycles on the window's support [lo, hi], resolved by
    max(4, ceil(2 sqrt(hi y) / 20)) panels of 80 nodes.

    The y that need the same panel count share one node set and are
    evaluated in row blocks of at most _BLOCK_ELEMENTS matrix elements, so
    no block needs more than about 1 MB.  Each value depends only on its own y:
    the Bessel kernel works element by element, and einsum sums each row
    the same way whatever the block (a BLAS matrix-vector product does not).
    A thread pool over the blocks measured slower on 2 cores."""
    ys = np.asarray(ys, dtype=np.float64).ravel()
    if not np.all(np.isfinite(ys) & (ys >= 0.0)):
        raise ValueError("hankel_grid needs finite y >= 0")
    k = case.form.weight
    lo, hi = case.window.support
    panels = np.maximum(_MIN_PANELS, np.ceil(2.0 * np.sqrt(hi * ys) / 20.0)).astype(np.int64)
    out = np.empty(len(ys))
    for n_panels in sorted(set(panels.tolist())):     # np.unique would import numpy.ma
        rows = np.flatnonzero(panels == n_panels)
        xs, ws = _composite_nodes(lo, hi, n_panels)
        ws = ws * case.window(xs)
        step = max(1, _BLOCK_ELEMENTS // len(xs))
        for i in range(0, len(rows), step):
            idx = rows[i:i + step]
            mat = _bessel_j(k - 1, 4.0 * math.pi * np.sqrt(np.outer(ys[idx], xs)))
            out[idx] = np.einsum("ij,j->i", mat, ws)
    return case.form.epsilon * 2.0 * math.pi * out


# Hankel's expansion (special._hankel_coefficients) replaces the Bessel
# kernel wherever z = 4 pi u s >= z0 at every node s of the window, z0 being
# the point from which special._bessel_j itself takes the expansion for J_{k-1}
# (special._bessel_plan: 25 up to k = 18, 28 at k = 20, 48 at k = 26); the
# head left to hankel_grid is 10 z0 sqrt(hi/lo) spline points.
# The s-step: ds = 1 / (2 L du) with L the smallest power of two with
# L du >= 5 u_max.  The trapezoid rule in s aliases frequency 4 pi u onto
# 4 pi (L du - u), so the worst alias sits at (L du - u_max)^2 >= 16 u_max^2
# = 16 y_cut, where the window's transform, already down to TAIL_TOL at
# y_cut, is at its rounding floor.  L sets the step only: no transform of
# length L is taken (see _hankel_uniform).
_ALIAS_FACTOR = 5


def _chirp(m: np.ndarray, L: int) -> np.ndarray:
    """exp(i pi m^2 / L) for int64 m, with m^2 reduced mod 2L exactly."""
    return np.exp(1j * math.pi * ((m * m) % (2 * L)) / L)


def _fft_length(n: int) -> int:
    """The smallest 2^a, 3 2^a or 5 2^a that is at least n."""
    return min(f << (-(-n // f) - 1).bit_length() for f in (1, 3, 5))


def _hankel_uniform(case: VoronoiCase, us: np.ndarray) -> np.ndarray:
    """hankel_grid(case, us**2) on a uniform grid us = j du, j < n, by
    chirp-z transforms.  With x = s^2 the transform is 2 pi eps times
    integral 2 s V(s^2) J_nu(4 pi u s) ds, taken by the trapezoid rule on the
    M samples s_j = sqrt(lo) + j ds of the support, with 4 pi du ds = 2 pi / L;
    the integrand is smooth and compactly supported, so the rule converges
    faster than any power.  Term i of Hankel's expansion of J_nu = Re H1_nu
    is then (4 pi u_k)^(-i-1/2) times F_i(k) = sum_j c_j s_j^(-i-1/2) e(jk/L).

    F_i is taken at the outputs it needs only, by Bluestein's identity
    e(jk/L) = chi(j) chi(k) conj(chi(k - j)), chi(m) = exp(i pi m^2 / L):
    a convolution of the M inputs times chi with conj(chi), one complex FFT
    pair of length N >= p + M - 1 for p outputs, the kernel's spectrum
    built once per N and chi(k) applied once to the sum of the terms.
    From i >= nu - 1/2 on, term i counts only at the w = 4 pi u sqrt(lo) <
    (|a_i| / _HANKEL_TOL)^(1/i), and never past the outputs of term i - 1:
    every output keeps a prefix of at least nu - 1/2 terms whose first
    omitted one is below _HANKEL_TOL, the remainder rule (DLMF 10.17(iii))
    that sets the number of terms at z0.  The u with w < z0 stay on
    hankel_grid.  Memory stays at a few length-N vectors."""
    nu = case.form.weight - 1
    lo, hi = case.window.support
    root_lo = math.sqrt(lo)
    z0 = _bessel_plan(nu)[0]
    coeffs = _hankel_coefficients(nu, z0)
    n = len(us)
    w = 4.0 * math.pi * root_lo * us              # z at the left end of the support
    head = int(np.searchsorted(w, z0))
    out = np.empty(n)
    out[:head] = hankel_grid(case, us[:head] ** 2)
    if head == n:
        return out
    du = us[1] - us[0]
    L = 1 << math.ceil(math.log2(_ALIAS_FACTOR * (n - 1)))
    ds = 1.0 / (2.0 * L * du)
    s = root_lo + ds * np.arange(int(math.ceil((math.sqrt(hi) - root_lo) / ds)) + 1)
    t = s / root_lo                               # z = w t, t >= 1
    M = len(s)
    w = w[head:]
    prefixes, p = [], len(w)
    for i, a in enumerate(coeffs):
        if i >= nu - 0.5:
            p = min(p, int(np.searchsorted(w, (abs(a) / _HANKEL_TOL) ** (1.0 / i))))
        prefixes.append(p)
    # output k = head + r of a term is entry M - 1 + r of the cyclic
    # convolution of its inputs with conj(chi(head - M + 1 + m)), m < N
    kernel = _chirp(np.arange(head - M + 1, head - M + 1 + _fft_length(len(w) + M - 1)), L).conj()
    spectra: dict[int, np.ndarray] = {}
    c = ds * 2.0 * s * case.window(s * s) / np.sqrt(t) * _chirp(np.arange(M), L)  # c_j t_j^-i chi(j)
    inv_t, inv_w = 1.0 / t, 1.0 / w
    power = np.ones(len(w))                       # w^-i
    acc = np.zeros(len(w), dtype=np.complex128)
    for i, (a, p) in enumerate(zip(coeffs, prefixes)):
        if p == 0:
            break
        N = _fft_length(p + M - 1)
        if N not in spectra:
            spectra[N] = np.fft.fft(kernel[:N])
        terms = np.fft.ifft(np.fft.fft(c, N) * spectra[N])[M - 1:M - 1 + p]
        acc[:p] += (1j ** (i % 4) * a) * power[:p] * terms
        c *= inv_t
        power[:p] *= inv_w[:p]
    acc *= _chirp(np.arange(head, n), L)
    phase = np.exp(1j * (w - (nu / 2.0 + 0.25) * math.pi))
    bessel_sum = math.sqrt(2.0 / math.pi) * (phase * acc * np.sqrt(inv_w)).real
    out[head:] = case.form.epsilon * 2.0 * math.pi * bessel_sum
    return out


# dual_cutoff's scan step: one decade of its 300-point grid
_CUTOFF_CHUNK = 25


def dual_cutoff(case: VoronoiCase) -> float:
    """First point of a 300-point log grid in y after the last sample with |H|
    not below TAIL_TOL.  The grid is scanned from the top, one decade
    (_CUTOFF_CHUNK points) per hankel_grid call, and the scan stops at the
    first chunk that holds such a sample: the points below it cannot move
    the cutoff and are never evaluated.  hankel_grid is batch-invariant, so
    the values are those of one call on the whole grid.  Past the cutoff H
    can exceed TAIL_TOL between samples (1.45e-8 at X = 40);
    tail_certificate, `verify voronoi`'s max_tail_bound, bounds that."""
    ys = np.logspace(-6, 6, 300) / case.X
    for end in range(len(ys), 0, -_CUTOFF_CHUNK):
        start = max(0, end - _CUTOFF_CHUNK)
        above = np.flatnonzero(~(np.abs(hankel_grid(case, ys[start:end])) < TAIL_TOL))  # NaN counts
        if above.size:
            last = start + int(above[-1])
            if last == len(ys) - 1:
                raise ArithmeticError("transform decay certificate failed: no cutoff found")
            return float(ys[last + 1])
    return float(ys[0])


# Residue vectors a spline keeps for the dual sums: at most this many
# residues in all, oldest dropped first.  The acceptance grid stores 30
# vectors of length d' <= 5; a sweep over large d cannot grow it without limit.
_RESIDUE_CAP = 2**16
# n per chunk of a residue sum: its temporaries stay near 1 MB, whatever n_cut
_RESIDUE_CHUNK = 2**14


class _DualSpline:
    """Quintic spline of the transform in u = sqrt(y); one per (case, y_cut),
    shared by every delta branch of the dual sum.  Its values on the uniform
    u-grid come from _hankel_uniform (chirp-z transforms; hankel_grid only
    below z0).  It also keeps the residue sums R of the branches it has
    served (see residue_sums)."""

    def __init__(self, case: VoronoiCase, y_cut: float):
        _, hi = case.window.support
        self.y_cut = y_cut
        u_max = math.sqrt(y_cut)
        # phase 4 pi sqrt(x) u advances at most 4 pi sqrt(hi) per unit u;
        # 0.1 rad per sample with a degree-5 spline keeps the
        # interpolation error near 1e-9 of the local amplitude
        step = 0.1 / (4.0 * math.pi * math.sqrt(hi))
        n_pts = int(u_max / step) + 8
        du = u_max / (n_pts - 1)
        # the knots run pad samples past u_max, where the transforms cost
        # little more, so the spline keeps its accuracy up to the last
        # sqrt(n / D) <= sqrt(u_max^2 + 1 / D) of a dual sum; below u = 0
        # they come from H(-u) = -H(u), k - 1 being odd
        pad = _SPLINE_PAD
        us = du * np.arange(n_pts + pad)
        vals = _hankel_uniform(case, us)
        mirror = -vals[pad:0:-1]
        self._spline = _UniformSpline(-pad * du, du, np.concatenate([mirror, vals]))
        self.u_end = float(us[-1])
        self._residues: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
        self.residues_stored = 0
        self.tail_envelope = None      # (ys, |H(ys)|) past y_cut: see tail_certificate

    def __call__(self, y: np.ndarray) -> np.ndarray:
        """H(y) up to the last knot, 0 past it."""
        u = np.sqrt(y)
        return np.where(u <= self.u_end, self._spline(u), 0.0)

    def residue_sums(self, lam: np.ndarray, D: int, d_prime: int) -> np.ndarray:
        """R[r] = sum of lam[n] H(n/D) over 1 <= n <= ceil(D y_cut), n = r mod d',
        accumulated over chunks of _RESIDUE_CHUNK n.

        Memoised on (D, d') for the table object lam.  At most _RESIDUE_CAP
        residues are kept; the oldest vectors are dropped first."""
        key = (D, d_prime)
        hit = self._residues.get(key)
        if hit is not None and hit[0] is lam:
            return hit[1]
        n_cut = max(1, int(math.ceil(D * self.y_cut)))
        if n_cut >= len(lam):
            raise IndexError(f"dual sum needs lambda up to {n_cut}")
        R = np.zeros(d_prime)
        for lo in range(1, n_cut + 1, _RESIDUE_CHUNK):
            hi = min(lo + _RESIDUE_CHUNK, n_cut + 1)
            ns = np.arange(lo, hi)
            terms = lam[lo:hi] * self(ns / D)
            R += np.bincount(ns % d_prime, weights=terms, minlength=d_prime)
        R.flags.writeable = False
        if hit is None:        # a vector of another table is replaced in place
            self.residues_stored += d_prime
        self._residues[key] = (lam, R)
        while self.residues_stored > _RESIDUE_CAP:
            _, old = self._residues.pop(next(iter(self._residues)))
            self.residues_stored -= len(old)
        return R


_SPLINE_CACHE: dict[tuple, _DualSpline] = {}


def _cached_spline(case: VoronoiCase) -> _DualSpline:
    """Spline cache keyed by everything the transform depends on: the form's
    weight and the window, which is interval_bump(X)."""
    key = (case.form.weight, case.X)
    if key not in _SPLINE_CACHE:
        _SPLINE_CACHE[key] = _DualSpline(case, dual_cutoff(case))
        while len(_SPLINE_CACHE) > 16:
            _SPLINE_CACHE.pop(next(iter(_SPLINE_CACHE)))
    return _SPLINE_CACHE[key]


def voronoi_rhs(case: VoronoiCase) -> complex:
    """Dual sum over the correction divisors delta and the J-kernel branch:
    per branch, the residue sums R of the spline are paired with the phases
    e(PHASE_SIGN conj(delta' b) r / d') for r < d'."""
    spline = _cached_spline(case)
    total = 0j
    for delta, varpi_lam in varpi_table(case.form, case.q):
        if varpi_lam == 0.0:
            continue
        g = math.gcd(delta, case.d)
        d_prime = case.d // g
        D = delta * d_prime**2
        R = spline.residue_sums(case.form.lam, D, d_prime)
        inv = pow(delta // g * case.b, -1, d_prime)
        phases = np.exp(2j * np.pi * PHASE_SIGN * ((inv * np.arange(d_prime)) % d_prime) / d_prime)
        total += varpi_lam / (delta * d_prime) * complex(R @ phases)
    return complex(total)


def tail_certificate(case: VoronoiCase) -> float:
    """Conservative bound on the truncated dual tail: for each branch,
    (|varpi|/(delta d')) sum_{n > n_cut} d(n) |lambda(n)| |transform| is
    over-estimated by the grid envelope with d(n)|lambda(n)| <= 3 log^2 n.
    The cutoff and the envelope are the cached spline's, shared by its cells."""
    spline = _cached_spline(case)
    if spline.tail_envelope is None:     # built on first use, like the residue sums
        y_cut = spline.y_cut
        ys = np.logspace(math.log10(y_cut), math.log10(max(10 * y_cut, 1e6 / case.X)), 120)
        spline.tail_envelope = ys, np.abs(hankel_grid(case, ys))
    ys, env = spline.tail_envelope
    total = 0.0
    for delta, varpi_lam in varpi_table(case.form, case.q):
        if varpi_lam == 0.0:
            continue
        g = math.gcd(delta, case.d)
        d_prime = case.d // g
        D = delta * d_prime**2
        dens = 3.0 * np.log(np.maximum(D * ys, 3.0)) ** 2   # >= d(n)|lambda(n)| locally
        integrand = env * dens
        tail = D * float(np.trapezoid(integrand, ys))
        total += abs(varpi_lam) / (delta * d_prime) * tail
    return total


def voronoi_check(case: VoronoiCase) -> float:
    """|lhs - rhs|; the acceptance grid requires <= 1e-6."""
    return abs(voronoi_lhs(case) - voronoi_rhs(case))
