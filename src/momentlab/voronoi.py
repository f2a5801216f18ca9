"""Numerical verification of the coprime-twisted Voronoi summation formula
for holomorphic forms, with the window interval_bump(X) supported on [X, 2X].

The dual side couples the Bessel kernel to the inverted additive phase; the
classical convention pairs the J-kernel branch with e(-conj(.) n / d'), and
the numerical experiment in the test suite confirms that choice (the
opposite sign leaves an O(1) residual).  PHASE_SIGN records it.  The dual
sum stops at dual_cutoff; tail_certificate bounds the rest.  The transform
carries i^k = eps = (-1)^{k/2}, the root number (k is even), so it is real.

The transform H has one quadrature, the trapezoid rule in s = sqrt(x),
and one expansion of its Bessel kernel past the z0 of special._bessel_plan,
Hankel's (_HankelSeries).  hankel_grid takes the rule at any y, with
special._bessel_j below z0 (the spline head) and the expansion by direct
sums past it; the spline's uniform grid takes the expansion by chirp-z
transforms (_hankel_uniform).

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


# rows x samples of one block of hankel_grid.  A block below z0: _bessel_j
# holds about 7 float64 arrays of that size (the arguments, its branch copies
# and its recurrence), about 1 MB in all, so a block stays in a 2 MB L2.  The
# 354 spline-head ys at X = 20, 385 nodes each (median of 7, tracemalloc
# peak; 2-vCPU Xeon VM, 2 MB L2 per core): 2^17 31 ms, 9.3 MB; 2^15 30 ms,
# 2.7 MB; 2^14 19 ms, 1.5 MB; 2^13 20 ms, 0.8 MB.  A block of Hankel's
# expansion holds three: the phases, their cosines and their sines.
_BLOCK_ELEMENTS = 2**14


def _composite_nodes(lo: float, hi: float, n: int):
    """The trapezoid rule in s = sqrt(x) on [lo, hi] as nodes/weights in x:
    x_j = s_j^2 and w_j = 2 s_j ds at the n + 1 samples s_j = sqrt(lo) + j ds,
    ds = (sqrt(hi) - sqrt(lo)) / n.  The window vanishes with all its
    derivatives at both ends, so the end weights need no halving and the
    rule converges faster than any power of 1/n."""
    root_lo = math.sqrt(lo)
    ds = (math.sqrt(hi) - root_lo) / n
    s = root_lo + ds * np.arange(n + 1)
    return s * s, 2.0 * ds * s


def hankel_grid(case: VoronoiCase, ys: np.ndarray) -> np.ndarray:
    """Dual-side transform of the window at a vector of arguments:
    2 pi eps integral V(x) J_{k-1}(4 pi sqrt(x y)) dx, eps the form's root
    number (i^k at level 1), by the trapezoid rule in s = sqrt(x) on n + 1
    samples of [sqrt(lo), sqrt(hi)], [lo, hi] the window's support.  n is
    the smallest 2^a, 3 2^a or 5 2^a >= 2 sqrt(y) (sqrt(hi) - sqrt(lo))
    + _EXTRA_INTERVALS: the kernel makes 2 sqrt(y) (sqrt(hi) - sqrt(lo))
    cycles in s, so the rule's first alias is the window's transform at 320
    or more cycles over the support, where it is at its rounding floor.
    The kernel's route at a y is set by its own w = 4 pi sqrt(lo y), its
    argument at the left end of the support:

    * w < z0 (the spline head): special._bessel_j at the nodes of
      _composite_nodes(lo, hi, n);
    * w >= z0, the point from which special._bessel_j itself takes Hankel's
      expansion for J_{k-1}: _HankelSeries, the expansion summed on the same
      samples.

    The y that share n are evaluated in row blocks of at most
    _BLOCK_ELEMENTS matrix elements, so no block needs more than about
    1 MB.  Each value depends only on its own y: the kernels work element
    by element, a y's samples and terms are set by its own n and w, and
    einsum sums each row the same way whatever the block (a BLAS
    matrix-vector product does not).  A thread pool over the blocks
    measured slower on 2 cores."""
    ys = np.asarray(ys, dtype=np.float64).ravel()
    if not np.all(np.isfinite(ys) & (ys >= 0.0)):
        raise ValueError("hankel_grid needs finite y >= 0")
    k = case.form.weight
    lo, hi = case.window.support
    out = np.empty(len(ys))
    w = 4.0 * math.pi * np.sqrt(lo * ys)
    z0 = _bessel_plan(k - 1)[0]
    width = math.sqrt(hi) - math.sqrt(lo)
    cycles = np.ceil(2.0 * width * np.sqrt(ys)).astype(np.int64)
    intervals = np.array([_fft_length(m + _EXTRA_INTERVALS) for m in cycles.tolist()], dtype=np.int64)
    order = np.argsort(w, kind="stable")          # _HankelSeries takes w ascending
    for n in sorted(set(intervals.tolist())):     # np.unique would import numpy.ma
        rows = order[intervals[order] == n]
        split = int(np.searchsorted(w[rows], z0))
        step = max(1, _BLOCK_ELEMENTS // (n + 1))
        if split:
            xs, ws = _composite_nodes(lo, hi, n)
            ws = ws * case.window(xs)
            for i in range(0, split, step):
                idx = rows[i:min(i + step, split)]
                mat = _bessel_j(k - 1, 4.0 * math.pi * np.sqrt(np.outer(ys[idx], xs)))
                out[idx] = case.form.epsilon * 2.0 * math.pi * np.einsum("ij,j->i", mat, ws)
        if split < len(rows):
            series = _HankelSeries(case, width / n, n + 1)
            t_minus_1 = series.t_step * np.arange(n + 1)
            for i in range(split, len(rows), step):
                idx = rows[i:i + step]
                arg = np.outer(w[idx], t_minus_1)
                cos, sin = np.cos(arg), np.sin(arg)     # real sums: half the rounding of complex ones
                out[idx] = series(w[idx], lambda col, p: np.einsum("ij,j->i", cos[:p], col)
                                  + 1j * np.einsum("ij,j->i", sin[:p], col))
    return out


# Hankel's expansion (special._hankel_coefficients) replaces the Bessel
# kernel wherever z = 4 pi u s >= z0 at every node s of the window, z0 being
# the point from which special._bessel_j itself takes the expansion for J_{k-1}
# (special._bessel_plan: 25 up to k = 18, 28 at k = 20, 48 at k = 26).
# hankel_grid takes it by direct sums over n + 1 samples, n at least
# _EXTRA_INTERVALS past the kernel's cycle count; the spline's uniform u-grid
# takes it by chirp-z transforms (_hankel_uniform), whose s-step is
# ds = 1 / (2 L du) with L the smallest power of two with L du >= 5 u_max.
# The trapezoid rule in s aliases frequency 4 pi u onto 4 pi (L du - u), so
# the worst alias sits at (L du - u_max)^2 >= 16 u_max^2 = 16 y_cut, where
# the window's transform, already down to TAIL_TOL at y_cut, is at its
# rounding floor.  L sets the step only: no transform of length L is taken.
_ALIAS_FACTOR = 5
# 256 leaves the spline head 320 intervals, 2.3e-13 off at X = 40 and y = 1 / X
_EXTRA_INTERVALS = 320


class _HankelSeries:
    """Hankel's expansion of J_nu = Re H1_nu, nu = k - 1, integrated against
    the window by the trapezoid rule in s = sqrt(x) on the M samples
    s_j = sqrt(lo) + j ds.  With x = s^2 and t = s / sqrt(lo) >= 1, the
    transform at y = u^2 is 2 pi eps integral 2 s V(s^2) J_nu(w t) ds,
    w = 4 pi u sqrt(lo); the integrand is smooth and compactly supported, so
    the rule converges faster than any power.  Term i of the expansion is
    i^i a_i w^(-i-1/2) times the sum over j of c_j t_j^-i e^(i w (t_j - 1)),
    c_j = ds 2 s_j V(s_j^2) t_j^(-1/2), and the sum carries the phase
    e^(i (w - (nu/2 + 1/4) pi)).

    From i >= nu - 1/2 on, term i counts only at the w < (|a_i| /
    _HANKEL_TOL)^(1/i), and never past the outputs of term i - 1: every
    output keeps a prefix of at least nu - 1/2 terms whose first omitted
    one is below _HANKEL_TOL, the remainder rule (DLMF 10.17(iii)) that sets
    the number of terms at z0.  Every w must be at least z0."""

    def __init__(self, case: VoronoiCase, ds: float, M: int):
        self.nu = case.form.weight - 1
        self.coeffs = _hankel_coefficients(self.nu, _bessel_plan(self.nu)[0])
        self.scale = case.form.epsilon * 2.0 * math.pi * math.sqrt(2.0 / math.pi)
        root_lo = math.sqrt(case.window.support[0])
        s = root_lo + ds * np.arange(M)
        self.inv_t = root_lo / s
        self.columns = ds * 2.0 * s * case.window(s * s) * np.sqrt(self.inv_t)   # c_j
        self.t_step = ds / root_lo                # t_j = 1 + j t_step

    def __call__(self, w: np.ndarray, term_sums) -> np.ndarray:
        """The transform at the ascending w; term_sums(col, p) returns the
        sums over j of col_j e^(i w (t_j - 1)) at the first p of them."""
        inv_w = 1.0 / w
        power = np.ones(len(w))                   # w^-i
        acc = np.zeros(len(w), dtype=np.complex128)
        col, p = self.columns.copy(), len(w)
        for i, a in enumerate(self.coeffs):
            if i >= self.nu - 0.5:
                p = min(p, int(np.searchsorted(w, (abs(a) / _HANKEL_TOL) ** (1.0 / i))))
            if p == 0:
                break
            acc[:p] += (1j ** (i % 4) * a) * power[:p] * term_sums(col, p)
            col *= self.inv_t
            power[:p] *= inv_w[:p]
        phase = np.exp(1j * (w - (self.nu / 2.0 + 0.25) * math.pi))
        return self.scale * (phase * acc * np.sqrt(inv_w)).real


def _chirp(m: np.ndarray, L: int) -> np.ndarray:
    """exp(i pi m^2 / L) for int64 m, with m^2 reduced mod 2L exactly."""
    return np.exp(1j * math.pi * ((m * m) % (2 * L)) / L)


def _fft_length(n: int) -> int:
    """The smallest 2^a, 3 2^a or 5 2^a that is at least n."""
    return min(f << (-(-n // f) - 1).bit_length() for f in (1, 3, 5))


def _hankel_uniform(case: VoronoiCase, us: np.ndarray) -> np.ndarray:
    """hankel_grid(case, us**2) on a uniform grid us = j du, j < n, by
    chirp-z transforms.  _HankelSeries takes the expansion on the samples
    s_j = sqrt(lo) + j ds of the support, with 4 pi du ds = 2 pi / L, so that
    e^(i w_k (t_j - 1)) = e(jk/L) at u_k = k du.

    Each term's sums are taken at the outputs it needs only, by Bluestein's
    identity e(jk/L) = chi(j) chi(k) conj(chi(k - j)), chi(m) = exp(i pi m^2 / L):
    a convolution of the M inputs times chi with conj(chi), one complex FFT
    pair of length N >= p + M - 1 for p outputs, the kernel's spectrum
    built once per N.  The u with w = 4 pi u sqrt(lo) < z0 stay on
    hankel_grid.  Memory stays at a few length-N vectors."""
    lo, hi = case.window.support
    root_lo = math.sqrt(lo)
    n = len(us)
    w = 4.0 * math.pi * root_lo * us              # z at the left end of the support
    head = int(np.searchsorted(w, _bessel_plan(case.form.weight - 1)[0]))
    out = np.empty(n)
    out[:head] = hankel_grid(case, us[:head] ** 2)
    if head == n:
        return out
    du = us[1] - us[0]
    L = 1 << math.ceil(math.log2(_ALIAS_FACTOR * (n - 1)))
    ds = 1.0 / (2.0 * L * du)
    M = int(math.ceil((math.sqrt(hi) - root_lo) / ds)) + 1
    series = _HankelSeries(case, ds, M)
    # output k = head + r of a term is entry M - 1 + r of the cyclic
    # convolution of its inputs with conj(chi(head - M + 1 + m)), m < N
    kernel = _chirp(np.arange(head - M + 1, head - M + 1 + _fft_length(n - head + M - 1)), L).conj()
    spectra: dict[int, np.ndarray] = {}
    chirp_in, chirp_out = _chirp(np.arange(M), L), _chirp(np.arange(head, n), L)

    def term_sums(col, p):
        N = _fft_length(p + M - 1)
        if N not in spectra:
            spectra[N] = np.fft.fft(kernel[:N])
        return np.fft.ifft(np.fft.fft(col * chirp_in, N) * spectra[N])[M - 1:M - 1 + p] * chirp_out[:p]
    out[head:] = series(w[head:], term_sums)
    return out


# dual_cutoff's scan step: one decade of its 300-point grid
_CUTOFF_CHUNK = 25


def dual_cutoff(case: VoronoiCase) -> float:
    """First point of a 300-point log grid in y after the last sample with |H|
    not below TAIL_TOL.  The grid is scanned from the top, one decade
    (_CUTOFF_CHUNK points) per hankel_grid call, and the scan stops at the
    first chunk that holds such a sample: the points below it cannot move
    the cutoff and are never evaluated.  hankel_grid is batch-invariant, so
    the values are those of one call on the whole grid.  The evaluated
    points lie past z0 (all 50 at X = 20), so they take Hankel's expansion
    by direct sums and no Bessel function.  Past the cutoff H can exceed
    TAIL_TOL between samples (1.45e-8 at X = 40); tail_certificate,
    `verify voronoi`'s max_tail_bound, bounds that."""
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


def _branches(case: VoronoiCase):
    """The delta branches of the dual sum, as (delta, varpi, g, d', D) for
    each (delta, varpi) of varpi_table with varpi != 0: g = gcd(delta, d),
    d' = d / g and D = delta d'^2."""
    for delta, varpi_lam in varpi_table(case.form, case.q):
        if varpi_lam != 0.0:
            g = math.gcd(delta, case.d)
            d_prime = case.d // g
            yield delta, varpi_lam, g, d_prime, delta * d_prime**2


def voronoi_rhs(case: VoronoiCase) -> complex:
    """Dual sum over the correction divisors delta and the J-kernel branch:
    per branch, the residue sums R of the spline are paired with the phases
    e(PHASE_SIGN conj(delta' b) r / d') for r < d'."""
    spline = _cached_spline(case)
    total = 0j
    for delta, varpi_lam, g, d_prime, D in _branches(case):
        R = spline.residue_sums(case.form.lam, D, d_prime)
        inv = pow(delta // g * case.b, -1, d_prime)
        phases = np.exp(2j * np.pi * PHASE_SIGN * ((inv * np.arange(d_prime)) % d_prime) / d_prime)
        total += varpi_lam / (delta * d_prime) * complex(R @ phases)
    return complex(total)


def tail_certificate(case: VoronoiCase) -> float:
    """Conservative bound on the truncated dual tail: for each branch,
    (|varpi|/(delta d')) sum_{n > n_cut} d(n) |lambda(n)| |transform| is
    over-estimated by the grid envelope with d(n)|lambda(n)| <= 3 log^2 n.
    The cutoff and the envelope are the cached spline's, shared by its cells.
    The envelope's 120 samples, from y_cut to 10^6 / X, are past z0 and come
    from Hankel's expansion.  From y of about 3800 on (X = 20) they are below
    1e-13, at the rule's rounding floor, and move by about 1e-14 with its
    sample count: the far end of the bound integrates rounding noise, not
    the transform."""
    spline = _cached_spline(case)
    if spline.tail_envelope is None:     # built on first use, like the residue sums
        y_cut = spline.y_cut
        ys = np.logspace(math.log10(y_cut), math.log10(max(10 * y_cut, 1e6 / case.X)), 120)
        spline.tail_envelope = ys, np.abs(hankel_grid(case, ys))
    ys, env = spline.tail_envelope
    total = 0.0
    for delta, varpi_lam, _, d_prime, D in _branches(case):
        dens = 3.0 * np.log(np.maximum(D * ys, 3.0)) ** 2   # >= d(n)|lambda(n)| locally
        integrand = env * dens
        tail = D * float(np.trapezoid(integrand, ys))
        total += abs(varpi_lam) / (delta * d_prime) * tail
    return total


def voronoi_check(case: VoronoiCase) -> float:
    """|lhs - rhs|; the acceptance grid requires <= 1e-6."""
    return abs(voronoi_lhs(case) - voronoi_rhs(case))
