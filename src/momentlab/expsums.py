"""Kloosterman sums, Weil-bound certification, and brute-force shifted
convolution sums with empirical bound ratios.

Two kernels carry the sums.  ``_kloosterman_grids`` gives S(m, n; c) on a
grid ms x ns for every c up to a cap, a block of consecutive moduli at a
time, from one FFT row S(1, k; c), all k mod c, per modulus and Selberg's
identity

    S(m, n; c) = sum_{d | (m, n, c)} d S(1, mn/d^2; c/d),

each block by one square-and-multiply for its unit inverses, one gather and
one scatter of Selberg's terms; ``weil_certify`` checks each block whole.
The direct sum over the units, e((m x + n xbar)/c), is the oracle in the
tests, within 1e-12 on every cell that ``weil_certify`` certifies.
``_congruent_pairs`` sums alpha_m beta_n over the pairs with bm = +an, -an and
both (mod d), bm != an, from residue-class sums of beta: A_q adds the + and -
sums (a pair in both counts twice), each d-term of E_{M,N} takes their union
(once).  Bound ratios take the q^epsilon factor as (log q)^2 and are reported,
not asserted; the hard assertions are the Weil bound and exact vanishing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arith import (divisor_count, divisor_count_sieve, divisors, euler_phi,
                    is_admissible, moebius, phi_star)
from .eigenforms import EigenformData
from .special import BumpFunction, standard_window

_PAIR_BUDGET = 10**7   # candidate (m, n) pairs one brute-force sum may visit
_AQ_SCALE = 10.0       # aq_grid_report's M, N ~ _AQ_SCALE sqrt(q)
# Elements per block of bilinear_incomplete's phases: 2^15 complex phases are
# 0.5 MB, inside a 2 MB L2.  Bilinear sums at A = B = 3000 on a 2-vCPU Xeon
# VM: 0.48 s and a 1.2 MB peak (the whole matrix: 0.57 s, 288 MB).
_BLOCK_ELEMENTS = 2**15


# Caps of one block of _kloosterman_grids: consecutive moduli with at most
# _UNIT_BLOCK residues in all, about 0.6 of them units, and at most
# _CELL_BLOCK grid cells, or one modulus.  weil_certify(500, 20) on a 2-vCPU
# Xeon VM, best of 9 (tracemalloc peak): these caps, 37 blocks, 34-38 ms
# (0.82 MiB); 2^13 residues 34-36 ms (0.98 MiB); 2^12 cells 39-40 ms (0.63 MiB);
# 2^14 cells 36-38 ms (1.24 MiB); one modulus per block 100-105 ms (0.31 MiB).
# What is left is arithmetic: the unit inverses, 13 ms (np.gcd over the
# 125 250 residues of c <= 500, remainders by a modulus per element), and one
# FFT per modulus, 10 ms.
_UNIT_BLOCK = 2**12
_CELL_BLOCK = 2**13


def _inverse_powers(units: np.ndarray, mods, e) -> np.ndarray:
    """units^e mod mods by square-and-multiply, elementwise: mods is an array
    like units, e one too or a scalar, and every e is phi(mod) - 1, so that
    each power is the inverse of its unit."""
    inv, power, prod = np.ones_like(units) % mods, units.copy(), np.empty_like(units)
    while np.any(e):
        np.multiply(inv, power, out=prod)
        np.remainder(prod, mods, out=prod)
        np.copyto(inv, prod, where=np.bitwise_and(e, 1).astype(bool))
        np.multiply(power, power, out=power)
        np.remainder(power, mods, out=power)
        e = e >> 1
    return inv


def _unit_block(c_lo: int, c_hi: int):
    """The residues 0, ..., c - 1 of every modulus c_lo <= c <= c_hi, laid end
    to end: (keep, units, mods, inv) with keep marking the units, units and
    mods the units and their moduli, and inv their inverses x^(phi(c)-1) mod c
    by one square-and-multiply for the whole block (at c = 1 the unit 0, its
    inverse 0).  int32 while c_hi^2 < 2^31, for faster remainders, else int64:
    every product is below c^2 <= 10^12 at bilinear_incomplete's cap q <= 10^6.
    """
    dtype = np.int32 if c_hi * c_hi < 2**31 else np.int64
    cs = np.arange(c_lo, c_hi + 1, dtype=dtype)
    mods = np.repeat(cs, cs)
    x = np.arange(len(mods), dtype=dtype)
    x -= np.repeat(np.cumsum(cs) - cs, cs)    # 0, ..., c - 1 for each c
    keep = np.gcd(x, mods) == 1
    units, mods = x[keep], mods[keep]
    phi = np.bincount(mods - c_lo, minlength=len(cs))
    # one modulus takes a scalar exponent: three fewer passes over the units per bit
    e = np.repeat(phi - 1, phi) if c_hi > c_lo else int(phi[0]) - 1
    return keep, units, mods, _inverse_powers(units, mods, e)


def _unit_inverses(c: int) -> tuple[np.ndarray, np.ndarray]:
    """The units mod c, ascending, and their inverses: the one-modulus block."""
    _, units, _, inv = _unit_block(c, c)
    return units, inv


def _kloosterman_grids(ms, ns, c_max: int):
    """Yield (cs, g, S) for blocks of consecutive moduli cs covering 1, ...,
    c_max in ascending order: g the table gcd(m, n, c) and S the real table
    S(m, n; c), both of shape (len(cs), len(ms), len(ns)), on the grid of the
    1-D integer arrays ms x ns.  A block holds at most _UNIT_BLOCK residues
    and _CELL_BLOCK cells, or one modulus.

    One FFT per modulus gives the row K_c[k] = S(1, k; c) for every k mod c:
    with h[y] = e(ybar/c) on the units y and 0 elsewhere, K_c = c ifft(h), the
    inverses ybar coming by one square-and-multiply per block (_unit_block).
    Selberg's identity gives each cell from K_c[mn mod c], one gather for the
    block, and for d >= 2 the terms d K_{c/d}[mn/d^2 mod c/d], from the rows
    of the moduli c/d <= c_max/2, the only rows kept.  These terms come from
    one table of (cell, d) pairs, d >= 2 dividing gcd(m, n) (every d <= c_max
    where m = n = 0), ascending in d; a block adds those with d | c by one
    np.add.at, so each cell sums its terms in ascending d.  S(m, n) and
    S(n, m) read the same entries, so S is exactly symmetric when ms = ns.
    """
    cells = len(ms) * len(ns)
    mn = (ms[:, None] * ns[None, :]).ravel()
    gmn = np.gcd(ms[:, None], ns[None, :])
    d_max = c_max if (gmn == 0).any() else min(int(gmn.max()), c_max)
    at = [np.flatnonzero(gmn.ravel() % d == 0) for d in range(2, d_max + 1)]
    pair_cell = np.concatenate([np.zeros(0, dtype=np.int64), *at])
    pair_d = np.repeat(np.arange(2, d_max + 1), [len(a) for a in at])
    pair_mn = mn[pair_cell] // (pair_d * pair_d)
    half = c_max // 2
    kept = np.empty(half * (half + 1) // 2)   # K_c at c(c-1)/2, for c <= c_max/2
    c_lo = 1
    while c_lo <= c_max:
        c_hi, size = c_lo, c_lo
        while (c_hi < c_max and size + c_hi + 1 <= _UNIT_BLOCK
               and (c_hi - c_lo + 2) * cells <= _CELL_BLOCK):
            c_hi += 1
            size += c_hi
        cs = np.arange(c_lo, c_hi + 1)
        base = c_lo * (c_lo - 1) // 2
        starts = cs * (cs - 1) // 2 - base    # K_c's offset in the block's rows
        keep, _, mods, inv = _unit_block(c_lo, c_hi)
        h = np.zeros(size, dtype=np.complex128)
        # (2 pi / c) ybar: a product by 2j pi / mods rounds otherwise, up to 8e-14 in S
        h[keep] = np.exp(1j * ((2 * np.pi / mods) * inv))
        for c, a in zip(cs.tolist(), starts.tolist()):
            h[a:a + c] = c * np.fft.ifft(h[a:a + c])
        rows = h.real
        top = min(c_hi, half)
        n_kept = max(0, top * (top + 1) // 2 - base)
        kept[base:base + n_kept] = rows[:n_kept]
        s = rows[starts[:, None] + mn % cs[:, None]]
        k, p = np.nonzero(cs[:, None] % pair_d == 0)
        cq = cs[k] // pair_d[p]
        np.add.at(s, (k, pair_cell[p]), pair_d[p] * kept[cq * (cq - 1) // 2 + pair_mn[p] % cq])
        shape = (len(cs), len(ms), len(ns))
        yield cs, np.gcd(gmn, cs[:, None, None]), s.reshape(shape)
        c_lo = c_hi + 1


@dataclass(frozen=True)
class WeilReport:
    c_max: int
    max_ratio: float
    argmax: tuple[int, int, int]   # (m, n, c)
    cells: int


def weil_certify(c_max: int = 500, grid: int = 20) -> WeilReport:
    """|S(m,n;c)| <= d(c) (m,n,c)^{1/2} c^{1/2} on a grid; violation is fatal.

    Each block of moduli from ``_kloosterman_grids`` is checked whole; cells
    are scanned in (c, m, n) order, and the first violation, or the first
    cell of the largest ratio (a strict > across blocks), is the one reported.
    """
    if c_max < 1:
        raise ValueError(f"c_max must be at least 1, got {c_max}")
    if grid < 1:
        raise ValueError(f"grid must be at least 1, got {grid}")
    if c_max > 500:
        raise ValueError("certification capped at c <= 500")
    best, arg, cells = 0.0, (0, 0, 0), 0
    ms = np.arange(1, grid + 1)
    for cs, g, s in _kloosterman_grids(ms, ms, c_max):
        dc = np.array([divisor_count(c) for c in cs.tolist()])
        ratio = np.abs(s) / (dc[:, None, None] * np.sqrt(g * cs[:, None, None]))
        cells += ratio.size
        bad = ratio > 1.0 + 1e-9
        if bad.any():
            k, i, j = np.unravel_index(np.argmax(bad), bad.shape)
            raise AssertionError(f"Weil bound violated at S({i + 1},{j + 1};{cs[k]}) = "
                                 f"{float(s[k, i, j])}: ratio {float(ratio[k, i, j])}")
        k, i, j = np.unravel_index(np.argmax(ratio), ratio.shape)
        if ratio[k, i, j] > best:
            best, arg = float(ratio[k, i, j]), (int(i) + 1, int(j) + 1, int(cs[k]))
    return WeilReport(c_max, best, arg, cells)


# ---------------------------------------------------------------------------
# Shifted convolution sums


@dataclass(frozen=True)
class ConvolutionQuery:
    """Parameters of the twisted shifted convolution A_q(a, b, M, N)."""

    a: int
    b: int
    M: float
    N: float
    q: int
    window: BumpFunction | None = None

    def __post_init__(self):
        if min(self.a, self.b, self.q) < 1 or min(self.M, self.N) <= 0:
            raise ValueError("a, b, q must be positive integers; M, N positive")

    def windows(self) -> BumpFunction:
        return self.window or standard_window()


def _support_ranges(query: ConvolutionQuery):
    W = query.windows()
    lo, hi = W.support
    m_lo = max(1, int(math.floor(lo * query.M / query.b)))
    m_hi = int(math.ceil(hi * query.M / query.b))
    n_lo = max(1, int(math.floor(lo * query.N / query.a)))
    n_hi = int(math.ceil(hi * query.N / query.a))
    return m_lo, m_hi, n_lo, n_hi


def _congruent_pairs(alpha, bm, beta, an, d: int) -> tuple[float, float, float]:
    """Sums of alpha_m beta_n over the pairs bm != an with bm = +an, bm = -an
    or both (mod d), an strictly ascending.  S[r] sums beta over the class
    an = r; the diagonal beta at an = bm leaves the + class, and the - class
    when it is the same class (2 bm = 0 mod d), which is when a pair is in both.
    """
    if an.size == 0:
        return 0.0, 0.0, 0.0
    S = np.bincount(an % d, weights=beta, minlength=d)
    at = np.minimum(np.searchsorted(an, bm), an.size - 1)
    diag = np.where(an[at] == bm, beta[at], 0.0)
    same = (2 * bm) % d == 0
    plus = S[bm % d] - diag
    minus = S[-bm % d] - diag * same
    return float(alpha @ plus), float(alpha @ minus), float(alpha @ (plus * same))


def shifted_conv_Aq(query: ConvolutionQuery, form: EigenformData) -> float:
    """A_q = sum over bm = +-an (mod q), bm != an, of
    lambda(m) tau(n) W(bm/M) W(an/N), a pair in both classes counted twice."""
    a, b, q = query.a, query.b, query.q
    W = query.windows()
    m_lo, m_hi, n_lo, n_hi = _support_ranges(query)
    n_count = max(0, n_hi - n_lo + 1)
    # pairs surviving the congruence: roughly 2/q of the rectangle
    est = (m_hi - m_lo + 1) * (2 * (n_count // q + 1))
    if est > _PAIR_BUDGET:
        raise ValueError(f"candidate pair estimate {est} exceeds budget {_PAIR_BUDGET}")
    if m_hi > form.n_max:
        raise IndexError(f"need lambda up to {m_hi}")
    tau = divisor_count_sieve(max(n_hi, 1))
    ms, ns = np.arange(m_lo, m_hi + 1), np.arange(n_lo, n_hi + 1)
    alpha = form.lam[ms] * W(b * ms / query.M)
    beta = W(a * ns / query.N) * tau[ns]
    plus, minus, _ = _congruent_pairs(alpha, b * ms, beta, a * ns, q)
    return plus + minus


def aq_vanishing_certificate(query: ConvolutionQuery) -> bool:
    """True when window supports preclude any off-diagonal solution, making
    A_q exactly zero: both bm and an live below q/2 so bm = +-an (mod q)
    forces bm = an (excluded) or bm = -an (impossible for positives)."""
    W = query.windows()
    _, hi = W.support
    return hi * query.M < query.q / 2 and hi * query.N < query.q / 2


def thmAq_bound(query: ConvolutionQuery) -> float:
    """Four-term bound with the epsilon factor instantiated as (log q)^2."""
    a, b, q = query.a, query.b, query.q
    M, N = query.M, query.N
    if M < N:
        M, N = N, M
    abq = math.gcd(a * b, q)
    eps = math.log(max(q, 3)) ** 2
    return eps * (M / q**0.5
                  + abq**0.25 * M**1.25 * N**0.25 / ((a * b)**0.25 * q)
                  + M**0.75 * N**0.25 / ((a * b)**0.25 * q**0.25)
                  + abq**0.25 * M * N**0.5 / ((a * b)**0.5 * q**0.75))


# ---------------------------------------------------------------------------
# E_{M,N} and trivial bounds


def emn_brute(M: float, N: float, a: int, b: int, q: int, form: EigenformData) -> float:
    """E_{M,N} = (1/phi*(q)) sum_{d|q} phi(d) mu(q/d) (MN)^{-1/2}
    sum_{bm = +-an (d), bm != an, (mn,q)=1} lambda(m) tau(n) W(m/M) W(n/N),
    W the standard window and a pair in both classes counted once."""
    if not is_admissible(q):
        raise ValueError(f"q = {q} = 2 (mod 4) has no primitive characters")
    W = standard_window()
    lo, hi = W.support
    m_lo, m_hi = max(1, int(lo * M)), int(math.ceil(hi * M))
    n_lo, n_hi = max(1, int(lo * N)), int(math.ceil(hi * N))
    if (m_hi - m_lo + 1) * (n_hi - n_lo + 1) > _PAIR_BUDGET * q:
        raise ValueError("pair budget exceeded")
    if m_hi > form.n_max:
        raise IndexError(f"need lambda up to {m_hi}")
    tau = divisor_count_sieve(max(n_hi, 1))
    ms, ns = np.arange(m_lo, m_hi + 1), np.arange(n_lo, n_hi + 1)
    ms, ns = ms[np.gcd(ms, q) == 1], ns[np.gcd(ns, q) == 1]
    alpha = form.lam[ms] * W(ms / M)
    beta = W(ns / N) * tau[ns]
    total = 0.0
    for d in divisors(q):
        mu = moebius(q // d)
        if mu:
            plus, minus, both = _congruent_pairs(alpha, b * ms, beta, a * ns, d)
            total += euler_phi(d) * mu * (plus + minus - both)
    return total / (phi_star(q) * math.sqrt(M * N))


def trivial_bounds(M: float, N: float, a: int, b: int, q: int,
                   theta_f: float = 0.0) -> tuple[float, float]:
    """The two Cauchy-Schwarz bounds, epsilon factor (log q)^2."""
    eps = math.log(max(q, 3)) ** 2
    boundA = eps * ((M * N) ** 0.5 / q + (M / N) ** 0.5)
    boundB = M ** theta_f * eps * ((M * N) ** 0.5 / q + (N / M) ** 0.5)
    return boundA, boundB


# ---------------------------------------------------------------------------
# Bilinear incomplete Kloosterman sums


def bilinear_incomplete(alpha, beta, c: int, q: int) -> tuple[float, float]:
    """(value, bound_ratio) for sum_{a<=A} alpha_a |sum_{b<=B, (b,q)=1}
    beta_b e(c a b^{-1} / q)|, A = len(alpha) and B = len(beta), against the
    incomplete-Kloosterman bilinear bound with epsilon factor (log q)^2."""
    alpha = np.asarray(alpha, dtype=np.complex128)
    beta = np.asarray(beta, dtype=np.complex128)
    A, B = len(alpha), len(beta)
    if A > 10**4 or B > 10**4:
        raise ValueError("A, B capped at 1e4")
    if not 1 <= q <= 10**6 or math.gcd(c, q) != 1:
        raise ValueError("1 <= q <= 1e6 and (c, q) = 1 required")
    units, inv = _unit_inverses(q)
    xbar = np.zeros(q, dtype=np.int64)
    xbar[units] = inv
    bs = np.arange(1, B + 1)
    cb = c % q * xbar[bs % q]     # below q^2, so a * cb stays below 10^16
    w = beta * (np.gcd(bs, q) == 1)
    # inner[a] = sum_{b <= B, (b,q)=1} beta_b e(c a b^{-1} / q), built in row
    # blocks of at most _BLOCK_ELEMENTS phases; einsum sums each row the same
    # way whatever the block (a BLAS matrix-vector product does not)
    inner = np.empty(A, dtype=np.complex128)
    step = max(1, _BLOCK_ELEMENTS // max(B, 1))
    for i in range(0, A, step):
        a = np.arange(i + 1, min(i + step, A) + 1)
        inner[i:i + len(a)] = np.einsum(
            "ab,b->a", np.exp(2j * np.pi * (np.outer(a, cb) % q) / q), w)
    value = complex(np.sum(alpha * np.abs(inner)))
    value = value.real if abs(value.imag) < 1e-12 * max(abs(value), 1.0) else abs(value)
    l2 = float(np.linalg.norm(alpha))
    linf = float(np.max(np.abs(beta))) if B else 0.0
    eps = math.log(max(q, 3)) ** 2
    bound = (l2 * linf * A**0.5 * B * eps
             * (A**-0.5 * B**-0.25 * q**0.25 + A**-0.5 + q**-0.5 + B**-0.5))
    return value, (abs(value) / bound if bound > 0 else float("inf"))


# ---------------------------------------------------------------------------
# Grid harness


def aq_grid_report(form: EigenformData, qs) -> list[dict]:
    """Max bound ratios for A_q over a (q, M, N) grid with M, N ~ 10 sqrt(q), M >= N."""
    rows = []
    for q in qs:
        for fM, fN in ((1.0, 1.0), (2.0, 0.5), (4.0, 0.25)):
            M = _AQ_SCALE * math.sqrt(q) * fM
            N = _AQ_SCALE * math.sqrt(q) * fN
            query = ConvolutionQuery(1, 1, M, N, q)
            val = shifted_conv_Aq(query, form)
            bound = thmAq_bound(query)
            rows.append(dict(q=q, M=M, N=N, a=1, b=1, value=val,
                             bound=bound, ratio=abs(val) / bound))
    return rows
