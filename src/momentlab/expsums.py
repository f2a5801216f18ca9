"""Kloosterman sums, Weil-bound certification, the cusp-sum identity, and
brute-force shifted convolution sums with empirical bound ratios.

All bound ratios instantiate the q^epsilon factor as (log q)^2 and are
reported, not asserted against 1; the only hard assertions are theorem-backed
(Weil) or exact (support vanishing).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .arith import divisor_count, divisor_count_sieve, divisors, euler_phi, moebius, phi_star
from .eigenforms import EigenformData
from .special import BumpFunction, standard_window


def kloosterman(m: int, n: int, c: int) -> float:
    """S(m, n; c) = sum over units x mod c of e((m x + n x^{-1}) / c).

    Exact root-of-unity phases summed in double precision (pairwise via
    numpy, which keeps the error well under c * 1e-15); the imaginary part
    must cancel and is checked.
    """
    if c < 1:
        raise ValueError("modulus must be positive")
    if c > 10**6:
        raise ValueError("modulus capped at 1e6 for direct summation")
    if c == 1:
        return 1.0
    x = np.arange(c)
    units = np.gcd(x, c) == 1
    x = x[units]
    # batched modular inverse: x^{phi(c)-1} mod c via Python pow (exact)
    phi = euler_phi(c)
    inv = np.array([pow(int(v), phi - 1, c) for v in x], dtype=np.int64)
    phase = (m * x + n * inv) % c
    total = np.sum(np.exp(2j * np.pi * phase / c))
    if abs(total.imag) > 1e-9 * c:
        raise ArithmeticError(f"S({m},{n};{c}) imaginary part {total.imag:.3e}")
    return float(total.real)


def kloosterman_cusp(m: int, n: int, u: int, v: int, w: int) -> complex:
    """Cusp-pair Kloosterman sum at modulus u sqrt(v) w for the cusp 1/u:

        e(n u^{-1 mod v} / v) * S(m v^{-1 mod uw}, n; u w)
    """
    if math.gcd(u, v) != 1 or math.gcd(w, v) != 1:
        raise ValueError("(u, v) = (w, v) = 1 required")
    uw = u * w
    u_inv = pow(u, -1, v) if v > 1 else 0
    v_inv = pow(v, -1, uw) if uw > 1 else 0
    prefactor = np.exp(2j * np.pi * n * u_inv / v) if v > 1 else 1.0 + 0j
    return complex(prefactor * kloosterman(m * v_inv if uw > 1 else m, n, uw))


@dataclass(frozen=True)
class WeilReport:
    c_max: int
    max_ratio: float
    argmax: tuple[int, int, int]   # (m, n, c)
    cells: int


def weil_certify(c_max: int = 500, grid: int = 20) -> WeilReport:
    """|S(m,n;c)| <= d(c) (m,n,c)^{1/2} c^{1/2} on a grid; violation is fatal.

    For each c all grid^2 sums come at once from a table of the c-th roots of
    unity indexed by (m x + n xbar) mod c; cells are scanned in (c, m, n)
    order, and the first violation, or the first cell of the largest ratio,
    is the one reported.
    """
    if c_max > 500:
        raise ValueError("certification capped at c <= 500")
    best = 0.0
    arg = (0, 0, 0)
    cells = 0
    ms = np.arange(1, grid + 1)
    for c in range(1, c_max + 1):
        if c == 1:
            s = np.ones((grid, grid))
        else:
            x = np.arange(c)
            units = x[np.gcd(x, c) == 1]
            phi = euler_phi(c)
            inv = np.array([pow(int(t), phi - 1, c) for t in units], dtype=np.int64)
            roots = np.exp(2j * np.pi * np.arange(c) / c)
            idx = (ms[:, None, None] * units + ms[None, :, None] * inv) % c
            s = np.sum(roots[idx], axis=-1).real
        bound = divisor_count(c) * np.sqrt(np.gcd(ms[:, None], np.gcd(ms[None, :], c)) * c)
        ratio = np.abs(s) / bound
        cells += ratio.size
        bad = ratio > 1.0 + 1e-9
        if bad.any():
            i, j = np.unravel_index(np.argmax(bad), bad.shape)
            raise AssertionError(f"Weil bound violated at S({i + 1},{j + 1};{c}) = "
                                 f"{float(s[i, j])}: ratio {float(ratio[i, j])}")
        i, j = np.unravel_index(np.argmax(ratio), ratio.shape)
        if ratio[i, j] > best:
            best, arg = float(ratio[i, j]), (int(i) + 1, int(j) + 1, c)
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


def shifted_conv_Aq(query: ConvolutionQuery, form: EigenformData,
                    budget: int = 10**7) -> float:
    """A_q = sum over bm = +-an (mod q), bm != an, of
    lambda(m) tau(n) W(bm/M) W(an/N), by direct congruence enumeration."""
    a, b, q = query.a, query.b, query.q
    W = query.windows()
    m_lo, m_hi, n_lo, n_hi = _support_ranges(query)
    n_count = max(0, n_hi - n_lo + 1)
    # pairs surviving the congruence: roughly 2/q of the rectangle
    est = (m_hi - m_lo + 1) * (2 * (n_count // q + 1))
    if est > budget:
        raise ValueError(f"candidate pair estimate {est} exceeds budget {budget}")
    if m_hi > form.n_max:
        raise IndexError(f"need lambda up to {m_hi}")
    tau = divisor_count_sieve(max(n_hi, 1))
    ns = np.arange(n_lo, n_hi + 1)
    an = a * ns
    wn = W(an / query.N) * tau[ns]
    an_mod = an % q
    # bucket n by residue class of an mod q
    order = np.argsort(an_mod, kind="stable")
    an_mod_sorted = an_mod[order]
    starts = np.searchsorted(an_mod_sorted, np.arange(q + 1))
    wms = W(b * np.arange(m_lo, m_hi + 1) / query.M).tolist()
    total = 0.0
    for m, wm in zip(range(m_lo, m_hi + 1), wms):
        if wm == 0.0:
            continue
        bm = b * m
        lam_w = float(form.lam[m]) * wm
        for sgn in (1, -1):
            r = (sgn * bm) % q
            sel = order[starts[r]:starts[r + 1]]
            if sel.size == 0:
                continue
            mask = an[sel] != bm
            total += lam_w * float(np.sum(wn[sel[mask]]))
    return total


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


def thmAq_ratio(query: ConvolutionQuery, form: EigenformData) -> float:
    return abs(shifted_conv_Aq(query, form)) / thmAq_bound(query)


# ---------------------------------------------------------------------------
# E_{M,N} and trivial bounds


def emn_brute(M: float, N: float, a: int, b: int, q: int, form: EigenformData,
              window1: BumpFunction | None = None,
              window2: BumpFunction | None = None,
              budget: int = 10**7) -> float:
    """E_{M,N} = (1/phi*(q)) sum_{d|q} phi(d) mu(q/d) (MN)^{-1/2}
    sum_{bm = +-an (d), bm != an, (mn,q)=1} lambda(m) tau(n) W1(m/M) W2(n/N)."""
    W1 = window1 or standard_window()
    W2 = window2 or standard_window()
    lo1, hi1 = W1.support
    lo2, hi2 = W2.support
    m_lo, m_hi = max(1, int(lo1 * M)), int(math.ceil(hi1 * M))
    n_lo, n_hi = max(1, int(lo2 * N)), int(math.ceil(hi2 * N))
    if (m_hi - m_lo + 1) * (n_hi - n_lo + 1) > budget * q:
        raise ValueError("pair budget exceeded")
    if m_hi > form.n_max:
        raise IndexError(f"need lambda up to {m_hi}")
    tau = divisor_count_sieve(max(n_hi, 1))
    ns = np.arange(n_lo, n_hi + 1)
    ns = ns[np.gcd(ns, q) == 1]
    wn = W2(ns / N) * tau[ns]
    an = a * ns
    wms = W1(np.arange(m_lo, m_hi + 1) / M).tolist()
    total = 0.0
    for d in divisors(q):
        mu = moebius(q // d)
        if mu == 0:
            continue
        an_mod = an % d
        order = np.argsort(an_mod, kind="stable")
        starts = np.searchsorted(an_mod[order], np.arange(d + 1))
        inner = 0.0
        for m, wm in zip(range(m_lo, m_hi + 1), wms):
            if math.gcd(m, q) != 1:
                continue
            if wm == 0.0:
                continue
            bm = b * m
            lam_w = float(form.lam[m]) * wm
            residues = {(bm) % d, (-bm) % d}
            for r in residues:
                sel = order[starts[r]:starts[r + 1]]
                if sel.size:
                    mask = an[sel] != bm
                    inner += lam_w * float(np.sum(wn[sel[mask]]))
        total += euler_phi(d) * mu * inner
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


def bilinear_incomplete(alpha, beta, c: int, q: int,
                        A: int | None = None, B: int | None = None) -> tuple[float, float]:
    """(value, bound_ratio) for sum_{a<=A} alpha_a |sum_{b<=B, (b,q)=1}
    beta_b e(c a b^{-1} / q)|, against the incomplete-Kloosterman bilinear
    bound with epsilon factor (log q)^2."""
    alpha = np.asarray(alpha, dtype=np.complex128)
    beta = np.asarray(beta, dtype=np.complex128)
    A = A or len(alpha)
    B = B or len(beta)
    if A > 10**4 or B > 10**4:
        raise ValueError("A, B capped at 1e4")
    if math.gcd(c, q) != 1:
        raise ValueError("(c, q) = 1 required")
    bs = np.arange(1, B + 1)
    unit = np.gcd(bs, q) == 1
    binv = np.array([pow(int(bb), -1, q) if u else 0 for bb, u in zip(bs, unit)],
                    dtype=np.int64)
    # inner[a] = sum_{b <= B, (b,q)=1} beta_b e(c a b^{-1} / q)
    mat_phase = np.exp(2j * np.pi * (np.outer(np.arange(1, A + 1), c * binv) % q) / q)
    inner_vals = mat_phase @ (beta[:B] * unit)
    value = complex(np.sum(alpha[:A] * np.abs(inner_vals)))
    value = value.real if abs(value.imag) < 1e-12 * max(abs(value), 1.0) else abs(value)
    l2 = float(np.linalg.norm(alpha[:A]))
    linf = float(np.max(np.abs(beta[:B]))) if B else 0.0
    eps = math.log(max(q, 3)) ** 2
    bound = (l2 * linf * A**0.5 * B * eps
             * (A**-0.5 * B**-0.25 * q**0.25 + A**-0.5 + q**-0.5 + B**-0.5))
    return value, (abs(value) / bound if bound > 0 else float("inf"))


# ---------------------------------------------------------------------------
# Grid harness


def aq_grid_report(form: EigenformData, qs, scale: float = 10.0,
                   csv_path=None) -> list[dict]:
    """Max bound ratios for A_q over a (q, M, N) grid with M, N ~ scale sqrt(q)."""
    rows = []
    for q in qs:
        for fM, fN in ((1.0, 1.0), (2.0, 0.5), (4.0, 0.25)):
            M = scale * math.sqrt(q) * fM
            N = scale * math.sqrt(q) * fN
            if M < N:
                continue
            query = ConvolutionQuery(1, 1, M, N, q)
            val = shifted_conv_Aq(query, form)
            bound = thmAq_bound(query)
            rows.append(dict(q=q, M=M, N=N, a=1, b=1, value=val,
                             bound=bound, ratio=abs(val) / bound))
    if csv_path:
        with open(csv_path, "w", newline="") as fh:
            w = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
            w.writeheader()
            w.writerows(rows)
    return rows
