"""The mixed first moment over primitive characters and its predicted main
term, computed by two independent routes sharing one residue-pair matrix.

Route 1 (brute): evaluate the triple-product AFE per character as a
quadratic form chi F chi^* and average with the chi(b) conj(chi(a)) weight.

Route 2 (divisor): swap the character sum inside, apply the exact
orthogonality formula for primitive characters of fixed parity, and reduce
to divisor-indexed slices C_d^{+-} of the same matrix F.

Both routes work for either parity; the physical moment is the one whose
parity matches the form's root number (the other parity pairs to zero
central values but is still a well-defined diagnostic quantity).
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arith import (divisor_count_sieve, divisors, euler_phi, factorize,
                    is_admissible, moebius, phi_star)
from .characters import build_group, orthogonality_sum
from .eigenforms import EigenformData
from .lfunctions import L_one_f, triple_weight, zeta_two

_REALNESS_TOL = 1e-8   # |Im| of the brute moment against its character sum's size
_C_AB_TOL = 1e-12      # the certified tail of each local factor of c_ab


@dataclass(frozen=True)
class MomentQuery:
    """Parameters (q; a, b) of the mixed moment, validated at construction."""

    q: int
    a: int = 1
    b: int = 1

    def __post_init__(self):
        # the shifts first: a rule that no q can meet is the one to report
        if self.a < 1 or self.b < 1:
            raise ValueError("shift parameters must be positive")
        if self.q < 3:
            raise ValueError("modulus must be at least 3")
        if not is_admissible(self.q):
            raise ValueError(f"q = {self.q} = 2 (mod 4) has no primitive characters")
        if math.gcd(self.a * self.b, self.q) != 1:
            raise ValueError("(ab, q) = 1 required")


@dataclass
class MomentReport:
    query: MomentQuery
    m_even: complex          # parity +1 moment (normalized by phi*(q))
    m_odd: complex           # parity -1 moment
    moment: float            # the physical one: parity = eps(f)
    chars_used: int          # primitive characters of the physical parity
    seconds: float


def residue_pair_matrix(form: EigenformData, q: int, v_tol: float) -> dict[int, np.ndarray]:
    """{1: F_even, -1: F_odd}, where F_sigma[u, v] is the sum over (mn, q) = 1,
    m = u, n = v (mod q) of (lambda(m) tau(n) + lambda(n) tau(m)) (mn)^{-1/2}
    V_sigma(mn / q^2), truncated at mn <= X_sigma, past which |V_sigma| < v_tol.

    Both parities come from one pass with X = max X_sigma and s = isqrt(X).
    Every pair with mn <= X has a factor d <= s, so F = G + G^T where row d
    of G sums, over n <= X / d,
        (lambda(d) tau(n) + tau(d) lambda(n) [n > s]) (dn)^{-1/2} V(dn / q^2):
    the first term counts the pair (d, n), the second the pair (n, d) with
    n > s, so each ordered pair is counted once.  V(dn / q^2), n = 0, 1, ...
    is the strided view V[::d], and a row folds onto the residues n mod q as
    a reshape to (-1, q) and a sum.  Each V_sigma is stored as 0 past its own
    X_sigma, so each parity keeps its own truncation.
    """
    weights = [triple_weight(form, a) for a in (0, 1)]   # V_a for sigma = +1, -1
    cutoffs = [int(math.ceil(W.cutoff(v_tol) * q * q)) for W in weights]
    X = max(cutoffs)
    if form.n_max < X:
        raise IndexError(f"residue-pair matrix needs lambda up to {X}")
    s = math.isqrt(X)
    tau = divisor_count_sieve(X)
    ns = np.arange(X + 1, dtype=np.float64)
    V = np.zeros((2, X + 1))
    for a, (W, X_a) in enumerate(zip(weights, cutoffs)):
        V[a, 1:X_a + 1] = W(ns[1:X_a + 1] / (q * q))
    inv_sqrt = np.sqrt(ns, out=ns)                       # ns is spent once V is built
    np.divide(1.0, inv_sqrt[1:], out=inv_sqrt[1:])
    unit = np.ones(X + 1, dtype=bool)                    # (n, q) = 1; n = 0 is cleared too
    for p, _ in factorize(q).factors:
        unit[::p] = False
    tau_w = np.where(unit, tau * inv_sqrt, 0.0)          # tau(n) / sqrt(n), (n, q) = 1
    lam_w = np.where(unit, form.lam[:X + 1] * inv_sqrt, 0.0)
    lam_w[:s + 1] = 0.0                                  # lambda(n) / sqrt(n), n > s

    G = np.zeros((2, q, q))
    fold = np.empty((2, (X // q + 1) * q))               # one buffer for every row
    for d in range(1, s + 1):
        if not unit[d]:
            continue
        L = X // d + 1                                   # n = 0, ..., X // d
        row = lam_w[:L] * (tau[d] * inv_sqrt[d])
        row += tau_w[:L] * (form.lam[d] * inv_sqrt[d])
        np.multiply(V[:, ::d], row, out=fold[:, :L])
        width = -(-L // q) * q
        fold[:, L:width] = 0.0
        G[:, d % q] += fold[:, :width].reshape(2, -1, q).sum(axis=1)
    F = G + G.transpose(0, 2, 1)
    return {1: F[0], -1: F[1]}


def brute_moment(form: EigenformData, query: MomentQuery,
                 v_tol: float = 1e-12,
                 F_by_parity: dict[int, np.ndarray] | None = None) -> MomentReport:
    """Per-character route: average chi(b) conj(chi(a)) chi F chi^*."""
    t0 = time.time()
    q, a, b = query.q, query.a, query.b
    group = build_group(q)
    pstar = phi_star(q)
    results = {}
    chars_phys = 0
    gross = 0.0
    if F_by_parity is None:
        F_by_parity = residue_pair_matrix(form, q, v_tol)
    for sigma, F in F_by_parity.items():
        idx = group.primitive_indices(parity=sigma)
        C = group.values[idx]                       # (n_sigma, q)
        vals = np.einsum("iu,uv,iv->i", C, F, np.conj(C), optimize=True)
        weight = C[:, b % q] * np.conj(C[:, a % q])
        results[sigma] = complex(np.sum(weight * vals)) / pstar
        if sigma == form.epsilon:
            chars_phys = len(idx)
            gross = float(np.sum(np.abs(vals))) / pstar
    phys = results[form.epsilon]
    # the moment can vanish structurally for special (q, a, b); judge the
    # imaginary part against the pre-cancellation size of the character sum
    scale = max(abs(phys), gross, 1e-30)
    if abs(phys.imag) > _REALNESS_TOL * scale:
        raise ArithmeticError(
            f"moment should be real; got imaginary part {phys.imag:.3e} "
            f"against magnitude {scale:.3e}")
    return MomentReport(query, results[1], results[-1], phys.real,
                        chars_phys, time.time() - t0)


def divisor_route_moment(form: EigenformData, query: MomentQuery,
                         v_tol: float = 1e-12,
                         F_by_parity: dict[int, np.ndarray] | None = None) -> MomentReport:
    """Orthogonality route: divisor-sliced sums of the same matrix F."""
    t0 = time.time()
    q, a, b = query.q, query.a, query.b
    pstar = phi_star(q)
    results = {}
    if F_by_parity is None:
        F_by_parity = residue_pair_matrix(form, q, v_tol)
    for sigma, F in F_by_parity.items():
        acc = 0.0
        for d in divisors(q):
            mu = moebius(q // d)
            if mu == 0:
                continue
            coef = euler_phi(d) * mu
            u = np.arange(q)
            # columns grouped by a*v mod d, then rows pick b*u (+-) classes
            col_cls = (a * u) % d
            S = np.zeros((q, d))
            np.add.at(S.T, col_cls, F.T)            # S[:, c] = sum_{v: av=c} F[:, v]
            plus = float(np.sum(S[u, (b * u) % d]))
            minus = float(np.sum(S[u, (-(b * u)) % d]))
            acc += coef * (plus + sigma * minus)
        results[sigma] = acc / (2 * pstar)
    phys = results[form.epsilon]
    return MomentReport(query, results[1], results[-1], float(phys),
                        int(orthogonality_sum(q, 1, 1, form.epsilon)), time.time() - t0)


# ---------------------------------------------------------------------------
# Predicted main term


@dataclass(frozen=True)
class MainTerm:
    value_theorem: float     # with the leading constant c_f = 1/2
    value_corollary: float   # alternative normalization: twice that
    euler_factor: float
    shift_factor: float      # (c_{a,b} + c_{b,a}) / sqrt(ab)
    L_one_sq_over_zeta2: float
    c_ab_tail_bound: float


def c_ab(form: EigenformData, a: int, b: int) -> tuple[float, float]:
    """sum over a1 | a^inf, b1 | b^inf of lambda(a a1 b1) tau(b a1 b1)/(a1 b1),
    with a certified tail bound from |lambda(p^k)| <= k + 1.

    The sum factors over the primes of ab: writing e = v_p(a1 b1), the local
    factor is sum_e c_e lambda(p^{alpha+e}) (beta + e + 1) p^{-e}, where
    c_e = e + 1 when p divides both a and b (two free exponents) and 1
    otherwise.  Only lambda(p) is needed; higher prime powers come from the
    Hecke recursion lambda(p^{k+1}) = lambda(p) lambda(p^k) - lambda(p^{k-1}).
    """
    a_fac = dict(factorize(a).factors)
    b_fac = dict(factorize(b).factors)
    support = sorted(set(a_fac) | set(b_fac))
    total = 1.0
    rel_tail = 0.0
    for p in support:
        alpha = a_fac.get(p, 0)
        beta = b_fac.get(p, 0)
        lam_p = float(form.lam_at(p))
        lam_pow = [1.0, lam_p]          # lambda(p^k)

        def lam_at_power(k):
            while len(lam_pow) <= k:
                lam_pow.append(lam_p * lam_pow[-1] - lam_pow[-2])
            return lam_pow[k]

        local = 0.0
        e = 0
        while True:
            mult = (e + 1) if (alpha and beta) else 1
            local += mult * lam_at_power(alpha + e) * (beta + e + 1) / p**e
            e += 1
            # majorant of the remaining terms: (e+1)(alpha+e+1)(beta+e+1)/p^e
            # with ratio <= (1 + 1/(e+1))^3 / p < 1 once e is moderate
            t_e = (e + 1) * (alpha + e + 1) * (beta + e + 1) / p**e
            ratio = (1 + 1 / (e + 1)) ** 3 / p
            if e >= 8 and ratio < 1 and t_e / (1 - ratio) < _C_AB_TOL:
                tail_p = t_e / (1 - ratio)
                break
        rel_tail += tail_p / max(abs(local), _C_AB_TOL)
        total *= local
    return total, abs(total) * rel_tail + rel_tail * _C_AB_TOL


def main_term(form: EigenformData, query: MomentQuery,
              L1: float | None = None) -> MainTerm:
    """Conjectural leading term of the physical moment."""
    q, a, b = query.q, query.a, query.b
    if not form.is_holomorphic:
        raise NotImplementedError("main-term constant implemented for holomorphic forms")
    euler = 1.0
    for p in sorted({p for n in (q, a, b) for p, _ in factorize(n).factors}):
        lam_p = float(form.lam_at(p))
        euler *= (1.0 - lam_p / p + 1.0 / p**2) / (1.0 - 1.0 / p**2) ** 2
    cab, tail1 = c_ab(form, a, b)
    cba, tail2 = c_ab(form, b, a)
    shift = (cab + cba) / math.sqrt(a * b)
    if L1 is None:
        L1 = L_one_f(form)
    l_part = L1 * L1 / zeta_two()
    c_f = 0.5
    value = c_f * euler * shift * l_part
    return MainTerm(value, 2.0 * value, euler, shift, l_part, tail1 + tail2)


# ---------------------------------------------------------------------------
# Exact error-exponent budgets


@dataclass(frozen=True)
class ExponentBudget:
    theta: Fraction
    beta: Fraction
    balanced: Fraction       # exponent from the balanced ranges
    unbalanced: Fraction     # exponent from the unbalanced ranges
    eta: Fraction            # overall saving


def error_exponent(theta: Fraction = Fraction(0), beta: Fraction = Fraction(0),
                   alpha: Fraction = Fraction(0)) -> ExponentBudget:
    """Exact rational error exponents of the moment asymptotic.

    theta is the progression-toward-Ramanujan exponent, beta the shift-size
    allowance, alpha the balanced-range parameter.
    """
    theta, beta, alpha = Fraction(theta), Fraction(beta), Fraction(alpha)
    if not 0 <= theta < Fraction(1, 2):
        raise ValueError("theta must lie in [0, 1/2)")
    if beta < 0 or alpha < 0:
        raise ValueError("beta and alpha must be nonnegative")
    balanced = Fraction(1, 20) - 3 * alpha / 10
    unbalanced = (1 - 2 * theta) / (22 + 16 * theta) - beta * (3 + 2 * theta) / (11 + 8 * theta)
    eta = min((1 - 2 * theta) / (12 + 12 * theta),
              (1 - 2 * theta - (6 + 4 * theta) * beta) / (22 + 16 * theta))
    return ExponentBudget(theta, beta, balanced, unbalanced, eta)


# ---------------------------------------------------------------------------
# Moment sweep with normalization adjudication


@dataclass
class SweepRow:
    q: int
    a: int
    b: int
    form: str
    brute_re: float
    brute_im: float
    m_even: float
    m_odd: float
    main_theorem: float
    main_corollary: float
    ratio_theorem: float
    ratio_corollary: float
    chars_used: int
    seconds: float


@dataclass
class SweepSummary:
    rows: list[SweepRow]
    winner: str                  # "theorem" or "corollary"
    median_dev_theorem: float    # |ratio - 1| medians on the top dyadic block
    median_dev_corollary: float
    error_exponent_fit: float    # slope of log |M - MT| against log q (top half)


def moment_queries(q_lo: int, q_hi: int, a: int, b: int) -> list[MomentQuery]:
    """The queries (q; a, b), q in [q_lo, q_hi], that MomentQuery accepts.  A
    range with none is an error naming the rules its q broke (for one q,
    MomentQuery's own), raised before any table is built."""
    queries, broken = [], {}
    for q in range(q_lo, q_hi + 1):
        try:
            queries.append(MomentQuery(q, a, b))
        except ValueError as exc:
            if q_lo == q_hi:
                raise
            broken[str(exc)] = None
    if not queries:
        raise ValueError(f"no valid q in [{q_lo}, {q_hi}]: {'; '.join(broken)}")
    return queries


def sweep(form: EigenformData, q_lo: int, q_hi: int, a: int = 1, b: int = 1,
          v_tol: float = 1e-9, out: str | None = None, progress=None) -> SweepSummary:
    """Moment vs main term across the valid q in [q_lo, q_hi]; with out, the
    rows are written to out as CSV and to out + ".jsonl" as JSON lines."""
    rows: list[SweepRow] = []
    queries = moment_queries(q_lo, q_hi, a, b)
    L1 = L_one_f(form)
    for query in queries:
        rep = brute_moment(form, query, v_tol=v_tol)
        mt = main_term(form, query, L1=L1)
        rows.append(SweepRow(
            query.q, a, b, form.label,
            rep.moment, float(complex(rep.m_even).imag if form.epsilon == 1
                              else complex(rep.m_odd).imag),
            float(complex(rep.m_even).real), float(complex(rep.m_odd).real),
            mt.value_theorem, mt.value_corollary,
            rep.moment / mt.value_theorem, rep.moment / mt.value_corollary,
            rep.chars_used, rep.seconds))
        if progress:
            progress(rows[-1])

    qs = np.array([r.q for r in rows], dtype=np.float64)
    top = qs >= qs.max() / 2
    med_th = float(np.median([abs(r.ratio_theorem - 1) for r, t in zip(rows, top) if t]))
    med_co = float(np.median([abs(r.ratio_corollary - 1) for r, t in zip(rows, top) if t]))
    winner = "theorem" if med_th <= med_co else "corollary"

    best = np.array([r.main_theorem if winner == "theorem" else r.main_corollary
                     for r in rows])
    dev = np.abs(np.array([r.brute_re for r in rows]) - best)
    mask = top & (dev > 0)
    slope = float(np.polyfit(np.log(qs[mask]), np.log(dev[mask]), 1)[0]) if mask.sum() > 2 else float("nan")

    if out:
        with open(out, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow([f.name for f in SweepRow.__dataclass_fields__.values()])
            for r in rows:
                w.writerow([getattr(r, f) for f in SweepRow.__dataclass_fields__])
        with open(out + ".jsonl", "w") as fh:
            for r in rows:
                fh.write(json.dumps({f: getattr(r, f) for f in SweepRow.__dataclass_fields__}) + "\n")
    return SweepSummary(rows, winner, med_th, med_co, slope)
