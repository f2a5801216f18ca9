"""The mixed first moment over primitive characters and its predicted main
term, computed by two independent routes sharing one residue-pair matrix.

Route 1 (brute): evaluate the triple-product AFE per character as the
quadratic form chi F chi^* (`_character_forms`, which the AFE of `lfunctions`
reads too) and average with the chi(b) conj(chi(a)) weight.

Route 2 (divisor): swap the character sum inside, apply the exact
orthogonality formula for primitive characters of fixed parity, and reduce
to divisor-indexed slices C_d^{+-} of the same matrix F.

Both routes average over the chi of one parity, chi(-1) = eps(f): only there
is the triple product's root number one, so F, its weight and its length X
are those of that parity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arith import (divisor_count_sieve, divisors, euler_phi, factorize,
                    is_admissible, moebius, phi_star)
from .characters import build_group, orthogonality_sum
from .eigenforms import EigenformData
from .lfunctions import L_one_f, afe_length, triple_weight, zeta_two

_REALNESS_TOL = 1e-8   # |Im| of the brute moment against its character sum's size
_C_AB_TOL = 1e-12      # the certified tail of each local factor of c_ab
_CHUNK = 2**14         # entries per chunk of the residue-pair pass


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
    moment: float            # the average over chi(-1) = eps(f), normalized by phi*(q)
    moment_im: float         # its imaginary part; 0 on the divisor route, real termwise
    chars_used: int          # primitive characters of that parity


def residue_pair_matrix(form: EigenformData, q: int, v_tol: float) -> np.ndarray:
    """F[u, v]: the sum over (mn, q) = 1, m = u, n = v (mod q) of
    (lambda(m) tau(n) + lambda(n) tau(m)) (mn)^{-1/2} V(mn / q^2), with V the
    triple weight of the form's parity, truncated at mn <= X, past which
    |V| < v_tol.

    With s = isqrt(X), every pair with mn <= X has a factor d <= s, so
    F = G + G^T where row d of G sums, over n <= X / d,
        (lambda(d) tau(n) + tau(d) lambda(n) [n > s]) (dn)^{-1/2} V(dn / q^2):
    the first term counts the pair (d, n), the second the pair (n, d) with
    n > s, so each ordered pair is counted once.  V(dn / q^2), n = 0, 1, ...
    is the strided view V[::d], and a row folds onto the residues n mod q as
    a reshape to (-1, q) and a sum.

    The pass is chunked.  V is built _CHUNK entries at a time.  The rows then
    run over chunks of n whose width is a multiple of q near _CHUNK, so n mod q
    stays aligned with the reshape.  Each chunk builds its own weights
    tau(n) / sqrt(n) and lambda(n) / sqrt(n), and adds every row's piece on
    it, in ascending d up to the first row that ends before the chunk starts.
    The arrays of length X are V and the 16-bit divisor sieve, so the peak is
    about two of them.
    """
    W = triple_weight(form)
    X = afe_length(form.weight, q, v_tol)
    if form.n_max < X:
        raise IndexError(f"residue-pair matrix needs lambda up to {X}")
    s = math.isqrt(X)
    tau = divisor_count_sieve(X)
    primes = [p for p, _ in factorize(q).factors]
    V = np.zeros(X + 1)
    for lo in range(1, X + 1, _CHUNK):
        hi = min(lo + _CHUNK, X + 1)
        V[lo:hi] = W(np.arange(lo, hi, dtype=np.float64) / (q * q))
    rows = []                                            # (d, c_lam, c_tau), ascending in d
    for d in range(1, s + 1):
        if math.gcd(d, q) == 1:
            w_d = 1.0 / math.sqrt(d)
            rows.append((d, tau[d] * w_d, form.lam[d] * w_d))

    G = np.zeros((q, q))
    width = min(max(1, _CHUNK // q), X // q + 1) * q     # n per chunk
    tau_w, lam_w = np.empty(width), np.empty(width)      # on the chunk, 0 off (n, q) = 1
    row, term = np.empty(width), np.empty(width)
    for n0 in range(0, X + 1, width):
        m = min(width, X + 1 - n0)                       # n = n0, ..., n0 + m - 1
        unit = np.ones(m, dtype=bool)                    # (n, q) = 1 for n = n0 + i
        for p in primes:
            unit[-n0 % p::p] = False
        unit[0] &= n0 > 0                                # n = 0 is no term
        inv_sqrt = np.zeros(m)
        np.divide(1.0, np.sqrt(np.arange(n0, n0 + m, dtype=np.float64)),
                  out=inv_sqrt, where=unit)
        np.multiply(tau[n0:n0 + m], inv_sqrt, out=tau_w[:m])
        np.multiply(form.lam[n0:n0 + m], inv_sqrt, out=lam_w[:m])
        lam_w[:max(0, s + 1 - n0)] = 0.0                 # the lambda(n) term needs n > s
        for d, c_lam, c_tau in rows:
            k = min(m, X // d + 1 - n0)                  # row d runs over n <= X // d
            if k <= 0:
                break
            np.multiply(lam_w[:k], c_lam, out=row[:k])
            row[:k] += np.multiply(tau_w[:k], c_tau, out=term[:k])
            np.multiply(V[n0 * d:(n0 + k) * d:d], row[:k], out=row[:k])
            end = -(-k // q) * q
            row[k:end] = 0.0
            G[d % q] += row[:end].reshape(-1, q).sum(axis=0)
    del V                                                # gone before F is formed
    return G + G.T


def _check_matrix(F: np.ndarray, q: int) -> None:
    if F.shape != (q, q):
        raise ValueError(f"F of shape {F.shape} is not the {q} x {q} matrix of q = {q}")


def _character_forms(F: np.ndarray, chars: np.ndarray) -> np.ndarray:
    """chi F chi^* for each row chi of chars, characters mod q = len(F).
    Since chi(u) conj(chi(v)) = chi(u / v) on units, it is sum_w chi(w) T[w],
    where T[w] = sum over units v of F[wv mod q, v]: one gather of q phi(q)
    entries.  This uses the complete multiplicativity of each chi, not
    orthogonality."""
    q = len(F)
    units = np.flatnonzero(np.gcd(np.arange(q), q) == 1)
    classes = np.outer(np.arange(q), units) % q         # wv mod q, (q, phi(q))
    return np.einsum("iu,u->i", chars, F[classes, units].sum(axis=1))


def brute_moment(form: EigenformData, query: MomentQuery, F: np.ndarray) -> MomentReport:
    """Per-character route: average chi(b) conj(chi(a)) chi F chi^* over the
    primitive chi of the form's parity, F the residue-pair matrix of q."""
    q, a, b = query.q, query.a, query.b
    _check_matrix(F, q)
    group = build_group(q)
    pstar = phi_star(q)
    C = group.values[group.primitive_indices(parity=form.epsilon)]
    vals = _character_forms(F, C)
    weight = C[:, b % q] * np.conj(C[:, a % q])
    moment = complex(np.sum(weight * vals)) / pstar
    # the moment can vanish structurally for special (q, a, b); judge the
    # imaginary part against the pre-cancellation size of the character sum
    scale = max(abs(moment), float(np.sum(np.abs(vals))) / pstar, 1e-30)
    if abs(moment.imag) > _REALNESS_TOL * scale:
        raise ArithmeticError(
            f"moment should be real; got imaginary part {moment.imag:.3e} "
            f"against magnitude {scale:.3e}")
    return MomentReport(query, moment.real, moment.imag, len(C))


def divisor_route_moment(form: EigenformData, query: MomentQuery, F: np.ndarray) -> MomentReport:
    """Orthogonality route: divisor-sliced sums of the same matrix F, real
    term by term."""
    q, a, b = query.q, query.a, query.b
    sigma = form.epsilon
    _check_matrix(F, q)
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
        np.add.at(S.T, col_cls, F.T)                # S[:, c] = sum_{v: av=c} F[:, v]
        plus = float(np.sum(S[u, (b * u) % d]))
        minus = float(np.sum(S[u, (-(b * u)) % d]))
        acc += coef * (plus + sigma * minus)
    return MomentReport(query, acc / (2 * phi_star(q)), 0.0,
                        int(orthogonality_sum(q, 1, 1, sigma)))


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
    main_theorem: float
    main_corollary: float
    ratio_theorem: float
    ratio_corollary: float
    chars_used: int


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


def _median(xs: list[float]) -> float:
    """The median of a non-empty list; np.median would import numpy.ma."""
    xs, h = sorted(xs), len(xs) // 2
    return xs[h] if len(xs) % 2 else (xs[h - 1] + xs[h]) / 2


def sweep(form: EigenformData, q_lo: int, q_hi: int, a: int = 1, b: int = 1,
          v_tol: float = 1e-9, progress=None) -> SweepSummary:
    """Moment vs main term across the valid q in [q_lo, q_hi]; progress, if
    given, is called with each row as soon as its q is done."""
    rows: list[SweepRow] = []
    queries = moment_queries(q_lo, q_hi, a, b)
    L1 = L_one_f(form)
    for query in queries:
        build_group(query.q)        # first, so that no F is held while the group is built
        rep = brute_moment(form, query, residue_pair_matrix(form, query.q, v_tol))
        mt = main_term(form, query, L1=L1)
        rows.append(SweepRow(
            query.q, a, b, form.label,
            rep.moment, rep.moment_im, mt.value_theorem, mt.value_corollary,
            rep.moment / mt.value_theorem, rep.moment / mt.value_corollary,
            rep.chars_used))
        if progress:
            progress(rows[-1])

    qs = np.array([r.q for r in rows], dtype=np.float64)
    top = qs >= qs.max() / 2
    med_th = _median([abs(r.ratio_theorem - 1) for r, t in zip(rows, top) if t])
    med_co = _median([abs(r.ratio_corollary - 1) for r, t in zip(rows, top) if t])
    winner = "theorem" if med_th <= med_co else "corollary"

    best = np.array([r.main_theorem if winner == "theorem" else r.main_corollary
                     for r in rows])
    dev = np.abs(np.array([r.brute_re for r in rows]) - best)
    mask = top & (dev > 0)
    slope = float(np.polyfit(np.log(qs[mask]), np.log(dev[mask]), 1)[0]) if mask.sum() > 2 else float("nan")
    return SweepSummary(rows, winner, med_th, med_co, slope)
