"""Critical-point L-values: AFE weights, the triple-product AFE, and
independent oracle routes (Hurwitz-zeta Dirichlet values, a single twisted
AFE, smoothed L(1, f)).

The triple-product AFE of one character chi is chi F conj(chi), with F the
residue-pair matrix of `moments`: the oracle routes check the same matrix
the moment averages.

The Mellin-Barnes weight V(x) is evaluated by trapezoid quadrature on a
vertical line: Re s = 3 for x > 1, and Re s = -1/4 (past the 1/s pole,
picking up the residue 1) for x <= 1 so small-x values are free of the
x^{-c} cancellation blow-up.  Values are memoized on a log-spaced grid
with one quintic spline in log x across both halves.  The Gamma factors use
special._log_gamma and the spline special._UniformSpline: NumPy only.

The grid is uniform in log x with step D = ln 10 / 120, and the contour
nodes t_k = t_0 + k h are uniform in t with h D = 2 pi / L (L = 6549,
h = 0.0500000496).  On each half-line, with x_m = e^{+-m D} the m-th grid
point away from x = 1, x_m^{-c - i t_k} = x_m^{-c} e^{-+i t_0 m D}
e^{-+2 pi i k m / L}: one length-L FFT gives the sum at every grid point
at once, and at every integer m < L.  So the 50 points past 1e-12 and
past 1e6 that the spline needs come free from the same FFTs.
`weight_V_reference` stays a direct sum over a refined contour, the oracle
of the FFT build.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .characters import CharacterGroup, GaussData, gauss_eps
from .eigenforms import EigenformData
from .special import _BERNOULLI, _SPLINE_PAD, _UniformSpline, _log_gamma

_GRID_LO, _GRID_HI = 1e-12, 1e6
_GRID_PER_DECADE = 120
_GRID_STEP = math.log(10) / _GRID_PER_DECADE
# the FFT length L that puts a contour step near 0.05 on the grid: h D = 2 pi / L
_CONTOUR_FFT_LEN = round(2 * math.pi / (0.05 * _GRID_STEP))
_CONTOUR_T = 40.0
_CONTOUR_H = 2 * math.pi / (_CONTOUR_FFT_LEN * _GRID_STEP)
_AFE_TOL = 1e-12     # afe_triple_product truncates where |V| stays below this


class ParityVanishing(ValueError):
    """AFE requested for a character with root number epsilon(f, chi) = -1."""


def _log_gamma_ratio_twist(k: int):
    """log of L_inf(1/2+s, f x chi) normalized at s=0, f of weight k; the
    factor is the same for both parities of chi."""
    def log_G(s):
        return -s * np.log(2 * np.pi) + _log_gamma(k / 2 + s) - _log_gamma(k / 2)
    return log_G


def _log_gamma_ratio_triple(k: int):
    """log of L_inf(1/2+s, f x chi) L_inf(1/2+s, conj chi)^2 normalized at s=0,
    for the chi with chi(-1) = (-1)^a = eps(f) = (-1)^{k/2}: the only parity
    whose triple product has root number one, so a = (k/2) mod 2."""
    a = (k // 2) % 2
    log_twist = _log_gamma_ratio_twist(k)

    def log_G(s):
        return log_twist(s) + 2 * (-(s / 2) * np.log(np.pi)
                                   + _log_gamma((0.5 + s + a) / 2) - _log_gamma((0.5 + a) / 2))
    return log_G


def check_tolerance(tol: float) -> None:
    """A weight tolerance must be finite and > 0: at 0 or NaN the cutoff is x = 1e6."""
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tolerance must be finite and > 0, got {tol}")


@dataclass
class WeightFunction:
    """Memoized inverse-Mellin weight x -> (1/2 pi i) int G(s) x^{-s} ds / s."""

    _spline: _UniformSpline         # over log x in [log 1e-12, log 1e6]
    grid_x: np.ndarray
    grid_v: np.ndarray

    def __call__(self, x):
        x = np.asarray(x, dtype=np.float64)
        if not np.all(np.isfinite(x) & (x > 0)):
            raise ValueError("weight argument must be positive and finite")
        out = np.where(x > _GRID_HI, 0.0, self._spline(np.log(np.maximum(x, _GRID_LO))))
        return float(out) if out.ndim == 0 else out

    def cutoff(self, tol: float) -> float:
        """Smallest grid x beyond which |V| stays below tol."""
        check_tolerance(tol)
        above = np.flatnonzero(~(np.abs(self.grid_v) < tol))   # NaN counts as above
        if above.size == 0:
            return float(self.grid_x[0])
        return float(self.grid_x[min(above[-1] + 1, len(self.grid_x) - 1)])


def _contour_values(log_G, c: float, T: float, h: float):
    t = np.arange(-T, T + h / 2, h)
    s = c + 1j * t
    return t, np.exp(log_G(s)) / s


def _build_weight(log_G) -> WeightFunction:
    n_lo = int(round(-math.log10(_GRID_LO))) * _GRID_PER_DECADE + 1
    n_hi = int(round(math.log10(_GRID_HI))) * _GRID_PER_DECADE + 1

    # x <= 1: contour at Re s = -1/4 (past 1/s), residue 1 added back;
    # x > 1: contour at Re s = 3.  Both halves run away from x = 1,
    # x_m = e^{sign m D}, so the phases that round worst meet the smallest x^{-c}
    halves = []
    for n, c, residue, sign in ((n_lo, -0.25, 1.0, -1), (n_hi, 3.0, 0.0, 1)):
        t, g = _contour_values(log_G, c, _CONTOUR_T, _CONTOUR_H)
        # sum_k g_k e^{-2 pi i sign k m / L} for m = 0, ..., n + pad - 1 < L
        sums = (np.fft.fft(g, _CONTOUR_FFT_LEN) if sign > 0
                else np.fft.ifft(g, _CONTOUR_FFT_LEN, norm="forward"))
        m = np.arange(n + _SPLINE_PAD)
        phases = np.exp(-sign * m * _GRID_STEP * (c + 1j * t[0]))    # x_m^-c e^{-+i t_0 m D}
        halves.append(residue + (_CONTOUR_H / (2 * np.pi)) * np.real(phases * sums[m]))

    # increasing x, x = 1 taken once from the Re s = -1/4 half
    samples = np.concatenate([halves[0][::-1], halves[1][1:]])
    spline = _UniformSpline(-(n_lo - 1 + _SPLINE_PAD) * _GRID_STEP, _GRID_STEP, samples)
    grid_x = np.concatenate([np.logspace(math.log10(_GRID_LO), 0.0, n_lo),
                             np.logspace(0.0, math.log10(_GRID_HI), n_hi)[1:]])
    grid_v = samples[_SPLINE_PAD:-_SPLINE_PAD]
    # shared through _cached_weight by every later caller
    grid_x.flags.writeable = grid_v.flags.writeable = False
    return WeightFunction(spline, grid_x, grid_v)


@lru_cache(maxsize=8)
def _cached_weight(log_gamma_ratio, *args) -> WeightFunction:
    """The weight of log_gamma_ratio(*args), built once."""
    return _build_weight(log_gamma_ratio(*args))


def triple_weight(form: EigenformData) -> WeightFunction:
    """The weight of the triple-product AFE, at the characters of the form's
    own parity."""
    return _cached_weight(_log_gamma_ratio_triple, form.weight)


def twist_weight(form: EigenformData) -> WeightFunction:
    """V_f: the weight of the twisted AFE, one for both parities of chi."""
    return _cached_weight(_log_gamma_ratio_twist, form.weight)


def weight_V_reference(x: float, form: EigenformData) -> float:
    """Refined-quadrature oracle of triple_weight(form): T doubled, h halved,
    no interpolation."""
    log_G = _log_gamma_ratio_triple(form.weight)
    c = -0.25 if x <= 1.0 else 3.0
    t, g = _contour_values(log_G, c, 2 * _CONTOUR_T, _CONTOUR_H / 2)
    val = (_CONTOUR_H / 2) / (2 * np.pi) * np.real(np.sum(x ** (-c - 1j * t) * g))
    return float(val + (1.0 if x <= 1.0 else 0.0))


# ---------------------------------------------------------------------------
# Root numbers


@dataclass(frozen=True)
class RootNumbers:
    eps_chi: complex
    eps_of_chi: complex      # i^{-a} eps_chi
    eps_twist: complex       # eps(f x chi)
    eps_pair: int            # eps(f, chi) in {-1, +1}


def root_numbers(group: CharacterGroup, index: int, form: EigenformData) -> RootNumbers:
    gd: GaussData = gauss_eps(group, index)
    sigma = int(group.parity[index])
    return RootNumbers(gd.eps_chi, gd.eps, form.epsilon * gd.eps_chi**2, sigma * form.epsilon)


# ---------------------------------------------------------------------------
# Triple-product AFE


def afe_triple_product(group: CharacterGroup, indices,
                       form: EigenformData) -> list[complex]:
    """L(1/2, f x chi) L(1/2, conj chi)^2 via the two-sum AFE, for each
    character index in the sequence ``indices`` of one modulus.

    Requires primitive characters with eps(f, chi) = +1, that is of the
    form's parity; every index is checked before anything is built.  Truncates
    where the weight has decayed below _AFE_TOL.  Each value is the quadratic
    form chi F conj(chi) of the residue-pair matrix F that the moment
    averages, built once for all the indices.
    """
    from .moments import _character_forms, residue_pair_matrix   # moments imports this module

    q, indices = group.modulus, list(indices)
    if q == 1:
        raise ValueError("the twisted family starts at q >= 3; no twist mod 1")
    for index in indices:
        if not group.is_primitive[index]:
            raise ValueError("AFE requires a primitive character")
        if group.parity[index] != form.epsilon:
            raise ParityVanishing(
                "eps(f, chi) = -1: the triple product L-value pairs to zero by "
                "parity and the root-number-one AFE does not apply")
    F = residue_pair_matrix(form, q, _AFE_TOL)
    return _character_forms(F, group.values[indices]).tolist()


# ---------------------------------------------------------------------------
# Oracle route 1: L(1/2, chi) through Hurwitz zeta


_HURWITZ_SHIFT = 50      # terms summed directly before Euler-Maclaurin takes over


def hurwitz_zeta(s: complex, x: float) -> complex:
    """Euler-Maclaurin Hurwitz zeta, accurate to ~1e-13 for s near 1/2."""
    if s == 1:
        raise ValueError("pole at s = 1")
    total = sum((n + x) ** (-s) for n in range(_HURWITZ_SHIFT))
    K = _HURWITZ_SHIFT + x
    total += K ** (1 - s) / (s - 1) + 0.5 * K ** (-s)
    poch = s
    Kpow = K ** (-s - 1)
    fact = 1.0
    for j, bernoulli in enumerate(_BERNOULLI, 1):
        fact *= (2 * j - 1) * (2 * j)
        total += bernoulli / fact * poch * Kpow
        poch *= (s + 2 * j - 1) * (s + 2 * j)
        Kpow /= K * K
    return total


def dirichlet_L_half(group: CharacterGroup, index: int) -> complex:
    """L(1/2, chi) = q^{-1/2} sum_a chi(a) zeta_H(1/2, a/q); non-principal chi."""
    q = group.modulus
    if q > 10**4:
        raise ValueError("oracle limited to q <= 1e4")
    expo = group.exponents[index]
    if q == 1 or np.all(expo[expo >= 0] == 0):
        raise ValueError("principal character rejected (pole handling out of scope)")
    total = 0j
    for a in range(1, q + 1):
        c = group.values[index, a % q]
        if c != 0:
            total += c * hurwitz_zeta(0.5, a / q)
    return total / math.sqrt(q)


def conjugate_index(group: CharacterGroup, index: int) -> int:
    target = group.exponents[index].copy()
    units = target >= 0
    conj = np.where(units, (-target) % group.group_exponent, -1)
    for j in range(group.n_chars):
        if np.array_equal(group.exponents[j], conj):
            return j
    raise RuntimeError("conjugate character not found (corrupt table)")


# ---------------------------------------------------------------------------
# Oracle route 2: L(1/2, f x chi) by a single balanced AFE


def twisted_L_half(group: CharacterGroup, index: int, form: EigenformData) -> complex:
    """Balanced AFE of conductor q^2 with root number eps(f x chi)."""
    q = group.modulus
    if not group.is_primitive[index]:
        raise ValueError("twisted AFE requires a primitive character")
    rn = root_numbers(group, index, form)
    Vf = twist_weight(form)
    x_cut = Vf.cutoff(1e-14)
    n_hi = int(math.ceil(x_cut * q))
    if form.n_max < n_hi:
        raise IndexError(f"twisted AFE needs lambda up to {n_hi}")
    ns = np.arange(1, n_hi + 1)
    w = Vf(ns / q) / np.sqrt(ns)
    chi_n = group.values[index, ns % q]
    lam = form.lam[1:n_hi + 1]
    first = np.sum(lam * w * chi_n)
    second = np.sum(lam * w * np.conj(chi_n))
    return complex(first + rn.eps_twist * second)


# ---------------------------------------------------------------------------
# L(1, f) and zeta(2)


def zeta_two() -> float:
    return math.pi**2 / 6.0


_L_ONE_X = 1e4
_L_ONE_CHUNK = 2**14     # terms per chunk of L_one_f's sum


def _l_one_terms(X: float) -> int:
    """The n <= 45 X that L_one_f sums: the weight is below 1e-16 past t = 45."""
    return int(45 * X)


def L_one_f(form: EigenformData, X: float = _L_ONE_X) -> float:
    """Smoothed sum_n lambda(n)/n with weight e^{-t}(1 + t + t^2/2).

    The polynomial factor cancels the Mellin poles at s = -1 and s = -2, so
    the smoothing error is O(X^{-3}).  The sum runs in chunks of
    _L_ONE_CHUNK terms, so no array of length 45 X is held.
    """
    n_hi = _l_one_terms(X)
    if form.n_max < n_hi:
        raise IndexError(f"L(1,f) needs lambda up to {n_hi}; table has {form.n_max}")
    val = 0.0
    for lo in range(1, n_hi + 1, _L_ONE_CHUNK):
        hi = min(lo + _L_ONE_CHUNK, n_hi + 1)
        ns = np.arange(lo, hi, dtype=np.float64)
        t = ns / X
        w = np.exp(-t) * (1.0 + t + 0.5 * t * t)
        val += float(np.sum(form.lam[lo:hi] / ns * w))
    return val


def afe_length(k: int, q: int, v_tol: float) -> int:
    """X: the triple-product AFE of a weight-k form at modulus q sums
    mn <= X = ceil(x_cut q^2), past which its weight stays below v_tol."""
    return math.ceil(_cached_weight(_log_gamma_ratio_triple, k).cutoff(v_tol) * q * q)


def moment_table_length(k: int, q_hi: int, v_tol: float) -> int:
    """Table length a moment of a weight-k form at every q <= q_hi needs: the
    triple-product AFE at q_hi, and L_one_f at its default X."""
    return max(afe_length(k, q_hi, v_tol), _l_one_terms(_L_ONE_X))
