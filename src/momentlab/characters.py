"""Dirichlet character groups mod q via CRT on prime-power components.

Each prime power p^e || q contributes fixed generators of (Z/p^e)^*: -1 and
5 for 2^e with e >= 3, 3 for 4, and the smallest suitable primitive root for
odd p.  A unit's exponent vector is its discrete logs on these generators,
read off its residue mod each p^e.  Characters are indexed by exponent
vectors, lexicographic with the first component most significant, and are
stored as exact root-of-unity exponents (numerator over the group exponent)
next to a complex table, so multiplicativity, parity, and orthogonality can
be tested without floating noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .arith import divisors, euler_phi, factorize, moebius, phi_star


def _primitive_root_odd_prime_power(p: int, e: int) -> int:
    """Smallest primitive root mod p that also generates mod p^e."""
    phi_p = p - 1
    prime_divs = [r for r, _ in factorize(phi_p).factors]
    g = 2
    while True:
        if math.gcd(g, p) == 1 and all(pow(g, phi_p // r, p) != 1 for r in prime_divs):
            break
        g += 1
    if e > 1 and pow(g, p - 1, p * p) == 1:
        g += p
    return g


@dataclass
class CharacterGroup:
    """Full multiplicative character table mod q.

    exponents[i, x] holds num with chi_i(x) = e(num / group_exponent) for
    units x, and -1 for non-units.  values is the matching complex table.
    """

    modulus: int
    group_exponent: int
    exponents: np.ndarray        # (n_chars, q) int64, -1 on non-units
    values: np.ndarray           # (n_chars, q) complex128, 0 on non-units
    parity: np.ndarray           # (n_chars,) int8, chi(-1)
    conductor: np.ndarray        # (n_chars,) int64
    is_primitive: np.ndarray     # (n_chars,) bool

    @property
    def n_chars(self) -> int:
        return self.exponents.shape[0]

    def chi(self, index: int, x: int) -> complex:
        return self.values[index, x % self.modulus]

    def primitive_indices(self, parity: int | None = None) -> list[int]:
        idx = np.nonzero(self.is_primitive)[0]
        if parity is not None:
            idx = idx[self.parity[idx] == parity]
        return [int(i) for i in idx]


@lru_cache(maxsize=1)
def build_group(q: int) -> CharacterGroup:
    """The complete character table mod q (deterministic indexing).

    The last group built is cached and shared, so its arrays are read-only;
    a sweep asks for each modulus once, and the tables grow as q phi(q)."""
    if q < 1:
        raise ValueError("modulus must be positive")
    units = np.flatnonzero(np.gcd(np.arange(q), q) == 1)   # [0] for q = 1
    orders: list[int] = []
    dlogs = np.zeros((0, len(units)), dtype=np.int64)   # (n_gens, n_units)
    for p, e in factorize(q).factors:
        pe = p**e
        if pe == 2:
            continue  # trivial unit group mod 2
        if pe == 4:
            gens = [(3, 2)]
        elif p == 2:
            gens = [(pe - 1, 2), (5, 2 ** (e - 2))]
        else:
            gens = [(_primitive_root_odd_prime_power(p, e), euler_phi(pe))]
        # log_tab[:, prod g_j^{t_j} mod pe] = t over every exponent vector t
        ts = np.indices([order for _, order in gens]).reshape(len(gens), -1)
        residues = np.ones(ts.shape[1], dtype=np.int64)
        for (g, order), t in zip(gens, ts):
            powers = np.array([pow(g, k, pe) for k in range(order)], dtype=np.int64)
            residues = residues * powers[t] % pe
        log_tab = -np.ones((len(gens), pe), dtype=np.int64)
        log_tab[:, residues] = ts
        dlogs = np.vstack([dlogs, log_tab[:, units % pe]])
        orders += [order for _, order in gens]
    n_chars = math.prod(orders)
    assert n_chars == euler_phi(q)
    group_exp = math.lcm(*orders)

    # all exponent vectors, lexicographic (first component most significant)
    grids = np.indices(orders).reshape(len(orders), n_chars).T   # (n_chars, n_gens)
    weights = np.array([group_exp // order for order in orders], dtype=np.int64)
    nums = (grids * weights) @ dlogs % group_exp   # (n_chars, n_units)
    exponents = -np.ones((n_chars, q), dtype=np.int64)
    exponents[:, units] = nums
    # one exp per root of unity, gathered: the same bits as an exp per entry
    roots = np.exp(2j * np.pi * np.arange(group_exp) / group_exp)
    values = np.zeros(exponents.shape, dtype=np.complex128)
    values[:, units] = roots[nums]

    parity = np.where(exponents[:, q - 1] == 0, 1, -1).astype(np.int8)

    # chi has conductor f iff f is the least divisor of q such that chi is
    # trivial on the units = 1 mod f
    conductor = np.zeros(n_chars, dtype=np.int64)
    for f in reversed(divisors(q)):
        trivial = (exponents[:, units[units % f == 1 % f]] == 0).all(axis=1)
        conductor[trivial] = f
    is_primitive = conductor == q
    assert int(is_primitive.sum()) == phi_star(q)
    # the cache hands these tables to every caller
    for arr in (exponents, values, parity, conductor, is_primitive):
        arr.flags.writeable = False

    return CharacterGroup(q, group_exp, exponents, values, parity, conductor, is_primitive)


@dataclass(frozen=True)
class GaussData:
    """Normalized Gauss sum data for a primitive character."""

    char_index: int
    eps_chi: complex      # q^{-1/2} sum_x chi(x) e(x/q)
    eps: complex          # i^{-a} * eps_chi with a the parity exponent


def gauss_eps(group: CharacterGroup, index: int) -> GaussData:
    """eps_chi by direct q-term summation; requires a primitive character."""
    q = group.modulus
    if not group.is_primitive[index]:
        raise ValueError(f"character {index} mod {q} is not primitive")
    if q == 1:
        return GaussData(index, 1.0 + 0j, 1.0 + 0j)
    phases = np.exp(2j * np.pi * np.arange(q) / q)
    eps_chi = complex(np.sum(group.values[index] * phases)) / math.sqrt(q)
    if abs(abs(eps_chi) - 1.0) > 1e-10:
        raise ArithmeticError(f"|eps_chi| = {abs(eps_chi)} deviates from 1")
    a = 0 if group.parity[index] == 1 else 1
    return GaussData(index, eps_chi, (-1j) ** a * eps_chi)


def orthogonality_sum(q: int, m: int, n: int, sigma: int) -> Fraction:
    """Divisor-sum side of the primitive-character orthogonality formula.

    Returns (1/2)(sum_{d|(q,m-n)} phi(d) mu(q/d)
                  + sigma sum_{d|(q,m+n)} phi(d) mu(q/d)) exactly.
    """
    if sigma not in (-1, 1):
        raise ValueError("sigma must be +1 or -1")
    if math.gcd(m * n, q) != 1:
        raise ValueError("(mn, q) = 1 required")
    s_minus = sum(euler_phi(d) * moebius(q // d) for d in divisors(math.gcd(q, abs(m - n)) or q))
    s_plus = sum(euler_phi(d) * moebius(q // d) for d in divisors(math.gcd(q, m + n)))
    return Fraction(s_minus + sigma * s_plus, 2)


def enumerated_orthogonality(q: int, m: int, n: int, sigma: int) -> complex:
    """Direct enumeration oracle for the orthogonality formula."""
    group = build_group(q)
    total = 0j
    for i in group.primitive_indices(parity=sigma):
        total += group.chi(i, m) * group.chi(i, n).conjugate()
    return total
