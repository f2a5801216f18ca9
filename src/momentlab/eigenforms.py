"""Hecke eigenvalue tables for level-1 eigenforms.

Delta (weight 12) is built in through the eta-product expansion
x * prod (1-x^n)^24, computed as the 8th power of Jacobi's sparse cube
series.  Small ranges are kept as exact big integers for identity tests;
large float tables (used by the moment sweeps) are produced by the same
convolution chain in float64 and validated against the exact prefix and
by a Hecke check on their last entries.

Other forms enter through coefficient files (see ingest_coefficients).
"""

from __future__ import annotations

import math
import mmap
import os
import tempfile
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .arith import divisor_count_sieve, divisors, moebius

_EXACT_LIMIT = 10**4     # the float table is checked against exact tau up to here
# entries; ~0.5 GB of float64 is the desk budget.  By afe_length, Delta's
# moment fits up to q = 4066 at tol 1e-8 and q = 3694 at 1e-9.
_FLOAT_MEMORY_CAP = 2**26


class CoefficientError(ValueError):
    """Raised when an eigenvalue table fails validation."""


@dataclass
class EigenformData:
    """Normalized Hecke eigenvalues lambda(n) of a level-1 holomorphic cusp
    form.  The weight k fixes its Gamma factor and its root number."""

    weight: int               # k: even, >= 12, not 14
    theta: float              # Ramanujan exponent theta_f
    lam: np.ndarray           # lam[n] for 1 <= n <= n_max; index 0 unused
    label: str = "form"
    tau_exact: list[int] | None = None   # exact tau(n) prefix (Delta only)

    @property
    def epsilon(self) -> int:
        """Root number of L(s, f): i^k = (-1)^{k/2} at level 1."""
        return (-1) ** (self.weight // 2)

    @property
    def n_max(self) -> int:
        return len(self.lam) - 1

    def lam_at(self, n: int) -> float:
        if not 1 <= n <= self.n_max:
            raise IndexError(
                f"lambda({n}) not tabulated for {self.label} (n_max={self.n_max}); "
                "rebuild with a larger table")
        return float(self.lam[n])


def jacobi_cube_sparse(limit: int) -> list[tuple[int, int]]:
    """(exponent, coefficient) pairs of prod (1-x^n)^3 up to x^limit."""
    out = []
    k = 0
    while k * (k + 1) // 2 <= limit:
        out.append((k * (k + 1) // 2, (-1) ** k * (2 * k + 1)))
        k += 1
    return out


# The largest primes below 2^31.  A pass of the K-term sparse factor adds
# K terms of size below 2^31 (2K - 1) to each residue, which stays inside
# int64 while K^2 < 2^31; the prime-count check in _eta24_exact fails first.
_CRT_PRIMES = (2147483647, 2147483629, 2147483587, 2147483579,
               2147483563, 2147483549, 2147483543, 2147483497)


def _eta24_exact(limit: int) -> list[int]:
    """Coefficients of prod (1-x^n)^24 for exponents 0..limit, exact.

    The 8th power of the sparse cube series is formed modulo primes below
    2^31 in int64 and lifted by the Chinese remainder theorem.  Every
    coefficient is at most (sum |c|)^8 over the sparse series in absolute
    value, and the primes are taken until their product exceeds twice that,
    so the symmetric residue is the coefficient itself.
    """
    sparse = jacobi_cube_sparse(limit)
    bound = sum(abs(c) for _, c in sparse) ** 8
    primes: list[int] = []
    modulus = 1
    for p in _CRT_PRIMES:
        if modulus > 2 * bound:
            break
        primes.append(p)
        modulus *= p
    if modulus <= 2 * bound:
        raise OverflowError(f"{len(_CRT_PRIMES)} CRT primes are too few for the "
                            f"eta^24 coefficients up to x^{limit}")
    p = np.array(primes, dtype=np.int64)[:, None]
    dense = np.zeros((len(primes), limit + 1), dtype=np.int64)
    for e, c in sparse:
        dense[:, e] = c
    dense %= p
    for _ in range(7):                         # seven more eta^3 factors
        nxt = np.zeros_like(dense)
        for e, c in sparse:
            nxt[:, e:] += c * dense[:, :limit + 1 - e]
        dense = nxt % p
    coeffs = np.zeros(limit + 1, dtype=object)
    for r, q in zip(dense, primes):
        coeffs += r.astype(object) * ((modulus // q) * pow(modulus // q, -1, q))
    coeffs %= modulus
    return [v - modulus if v > modulus // 2 else v for v in coeffs.tolist()]


@lru_cache(maxsize=8)
def ramanujan_tau_exact(n_max: int) -> tuple[int, ...]:
    """Exact tau(1..n_max) as big integers."""
    eta = _eta24_exact(n_max - 1)
    return tuple(eta[n - 1] for n in range(1, n_max + 1))


def _eta24_float(limit: int) -> np.ndarray:
    sparse = jacobi_cube_sparse(limit)
    exps = np.array([e for e, _ in sparse], dtype=np.int64)
    coefs = np.array([c for _, c in sparse], dtype=np.float64)
    dense = np.zeros(limit + 1)
    for e1, c1 in sparse:                      # eta^6, pairwise sparse product
        keep = exps <= limit - e1
        np.add.at(dense, e1 + exps[keep], c1 * coefs[keep])
    for _ in range(6):
        nxt = np.zeros(limit + 1)
        for e, c in sparse:
            if e > limit:
                break
            nxt[e:] += c * dense[:limit + 1 - e]
        dense = nxt
    return dense


def _cache_dir() -> Path:
    root = os.environ.get("MOMENTLAB_CACHE_DIR")
    path = Path(root) if root else Path.home() / ".cache" / "momentlab"
    path.mkdir(parents=True, exist_ok=True)
    return path


def delta_coefficients(n_max: int) -> EigenformData:
    """EigenformData for Delta: lambda(n) = tau(n) / n^{11/2}, theta = 0."""
    if n_max < 1:
        raise ValueError("n_max must be positive")
    if n_max > _FLOAT_MEMORY_CAP:
        raise ValueError(f"a table of n_max = {n_max} entries is past the 2**26-entry cap "
                         "(0.5 GB of float64); lower q or raise --tol")
    exact_limit = min(_EXACT_LIMIT, n_max)

    lam = _delta_lambda_cached(n_max)
    tau_exact = list(ramanujan_tau_exact(exact_limit))
    # float table must agree with the exact prefix
    ns = np.arange(1, exact_limit + 1, dtype=np.float64)
    ref = np.array([float(t) for t in tau_exact]) / ns ** 5.5
    err = np.max(np.abs(lam[1:exact_limit + 1] - ref) / (1.0 + np.abs(ref)))
    if err > 1e-9:
        raise CoefficientError(f"float tau table deviates from exact values by {err}")
    _check_tail(lam)
    return EigenformData(12, 0.0, lam, label="delta", tau_exact=tau_exact)


_TAIL_WINDOW = 4096
_TAIL_PRIMES = (2, 3, 5, 7, 11, 13)
_TAIL_TOL = 1e-10


def _check_tail(lam: np.ndarray) -> None:
    """Hecke check on the last _TAIL_WINDOW entries N > _EXACT_LIMIT of lam:
    lambda(p) lambda(N/p) = lambda(N) for the first p in _TAIL_PRIMES with
    p || N (about 63% of the N).  The values read lie in the window and near
    N/p; the pages of a mapped table they fault in are released afterwards
    (_release_past_prefix)."""
    n_max = len(lam) - 1
    ns = np.arange(max(_EXACT_LIMIT + 1, n_max - _TAIL_WINDOW + 1), n_max + 1)
    ps = np.zeros_like(ns)
    for p in reversed(_TAIL_PRIMES):                # the first prime wins
        ps[(ns % p == 0) & (ns % (p * p) != 0)] = p
    ns, ps = ns[ps > 0], ps[ps > 0]
    defect = np.abs(lam[ps] * lam[ns // ps] - lam[ns])
    _release_past_prefix(lam)
    bad = np.flatnonzero(~(defect <= _TAIL_TOL))    # NaN counts as bad
    if bad.size:
        n = int(ns[bad[0]])
        raise CoefficientError(f"float tau table fails the Hecke check at N = {n}: "
                               f"|lambda(p) lambda(N/p) - lambda(N)| = {defect[bad[0]]:.3g}")


def _release_past_prefix(lam: np.ndarray) -> None:
    """Unmap from this process the pages of a mapped table past its exact
    prefix; a later read faults them in again from the page cache.

    _check_tail reads a few KB near N/2, ..., N/13 and at the end, but where
    the kernel maps a whole large page-cache folio per fault (up to 2 MB),
    those reads can make megabytes of the table resident, and releasing
    only the pages read leaves the rest of each folio mapped.  So every
    page past the prefix goes.  A table that was built, not mapped, is left
    alone."""
    mm = getattr(lam.base, "obj", None)
    if not (isinstance(mm, mmap.mmap) and hasattr(mmap, "MADV_DONTNEED")):
        return
    # lam is the tail of its mapping (see _read_prefix)
    start = len(mm) - lam.nbytes + lam.itemsize * (_EXACT_LIMIT + 1)
    start = -(-start // mmap.PAGESIZE) * mmap.PAGESIZE
    if start < len(mm):
        mm.madvise(mmap.MADV_DONTNEED, start, len(mm) - start)


def _read_prefix(path: Path, n_max: int) -> np.ndarray | None:
    """lambda(0..n_max) from the array file at path, mapped read-only; None
    if the file is missing, shorter than n_max + 1, or not a whole 1-D
    float64 array file (bad magic or header, wrong dtype or shape, or a size
    that disagrees with its header).

    Only the header and the n_max + 1 requested values are mapped, so pages
    a run never touches never become resident, and those it touches are
    clean page cache that other processes share.  The file is only ever
    replaced (an atomic os.replace), never rewritten in place: a mapping
    keeps the file it was made on, but a reader that has it mapped would
    take SIGBUS if another program truncated the file in place."""
    try:
        with open(path, "rb") as fh:
            version = np.lib.format.read_magic(fh)
            if version == (1, 0):
                shape, _, dtype = np.lib.format.read_array_header_1_0(fh)
            else:
                shape, _, dtype = np.lib.format.read_array_header_2_0(fh)
            if len(shape) != 1 or dtype != np.float64 or shape[0] <= n_max:
                return None
            header_len = fh.tell()
            if header_len + 8 * shape[0] != os.fstat(fh.fileno()).st_size:
                return None                              # torn: not the size its header says
            buf = mmap.mmap(fh.fileno(), header_len + 8 * (n_max + 1), access=mmap.ACCESS_READ)
    except (FileNotFoundError, ValueError, EOFError):
        return None
    return np.frombuffer(buf, dtype=np.float64, count=n_max + 1, offset=header_len)


@lru_cache(maxsize=4)
def _delta_lambda_cached(n_max: int) -> np.ndarray:
    """lambda(0..n_max) of Delta, read-only: the cache hands the same array
    to every EigenformData.  delta_lambda.npy is written to a temporary file
    in the cache directory and moved into place, so no reader sees a
    partial table, and a table already mapped keeps the file it was mapped
    from.  A file that does not load (torn by a crash outside this writer,
    or not an array file) is rebuilt and replaced like a missing one.  Only
    the prefix is mapped (see _read_prefix), and only the pages of it that a
    run reads are ever resident.  The file is never rewritten in place: a
    program that truncated it in place would send SIGBUS to every reader
    that has it mapped."""
    cache = _cache_dir() / "delta_lambda.npy"
    lam = _read_prefix(cache, n_max)
    if lam is None:
        eta = _eta24_float(n_max - 1)
        ns = np.arange(n_max + 1, dtype=np.float64)
        lam = np.zeros(n_max + 1)
        lam[1:] = eta[:n_max] / ns[1:] ** 5.5
        fd, tmp = tempfile.mkstemp(dir=cache.parent, prefix=".delta_lambda.", suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                np.save(fh, lam)
            os.replace(tmp, cache)
        except BaseException:
            os.unlink(tmp)
            raise
    lam.flags.writeable = False
    return lam


def _is_theta(text: str) -> bool:
    """True iff text is a number in [0, 1/2), the range of error_exponent's
    theta; NaN and the infinities are not."""
    try:
        return 0.0 <= float(text) < 0.5
    except ValueError:
        return False


def _parse_coefficient_file(path: Path):
    """The four header keys and the rows, each at most once; any other '#'
    line is a comment."""
    meta: dict[str, str] = {}
    entries: dict[int, float] = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                parts = line[1:].split()
                key = parts[0].lower() if len(parts) >= 2 else None
                if key in ("kind", "weight", "epsilon", "theta"):
                    if key in meta:
                        raise CoefficientError(f"{path}:{lineno}: second '# {key}' line")
                    if key == "theta" and not _is_theta(parts[1]):
                        raise CoefficientError(f"{path}:{lineno}: theta {parts[1]!r} is not "
                                               "a finite number in [0, 1/2)")
                    meta[key] = parts[1]
                continue
            parts = line.split()
            if len(parts) != 2:
                raise CoefficientError(f"{path}:{lineno}: expected 'n lambda(n)'")
            try:
                n = int(parts[0])
                val = float(parts[1])
            except ValueError as exc:
                raise CoefficientError(f"{path}:{lineno}: {exc}") from exc
            if n in entries:
                raise CoefficientError(f"{path}:{lineno}: second row for n = {n}")
            entries[n] = val
    return meta, entries


def resolve_coefficient_path(path_or_name: str) -> Path:
    path = Path(path_or_name)
    if path.exists():
        return path
    search = os.environ.get("MOMENTLAB_COEFF_DIR")
    if search:
        candidate = Path(search) / path_or_name
        if candidate.exists():
            return candidate
    raise FileNotFoundError(f"coefficient file {path_or_name!r} not found "
                            "(also searched MOMENTLAB_COEFF_DIR)")


def ingest_coefficients(path_or_name: str) -> EigenformData:
    """Load and validate the eigenvalue table of a level-1 holomorphic cusp form.

    The header needs '# kind holomorphic' and '# weight k', k even,
    >= 12 and not 14 (level 1 has no cusp form of weight 14).  An
    '# epsilon' line may follow; it must be the root number (-1)^{k/2}.
    '# theta', a number in [0, 1/2), defaults to 0.  Each of these four keys
    appears at most once.
    The rows are 'n lambda(n)' for n = 1..n_max, without gaps or repeats.
    """
    path = resolve_coefficient_path(path_or_name)
    meta, entries = _parse_coefficient_file(path)
    kind = meta.get("kind")
    if kind != "holomorphic":
        raise CoefficientError(f"form kind {kind!r} is not supported: only level-1 "
                               "holomorphic forms are ('# kind holomorphic')")
    weight = meta.get("weight")
    if weight is None or not weight.isdigit() or int(weight) < 12 or int(weight) % 2:
        raise CoefficientError(f"weight must be an even integer >= 12, got {weight!r}")
    weight = int(weight)
    if weight == 14:
        raise CoefficientError("weight 14 has no level-1 cusp form: S_14(SL_2(Z)) = 0")
    epsilon = (-1) ** (weight // 2)
    if meta.get("epsilon", str(epsilon)).lstrip("+") != str(epsilon):
        raise CoefficientError(f"epsilon {meta['epsilon']!r} is not the root number "
                               f"(-1)^(k/2) = {epsilon} of a weight-{weight} form")
    theta = float(meta.get("theta", "0"))

    if not entries:
        raise CoefficientError(f"{path} holds no 'n lambda(n)' rows")
    n_max = max(entries)
    if set(entries) != set(range(1, n_max + 1)):
        raise CoefficientError(f"{path}: coefficients must cover n = 1..{n_max} without gaps")
    lam = np.zeros(n_max + 1)
    for n, v in entries.items():
        lam[n] = v
    form = EigenformData(weight, theta, lam, label=path.stem)
    validate_eigenform(form)
    return form


_HECKE_TOL = 1e-6


def validate_eigenform(form: EigenformData) -> None:
    """Finiteness, Hecke multiplicativity and Ramanujan-on-average checks."""
    lam = form.lam
    not_finite = np.flatnonzero(~np.isfinite(lam[1:])) + 1
    if not_finite.size:
        n = int(not_finite[0])
        raise CoefficientError(f"lambda({n}) = {lam[n]} is not finite")
    if abs(lam[1] - 1.0) > _HECKE_TOL:
        raise CoefficientError(f"lambda(1) = {lam[1]} != 1")
    n_max = form.n_max
    first = next(_hecke_defects(lam, n_max, weight=0, exact=False), None)
    if first is not None:
        m, ns, lhs, rhs = first
        raise CoefficientError(
            f"Hecke multiplicativity violated at (m,n)=({m},{ns[0]}): "
            f"lambda({m})*lambda({ns[0]}) = {lhs[0]:.9g} vs {rhs[0]:.9g}")
    ns = np.arange(1, n_max + 1, dtype=np.float64)
    bound = divisor_count_sieve(n_max)[1:] * ns ** form.theta
    worst = np.max(np.abs(lam[1:]) - bound)
    if worst > _HECKE_TOL:
        raise CoefficientError(f"|lambda(n)| exceeds d(n) n^theta by {worst}")


def _hecke_defects(c: np.ndarray, n_max: int, weight: int, exact: bool):
    """For each m >= 2 in ascending order with a violation, (m, n, lhs, rhs)
    over the n >= m, mn <= n_max, ascending, where
    c(m) c(n) != sum_{d | (m,n)} d^weight c(mn / d^2): exactly on an integer
    vector, beyond _HECKE_TOL (NaN included) on a float one.

    Each m is checked against all its n at once: the d = 1 term c(mn) is
    the whole right side of a coprime pair, and each divisor d > 1 of m adds
    its term to the n divisible by d, in ascending d.
    """
    for m in range(2, math.isqrt(n_max) + 1):
        ns = np.arange(m, n_max // m + 1)
        rhs = c[m * ns]
        for d in divisors(m)[1:]:
            hit = ns % d == 0
            rhs[hit] += d**weight * c[m * ns[hit] // (d * d)]
        lhs = c[m] * c[ns]
        bad = lhs != rhs if exact else ~(np.abs(lhs - rhs) <= _HECKE_TOL)
        if bad.any():
            yield m, ns[bad], lhs[bad], rhs[bad]


def hecke_violations(form: EigenformData, n_max: int) -> int:
    """Count of (m, n) pairs, m <= n, mn <= n_max, violating the Hecke relation.

    For the built-in form the cleared-denominator identity
    tau(m) tau(n) = sum_{d | (m,n)} d^11 tau(mn / d^2) is checked in exact
    integers, on ramanujan_tau_exact(n_max) when n_max is past the form's
    exact prefix; otherwise the float lambda relation is checked to 1e-6.
    """
    exact = form.tau_exact is not None
    if exact:
        tau = form.tau_exact if len(form.tau_exact) >= n_max else ramanujan_tau_exact(n_max)
        c = np.array((0,) + tuple(tau[:n_max]), dtype=object)
    else:
        c = form.lam
    return sum(len(ns) for _, ns, _, _ in
               _hecke_defects(c, n_max, weight=11 if exact else 0, exact=exact))


def _varpi(c, q: int, weight: int) -> dict[int, object]:
    """{delta: sum_{k l^2 = delta, kl | q} mu(l) mu(kl) l^weight c(k)} over the
    k < len(c), accumulated in (kl, l) order, so exact on an integer vector.
    Every l and kl divides q, so mu is read from one table over divisors(q)."""
    mu = {d: moebius(d) for d in divisors(q)}
    acc: dict[int, object] = {}
    for kl in mu:
        for l in divisors(kl):
            k = kl // l
            coef = mu[l] * mu[kl]
            if coef != 0 and k < len(c):
                delta = k * l * l
                acc[delta] = acc.get(delta, 0) + coef * l**weight * c[k]
    return acc


def varpi_table(form: EigenformData, q: int) -> list[tuple[int, float]]:
    """Sorted (delta, varpi_lambda(delta, q)) over all delta = k l^2 with kl | q,
    where varpi_lambda(delta, q) = sum_{k l^2 = delta, kl | q} mu(l) mu(kl) lambda(k)."""
    if form.n_max < q:
        raise IndexError(f"varpi_table needs lambda({q}) but n_max={form.n_max}")
    return sorted((delta, float(w)) for delta, w in _varpi(form.lam, q, weight=0).items())


def _coprime_removal_defect(c: np.ndarray, q: int, weight: int) -> int:
    """Sum over 1 <= m < len(c) of the absolute defect
        | sum_{k l^2 | m, kl | q} mu(l) mu(kl) l^weight c(k) c(m / (k l^2))
          - [gcd(m, q) = 1] c(m) |,
    for a coefficient vector c with c[0] unused.

    The left side is the Dirichlet convolution of c with the coefficients
    _varpi(c, q, weight) placed at delta = k l^2, so each delta adds
    varpi(delta) c(j) at m = delta j for every j at once.  A k past the end
    of c is skipped: its delta = k l^2 >= k is past the end too.
    """
    m_max = len(c) - 1
    total = np.zeros_like(c)
    for delta, w in _varpi(c, q, weight).items():
        total[delta::delta] += w * c[1:m_max // delta + 1]
    expected = np.where(np.gcd(np.arange(m_max + 1), q) == 1, c, 0)
    return int(np.abs(total[1:] - expected[1:]).sum())


def _check_coprime_removal_args(q: int, m_max: int) -> None:
    if q < 1:
        raise ValueError(f"modulus q must be >= 1, got q={q}")
    if m_max < 0:
        raise ValueError(f"support m_max must be >= 0, got m_max={m_max}")


def coprime_removal_exact_delta(q: int, m_max: int) -> int:
    """Exact integer residual of the coprime-removal identity for Delta.

    Checks, coefficient by coefficient for every m <= m_max, that
        sum_{k l^2 | m, kl | q} mu(l) mu(kl) l^11 tau(k) tau(m / (k l^2))
    equals [gcd(m,q)=1] * tau(m); this is the identity with the n^{11/2}
    normalization cleared.  The left side is the Dirichlet convolution of
    tau with the cleared varpi coefficients, mu(l) mu(kl) l^11 tau(k) placed
    at k l^2, so it is accumulated one (k, l) pair at a time over the whole
    vector tau(1..m_max).  The vector is a big-integer object array: the products
    l^11 tau(k) tau(m / (k l^2)) reach about 31^11 tau^2 at m_max = 1000,
    far beyond int64, and every operation on Python integers is exact.
    Returns the sum of absolute coefficient defects (0 iff the identity holds).
    """
    _check_coprime_removal_args(q, m_max)
    tau = np.array((0,) + ramanujan_tau_exact(m_max), dtype=object)
    return _coprime_removal_defect(tau, q, weight=11)


def coprime_removal_exact_tau(q: int, m_max: int) -> int:
    """Same exact identity with the divisor function d(n) in place of tau(n).

    The weight l^11 becomes l^0 = 1, and the convolution is accumulated over
    the int16 vector d(1..m_max) of `divisor_count_sieve`, cast to int64
    first.  Since d(n) <= 2 sqrt(n), each term d(k) d(m / (k l^2)) is at most
    4 sqrt(m), so int64 holds every partial sum exactly.
    Returns the sum of absolute coefficient defects (0 iff the identity holds).
    """
    _check_coprime_removal_args(q, m_max)
    return _coprime_removal_defect(divisor_count_sieve(m_max).astype(np.int64), q, weight=0)
