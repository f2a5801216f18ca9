import dataclasses
import hashlib
import io
import math
import mmap
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from momentlab import eigenforms
from momentlab.arith import divisor_count, divisor_count_sieve, divisors, moebius
from momentlab.eigenforms import (CoefficientError, coprime_removal_exact_delta,
                                  coprime_removal_exact_tau, delta_coefficients,
                                  hecke_violations,
                                  ingest_coefficients, ramanujan_tau_exact,
                                  validate_eigenform, varpi_table)


def test_first_tau_values():
    tau = ramanujan_tau_exact(12)
    assert tau[:7] == (1, -24, 252, -1472, 4830, -6048, -16744)
    assert tau[11] == -370944     # tau(12) = tau(3) tau(4)


def _tau_bigint(n_max):
    """tau(1..n_max) by big-integer convolution of eight sparse cube series."""
    sparse = eigenforms.jacobi_cube_sparse(n_max - 1)
    dense = [1] + [0] * (n_max - 1)
    for _ in range(8):
        nxt = [0] * n_max
        for e, c in sparse:
            for i in range(n_max - e):
                nxt[i + e] += c * dense[i]
        dense = nxt
    return tuple(dense)


def test_tau_crt_matches_bigint_convolution():
    ref = _tau_bigint(3000)
    for n_max in (1, 2, 3000):
        tau = ramanujan_tau_exact(n_max)
        assert tau == ref[:n_max]
        assert all(type(t) is int for t in tau)


def test_tau_crt_rejects_too_few_primes(monkeypatch):
    # 10^4 needs four primes below 2^31; three cannot hold every coefficient
    monkeypatch.setattr(eigenforms, "_CRT_PRIMES", eigenforms._CRT_PRIMES[:3])
    with pytest.raises(OverflowError, match="too few"):
        eigenforms._eta24_exact(10**4 - 1)


def test_tau_congruence_mod_691():
    # tau(n) = sigma_11(n) mod 691
    tau = ramanujan_tau_exact(50)
    for n in range(1, 51):
        sigma11 = sum(d**11 for d in range(1, n + 1) if n % d == 0)
        assert (tau[n - 1] - sigma11) % 691 == 0


def test_float_table_matches_exact(delta_small):
    tau = ramanujan_tau_exact(2000)
    for n in (1, 2, 100, 1999):
        assert delta_small.lam[n] == pytest.approx(tau[n - 1] / n**5.5, rel=1e-12)



def test_delta_table_past_the_cap_is_refused_before_it_is_built(monkeypatch):
    def no_build(n_max):
        raise AssertionError("a table past the cap was built")

    monkeypatch.setattr(eigenforms, "_delta_lambda_cached", no_build)
    n_max = eigenforms._FLOAT_MEMORY_CAP + 1
    with pytest.raises(ValueError, match=re.escape(
            f"n_max = {n_max} entries is past the 2**26-entry cap")) as exc:
        delta_coefficients(n_max)
    assert str(exc.value).endswith("lower q or raise --tol")


def test_delta_cache_write_is_atomic(tmp_path, monkeypatch):
    monkeypatch.setenv("MOMENTLAB_CACHE_DIR", str(tmp_path))
    build = eigenforms._delta_lambda_cached.__wrapped__      # bypass the lru_cache
    real_save = np.save

    def torn_save(file, arr, *args, **kwargs):             # dies halfway through
        buf = io.BytesIO()
        real_save(buf, arr, *args, **kwargs)
        part = buf.getvalue()[:buf.tell() // 2]
        if hasattr(file, "write"):
            file.write(part)
        else:
            with open(file, "wb") as fh:
                fh.write(part)
        raise OSError("disk full")

    monkeypatch.setattr(np, "save", torn_save)
    with pytest.raises(OSError, match="disk full"):
        build(500)
    assert list(tmp_path.iterdir()) == []
    monkeypatch.setattr(np, "save", real_save)
    fresh = build(500)
    assert [p.name for p in tmp_path.iterdir()] == ["delta_lambda.npy"]
    loaded = build(400)                                      # read back from the file
    assert np.array_equal(loaded, fresh[:401])
    assert loaded[2] == pytest.approx(-24 / 2**5.5, rel=1e-14)


def test_two_writers_leave_one_whole_delta_cache(tmp_path):
    # two processes build the same table into one empty cache directory at
    # once: both get it, and one whole file is left, with no temporary file
    cache_dir, go = tmp_path / "cache", tmp_path / "go"
    code = ("import hashlib, sys, time\n"
            "from pathlib import Path\n"
            "from momentlab.eigenforms import delta_coefficients\n"
            "deadline = time.time() + 60\n"
            "while not Path(sys.argv[1]).exists() and time.time() < deadline:\n"
            "    time.sleep(0.001)\n"
            "lam = delta_coefficients(20_000).lam\n"
            "print(hashlib.sha256(lam.tobytes()).hexdigest())\n")
    src = str(Path(eigenforms.__file__).resolve().parents[1])
    env = dict(os.environ, MOMENTLAB_CACHE_DIR=str(cache_dir), PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    procs = [subprocess.Popen([sys.executable, "-c", code, str(go)], env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
             for _ in range(2)]
    try:
        go.touch()
        outs = [p.communicate(timeout=120) for p in procs]
    finally:
        for p in procs:
            p.kill()
    assert [p.returncode for p in procs] == [0, 0], [err for _, err in outs]
    digests = {out.strip() for out, _ in outs}
    assert len(digests) == 1
    assert [f.name for f in cache_dir.iterdir()] == ["delta_lambda.npy"]
    lam = np.load(cache_dir / "delta_lambda.npy")
    assert len(lam) == 20_001 and hashlib.sha256(lam.tobytes()).hexdigest() in digests


def test_torn_delta_cache_is_rebuilt(tmp_path, monkeypatch):
    monkeypatch.setenv("MOMENTLAB_CACHE_DIR", str(tmp_path))
    build = eigenforms._delta_lambda_cached.__wrapped__
    fresh = build(500)
    cache = tmp_path / "delta_lambda.npy"
    cache.write_bytes(cache.read_bytes()[:cache.stat().st_size // 2])
    assert np.array_equal(build(400), fresh[:401])
    assert np.array_equal(np.load(cache), fresh[:401])      # replaced by a whole file


def test_delta_table_is_read_only(tmp_path, monkeypatch, delta_small):
    monkeypatch.setenv("MOMENTLAB_CACHE_DIR", str(tmp_path))
    build = eigenforms._delta_lambda_cached.__wrapped__
    for lam in (delta_small.lam, build(300), build(200)):      # cached, built, loaded
        assert not lam.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            lam[1] = 0.0


def _header_len(path):
    with open(path, "rb") as fh:
        np.lib.format.read_magic(fh)
        np.lib.format.read_array_header_1_0(fh)
        return fh.tell()


def test_loaded_delta_table_owns_only_its_prefix(tmp_path, monkeypatch):
    monkeypatch.setenv("MOMENTLAB_CACHE_DIR", str(tmp_path))
    build = eigenforms._delta_lambda_cached.__wrapped__
    fresh = build(500)
    loaded = build(100)                     # read back from the 501-entry file
    assert type(loaded) is np.ndarray and not loaded.flags.writeable
    buf = loaded.base.obj                   # frombuffer's memoryview of the mapping
    assert isinstance(buf, mmap.mmap) and loaded.base.readonly
    assert len(buf) <= _header_len(tmp_path / "delta_lambda.npy") + 8 * 101
    assert loaded.nbytes == 101 * loaded.itemsize
    assert np.array_equal(loaded, fresh[:101])


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads Linux /proc")
def test_large_delta_table_is_not_copied(delta_large):
    # a fresh interpreter loads the Voronoi table (2.2e6 entries, 17.6 MB)
    # from the cache the fixture filled: its private memory grows by the
    # exact tau prefix, not by the table, whose pages stay shared page cache.
    # (ru_maxrss cannot show this: a spawned child starts from its parent's peak.)
    code = ("def anon():\n"
            "    return next(int(line.split()[1]) for line in open('/proc/self/status')\n"
            "                if line.startswith('RssAnon:'))\n"
            "from momentlab.eigenforms import delta_coefficients\n"
            "before = anon()\n"
            "delta_coefficients(2_200_000)\n"
            "print(anon() - before)\n")
    src = str(Path(eigenforms.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True).stdout
    assert int(out) < 4 * 1024                          # kB


@pytest.mark.skipif(not Path("/proc/self/smaps").exists(), reason="reads Linux /proc")
def test_tail_check_leaves_only_the_exact_prefix_resident(delta_large):
    # the Hecke check on the table's tail reads near N/2, ..., N/13 and at
    # the end; where one fault maps a whole large page-cache folio, that made
    # megabytes of the mapping resident until the pages were released
    code = ("from momentlab import eigenforms\n"
            "def rss():\n"
            "    total, ours = 0, False\n"
            "    for line in open('/proc/self/smaps'):\n"
            "        field = line.split()\n"
            "        if not field[0].endswith(':'):\n"
            "            ours = line.rstrip().endswith('delta_lambda.npy')\n"
            "        elif ours and field[0] == 'Rss:':\n"
            "            total += int(field[1])\n"
            "    return total\n"
            "lam = eigenforms._delta_lambda_cached(2_200_000)\n"
            "float(lam[:eigenforms._EXACT_LIMIT + 1].sum())\n"
            "prefix = rss()\n"
            "eigenforms.delta_coefficients(2_200_000)\n"
            "print(prefix, rss())\n")
    src = str(Path(eigenforms.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True).stdout
    prefix, after = map(int, out.split())
    assert 0 < prefix and after <= prefix + 64          # kB: fault-around slack


@pytest.mark.parametrize("defect", ["bad magic", "float32", "2-D", "shorter than its header",
                                    "shorter than the prefix"])
def test_defective_delta_cache_is_rebuilt(tmp_path, monkeypatch, defect):
    monkeypatch.setenv("MOMENTLAB_CACHE_DIR", str(tmp_path))
    build = eigenforms._delta_lambda_cached.__wrapped__
    fresh = build(500)
    cache = tmp_path / "delta_lambda.npy"
    whole = cache.read_bytes()
    if defect == "bad magic":
        cache.write_bytes(b"\x93NUMPZ" + whole[6:])
    elif defect == "float32":
        np.save(cache, fresh.astype(np.float32))
    elif defect == "2-D":
        np.save(cache, fresh[:, None])
    elif defect == "shorter than its header":      # torn past the prefix read
        cache.write_bytes(whole[:-8])
    else:
        np.save(cache, fresh[:301])
    assert np.array_equal(build(400), fresh[:401])
    assert np.array_equal(np.load(cache), fresh[:401])      # replaced by a whole file


def test_mapped_delta_table_survives_replacement(tmp_path, monkeypatch):
    monkeypatch.setenv("MOMENTLAB_CACHE_DIR", str(tmp_path))
    build = eigenforms._delta_lambda_cached.__wrapped__
    fresh = build(500)
    mapped = build(300)
    cache = tmp_path / "delta_lambda.npy"
    np.save(tmp_path / "other.npy", -fresh)             # another valid table
    os.replace(tmp_path / "other.npy", cache)
    assert np.array_equal(mapped, fresh[:301])          # still the file it mapped
    assert np.array_equal(build(300), -fresh[:301])     # the next load reads the new one


def test_corrupted_delta_tail_is_rejected(tmp_path, monkeypatch):
    monkeypatch.setenv("MOMENTLAB_CACHE_DIR", str(tmp_path))
    build = eigenforms._delta_lambda_cached.__wrapped__
    monkeypatch.setattr(eigenforms, "_delta_lambda_cached", build)
    delta_coefficients(20_000)               # the valid table loads
    bad = build(20_000).copy()
    bad[19_998] += 1e-6                      # 19998 = 2 * 9999: checked against 2 || N
    np.save(tmp_path / "bad.npy", bad)
    os.replace(tmp_path / "bad.npy", tmp_path / "delta_lambda.npy")
    with pytest.raises(CoefficientError, match="N = 19998"):
        delta_coefficients(20_000)


def test_valid_delta_cache_is_not_rewritten(tmp_path, monkeypatch):
    monkeypatch.setenv("MOMENTLAB_CACHE_DIR", str(tmp_path))
    build = eigenforms._delta_lambda_cached.__wrapped__
    fresh = build(500)
    cache = tmp_path / "delta_lambda.npy"
    before = cache.stat()
    for n_max in (500, 100, 1):
        assert np.array_equal(build(n_max), fresh[:n_max + 1])
    after = cache.stat()
    assert (after.st_ino, after.st_mtime_ns, after.st_size) == \
        (before.st_ino, before.st_mtime_ns, before.st_size)


def _hecke_violations_loop(form, n_max):
    """The earlier hecke_violations, kept as the reference: a double loop
    with a divisor sum for every pair.  Returns the violating (m, n) in loop
    order."""
    exact = form.tau_exact is not None and len(form.tau_exact) >= n_max
    bad = []
    if exact:
        tau = [0] + list(form.tau_exact[:n_max])
        for m in range(2, n_max + 1):
            for n in range(m, n_max // m + 1):
                rhs = sum(d**11 * tau[m * n // (d * d)]
                          for d in divisors(math.gcd(m, n)))
                if tau[m] * tau[n] != rhs:
                    bad.append((m, n))
    else:
        lam = form.lam
        for m in range(2, n_max + 1):
            for n in range(m, n_max // m + 1):
                rhs = sum(lam[m * n // (d * d)] for d in divisors(math.gcd(m, n)))
                if abs(lam[m] * lam[n] - rhs) > 1e-6:
                    bad.append((m, n))
    return bad


def test_hecke_exact_small():
    f = delta_coefficients(2000)
    assert hecke_violations(f, 2000) == 0
    assert hecke_violations(dataclasses.replace(f, tau_exact=None), 2000) == 0


@pytest.mark.parametrize("n", [1, 2, 4, 6, 25, 97])
def test_hecke_violations_match_loop(n):
    """A wrong tau(n) or lambda(n) is counted exactly as the loop counts it,
    on the exact path and on the float path; validate_eigenform reports the
    loop's first violating pair."""
    f = delta_coefficients(2000)
    tau = list(f.tau_exact)
    tau[n - 1] += 1
    lam = f.lam.copy()
    lam[n] += 1e-3
    float_form = dataclasses.replace(f, lam=lam, tau_exact=None)
    for form in (dataclasses.replace(f, tau_exact=tau), float_form):
        want = _hecke_violations_loop(form, 2000)
        assert want
        assert hecke_violations(form, 2000) == len(want)
    m0, n0 = _hecke_violations_loop(float_form, 2000)[0]
    match = r"lambda\(1\)" if n == 1 else rf"\(m,n\)=\({m0},{n0}\)"
    with pytest.raises(CoefficientError, match=match):
        validate_eigenform(float_form)


def test_hecke_violations_count_nan():
    f = delta_coefficients(2000)
    lam = f.lam.copy()
    lam[6] = np.nan                  # enters (2, 3) on the right and (6, n) on the left
    assert hecke_violations(dataclasses.replace(f, lam=lam, tau_exact=None), 2000) > 0


def test_ingest_rejects_non_finite(coefficient_file, delta_small):
    # 1999 is prime and 2 * 1999 > 2000: no Hecke pair reaches lambda(1999)
    lam = delta_small.lam[:2001].copy()
    lam[1999] = np.nan
    path = coefficient_file(enumerate(lam[1:], 1))
    with pytest.raises(CoefficientError, match=r"lambda\(1999\)"):
        ingest_coefficients(str(path))


def test_deligne_bound_exact_small():
    tau = ramanujan_tau_exact(2000)
    for n in range(1, 2001):
        assert tau[n - 1] ** 2 <= divisor_count(n) ** 2 * n**11


def test_varpi_values(delta_small):
    t = dict(varpi_table(delta_small, 6))
    assert t[1] == 1.0
    # delta = 4 comes only from (k, l) = (1, 2): mu(2) mu(2) lambda(1) = 1
    assert t[4] == 1.0
    # delta = 6 from (k,l) = (6,1): mu(1) mu(6) lambda(6)
    assert t[6] == pytest.approx(float(delta_small.lam[6]))
    assert set(t) == {1, 2, 3, 4, 6, 9, 12, 18, 36}


def _varpi_pairs(lam, q):
    """varpi_lambda(delta, q) summed over every pair (k, l) with kl | q."""
    acc = {}
    for k in range(1, q + 1):
        for l in range(1, q // k + 1):
            if q % (k * l) == 0:
                coef = moebius(l) * moebius(k * l)
                if coef:
                    acc[k * l * l] = acc.get(k * l * l, 0.0) + coef * float(lam[k])
    return sorted(acc.items())


def test_varpi_table_matches_pair_enumeration(delta_small):
    for q in range(1, 201):
        got = varpi_table(delta_small, q)
        want = _varpi_pairs(delta_small.lam, q)
        assert [d for d, _ in got] == [d for d, _ in want], q
        assert np.allclose([w for _, w in got], [w for _, w in want], rtol=1e-13, atol=0), q


def test_varpi_table_needs_lambda_up_to_q(delta_small):
    short = dataclasses.replace(delta_small, lam=delta_small.lam[:47])
    # (k, l) = (46, 1): mu(1) mu(46) lambda(46), the last entry of the table
    assert dict(varpi_table(short, 46))[46] == float(short.lam[46])
    with pytest.raises(IndexError, match="needs lambda"):
        varpi_table(short, 47)


@pytest.mark.parametrize("q", [2, 3, 6, 12, 30])
def test_coprime_removal_exact(q):
    assert coprime_removal_exact_delta(q, 300) == 0
    assert coprime_removal_exact_tau(q, 300) == 0


def _coprime_removal_loop(c, q, weight):
    """The identity checked one m at a time: sum over m <= len(c) - 1 of
    |sum_{kl^2 | m, kl | q} mu(l) mu(kl) l^weight c(k) c(m/kl^2) - [(m,q)=1] c(m)|."""
    c = [int(v) for v in c]
    kl_pairs = [(kl // l, l) for kl in divisors(q) for l in divisors(kl)
                if moebius(l) * moebius(kl) != 0]
    defect = 0
    for m in range(1, len(c)):
        total = 0
        for k, l in kl_pairs:
            kl2 = k * l * l
            if m % kl2 == 0:
                total += moebius(l) * moebius(k * l) * l**weight * c[k] * c[m // kl2]
        expected = c[m] if math.gcd(m, q) == 1 else 0
        defect += abs(total - expected)
    return defect


@pytest.mark.parametrize("q", [2, 3, 6, 12, 30])
def test_coprime_removal_catches_wrong_coefficients(q):
    # a change to c(n) moves the defect at m = pn for a prime p | q, through
    # the (k, l) = (p, 1) term; every n below has pn <= 300 at every q here.
    # A prime n coprime to q with pn > m_max for every p | q (151 here, 997 at
    # m_max = 1000) enters both sides alike and is not caught.
    vectors = ((np.array((0,) + ramanujan_tau_exact(300), dtype=object), 11),
               (divisor_count_sieve(300), 0))
    for c, weight in vectors:
        for n in (1, 2, 4, 25, 97):
            wrong = c.copy()
            wrong[n] += 1
            defect = eigenforms._coprime_removal_defect(wrong, q, weight)
            assert type(defect) is int
            assert defect == _coprime_removal_loop(wrong, q, weight) > 0


@pytest.mark.parametrize("check", [coprime_removal_exact_delta, coprime_removal_exact_tau])
def test_coprime_removal_rejects_bad_arguments(check):
    with pytest.raises(ValueError, match="m_max=-5"):
        check(6, -5)
    for q in (0, -3):
        with pytest.raises(ValueError, match=f"q={q}"):
            check(q, 10)
    assert check(6, 0) == 0


def test_ingest_roundtrip(coefficient_file, delta_small):
    path = coefficient_file(enumerate(delta_small.lam[1:201], 1), epsilon=1, theta=0)
    f = ingest_coefficients(str(path))
    assert f.n_max == 200
    assert (f.weight, f.epsilon, f.theta) == (12, 1, 0.0)
    assert f.lam[2] == pytest.approx(delta_small.lam[2])
    validate_eigenform(f)


def test_ingest_rejects_gaps(coefficient_file):
    path = coefficient_file([(1, 1.0), (3, 0.5)])
    with pytest.raises(CoefficientError):
        ingest_coefficients(str(path))


def test_ingest_rejects_maass_form(coefficient_file, delta_small):
    # the rows pass every table check; the kind alone is rejected
    path = coefficient_file(enumerate(delta_small.lam[1:31], 1), kind="maass", weight=None,
                            kappa=9.5, theta=0.109375)
    with pytest.raises(CoefficientError) as exc:
        ingest_coefficients(str(path))
    assert str(exc.value) == ("form kind 'maass' is not supported: only level-1 "
                              "holomorphic forms are ('# kind holomorphic')")


@pytest.mark.parametrize("weight", ["12.5", "11", "10", "-12", "twelve", None])
def test_ingest_rejects_a_weight_outside_level_one(coefficient_file, delta_small, weight):
    # level-1 cusp forms have even weight k >= 12; a weight 12.5 would give
    # the Hankel transform the kernel J_11
    path = coefficient_file(enumerate(delta_small.lam[1:31], 1), weight=weight)
    with pytest.raises(CoefficientError,
                       match=re.escape(f"weight must be an even integer >= 12, got {weight!r}")):
        ingest_coefficients(str(path))


def test_ingest_rejects_weight_14(coefficient_file, delta_small):
    # S_14(SL_2(Z)) = 0; the rows would pass, and the root number -1 would
    # make the moment average the odd characters of a form that cannot exist
    path = coefficient_file(enumerate(delta_small.lam[1:51], 1), weight=14)
    with pytest.raises(CoefficientError, match=re.escape("weight 14 has no level-1 cusp form")):
        ingest_coefficients(str(path))


def test_ingest_rejects_a_repeated_header_key(coefficient_file, delta_small):
    path = coefficient_file(enumerate(delta_small.lam[1:51], 1))
    text = path.read_text()
    path.write_text(text.replace("# weight 12\n", "# weight 12\n# weight 18\n"))
    with pytest.raises(CoefficientError, match=re.escape(f"{path}:3: second '# weight' line")):
        ingest_coefficients(str(path))
    # other '#' lines are comments, however often they appear
    path.write_text("# source eta product\n# source eta product\n" + text)
    assert ingest_coefficients(str(path)).weight == 12


@pytest.mark.parametrize("theta", ["nan", "inf", "-0.1", "function of the table"])
def test_ingest_rejects_a_theta_outside_the_exponent_range(coefficient_file, delta_small,
                                                           theta):
    # a NaN theta made the |lambda(n)| <= d(n) n^theta check a no-op, and a
    # word after '# theta' failed in float() without naming the file
    path = coefficient_file(enumerate(delta_small.lam[1:51], 1), theta=theta)
    with pytest.raises(CoefficientError,
                       match=re.escape(f"{path}:3: theta {theta.split()[0]!r} is not "
                                       "a finite number in [0, 1/2)")):
        ingest_coefficients(str(path))


@pytest.mark.parametrize("n_rows,n,value", [(50, 7, 0.5), (2000, 1999, 0.25)])
def test_ingest_rejects_a_repeated_row(coefficient_file, delta_small, n_rows, n, value):
    # a second row for 1999 > 2000 / 2 is reached by no Hecke pair: it used
    # to replace lambda(1999) without a word
    rows = [*enumerate(delta_small.lam[1:n_rows + 1], 1), (n, value)]
    path = coefficient_file(rows)
    with pytest.raises(CoefficientError,
                       match=re.escape(f"{path}:{n_rows + 3}: second row for n = {n}")):
        ingest_coefficients(str(path))


@pytest.mark.parametrize("weight,epsilon", [(18, "1"), (18, "+1"), (12, "-1"), (16, "0")])
def test_ingest_rejects_an_epsilon_other_than_the_root_number(coefficient_file, delta_small,
                                                              weight, epsilon):
    path = coefficient_file(enumerate(delta_small.lam[1:31], 1), weight=weight, epsilon=epsilon)
    with pytest.raises(CoefficientError, match="is not the root number"):
        ingest_coefficients(str(path))


@pytest.mark.parametrize("weight,epsilon,root_number",
                         [(12, None, 1), (12, "+1", 1), (16, None, 1),
                          (18, None, -1), (18, "-1", -1), (22, None, -1)])
def test_ingest_derives_the_root_number_from_the_weight(coefficient_file, delta_small,
                                                        weight, epsilon, root_number):
    # (-1)^(k/2); with +1 at k = 18 the moment would average the parity
    # whose central values vanish
    path = coefficient_file(enumerate(delta_small.lam[1:31], 1), weight=weight, epsilon=epsilon)
    form = ingest_coefficients(str(path))
    assert type(form.weight) is int
    assert (form.weight, form.epsilon) == (weight, root_number)


def test_lam_at_bounds(delta_small):
    with pytest.raises(IndexError):
        delta_small.lam_at(delta_small.n_max + 1)
