import csv
import json
import math
import os
from functools import lru_cache

import numpy as np
import pytest

from momentlab import cli, eigenforms
from momentlab.cli import EXIT_CONFIG, EXIT_ITEM, EXIT_OK, EXIT_SUITE, main
from momentlab.lfunctions import moment_table_length


def test_exponent_default(capsys):
    assert main(["exponent"]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["eta"] == "1/22"
    assert out["balanced"] == "1/20"


def test_exponent_theta(capsys):
    assert main(["exponent", "--theta", "7/64"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["eta"] == "5/152"


def test_exponent_invalid_theta(capsys):
    assert main(["exponent", "--theta", "1/2"]) == EXIT_CONFIG
    assert "error" in capsys.readouterr().err


def test_verify_unknown_suite(capsys):
    assert main(["verify", "nosuchsuite"]) == EXIT_CONFIG


def test_verify_orthogonality(capsys):
    assert main(["verify", "orthogonality", "--q-max", "20"]) == EXIT_OK
    captured = capsys.readouterr()
    rep = json.loads(captured.out)
    assert rep["passed"] is True
    assert "PASS" in captured.err


def test_moment_single_q(capsys, tmp_path):
    out = tmp_path / "m.csv"
    assert main(["moment", "--q", "5", "--tol", "1e-8", "--out", str(out)]) == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0].startswith("q,a,b,moment")
    assert lines[1].startswith("5,1,1,")


def test_moment_sweep_streams_rows_and_prints_the_summary(capsys, tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["moment", "--sweep", "--q-range", "5:13", "--out", str(out)]) == EXIT_OK
    captured = capsys.readouterr()
    summary = json.loads(captured.out)
    assert set(summary) == {"winner", "median_dev_theorem", "median_dev_corollary",
                            "error_exponent_fit", "rows"}
    assert summary["winner"] in ("theorem", "corollary")
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    # admissible moduli: q = 2 (mod 4) has no primitive characters
    qs = [5, 7, 8, 9, 11, 12, 13]
    assert [int(r["q"]) for r in rows] == qs
    assert out.read_text().startswith("q,a,b,form,")
    assert summary["rows"] == len(rows)
    assert all(float(r["main_theorem"]) > 0 for r in rows)
    lines = (tmp_path / "sweep.csv.jsonl").read_text().splitlines()
    assert [json.loads(line)["q"] for line in lines] == qs
    progress = captured.err.splitlines()       # "q=   5  moment=... ratio(theorem)=..."
    assert [line.split()[1] for line in progress] == [str(q) for q in qs]
    assert all("ratio(theorem)=" in line for line in progress)


@pytest.mark.parametrize("sweep", [[], ["--sweep"]])
def test_moment_unwritable_out_fails_before_any_q(capsys, tmp_path, monkeypatch, sweep):
    from momentlab import moments

    def no_moment(*args, **kwargs):
        raise AssertionError("a moment was computed for an unwritable --out")

    monkeypatch.setattr(moments, "brute_moment", no_moment)
    path = tmp_path / "missing" / "m.csv"
    assert main(["moment", "--q-range", "5:9", *sweep, "--out", str(path)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: [Errno 2] No such file or directory: {str(path)!r}"]


@pytest.mark.parametrize("sweep", [[], ["--sweep"]])
def test_moment_stops_at_the_first_failing_q_and_keeps_its_rows(capsys, tmp_path,
                                                                monkeypatch, sweep):
    from momentlab import moments

    real = moments.brute_moment
    calls = []

    def fail_second(*args, **kwargs):
        calls.append(args[1].q)
        if len(calls) == 2:
            raise ArithmeticError("moment should be real")
        return real(*args, **kwargs)

    monkeypatch.setattr(moments, "brute_moment", fail_second)
    path = tmp_path / "m.csv"
    assert main(["moment", "--q-range", "5:9", *sweep, "--out", str(path)]) == EXIT_ITEM
    assert calls == [5, 7]
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert err[-1] == "item q=7 failed: moment should be real"
    assert len(err) == 1 + bool(sweep)                  # --sweep: q = 5's progress line
    table = path.read_text().splitlines()
    assert len(table) == 2 and table[1].startswith("5,1,1,")
    if sweep:
        lines = (tmp_path / "m.csv.jsonl").read_text().splitlines()
        assert [json.loads(line)["q"] for line in lines] == [5]


@pytest.mark.parametrize("sweep", [[], ["--sweep"]])
def test_moment_past_the_table_cap_is_a_configuration_error(capsys, sweep):
    assert main(["moment", "--q", "5003", *sweep]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("error: a table of n_max = ") and "2**26-entry cap" in line
    assert line.endswith("lower q or raise --tol")


def test_moment_moves_the_delta_table_into_place_once(capsys, tmp_path, monkeypatch):
    # a cold cache, on disk and in memory: the table length comes from the
    # weight, with no short table built first to read it from
    monkeypatch.setenv("MOMENTLAB_CACHE_DIR", str(tmp_path))
    monkeypatch.setattr(eigenforms, "_delta_lambda_cached",
                        lru_cache(maxsize=4)(eigenforms._delta_lambda_cached.__wrapped__))
    moved = []
    real_replace = os.replace
    monkeypatch.setattr(os, "replace", lambda src, dst: moved.append(dst) or real_replace(src, dst))
    assert main(["moment", "--q", "5", "--out", str(tmp_path / "m.csv")]) == EXIT_OK
    assert moved == [tmp_path / "delta_lambda.npy"]
    assert len(np.load(tmp_path / "delta_lambda.npy")) == moment_table_length(12, 5, 1e-9) + 1


def test_moment_rejects_inadmissible_q(capsys):
    assert main(["moment", "--q", "6"]) == EXIT_CONFIG


@pytest.mark.parametrize("out", [[], ["--out"]])
def test_moment_rejected_q_writes_nothing(capsys, tmp_path, out):
    path = tmp_path / "x.csv"
    argv = ["moment", "--q", "6"] + [a for flag in out for a in (flag, str(path))]
    assert main(argv) == EXIT_CONFIG
    assert not path.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: q = 6 = 2 (mod 4) has no primitive characters"]


def test_moment_rejects_q_before_loading_the_form(capsys, monkeypatch):
    def no_load(*args, **kwargs):
        raise AssertionError("the coefficient table was loaded for a rejected q")

    monkeypatch.setattr(cli, "_load_form", no_load)
    assert main(["moment", "--q", "6"]) == EXIT_CONFIG
    assert capsys.readouterr().err.splitlines() == [
        "error: q = 6 = 2 (mod 4) has no primitive characters"]


def test_moment_requires_q(capsys):
    assert main(["moment"]) == EXIT_CONFIG


def test_moment_deterministic(capsys, tmp_path):
    # the same bytes each run, in both modes: --sweep's CSV and JSON lines
    # carry no timing
    for sweep in ([], ["--sweep"]):
        a, b = tmp_path / f"a{len(sweep)}.csv", tmp_path / f"b{len(sweep)}.csv"
        for path in (a, b):
            argv = ["moment", "--q-range", "5:9", *sweep, "--tol", "1e-8", "--out", str(path)]
            assert main(argv) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()
        if sweep:
            jsonl = [path.with_name(path.name + ".jsonl").read_bytes() for path in (a, b)]
            assert jsonl[0] == jsonl[1] != b""


def test_moment_rejects_jobs_flag(capsys):
    # the sweep runs in one process; a --jobs value would be silently ignored
    with pytest.raises(SystemExit) as exc:
        main(["moment", "--q", "5", "--jobs", "2"])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err


def test_moment_reads_a_coefficient_file_once(capsys, coefficient_file, monkeypatch, delta_small):
    from momentlab import eigenforms

    path = coefficient_file(enumerate(delta_small.lam[1:2001], 1))
    calls = []
    real_ingest = eigenforms.ingest_coefficients

    def counting_ingest(*args, **kwargs):
        calls.append(args)
        return real_ingest(*args, **kwargs)

    monkeypatch.setattr(eigenforms, "ingest_coefficients", counting_ingest)
    # the AFE at q = 5 fits in 2000 entries; L(1, f) of the main term does not
    assert main(["moment", "--q", "5", "--form", f"file:{path}"]) == EXIT_CONFIG
    assert capsys.readouterr().err.splitlines() == [
        "error: L(1,f) needs lambda up to 450000; table has 2000"]
    assert len(calls) == 1


def test_moment_header_only_coefficient_file(capsys, coefficient_file):
    path = coefficient_file([])
    assert main(["moment", "--q", "5", "--form", f"file:{path}"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {path} holds no 'n lambda(n)' rows"]


@pytest.mark.parametrize("argv", [["--q-range", "5:9"], ["--q-range", "5:9", "--sweep"]])
def test_moment_short_table_fails_once(capsys, coefficient_file, delta_small, argv):
    path = coefficient_file(enumerate(delta_small.lam[1:2001], 1))
    assert main(["moment", *argv, "--form", f"file:{path}"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: L(1,f) needs lambda up to 450000; table has 2000"]


def test_moment_sweep_reports_a_table_short_for_the_afe(capsys, coefficient_file, delta_mid):
    # 450 000 entries cover L(1, f) and the AFE at q <= 302, but not at
    # q = 303, the first valid q; the sweep fails there as the per-q path
    # does, without a traceback
    path = coefficient_file(enumerate(delta_mid.lam[1:450_001], 1))
    argv = ["moment", "--sweep", "--q-range", "303:310", "--form", f"file:{path}"]
    assert main(argv) == EXIT_ITEM
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "item q=303 failed: residue-pair matrix needs lambda up to 451390"]


def test_moment_rejects_maass_form(capsys, coefficient_file, delta_small):
    # the table would pass the table checks; ingest rejects the header first
    path = coefficient_file(enumerate(delta_small.lam[1:2001], 1), kind="maass",
                            weight=None, kappa=9.53)
    assert main(["moment", "--q", "5", "--form", f"file:{path}"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: form kind 'maass' is not supported: only level-1 holomorphic forms are "
        "('# kind holomorphic')"]


def _acceptance_voronoi_cells():
    """(b, d, q, X) of acceptance 5: d <= 5, every unit b <= max(d - 1, 1)."""
    return {(b, d, q, X) for d in range(1, 6) for b in range(1, max(d - 1, 1) + 1)
            if math.gcd(b, d) == 1 for q in (1, 2, 3, 6) for X in (10.0, 20.0, 40.0)}


def test_verify_voronoi_checks_the_acceptance_grid(capsys, monkeypatch, delta_large):
    from momentlab import voronoi

    seen = []

    def record(case):
        seen.append((case.b, case.d, case.q, case.X))
        return 0.0

    monkeypatch.setattr(voronoi, "voronoi_check", record)
    assert main(["verify", "voronoi"]) == EXIT_OK
    rep = json.loads(capsys.readouterr().out)
    assert rep["cells"] == 120 == len(seen)
    assert set(seen) == _acceptance_voronoi_cells()
    # the tail bound is reported next to the residual, not gated
    assert rep["max_residual"] == 0.0 and rep["passed"] is True
    assert math.isfinite(rep["max_tail_bound"]) and rep["max_tail_bound"] >= 0
    assert rep["max_tail_bound"] == max(
        voronoi.tail_certificate(voronoi.VoronoiCase(*cell, delta_large))
        for cell in _acceptance_voronoi_cells())


def test_verify_weil(capsys):
    assert main(["verify", "weil"]) == EXIT_OK
    rep = json.loads(capsys.readouterr().out)
    assert rep == dict(suite="weil", c_max=500, max_ratio=1.0, argmax=[1, 1, 1],
                       cells=200_000, passed=True)


def test_verify_weil_rejects_c_max_past_the_cap(capsys):
    assert main(["verify", "weil", "--c-max", "501"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: certification capped at c <= 500"]


def test_verify_weil_reports_a_violation(capsys, monkeypatch):
    from momentlab import expsums

    monkeypatch.setattr(expsums, "divisor_count", lambda c: 0.25)
    assert main(["verify", "weil", "--c-max", "10"]) == EXIT_SUITE
    captured = capsys.readouterr()
    rep = json.loads(captured.out)
    assert rep["passed"] is False and rep["c_max"] == 10
    assert rep["violation"].startswith("Weil bound violated at S(1,1;1) = 1.0")
    assert captured.err.splitlines() == ["weil: FAIL"]


@pytest.mark.parametrize("argv,error", [
    (["afe", "--c-max", "7"], "error: --c-max is read only by weil"),
    (["orthogonality", "--c-max", "7", "--q-max", "10"], "error: --c-max is read only by weil"),
    (["weil", "--q-max", "10"], "error: --q-max is read only by orthogonality, hecke"),
    (["voronoi", "--q-max", "10"], "error: --q-max is read only by orthogonality, hecke"),
    (["shifted", "--c-max", "7"], "error: --c-max is read only by weil")],
    ids=["afe", "orthogonality", "weil", "voronoi", "shifted"])
def test_verify_rejects_a_flag_the_suite_does_not_read(capsys, monkeypatch, argv, error):
    def unreached(args):
        raise AssertionError("the suite ran")

    monkeypatch.setitem(cli._SUITES, argv[0], unreached)
    assert main(["verify", *argv]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [error]


@pytest.mark.parametrize("argv", [["hecke", "--q-max", "0"], ["orthogonality", "--q-max", "-1"],
                                  ["weil", "--c-max", "0"]])
def test_verify_rejects_bounds_below_one(capsys, argv):
    # 0 is a value, not "unset": it must not fall back to the suite's default
    assert main(["verify", *argv]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {argv[1]} must be at least 1, got {argv[2]}"]


@pytest.mark.parametrize("q_range", ["5", "5:", "a:9", "10:5"])
@pytest.mark.parametrize("sweep", [[], ["--sweep"]])
def test_moment_rejects_malformed_q_range(capsys, q_range, sweep):
    assert main(["moment", "--q-range", q_range, *sweep]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: --q-range expects lo:hi with integers lo <= hi, got {q_range!r}"]


def test_moment_sweep_without_admissible_q(capsys):
    assert main(["moment", "--sweep", "--q-range", "6:6"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: q = 6 = 2 (mod 4) has no primitive characters"]


@pytest.mark.parametrize("sweep", [[], ["--sweep"]])
@pytest.mark.parametrize("argv,rules", [
    (["--q-range", "5:10", "--a", "0"], "shift parameters must be positive"),
    (["--q-range", "1:2"], "modulus must be at least 3"),
    (["--q-range", "14:15", "--b", "15"],
     "q = 14 = 2 (mod 4) has no primitive characters; (ab, q) = 1 required"),
])
def test_moment_range_without_valid_q_names_the_rule(capsys, tmp_path, monkeypatch, argv,
                                                     rules, sweep):
    def no_load(*args, **kwargs):
        raise AssertionError("the coefficient table was loaded for a range without valid q")

    monkeypatch.setattr(cli, "_load_form", no_load)
    path = tmp_path / "m.csv"
    assert main(["moment", *argv, *sweep, "--out", str(path)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == "" and not path.exists()
    lo, hi = argv[1].split(":")
    assert captured.err.splitlines() == [f"error: no valid q in [{lo}, {hi}]: {rules}"]


@pytest.mark.parametrize("tol", ["0", "-1e-9", "nan", "inf"])
@pytest.mark.parametrize("sweep", [[], ["--sweep"]])
def test_moment_rejects_tolerance_before_loading_the_table(capsys, monkeypatch, tol, sweep):
    from momentlab import eigenforms

    def no_table(*args, **kwargs):
        raise AssertionError("a coefficient table was built for an invalid tolerance")

    monkeypatch.setattr(eigenforms, "delta_coefficients", no_table)
    assert main(["moment", "--q", "7", f"--tol={tol}", *sweep]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: tolerance must be finite and > 0, got {float(tol)}"]


def test_moment_sweep_rejects_empty_range_before_loading_the_form(capsys, monkeypatch):
    def no_load(*args, **kwargs):
        raise AssertionError("the coefficient table was loaded for a rejected sweep range")

    monkeypatch.setattr(cli, "_load_form", no_load)
    assert main(["moment", "--sweep", "--q-range", "6:6"]) == EXIT_CONFIG
    assert capsys.readouterr().err.splitlines() == [
        "error: q = 6 = 2 (mod 4) has no primitive characters"]


def test_verify_shifted(capsys):
    assert main(["verify", "shifted"]) == EXIT_OK
    rep = json.loads(capsys.readouterr().out)
    assert rep["passed"] is True
    assert rep["vanishing_cells"] == 3 and rep["vanishing_max_abs"] == 0.0
    for key in ("aq_max_ratio", "emn_max_ratio", "bilinear_max_ratio"):
        assert math.isfinite(rep[key]) and rep[key] >= 0
    assert rep["aq_overlap"] == "a pair in both classes counts twice"
    assert rep["emn_overlap"] == "a pair in both classes counts once"


def test_verify_afe_evaluates_each_route_once_per_character(capsys, monkeypatch):
    from momentlab import lfunctions, moments

    calls = {"dirichlet_L_half": 0, "twisted_L_half": 0, "residue_pair_matrix": 0}

    def counting(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for name in calls:
        module = moments if name == "residue_pair_matrix" else lfunctions
        monkeypatch.setattr(module, name, counting(module, name))
    assert main(["verify", "afe"]) == EXIT_OK
    rep = json.loads(capsys.readouterr().out)
    # even primitive characters: 1 mod 5, 2 mod 7, 5 mod 13; one F per modulus
    assert calls == {"dirichlet_L_half": 8, "twisted_L_half": 8, "residue_pair_matrix": 3}
    assert rep["passed"] is True
    assert rep["max_rel_residual"] <= 1e-9
    assert rep["max_fe_residual_dirichlet"] <= 1e-10
    assert rep["max_fe_residual_twisted"] <= 1e-9
