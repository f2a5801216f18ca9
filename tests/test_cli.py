import json
import math

import pytest

from momentlab import cli
from momentlab.cli import EXIT_CONFIG, EXIT_ITEM, EXIT_OK, EXIT_SUITE, main


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
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["moment", "--q", "7", "--tol", "1e-8", "--out", str(a)])
    main(["moment", "--q", "7", "--tol", "1e-8", "--out", str(b)])
    assert a.read_text() == b.read_text()


def test_moment_rejects_jobs_flag(capsys):
    # the sweep runs in one process; a --jobs value would be silently ignored
    with pytest.raises(SystemExit) as exc:
        main(["moment", "--q", "5", "--jobs", "2"])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err


def _coefficient_file(path, form, kind="holomorphic", parameter="# weight 12", n_max=2000):
    lines = [f"# kind {kind}", parameter]
    lines += [f"{n} {float(form.lam[n])!r}" for n in range(1, n_max + 1)]
    path.write_text("\n".join(lines))
    return path


def test_moment_reads_a_coefficient_file_once(capsys, tmp_path, monkeypatch, delta_small):
    from momentlab import eigenforms

    path = _coefficient_file(tmp_path / "form.txt", delta_small)
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


def test_moment_header_only_coefficient_file(capsys, tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("# kind holomorphic\n# weight 12\n")
    assert main(["moment", "--q", "5", "--form", f"file:{path}"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {path} holds no 'n lambda(n)' rows"]


@pytest.mark.parametrize("argv", [["--q-range", "5:9"], ["--q-range", "5:9", "--sweep"]])
def test_moment_short_table_fails_once(capsys, tmp_path, delta_small, argv):
    path = _coefficient_file(tmp_path / "form.txt", delta_small)
    assert main(["moment", *argv, "--form", f"file:{path}"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: L(1,f) needs lambda up to 450000; table has 2000"]


def test_moment_sweep_reports_a_table_short_for_the_afe(capsys, tmp_path, delta_mid):
    # 450 000 entries cover L(1, f) but not the AFE at q = 291, the first
    # valid q; the sweep fails there as the per-q path does, without a traceback
    path = _coefficient_file(tmp_path / "form.txt", delta_mid, n_max=450_000)
    argv = ["moment", "--sweep", "--q-range", "290:300", "--form", f"file:{path}"]
    assert main(argv) == EXIT_ITEM
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "item q=291 failed: residue-pair matrix needs lambda up to 576925"]


def test_moment_rejects_maass_form(capsys, tmp_path, delta_small):
    # the table passes ingest's checks; the main term has no Maass constant
    path = _coefficient_file(tmp_path / "f.txt", delta_small,
                             kind="maass", parameter="# kappa 9.53")
    assert main(["moment", "--q", "5", "--form", f"file:{path}"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: the main term exists for holomorphic forms only; 'f' is a maass form"]


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
    from momentlab import lfunctions

    calls = {"dirichlet_L_half": 0, "twisted_L_half": 0}

    def counting(name):
        real = getattr(lfunctions, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(lfunctions, name, counting(name))
    assert main(["verify", "afe"]) == EXIT_OK
    rep = json.loads(capsys.readouterr().out)
    # even primitive characters: 1 mod 5, 2 mod 7, 5 mod 13
    assert calls == {"dirichlet_L_half": 8, "twisted_L_half": 8}
    assert rep["passed"] is True
    assert rep["max_rel_residual"] <= 1e-6
    assert rep["max_fe_residual_dirichlet"] <= 1e-10
    assert rep["max_fe_residual_twisted"] <= 1e-9
