import json

import pytest

from momentlab.cli import EXIT_CONFIG, EXIT_ITEM, EXIT_OK, main


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


def test_moment_reads_a_coefficient_file_once(capsys, tmp_path, monkeypatch, delta_small):
    from momentlab import eigenforms

    path = tmp_path / "form.txt"
    lines = ["# kind holomorphic", "# weight 12"]
    lines += [f"{n} {float(delta_small.lam[n])!r}" for n in range(1, 2001)]
    path.write_text("\n".join(lines))
    calls = []
    real_ingest = eigenforms.ingest_coefficients

    def counting_ingest(*args, **kwargs):
        calls.append(args)
        return real_ingest(*args, **kwargs)

    monkeypatch.setattr(eigenforms, "ingest_coefficients", counting_ingest)
    # the AFE at q = 5 fits in 2000 entries; L(1, f) of the main term does not
    assert main(["moment", "--q", "5", "--form", f"file:{path}"]) == EXIT_ITEM
    assert "L(1,f) needs lambda up to 450000" in capsys.readouterr().err
    assert len(calls) == 1
