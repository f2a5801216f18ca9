import pytest

from momentlab.eigenforms import delta_coefficients


@pytest.fixture(scope="session")
def delta_small():
    """Coefficient table large enough for AFE work at q <= 13."""
    return delta_coefficients(40_000)


@pytest.fixture(scope="session")
def delta_mid():
    """Table covering moment sweeps to q = 300 and L(1, f)."""
    return delta_coefficients(750_000)


@pytest.fixture(scope="session")
def delta_large():
    """Table covering the full Voronoi acceptance grid."""
    return delta_coefficients(2_200_000)


@pytest.fixture
def coefficient_file(tmp_path):
    """Writer of a coefficient file in the format ingest_coefficients reads:
    write(rows, **header) puts one '# key value' line per header entry (kind
    holomorphic and weight 12 unless given; None leaves the line out), then
    one 'n lambda(n)' line per (n, value) of rows, into form.txt, and
    returns its path."""
    def write(rows, **header):
        header = {"kind": "holomorphic", "weight": 12, **header}
        lines = [f"# {key} {value}" for key, value in header.items() if value is not None]
        lines += [f"{n} {float(value)!r}" for n, value in rows]
        path = tmp_path / "form.txt"
        path.write_text("\n".join(lines))
        return path
    return write
