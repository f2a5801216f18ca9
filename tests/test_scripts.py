import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          env=env, capture_output=True, text=True, timeout=300)


def test_aq_grid_script():
    run = _run_script("aq_grid.py", "--qs", "101", "199")
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1].startswith("max ratio: ")
    assert run.stdout.splitlines()[-1].endswith(" cells")


def test_voronoi_residuals_script(delta_large):
    # delta_large puts the script's default 2.2M-entry table on disk first
    run = _run_script("voronoi_residuals.py", "--d-max", "2", "--qs", "1", "6", "--xs", "10")
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1].startswith("max residual: ")
