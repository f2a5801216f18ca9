#!/usr/bin/env python3
"""Benchmark self-test: two traced runs per workload on seed 0.

    python3 perfbench/selftest.py [workload ...]

Checks that every run is correct (which includes the per-run check that the
layer self times and other.self_s add up to the traced wall), that every
count repeats exactly between the two runs, that the counts the defaults pin
down have their known values, and that the metric names match BENCHMARK.json.
Exit status 0 when all hold.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from run import END_TO_END, unit_of  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DEFAULT_COUNTS = {
    "sweep-top": {"arith.sieve_builds": 6, "characters.groups_built": 3,
                  "characters.chars_built": 280 + 282 + 140, "special.window_calls": 0},
    "voronoi-grid": {"voronoi.spline_builds": 1, "special.window_shapes": 1,
                     "arith.sieve_builds": 0},
    "verify-suites": {"expsums.weil_cells": 200_000, "expsums.shifted_conv_calls": 12,
                      "special.window_shapes": 1, "voronoi.spline_builds": 0},
}


def run(workload: str, trace: int) -> dict:
    out = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                          "--seed", "0", "--seconds", "1", "--trace", str(trace)],
                         cwd=ROOT, capture_output=True, text=True, check=True, timeout=400)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = [m["name"] for m in spec["per_layer"]]
    problems = []
    if [m["name"] for m in spec["end_to_end"]] != list(END_TO_END):
        problems.append("BENCHMARK.json end_to_end differs from run.py")
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.py")
    for m in spec["per_layer"]:
        if m["unit"] != unit_of(m["name"]):
            problems.append(f"unit of {m['name']} differs from run.py")
    for workload in sys.argv[1:] or WORKLOADS:
        first, second = run(workload, 1), run(workload, 1)
        for label, result in (("first", first), ("second", second)):
            if not result["correct"]:
                problems.append(f"{workload}: {label} traced run not correct")
            if list(result["metrics"]) != per_layer:
                problems.append(f"{workload}: per-layer names differ from BENCHMARK.json")
        for name in per_layer:
            a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
            if unit_of(name) == "count" and a != b:
                problems.append(f"{workload}: {name} = {a} then {b}")
        for name, want in DEFAULT_COUNTS[workload].items():
            if first["metrics"][name]["value"] != want:
                problems.append(f"{workload}: {name} = {first['metrics'][name]['value']}, want {want}")
        print(f"{workload}: traced twice, counts compared", flush=True)
    for p in problems:
        print(f"FAIL {p}")
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
