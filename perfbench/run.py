#!/usr/bin/env python3
"""momentlab benchmark: one workload, measured for a fixed time, checked.

    python3 perfbench/run.py --workload sweep-top --seed 0 --seconds 35 --trace 0

Run from the root of a source checkout.  Each iteration is a fresh
interpreter (perfbench/worker.py) reading a warm coefficient cache under
.bench_build/perfbench/cache, which the first run fills (untimed).  The
benchmark never reads or writes ~/.cache/momentlab.

--trace 0 prints the end-to-end metrics: medians over the iterations of
wall_s, first_result_s and peak_rss_mb, and the median set-up time over
every process started.  --trace 1 runs one untraced iteration, then traced
ones, and prints the per-layer metrics (medians over the traced iterations).
The last line of standard output is one JSON object; a results file with an
environment record goes to .bench_build/perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from datetime import datetime, timezone
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_build" / "perfbench"
CACHE = OUT / "cache"
DEADLINE_S = 170.0          # every run ends well inside the 180 s limit
SETUP_SAMPLES = 3           # set-up-only processes top the iterations up to this
END_TO_END = {"wall_s": "s", "first_result_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

sys.path.insert(0, str(HERE))
from workloads import CACHE_ENTRIES, WORKLOADS  # noqa: E402


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    return "abs" if metric.endswith("residual") else "count"


def thread_pins() -> dict[str, str]:
    n = str(min(2, len(os.sched_getaffinity(0))))
    return {k: n for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                           "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}


def worker_env() -> dict[str, str]:
    env = dict(os.environ, **thread_pins())
    env["MOMENTLAB_CACHE_DIR"] = str(CACHE)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    env["PYTHONHASHSEED"] = "0"
    return env


def cache_entries() -> int:
    import numpy as np

    try:
        return len(np.load(CACHE / "delta_lambda.npy", mmap_mode="r")) - 1
    except (OSError, ValueError):  # missing or unreadable: fill it again
        return 0


def ensure_cache() -> bool:
    """Fill the benchmark's own coefficient cache once; True if it was warm."""
    if cache_entries() >= CACHE_ENTRIES:
        return True
    tmp = OUT / "cache.tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    CACHE.mkdir(parents=True, exist_ok=True)
    env = dict(worker_env(), MOMENTLAB_CACHE_DIR=str(tmp))
    code = (f"from momentlab.eigenforms import delta_coefficients as d; d({CACHE_ENTRIES})")
    subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True, timeout=850)
    os.replace(tmp / "delta_lambda.npy", CACHE / "delta_lambda.npy")
    return False


def spawn(args: argparse.Namespace, tag: str, deadline: float, *flags: str) -> dict:
    """One worker process; a crash or timeout comes back as an error entry."""
    result_path = OUT / "tmp" / f"{tag}.json"
    log_path = OUT / "tmp" / f"{tag}.log"
    result_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--out", str(result_path), *flags]
    with open(log_path, "w") as log:
        t0 = time.time()
        proc = subprocess.Popen(cmd + ["--t0", repr(t0)], cwd=ROOT, env=worker_env(),
                                stdout=log, stderr=subprocess.STDOUT)
        try:
            proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            return {"error": "timeout", "span_s": time.time() - t0}
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if proc.returncode != 0 or not result_path.exists():
        return {"error": f"exit {proc.returncode}: {log_path.read_text()[-2000:]}",
                "span_s": time.time() - t0}
    return dict(json.loads(result_path.read_text()), span_s=time.time() - t0)


def environment(args: argparse.Namespace, warm: bool) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True).stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "momentlab").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "commit": commit, "source_sha256": src.hexdigest(), "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
        **{pkg: metadata.version(pkg) for pkg in ("numpy", "scipy", "sympy")},
        "thread_pins": thread_pins(), "seed": args.seed, "workload": args.workload,
        "seconds": args.seconds, "trace": args.trace,
        "cache_path": str(CACHE.relative_to(ROOT) / "delta_lambda.npy"),
        "cache_entries": cache_entries(), "cache_warm": warm,
        "started_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


def median_of(rows: list[dict], key: str) -> float:
    values = [r[key] for r in rows if r.get(key) is not None]
    return statistics.median(values) if values else 0.0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "momentlab" / "__init__.py").is_file():
        return fail(f"no momentlab sources under {ROOT / 'src'}; run from a source checkout")

    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    warm = ensure_cache()
    cache_file = CACHE / "delta_lambda.npy"
    cache_stat = (cache_file.stat().st_size, cache_file.stat().st_mtime_ns)
    env_record = environment(args, warm)
    start = time.monotonic()
    deadline = start + DEADLINE_S
    tag = f"{args.workload}-seed{args.seed}"

    plain: list[dict] = []
    traced: list[dict] = []
    longest = 0.0
    while True:
        i = len(plain) + len(traced)
        flags = ()
        if args.trace and plain:
            flags = ("--trace", "--spans", str(OUT / "results" / f"{tag}-spans{i}.json"))
        row = spawn(args, f"{tag}-it{i}", deadline, *flags)
        (traced if flags else plain).append(row)
        longest = max(longest, row["span_s"])
        if "error" in row:
            break
        done = not args.trace or traced
        if done and time.monotonic() - start + longest > args.seconds:
            break

    runs = plain + traced
    probes = []
    while not args.trace and len(runs) + len(probes) < SETUP_SAMPLES and "error" not in row:
        probes.append(spawn(args, f"{tag}-setup{len(probes)}", deadline, "--setup-only"))
    expected = WORKLOADS[args.workload].expected_ops(WORKLOADS[args.workload].params(args.seed))
    attempted = sum(r.get("attempted", expected) for r in runs)
    failed = sum(r.get("failed", expected) for r in runs)
    problems = [r["error"] for r in runs + probes if "error" in r]
    problems += [f for r in runs for f in r.get("failures", [])]
    if (cache_file.stat().st_size, cache_file.stat().st_mtime_ns) != cache_stat:
        problems.append("the coefficient cache was rewritten during the run")

    if args.trace:
        metrics = trace_metrics(plain, traced, problems)
    else:
        metrics = {k: median_of(runs, k) for k in ("wall_s", "first_result_s", "peak_rss_mb")}
        metrics["setup_s"] = median_of(probes + runs, "setup_s")
        metrics = {k: metrics[k] for k in END_TO_END}
    correct = not problems and failed == 0

    results = {"environment": env_record, "params": WORKLOADS[args.workload].params(args.seed),
               "correct": correct, "attempted": attempted, "failed": failed,
               "ops_failed_frac": failed / attempted, "problems": problems[:50],
               "metrics": metrics, "iterations": runs, "setup_probes": probes,
               "elapsed_s": time.monotonic() - start}
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S")
    path = OUT / "results" / f"{tag}-trace{args.trace}-{stamp}.json"
    path.write_text(json.dumps(results, indent=1, default=str))

    print(f"{args.workload} seed {args.seed} {results['params']}: {len(plain)} untraced and "
          f"{len(traced)} traced iterations, {len(probes) + len(runs)} set-ups")
    for name, value in metrics.items():
        print(f"  {name:32s} {value:>16.6g} {END_TO_END.get(name) or unit_of(name)}")
    print(f"  {'ops_failed_frac':32s} {failed / attempted:>16.6g} ratio ({failed}/{attempted})")
    for p in problems[:10]:
        print(f"  problem: {p.strip()[:300]}")
    print(f"results: {path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": END_TO_END.get(k) or unit_of(k)}
                                  for k, v in metrics.items()}}))
    return 0


def trace_metrics(plain: list[dict], traced: list[dict], problems: list[str]) -> dict:
    """Medians of the per-layer metrics; counts must repeat and self times add up."""
    layers = [r["layers"] for r in traced if "layers" in r]
    if not layers:
        problems.append("no traced iteration completed")
        return {}
    metrics = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
    for k in layers[0]:
        if unit_of(k) == "count" and len({m[k] for m in layers}) > 1:
            problems.append(f"count {k} differs between traced iterations")
    for m in layers:
        parts = sum(v for k, v in m.items() if k.endswith(".self_s"))
        if abs(parts - m["trace.wall_s"]) > 1e-6 * m["trace.wall_s"]:
            problems.append(f"self times sum to {parts} s, traced wall is {m['trace.wall_s']} s")
    metrics["trace.overhead_s"] = median_of(traced, "wall_s") - median_of(plain, "wall_s")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
