"""One workload iteration in a fresh interpreter, so that every module-level
cache of momentlab starts cold, as it does for a real script or CLI call.

    python3 perfbench/worker.py --workload NAME --seed N --t0 SPAWN_TIME
                                --out RESULT.json [--trace] [--spans SPANS.json]
                                [--setup-only]

The parent passes the wall-clock time at which it spawned this process, so
set-up time covers interpreter start, imports and the loading and validation
of the coefficient table.  The result is written as JSON to --out.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import sys
import time
import traceback


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    from tracing import LAYERS, Tracer
    from workloads import WORKLOADS

    for layer in LAYERS:
        importlib.import_module(f"momentlab.{layer}")
    from momentlab import eigenforms

    workload = WORKLOADS[args.workload]
    params = workload.params(args.seed)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    form = eigenforms.delta_coefficients(workload.table_entries)
    result = {"setup_s": time.time() - args.t0, "params": params}
    if args.setup_only:
        return _write(args.out, result)

    checks: list[tuple[float, bool, str]] = []

    def check(ok: bool, what: str) -> None:
        checks.append((time.perf_counter(), bool(ok), what))

    t_ready = time.perf_counter()
    try:
        workload.run(form, params, check)
    except Exception:  # a crash fails the operations it did not reach
        result["error"] = traceback.format_exc()
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.summary()
        if args.spans:
            tracer.write(args.spans)
    passed = sum(ok for _, ok, _ in checks)
    attempted = max(workload.expected_ops(params), len(checks))
    result.update(
        wall_s=checks[-1][0] - t_ready if checks else None,
        first_result_s=checks[0][0] - t_ready if checks else None,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        attempted=attempted,
        failed=attempted - passed,
        failures=[what for _, ok, what in checks if not ok][:20],
    )
    return _write(args.out, result)


def _write(path: str, result: dict) -> int:
    with open(path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
