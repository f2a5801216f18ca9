#!/usr/bin/env python3
"""Sweep the mixed moment against its predicted main term over a q-range.

Writes a per-q CSV (and JSONL) and prints the adjudication summary:
which main-term normalization the data converges to, the median deviations,
and the fitted error exponent.

Example:
    python3 scripts/sweep_moments.py --q-lo 30 --q-hi 300 --out sweep.csv
"""

import argparse
import json
import sys

from momentlab.eigenforms import delta_coefficients
from momentlab.lfunctions import moment_table_length
from momentlab.moments import sweep


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--q-lo", type=int, default=30)
    ap.add_argument("--q-hi", type=int, default=300)
    ap.add_argument("--a", type=int, default=1)
    ap.add_argument("--b", type=int, default=1)
    ap.add_argument("--tol", type=float, default=1e-8)
    ap.add_argument("--out", default="sweep.csv")
    args = ap.parse_args()

    form = delta_coefficients(moment_table_length(12, args.q_hi, args.tol))   # weight 12

    def progress(row):
        print(f"q={row.q:4d}  moment={row.brute_re:+.6e}  "
              f"ratio(theorem)={row.ratio_theorem:+.4f}  "
              f"[{row.seconds:.2f}s]", file=sys.stderr)

    summary = sweep(form, args.q_lo, args.q_hi, args.a, args.b,
                    v_tol=args.tol, out=args.out, progress=progress)
    print(json.dumps(dict(winner=summary.winner,
                          median_dev_theorem=summary.median_dev_theorem,
                          median_dev_corollary=summary.median_dev_corollary,
                          error_exponent_fit=summary.error_exponent_fit,
                          rows=len(summary.rows)), indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
