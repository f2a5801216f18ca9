"""Command-line surface: moment evaluation, verification suites, and exact
exponent queries.

Exit codes: 0 success, 1 configuration error, 2 per-item failures,
3 verification-suite failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import sys
import time
from fractions import Fraction

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_ITEM = 2
EXIT_SUITE = 3


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _load_form(selector: str, q_hi: int, tol: float):
    """The form named by selector, with lambda(n) for moments at q <= q_hi.

    A coefficient file is read and validated once, at its own length.
    """
    from .eigenforms import delta_coefficients, ingest_coefficients
    from .lfunctions import moment_table_length

    if selector.startswith("builtin:"):
        name = selector.split(":", 1)[1]
        if name != "delta":
            raise ValueError(f"unknown builtin form {name!r}")
        return delta_coefficients(moment_table_length(12, q_hi, tol))   # Delta has weight 12
    if selector.startswith("file:"):
        return ingest_coefficients(selector.split(":", 1)[1])
    raise ValueError("form selector must be builtin:<name> or file:<path>")


def _parse_range(text: str) -> tuple[int, int]:
    parts = text.split(":")
    if (len(parts) != 2 or not all(p.strip().isdigit() for p in parts)
            or int(parts[0]) > int(parts[1])):
        raise ValueError(f"--q-range expects lo:hi with integers lo <= hi, got {text!r}")
    return int(parts[0]), int(parts[1])


def _flag_value(value, default: int, flag: str) -> int:
    """A --q-max or --c-max value: the suite's default when unset, else >= 1."""
    if value is None:
        return default
    if value < 1:
        raise ValueError(f"{flag} must be at least 1, got {value}")
    return value


def _table_writer(path, files):
    """The per-q table, to path or stdout: the header now, then one %.12g row
    per SweepRow."""
    out = files.enter_context(open(path, "w", buffering=1)) if path else sys.stdout
    print("q,a,b,moment,main_theorem,ratio_theorem,chars_used", file=out)

    def emit(r):
        cells = map(_fmt, (r.brute_re, r.main_theorem, r.ratio_theorem))
        print(",".join(str(c) for c in (r.q, r.a, r.b, *cells, r.chars_used)), file=out)
    return emit


def _sweep_writer(path, files):
    """Every SweepRow field to path as CSV and to path + ".jsonl" as JSON
    lines, if path is given, and a progress line on stderr, row by row.  The
    files hold no timing, so a run's files are the same bytes each time; the
    seconds since the previous row go to stderr only."""
    from .moments import SweepRow

    fields = list(SweepRow.__dataclass_fields__)
    if path:
        rows = csv.writer(files.enter_context(open(path, "w", newline="", buffering=1)))
        jsonl = files.enter_context(open(path + ".jsonl", "w", buffering=1))
        rows.writerow(fields)
    last = time.perf_counter()

    def emit(r):
        nonlocal last
        if path:
            rows.writerow([getattr(r, f) for f in fields])
            jsonl.write(json.dumps({f: getattr(r, f) for f in fields}) + "\n")
        now = time.perf_counter()
        print(f"q={r.q:4d}  moment={r.brute_re:+.6e}  "
              f"ratio(theorem)={r.ratio_theorem:+.4f}  [{now - last:.2f}s]", file=sys.stderr)
        last = now
    return emit


def cmd_moment(args) -> int:
    """Every q goes through moments.sweep, and this command writes its rows as
    each q is done.  The first q that fails ends the run; rows written stay."""
    from .lfunctions import L_one_f, check_tolerance
    from .moments import moment_queries, sweep

    with contextlib.ExitStack() as files:
        try:
            if args.q_range:
                q_lo, q_hi = _parse_range(args.q_range)
            elif args.q is not None:
                q_lo = q_hi = args.q
            else:
                print("error: --q or --q-range required", file=sys.stderr)
                return EXIT_CONFIG
            # q and tol are checked before the table is built, and --out is
            # opened last, so a rejected input leaves no file; it is opened
            # before the first q, so an unwritable path costs no work
            queries = moment_queries(q_lo, q_hi, args.a, args.b)
            check_tolerance(args.tol)
            form = _load_form(args.form, q_hi, args.tol)
            L_one_f(form)                  # the main term's L(1, f) fits the table
            emit = (_sweep_writer if args.sweep else _table_writer)(args.out, files)
        except (ValueError, OSError, IndexError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_CONFIG

        done = []

        def progress(row):
            emit(row)
            done.append(row.q)

        try:
            summary = sweep(form, q_lo, q_hi, args.a, args.b, v_tol=args.tol, progress=progress)
        except (ArithmeticError, IndexError) as exc:   # IndexError: the table is short for q
            print(f"item q={queries[len(done)].q} failed: {exc}", file=sys.stderr)
            return EXIT_ITEM
    if args.sweep:
        print(json.dumps(dict(winner=summary.winner,
                              median_dev_theorem=summary.median_dev_theorem,
                              median_dev_corollary=summary.median_dev_corollary,
                              error_exponent_fit=summary.error_exponent_fit,
                              rows=len(summary.rows)), sort_keys=True))
    return EXIT_OK


def _suite_orthogonality(args) -> dict:
    from .characters import enumerated_orthogonality, orthogonality_sum

    q_max = _flag_value(args.q_max, 60, "--q-max")
    worst = 0.0
    for q in range(3, q_max + 1):
        if q % 4 == 2:
            continue
        for m, n in ((1, 1), (2, 3), (1, q - 1), (5, 7)):
            if math.gcd(m * n, q) != 1:
                continue
            for sigma in (1, -1):
                lhs = enumerated_orthogonality(q, m, n, sigma)
                rhs = float(orthogonality_sum(q, m, n, sigma))
                worst = max(worst, abs(lhs - rhs))
    return dict(suite="orthogonality", q_max=q_max, max_residual=worst,
                passed=bool(worst <= 1e-9))


def _suite_hecke(args) -> dict:
    from .eigenforms import delta_coefficients, hecke_violations

    n = _flag_value(args.q_max, 10_000, "--q-max")
    bad = hecke_violations(delta_coefficients(n), n)
    return dict(suite="hecke", n_max=n, violations=bad, passed=bad == 0)


def _suite_weil(args) -> dict:
    from .expsums import weil_certify

    c_max = _flag_value(args.c_max, 500, "--c-max")
    try:
        rep = weil_certify(c_max)
    except AssertionError as exc:      # weil_certify stops at the first violating cell
        return dict(suite="weil", c_max=c_max, violation=str(exc), passed=False)
    return dict(suite="weil", c_max=rep.c_max, max_ratio=rep.max_ratio,
                argmax=list(rep.argmax), cells=rep.cells,
                passed=bool(rep.max_ratio <= 1.0 + 1e-9))


def _suite_afe(args) -> dict:
    """The triple-product AFE against the product of the two oracle routes,
    and each route's functional equation L(chi) = eps L(conj chi), from one
    evaluation of each route per even primitive chi (a set closed under
    conjugation)."""
    from .characters import build_group
    from .eigenforms import delta_coefficients
    from .lfunctions import (afe_triple_product, conjugate_index,
                             dirichlet_L_half, root_numbers, twisted_L_half)

    form = delta_coefficients(40_000)
    worst = fe_dirichlet = fe_twisted = 0.0
    for q in (5, 7, 13):
        group = build_group(q)
        even = group.primitive_indices(parity=1)
        L = {i: dirichlet_L_half(group, i) for i in even}
        Lf = {i: twisted_L_half(group, i, form) for i in even}
        for i, triple in zip(even, afe_triple_product(group, even, form)):
            j = conjugate_index(group, i)
            worst = max(worst, abs(triple - Lf[i] * L[j] ** 2) / abs(triple))
            rn = root_numbers(group, i, form)
            fe_dirichlet = max(fe_dirichlet, abs(L[i] - rn.eps_of_chi * L[j]))
            fe_twisted = max(fe_twisted, abs(Lf[i] - rn.eps_twist * Lf[j]))
    return dict(suite="afe", max_rel_residual=worst,
                max_fe_residual_dirichlet=fe_dirichlet, max_fe_residual_twisted=fe_twisted,
                passed=bool(worst <= 1e-9 and fe_dirichlet <= 1e-10 and fe_twisted <= 1e-9))


def _suite_voronoi(args) -> dict:
    """Residuals on the acceptance grid, gated; certified tail bounds, reported."""
    from .eigenforms import delta_coefficients
    from .voronoi import VoronoiCase, tail_certificate, voronoi_check

    form = delta_coefficients(2_200_000)
    worst, worst_tail, cells = 0.0, 0.0, 0
    # the acceptance grid: every unit b <= max(d - 1, 1) for d <= 5
    for d in range(1, 6):
        for b in range(1, max(d - 1, 1) + 1):
            if math.gcd(b, d) != 1:
                continue
            for q in (1, 2, 3, 6):
                for X in (10.0, 20.0, 40.0):
                    case = VoronoiCase(b, d, q, X, form)
                    worst = max(worst, voronoi_check(case))
                    worst_tail = max(worst_tail, tail_certificate(case))
                    cells += 1
    return dict(suite="voronoi", cells=cells, max_residual=worst,
                max_tail_bound=worst_tail, passed=bool(worst <= 1e-6))


def _suite_shifted(args) -> dict:
    """Acceptance 10's exact vanishing and A_q grid, E_{M,N} against the
    trivial bounds, and the bilinear incomplete-Kloosterman bound.  Ratios are
    reported, not gated.  A_q counts a pair in both classes bm = +an, -an
    (mod q) twice, E_{M,N} once."""
    from .eigenforms import delta_coefficients
    from .expsums import (ConvolutionQuery, aq_grid_report, aq_vanishing_certificate,
                          bilinear_incomplete, emn_brute, shifted_conv_Aq, trivial_bounds)
    from .special import interval_bump

    form = delta_coefficients(40_000)
    # window supports below q/2 leave no off-diagonal pair: A_q is exactly 0
    cells = [ConvolutionQuery(1, 1, q / 8.0, q / 8.0, q, window=interval_bump(1.0))
             for q in (211, 401, 1009)]
    certified = all(map(aq_vanishing_certificate, cells))
    vanishing = [abs(shifted_conv_Aq(query, form)) for query in cells]
    aq = [row["ratio"] for row in aq_grid_report(form, (101, 199, 401))]
    emn = [abs(emn_brute(M, N, 1, 1, q, form))
           / min(trivial_bounds(M, N, 1, 1, q, theta_f=form.theta))
           for q in (9, 17, 35) for M, N in ((25.0, 25.0), (40.0, 20.0), (20.0, 40.0))]
    bilinear = [bilinear_incomplete([1.0] * (q // 2), [1.0] * (q // 2), 1, q)[1]
                for q in (23, 101, 401)]
    ratios = aq + emn + bilinear
    return dict(suite="shifted", vanishing_cells=len(cells),
                vanishing_max_abs=max(vanishing),
                aq_max_ratio=max(aq), aq_overlap="a pair in both classes counts twice",
                emn_max_ratio=max(emn), emn_overlap="a pair in both classes counts once",
                bilinear_max_ratio=max(bilinear),
                passed=bool(certified and max(vanishing) == 0.0
                            and all(map(math.isfinite, ratios))))


_SUITES = dict(orthogonality=_suite_orthogonality, hecke=_suite_hecke,
               weil=_suite_weil, afe=_suite_afe, voronoi=_suite_voronoi,
               shifted=_suite_shifted)
# each verify flag and the suites that read it; any other suite rejects it
_SUITE_FLAGS = {"--q-max": ("orthogonality", "hecke"), "--c-max": ("weil",)}


def cmd_verify(args) -> int:
    if args.suite not in _SUITES:
        print(f"error: unknown suite {args.suite!r}; have {sorted(_SUITES)}",
              file=sys.stderr)
        return EXIT_CONFIG
    for flag, suites in _SUITE_FLAGS.items():
        if getattr(args, flag[2:].replace("-", "_")) is not None and args.suite not in suites:
            print(f"error: {flag} is read only by {', '.join(suites)}", file=sys.stderr)
            return EXIT_CONFIG
    try:
        report = _SUITES[args.suite](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(json.dumps(report, sort_keys=True, default=float))
    status = "PASS" if report["passed"] else "FAIL"
    print(f"{args.suite}: {status}", file=sys.stderr)
    return EXIT_OK if report["passed"] else EXIT_SUITE


def cmd_exponent(args) -> int:
    from .moments import error_exponent

    try:
        theta = Fraction(args.theta)
        beta = Fraction(args.beta)
        budget = error_exponent(theta=theta, beta=beta)
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(json.dumps(dict(theta=str(budget.theta), beta=str(budget.beta),
                          balanced=str(budget.balanced),
                          unbalanced=str(budget.unbalanced),
                          eta=str(budget.eta)), sort_keys=True))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="momentlab",
                                description="numerical laboratory for mixed "
                                            "moments of twisted L-functions")
    p.add_argument("--cache-dir", help="override coefficient/cache directory")
    sub = p.add_subparsers(dest="command", required=True)

    pm = sub.add_parser("moment", help="evaluate the mixed moment")
    pm.add_argument("--q", type=int)
    pm.add_argument("--q-range", help="lo:hi inclusive")
    pm.add_argument("--a", type=int, default=1)
    pm.add_argument("--b", type=int, default=1)
    pm.add_argument("--form", default="builtin:delta")
    pm.add_argument("--tol", type=float, default=1e-9)
    pm.add_argument("--out")
    pm.add_argument("--sweep", action="store_true")
    pm.set_defaults(func=cmd_moment)

    pv = sub.add_parser("verify", help="run a verification suite")
    pv.add_argument("suite", help="|".join(_SUITES))
    for flag in _SUITE_FLAGS:
        pv.add_argument(flag, type=int)
    pv.set_defaults(func=cmd_verify)

    pe = sub.add_parser("exponent", help="exact rational error exponents")
    pe.add_argument("--theta", default="0")
    pe.add_argument("--beta", default="0")
    pe.set_defaults(func=cmd_exponent)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.cache_dir:
        os.environ["MOMENTLAB_CACHE_DIR"] = args.cache_dir
    try:
        return args.func(args)
    except KeyboardInterrupt:
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
