"""Command-line surface: moment evaluation, verification suites, and exact
exponent queries.

Exit codes: 0 success, 1 configuration error, 2 per-item failures,
3 verification-suite failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
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
        return delta_coefficients(moment_table_length(delta_coefficients(10), q_hi, tol))
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


def cmd_moment(args) -> int:
    from .lfunctions import L_one_f, check_tolerance
    from .moments import brute_moment, main_term, moment_queries, sweep

    try:
        if args.q_range:
            q_lo, q_hi = _parse_range(args.q_range)
        elif args.q is not None:
            q_lo = q_hi = args.q
        else:
            print("error: --q or --q-range required", file=sys.stderr)
            return EXIT_CONFIG
        # q and tol are checked before the table is built or --out opened,
        # so a rejected input returns at once and leaves no file
        queries = moment_queries(q_lo, q_hi, args.a, args.b)
        check_tolerance(args.tol)
        form = _load_form(args.form, q_hi, args.tol)
        if not form.is_holomorphic:
            raise ValueError(f"the main term exists for holomorphic forms only; "
                             f"{form.label!r} is a {form.kind} form")
        L1 = L_one_f(form)
    except (ValueError, OSError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    if args.sweep:
        done = []
        try:
            summary = sweep(form, q_lo, q_hi, args.a, args.b, v_tol=args.tol, out=args.out,
                            progress=done.append)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        except IndexError as exc:      # the table is too short for this q's AFE
            print(f"item q={queries[len(done)].q} failed: {exc}", file=sys.stderr)
            return EXIT_ITEM
        info = dict(winner=summary.winner,
                    median_dev_theorem=summary.median_dev_theorem,
                    median_dev_corollary=summary.median_dev_corollary,
                    error_exponent_fit=summary.error_exponent_fit,
                    rows=len(summary.rows))
        print(json.dumps(info, sort_keys=True))
        return EXIT_OK
    out = open(args.out, "w") if args.out else sys.stdout
    try:
        failures = 0
        print("q,a,b,moment,m_even,m_odd,main_theorem,ratio_theorem,chars_used",
              file=out)
        for query in queries:
            try:
                rep = brute_moment(form, query, v_tol=args.tol)
                mt = main_term(form, query, L1=L1)
                row = [query.q, args.a, args.b, _fmt(rep.moment),
                       _fmt(complex(rep.m_even).real), _fmt(complex(rep.m_odd).real),
                       _fmt(mt.value_theorem), _fmt(rep.moment / mt.value_theorem),
                       rep.chars_used]
                print(",".join(str(c) for c in row), file=out)
            except (ArithmeticError, IndexError) as exc:
                failures += 1
                print(f"item q={query.q} failed: {exc}", file=sys.stderr)
        return EXIT_ITEM if failures else EXIT_OK
    finally:
        if out is not sys.stdout:
            out.close()


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
        for i in even:
            j = conjugate_index(group, i)
            triple = afe_triple_product(group, i, form)
            worst = max(worst, abs(triple - Lf[i] * L[j] ** 2) / abs(triple))
            rn = root_numbers(group, i, form)
            fe_dirichlet = max(fe_dirichlet, abs(L[i] - rn.eps_of_chi * L[j]))
            fe_twisted = max(fe_twisted, abs(Lf[i] - rn.eps_twist * Lf[j]))
    return dict(suite="afe", max_rel_residual=worst,
                max_fe_residual_dirichlet=fe_dirichlet, max_fe_residual_twisted=fe_twisted,
                passed=bool(worst <= 1e-6 and fe_dirichlet <= 1e-10 and fe_twisted <= 1e-9))


def _suite_voronoi(args) -> dict:
    from .eigenforms import delta_coefficients
    from .voronoi import VoronoiCase, voronoi_check

    form = delta_coefficients(2_200_000)
    worst = 0.0
    cells = []
    # the acceptance grid: every unit b <= max(d - 1, 1) for d <= 5
    for d in range(1, 6):
        for b in range(1, max(d - 1, 1) + 1):
            if math.gcd(b, d) != 1:
                continue
            for q in (1, 2, 3, 6):
                for X in (10.0, 20.0, 40.0):
                    resid = voronoi_check(VoronoiCase(b, d, q, X, form))
                    worst = max(worst, resid)
                    cells.append(dict(b=b, d=d, q=q, X=X, residual=resid))
    return dict(suite="voronoi", cells=len(cells), max_residual=worst,
                passed=bool(worst <= 1e-6))


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


def cmd_verify(args) -> int:
    if args.suite not in _SUITES:
        print(f"error: unknown suite {args.suite!r}; have {sorted(_SUITES)}",
              file=sys.stderr)
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
    pv.add_argument("--q-max", type=int)
    pv.add_argument("--c-max", type=int)
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
