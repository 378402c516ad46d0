"""Command-line interface.

Subcommands: eval, coeffs, triangle, series, verify, binet, plot-data,
numeric-demo, bench.  Exit codes: 0 on success, 1 when an identity check
fails, 2 on usage errors.  The env var PELL3_SEED overrides the default
sampling seed for the verification sweeps.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

from . import binet, lagrange, pell, verify
from .exactnum import IdentityViolationError
from .poly import CompactPell

EXIT_OK = 0
EXIT_IDENTITY_FAILURE = 1
EXIT_USAGE = 2

FORMATS = ("json", "csv", "plain")


def _family(text: str) -> pell.Family:
    name = {"σ": "sigma"}.get(text, text)
    try:
        return pell.by_name(name)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _nonneg(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def _positive(text: str) -> int:
    value = _nonneg(text)
    if value == 0:
        raise argparse.ArgumentTypeError("must be positive")
    return value


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from None


def _seed_from_env(parser: argparse.ArgumentParser) -> int:
    raw = os.environ.get("PELL3_SEED")
    if raw is None:
        return verify.DEFAULT_SEED
    try:
        return int(raw)
    except ValueError:
        parser.error(f"PELL3_SEED is not an integer: {raw!r}")


def _csv_lines(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def render_poly(poly: CompactPell, fmt: str) -> str:
    if fmt == "plain":
        return poly.to_dense().format_plain()
    if fmt == "csv":
        return _csv_lines(
            ["exp", "coeff"],
            [[poly.exponent(l), str(c)] for l, c in enumerate(poly.coeffs) if c],
        )
    return json.dumps(poly.to_json_dict())


def cmd_eval(args) -> int:
    text = render_poly(pell.recurrence_gen(args.family, args.n), args.format)
    print(text, end="" if text.endswith("\n") else "\n")
    return EXIT_OK


def cmd_coeffs(args) -> int:
    poly = pell.recurrence_gen(args.family, args.n)
    coeffs = [str(c) for c in poly.coeffs]
    if args.format == "plain":
        print(" ".join(coeffs) if coeffs else "0")
    elif args.format == "csv":
        print(_csv_lines(["l", "coeff"], list(enumerate(coeffs))), end="")
    else:
        print(json.dumps({"family": args.family.name, "n": args.n, "coeffs": coeffs}))
    return EXIT_OK


def cmd_triangle(args) -> int:
    if args.format == "csv":
        print(pell.triangle_csv(args.family, args.max_n), end="")
    elif args.format == "plain":
        for row in pell.coefficient_triangle(args.family, args.max_n):
            print(" ".join(str(c) for c in row))
    else:
        rows = [
            [str(c) for c in row]
            for row in pell.coefficient_triangle(args.family, args.max_n)
        ]
        print(json.dumps({"family": args.family.name, "max_n": args.max_n, "rows": rows}))
    return EXIT_OK


def cmd_series(args) -> int:
    coeffs = [str(lagrange.inversion_coefficient(n)) for n in range(1, args.order + 1)]
    if args.format == "plain":
        print("\n".join(coeffs))
    elif args.format == "csv":
        print(_csv_lines(["n", "coeff"], list(enumerate(coeffs, start=1))), end="")
    else:
        print(json.dumps(coeffs))
    return EXIT_OK


def cmd_verify(args, parser) -> int:
    try:
        reports = verify.run_suite(args.suite, args.max_n, args.t_samples, args.seed)
    except ValueError as exc:
        parser.error(str(exc))
    print(json.dumps([r.to_dict() for r in reports]))
    return EXIT_OK if all(r.ok for r in reports) else EXIT_IDENTITY_FAILURE


def cmd_binet(args, parser) -> int:
    try:
        point = binet.substitution_chain(args.t)
    except binet.DegenerateParameterError as exc:
        parser.error(str(exc))
    try:
        value = binet.binet_eval(args.family, args.n, point)
    except IdentityViolationError as exc:
        print(json.dumps({"error": str(exc)}))
        return EXIT_IDENTITY_FAILURE
    expected = pell.recurrence_gen(args.family, args.n).eval_in_z(point.z)
    result = {
        "family": args.family.name,
        "n": args.n,
        "t": str(point.t),
        "z": str(point.z),
        "value": str(value),
        "matches_recurrence": value == expected,
    }
    print(json.dumps(result))
    return EXIT_OK if value == expected else EXIT_IDENTITY_FAILURE


def plot_rows(lo: Fraction, hi: Fraction, steps: int) -> list:
    """Exact (u, z) samples of z = u(u-2)^2 on an even rational grid."""
    span = hi - lo
    return [
        (u, u * (u - 2) ** 2)
        for i in range(steps)
        for u in (lo + span * i / (steps - 1),)
    ]


def cmd_plot_data(args) -> int:
    rows = plot_rows(args.lo, args.hi, args.steps)
    if args.format == "json":
        print(json.dumps([{"u": float(u), "z": float(z)} for u, z in rows]))
    else:
        print(_csv_lines(["u", "z"], [[repr(float(u)), repr(float(z))] for u, z in rows]), end="")
    return EXIT_OK


@dataclass
class DemoRow:
    n: int
    exact: Fraction
    approx: float
    rel_err: float


def numeric_demo(family: pell.Family, n_max: int, x: Fraction) -> list:
    """Float Binet vs exact recurrence at a concrete x.

    Finds the roots of X^3 - 2x*X^2 - 1 with a general numeric cubic
    solver, fits the three weights to the initial values by a 3x3 linear
    solve, and compares against the exact recurrence values.  Errors are
    relative, guarded by max(1, |exact|) so zero terms stay well-defined.
    """
    import numpy as np

    xf = float(x)
    roots = np.roots([1.0, -2.0 * xf, 0.0, -1.0])
    vander = np.vstack([roots**n for n in range(3)]).astype(complex)
    seeds = [p.to_dense()(x) for p in (pell.recurrence_gen(family, n) for n in range(3))]
    weights = np.linalg.solve(vander, np.array([float(v) for v in seeds], dtype=complex))

    exact = list(seeds)
    for n in range(3, n_max + 1):
        exact.append(2 * x * exact[n - 1] + exact[n - 3])

    rows = []
    for n in range(n_max + 1):
        approx = (weights * roots**n).sum().real
        err = abs(approx - float(exact[n])) / max(1.0, abs(float(exact[n])))
        rows.append(DemoRow(n, exact[n], approx, err))
    return rows


def cmd_numeric_demo(args, parser) -> int:
    if args.x == 0:
        parser.error("x must be nonzero")
    rows = numeric_demo(args.family, args.n_max, args.x)
    if args.format == "plain":
        print(f"{'n':>4} {'exact':>24} {'float-binet':>24} {'rel-err':>12}")
        for row in rows:
            print(f"{row.n:>4} {str(row.exact):>24} {row.approx:>24.12g} {row.rel_err:>12.3e}")
    elif args.format == "csv":
        print(
            _csv_lines(
                ["n", "exact", "binet", "rel_err"],
                [[r.n, str(r.exact), repr(r.approx), repr(r.rel_err)] for r in rows],
            ),
            end="",
        )
    else:
        print(
            json.dumps(
                [
                    {"n": r.n, "exact": str(r.exact), "binet": r.approx, "rel_err": r.rel_err}
                    for r in rows
                ]
            )
        )
    return EXIT_OK


def cmd_bench(args, parser) -> int:
    if args.n < args.family.closed_form_min:
        parser.error(
            f"closed form for family {args.family.name} needs "
            f"n >= {args.family.closed_form_min}"
        )
    t0 = time.perf_counter()
    by_recurrence = pell.recurrence_gen(args.family, args.n)
    t1 = time.perf_counter()
    by_closed_form = pell.closed_form(args.family, args.n)
    t2 = time.perf_counter()
    equal = by_recurrence == by_closed_form
    print(
        json.dumps(
            {
                "family": args.family.name,
                "n": args.n,
                "recurrence_seconds": t1 - t0,
                "closed_form_seconds": t2 - t1,
                "equal": equal,
            }
        )
    )
    return EXIT_OK if equal else EXIT_IDENTITY_FAILURE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pell3",
        description="Exact third-order Pell polynomials: generation, Binet "
        "evaluation, and identity verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p, default="json"):
        p.add_argument("--format", choices=FORMATS, default=default)

    p = sub.add_parser("eval", help="print a family polynomial")
    p.add_argument("--family", type=_family, required=True)
    p.add_argument("--n", type=_nonneg, required=True)
    add_format(p)

    p = sub.add_parser("coeffs", help="print compact coefficients")
    p.add_argument("--family", type=_family, required=True)
    p.add_argument("--n", type=_nonneg, required=True)
    add_format(p)

    p = sub.add_parser("triangle", help="coefficient triangle rows 0..max-n")
    p.add_argument("--family", type=_family, required=True)
    p.add_argument("--max-n", type=_nonneg, required=True)
    add_format(p)

    p = sub.add_parser("series", help="inversion series coefficients")
    p.add_argument("--order", type=_positive, required=True)
    add_format(p)

    p = sub.add_parser("verify", help="run identity verification suites")
    p.add_argument("--suite", choices=verify.SUITES + ("all",), default="all")
    p.add_argument("--max-n", type=_nonneg, default=None)
    p.add_argument("--t-samples", type=_positive, default=verify.DEFAULT_T_SAMPLES)
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("binet", help="evaluate one Binet combination exactly")
    p.add_argument("--family", type=_family, required=True)
    p.add_argument("--n", type=_nonneg, required=True)
    p.add_argument("--t", type=_rational, required=True)

    p = sub.add_parser("plot-data", help="samples of z = u(u-2)^2")
    p.add_argument("--curve", choices=("z-of-u",), default="z-of-u")
    p.add_argument("--from", dest="lo", type=_rational, required=True)
    p.add_argument("--to", dest="hi", type=_rational, required=True)
    p.add_argument("--steps", type=_positive, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("numeric-demo", help="float Binet vs exact recurrence")
    p.add_argument("--family", type=_family, required=True)
    p.add_argument("--n-max", type=_nonneg, default=40)
    p.add_argument("--x", type=_rational, default=Fraction(1))
    add_format(p)

    p = sub.add_parser("bench", help="time recurrence vs closed form")
    p.add_argument("--family", type=_family, required=True)
    p.add_argument("--n", type=_positive, required=True)

    return parser


def main(argv=None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):  # r_n passes 4300 digits from n ~ 14287
        sys.set_int_max_str_digits(0)
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "plot-data":
        if args.lo >= args.hi:
            parser.error("--from must be less than --to")
        if args.steps < 2:
            parser.error("--steps must be at least 2")
        return cmd_plot_data(args)
    if args.command == "verify":
        if args.seed is None:
            args.seed = _seed_from_env(parser)
        return cmd_verify(args, parser)
    if args.command == "eval":
        return cmd_eval(args)
    if args.command == "coeffs":
        return cmd_coeffs(args)
    if args.command == "triangle":
        return cmd_triangle(args)
    if args.command == "series":
        return cmd_series(args)
    if args.command == "binet":
        return cmd_binet(args, parser)
    if args.command == "numeric-demo":
        return cmd_numeric_demo(args, parser)
    return cmd_bench(args, parser)


if __name__ == "__main__":
    sys.exit(main())
