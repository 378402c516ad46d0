"""Command-line interface.

Subcommands: eval, coeffs, triangle, series, verify, binet, plot-data,
numeric-demo.  ``main`` parses a request once, with the parser of the
command it names (see ``parse_args``), and calls that command.  Exit
codes: 0 on success, 1 when an identity check fails, 2 on usage errors,
3 on a fault in the code: any other exception, reported as one stderr
line; 141 (128 + SIGPIPE), silently, when the reader closes stdout early.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import re
import sys
from fractions import Fraction
from itertools import islice
from typing import NamedTuple

from . import binet, lagrange, pell, verify
from .exactnum import IdentityViolationError
from .poly import plain_term

EXIT_OK = 0
EXIT_IDENTITY_FAILURE = 1
EXIT_USAGE = 2
EXIT_FAULT = 3
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, what a shell reports for a process a closed pipe ended

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


def _print_records(fmt: str, header: list, rows: list) -> None:
    """The float tables of plot-data and numeric-demo: json prints one
    object per row, keyed by the header, and csv the rows under it.  Their
    ints, Fraction strings and floats (whose str is their repr) never hold
    ',', '"' or a newline, so csv.writer would quote none."""
    if fmt == "json":
        print(json.dumps([dict(zip(header, row)) for row in rows]))
    else:
        print("".join([",".join(map(str, row)) + "\n" for row in (header, *rows)]), end="")


def write_row(command: str, family: pell.Family, n: int, digits: list, fmt: str) -> None:
    """Write the stdout of ``eval`` or ``coeffs`` for row n, from the decimal
    strings of its x-coefficients, one write per term as it is formatted.
    ``coeffs`` prints them all by index l; ``eval`` prints the nonzero ones
    at exponent n - delta - 3l, highest first (the three families have no
    negative coefficients).  The text is assembled directly: digit strings,
    ints and the family names r, s and sigma need no quoting or escaping, so
    with json.dumps' separators ", " and ": " it is byte for byte what
    json.dumps and csv.writer print."""
    write = sys.stdout.write
    coeffs = command == "coeffs"
    if coeffs:
        terms = enumerate(digits)
    else:
        top = n - family.delta
        terms = ((top - 3 * l, d) for l, d in enumerate(digits) if d != "0")
    if fmt == "csv":
        items = (f"{k},{d}\n" for k, d in terms)
        head, between, tail = ("l" if coeffs else "exp") + ",coeff\n", "", ""
    elif fmt == "plain":
        items = (d if coeffs else plain_term(k, d) for k, d in terms)
        head, between, tail = "", " " if coeffs else "+", "\n"
    else:
        items = (f'"{d}"' if coeffs else f'{{"exp": {k}, "coeff": "{d}"}}' for k, d in terms)
        key = "coeffs" if coeffs else "terms"
        head, between, tail = f'{{"family": "{family.name}", "n": {n}, "{key}": [', ", ", "]}\n"
    write(head)
    sep = ""
    for item in items:
        write(sep + item)
        sep = between
    if not sep and fmt == "plain":
        write("0")
    write(tail)


def cmd_row(args) -> int:
    # every division of the row is checked before its first byte is written
    digits = pell.coefficient_digits(args.family, args.n)
    write_row(args.command, args.family, args.n, digits, args.format)
    return EXIT_OK


def cmd_triangle(args) -> int:
    pell.write_triangle(sys.stdout, args.family, args.max_n, args.format)
    return EXIT_OK


def cmd_series(args) -> int:
    """Coefficients 1..order as num/den in lowest terms, which is str() of
    their Fraction (the denominator is never 1), assembled as in
    ``write_row``."""
    terms = [lagrange.inversion_lowest_terms(n) for n in range(1, args.order + 1)]
    if args.format == "plain":
        print("".join(["%d/%d\n" % t for t in terms]), end="")
    elif args.format == "csv":
        rows = ["%d,%d/%d\n" % (n, *t) for n, t in enumerate(terms, start=1)]
        print("n,coeff\n" + "".join(rows), end="")
    else:
        print("[" + ", ".join(['"%d/%d"' % t for t in terms]) + "]")
    return EXIT_OK


def cmd_verify(args) -> int:
    # the input errors a suite would raise, found before any suite runs:
    # closed-form and lagrange sample no t, and only lagrange needs order >= 1
    cap = len(binet.SAMPLE_T)
    if args.suite not in ("closed-form", "lagrange") and args.t_samples > cap:
        args.parser.error(f"t-samples must be at most {cap}, got {args.t_samples}")
    if args.suite in ("lagrange", "all") and args.max_n == 0:
        args.parser.error("order must be >= 1, got 0")
    reports = verify.run_suite(args.suite, args.max_n, args.t_samples, args.seed)
    print(json.dumps([r.to_dict() for r in reports]))
    return EXIT_OK if all(r.ok for r in reports) else EXIT_IDENTITY_FAILURE


def cmd_binet(args) -> int:
    try:
        point = binet.substitution_chain(args.t)
    except ValueError as exc:
        args.parser.error(str(exc))
    try:
        value = binet.binet_eval(args.family, args.n, point)
    except IdentityViolationError as exc:
        print(json.dumps({"error": str(exc)}))
        return EXIT_IDENTITY_FAILURE
    h = next(islice(pell.values_at(args.family, point.t), args.n, None))
    expected = Fraction(h, point.t.denominator**args.n)
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
    grid = [lo + span * i / (steps - 1) for i in range(steps)]
    return [(u, u * (u - 2) ** 2) for u in grid]


def _float_range_error(command: str, hint: str) -> int:
    print(f"pell3 {command}: values leave float range; {hint}", file=sys.stderr)
    return EXIT_USAGE


def cmd_plot_data(args) -> int:
    if args.lo >= args.hi:
        args.parser.error("--from must be less than --to")
    if args.steps < 2:
        args.parser.error("--steps must be at least 2")
    try:
        rows = [(float(u), float(z)) for u, z in plot_rows(args.lo, args.hi, args.steps)]
    except OverflowError:
        return _float_range_error("plot-data", "narrow --from/--to")
    _print_records(args.format, ["u", "z"], rows)
    return EXIT_OK


class DemoRow(NamedTuple):
    n: int
    exact: Fraction
    approx: float
    rel_err: float


def numeric_demo(family: pell.Family, n_max: int, x: Fraction) -> list:
    """Float Binet vs exact recurrence at a concrete x.

    Bisects for the real root x1 of X^3 - 2x*X^2 - 1, which is -1 at 0 and
    >= 0 at max(2x, 0) + 1.  The others solve X^2 + bX + 1/x1 = 0, b = 1/x1^2
    > 0, as r2 = -(b + sqrt(...))/2, which cancels nothing, and r3 = 1/(x1*r2).
    Each weight but the last is (p2 - 2x*p1 + r*p1 + p0/r) / ((r - rj)(r - rk)),
    p2 - 2x*p1 exact; the last closes the n = 0 row.  Errors are relative,
    guarded by max(1, |exact|).  Raises OverflowError once a value leaves
    float range.
    """
    import math

    seeds = [sum(c * x ** (n - family.delta) for c in s) for n, s in enumerate(family.seeds)]
    exact = list(seeds)
    for n in range(3, n_max + 1):
        exact.append(2 * x * exact[n - 1] + exact[n - 3])

    two_x = float(2 * x)
    lo, hi = 0.0, max(two_x, 0.0) + 1
    while lo < (x1 := lo + (hi - lo) / 2) < hi:
        lo, hi = (x1, hi) if x1 * x1 * (x1 - two_x) < 1 else (lo, x1)
    b, disc = x1**-2, x1**-4 - 4 / x1  # ** raises OverflowError where * gives inf
    r2 = -(b + (math.sqrt(disc) if disc >= 0 else 1j * math.sqrt(-disc))) / 2
    r3 = 1 / (x1 * r2)
    p0, p1, head = float(seeds[0]), float(seeds[1]), float(seeds[2] - 2 * x * seeds[1])
    t1, t2 = [(head + r * p1 + p0 / r) / (r - s) / (r - r3) for r, s in ((x1, r2), (r2, x1))]
    t3 = p0 - t1 - t2
    rows = []
    for n in range(n_max + 1):
        approx, value = (t1 + t2 + t3).real, float(exact[n])  # sum() compensates from 3.12 on
        err = abs(approx - value) / max(1.0, abs(value))
        if not math.isfinite(err):
            raise OverflowError(f"non-finite float at n={n}")
        rows.append(DemoRow(n, exact[n], approx, err))
        t1, t2, t3 = t1 * x1, t2 * r2, t3 * r3
    return rows


def cmd_numeric_demo(args) -> int:
    if args.x == 0:
        args.parser.error("x must be nonzero")
    try:
        rows = numeric_demo(args.family, args.n_max, args.x)
    except OverflowError:
        return _float_range_error("numeric-demo", "lower --n-max or |x|")
    if args.format == "plain":
        print(f"{'n':>4} {'exact':>24} {'float-binet':>24} {'rel-err':>12}")
        for row in rows:
            print(f"{row.n:>4} {str(row.exact):>24} {row.approx:>24.12g} {row.rel_err:>12.3e}")
    else:
        records = [(r.n, str(r.exact), r.approx, r.rel_err) for r in rows]
        _print_records(args.format, ["n", "exact", "binet", "rel_err"], records)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """argparse's parser, but help into a closed stdout raises BrokenPipeError
    for main however stdout is buffered: argparse's own print_help swallows
    the error of an unbuffered write.  Subparsers inherit this class."""

    def print_help(self, file=None):
        (file or sys.stdout).write(self.format_help())


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: argparse objects reference each
    other in cycles, so a parser per ``main`` call would leave cyclic garbage
    behind on every call."""
    parser = _Parser(
        prog="pell3",
        description="Exact third-order Pell polynomials: generation, Binet "
        "evaluation, and identity verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices  # name -> command parser, for parse_args
    negative_value = re.compile(r"-\.?\d")

    def command(name, func, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func, parser=p)
        # "-" then a digit or ".digit" is a value ("--t -5/7"), not an option
        p._negative_number_matcher = negative_value
        return p

    def add_format(p):
        p.add_argument("--format", choices=FORMATS, default="json")

    row_help = {"eval": "print a family polynomial", "coeffs": "print compact coefficients"}
    for name, text in row_help.items():
        p = command(name, cmd_row, text)
        p.add_argument("--family", type=_family, required=True)
        p.add_argument("--n", type=_nonneg, required=True)
        add_format(p)

    p = command("triangle", cmd_triangle, "coefficient triangle rows 0..max-n")
    p.add_argument("--family", type=_family, required=True)
    p.add_argument("--max-n", type=_nonneg, required=True)
    add_format(p)

    p = command("series", cmd_series, "inversion series coefficients")
    p.add_argument("--order", type=_positive, required=True)
    add_format(p)

    p = command("verify", cmd_verify, "run identity verification suites")
    p.add_argument("--suite", choices=(*verify.SUITES, "all"), default="all")
    p.add_argument("--max-n", type=_nonneg, default=None)
    p.add_argument("--t-samples", type=_positive, default=verify.DEFAULT_T_SAMPLES)
    p.add_argument("--seed", type=int, default=verify.DEFAULT_SEED)

    p = command("binet", cmd_binet, "evaluate one Binet combination exactly")
    p.add_argument("--family", type=_family, required=True)
    p.add_argument("--n", type=_nonneg, required=True)
    p.add_argument("--t", type=_rational, required=True)

    p = command("plot-data", cmd_plot_data, "samples of z = u(u-2)^2")
    p.add_argument("--from", dest="lo", type=_rational, required=True)
    p.add_argument("--to", dest="hi", type=_rational, required=True)
    p.add_argument("--steps", type=_positive, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = command("numeric-demo", cmd_numeric_demo, "float Binet vs exact recurrence")
    p.add_argument("--family", type=_family, required=True)
    p.add_argument("--n-max", type=_nonneg, default=40)
    p.add_argument("--x", type=_rational, default=Fraction(1))
    add_format(p)

    return parser


def parse_args(argv=None) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, parsed once: an argv that names a
    command goes to that command's parser alone, not through the top-level
    parser first, and any other argv (empty, -h, an unknown word) to the
    top-level parser, the one that prints those messages."""
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extra = command.parse_known_args(argv[1:])
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    args.command = argv[0]
    return args


def main(argv=None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):  # r_n passes 4300 digits from n ~ 14287
        sys.set_int_max_str_digits(0)
    try:
        try:
            args = parse_args(argv)  # help and usage errors print here and raise SystemExit
            return args.func(args)
        except (IdentityViolationError, BrokenPipeError):
            raise
        except Exception as exc:
            print(f"pell3 {args.command}: {type(exc).__name__}: {exc}", file=sys.stderr)
            return EXIT_FAULT
        finally:
            sys.stdout.flush()  # a closed pipe shows here, not in the exit flush
    except BrokenPipeError:
        # the reader closed stdout early, which is no fault: the rest of the
        # output goes to devnull, so the interpreter's exit flush stays silent
        with contextlib.suppress(OSError):  # io.UnsupportedOperation: no descriptor
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
