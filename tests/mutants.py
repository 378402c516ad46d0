"""Every fault the tests inject, one row each: one source replacement.

A row names a target in pell3, ``module.function`` or a module constant; text
that occurs in its source exactly once, and the text that replaces it; a run,
which is one verify suite, one command through ``cli.main`` or
``closed_form_certificate``; and the run's exact outcome with the fault in,
an exception as its type and message.  Every fault row is killed: its outcome
differs from the clean run's.  A weakening row makes a check pass whatever it
is given, which no clean run can see; it names the fault row it must hide,
and with both in, that row's run must lose that row's outcome.
"""

from __future__ import annotations

import __future__
import ast
import contextlib
import functools
import importlib
import io
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import pytest

from pell3 import pell, verify
from pell3.cli import main
from pell3.exactnum import IdentityViolationError


def suite(name: str, max_n: int, t_samples: int = 2, seed: int = 42) -> list:
    """The ordered (t, n, check) failures of one verify suite."""
    [report] = verify.run_suite(name, max_n, t_samples, seed)
    return [(f["t"], f["n"], f["check"]) for f in report.failures]


def cli(*argv: str) -> tuple:
    """The exit code of one pell3 command and its stdout, parsed as JSON,
    or None when it printed nothing."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    text = out.getvalue()
    return code, json.loads(text) if text else None


def certificate() -> dict:
    """The failed checks of closed_form_certificate, by family."""
    return {name: pell.closed_form_certificate(family) for name, family in pell.FAMILIES.items()}


@dataclass(frozen=True)
class Row:
    id: str
    target: str
    old: str
    new: str
    run: tuple = ()  # (run function, *its arguments); a weakening row runs what it hides
    expected: object = None
    hides: str | None = None  # the fault row a weakening row must hide


@functools.cache
def _parsed(module_name: str) -> tuple:
    """A pell3 module, its source, and its top-level definitions in order, as
    (statement, names it binds, names an assignment reads)."""
    module = importlib.import_module(f"pell3.{module_name}")
    source = Path(module.__file__).read_text(encoding="utf-8")
    statements = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            statements.append((node, {node.name}, set()))
        elif isinstance(node, ast.Assign):
            bound = {t.id for t in node.targets if isinstance(t, ast.Name)}
            reads = {n.id for n in ast.walk(node.value) if isinstance(n, ast.Name)}
            statements.append((node, bound, reads))
    return module, source, statements


def apply(monkeypatch, *rows: Row) -> None:
    """Patch each row's fault in, until monkeypatch is undone: its target
    compiled from the real source with the text replaced, in the module's own
    namespace, then every module constant derived from it re-assigned, and
    each result put wherever another pell3 module holds the original."""
    edits = {}
    for row in rows:
        edits.setdefault(row.target, []).append(row)
    for target, target_rows in edits.items():
        module_name, name = target.split(".")
        module, source, statements = _parsed(module_name)
        originals = dict(vars(module))
        [start] = [i for i, (_, names, _) in enumerate(statements) if name in names]
        changed = set()
        for node, names, reads in statements[start:]:
            if changed and not reads & changed:  # not a constant derived from a changed name
                continue
            text = ast.get_source_segment(source, node)
            for row in target_rows if not changed else ():
                assert text.count(row.old) == 1, f"{row.id}: {row.old!r} not once in {target}"
                text = text.replace(row.old, row.new)
            for bound in names:
                monkeypatch.setattr(module, bound, getattr(module, bound))
            flags = __future__.annotations.compiler_flag  # as the source is written
            code = compile("\n" * (node.lineno - 1) + text, module.__file__, "exec", flags, True)
            exec(code, vars(module))
            changed |= names
        for holder in [m for key, m in sys.modules.items() if key.startswith("pell3.")]:
            for bound in changed:
                if holder is not module and getattr(holder, bound, None) is originals[bound]:
                    monkeypatch.setattr(holder, bound, getattr(module, bound))


def outcome(run: tuple):
    """What a run returns, or the type and message of what it raises."""
    func, *args = run
    try:
        return func(*args)
    except Exception as exc:
        return type(exc), str(exc)


@functools.cache
def clean_outcome(run: tuple):
    return outcome(run)


@functools.cache
def mutated_outcome(row_id: str):
    """The row's outcome, a weakening row's with the fault it hides in too."""
    row = ROW[row_id]
    rows = [row] if row.hides is None else [ROW[row.hides], row]
    with pytest.MonkeyPatch.context() as monkeypatch:
        apply(monkeypatch, *rows)
        return outcome(rows[0].run)


def assert_killed(row: Row) -> None:
    if row.hides is None:
        assert mutated_outcome(row.id) == row.expected
        assert row.expected != clean_outcome(row.run)
    else:
        assert mutated_outcome(row.id) != ROW[row.hides].expected


def moved(*row_ids: str, ids: list | None = None) -> staticmethod:
    """A fault test moved into the table, under its old name: it asserts the
    rows killed, one case each when ids are given.  A staticmethod serves in
    a test class and at module level alike."""
    if ids:

        @pytest.mark.parametrize("row_id", row_ids, ids=ids)
        def test(row_id):
            assert_killed(ROW[row_id])

    else:

        def test():
            for row_id in row_ids:
                assert_killed(ROW[row_id])

    return staticmethod(test)


def each(ts, checks, families=(None,)) -> list:
    """(t, n, check) for each t, family and (n, check) of checks, in that
    order, the check prefixed "<family>: " as verify prefixes it."""
    return [(t, n, check if family is None else f"{family}: {check}")
            for t in ts for family in families for n, check in checks]


def at(ns, *checks: str) -> list:
    """(n, check) for each n of ns and each check."""
    return [(n, check) for n in ns for check in checks]


def report(suite: str, points_checked: int, max_n: int, failures: list, notes=()) -> dict:
    """One report of verify's stdout, its failures given as (t, n, check)."""
    failures = [{"suite": suite, "t": t, "n": n, "check": check} for t, n, check in failures]
    return {"suite": suite, "points_checked": points_checked, "max_n": max_n,
            "failures": failures, "notes": list(notes)}


def base_row(family: str) -> str:
    """The certificate's failure on its last base row, N0 - 1 = delta + 3."""
    return f"base row {4 if family != 'sigma' else 3} differs from the recurrence"


def first_term(n: int) -> str:
    """The first-term failure at n with inversion coefficient 3 raised from 7
    to 8: the first wrong zeta-coefficient l of (1-U)^n/(1-3U), at n = 3 l = 4,
    scaled to z, as the series has it and as the formula gives it."""
    value, formula = FIRST_TERM_VALUES[n]
    return f"series coefficient {4 if n == 3 else 3} is {value}, formula gives {formula} (n={n})"


def solved(w_part: str, weights: str) -> tuple:
    """Old and new text of solve_coefficients returning the given weights,
    with w = w_part * W at hand."""
    new = f"w = QuadExt(0, {w_part}, point.d)\n    return BinetCoefficients({weights})"
    return "return BinetCoefficients(*weights)", new


def always(row_id: str, target: str, check: str, hides: str) -> Row:
    """A weakening row: the report.check call that starts with check gets
    True for its verdict."""
    return Row(row_id, target, check, "report.check(True," + check.split(",", 1)[1], hides=hides)


FAMILIES = ("r", "s", "sigma")
T2 = ("-2/3", "1/2")  # the t of binet.sample_points(2, 42)
T3 = (*T2, "-2/5")  # and of sample_points(3, 42)
NONE = [None]
W_PART, VALUE = "W-part nonzero", "Binet value differs from recurrence"
STRUCTURE, SCALAR = "weight structure broken", "scalar differs from binomial sum"
RATIO, CLOSED_FORM = "term ratio: nonzero on the grid", "closed form differs from recurrence"
WEIGHT = "solved weight {} differs from closed form"
POWER_SUM = "power-sum {} differs from extension arithmetic"
NOT_DIVISIBLE = "C(3n-2, n-1) is not divisible by n={}"
SERIES_AT_20 = [(None, 8, "first-term series: " + NOT_DIVISIBLE.format(20))]
BINET_NOTE = ("s-family closed-form weights corrected: second term of B and C multiplied by "
              "W, and the sign of A flipped to 2t/((1+3t)(1-t)); both forced by the "
              "initial-value solve")
BINET, XI, ROOTS = (suite, "binet", 6, 3), (suite, "xi", 6, 3), (suite, "roots", 4, 2)
CERTIFICATE = (certificate,)
GRID_TOO_SMALL = ["step identity: grid too small for degree 2",
                  "term ratio: grid too small for degree 8",
                  "first coefficient: grid too small for degree 1"]
FIRST_TERM_VALUES = [
    ("87/1024", "21/256"), ("29/256", "7/64"), ("9/64", "35/256"), ("33/256", "63/512"),
    ("9/64", "5/32"), ("1/16", "1/8"), ("-1/8", "1/16"), ("-1/2", "0"), ("-5/4", "0"),
    ("-3", "0"), ("-8", "-1"), ("-24", "-8"), ("-76", "-40"), ("-240", "-160"),
    ("-736", "-560"), ("-2176", "-1792"), ("-6208", "-5376"), ("-17152", "-15360"),
    ("-46080", "-42240"), ("-120832", "-112640"), ("-310272", "-292864"),
    ("-782336", "-745472"), ("-1941504", "-1863680"), ("-4751360", "-4587520"),
    ("-11485184", "-11141120"), ("-27459584", "-26738688"), ("-65011712", "-63504384"),
    ("-152567808", "-149422080"), ("-355205120", "-348651520"),
    ("-821035008", "-807403520"), ("-1885339648", "-1857028096"),
]
#: r_37's compact coefficients after the first, 68719476736
R_37_TAIL = ("292057776128, 532575944704, 544923975680, 343513497600, 137950658560, "
             "35283533824, 5588385792, 515973120, 24893440, 512512, 2912, 1]")

ROWS = [
    # -- faults in a route: verify kills each at its row's depth
    Row("recurrence-lag", "pell._rows", "chain((0,), prev3)", "chain((0,), prev2)",
        (suite, "closed-form", 8),
        [(None, n, f"{family}: {check}") for family in FAMILIES for n, check
         in at(NONE, "certificate: " + base_row(family)) + at(range(3, 9), CLOSED_FORM)]),
    Row("ratio-denominator", "pell._term_ratio", "return num, l * (m + 2) * (m + 1)",
        "return num, l * (m + 2) * (m + 2)", (suite, "closed-form", 8),
        each(NONE, at(NONE, "certificate: " + RATIO, "certificate: " + base_row("r"))
             + at(range(4, 9), "non-integral closed-form coefficient"), ["r"])),
    Row("values-at-z-sign", "pell.values_at", "2 * q * h1 - big_z * h3",
        "2 * q * h1 + big_z * h3", (suite, "binet", 4, 1),
        [("-2/3", n, f"{family}: {VALUE}")
         for family, n in [("r", 4), ("s", 4), ("sigma", 3), ("sigma", 4)]]),
    # both routes share it, so only the certificate's x-form base rows see it
    Row("x-shift", "pell._x_coeffs", "range(n - family.delta, -1, -3)",
        "range(n - family.delta + 1, -1, -3)", (suite, "closed-form", 4),
        [(None, None, f"{family}: certificate: base row {n} differs from the recurrence")
         for family in FAMILIES for n in (range(1, 5) if family != "sigma" else range(4))]),
    Row("paper-s-numerator", "pell.PAPER_NUMERATOR", '"s": lambda n, l, m: n - l - 1,',
        '"s": lambda n, l, m: n - l + 1,', (suite, "closed-form", 4),
        [(None, None, f"s: certificate: {check}: nonzero on the grid")
         for check in ("step identity", "term ratio", "first coefficient")]),
    Row("solve-sign", "binet.solve_coefficients", "num = (g2 - (rj[0]", "num = (g2 + (rj[0]",
        (suite, "binet", 2, 1),
        each(T2[:1], at(NONE, *map(WEIGHT.format, "ABC")) + at(range(3), VALUE), FAMILIES)),
    Row("printed-r-weight", "binet.closed_form_coefficients", "Fraction(-3, 2)", "Fraction(3, 2)",
        (suite, "binet", 2, 1), each(T2[:1], at(NONE, *map(WEIGHT.format, "BC")), ["r"])),
    # the paper's 6*C(n,2k+1) misread as 5: wrong from n = 1 on, at every t
    Row("xi-six-to-five", "binet.radical_binomial_coefficients", "6 * comb", "5 * comb", XI,
        each(T3, at(range(1, 7), SCALAR))),
    Row("power-sum-e2", "binet.power_sums", "DensePoly((-1, 0, 1))", "DensePoly((1, 0, 1))",
        (suite, "roots", 3, 1),
        each(T2[:1], at([2, 3], POWER_SUM.format("p_n")) + at([3], POWER_SUM.format("q_n")))),
    # v2 = v3 is still a root: only the identities between the roots see it
    Row("v2-sign", "binet.roots", "Fraction(1) / den, d)", "Fraction(-1) / den, d)",
        (suite, "roots", 2, 1),
        each(T2[:1], at(NONE, "v2 + v3 != 1/(t-1)", "v2 * v3 != 1/(t^2-1)", "v2 * w2 != 1"))),
    # SAMPLE_T, derived from it, then holds -1/3: seed 28 draws it first
    Row("excluded-t-minus-third", "binet._EXCLUDED_T", '    Fraction(-1, 3): "1+3t",\n', "",
        (suite, "binet", 1, 1, 28), (ZeroDivisionError, "Fraction(0, 0)")),
    Row("bridge-sign-map", "lagrange.check_bridge", "(-1) ** l * ", "", (suite, "lagrange", 5),
        [(None, 4, "bridge: sign-mapped prefix [8, -1] differs from r_4 coefficients [8, 1]"),
         (None, 5, "bridge: sign-mapped prefix [16, -4] differs from r_5 coefficients [16, 4]")]),
    # -- the binet command
    Row("Z-factor", "pell.values_at", "(q - p) ** 2 * (q + p)", "(q - p) * (q + p) ** 2",
        (cli, "binet", "--family", "r", "--n", "9", "--t=-5/7"),
        (1, {"family": "r", "n": 9, "t": "-5/7", "z": "288/343", "value": "13142272/117649",
             "matches_recurrence": False})),
    Row("seed-scale", "pell.values_at", "s[0] * q**n", "s[0] * q ** max(n - 1, 0)",
        (cli, "binet", "--family", "s", "--n", "9", "--t=-5/7"),
        (1, {"family": "s", "n": 9, "t": "-5/7", "z": "288/343", "value": "10976512/117649",
             "matches_recurrence": False})),
    Row("odd-exponent", "binet._power", "rx, ry = 1, 0", "rx, ry = (x, y) if n % 2 else (1, 0)",
        (cli, "binet", "--family", "sigma", "--n", "9", "--t=-5/7"),
        (1, {"family": "sigma", "n": 9, "t": "-5/7", "z": "288/343",
             "value": "5282809856/40353607", "matches_recurrence": False})),
    Row("values-from-n-3", "pell.values_at", "    yield from (h3, h2, h1)\n", "",
        (cli, "binet", "--family", "r", "--n", "5", "--t=1/2"),
        (1, {"family": "r", "n": 5, "t": "1/2", "z": "3/8", "value": "29/2",
             "matches_recurrence": False})),
    # W moved from B to A keeps the n = 0 sum, W-part included, intact
    Row("weight-structure-at-n-0", "binet.solve_coefficients",
        *solved("1", "weights[0] + w, weights[1] - w, weights[2]"),
        (cli, "binet", "--family", "r", "--n", "0", "--t=1/2"),
        (1, {"error": "solved weights are not A rational, C = conj(B) (family r, t=1/2)"})),
    Row("W-part-plus-one-at-n-3", "binet.binet_numerators", "c1 * x3) * q,", "c1 * x3) * q + 1,",
        (cli, "binet", "--family", "s", "--n", "3", "--t=1/2"),
        (1, {"error": "W-part 1/6720 did not cancel (family s, n=3, t=1/2)"})),
    # -- the binet suite
    Row("b-weight", "binet.solve_coefficients",
        *solved("Fraction(1, 7)", "weights[0], weights[1] + w, weights[2]"), BINET,
        each(T3, at(NONE, WEIGHT.format("B"), STRUCTURE) + at([0], W_PART)
             + at(range(1, 7), W_PART, VALUE), FAMILIES)),
    # A is rational: a W-part on it must reach the sweep's W-part check
    Row("a-weight", "binet.solve_coefficients",
        *solved("Fraction(1, 7)", "weights[0] + w, weights[1], weights[2]"), BINET,
        each(T3, at(NONE, WEIGHT.format("A"), STRUCTURE) + at(range(7), W_PART), FAMILIES)),
    Row("W-moved-from-B-to-A", "binet.solve_coefficients",
        *solved("1", "weights[0] + w, weights[1] - w, weights[2]"), (suite, "binet", 4, 2),
        each(T2, at(NONE, *map(WEIGHT.format, "AB"), STRUCTURE) + at(range(1, 5), W_PART, VALUE),
             FAMILIES)),
    Row("W-added-to-A", "binet.solve_coefficients",
        *solved("1", "weights[0] + w, weights[1], weights[2]"), (suite, "binet", 4, 2),
        each(T2, at(NONE, WEIGHT.format("A"), STRUCTURE) + at(range(5), W_PART), FAMILIES)),
    Row("W-added-to-B", "binet.solve_coefficients",
        *solved("1", "weights[0], weights[1] + w, weights[2]"), (suite, "binet", 4, 2),
        each(T2, at(NONE, WEIGHT.format("B"), STRUCTURE) + at([0], W_PART)
             + at(range(1, 5), W_PART, VALUE), FAMILIES)),
    # B and C stay conjugates and the solved weights stay right: only the
    # comparison with the printed closed form can see the shift
    Row("printed-s-weight", "binet.closed_form_coefficients",
        "    return BinetCoefficients(a, b, b.conjugate())",
        '    if family.name == "s":\n        b = b + QuadExt(0, Fraction(1, 7), d)\n'
        "    return BinetCoefficients(a, b, b.conjugate())",
        BINET, each(T3, at(NONE, *map(WEIGHT.format, "BC")), ["s"])),
    Row("value-at-n-5", "verify.run_binet", "zip(range(report.max_n + 1), values, terms)",
        "zip(range(report.max_n + 1), (h + (n == 5) for n, h in enumerate(values)), terms)",
        BINET, each(T3, at([5], VALUE), FAMILIES)),
    # -- the xi suite
    Row("binomial-term", "binet.radical_binomial_coefficients", "6 * comb(n, 2 * k + 1)",
        "6 * (comb(n, 2 * k + 1) + (k == 0))", XI, each(T3, at(range(7), SCALAR))),
    Row("W-part-plus-one-xi", "binet.binet_numerators", "c1 * x3) * q,", "c1 * x3) * q + 1,",
        XI, each(T3, at(range(7), W_PART))),
    Row("binomial-sum-plus-one", "binet.radical_binomial_numerator",
        "return num * (q + p) ** (n - n // 2)", "return num * (q + p) ** (n - n // 2) + 1",
        (cli, "verify", "--suite", "xi", "--max-n", "5", "--t-samples", "2"),
        (1, [report("xi", 2, 5, each(T2, at(range(6), SCALAR)))])),
    # -- the roots suite
    *(Row(f"root-{root}", "binet.roots", f"{root}={value},", f"{root}={value} + Fraction(1, 7),",
          ROOTS, each(T2, at(NONE, f"root {root} residual nonzero", *identities)))
      for root, value, identities in [
          ("v2", "v2", ["v2 + v3 != 1/(t-1)", "v2 * v3 != 1/(t^2-1)", "v2 * w2 != 1"]),
          ("w1", "1 - t", ["w1*w2*w3 != -z", "v1 * w1 != 1"]),
          ("w2", "w2", ["w2 + w3 != 1+t", "w2 * w3 != t^2-1", "w1*w2*w3 != -z", "v2 * w2 != 1"]),
          ("w3", "w3", ["w2 + w3 != 1+t", "w2 * w3 != t^2-1", "w1*w2*w3 != -z", "v3 * w3 != 1"]),
          ("v3", "v3", ["v2 + v3 != 1/(t-1)", "v2 * v3 != 1/(t^2-1)", "v3 * w3 != 1"]),
      ]),
    Row("root-w2-W-part", "binet.roots", "w2=w2,", "w2=w2 + QuadExt(0, Fraction(1, 7), d),",
        (suite, "roots", 6, 3),
        each(T3, at(NONE, "root w2 residual nonzero", "w2 + w3 != 1+t", "w2 * w3 != t^2-1",
                    "w1*w2*w3 != -z", "v2 * w2 != 1"))),
    Row("W-part-plus-one-roots", "binet.binet_numerators", "c1 * x3) * q,", "c1 * x3) * q + 1,",
        ROOTS, each(T2, at(range(5), POWER_SUM.format("q_n")))),
    Row("rational-part-plus-one-roots", "binet.binet_numerators", "c1 * y3 * big_d,",
        "c1 * y3 * big_d + 1,", ROOTS, each(T2, at(range(5), POWER_SUM.format("p_n")))),
    # a fault in the code, not in the command line: exit 3, nothing on stdout
    Row("mixed-discriminant", "binet.roots", "w2=w2,", "w2=QuadExt(w2.a, w2.b, d + 1),",
        (cli, "verify", "--suite", "roots", "--max-n", "2", "--t-samples", "2"), (3, None)),
    # -- the closed-form suite and its certificate
    Row("closed-form-row-37", "verify.run_closed_form", "report.check(cf == row,",
        "report.check(cf == ([row[0] + 1, *row[1:]] if n == 37 else row),",
        (suite, "closed-form", 60), each(NONE, at([37], CLOSED_FORM), FAMILIES)),
    Row("non-integral-at-37", "pell._ratio_row", "if rem:", "if rem or n == 37:",
        (suite, "closed-form", 60),
        each(NONE, at([37], "non-integral closed-form coefficient"), FAMILIES)),
    # the factor m-l+3 of C(m,l)/C(m+2,l-1) read as m-l+4
    Row("binomial-step", "pell._term_ratio", "num = (m - l + 3)", "num = (m - l + 4)",
        CERTIFICATE, {family: [RATIO, base_row(family)] for family in FAMILIES}),
    # the prefactor times n+l+1
    *(Row(f"prefactor-{family}", "pell._term_ratio", f"return {num}, {den}",
          f"return {num} * (n + l + 1), {den} * (n + l)", CERTIFICATE,
          {other: [RATIO, base_row(family)] if other == family else [] for other in FAMILIES})
      for family, num, den in [("s", "(n - l - 1) * num", "(n - l) * l * m * (m + 1)"),
                               ("sigma", "num", "l * m * (m + 1)")]),
    # the ratio times 1 + (l - 1), or 1 + (n - 28) with 28 the grid's first n,
    # is unchanged on one line of the grid: degree d needs d + 1 values per variable
    *(Row(f"grid-line-{axis}-{family}", "pell._term_ratio", f"return {num}, {den}",
          f"return {num} * {factor}, {den}", CERTIFICATE,
          {other: [RATIO, *base] if other == family else [] for other in FAMILIES})
      for family, num, den in [("r", "num", "l * (m + 2) * (m + 1)"),
                               ("s", "(n - l - 1) * num", "(n - l) * l * m * (m + 1)"),
                               ("sigma", "num", "l * m * (m + 1)")]
      for axis, factor, base in [("l", "(1 + (l - 1))", []),
                                 ("n", "(1 + (n - 28))", [base_row(family)])]),
    # n + l still obeys the step identity, and n + 1 has sigma's term ratio
    Row("paper-sigma-n-plus-l", "pell.PAPER_NUMERATOR", '"sigma": lambda n, l, m: n,',
        '"sigma": lambda n, l, m: n + l,', CERTIFICATE, {"r": [], "s": [], "sigma": [RATIO]}),
    Row("paper-sigma-n-plus-1", "pell.PAPER_NUMERATOR", '"sigma": lambda n, l, m: n,',
        '"sigma": lambda n, l, m: n + 1,', CERTIFICATE,
        {"r": [], "s": [], "sigma": ["step identity: nonzero on the grid",
                                     "first coefficient: nonzero on the grid"]}),
    Row("closed-form-base-row", "pell.closed_form", "_ratio_row(family, n, 1, 1)",
        '_ratio_row(family, n, 1 + ((family.name, n) == ("r", 3)), 1)', CERTIFICATE,
        {"r": ["base row 3 differs from the recurrence"], "s": [], "sigma": []}),
    Row("digits-base-row", "pell.coefficient_digits", "first = 1 << top if",
        'first = (1 << top) + ((family.name, n) == ("r", 3)) if', CERTIFICATE,
        {"r": ["base row 3 differs from the recurrence"], "s": [], "sigma": []}),
    Row("grid-of-d-points", "pell._grid", "start + d + 1", "start + d", CERTIFICATE,
        {family: GRID_TOO_SMALL for family in FAMILIES}),
    # each failed certificate check is one closed-form report entry
    Row("grid-of-d-points-verify", "pell._grid", "start + d + 1", "start + d",
        (cli, "verify", "--suite", "closed-form", "--max-n", "12"),
        (1, [report("closed-form", 0, 12, [(None, None, f"{family}: certificate: {check}")
                                           for family in FAMILIES for check in GRID_TOO_SMALL])])),
    # s_3000's row runs in Decimal, n - delta >= DECIMAL_MIN_TOP
    Row("decimal-remainder", "pell._term_ratio", "return (n - l - 1) * num,",
        "return (n - l - 1) * num + (l == 500),", (cli, "eval", "--family", "s", "--n", "3000"),
        (IdentityViolationError,
         "closed-form coefficient is not an integer (family s, n=3000, l=500)")),
    # -- the lagrange suite
    Row("triangle-row-37", "verify.run_lagrange", "check_bridge, n, series[n], rows[n])",
        "check_bridge, n, series[n], (rows[n][0] + (n == 37),) + rows[n][1:])",
        (suite, "lagrange", 100),
        [(None, 37, f"bridge: sign-mapped prefix [68719476736, {R_37_TAIL} differs from "
                    f"r_37 coefficients [68719476737, {R_37_TAIL}")]),
    # within 5/100 of 27/32, but above it and the same at every order
    Row("radius-ratio-off", "lagrange.radius_estimate",
        "return inversion_coefficient(order) / inversion_coefficient(order - 1)",
        "return Fraction(27, 32) + Fraction(1, 1000)", (suite, "lagrange", 12),
        [(None, 60, "radius ratio 3379/4000 differs from 3(3n-2)(3n-4)/(16n(2n-1))"),
         (None, 60, "radius ratio 3379/4000 not strictly between u_59/u_58 and 27/32")]),
    # C(7, 2) = 21 -> 24 keeps C(3n-2, n-1)/n integral at n = 3 (7 -> 8); the
    # failures come inversion first, then every first-term one, then every bridge one
    Row("inversion-coefficient-3", "lagrange._zeta_coefficient", "comb(3 * n - 2, n - 1)",
        "comb(3 * n - 2, n - 1) + 3 * (n == 3)", (suite, "lagrange", 30),
        [(None, 30, "inversion: composition disagrees with zeta first at index 3: 1"),
         *((None, n, "first-term expansion: " + first_term(n)) for n in range(25)),
         *((None, n, "bridge: " + first_term(n)) for n in range(10, 31))]),
    # C(7, 2) = 21 -> 22 leaves a remainder in C(3n-2, n-1)/n at n = 3: the
    # inversion and the series both meet it, the radius ratios do not
    Row("inexact-inversion-division", "lagrange._zeta_coefficient", "comb(3 * n - 2, n - 1)",
        "comb(3 * n - 2, n - 1) + (n == 3)", (suite, "lagrange", 8),
        [(None, 8, "inversion: " + NOT_DIVISIBLE.format(3)),
         (None, 8, "first-term series: " + NOT_DIVISIBLE.format(3))]),
    # past the inversion's reach at order 8: only the series, built to 33
    # coefficients, meets n = 20, and its expansion and bridge checks are skipped
    Row("inexact-division-at-20", "lagrange._zeta_coefficient", "comb(3 * n - 2, n - 1)",
        "comb(3 * n - 2, n - 1) + (n == 20)", (suite, "lagrange", 8), SERIES_AT_20),
    # u_59 is read only by the radius ratios, so both of their checks are skipped
    Row("inexact-division-at-59", "lagrange._zeta_coefficient", "comb(3 * n - 2, n - 1)",
        "comb(3 * n - 2, n - 1) + (n == 59)", (suite, "lagrange", 8),
        [(None, 60, "radius ratio: " + NOT_DIVISIBLE.format(59))]),
    # a refuted identity inside a suite is a report entry: every report prints
    Row("inexact-division-at-20-verify", "lagrange._zeta_coefficient", "comb(3 * n - 2, n - 1)",
        "comb(3 * n - 2, n - 1) + (n == 20)",
        (cli, "verify", "--suite", "all", "--max-n", "8", "--t-samples", "1"),
        (1, [report("closed-form", 0, 8, []), report("binet", 1, 8, [], [BINET_NOTE]),
             report("xi", 1, 8, []), report("lagrange", 0, 8, SERIES_AT_20),
             report("roots", 1, 8, [])])),
    # -- weakenings: each check of verify, and the certificate's grid, made to pass
    always("always-certificate", "verify.run_closed_form", 'report.check(False, f"certificate',
           "grid-of-d-points-verify"),
    always("always-integral", "verify.run_closed_form", 'report.check(False, "non-integral',
           "non-integral-at-37"),
    always("always-closed-form", "verify.run_closed_form", "report.check(cf == row,",
           "recurrence-lag"),
    always("always-binet-W-part", "verify.run_binet", "report.check(not w,", "a-weight"),
    always("always-binet-value", "verify.run_binet", "report.check(r * q_n == h * m,",
           "values-at-z-sign"),
    always("always-weights", "verify.run_binet", "report.check(lhs == rhs,", "printed-r-weight"),
    always("always-structure", "verify.run_binet", "report.check(solved.has_binet_structure(),",
           "W-added-to-A"),
    always("always-xi-W-part", "verify.run_xi", "report.check(not w,", "W-part-plus-one-xi"),
    always("always-xi-scalar", "verify.run_xi", "report.check(passed,", "xi-six-to-five"),
    always("always-residual", "verify.run_roots", "report.check(residual == 0,", "root-w2-W-part"),
    always("always-root-identity", "verify.run_roots", "report.check(lhs == rhs,", "v2-sign"),
    always("always-power-sum", "verify.run_roots", "report.check(num * m == 2 * part * den,",
           "power-sum-e2"),
    always("always-inversion", "verify.run_lagrange", 'report.check(error is None, f"inversion',
           "inversion-coefficient-3"),
    always("always-series", "verify.run_lagrange", 'report.check(False, f"first-term series',
           "inexact-division-at-20"),
    always("always-first-term", "verify.run_lagrange", 'report.check(error is None, f"first-term',
           "inversion-coefficient-3"),
    always("always-bridge", "verify.run_lagrange", 'report.check(error is None, f"bridge',
           "bridge-sign-map"),
    always("always-radius-built", "verify.run_lagrange", 'report.check(False, f"radius ratio',
           "inexact-division-at-59"),
    always("always-radius-formula", "verify.run_lagrange", "report.check(ratio == formula,",
           "radius-ratio-off"),
    always("always-radius-between", "verify.run_lagrange", "report.check(between,",
           "radius-ratio-off"),
    Row("grid-one-l", "pell.closed_form_certificate", "for l in ls)", "for l in ls[:1])",
        hides="grid-line-l-r"),
    Row("grid-one-n", "pell.closed_form_certificate", "for x in xs for", "for x in xs[:1] for",
        hides="grid-line-n-r"),
]
ROW = {row.id: row for row in ROWS}
