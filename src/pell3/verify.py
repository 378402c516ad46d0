"""Machine verification suites over the exact identities.

Each suite sweeps an identity over a deterministic grid (index n, seeded
rational t samples, or both) and hands every verdict to SuiteReport.check,
the one rule that turns a failed check into a failure entry.  A clean run
means every checked identity held with no rounding and no tolerance.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice

from . import binet, lagrange
from .exactnum import IdentityViolationError
from .pell import FAMILIES, R, Family, closed_form_certificate, coefficient_triangle
from .pell import _ratio_row, _rows, values_at
from .poly import horner_terms

#: suite name -> (default max_n, runner(max_n, t_samples, seed)), in the
#: order --suite all runs them.  Each runner looks its suite function up
#: when called, so a wrapper installed on this module later (a tracer, a
#: test's monkeypatch) is the one that runs.
SUITES = {
    "closed-form": (300, lambda max_n, t_samples, seed: run_closed_form(max_n)),
    "binet": (80, lambda *args: run_binet(*args)),
    "xi": (50, lambda *args: run_xi(*args)),
    "lagrange": (100, lambda max_n, t_samples, seed: run_lagrange(max_n)),
    "roots": (40, lambda *args: run_roots(*args)),
}

DEFAULT_SEED = 42
DEFAULT_T_SAMPLES = 25


class SuiteReport:
    def __init__(self, suite: str, points_checked: int, max_n: int):
        self.suite, self.points_checked, self.max_n = suite, points_checked, max_n
        self.failures, self.notes = [], []

    @property
    def ok(self) -> bool:
        return not self.failures

    def check(self, passed, label: str, family: Family | None = None, t=None, n=None):
        """Record nothing if passed, else one failure entry whose check text
        is the label, prefixed by "<family>: " for a family's identity."""
        if not passed:
            check = label if family is None else f"{family.name}: {label}"
            t = None if t is None else str(t)
            self.failures.append({"suite": self.suite, "t": t, "n": n, "check": check})

    def to_dict(self) -> dict:
        return {"suite": self.suite, "points_checked": self.points_checked, "max_n": self.max_n,
                "failures": self.failures, "notes": self.notes}


def run_closed_form(max_n: int) -> SuiteReport:
    """Closed form == recurrence for every family over its valid range:
    proved for every n by pell.closed_form_certificate, compared row by row
    up to max_n in y-form, before the injective shift to x both routes share."""
    report = SuiteReport("closed-form", 0, max_n)
    for family in FAMILIES.values():
        for check in closed_form_certificate(family):
            report.check(False, f"certificate: {check}", family)
        for n, row in islice(enumerate(_rows(family)), family.closed_form_min, max_n + 1):
            try:
                cf = _ratio_row(family, n, 1, 1)
            except IdentityViolationError:
                report.check(False, "non-integral closed-form coefficient", family, n=n)
                continue
            report.check(cf == row, "closed form differs from recurrence", family, n=n)
    return report


def run_binet(max_n: int, t_samples: int, seed: int) -> SuiteReport:
    """Binet combinations and weight cross-checks at seeded t samples: the
    combinations up to max_n against the recurrence run at the point, one
    pass over n for each family and t.  pell.values_at gives p_n's
    z-normalized value as h_n/q^n, so the comparison r/m == h_n/q^n is one
    cross-multiplication of integers."""
    report = SuiteReport("binet", t_samples, max_n)
    report.notes.append(
        "s-family closed-form weights corrected: second term of B and C "
        "multiplied by W, and the sign of A flipped to 2t/((1+3t)(1-t)); "
        "both forced by the initial-value solve"
    )
    for point in binet.sample_points(t_samples, seed):
        t, q = point.t, point.t.denominator
        for family in FAMILIES.values():
            solved = binet.solve_coefficients(family, point)
            printed = binet.closed_form_coefficients(family, point)
            for weight, lhs, rhs in zip("ABC", solved, printed):
                label = f"solved weight {weight} differs from closed form"
                report.check(lhs == rhs, label, family, t)
            report.check(solved.has_binet_structure(), "weight structure broken", family, t)
            values, terms = values_at(family, t), binet.binet_numerators(point, *solved)
            q_n = 1
            for n, h, (r, w, m) in zip(range(report.max_n + 1), values, terms):
                report.check(not w, "W-part nonzero", family, t, n)
                report.check(r * q_n == h * m, "Binet value differs from recurrence", family, t, n)
                q_n *= q
    return report


def run_xi(max_n: int, t_samples: int, seed: int) -> SuiteReport:
    """Radical cancellation: extension arithmetic vs. binomial double sum."""
    report = SuiteReport("xi", t_samples, max_n)
    rows = [binet.radical_binomial_coefficients(n) for n in range(max_n + 1)]
    for point in binet.sample_points(t_samples, seed):
        p, q = point.t.numerator, point.t.denominator
        terms = binet.radical_cancellation_numerators(point)
        # the binomial route comes out over q^(n+1): compare r/m with it crosswise
        for n, (row, (r, w, m)) in enumerate(zip(rows, terms)):
            report.check(not w, "W-part nonzero", t=point.t, n=n)
            passed = r * q ** (n + 1) == binet.radical_binomial_numerator(n, row, p, q) * m
            report.check(passed, "scalar differs from binomial sum", t=point.t, n=n)
    return report


def run_roots(max_n: int, t_samples: int, seed: int) -> SuiteReport:
    """Root identities, reciprocity, and power-sum polynomials."""
    report = SuiteReport("roots", t_samples, max_n)
    p_polys, q_polys = binet.power_sums(max_n)
    for point in binet.sample_points(t_samples, seed):
        t = point.t
        rt = binet.roots(point)
        for name, residual in binet.char_root_residuals(point, rt).items():
            report.check(residual == 0, f"root {name} residual nonzero", t=t)
        for check, lhs, rhs in (
            ("w2 + w3 != 1+t", rt.w2 + rt.w3, 1 + t),
            ("w2 * w3 != t^2-1", rt.w2 * rt.w3, t * t - 1),
            ("w1*w2*w3 != -z", rt.w1 * rt.w2 * rt.w3, -point.z),
            ("v2 + v3 != 1/(t-1)", rt.v2 + rt.v3, Fraction(1) / (t - 1)),
            ("v2 * v3 != 1/(t^2-1)", rt.v2 * rt.v3, Fraction(1) / (t * t - 1)),
            ("v1 * w1 != 1", rt.v1 * rt.w1, 1),
            ("v2 * w2 != 1", rt.v2 * rt.w2, 1),
            ("v3 * w3 != 1", rt.v3 * rt.w3, 1),
        ):
            report.check(lhs == rhs, check, t=t)
        # w3^n = (r + w*W) / m
        w3_powers = binet.binet_numerators(point, 0, 0, 1)
        p, q = t.numerator, t.denominator
        for n, (r, w, m) in zip(range(max_n + 1), w3_powers):
            for name, poly, part in (("p_n", p_polys[n], r), ("q_n", q_polys[n], w)):
                num, den = horner_terms(poly.coeffs, p, q)
                label = f"power-sum {name} differs from extension arithmetic"
                report.check(num * m == 2 * part * den, label, t=t, n=n)
    return report


def _raised(check, *args) -> str | None:
    """The message of the IdentityViolationError that check(*args) raises,
    or None when it returns."""
    try:
        check(*args)
    except IdentityViolationError as exc:
        return str(exc)
    return None


def run_lagrange(order: int) -> SuiteReport:
    """Inversion oracle, leading-term expansion, bridge, and radius ratio.

    The expansion runs for n <= min(24, order) over 33 coefficients and the
    bridge for 1 <= n <= order, both from one pass of
    lagrange.first_term_numerators; the bridge compares with the rows of
    one coefficient_triangle of r.  The ratio u_60/u_59 must equal its
    closed form and lie strictly between u_59/u_58 and 27/32.  A refuted
    identity while the series or the ratios are built is one failure entry,
    and the checks that need them are skipped.
    """
    report = SuiteReport("lagrange", 0, order)
    error = _raised(lagrange.verify_inversion, order)
    report.check(error is None, f"inversion: {error}", n=order)
    rows = coefficient_triangle(R, order)
    expansions = lagrange.first_term_numerators(max(33, (order - 1) // 3 + 1))
    try:
        series = list(islice(expansions, order + 1))
    except IdentityViolationError as exc:
        report.check(False, f"first-term series: {exc}", n=order)
    else:
        for n in range(min(24, order) + 1):
            error = _raised(lagrange.check_first_term, n, series[n][:33])
            report.check(error is None, f"first-term expansion: {error}", n=n)
        for n in range(1, order + 1):
            error = _raised(lagrange.check_bridge, n, series[n], rows[n])
            report.check(error is None, f"bridge: {error}", n=n)
    n = 60
    try:
        ratio, previous = lagrange.radius_estimate(n), lagrange.radius_estimate(n - 1)
    except IdentityViolationError as exc:
        report.check(False, f"radius ratio: {exc}", n=n)
    else:
        formula = Fraction(3 * (3 * n - 2) * (3 * n - 4), 16 * n * (2 * n - 1))
        label = f"radius ratio {ratio} "
        report.check(ratio == formula, label + "differs from 3(3n-2)(3n-4)/(16n(2n-1))", n=n)
        between = previous < ratio < Fraction(27, 32)
        report.check(between, label + "not strictly between u_59/u_58 and 27/32", n=n)
    return report


def run_suite(
    name: str,
    max_n: int | None = None,
    t_samples: int = DEFAULT_T_SAMPLES,
    seed: int = DEFAULT_SEED,
) -> list:
    """Run one named suite (or all) and return the list of reports."""
    if name == "all":
        return [run_suite(s, max_n, t_samples, seed)[0] for s in SUITES]
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; expected one of {', '.join(SUITES)} or all")
    default, runner = SUITES[name]
    return [runner(default if max_n is None else max_n, t_samples, seed)]
