import decimal
import functools
from fractions import Fraction
from itertools import islice
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pell3 import pell, verify
from pell3.pell import (
    FAMILIES,
    R,
    S,
    SIGMA,
    _rows,
    by_name,
    closed_form,
    closed_form_certificate,
    coefficient_digits,
    coefficient_triangle,
    recurrence_gen,
    triangle_csv,
    values_at,
)
from pell3.exactnum import IdentityViolationError
from pell3.poly import CompactPell


class TestRecurrence:
    def test_golden_r18(self):
        assert recurrence_gen(R, 18).coeffs == (131072, 245760, 159744, 42240, 4032, 84)

    def test_initial_values(self):
        assert recurrence_gen(R, 0).coeffs == ()
        assert recurrence_gen(R, 1).coeffs == (1,)
        assert recurrence_gen(R, 2).coeffs == (2,)
        assert recurrence_gen(S, 1).coeffs == (2,)
        assert recurrence_gen(SIGMA, 0).coeffs == (3,)

    def test_hand_iterated_values(self):
        # s3 = 4x^2, s4 = 2x*4x^2 + s1 = 8x^3 + 2
        assert recurrence_gen(S, 4).coeffs == (8, 2)
        # r5 = 2x*r4 + r2 = 16x^4 + 4x  (r5(1) = 20 confirms)
        assert recurrence_gen(R, 5).coeffs == (16, 4)
        assert recurrence_gen(SIGMA, 3).coeffs == (8, 3)

    def test_sequence_at_x_equals_one(self):
        values = [recurrence_gen(R, n).to_dense()(1) for n in range(7)]
        assert values == [0, 1, 2, 4, 9, 20, 44]

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            recurrence_gen(R, -1)

    def test_degrees_and_exponent_grid(self):
        for n in range(1, 41):
            assert recurrence_gen(R, n).to_dense().degree == n - 1
        for n in range(41):
            p = recurrence_gen(SIGMA, n)
            assert p.to_dense().degree == n
            for l, c in enumerate(p.coeffs):
                assert c != 0
                assert p.exponent(l) % 3 == (n - p.delta) % 3


#: t away from the grid sample_points draws from (|t| < 1, denominator <= 12):
#: |t| > 1, D = (1+t)(5-3t) < 0 and the excluded t of the Binet route included
OFF_GRID_T = st.fractions(-30, 30, max_denominator=10**4).filter(
    lambda t: abs(t) >= 1 or t.denominator > 12
)


class TestValuesAt:
    """The recursion run at x^-3 = -z, z = (1-t)^2 (1+t), against the
    polynomials evaluated there."""

    @settings(max_examples=15, deadline=None)
    @given(OFF_GRID_T)
    @example(Fraction(7, 3))  # D < 0
    @example(Fraction(-5, 2))  # D < 0
    @example(Fraction(1))  # z = 0
    def test_equals_the_polynomials_at_z(self, t):
        z = (1 - t) ** 2 * (1 + t)
        for family in FAMILIES.values():
            rows = triangle_rows(family.name)
            values = values_at(family, t)
            for n, (row, h) in enumerate(zip(rows, values)):
                poly = CompactPell(family.name, n, row)
                assert Fraction(h, t.denominator**n) == poly.eval_in_z(z), (family.name, n)

    def test_hand_iterated_sigma_at_t_zero(self):
        # t = 0: z = 1, and sigma_3 / x^3 = 8 + 3x^-3 = 5, sigma_4 / x^4 = 16 + 8x^-3 = 8
        assert list(islice(values_at(SIGMA, 0), 7)) == [3, 2, 4, 5, 8, 12, 19]


@functools.cache
def triangle_rows(name: str) -> list:
    """Rows 0..300 of a family's triangle, those of recurrence_gen, made once."""
    return coefficient_triangle(by_name(name), 300)


class TestClosedForm:
    def test_examples(self):
        assert closed_form(R, 4).coeffs == (8, 1)
        assert closed_form(S, 3).coeffs == (4,)
        assert closed_form(SIGMA, 3).coeffs == (8, 3)

    def test_matches_recurrence(self):
        for family in FAMILIES.values():
            for n in range(family.closed_form_min, 121):
                assert closed_form(family, n) == recurrence_gen(family, n), (
                    family.name,
                    n,
                )

    def test_zero_polynomial_edge(self):
        assert closed_form(R, 0).coeffs == ()

    def test_below_validity_threshold(self):
        with pytest.raises(ValueError, match="closed form for family"):
            closed_form(S, 1)
        with pytest.raises(ValueError, match="closed form for family"):
            closed_form(SIGMA, 0)

    def test_prefactors_divide_exactly(self):
        # would raise IdentityViolationError on any surviving denominator
        for family in (S, SIGMA):
            for n in range(family.closed_form_min, 121):
                closed_form(family, n)


class TestTriangle:
    def test_r_rows(self):
        assert coefficient_triangle(R, 4) == [(), (1,), (2,), (4,), (8, 1)]

    def test_sigma_rows(self):
        assert coefficient_triangle(SIGMA, 1) == [(3,), (2,)]

    def test_s_rows(self):
        assert coefficient_triangle(S, 2) == [(), (2,), (2,)]

    def test_rows_match_recurrence_gen(self):
        rows = coefficient_triangle(R, 30)
        for n, row in enumerate(rows):
            assert row == recurrence_gen(R, n).coeffs

    def test_csv_export(self):
        expected = "n,l,coeff\n1,0,1\n2,0,2\n3,0,4\n4,0,8\n4,1,1\n"
        assert triangle_csv(R, 4) == expected

    def test_negative_max_n_rejected(self):
        with pytest.raises(ValueError):
            coefficient_triangle(R, -1)


def test_by_name():
    assert by_name("r") is R
    assert by_name("sigma") is SIGMA
    with pytest.raises(ValueError):
        by_name("q")


def test_family_metadata():
    assert R.delta == 1 and S.delta == 1 and SIGMA.delta == 0


class TestYForm:
    def test_r_rows_are_bare_binomials(self):
        for n, row in enumerate(islice(_rows(R), 60)):
            assert list(row) == [comb(n - 1 - 2 * l, l) for l in range((n - 1) // 3 + 1)], n

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_recurrence_equals_closed_form(self, data):
        family = data.draw(st.sampled_from(list(FAMILIES.values())))
        n = data.draw(st.integers(family.closed_form_min, 600))
        assert recurrence_gen(family, n) == closed_form(family, n)

    @pytest.mark.parametrize("family", [S, SIGMA], ids=["s", "sigma"])
    def test_large_index_agrees(self, family):
        assert recurrence_gen(family, 3001) == closed_form(family, 3001)


class TestCoefficientDigits:
    """Digit strings of the seed rows below the closed form, of the closed
    form from there on; large rows are built in Decimal."""

    def test_seed_rows(self):
        assert coefficient_digits(S, 0) == [] and coefficient_digits(S, 1) == ["2"]
        assert coefficient_digits(SIGMA, 0) == ["3"] and coefficient_digits(R, 0) == []

    def test_closed_form_from_its_minimum(self):
        for family in FAMILIES.values():
            for n in range(family.closed_form_min, 40):
                assert coefficient_digits(family, n) == [
                    str(c) for c in closed_form(family, n).coeffs
                ]

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            coefficient_digits(R, -1)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_equal_to_the_closed_form(self, data):
        family = data.draw(st.sampled_from(list(FAMILIES.values())))
        n = data.draw(
            st.integers(family.closed_form_min, 4000) | st.integers(pell.DECIMAL_MIN_TOP, 4000)
        )
        assert coefficient_digits(family, n) == [str(c) for c in closed_form(family, n).coeffs]

    def test_decimal_remainder_raises(self, monkeypatch):
        ratio = pell._term_ratio

        def leaves_a_remainder(name, n, l, m):
            num, den = ratio(name, n, l, m)
            return (num + 1, den) if l == 500 else (num, den)

        assert 3000 - S.delta >= pell.DECIMAL_MIN_TOP
        monkeypatch.setattr(pell, "_term_ratio", leaves_a_remainder)
        with pytest.raises(IdentityViolationError, match="l=500"):
            coefficient_digits(S, 3000)

    def test_steps_run_in_the_exact_context(self, monkeypatch):
        signals = (
            decimal.Inexact,
            decimal.Rounded,
            decimal.InvalidOperation,
            decimal.Overflow,
            decimal.DivisionByZero,
        )
        ratio, seen = pell._term_ratio, set()

        def spy(*args):
            ctx = decimal.getcontext()
            seen.add((ctx.prec, ctx.Emax, all(ctx.traps[s] for s in signals)))
            return ratio(*args)

        monkeypatch.setattr(pell, "_term_ratio", spy)
        coefficient_digits(SIGMA, 3000)
        assert seen == {(decimal.MAX_PREC, decimal.MAX_EMAX, True)}


def certificate_failures() -> dict:
    return {name: closed_form_certificate(family) for name, family in FAMILIES.items()}


class TestClosedFormCertificate:
    """Each mutant of the code the certificate covers must break it."""

    @staticmethod
    def perturb_term_ratio(monkeypatch, families, factor):
        """Multiply the term ratio of the named families by factor(n, l, m)."""
        term_ratio = pell._term_ratio

        def perturbed(name, n, l, m):
            num, den = term_ratio(name, n, l, m)
            if name not in families:
                return num, den
            f_num, f_den = factor(n, l, m)
            return num * f_num, den * f_den

        monkeypatch.setattr(pell, "_term_ratio", perturbed)

    def test_holds_for_every_family(self):
        assert certificate_failures() == {"r": [], "s": [], "sigma": []}

    def test_perturbed_binomial_step(self, monkeypatch):
        # the factor m-l+3 of C(m,l)/C(m+2,l-1) read as m-l+4
        self.perturb_term_ratio(monkeypatch, FAMILIES, lambda n, l, m: (m - l + 4, m - l + 3))
        for failures in certificate_failures().values():
            assert failures[0] == "term ratio: nonzero on the grid"
            assert failures[1].startswith("base row")

    @pytest.mark.parametrize("name", ["s", "sigma"])
    def test_perturbed_prefactor(self, monkeypatch, name):
        # the prefactor times n+l+1
        self.perturb_term_ratio(monkeypatch, {name}, lambda n, l, m: (n + l + 1, n + l))
        found = certificate_failures()
        assert found.pop(name)[0] == "term ratio: nonzero on the grid"
        assert list(found.values()) == [[], []]

    @pytest.mark.parametrize("name", ["r", "s", "sigma"])
    @pytest.mark.parametrize(
        "axis, factor",
        [
            ("l", lambda n, l, m: (1 + (l - 1), 1)),
            ("n", lambda n, l, m: (1 + (n - (3 * pell.RATIO_DEGREE + 4)), 1)),
        ],
        ids=["l", "n"],
    )
    def test_perturbation_on_one_grid_line(self, monkeypatch, name, axis, factor):
        # the ratio is unchanged on the first line of the grid along the axis
        # (l = 1, or the grid's first n), so one line of it cannot show the
        # perturbation: degree d needs d + 1 values in each variable
        self.perturb_term_ratio(monkeypatch, {name}, factor)
        assert "term ratio: nonzero on the grid" in closed_form_certificate(FAMILIES[name])

    def test_perturbed_paper_numerator(self, monkeypatch):
        # n + l still obeys the step identity, and n + 1 has sigma's term
        # ratio: each check catches what the others let through
        monkeypatch.setitem(pell.PAPER_NUMERATOR, "sigma", lambda n, l, m: n + l)
        assert closed_form_certificate(SIGMA) == ["term ratio: nonzero on the grid"]
        monkeypatch.setitem(pell.PAPER_NUMERATOR, "sigma", lambda n, l, m: n + 1)
        assert closed_form_certificate(SIGMA) == [
            "step identity: nonzero on the grid",
            "first coefficient: nonzero on the grid",
        ]

    def test_base_row_off_by_one(self, monkeypatch):
        unperturbed = pell.closed_form

        def off_by_one(family, n):
            poly = unperturbed(family, n)
            if (family.name, n) != ("r", 3):
                return poly
            return CompactPell("r", 3, (poly.coeffs[0] + 1,) + poly.coeffs[1:])

        monkeypatch.setattr(pell, "closed_form", off_by_one)
        found = certificate_failures()
        assert found["r"] == ["base row 3 differs from the recurrence"]
        assert found["s"] == found["sigma"] == []

    def test_digits_off_by_one(self, monkeypatch):
        unperturbed = pell.coefficient_digits

        def off_by_one(family, n):
            digits = unperturbed(family, n)
            if (family.name, n) != ("r", 3):
                return digits
            return [str(int(digits[0]) + 1)] + digits[1:]

        monkeypatch.setattr(pell, "coefficient_digits", off_by_one)
        found = certificate_failures()
        assert found["r"] == ["base row 3 differs from the recurrence"]
        assert found["s"] == found["sigma"] == []

    def test_grid_of_d_points(self, monkeypatch):
        monkeypatch.setattr(pell, "_grid", lambda d, start: range(start, start + d))
        for failures in certificate_failures().values():
            assert failures == [
                f"step identity: grid too small for degree {pell.STEP_DEGREE}",
                f"term ratio: grid too small for degree {pell.RATIO_DEGREE}",
                f"first coefficient: grid too small for degree {pell.FIRST_DEGREE}",
            ]

    def test_failure_is_one_closed_form_report_entry(self, monkeypatch):
        monkeypatch.setattr(pell, "_grid", lambda d, start: range(start, start + d))
        report = verify.run_closed_form(12)
        assert len(report.failures) == 9
        assert report.failures[0] == {
            "suite": "closed-form",
            "t": None,
            "n": None,
            "check": "r: certificate: step identity: grid too small for degree 2",
        }

    def test_stated_degree_bounds(self):
        sympy = pytest.importorskip("sympy")
        n, l = sympy.symbols("n l")

        def degree(expr):
            return sympy.Poly(sympy.expand(expr), n, l).total_degree()

        step, ratio, first = [], [], []
        for family in FAMILIES.values():
            terms = pell._step_terms(family, n, l)
            assert sympy.expand(terms[0] - terms[1] - terms[2]) == 0
            step.append(max(map(degree, terms)))

            u = pell.PAPER_NUMERATOR[family.name]

            def paper(l):
                m = n - family.delta - 2 * l
                return u(n, l, m) / m * sympy.binomial(m, l)

            quotient = sympy.cancel(sympy.combsimp(paper(l) / paper(l - 1)))
            q_num, q_den = sympy.fraction(quotient)
            num, den = pell._term_ratio(family.name, n, l, n - family.delta - 2 * l)
            assert sympy.expand(num * q_den - q_num * den) == 0
            ratio.append(max(degree(num * q_den), degree(q_num * den)))

            top = n - family.delta
            assert sympy.expand(u(n, 0, top) - top) == 0
            first.append(max(degree(u(n, 0, top)), degree(top)))
        assert max(step) == pell.STEP_DEGREE
        assert max(ratio) == pell.RATIO_DEGREE
        assert max(first) == pell.FIRST_DEGREE
