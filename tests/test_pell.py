import decimal
import functools
from fractions import Fraction
from itertools import islice
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mutants import ROW, assert_killed, certificate, moved

from pell3 import pell
from pell3.pell import (
    FAMILIES,
    R,
    S,
    SIGMA,
    _rows,
    by_name,
    closed_form,
    coefficient_digits,
    coefficient_triangle,
    recurrence_gen,
    triangle_csv,
    values_at,
)
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
        with pytest.raises(ValueError):
            triangle_csv(R, -1)


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

    def test_decimal_remainder_raises(self):
        assert 3000 - S.delta >= pell.DECIMAL_MIN_TOP
        assert_killed(ROW["decimal-remainder"])

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


#: the grid line (axis-family) each one-line perturbation of the term ratio keeps
GRID_LINES = ["l-r", "l-s", "l-sigma", "n-r", "n-s", "n-sigma"]


class TestClosedFormCertificate:
    """Each mutant of the code the certificate covers must break it: rows of
    the mutant table."""

    def test_holds_for_every_family(self):
        assert certificate() == {"r": [], "s": [], "sigma": []}

    test_perturbed_binomial_step = moved("binomial-step")
    test_perturbed_prefactor = moved("prefactor-s", "prefactor-sigma", ids=["s", "sigma"])
    test_perturbation_on_one_grid_line = moved(
        *(f"grid-line-{case}" for case in GRID_LINES), ids=GRID_LINES
    )
    test_perturbed_paper_numerator = moved("paper-sigma-n-plus-l", "paper-sigma-n-plus-1")
    test_base_row_off_by_one = moved("closed-form-base-row")
    test_digits_off_by_one = moved("digits-base-row")
    test_grid_of_d_points = moved("grid-of-d-points")
    test_failure_is_one_closed_form_report_entry = moved("grid-of-d-points-verify")

    def test_stated_degree_bounds(self):
        import sympy
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
