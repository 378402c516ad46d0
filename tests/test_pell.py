from itertools import islice
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pell3.pell import (
    FAMILIES,
    R,
    S,
    SIGMA,
    ClosedFormRangeError,
    _rows,
    by_name,
    closed_form,
    coefficient_triangle,
    recurrence_gen,
    triangle_csv,
)


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
        with pytest.raises(ClosedFormRangeError):
            closed_form(S, 1)
        with pytest.raises(ClosedFormRangeError):
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
    assert R.binet_targets == (0, 1, 2)
    assert S.binet_targets == (0, 2, 2)
    assert SIGMA.binet_targets == (3, 2, 4)


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
