from fractions import Fraction
from math import comb as binomial
from math import gcd

import pytest
from mutants import moved

from pell3.lagrange import (
    first_term_coefficient,
    first_term_numerators,
    first_term_series,
    inversion_coefficient,
    inversion_lowest_terms,
    inversion_series,
    radius_estimate,
    truncation_bridge,
    verify_inversion,
)
from pell3.pell import R, recurrence_gen
from pell3.poly import truncated_product


class TestInversionSeries:
    def test_first_coefficients(self):
        assert inversion_coefficient(1) == Fraction(1, 4)
        assert inversion_coefficient(2) == Fraction(1, 16)
        assert inversion_coefficient(3) == Fraction(7, 256)

    def test_series_shape(self):
        u = inversion_series(5)
        assert len(u) == 6
        assert u[0] == 0
        assert all(u[k] > 0 for k in range(1, 6))

    def test_index_bounds(self):
        with pytest.raises(ValueError):
            inversion_coefficient(0)
        with pytest.raises(ValueError):
            inversion_series(0)

    @pytest.mark.parametrize("order", [1, 8, 64])
    def test_composition_oracle(self, order):
        verify_inversion(order)

    def test_lowest_terms_match_the_term_ratio(self):
        """u_n = b_n / 2^(3n-1), where b_1 = 1 and b_(n+1)/b_n is
        (3n+1)(3n)(3n-1) / ((n+1)(2n+1)(2n)): no binomial is evaluated."""
        b = Fraction(1)
        for n in range(1, 301):
            num, den = inversion_lowest_terms(n)
            assert gcd(num, den) == 1
            assert Fraction(num, den) == b / 2 ** (3 * n - 1)
            b = b * (3 * n + 1) * (3 * n) * (3 * n - 1) / ((n + 1) * (2 * n + 1) * (2 * n))


class TestFirstTermExpansion:
    def test_coefficient_formula_values(self):
        assert first_term_coefficient(0, 0) == Fraction(1, 2)
        assert first_term_coefficient(1, 0) == 1
        assert first_term_coefficient(5, 1) == -4

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 10])
    def test_series_agrees_with_formula(self, n):
        # first_term_series raises IdentityViolationError on any mismatch
        ser = first_term_series(n, 16)
        assert ser[0] == first_term_coefficient(n, 0)

    def test_series_keeps_going_past_the_polynomial(self):
        # beyond l = (n-1)/3 the expansion is nonzero: that tail is what
        # the conjugate Binet terms cancel
        ser = first_term_series(4, 8)
        assert any(ser[l] != 0 for l in range(2, 8))


class TestTruncationBridge:
    @pytest.mark.parametrize("n", [1, 2, 4, 18, 30])
    def test_prefix_matches_polynomial(self, n):
        truncation_bridge(n)

    def test_sign_map_explicitly(self):
        poly = recurrence_gen(R, 18)
        ser = first_term_series(18, len(poly.coeffs))
        mapped = [(-1) ** l * ser[l] for l in range(len(poly.coeffs))]
        assert mapped == list(poly.coeffs)

    def test_index_bound(self):
        with pytest.raises(ValueError):
            truncation_bridge(0)


class TestRadius:
    def test_ratio_near_target(self):
        assert abs(radius_estimate(60) - Fraction(27, 32)) < Fraction(5, 100)

    def test_positive_and_increasing(self):
        ratios = [radius_estimate(k) for k in range(10, 81)]
        assert all(r > 0 for r in ratios)
        assert all(a < b for a, b in zip(ratios, ratios[1:]))

    def test_below_limit(self):
        # ratios approach 27/32 from below
        assert radius_estimate(80) < Fraction(27, 32)

    def test_order_bound(self):
        with pytest.raises(ValueError):
            radius_estimate(9)


test_perturbed_inversion_coefficient_is_caught = moved("inversion-coefficient-3")
test_inexact_inversion_division_is_caught = moved("inexact-inversion-division")


def first_term_by_squaring(n: int, order: int) -> list:
    """Reference: zeta-coefficients of (1-U)^n / (1-3U), powering (1-U) by squaring."""
    u = [0] + [binomial(3 * k - 2, k - 1) // k for k in range(1, order)]
    ser = [1] + [0] * (order - 1)
    for k in range(1, order):
        ser[k] = 3 * sum(u[i] * ser[k - i] for i in range(1, k + 1))
    base, e = [1] + [-c for c in u[1:]], n
    while e:
        if e & 1:
            ser = truncated_product(ser, base, order)
        e >>= 1
        if e:
            base = truncated_product(base, base, order)
    return ser


@pytest.mark.parametrize("width", [1, 8, 34])
def test_one_pass_series_matches_powering_by_squaring(width):
    for n, coeffs in zip(range(41), first_term_numerators(width)):
        expected = first_term_by_squaring(n, width)
        assert coeffs == expected
        scaled = [Fraction(c << n, 2 << 3 * l) for l, c in enumerate(expected)]
        assert list(first_term_series(n, width)) == scaled


def test_one_pass_series_order_bound():
    with pytest.raises(ValueError):
        next(first_term_numerators(0))
    with pytest.raises(ValueError):
        first_term_series(3, 0)
