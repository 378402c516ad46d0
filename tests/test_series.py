import random
from fractions import Fraction

import pytest

from pell3.series import RatSeries


def F(a, b=1):
    return Fraction(a, b)


class TestRingOps:
    def test_product_difference_of_squares(self):
        p = RatSeries((1, 1), 4)
        q = RatSeries((1, -1), 4)
        assert p * q == RatSeries((1, 0, -1, 0), 4)

    def test_pow(self):
        assert RatSeries((1, 1), 4) ** 3 == RatSeries((1, 3, 3, 1), 4)
        assert RatSeries((2, 5), 3) ** 0 == RatSeries((1,), 3)

    def test_result_carries_min_order(self):
        a = RatSeries((1, 2, 3), 3)
        b = RatSeries((1, 1), 7)
        assert (a * b).order == 3
        assert (a + b).order == 3
        assert (a - b).order == 3

    def test_truncation_drops_high_terms(self):
        a = RatSeries((0, 1), 2)
        assert (a * a).coeffs == (0, 0)  # z^2 falls off at order 2

    def test_scalar_ops(self):
        a = RatSeries((1, 1), 3)
        assert 2 * a == RatSeries((2, 2), 3)
        assert a - 1 == RatSeries((0, 1), 3)
        assert 1 - a == RatSeries((0, -1), 3)

    def test_equality_up_to_shared_order(self):
        assert RatSeries((1, 2, 99), 3) == RatSeries((1, 2), 2)
        assert RatSeries((1, 2, 99), 3) != RatSeries((1, 3), 2)

    def test_coefficient_access(self):
        a = RatSeries((1, F(1, 2)), 2)
        assert a.coeffs[1] == F(1, 2)


class TestReciprocal:
    def test_geometric(self):
        assert RatSeries((1, -1), 4).reciprocal() == RatSeries((1, 1, 1, 1), 4)

    def test_scaled_geometric(self):
        assert RatSeries((2, -1), 3).reciprocal() == RatSeries(
            (F(1, 2), F(1, 4), F(1, 8)), 3
        )

    def test_non_unit(self):
        with pytest.raises(ZeroDivisionError, match="zero constant term"):
            RatSeries((0, 1), 4).reciprocal()

    def test_two_sided_inverse_random(self):
        rng = random.Random(20240817)
        one = RatSeries((1,), 8)
        for _ in range(200):
            coeffs = [
                Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(8)
            ]
            if coeffs[0] == 0:
                coeffs[0] = Fraction(1, 3)
            s = RatSeries(coeffs, 8)
            r = s.reciprocal()
            assert s * r == one
            assert r * s == one


class TestCompose:
    def test_expand(self):
        outer = RatSeries((0, 0, 1), 4)  # z^2
        inner = RatSeries((0, 1, 1), 4)  # z + z^2
        assert outer.compose(inner) == RatSeries((0, 0, 1, 2), 4)

    def test_identity_inner(self):
        outer = RatSeries((3, F(1, 2), 0, -7), 4)
        assert outer.compose(RatSeries((0, 1), 4)) == outer

    def test_geometric_of_z_squared(self):
        outer = RatSeries((1, -1), 5).reciprocal()
        inner = RatSeries((0, 0, 1), 5)
        assert outer.compose(inner) == RatSeries((1, 0, 1, 0, 1), 5)

    def test_requires_zero_constant_term(self):
        with pytest.raises(ValueError, match="zero constant term"):
            RatSeries((1, 1), 3).compose(RatSeries((1, 1), 3))

    def test_distributes_over_add(self):
        rng = random.Random(7)
        for _ in range(20):
            f = RatSeries([rng.randint(-4, 4) for _ in range(6)], 6)
            g = RatSeries([rng.randint(-4, 4) for _ in range(6)], 6)
            inner = RatSeries([0] + [rng.randint(-3, 3) for _ in range(5)], 6)
            assert (f + g).compose(inner) == f.compose(inner) + g.compose(inner)


def test_order_must_be_positive():
    with pytest.raises(ValueError):
        RatSeries((), 0)
