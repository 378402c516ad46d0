import math
import operator
import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pell3.exactnum import QuadExt, gen_binomial, power
from pell3.poly import DensePoly
from pell3.series import RatSeries


class TestGenBinomial:
    @pytest.mark.parametrize(
        "m, k, expected",
        [
            (5, 2, 10),
            (-1, 3, -1),
            (-2, 3, -4),  # (-2)(-3)(-4)/6
            (0, 0, 1),
            (5, 7, 0),
            (3, 0, 1),
            (-5, 0, 1),
            (-3, 4, 15),
        ],
    )
    def test_values(self, m, k, expected):
        assert gen_binomial(m, k) == expected

    def test_negative_lower_index_rejected(self):
        with pytest.raises(ValueError):
            gen_binomial(5, -1)

    def test_negation_of_upper_index(self):
        # the sign bridge between the series expansion and the closed form
        for n in range(31):
            for l in range(41):
                assert gen_binomial(3 * l - n, l) == (-1) ** l * gen_binomial(
                    n - 2 * l - 1, l
                )

    def test_matches_the_falling_factorial(self):
        for m in range(-40, 41):
            for k in range(41):
                num = 1
                for i in range(k):
                    num *= m - i
                assert gen_binomial(m, k) == num // math.factorial(k)

    @given(st.integers(-40, 40), st.integers(0, 12))
    def test_pascal_rule(self, m, k):
        assert gen_binomial(m, k) + gen_binomial(m, k + 1) == gen_binomial(m + 1, k + 1)


small_fractions = st.fractions(
    min_value=-5, max_value=5, max_denominator=12
)


def quad_elements(d):
    return st.builds(lambda a, b: QuadExt(a, b, d), small_fractions, small_fractions)


class FractionSubclass(Fraction):
    pass


class TestQuadExt:
    def test_norm_product(self):
        e = QuadExt(1, 1, 5) * QuadExt(1, -1, 5)
        assert e == QuadExt(-4, 0, 5)
        assert e == -4

    def test_conjugate(self):
        e = QuadExt(Fraction(2, 3), Fraction(-1, 7), 5)
        assert e.conjugate() == QuadExt(Fraction(2, 3), Fraction(1, 7), 5)

    def test_w_squared_is_d(self):
        assert QuadExt(0, 1, 5) ** 2 == QuadExt(5, 0, 5)

    def test_mismatched_discriminants(self):
        with pytest.raises(ValueError, match="cannot combine"):
            QuadExt(1, 1, 5) + QuadExt(1, 1, 7)
        with pytest.raises(ValueError, match="cannot combine"):
            QuadExt(1, 1, 5) * QuadExt(1, 1, 7)
        with pytest.raises(ValueError, match="cannot combine"):
            QuadExt(1, 1, 5) / QuadExt(1, 1, 7)

    def test_division(self):
        e = QuadExt(3, Fraction(1, 2), 5)
        assert e / e == 1
        assert (1 / e) * e == 1

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            QuadExt(1, 0, 5) / QuadExt(0, 0, 5)

    def test_division_by_zero_norm(self):
        # with a square discriminant the ring has zero divisors
        with pytest.raises(ZeroDivisionError):
            QuadExt(1, 0, 4) / QuadExt(2, 1, 4)

    def test_scalar_mixing(self):
        e = QuadExt(1, 2, 5)
        assert 2 * e == QuadExt(2, 4, 5)
        assert e + Fraction(1, 2) == QuadExt(Fraction(3, 2), 2, 5)
        assert 1 - e == QuadExt(0, -2, 5)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            QuadExt(1, 1, 5) ** -1

    @pytest.mark.parametrize(
        "part",
        [Fraction(3, 7), 3, True, 0.5, "3/7", FractionSubclass(3, 7), 1j, None],
        ids=repr,
    )
    @pytest.mark.parametrize("slot", QuadExt.__slots__)
    def test_part_rule(self, slot, part):
        """A part that is exactly a Fraction is kept as given, any other part
        is stored as Fraction(part), and one Fraction() rejects raises its TypeError."""
        parts = dict.fromkeys(QuadExt.__slots__, 1) | {slot: part}
        if part is None or isinstance(part, complex):
            with pytest.raises(TypeError) as rejected:
                Fraction(part)
            with pytest.raises(TypeError, match=re.escape(str(rejected.value))):
                QuadExt(**parts)
            return
        stored = getattr(QuadExt(**parts), slot)
        if type(part) is Fraction:
            assert stored is part
        else:
            assert type(stored) is Fraction and stored == Fraction(part)

    @given(quad_elements(5), quad_elements(5))
    def test_conjugation_is_multiplicative(self, e, f):
        assert (e * f).conjugate() == e.conjugate() * f.conjugate()

    @given(quad_elements(Fraction(21, 4)), st.integers(0, 8), st.integers(0, 8))
    def test_pow_is_additive(self, e, m, n):
        assert e ** (m + n) == e**m * e**n

    @given(quad_elements(5), quad_elements(5), quad_elements(5))
    def test_ring_laws(self, e, f, g):
        assert e * f == f * e
        assert e * (f + g) == e * f + e * g


@given(
    st.one_of(
        quad_elements(5),
        quad_elements(Fraction(-19, 4)),
        st.builds(RatSeries, st.lists(small_fractions, min_size=1, max_size=6)),
    )
)
def test_power_matches_repeated_multiplication(e):
    def state(x):
        return type(x), tuple(getattr(x, slot) for slot in type(x).__slots__)

    one = QuadExt(1, 0, e.d) if isinstance(e, QuadExt) else RatSeries((1,), e.order)
    product = one
    for n in range(21):
        assert state(power(e, n, one)) == state(e**n) == state(product)
        product = product * e


# The operand rule: each exact type's _lift, applied by exactnum.lifted.
EXACT_VALUES = {
    "QuadExt": QuadExt(1, 1, 5),
    "RatSeries": RatSeries((1, 2)),
    "DensePoly": DensePoly((1, 2)),
}
OPERATORS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}
LIFTED_OPERATORS = {"QuadExt": "+-*/", "RatSeries": "+-*", "DensePoly": "+-*"}
OPERAND_CASES = [
    pytest.param(kind, symbol, bad, id=f"{kind}-{symbol}-{type(bad).__name__}")
    for kind, symbols in LIFTED_OPERATORS.items()
    for symbol in symbols
    for bad in [1.5, "a", *(v for k, v in EXACT_VALUES.items() if k != kind)]
]


def names_operator(symbol):
    return rf"for {re.escape(symbol)}( or pow\(\))?:"


class TestOperandRule:
    @pytest.mark.parametrize("kind, symbol, bad", OPERAND_CASES)
    def test_unsupported_operand_names_the_operator(self, kind, symbol, bad):
        value, op = EXACT_VALUES[kind], OPERATORS[symbol]
        # a str takes over * as repetition on either side, and + on its left
        # as concatenation; their TypeErrors come from str
        text = isinstance(bad, str)
        forward = None if text and symbol == "*" else names_operator(symbol)
        reflected = None if text and symbol in "+*" else names_operator(symbol)
        with pytest.raises(TypeError, match=forward):
            op(value, bad)
        with pytest.raises(TypeError, match=reflected):
            op(bad, value)

    @pytest.mark.parametrize("kind", ["QuadExt", "RatSeries"])
    @pytest.mark.parametrize("exponent", [2.0, 1.5, "a", DensePoly((2,))])
    def test_non_int_exponent_names_the_operator(self, kind, exponent):
        with pytest.raises(TypeError, match=names_operator("**")):
            EXACT_VALUES[kind] ** exponent

    def test_negative_exponent_is_still_a_value_error(self):
        with pytest.raises(ValueError, match="nonnegative"):
            RatSeries((1, 1)) ** -2
        # power itself refuses a negative n, on which its loop would never end
        with pytest.raises(ValueError, match="nonnegative"):
            power(QuadExt(1, 1, 5), -1, QuadExt(1, 0, 5))

    def test_no_float_or_str_through_a_reflected_operator(self):
        q = QuadExt(1, 1, 5)
        with pytest.raises(TypeError, match=names_operator("/")):
            1.5 / q
        with pytest.raises(TypeError, match=names_operator("/")):
            "a" / q
        with pytest.raises(TypeError, match=names_operator("-")):
            1.5 - RatSeries((1, 2))

    def test_dense_poly_takes_ints_only(self):
        p = DensePoly((1, 2))
        with pytest.raises(TypeError, match=names_operator("*")):
            p * Fraction(1, 2)
        assert p + 3 == DensePoly((4, 2))
        assert p - 1 == DensePoly((0, 2))
        assert 3 + p == DensePoly((4, 2))
        assert 3 - p == DensePoly((2, -2))

    @given(
        st.builds(RatSeries, st.lists(small_fractions, min_size=1, max_size=6)),
        st.one_of(st.integers(-20, 20), small_fractions),
    )
    def test_series_scalar_product_as_before(self, s, k):
        before = RatSeries([c * k for c in s.coeffs], s.order)
        for product in (s * k, k * s):
            assert (product.coeffs, product.order) == (before.coeffs, before.order)

    @given(st.lists(st.integers(-50, 50), max_size=6), st.integers(-20, 20))
    def test_poly_int_product_as_before(self, coeffs, k):
        p = DensePoly(coeffs)
        before = DensePoly([c * k for c in p.coeffs])
        assert (p * k).coeffs == (k * p).coeffs == before.coeffs

    @given(
        st.one_of(
            quad_elements(5),
            st.builds(RatSeries, st.lists(small_fractions, min_size=1, max_size=6)),
        ),
        st.one_of(st.integers(-20, 20), small_fractions),
    )
    def test_reflected_difference_as_before(self, e, k):
        def state(x):
            return type(x), tuple(getattr(x, slot) for slot in type(x).__slots__)

        assert state(k - e) == state((-e) + k)
