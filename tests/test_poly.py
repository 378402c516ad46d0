import json
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from pell3.pell import FAMILIES, R, SIGMA, coefficient_triangle, recurrence_gen
from pell3.poly import DELTA, CompactPell, DensePoly, horner_terms

R18_COEFFS = (131072, 245760, 159744, 42240, 4032, 84)
R18_PLAIN = "131072x^17+245760x^14+159744x^11+42240x^8+4032x^5+84x^2"


def from_dense(dense: DensePoly, family: str, n: int) -> CompactPell:
    """Reference inverse of ``CompactPell.to_dense``: the coefficients at
    exponents n - delta - 3l, with nothing allowed off that grid."""
    top = n - DELTA[family]
    assert dense.degree <= top
    dense_coeffs = list(dense.coeffs) + [0] * (top + 1 - len(dense.coeffs))
    coeffs = dense_coeffs[top::-3]
    assert sum(map(bool, coeffs)) == sum(map(bool, dense_coeffs))
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return CompactPell(family, n, tuple(coeffs))


class TestDensePoly:
    def test_trailing_zeros_stripped(self):
        assert DensePoly((1, 2, 0, 0)).coeffs == (1, 2)
        assert DensePoly((0, 0)).coeffs == ()

    def test_degree(self):
        assert DensePoly((1, 0, 3)).degree == 2
        assert DensePoly().degree == -1

    def test_eval_rational(self):
        # r4 = 8x^3 + 1 at 1, from the recurrence
        assert recurrence_gen(R, 4).to_dense()(1) == 9
        # sigma_3 = 8x^3 + 3 at -1
        assert recurrence_gen(SIGMA, 3).to_dense()(-1) == -5
        assert DensePoly()(Fraction(7, 3)) == 0

    def test_eval_exact_fraction(self):
        p = DensePoly((1, 0, 0, 8))
        assert p(Fraction(1, 2)) == 2

    def test_ring_ops(self):
        p = DensePoly((1, 1))  # 1 + t
        q = DensePoly((-1, 0, 1))  # t^2 - 1
        assert p * p == DensePoly((1, 2, 1))
        assert p * q == DensePoly((-1, -1, 1, 1))
        assert p - q == DensePoly((2, 1, -1))
        assert 3 * p == DensePoly((3, 3))

    def test_format_plain(self):
        assert DensePoly().format_plain() == "0"
        assert DensePoly((3,)).format_plain() == "3"
        assert DensePoly((1, 0, 0, 8)).format_plain() == "8x^3+1"
        assert DensePoly((0, -4, 1)).format_plain() == "x^2-4x"
        assert DensePoly((0, 1)).format_plain() == "x"


def reference_product(a, b) -> list:
    """Schoolbook product of two coefficient tuples, every pair (i, j) once."""
    out = [0] * (len(a) + len(b))
    for i, ci in enumerate(a):
        if ci:
            for j, cj in enumerate(b):
                out[i + j] += ci * cj
    return out


def reference_plain(coeffs) -> str:
    """Plain rendering written out term by term: sign, magnitude, power of x."""
    parts = []
    for exp in range(len(coeffs) - 1, -1, -1):
        c = coeffs[exp]
        if c == 0:
            continue
        mag = abs(c)
        if exp == 0:
            body = str(mag)
        else:
            xs = "x" if exp == 1 else f"x^{exp}"
            body = xs if mag == 1 else f"{mag}{xs}"
        parts.append(("-" if c < 0 else "+", body))
    if not parts:
        return "0"
    sign, body = parts[0]
    text = (sign if sign == "-" else "") + body
    for sign, body in parts[1:]:
        text += sign + body
    return text


COEFF_TUPLES = st.lists(
    st.one_of(st.sampled_from([0, 1, -1]), st.integers(-(10**6), 10**6)), max_size=10
).map(tuple)


class TestAgainstReferences:
    """The product and the plain rendering against references written out loop by loop."""

    @given(COEFF_TUPLES, COEFF_TUPLES)
    @example((), ())
    @example((), (1, -1))
    @example((0, 0, 1), (-1, 0, 0))
    def test_product(self, a, b):
        assert DensePoly(a) * DensePoly(b) == DensePoly(reference_product(a, b))

    @given(COEFF_TUPLES)
    @example(())
    @example((0, 0))
    @example((-1,))
    @example((1, -1, 0, -1, 1))
    def test_plain_rendering(self, coeffs):
        assert DensePoly(coeffs).format_plain() == reference_plain(coeffs)
        assert repr(DensePoly(coeffs)) == f"DensePoly({reference_plain(coeffs)})"


class TestCompactPell:
    def test_to_dense_golden(self):
        p = CompactPell("r", 18, R18_COEFFS)
        assert p.to_dense().format_plain() == R18_PLAIN

    def test_to_dense_constants(self):
        assert CompactPell("sigma", 0, (3,)).to_dense() == DensePoly((3,))
        assert CompactPell("r", 1, (1,)).to_dense() == DensePoly((1,))

    def test_round_trip_all_families(self):
        for family in FAMILIES.values():
            for n in range(41):
                p = recurrence_gen(family, n)
                assert from_dense(p.to_dense(), family.name, n) == p

    def test_eval_in_z(self):
        assert CompactPell("r", 3, (4,)).eval_in_z(1) == 4
        for z0 in (0, 1, Fraction(-3, 7)):
            assert CompactPell("sigma", 0, (3,)).eval_in_z(z0) == 3
        assert CompactPell("r", 4, (8, 1)).eval_in_z(0) == 8
        # sign convention: c_l picks up (-z0)^l
        assert CompactPell("r", 4, (8, 1)).eval_in_z(Fraction(1, 2)) == Fraction(15, 2)

    def test_eval_matches_dense_eval(self):
        # p(x0) = x0^(n-delta) * eval_in_z(-x0^-3)
        xs = [1, -1, 2, Fraction(1, 2), Fraction(-3, 2), Fraction(5, 7)]
        for family in FAMILIES.values():
            for n in range(26):
                p = recurrence_gen(family, n)
                dense = p.to_dense()
                for x0 in xs:
                    x0 = Fraction(x0)
                    assert dense(x0) == x0 ** (n - p.delta) * p.eval_in_z(-(x0**-3))

    @pytest.mark.parametrize("family", list(FAMILIES.values()), ids=lambda f: f.name)
    def test_horner_pair_agrees_with_eval_in_z(self, family):
        rows = coefficient_triangle(family, 80)
        # t on and off the Binet sample grid, beyond 5/3 included, at z = (1-t)^2 (1+t)
        for t in [Fraction(0), Fraction(1, 2), Fraction(-5, 7), Fraction(11, 12), Fraction(7, 3)]:
            z = (1 - t) ** 2 * (1 + t)
            for n, row in enumerate(rows):
                poly = CompactPell(family.name, n, row)
                num, den = horner_terms(poly.coeffs, (-z).numerator, (-z).denominator)
                value = poly.eval_in_z(z)
                assert Fraction(num, den) == value
                assert value == sum(c * (-z) ** l for l, c in enumerate(row))

    def test_validation(self):
        with pytest.raises(ValueError):
            CompactPell("q", 3, (1,))
        with pytest.raises(ValueError):
            CompactPell("r", -1, ())
        with pytest.raises(ValueError):
            CompactPell("r", 2, (1, 2))  # only one slot fits at n=2

    def test_json_round_trip(self):
        p = CompactPell("r", 18, R18_COEFFS)
        dumped = json.dumps(p.to_json_dict())
        parsed = CompactPell.from_json_dict(json.loads(dumped))
        assert parsed == p
        assert json.dumps(parsed.to_json_dict()) == dumped

    def test_json_zero_polynomial(self):
        p = CompactPell("r", 0, ())
        assert p.to_json_dict()["terms"] == []
        assert CompactPell.from_json_dict(p.to_json_dict()) == p

    def test_json_rejects_off_grid_exponent(self):
        with pytest.raises(ValueError):
            CompactPell.from_json_dict(
                {"family": "r", "n": 4, "terms": [{"exp": 2, "coeff": "1"}]}
            )

    def test_json_rejects_unknown_family(self):
        with pytest.raises(ValueError, match="unknown family 'q'"):
            CompactPell.from_json_dict({"family": "q", "n": 1, "terms": []})

    def test_json_rejects_zero_term(self):
        # to_json_dict never writes a zero term; a parsed (0,) would differ from ()
        with pytest.raises(ValueError, match="exponent 3"):
            CompactPell.from_json_dict(
                {"family": "r", "n": 4, "terms": [{"exp": 3, "coeff": "0"}]}
            )

    def test_json_rejects_missing_terms(self):
        with pytest.raises(ValueError, match="'terms'"):
            CompactPell.from_json_dict({"family": "r", "n": 4})

    def test_json_rejects_string_index(self):
        with pytest.raises(ValueError, match="'4'"):
            CompactPell.from_json_dict({"family": "r", "n": "4", "terms": []})

    def test_json_rejects_repeated_exponent(self):
        terms = [{"exp": 3, "coeff": "5"}, {"exp": 3, "coeff": "8"}, {"exp": 0, "coeff": "1"}]
        with pytest.raises(ValueError, match="exponent 3"):
            CompactPell.from_json_dict({"family": "r", "n": 4, "terms": terms})

    @pytest.mark.parametrize(
        "obj",
        [
            {"family": "r", "n": 4, "terms": [{"exp": 3, "coeff": 1.5}]},
            {"family": "r", "n": 4, "terms": [{"exp": 3, "coeff": True}]},
            {"family": "r", "n": 4, "terms": [{"exp": 3, "coeff": " 8"}]},
            {"family": "r", "n": 4, "terms": [{"exp": 3, "coeff": "+8"}]},
            {"family": "r", "n": 4, "terms": [{"exp": 3, "coeff": "1_0"}]},
            {"family": "r", "n": 4, "terms": [{"exp": 3, "coeff": "\u0668"}]},
            {"family": "r", "n": 4, "terms": [{"coeff": "8"}]},
            {"family": "r", "n": 4, "terms": [{"exp": "3", "coeff": "8"}]},
            {"family": "r", "n": 2, "terms": [{"exp": True, "coeff": "2"}]},
            {"family": "r", "n": 4, "terms": 5},
            {"family": "r", "n": 4, "terms": ""},
            {"family": "r", "n": 4, "terms": {"exp": 3, "coeff": "8"}},
            {"family": "r", "n": 4, "terms": ["3:8"]},
            {"family": ["r"], "n": 4, "terms": []},
            [["family", "r"], ["n", 4], ["terms", []]],
        ],
        ids=[
            "float-coeff",
            "bool-coeff",
            "space-in-coeff",
            "plus-sign-coeff",
            "underscore-coeff",
            "non-ascii-digit-coeff",
            "term-without-exp",
            "string-exp",
            "bool-exp",
            "terms-not-a-list",
            "terms-a-string",
            "terms-a-dict",
            "term-not-a-dict",
            "family-a-list",
            "top-level-not-a-dict",
        ],
    )
    def test_json_rejects_malformed_input(self, obj):
        """Anything to_json_dict would not write, but for JSON integer
        coefficients, is a ValueError: no other error, no silent parse."""
        with pytest.raises(ValueError):
            CompactPell.from_json_dict(obj)

    def test_json_accepts_integer_coefficients(self):
        terms = [{"exp": 3, "coeff": 8}, {"exp": 0, "coeff": "1"}]
        parsed = CompactPell.from_json_dict({"family": "r", "n": 4, "terms": terms})
        assert parsed == recurrence_gen(R, 4)

    def test_coefficients_exceeding_machine_words(self):
        p = recurrence_gen(R, 200)
        assert p.coeffs[0] == 2**199
        assert p.to_json_dict()["terms"][0]["coeff"] == str(2**199)
