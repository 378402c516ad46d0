"""Integer polynomials in one variable: dense form and the lacunary compact form.

The family polynomials only carry exponents n - delta - 3*l (delta is 1 for
the r and s families, 0 for sigma), so the compact form stores one integer
coefficient per step of 3 in the exponent.  The dense form is a view for
display and evaluation; truncated_product multiplies it and lagrange's series.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from itertools import zip_longest
from typing import NamedTuple

from .exactnum import lifted

#: exponent offset of each family: polynomial n has degree n - delta
DELTA = {"r": 1, "s": 1, "sigma": 0}


def horner_terms(coeffs, num: int, den: int) -> tuple:
    """Integers (N, M), unreduced, with sum_k coeffs[k] * (num/den)**k == N/M.

    Horner runs on integers, scaling coefficient k by den**(deg-k), and
    M is den**(deg+1)."""
    acc, scale = 0, 1
    for c in reversed(coeffs):
        acc = acc * num + c * scale
        scale *= den
    return acc * den, scale


def truncated_product(a, b, order: int) -> list:
    """Coefficients 0..order-1 of the product of two coefficient sequences;
    exact for int and Fraction coefficients alike."""
    out = [0] * order
    for i, x in enumerate(a[:order]):
        if x:
            for j, y in enumerate(b[: order - i]):
                if y:
                    out[i + j] += x * y
    return out


def plain_term(exp: int, digits: str) -> str:
    """One term of the plain rendering: the digits, then x or x^exp, with a
    coefficient of 1 dropped before an x."""
    if exp == 0:
        return digits
    x = "x" if exp == 1 else f"x^{exp}"
    return x if digits == "1" else digits + x


class DensePoly:
    """Dense polynomial with integer coefficients, stored lowest degree first.

    Trailing zero coefficients are stripped; the zero polynomial has an
    empty coefficient tuple and degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [operator.index(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x0) -> Fraction:
        """Evaluate by Horner's rule; exact for int or Fraction arguments."""
        x0 = Fraction(x0)
        return Fraction(*horner_terms(self.coeffs, x0.numerator, x0.denominator))

    def _lift(self, other) -> "DensePoly":
        if isinstance(other, DensePoly):
            return other
        if isinstance(other, int):
            return DensePoly((other,))
        return NotImplemented

    @lifted
    def __add__(self, other):
        return DensePoly([a + b for a, b in zip_longest(self.coeffs, other.coeffs, fillvalue=0)])

    __radd__ = __add__

    def __neg__(self):
        return DensePoly([-c for c in self.coeffs])

    @lifted
    def __sub__(self, other):
        return self + (-other)

    @lifted
    def __rsub__(self, other):
        return other - self

    @lifted
    def __mul__(self, other):
        a, b = self.coeffs, other.coeffs
        return DensePoly(truncated_product(a, b, len(a) + len(b)))

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, DensePoly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def format_plain(self) -> str:
        """Render in descending exponents, e.g. ``131072x^17+...+84x^2``."""
        text = "".join(
            ("-" if c < 0 else "+") + plain_term(exp, str(abs(c)))
            for exp in range(self.degree, -1, -1)
            if (c := self.coeffs[exp])
        )
        return text.removeprefix("+") or "0"

    def __repr__(self):
        return f"DensePoly({self.format_plain()})"


class _CompactFields(NamedTuple):  # a NamedTuple body may not define __new__
    family: str
    n: int
    coeffs: tuple


class CompactPell(_CompactFields):
    """Family polynomial in compact form: coefficient l sits at exponent
    n - delta - 3*l.  The zero polynomial has an empty coefficient tuple.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks its fields too

    def __new__(cls, family: str, n: int, coeffs):
        if family not in DELTA:
            raise ValueError(f"unknown family {family!r}")
        if n < 0:
            raise ValueError(f"index must be nonnegative, got {n}")
        # from a list, not a generator: see pell._x_coeffs
        coeffs = tuple([operator.index(c) for c in coeffs])
        if len(coeffs) > max(0, (n - DELTA[family]) // 3 + 1):
            raise ValueError(f"{len(coeffs)} coefficients do not fit family {family}, n={n}")
        return super().__new__(cls, family, n, coeffs)

    @property
    def delta(self) -> int:
        return DELTA[self.family]

    def exponent(self, l: int) -> int:
        return self.n - self.delta - 3 * l

    def to_dense(self) -> DensePoly:
        if not self.coeffs:
            return DensePoly()
        out = [0] * (self.n - self.delta + 1)
        for l, c in enumerate(self.coeffs):
            out[self.exponent(l)] = c
        return DensePoly(out)

    def eval_in_z(self, z0) -> Fraction:
        """Value of p(x) / x**(n-delta) after substituting x**-3 = -z0.

        Each stored coefficient contributes c_l * (-z0)**l, so this needs
        no root extraction and stays rational for rational z0.
        """
        z0 = Fraction(z0)
        return Fraction(*horner_terms(self.coeffs, -z0.numerator, z0.denominator))

    def to_json_dict(self) -> dict:
        return {
            "family": self.family,
            "n": self.n,
            "terms": [
                {"exp": self.exponent(l), "coeff": str(c)}
                for l, c in enumerate(self.coeffs)
                if c != 0
            ],
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "CompactPell":
        """Inverse of ``to_json_dict``; also takes coefficients as JSON integers."""
        try:
            family, n, terms = obj["family"], obj["n"], obj["terms"]
            if family not in DELTA:
                raise ValueError(f"unknown family {family!r}")
            pairs = [(term["exp"], term["coeff"]) for term in terms]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed JSON polynomial: {exc!r}") from None
        if type(n) is not int or type(terms) is not list:
            raise ValueError(f"n must be an int and terms a list: {n!r}, {type(terms).__name__}")
        coeffs: dict[int, int] = {}
        for exp, c in pairs:
            if isinstance(c, str) and c.isascii() and c.removeprefix("-").isdigit():
                c = int(c)
            if type(exp) is not int or type(c) is not int:
                raise ValueError(f"exponent {exp!r} or coefficient {c!r} is malformed")
            l, off = divmod(n - DELTA[family] - exp, 3)
            if l < 0 or off:
                raise ValueError(f"exponent {exp} is off the grid for n={n}")
            if l in coeffs:
                raise ValueError(f"exponent {exp} appears twice")
            if c == 0:
                raise ValueError(f"exponent {exp} has a zero coefficient")
            coeffs[l] = c
        if not coeffs:
            return cls(family, n, ())
        out = [coeffs.get(l, 0) for l in range(max(coeffs) + 1)]
        return cls(family, n, tuple(out))
