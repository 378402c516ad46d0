"""Exact numeric substrate: integers, rationals, and quadratic extensions.

Integers are plain Python ``int`` (already arbitrary precision, with a
canonical zero); rationals are ``fractions.Fraction`` (always in lowest
terms, positive denominator).  What this module adds on top is the
generalized binomial coefficient and exact arithmetic in a quadratic
extension of the rationals, ``a + b*W`` with ``W**2 = D``, where mixing
two discriminants raises ``ValueError``.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction


class IdentityViolationError(ArithmeticError):
    """An arithmetic identity that must hold exactly failed to."""


def gen_binomial(m: int, k: int) -> int:
    """Generalized binomial coefficient C(m, k) for any integer m, k >= 0.

    Defined through the falling factorial, m(m-1)...(m-k+1)/k!, so the
    upper index may be negative; e.g. C(-1, k) = (-1)**k.  For 0 <= m < k
    the product has a zero factor and the result is 0; for m < 0, upper
    negation turns it into (-1)**k C(k-m-1, k).
    """
    if k < 0:
        raise ValueError(f"lower index must be nonnegative, got {k}")
    if m >= 0:
        return math.comb(m, k)
    return (-1) ** k * math.comb(k - m - 1, k)


def power(base, n: int, one):
    """base**n for n >= 0 by repeated squaring, starting from the identity one."""
    if n < 0:
        raise ValueError(f"exponent must be nonnegative, got {n}")
    result = one
    while n:
        if n & 1:
            result = result * base
        base = base * base
        n >>= 1
    return result


def lifted(op):
    """Binary operator op(self, other) with other lifted by self._lift, or
    NotImplemented for an operand _lift refuses, so Python tries the other side."""

    @functools.wraps(op)
    def lifted_op(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return op(self, other)

    return lifted_op


class QuadExt:
    """Element ``a + b*W`` of a quadratic extension of Q, with ``W**2 = d``.

    The discriminant travels with the element, so values taken from
    different extensions can coexist in one program; mixing them in an
    arithmetic operation raises ``ValueError``.  Parts are Fractions, and
    one given as a Fraction is kept, not rebuilt; ints and Fractions mix
    freely (lifted to ``a + 0*W``); instances are never mutated.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, a, b, d):
        self.a = a if type(a) is Fraction else Fraction(a)
        self.b = b if type(b) is Fraction else Fraction(b)
        self.d = d if type(d) is Fraction else Fraction(d)

    def _lift(self, other) -> "QuadExt":
        if isinstance(other, QuadExt):
            if other.d != self.d:
                raise ValueError(
                    f"cannot combine elements with W^2={self.d} and W^2={other.d}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return QuadExt(other, 0, self.d)
        return NotImplemented

    @lifted
    def __add__(self, other):
        return QuadExt(self.a + other.a, self.b + other.b, self.d)

    __radd__ = __add__

    @lifted
    def __sub__(self, other):
        return QuadExt(self.a - other.a, self.b - other.b, self.d)

    @lifted
    def __rsub__(self, other):
        return other - self

    def __neg__(self):
        return QuadExt(-self.a, -self.b, self.d)

    @lifted
    def __mul__(self, other):
        return QuadExt(
            self.a * other.a + self.b * other.b * self.d,
            self.a * other.b + self.b * other.a,
            self.d,
        )

    __rmul__ = __mul__

    @lifted
    def __truediv__(self, other):
        nrm = other.norm()
        if nrm == 0:
            raise ZeroDivisionError("division by a non-invertible element")
        num = self * other.conjugate()
        return QuadExt(num.a / nrm, num.b / nrm, self.d)

    @lifted
    def __rtruediv__(self, other):
        return other / self

    def __pow__(self, n: int) -> "QuadExt":
        if not isinstance(n, int):
            return NotImplemented
        return power(self, n, QuadExt(1, 0, self.d))

    def conjugate(self) -> "QuadExt":
        return QuadExt(self.a, -self.b, self.d)

    def norm(self) -> Fraction:
        """a**2 - d*b**2, the product with the conjugate (a rational)."""
        return self.a * self.a - self.d * self.b * self.b

    def is_rational(self) -> bool:
        return self.b == 0

    def __eq__(self, other):
        if isinstance(other, QuadExt):
            return self.a == other.a and self.b == other.b and self.d == other.d
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        return NotImplemented

    def __repr__(self):
        return f"QuadExt({self.a}, {self.b}, d={self.d})"
