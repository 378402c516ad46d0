"""Test-only RatSeries: no pell3 module imports it; it stays while perfbench/tracer.py wraps it."""

from __future__ import annotations

from fractions import Fraction

from .exactnum import lifted, power
from .poly import truncated_product


class RatSeries:
    """A power series truncated at ``order``: coefficients of z^0..z^(order-1).

    Binary operations truncate the result to the smaller operand order, and
    equality compares coefficients up to the shared order only.
    """

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs=(), order=None):
        cs = [Fraction(c) for c in coeffs]
        if order is None:
            order = len(cs)
        if order < 1:
            raise ValueError(f"order must be positive, got {order}")
        del cs[order:]
        cs.extend([Fraction(0)] * (order - len(cs)))
        self.coeffs = tuple(cs)
        self.order = order

    def _lift(self, other) -> "RatSeries":
        if isinstance(other, RatSeries):
            return other
        if isinstance(other, (int, Fraction)):
            return RatSeries((other,), self.order)
        return NotImplemented

    @lifted
    def __add__(self, other):
        order = min(self.order, other.order)
        return RatSeries([a + b for a, b in zip(self.coeffs, other.coeffs)], order)

    __radd__ = __add__

    def __neg__(self):
        return RatSeries([-c for c in self.coeffs], self.order)

    @lifted
    def __sub__(self, other):
        return self + (-other)

    @lifted
    def __rsub__(self, other):
        return other - self

    @lifted
    def __mul__(self, other):
        order = min(self.order, other.order)
        return RatSeries(truncated_product(self.coeffs, other.coeffs, order), order)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "RatSeries":
        if not isinstance(k, int):
            return NotImplemented
        return power(self, k, RatSeries((1,), self.order))

    def reciprocal(self) -> "RatSeries":
        """Series b with self * b = 1 up to the truncation order."""
        a0 = self.coeffs[0]
        if a0 == 0:
            raise ZeroDivisionError("series has zero constant term, no reciprocal")
        out = [Fraction(0)] * self.order
        out[0] = 1 / a0
        for k in range(1, self.order):
            out[k] = -sum(self.coeffs[i] * out[k - i] for i in range(1, k + 1)) / a0
        return RatSeries(out, self.order)

    def compose(self, inner: "RatSeries") -> "RatSeries":
        """outer(inner(z)) by Horner accumulation; inner must have zero constant term."""
        if inner.coeffs[0] != 0:
            raise ValueError("inner series must have zero constant term")
        order = min(self.order, inner.order)
        acc = RatSeries((self.coeffs[order - 1],), order)
        for k in range(order - 2, -1, -1):
            acc = acc * inner + self.coeffs[k]
        return acc

    def __eq__(self, other):
        if not isinstance(other, RatSeries):
            return NotImplemented
        shared = min(self.order, other.order)
        return self.coeffs[:shared] == other.coeffs[:shared]

    def __repr__(self):
        shown = ", ".join(str(c) for c in self.coeffs[:6])
        more = ", ..." if self.order > 6 else ""
        return f"RatSeries([{shown}{more}], order={self.order})"
