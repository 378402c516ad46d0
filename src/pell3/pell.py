"""The three families of third-order Pell polynomials.

Every family satisfies the same recursion, p_n = 2x*p_{n-1} + p_{n-3};
they differ only in their initial values:

    r:     0,  1,   2x
    s:     0,  2,   2x
    sigma: 3,  2x,  4x^2

Each polynomial is generated two independent ways: by iterating the
recursion, and from a closed-form binomial sum.  The two must agree
exactly, which is what the verification suites check.  Both work in y = 2x,
where compact coefficients are bare binomials, shifted to x on return.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from itertools import chain, islice
from operator import add, lshift
from typing import Iterator, Sequence

from .exactnum import IdentityViolationError
from .poly import DELTA, CompactPell


class ClosedFormRangeError(ValueError):
    """Closed-form coefficients requested below the family's valid range."""


@dataclass(frozen=True)
class Family:
    """A family tag: initial values p_0, p_1, p_2 as compact y-coefficients
    (y = 2x), and the smallest index served by the closed form.  Seeds
    below ``closed_form_min`` sit at exponent 0, where y- and x-form agree.
    """

    name: str
    seeds: tuple
    closed_form_min: int

    @property
    def delta(self) -> int:
        return DELTA[self.name]

    @property
    def binet_targets(self) -> tuple:
        """z-normalized initial values p_k / x^(k - delta) for the Binet weights."""
        return tuple(s[0] << (k - self.delta) if s else 0 for k, s in enumerate(self.seeds))


R = Family("r", ((), (1,), (1,)), 0)
S = Family("s", ((), (2,), (1,)), 2)
SIGMA = Family("sigma", ((3,), (1,), (1,)), 1)

FAMILIES = {"r": R, "s": S, "sigma": SIGMA}


def by_name(name: str) -> Family:
    try:
        return FAMILIES[name]
    except KeyError:
        raise ValueError(f"unknown family {name!r}; expected r, s or sigma") from None


def _rows(family: Family) -> Iterator[Sequence[int]]:
    """Yield compact y-coefficient rows for n = 0, 1, 2, ... indefinitely.

    Multiplying by y keeps every compact coefficient in its slot; adding
    p_{n-3} lands one slot further down (its exponents sit 3 lower), so
    a_n[l] = a_{n-1}[l] + a_{n-3}[l-1] and the window costs O(n) integers.
    """
    yield from family.seeds
    prev3, prev2, prev1 = family.seeds
    while True:
        row = list(map(add, chain(prev1, (0,)), chain((0,), prev3)))
        yield row
        prev3, prev2, prev1 = prev2, prev1, row


def _x_coeffs(family: Family, n: int, row) -> tuple:
    """Shift each y-coefficient left by its exponent n - delta - 3l."""
    return tuple(map(lshift, row, range(n - family.delta, -1, -3)))


def recurrence_gen(family: Family, n: int) -> CompactPell:
    """n-th family polynomial by iterating the recursion; exact."""
    if n < 0:
        raise ValueError(f"index must be nonnegative, got {n}")
    row = next(islice(_rows(family), n, None))
    return CompactPell(family.name, n, _x_coeffs(family, n, row))


def closed_form(family: Family, n: int) -> CompactPell:
    """n-th family polynomial from the closed-form binomial sum.

    With M = n - delta - 2l, the y-coefficient l is C(M, l) for r,
    (n-l-1)/M * C(M, l) for s and n/M * C(M, l) for sigma, each binomial
    built from the one before by its term ratio.  The s and sigma
    prefactors must divide out; a remainder raises IdentityViolationError.
    Below the family's valid range (s needs n >= 2, sigma n >= 1) the
    prefactor degenerates to 0/0 and ClosedFormRangeError is raised;
    callers fall back to recurrence_gen there.
    """
    if n < family.closed_form_min:
        raise ClosedFormRangeError(
            f"closed form for family {family.name} needs n >= {family.closed_form_min}, got {n}"
        )
    top = n - family.delta
    binom, row = 1, []
    for l in range(top // 3 + 1):
        m = top - 2 * l
        if l:
            binom = binom * ((m - l + 3) * (m - l + 2) * (m - l + 1)) // (l * (m + 2) * (m + 1))
        if family.name == "r":
            row.append(binom)
            continue
        coeff, rem = divmod(binom * (n - l - 1 if family.name == "s" else n), m)
        if rem:
            raise IdentityViolationError(
                f"closed-form coefficient is not an integer (family {family.name}, n={n}, l={l})"
            )
        row.append(coeff)
    return CompactPell(family.name, n, _x_coeffs(family, n, row))


def coefficient_triangle(family: Family, max_n: int) -> list:
    """Rows 0..max_n of compact x-coefficients, generated by recurrence."""
    if max_n < 0:
        raise ValueError(f"max_n must be nonnegative, got {max_n}")
    rows = islice(_rows(family), max_n + 1)
    return [_x_coeffs(family, n, row) for n, row in enumerate(rows)]


def triangle_csv(family: Family, max_n: int) -> str:
    """Triangle as CSV with header ``n,l,coeff``; coefficients are decimal
    strings since they outgrow machine words quickly."""
    rows = enumerate(coefficient_triangle(family, max_n))
    buf = io.StringIO()
    buf.write("n,l,coeff\n")
    buf.writelines(f"{n},{l},{c}\n" for n, row in rows for l, c in enumerate(row))
    return buf.getvalue()
