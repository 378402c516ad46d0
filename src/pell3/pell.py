"""The three families of third-order Pell polynomials.

Every family satisfies the same recursion, p_n = 2x*p_{n-1} + p_{n-3};
they differ only in their initial values:

    r:     0,  1,   2x
    s:     0,  2,   2x
    sigma: 3,  2x,  4x^2

Each polynomial is generated two independent ways: by iterating the
recursion, and from a closed-form binomial sum.  The two must agree
exactly, which is what the verification suites check.  Both work in y = 2x,
where compact coefficients are bare binomials, shifted to x on return;
coefficient_digits, which eval and coeffs print, runs the closed form in x.
values_at runs the recursion at one point, for the Binet checks.
"""

from __future__ import annotations

import decimal
import io
from itertools import chain, islice
from math import comb
from operator import add, lshift
from typing import Iterator, NamedTuple, Sequence, TextIO

from .exactnum import IdentityViolationError
from .poly import DELTA, CompactPell


class Family(NamedTuple):
    """A family tag: initial values p_0, p_1, p_2 as compact x-coefficients,
    as the paper prints them, and the smallest index served by the closed
    form; callers serve the seed rows below it.
    """

    name: str
    seeds: tuple
    closed_form_min: int

    @property
    def delta(self) -> int:
        return DELTA[self.name]


R = Family("r", ((), (1,), (2,)), 0)
S = Family("s", ((), (2,), (2,)), 2)
SIGMA = Family("sigma", ((3,), (2,), (4,)), 1)

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
    Each seed holds one coefficient at most, at exponent n - delta.
    """
    seeds = [[c >> (n - family.delta) for c in s] for n, s in enumerate(family.seeds)]
    yield from seeds
    prev3, prev2, prev1 = seeds
    while True:
        row = list(map(add, chain(prev1, (0,)), chain((0,), prev3)))
        yield row
        prev3, prev2, prev1 = prev2, prev1, row


def _x_coeffs(family: Family, n: int, row) -> tuple:
    """Shift each y-coefficient left by its exponent n - delta - 3l.

    The tuple is built from a list: one built from an unsized iterator is
    resized as it grows, which moves tuples between CPython's per-size free
    lists and lets them pile up, call after call, in a long-lived process.
    """
    return tuple(list(map(lshift, row, range(n - family.delta, -1, -3))))


def values_at(family: Family, t) -> Iterator[int]:
    """Yield h_n = q^n * p_n / x^(n-delta) at x^-3 = -z for n = 0, 1, 2, ...,
    t = p/q, z = (1-t)^2 (1+t) = Z/q^3, Z = (q-p)^2 (q+p).  Evaluation is a
    ring map, so h_n = 2q*h_{n-1} - Z*h_{n-3}; each seed is its coefficient times q^n."""
    p, q = t.numerator, t.denominator
    big_z = (q - p) ** 2 * (q + p)
    h3, h2, h1 = (s[0] * q**n if s else 0 for n, s in enumerate(family.seeds))
    yield from (h3, h2, h1)
    while True:
        h3, h2, h1 = h2, h1, 2 * q * h1 - big_z * h3
        yield h1


def recurrence_gen(family: Family, n: int) -> CompactPell:
    """n-th family polynomial by iterating the recursion; exact."""
    if n < 0:
        raise ValueError(f"index must be nonnegative, got {n}")
    row = next(islice(_rows(family), n, None))
    return CompactPell(family.name, n, _x_coeffs(family, n, row))


def _term_ratio(name: str, n: int, l: int, m: int) -> tuple:
    """(num, den) with coefficient l = coefficient l-1 * num / den in row n,
    m = n - delta - 2l.  It is C(m,l)/C(m+2,l-1), which is
    (m-l+3)(m-l+2)(m-l+1)/(l(m+2)(m+1)), times the ratio of the prefactors
    on the two binomials: 1 for r, (n-l-1)(m+2)/((n-l)m) for s and
    (m+2)/m for sigma."""
    num = (m - l + 3) * (m - l + 2) * (m - l + 1)
    if name == "r":
        return num, l * (m + 2) * (m + 1)
    if name == "s":
        return (n - l - 1) * num, (n - l) * l * m * (m + 1)
    return num, l * m * (m + 1)


def _ratio_row(family: Family, n: int, first, step) -> list:
    """Coefficients of row n from the first one by the closed form's term
    ratio, each divided by ``step`` as well: (1, 1) gives the y-form, and
    (2^(n-delta), 8) the x-form, whose coefficients sit 3 powers of 2 apart.
    Every division must be exact; a remainder raises IdentityViolationError.
    """
    name, top = family.name, n - family.delta
    coeff, row = first, [first] if top >= 0 else []
    for l in range(1, top // 3 + 1):
        num, den = _term_ratio(name, n, l, top - 2 * l)
        coeff, rem = divmod(coeff * num, step * den)
        if rem:
            raise IdentityViolationError(
                f"closed-form coefficient is not an integer (family {name}, n={n}, l={l})"
            )
        row.append(coeff)
    return row


def closed_form(family: Family, n: int) -> CompactPell:
    """n-th family polynomial from the closed-form binomial sum.

    With M = n - delta - 2l, the y-coefficient l is C(M, l) for r,
    (n-l-1)/M * C(M, l) for s and n/M * C(M, l) for sigma.  Coefficient 0
    is 1, and each next one is the one before times its term ratio; every
    division must be exact, and a remainder raises IdentityViolationError.
    Below the family's valid range (s needs n >= 2, sigma n >= 1) the
    prefactor degenerates to 0/0 and ValueError is raised; callers serve
    the seed rows there.
    """
    if n < family.closed_form_min:
        raise ValueError(
            f"closed form for family {family.name} needs n >= {family.closed_form_min}, got {n}"
        )
    return CompactPell(family.name, n, _x_coeffs(family, n, _ratio_row(family, n, 1, 1)))


#: Smallest n - delta at which coefficient_digits builds the row in decimal.
#: Converting an int to a decimal string takes time quadratic in its digits,
#: while a Decimal times or divided by a small int, and its str, take linear
#: time.  Timed per row against the same x-form loop on ints (Python 3.11,
#: 2 cores), decimal is 1.2x slower at n - delta = 500, 1.08x at 600, even
#: at 700, and faster from 800 on: 0.94x at 800, 0.8x at 1000.
DECIMAL_MIN_TOP = 700

#: Integer arithmetic in Decimal: every digit kept, and anything that would
#: round, overflow or divide by zero raises instead.  Only products and
#: divmod belong here: a true division that does not terminate allocates
#: MAX_PREC digits, and fails with MemoryError before it can signal Inexact.
_EXACT = decimal.Context(
    prec=decimal.MAX_PREC,
    Emax=decimal.MAX_EMAX,
    Emin=decimal.MIN_EMIN,
    traps=[
        decimal.Inexact,
        decimal.Rounded,
        decimal.InvalidOperation,
        decimal.Overflow,
        decimal.DivisionByZero,
    ],
)


def coefficient_digits(family: Family, n: int) -> list:
    """Decimal strings of the x-coefficients of the n-th family polynomial:
    the seed row below ``closed_form_min``, the closed form from there on.

    The closed form's term ratio runs in x-form, from 2^(n-delta) down by 8
    times the ratio's denominator, every division checked for a remainder,
    on ints below DECIMAL_MIN_TOP and on Decimal integers from there on.
    """
    if n < 0:
        raise ValueError(f"index must be nonnegative, got {n}")
    top = n - family.delta
    if n < family.closed_form_min or top < 0:  # r_0 is the empty seed row
        return [str(c) for c in family.seeds[n]]
    with decimal.localcontext(_EXACT):
        first = 1 << top if top < DECIMAL_MIN_TOP else decimal.Decimal(2) ** top
        return [str(c) for c in _ratio_row(family, n, first, 8)]


def coefficient_triangle(family: Family, max_n: int) -> list:
    """Rows 0..max_n of compact x-coefficients, generated by recurrence and
    all held at once; ``write_triangle`` prints them one row at a time."""
    if max_n < 0:
        raise ValueError(f"max_n must be nonnegative, got {max_n}")
    rows = islice(_rows(family), max_n + 1)
    return [_x_coeffs(family, n, row) for n, row in enumerate(rows)]


def write_triangle(out: TextIO, family: Family, max_n: int, fmt: str) -> None:
    """Write rows 0..max_n of compact x-coefficients to ``out`` in the
    ``triangle`` format ``fmt`` (csv, json or plain), each row as ``_rows``
    yields it, so only one row is held at a time.  Coefficients are decimal
    strings, since they outgrow machine words quickly.

    Each row is written by one %-template: %d writes an int's digits
    straight into the result, with no str made per coefficient.  csv's
    template of row n is its lines ``n,l,%d`` under the header
    ``n,l,coeff``; json's is ``["%d", ...]``, joined by ", " inside the
    object's head and tail, and plain's ``%d %d ...``.
    """
    if max_n < 0:
        raise ValueError(f"max_n must be nonnegative, got {max_n}")
    labels = [f"{l}," for l in range(max_n // 3 + 1)]  # no row is longer
    if fmt == "json":
        out.write(f'{{"family": "{family.name}", "max_n": {max_n}, "rows": [')
    elif fmt == "csv":
        out.write("n,l,coeff\n")
    for n, row in enumerate(islice(_rows(family), max_n + 1)):
        size = len(row)
        if fmt == "csv":
            head = f"{n},"
            template = head + ("%d\n" + head).join(labels[:size]) + "%d\n" if size else ""
        elif fmt == "json":
            template = (", [" if n else "[") + ", ".join(['"%d"'] * size) + "]"
        else:
            template = " ".join(["%d"] * size) + "\n"
        out.write(template % _x_coeffs(family, n, row))
    if fmt == "json":
        out.write("]}\n")


def triangle_csv(family: Family, max_n: int) -> str:
    """The csv of ``write_triangle`` as one string, header ``n,l,coeff``."""
    buf = io.StringIO()
    write_triangle(buf, family, max_n, "csv")
    return buf.getvalue()


#: The paper's closed form F(n, l) = u(n, l)/M * C(M, l), M = n - delta - 2l,
#: by its numerator u(n, l, M).
PAPER_NUMERATOR = {
    "r": lambda n, l, m: m,
    "s": lambda n, l, m: n - l - 1,
    "sigma": lambda n, l, m: n,
}

#: Degree bounds of the polynomials the certificate tests for zero.  One of
#: degree <= d that vanishes on d+1 distinct values per variable is zero.
STEP_DEGREE = 2  # _step_terms in (n, l): u is linear
RATIO_DEGREE = 8  # _term_ratio against F(n,l)/F(n,l-1) in lowest terms, cross-multiplied
FIRST_DEGREE = 1  # u(n, 0, M) - M: F(n, 0) = 1, where closed_form starts each row


def _grid(d: int, start: int) -> range:
    """d+1 consecutive integers from start: enough to certify degree d."""
    return range(start, start + d + 1)


def _step_terms(family: Family, n: int, l: int) -> tuple:
    """F(n,l), F(n-1,l) and F(n-3,l-1) times M(M-1)/C(M,l), M = n - delta - 2l.

    With C(M-1,l) = C(M,l)(M-l)/M and C(M-1,l-1) = C(M,l) l/M, the step
    F(n,l) = F(n-1,l) + F(n-3,l-1) says the first term equals the other
    two.  The factor l clears row n-3 at l = 0, and M-l clears row n-1 at
    the last l, where that row is one entry shorter.
    """
    m, u = n - family.delta - 2 * l, PAPER_NUMERATOR[family.name]
    return u(n, l, m) * (m - 1), u(n - 1, l, m - 1) * (m - l), u(n - 3, l - 1, m - 1) * l


def closed_form_certificate(family: Family) -> list:
    """Prove that coefficient_digits(family, n) and, from closed_form_min
    on, closed_form(family, n) equal recurrence_gen(family, n) for every n;
    return the failed checks, none when proved.

    (a) The paper's F obeys the step of _step_terms for all (n, l).  (b)
    The term ratio both entry points multiply by equals F(n,l)/F(n,l-1),
    and F(n,0) = 1 (coefficient_digits works in x: it starts at 2^(n-delta)
    and puts 8 more in every denominator).  Each is a polynomial identity
    of stated degree, checked on a grid.  (c) Rows n < N0 = delta + 4 of
    both entry points match the recurrence.  From N0 on no denominator M or
    M-1 vanishes for an admissible l and rows n-1, n-3 are closed-form rows,
    so (a) and (b) carry the match to row n.
    """
    name, delta, u = family.name, family.delta, PAPER_NUMERATOR[family.name]

    def step(n, l):
        now, before, three_back = _step_terms(family, n, l)
        return now - before - three_back

    def ratio(n, l):
        # F(n,l)/F(n,l-1) = u(n,l) C(m,l) (m+2) / (u(n,l-1) C(m+2,l-1) m)
        m = n - delta - 2 * l
        num, den = _term_ratio(name, n, l, m)
        before = u(n, l - 1, m + 2) * comb(m + 2, l - 1) * m
        return num * before - den * u(n, l, m) * comb(m, l) * (m + 2)

    def first(n, l):
        return u(n, 0, n - delta) - (n - delta)

    failures = []
    for check, d, poly, start in (
        ("step identity", STEP_DEGREE, step, 0),
        # n >= 3l + delta on this grid: m >= l >= 1, where the binomials
        # take the values of the ratio's rational function
        ("term ratio", RATIO_DEGREE, ratio, 3 * RATIO_DEGREE + 4),
        ("first coefficient", FIRST_DEGREE, first, 0),
    ):
        xs, ls = _grid(d, start), _grid(d, 1)
        if min(len(set(xs)), len(set(ls))) <= d:
            failures.append(f"{check}: grid too small for degree {d}")
        elif any(poly(x, l) for x in xs for l in ls):
            failures.append(f"{check}: nonzero on the grid")
    n0 = delta + 4
    # min over l of M is k + j at n - delta = 3k + j, which grows along each
    # residue class mod 3: rows N0..N0+2 stand for every n >= N0
    if n0 - 3 < family.closed_form_min or any(
        sum(divmod(n - delta, 3)) < 2 for n in range(n0, n0 + 3)
    ):
        failures.append(f"N0 = {n0}: a denominator M or M-1 can vanish from N0 on")
    for n, row in enumerate(coefficient_triangle(family, n0 - 1)):
        try:
            same = coefficient_digits(family, n) == [str(c) for c in row] and (
                n < family.closed_form_min or closed_form(family, n).coeffs == row
            )
        except IdentityViolationError:
            same = False
        if not same:
            failures.append(f"base row {n} differs from the recurrence")
    return failures
