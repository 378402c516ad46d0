"""Series inversion of z = u(u-2)^2 and what it says about the r family.

Near u = 0 the map z = u(u-2)^2 inverts to a power series

    u(z) = sum_{n>=1} (1/n) C(3n-2, n-1) 2^(1-3n) z^n,

convergent for |z| < 32/27.  Substituting u into -(2-u)^n / (3u-2), the
rational-in-u form of the leading Binet term -(1-t)^n/(1+3t), expands it as
sum_l 2^(n-3l-1) C(3l-n, l) z^l.  The first few of those coefficients,
after the sign map l -> (-1)^l, are exactly the compact coefficients of
r_n; everything past the polynomial's end is what the conjugate Binet
terms cancel.

All of these statements are certified here by exact series arithmetic:
composition is the oracle for the inversion coefficients, and the closed
formulas are compared term by term against the expanded series.

The arithmetic runs on integers.  With U = u/2 and zeta = z/8 the map
becomes zeta = U(1-U)^2, its inverse U(zeta) = sum_n C(3n-2, n-1)/n zeta^n
has integer coefficients, and the leading term is 2^(n-1) (1-U)^n/(1-3U),
whose zeta-coefficients are the integers C(3l-n, l).  Results are scaled
back to z once, when a Fraction or RatSeries is returned.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from math import comb
from typing import Iterator

from .exactnum import IdentityViolationError, gen_binomial
from .pell import R, recurrence_gen
from .series import RatSeries, truncated_product


def _zeta_coefficient(n: int) -> int:
    """Coefficient of zeta^n in U(zeta): C(3n-2, n-1)/n, an integer."""
    coeff, rem = divmod(comb(3 * n - 2, n - 1), n)
    if rem:
        raise IdentityViolationError(f"C(3n-2, n-1) is not divisible by n={n}")
    return coeff


def _zeta_series(order: int) -> tuple:
    """U(zeta) and 1 - U(zeta) through zeta^(order-1), as integers."""
    u = [0] + [_zeta_coefficient(n) for n in range(1, order)]
    return u, [1] + [-c for c in u[1:]]


def inversion_lowest_terms(n: int) -> tuple:
    """(numerator, denominator) of the coefficient of z^n in u(z), from the
    closed formula, in lowest terms; n >= 1.

    The coefficient is b / 2^(3n-1) with b = C(3n-2, n-1)/n, so it is
    reduced by shifting out b's trailing zero bits.  As b < 2^(3n-2), the
    denominator left is at least 4.
    """
    if n < 1:
        raise ValueError(f"coefficient index must be >= 1, got {n}")
    b = _zeta_coefficient(n)
    zeros = (b & -b).bit_length() - 1
    return b >> zeros, 1 << (3 * n - 1 - zeros)


def inversion_coefficient(n: int) -> Fraction:
    """Coefficient of z^n in u(z), from the closed formula; n >= 1."""
    return Fraction(*inversion_lowest_terms(n))


def inversion_series(order: int) -> RatSeries:
    """u(z) carrying coefficients through z^order (all positive, u_0 = 0)."""
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    return RatSeries(
        [Fraction(0)] + [inversion_coefficient(n) for n in range(1, order + 1)],
        order + 1,
    )


def verify_inversion(order: int) -> None:
    """Certify the inversion coefficients by forward composition.

    Substitutes U(zeta) into U(1-U)^2 -- the map z = u(u-2)^2 in U = u/2,
    zeta = z/8 -- and demands the exact identity series zeta through
    zeta^order.  Raises IdentityViolationError with the first bad index on
    mismatch.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    u, one_minus_u = _zeta_series(order + 1)
    once = truncated_product(u, one_minus_u, order + 1)
    composed = truncated_product(once, one_minus_u, order + 1)
    for k, c in enumerate(composed):
        if c != (1 if k == 1 else 0):
            raise IdentityViolationError(
                f"composition disagrees with zeta first at index {k}: {c}"
            )


def first_term_coefficient(n: int, l: int) -> Fraction:
    """Coefficient of z^l in the leading-term expansion: 2^(n-3l-1) C(3l-n, l)."""
    return Fraction(2) ** (n - 3 * l - 1) * gen_binomial(3 * l - n, l)


def first_term_numerators(order: int) -> Iterator[list]:
    """Yield the zeta-coefficients 0..order-1 of (1-U)^n / (1-3U) as
    integers, for n = 0, 1, 2, ...

    U(zeta) and 1/(1-3U) are built once; each next n is one truncated
    product by (1-U).  Nothing here reads the closed formula C(3l-n, l) or
    the recurrence: check_first_term and check_bridge compare against them.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    u, one_minus_u = _zeta_series(order)
    ser = [1] + [0] * (order - 1)  # 1/(1-3U) = 1 + 3U/(1-3U), term by term
    for k in range(1, order):
        ser[k] = 3 * sum(u[i] * ser[k - i] for i in range(1, k + 1))
    while True:
        yield ser
        ser = truncated_product(ser, one_minus_u, order)


def check_first_term(n: int, coeffs) -> None:
    """Each given zeta-coefficient l of (1-U)^n/(1-3U) must equal
    C(3l-n, l), else IdentityViolationError naming the first bad l."""
    for l, c in enumerate(coeffs):
        if c != gen_binomial(3 * l - n, l):
            raise IdentityViolationError(
                f"series coefficient {l} is {Fraction(c << n, 2 << 3 * l)}, formula gives "
                f"{first_term_coefficient(n, l)} (n={n})"
            )


def check_bridge(n: int, coeffs, row) -> None:
    """The sign-mapped prefix of the leading-term expansion must be r_n.

    For 0 <= l <= (n-1)/3, zeta-coefficient l of (1-U)^n/(1-3U) must equal
    C(3l-n, l), and (-1)^l times its z-scaled value 2^(n-1-3l) C(3l-n, l)
    must equal compact coefficient l of r_n, given as row; else
    IdentityViolationError.
    """
    prefix = coeffs[: (n - 1) // 3 + 1]
    check_first_term(n, prefix)
    mapped = [(-1) ** l * (c << (n - 1 - 3 * l)) for l, c in enumerate(prefix)]
    if mapped != list(row):
        raise IdentityViolationError(
            f"sign-mapped prefix {mapped} differs from r_{n} coefficients {list(row)}"
        )


def first_term_series(n: int, order: int) -> RatSeries:
    """Expand -(2-u)^n / (3u-2) in z, checking every coefficient.

    The n-th term of first_term_numerators(order), 2^(n-1) (1-U)^n / (1-3U)
    in zeta; each zeta-coefficient l < order must equal C(3l-n, l), else
    IdentityViolationError.  The result is scaled back to z, coefficient l
    times 2^(n-1-3l), once on return.  A sweep over n reads
    first_term_numerators once instead.
    """
    if n < 0:
        raise ValueError(f"index must be nonnegative, got {n}")
    coeffs = next(islice(first_term_numerators(order), n, None))
    check_first_term(n, coeffs)
    return RatSeries([Fraction(c << n, 2 << 3 * l) for l, c in enumerate(coeffs)], order)


def truncation_bridge(n: int) -> None:
    """Check that the sign-mapped series prefix is exactly r_n.

    For 0 <= l <= (n-1)/3, (-1)^l times coefficient l of the leading-term
    expansion must equal compact coefficient l of r_n; past that point the
    series keeps going, and those are the terms the conjugate pair kills.
    """
    if n < 1:
        raise ValueError(f"index must be >= 1, got {n}")
    coeffs = next(islice(first_term_numerators((n - 1) // 3 + 1), n, None))
    check_bridge(n, coeffs, recurrence_gen(R, n).coeffs)


def radius_estimate(order: int) -> Fraction:
    """Successive coefficient ratio u_order / u_(order-1).

    Approaches 27/32 from below (the reciprocal of the convergence radius
    32/27); the sequence of ratios is increasing.
    """
    if order < 10:
        raise ValueError(f"order must be >= 10 for a meaningful ratio, got {order}")
    return inversion_coefficient(order) / inversion_coefficient(order - 1)
