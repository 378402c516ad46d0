"""Binet formulas for the Pell families, exactly, via a quadratic extension.

The characteristic equation X^3 - 2x*X^2 - 1 = 0 of the recursion turns,
after the substitutions X = x/Y and x^3 = -1/z, into z*Y^3 - 2Y + 1 = 0.
Parametrizing z = (1-t)^2 (1+t) makes the roots rational in t up to one
square root, W = sqrt((1+t)(5-3t)):

    v1 = 1/(1-t)    v2, v3 = (1+t +- W) / (2(t^2-1))

and their reciprocals

    w1 = 1-t        w2, w3 = (1+t -+ W) / 2.

Every family polynomial then satisfies p_n(x) = x^(n-delta) (A*w1^n +
B*w2^n + C*w3^n) with family-specific weights A, B, C.  All of this is
evaluated exactly at rational t: the conjugate pair w2, w3 lives in the
quadratic extension with W^2 = (1+t)(5-3t), and every identity is checked
with exact equality, no floating point anywhere.

Both the weights and the powers run on integers: at t = p/q, W = sqrt(D)/q
with the integer D = (q+p)(5q-3p), so 2q*w2, 2q*w3 = (q+p) -+ sqrt(D) and
2q*w1 = 2(q-p) are integer pairs in Z[sqrt(D)].  Each weight is solved once
per t as its own row of the inverse Vandermonde matrix on those pairs and
rationalized once, becoming a QuadExt value only on return; the powers carry
one denominator (2q)^n along instead of a Fraction per coefficient.  The ring
Z[sqrt(D)] stays inside this module: every W-part it hands out is in units
of W.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import islice
from math import comb, lcm
from typing import Iterator, NamedTuple

from .exactnum import IdentityViolationError, QuadExt
from .pell import Family
from .poly import DensePoly, horner_terms


#: t values where a factor of the chain vanishes: double roots, a vanishing
#: discriminant, or poles of the Binet weights.
_EXCLUDED_T = {
    Fraction(1): "1-t",
    Fraction(-1): "1+t",
    Fraction(-1, 3): "1+3t",
    Fraction(5, 3): "5-3t",
}
#: the 90 values sample_points can draw: t in (-1, 1), denominator 2..12, not excluded
SAMPLE_T = {Fraction(p, d) for d in range(2, 13) for p in range(1 - d, d)} - _EXCLUDED_T.keys()


class SubstitutionPoint(NamedTuple):
    """The variable chain realized at one rational t:
    z = (1-t)^2 (1+t) and discriminant d = (1+t)(5-3t)."""

    t: Fraction
    z: Fraction
    d: Fraction


class RootTriple(NamedTuple):
    """Roots v of z*v^3 - 2v + 1 = 0 and their reciprocals w (roots of
    w^3 - 2w^2 + z = 0).  v1, w1 are rational; the other two are a
    conjugate pair, w2 carrying -W and w3 carrying +W."""

    v1: Fraction
    v2: QuadExt
    v3: QuadExt
    w1: Fraction
    w2: QuadExt
    w3: QuadExt


class BinetCoefficients(NamedTuple):
    """Weights of w1^n, w2^n, w3^n in a family's Binet combination.
    b and c are conjugates; a is rational."""

    a: QuadExt
    b: QuadExt
    c: QuadExt

    def has_binet_structure(self) -> bool:
        """A rational and C the conjugate of B."""
        return self.a.is_rational() and self.c == self.b.conjugate()


def substitution_chain(t) -> SubstitutionPoint:
    """Build the substitution point at rational t.

    Rejects t in {1, -1, -1/3, 5/3}: there the roots collide or a Binet
    weight has a pole, and the ValueError names the vanishing factor.
    """
    t = Fraction(t)
    factor = _EXCLUDED_T.get(t)
    if factor is not None:
        raise ValueError(f"t={t} makes the factor {factor} vanish")
    return SubstitutionPoint(
        t=t,
        z=(1 - t) ** 2 * (1 + t),
        d=(1 + t) * (5 - 3 * t),
    )


def _ring(point: SubstitutionPoint) -> tuple:
    """p, q and D = (q+p)(5q-3p) at t = p/q: W = sqrt(D)/q."""
    p, q = point.t.numerator, point.t.denominator
    return p, q, (q + p) * (5 * q - 3 * p)


def _mul(u: tuple, v: tuple, big_d: int) -> tuple:
    """Product of two integer pairs x + y*sqrt(D) of Z[sqrt(D)]."""
    return u[0] * v[0] + u[1] * v[1] * big_d, u[0] * v[1] + u[1] * v[0]


def _power(x: int, y: int, n: int, big_d: int) -> tuple:
    """(x + y*sqrt(D))^n as an integer pair, by repeated squaring."""
    rx, ry = 1, 0
    while n:
        if n & 1:
            rx, ry = _mul((rx, ry), (x, y), big_d)
        x, y = x * x + y * y * big_d, 2 * x * y
        n >>= 1
    return rx, ry


def roots(point: SubstitutionPoint) -> RootTriple:
    t, d = point.t, point.d
    w2 = QuadExt(Fraction(1 + t, 2), Fraction(-1, 2), d)
    w3 = QuadExt(Fraction(1 + t, 2), Fraction(1, 2), d)
    den = 2 * (t * t - 1)
    v2 = QuadExt(Fraction(1 + t) / den, Fraction(1) / den, d)
    v3 = QuadExt(Fraction(1 + t) / den, Fraction(-1) / den, d)
    return RootTriple(
        w1=1 - t,
        w2=w2,
        w3=w3,
        v1=1 / (1 - t),
        v2=v2,
        v3=v3,
    )


def solve_coefficients(family: Family, point: SubstitutionPoint) -> BinetCoefficients:
    """Solve the 3x3 system sum_i A_i w_i^n = g_n (n = 0, 1, 2) exactly.

    The right-hand side g_n = p_n / x^(n - delta) is the family's
    z-normalized initial values, so no negative powers of x ever appear.
    Row n is scaled by (2q)^n, which turns the Vandermonde entries into the
    integer pairs r_i^n, r_i = 2q*w_i, of Z[sqrt(D)] and the targets into
    G_n = g_n (2q)^n, leaving the solution unchanged.  Each weight is then
    its own row of the inverse Vandermonde matrix, for (i, j, k) cyclic:

        A_i = (G_2 - (r_j + r_k) G_1 + r_j r_k G_0) / ((r_i - r_j)(r_i - r_k)),

    rationalized once by the conjugate of its denominator.  The norm of that
    denominator is a product of -4(q+3p)(q-p) and, for w2 and w3, -4D, all
    nonzero away from the excluded t.  No weight is taken as the conjugate
    of another, so the Binet structure of the result is a real check.
    """
    p, q, big_d = _ring(point)
    g0, g1, g2 = (s[0] * (2 * q) ** n if s else 0 for n, s in enumerate(family.seeds))
    r1, r2, r3 = (2 * (q - p), 0), (q + p, -1), (q + p, 1)
    weights = []
    for ri, rj, rk in ((r1, r2, r3), (r2, r3, r1), (r3, r1, r2)):
        px, py = _mul(rj, rk, big_d)
        num = (g2 - (rj[0] + rk[0]) * g1 + px * g0, py * g0 - (rj[1] + rk[1]) * g1)
        dx, dy = _mul((ri[0] - rj[0], ri[1] - rj[1]), (ri[0] - rk[0], ri[1] - rk[1]), big_d)
        x, y = _mul(num, (dx, -dy), big_d)
        norm = dx * dx - big_d * dy * dy
        # x + y*sqrt(D) with sqrt(D) = q*W
        weights.append(QuadExt(Fraction(x, norm), Fraction(y * q, norm), point.d))
    return BinetCoefficients(*weights)


def closed_form_coefficients(family: Family, point: SubstitutionPoint) -> BinetCoefficients:
    """Binet weights from their closed-form expressions in t.

    For the r family these are used verbatim:

        A = -1/(1+3t),  B, C = 1/(2(1+3t)) -+ (3/2) W / ((5-3t)(1+3t)).

    The s family needs two corrections, both established by the linear
    solve and checked by the verification suite: the second term of B and
    C carries a factor W (without it B - C would be rational and s_n could
    not be), and A = 2t/((1+3t)(1-t)) -- the opposite sign is inconsistent
    with A + B + C = 0, which s_0 = 0 forces.  For sigma the weights are
    simply (1, 1, 1).
    """
    t, d = point.t, point.d
    if family.name == "r":
        a = QuadExt(Fraction(-1) / (1 + 3 * t), 0, d)
        b = QuadExt(
            Fraction(1) / (2 * (1 + 3 * t)),
            Fraction(-3, 2) / ((5 - 3 * t) * (1 + 3 * t)),
            d,
        )
    elif family.name == "s":
        a = QuadExt(2 * t / ((1 + 3 * t) * (1 - t)), 0, d)
        b = QuadExt(
            t / ((1 + 3 * t) * (t - 1)),
            (3 * t * t - 3 * t - 2) / ((t * t - 1) * (3 * t + 1) * (3 * t - 5)),
            d,
        )
    else:
        one = QuadExt(1, 0, d)
        return BinetCoefficients(one, one, one)
    return BinetCoefficients(a, b, b.conjugate())


def _cleared(values, q: int) -> tuple:
    """Rationals and QuadExt values a + b*W over one common denominator m:
    (m, [x, y, ...]) with each value (x + y*sqrt(D))/m, sqrt(D) = qW."""
    parts = [f for v in values for f in ((v.a, v.b / q) if isinstance(v, QuadExt) else (v, 0))]
    m = lcm(*(f.denominator for f in parts))
    return m, [f.numerator * (m // f.denominator) for f in parts]


def binet_numerators(point: SubstitutionPoint, a, b, c, start: int = 0) -> Iterator[tuple]:
    """Yield integers (r, w, m) for n = start, start+1, ... with

        a*w1^n + b*w2^n + c*w3^n = (r + w*W) / m,

    where t = p/q, D = (q+p)(5q-3p) and m = den*(2q)^n, den being the
    common denominator of the weights' coefficients.  The scaled powers
    (2q*w_i)^n, squared up to n = start, are advanced each on its own in
    Z[sqrt(D)], never one as the conjugate of another, so w = 0 is a real
    check; the sqrt(D)-part is reported in W through sqrt(D) = qW.
    """
    p, q, big_d = _ring(point)
    den, (a0, a1, b0, b1, c0, c1) = _cleared((a, b, c), q)
    s, w1 = q + p, 2 * (q - p)
    x1, m = w1**start, den * (2 * q) ** start
    x2, y2 = _power(s, -1, start, big_d)
    x3, y3 = _power(s, 1, start, big_d)
    while True:
        yield (
            a0 * x1 + b0 * x2 + b1 * y2 * big_d + c0 * x3 + c1 * y3 * big_d,
            (a1 * x1 + b0 * y2 + b1 * x2 + c0 * y3 + c1 * x3) * q,
            m,
        )
        x1 *= w1
        x2, y2 = x2 * s - y2 * big_d, y2 * s - x2
        x3, y3 = x3 * s + y3 * big_d, y3 * s + x3
        m *= 2 * q


def binet_eval(family: Family, n: int, point: SubstitutionPoint) -> Fraction:
    """Evaluate the Binet combination A*w1^n + B*w2^n + C*w3^n exactly.

    The solved weights must have the Binet structure, A rational and C the
    conjugate of B, and the W-part must cancel to exactly zero
    (IdentityViolationError if either fails); the rational part equals
    the polynomial's z-normalized value, h_n/q^n from pell.values_at.  It is
    the first term of binet_numerators started at n.
    """
    if n < 0:
        raise ValueError(f"index must be nonnegative, got {n}")
    co = solve_coefficients(family, point)
    if not co.has_binet_structure():
        raise IdentityViolationError(
            f"solved weights are not A rational, C = conj(B) (family {family.name}, t={point.t})"
        )
    r, w, m = next(binet_numerators(point, *co, n))
    if w:
        raise IdentityViolationError(
            f"W-part {Fraction(w, m)} did not cancel "
            f"(family {family.name}, n={n}, t={point.t})"
        )
    return Fraction(r, m)


def radical_cancellation_numerators(point: SubstitutionPoint) -> Iterator[tuple]:
    """Yield integers (r, w, m) for n = 0, 1, 2, ... in one pass, with
    radical_cancellation(n, point) == (r/m, w/m).

    One binet_numerators run with the weights 5-3t -+ 3W drives the whole
    sweep: its n-th term is the combination over 2^n, and its denominator
    den*(2q)^n divided by 2^n leaves m = den*q^n, with den dividing q.
    """
    t, d = point.t, point.d
    weights = (0, QuadExt(5 - 3 * t, -3, d), QuadExt(5 - 3 * t, 3, d))
    for n, (r, w, m) in enumerate(binet_numerators(point, *weights)):
        yield r, w, m >> n


def radical_cancellation(n: int, point: SubstitutionPoint) -> tuple:
    """The conjugate-weighted power sum whose square roots must cancel.

    Computes (5-3t-3W)(1+t-W)^n + (5-3t+3W)(1+t+W)^n in the extension and
    returns (scalar, wpart).  The two addends are full conjugates, so
    wpart is exactly 0 and the scalar is a plain rational in t; the
    independent binomial route to the same scalar is
    radical_cancellation_binomial.  Both addends are 2^n times a Binet
    term, (5-3t -+ 3W) w_{2,3}^n, so both come out over q^(n+1).  A sweep
    over n reads radical_cancellation_numerators once instead.
    """
    if n < 0:
        raise ValueError(f"index must be nonnegative, got {n}")
    r, w, m = next(islice(radical_cancellation_numerators(point), n, None))
    return Fraction(r, m), Fraction(w, m)


def radical_binomial_coefficients(n: int) -> list:
    """The t-independent row [c_0, ..., c_{n//2}] of
    radical_cancellation_binomial's sum, c_k = 2*C(n,2k) + 6*C(n,2k+1)."""
    if n < 0:
        raise ValueError(f"index must be nonnegative, got {n}")
    return [2 * comb(n, 2 * k) + 6 * comb(n, 2 * k + 1) for k in range(n // 2 + 1)]


def radical_binomial_numerator(n: int, row: list, p: int, q: int) -> int:
    """radical_cancellation_binomial(n, p/q) times q^(n+1), an integer,
    from row = radical_binomial_coefficients(n)."""
    num, _ = horner_terms(row[::-1], q + p, 5 * q - 3 * p)
    return num * (q + p) ** (n - n // 2)


def radical_cancellation_binomial(n: int, t) -> Fraction:
    """Binomial-expansion route to the radical_cancellation scalar.

    Expanding (1+t +- W)^n and replacing W^2 = (1+t)(5-3t) collapses the
    combination to one sum over k <= n/2,

        (5-3t) * sum_k [2*C(n,2k) + 6*C(n,2k+1)] (5-3t)^k (1+t)^(n-k),

    the even and odd binomial terms sharing their power.  The bracket is
    the row radical_binomial_coefficients(n), free of t, so a sweep over t
    (verify's xi suite) builds each row once.  At t = p/q the sum runs by
    Horner on the integers 5q-3p and q+p, over q^(n+1)
    (radical_binomial_numerator).
    """
    t = Fraction(t)
    p, q = t.numerator, t.denominator
    row = radical_binomial_coefficients(n)
    return Fraction(radical_binomial_numerator(n, row, p, q), q ** (n + 1))


def power_sums(max_n: int) -> tuple:
    """Power sums of the conjugate roots as integer polynomials in t.

    p_n = w2^n + w3^n and q_n = (w2^n - w3^n)/(w2 - w3) both satisfy
    f_n = (1+t) f_{n-1} - (t^2-1) f_{n-2}, seeded with p_0 = 2, p_1 = 1+t
    and q_0 = 0, q_1 = 1 (the Newton / Girard-Waring recurrence driven by
    e_1 = w2 + w3 = 1+t and e_2 = w2*w3 = t^2 - 1).
    """
    if max_n < 0:
        raise ValueError(f"max_n must be nonnegative, got {max_n}")
    e1 = DensePoly((1, 1))
    e2 = DensePoly((-1, 0, 1))
    p = [DensePoly((2,)), e1]
    q = [DensePoly(), DensePoly((1,))]
    for _ in range(2, max_n + 1):
        p.append(e1 * p[-1] - e2 * p[-2])
        q.append(e1 * q[-1] - e2 * q[-2])
    return p[: max_n + 1], q[: max_n + 1]


def char_root_residuals(point: SubstitutionPoint, rt: RootTriple) -> dict:
    """Residuals of each root in its cubic; all must be exactly zero.

    The v roots go into z*v^3 - 2v + 1, the w roots into w^3 - 2w^2 + z
    (the reciprocal polynomial).  Together with x^3 = -1/z this says each
    x*w_i is a root of the characteristic equation X^3 - 2x*X^2 - 1.

    Each root of rt, normally roots(point), is cleared to an integer pair
    (x + y*sqrt(D))/m, and the cubic, times the denominator of z, is
    evaluated on integers by a Horner scheme homogeneous in m; the residuals
    become QuadExt values only on return, keyed v1, v2, v3, w1, w2, w3.
    """
    p, q, big_d = _ring(point)
    zn, zd = point.z.numerator, point.z.denominator
    v_cubic = (zn, 0, -2 * zd, zd)  # zd * (z*v^3 - 2v + 1)
    w_cubic = (zd, -2 * zd, 0, zn)  # zd * (w^3 - 2w^2 + z)
    out = {}
    for name, root, cubic in zip(rt._fields, rt, (v_cubic,) * 3 + (w_cubic,) * 3):
        m, (x, y) = _cleared((root,), q)
        rx, ry, scale = cubic[0], 0, 1
        for c in cubic[1:]:
            scale *= m
            rx, ry = rx * x + ry * y * big_d + c * scale, rx * y + ry * x
        # (rx + ry*sqrt(D)) / (zd * m^3), with sqrt(D) = qW
        out[name] = QuadExt(Fraction(rx, zd * scale), Fraction(ry * q, zd * scale), point.d)
    return out


def sample_points(count: int, seed: int) -> list:
    """Deterministic sample of substitution points.

    Draws distinct small-denominator rationals t in (-1, 1), skipping the
    excluded values, so repeated sweeps with one seed are reproducible and
    coefficient growth stays bounded.  More than 90 raises ValueError.
    """
    if count > len(SAMPLE_T):
        raise ValueError(f"t-samples must be at most {len(SAMPLE_T)}, got {count}")
    rng = random.Random(seed)
    points = {}
    while len(points) < count:
        den = rng.randint(2, 12)
        t = Fraction(rng.randint(-(den - 1), den - 1), den)
        if t in SAMPLE_T and t not in points:
            points[t] = substitution_chain(t)
    return list(points.values())
