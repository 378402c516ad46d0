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
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .exactnum import IdentityViolationError, QuadExt
from .pell import Family
from .poly import DensePoly


class DegenerateParameterError(ValueError):
    """Parameter t where the substitution chain degenerates."""


#: t values where a factor of the chain vanishes: double roots, a vanishing
#: discriminant, or poles of the Binet weights.
_EXCLUDED_T = {
    Fraction(1): "1-t",
    Fraction(-1): "1+t",
    Fraction(-1, 3): "1+3t",
    Fraction(5, 3): "5-3t",
}
#: the 90 values sample_points can draw: t in (-1, 1), denominator 2..12, not excluded
_SAMPLE_T = {Fraction(p, d) for d in range(2, 13) for p in range(1 - d, d)} - _EXCLUDED_T.keys()


@dataclass(frozen=True)
class SubstitutionPoint:
    """The variable chain realized at one rational t:
    u = t+1, z = (1-t)^2 (1+t), and discriminant d = (1+t)(5-3t)."""

    t: Fraction
    u: Fraction
    z: Fraction
    d: Fraction


@dataclass(frozen=True)
class RootTriple:
    """Roots w of w^3 - 2w^2 + z = 0 and their reciprocals v (roots of
    z*v^3 - 2v + 1 = 0).  w1, v1 are rational; the other two are a
    conjugate pair, w2 carrying -W and w3 carrying +W."""

    point: SubstitutionPoint
    w1: Fraction
    w2: QuadExt
    w3: QuadExt
    v1: Fraction
    v2: QuadExt
    v3: QuadExt


@dataclass(frozen=True)
class BinetCoefficients:
    """Weights of w1^n, w2^n, w3^n in a family's Binet combination.
    b and c are conjugates; a is rational."""

    family: str
    a: QuadExt
    b: QuadExt
    c: QuadExt


def substitution_chain(t) -> SubstitutionPoint:
    """Build the substitution point at rational t.

    Rejects t in {1, -1, -1/3, 5/3}: there the roots collide or a Binet
    weight has a pole, and the error names the vanishing factor.
    """
    t = Fraction(t)
    factor = _EXCLUDED_T.get(t)
    if factor is not None:
        raise DegenerateParameterError(f"t={t} makes the factor {factor} vanish")
    return SubstitutionPoint(
        t=t,
        u=t + 1,
        z=(1 - t) ** 2 * (1 + t),
        d=(1 + t) * (5 - 3 * t),
    )


def roots(point: SubstitutionPoint) -> RootTriple:
    t, d = point.t, point.d
    w2 = QuadExt(Fraction(1 + t, 2), Fraction(-1, 2), d)
    w3 = QuadExt(Fraction(1 + t, 2), Fraction(1, 2), d)
    den = 2 * (t * t - 1)
    v2 = QuadExt(Fraction(1 + t) / den, Fraction(1) / den, d)
    v3 = QuadExt(Fraction(1 + t) / den, Fraction(-1) / den, d)
    return RootTriple(
        point=point,
        w1=1 - t,
        w2=w2,
        w3=w3,
        v1=1 / (1 - t),
        v2=v2,
        v3=v3,
    )


def _det3(m) -> QuadExt:
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def solve_coefficients(family: Family, point: SubstitutionPoint) -> BinetCoefficients:
    """Solve the 3x3 system sum_i A_i w_i^n = g_n (n = 0, 1, 2) exactly.

    The right-hand side g is the family's z-normalized initial values, so
    no negative powers of x ever appear.  The Vandermonde determinant is a
    product of root differences, all invertible away from the excluded t.
    """
    rt = roots(point)
    d = point.d
    one = QuadExt(1, 0, d)
    w1 = QuadExt(rt.w1, 0, d)
    cols = (w1, rt.w2, rt.w3)
    m = [
        [one, one, one],
        list(cols),
        [w * w for w in cols],
    ]
    g = [QuadExt(v, 0, d) for v in family.binet_targets]
    det = _det3(m)
    out = []
    for j in range(3):
        mj = [[g[i] if k == j else m[i][k] for k in range(3)] for i in range(3)]
        out.append(_det3(mj) / det)
    return BinetCoefficients(family.name, *out)


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
        return BinetCoefficients(family.name, one, one, one)
    return BinetCoefficients(family.name, a, b, b.conjugate())


def binet_eval(family: Family, n: int, point: SubstitutionPoint) -> Fraction:
    """Evaluate the Binet combination A*w1^n + B*w2^n + C*w3^n exactly.

    The W-part must cancel to exactly zero (IdentityViolationError if it
    does not); the rational part equals the polynomial's z-normalized
    value, recurrence_gen(family, n).eval_in_z(point.z).
    """
    if n < 0:
        raise ValueError(f"index must be nonnegative, got {n}")
    co = solve_coefficients(family, point)
    rt = roots(point)
    total = co.a * rt.w1**n + co.b * rt.w2**n + co.c * rt.w3**n
    if total.b != 0:
        raise IdentityViolationError(
            f"W-part {total.b} did not cancel (family {family.name}, n={n}, t={point.t})"
        )
    return total.a


def radical_cancellation(n: int, point: SubstitutionPoint) -> tuple:
    """The conjugate-weighted power sum whose square roots must cancel.

    Computes (5-3t-3W)(1+t-W)^n + (5-3t+3W)(1+t+W)^n in the extension and
    returns (scalar, wpart).  The two addends are full conjugates, so
    wpart is exactly 0 and the scalar is a plain rational in t; the
    independent binomial route to the same scalar is
    radical_cancellation_binomial.
    """
    if n < 0:
        raise ValueError(f"index must be nonnegative, got {n}")
    t, d = point.t, point.d
    left = QuadExt(5 - 3 * t, -3, d) * QuadExt(1 + t, -1, d) ** n
    right = QuadExt(5 - 3 * t, 3, d) * QuadExt(1 + t, 1, d) ** n
    total = left + right
    return total.a, total.b


def radical_cancellation_binomial(n: int, t) -> Fraction:
    """Binomial-expansion route to the radical_cancellation scalar.

    Expanding (1+t +- W)^n and replacing W^2 = (1+t)(5-3t) collapses the
    combination to

        (5-3t) * [ 2*sum_k C(n,2k) (5-3t)^k (1+t)^(n-k)
                 + 6*sum_k C(n,2k+1) (5-3t)^k (1+t)^(n-k) ].
    """
    t = Fraction(t)
    p5, p1 = 5 - 3 * t, 1 + t
    even = sum(comb(n, 2 * k) * p5**k * p1 ** (n - k) for k in range(n // 2 + 1))
    odd = sum(comb(n, 2 * k + 1) * p5**k * p1 ** (n - k) for k in range((n + 1) // 2))
    return p5 * (2 * even + 6 * odd)


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


def char_root_residuals(point: SubstitutionPoint) -> dict:
    """Residuals of each root in its cubic; all must be exactly zero.

    The v roots go into z*v^3 - 2v + 1, the w roots into w^3 - 2w^2 + z
    (the reciprocal polynomial).  Together with x^3 = -1/z this says each
    x*w_i is a root of the characteristic equation X^3 - 2x*X^2 - 1.
    """
    rt = roots(point)
    z, d = point.z, point.d
    out = {}
    for name, v in (("v1", QuadExt(rt.v1, 0, d)), ("v2", rt.v2), ("v3", rt.v3)):
        out[name] = z * v**3 - 2 * v + 1
    for name, w in (("w1", QuadExt(rt.w1, 0, d)), ("w2", rt.w2), ("w3", rt.w3)):
        out[name] = w**3 - 2 * w * w + z
    return out


def sample_points(count: int, seed: int) -> list:
    """Deterministic sample of substitution points.

    Draws distinct small-denominator rationals t in (-1, 1), skipping the
    excluded values, so repeated sweeps with one seed are reproducible and
    coefficient growth stays bounded.  More than 90 raises ValueError.
    """
    if count > len(_SAMPLE_T):
        raise ValueError(f"t-samples must be at most {len(_SAMPLE_T)}, got {count}")
    rng = random.Random(seed)
    points = {}
    while len(points) < count:
        den = rng.randint(2, 12)
        t = Fraction(rng.randint(-(den - 1), den - 1), den)
        if t in _SAMPLE_T and t not in points:
            points[t] = substitution_chain(t)
    return list(points.values())
