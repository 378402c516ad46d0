from fractions import Fraction
from itertools import islice
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mutants import ROW, apply, assert_killed, moved

from pell3 import binet
from pell3.binet import (
    binet_eval,
    char_root_residuals,
    closed_form_coefficients,
    power_sums,
    radical_binomial_coefficients,
    radical_binomial_numerator,
    radical_cancellation,
    radical_cancellation_binomial,
    roots,
    sample_points,
    solve_coefficients,
    substitution_chain,
)
from pell3.exactnum import QuadExt
from pell3.pell import FAMILIES, R, S, SIGMA, recurrence_gen, values_at
from pell3.poly import DensePoly

SAMPLE_TS = [Fraction(0), Fraction(1, 2), Fraction(1, 3), Fraction(-2, 7), Fraction(4, 5)]
POINTS = [substitution_chain(t) for t in SAMPLE_TS]


class TestSubstitutionChain:
    def test_at_zero(self):
        pt = substitution_chain(0)
        assert (pt.t, pt.z, pt.d) == (0, 1, 5)

    def test_at_one_half(self):
        pt = substitution_chain(Fraction(1, 2))
        assert (pt.z, pt.d) == (Fraction(3, 8), Fraction(21, 4))

    def test_z_also_factors_through_u(self):
        for pt in POINTS:
            u = pt.t + 1
            assert pt.z == u * (u - 2) ** 2

    @pytest.mark.parametrize(
        "t, factor",
        [(1, "1-t"), (-1, "1+t"), (Fraction(-1, 3), "1+3t"), (Fraction(5, 3), "5-3t")],
    )
    def test_exclusions_name_the_factor(self, t, factor):
        with pytest.raises(ValueError) as raised:
            substitution_chain(t)
        assert str(raised.value) == f"t={Fraction(t)} makes the factor {factor} vanish"

    def test_integer_build_matches_the_fraction_formulas(self):
        """z and d, built on p and q, equal (1-t)^2 (1+t) and (1+t)(5-3t)
        computed in Fraction: every sample t, then large and negative ones."""
        others = [Fraction(-123, 457), Fraction(10001, 3), Fraction(-(10**30) - 7, 9), 7, -2]
        assert len(binet.SAMPLE_T) == 90
        for t in [*sorted(binet.SAMPLE_T), *map(Fraction, others)]:
            pt = substitution_chain(t)
            assert (pt.t, pt.z, pt.d) == (t, (1 - t) ** 2 * (1 + t), (1 + t) * (5 - 3 * t))
            assert all(type(part) is Fraction for part in pt)


class TestRoots:
    def test_golden_ratio_conjugates_at_zero(self):
        rt = roots(substitution_chain(0))
        assert rt.w1 == 1
        assert rt.w2 == QuadExt(Fraction(1, 2), Fraction(-1, 2), 5)
        assert rt.w3 == QuadExt(Fraction(1, 2), Fraction(1, 2), 5)

    def test_symmetric_functions(self):
        for pt in POINTS:
            rt = roots(pt)
            assert rt.w2 + rt.w3 == 1 + pt.t
            assert rt.w2 * rt.w3 == pt.t**2 - 1
            assert rt.w1 * rt.w2 * rt.w3 == -pt.z

    def test_reciprocity(self):
        for pt in POINTS:
            rt = roots(pt)
            assert rt.v1 * rt.w1 == 1
            assert rt.v2 * rt.w2 == 1
            assert rt.v3 * rt.w3 == 1
            assert rt.v2 + rt.v3 == Fraction(1) / (pt.t - 1)
            assert rt.v2 * rt.v3 == Fraction(1) / (pt.t**2 - 1)

    def test_char_root_residuals_vanish(self):
        for pt in POINTS:
            residuals = char_root_residuals(pt, roots(pt))
            # the order in which verify's roots suite reports a failed root
            assert list(residuals) == ["v1", "v2", "v3", "w1", "w2", "w3"]
            assert all(res == 0 for res in residuals.values())


class TestCoefficients:
    def test_r_at_zero(self):
        co = solve_coefficients(R, substitution_chain(0))
        assert co.a == -1
        assert co.b == QuadExt(Fraction(1, 2), Fraction(-3, 10), 5)
        assert co.c == QuadExt(Fraction(1, 2), Fraction(3, 10), 5)

    def test_s_at_zero(self):
        co = solve_coefficients(S, substitution_chain(0))
        assert co.a == 0
        assert co.b == QuadExt(0, Fraction(-2, 5), 5)
        assert co.c == QuadExt(0, Fraction(2, 5), 5)

    def test_sigma_is_all_ones(self):
        for pt in POINTS:
            co = solve_coefficients(SIGMA, pt)
            assert co.a == 1 and co.b == 1 and co.c == 1

    def test_structure(self):
        for pt in POINTS:
            for family in FAMILIES.values():
                co = solve_coefficients(family, pt)
                assert co.a.is_rational()
                assert co.b == co.c.conjugate()

    def test_closed_form_matches_solve(self):
        for pt in POINTS:
            for family in FAMILIES.values():
                solved = solve_coefficients(family, pt)
                printed = closed_form_coefficients(family, pt)
                assert (solved.a, solved.b, solved.c) == (printed.a, printed.b, printed.c)

    def test_closed_form_r_values_at_zero(self):
        co = closed_form_coefficients(R, substitution_chain(0))
        assert co.a == -1
        assert co.b == QuadExt(Fraction(1, 2), Fraction(-3, 10), 5)

    def test_closed_form_s_value_at_zero(self):
        co = closed_form_coefficients(S, substitution_chain(0))
        assert co.b == QuadExt(0, Fraction(-2, 5), 5)


class TestBinetEval:
    def test_examples(self):
        assert binet_eval(R, 3, substitution_chain(0)) == 4
        for pt in POINTS:
            assert binet_eval(SIGMA, 0, pt) == 3
            assert binet_eval(R, 0, pt) == 0

    def test_matches_recurrence_evaluation(self):
        for pt in POINTS:
            for family in FAMILIES.values():
                for n in range(31):
                    expected = recurrence_gen(family, n).eval_in_z(pt.z)
                    assert binet_eval(family, n, pt) == expected

    def test_powering_matches_the_sweep(self):
        for pt in (POINTS[1], POINTS[3], substitution_chain(Fraction(7, 3))):
            for family in FAMILIES.values():
                co = solve_coefficients(family, pt)
                terms = binet.binet_numerators(pt, co.a, co.b, co.c)
                for n, (r, w, m) in zip(range(201), terms):
                    assert binet_eval(family, n, pt) == Fraction(r, m), (family.name, n)

    @pytest.mark.parametrize("n", [1000, 3000])
    def test_large_n_matches_the_recurrence_at_the_point(self, n):
        for pt in (POINTS[1], POINTS[3], substitution_chain(Fraction(7, 3))):
            for family in FAMILIES.values():
                h = next(islice(values_at(family, pt.t), n, None))
                assert binet_eval(family, n, pt) == Fraction(h, pt.t.denominator**n)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            binet_eval(R, -1, POINTS[0])

    test_broken_weight_structure_raises = moved("weight-structure-at-n-0")


class TestNumeratorsStart:
    # 7/3 and -3/2 have D = (q+p)(5q-3p) < 0
    @pytest.mark.parametrize("t", ["1/2", "-2/7", "7/3", "-3/2"])
    def test_start_k_is_the_kth_term_from_zero(self, t):
        pt = substitution_chain(t)
        for family in FAMILIES.values():
            co = solve_coefficients(family, pt)
            run = list(islice(binet.binet_numerators(pt, co.a, co.b, co.c), 61))
            for k, term in enumerate(run):
                assert next(binet.binet_numerators(pt, co.a, co.b, co.c, k)) == term, (family, k)


class TestWPartUnits:
    """binet_numerators reports W-parts in units of W; callers take them as is."""

    test_run_roots_reads_each_part = moved(
        "W-part-plus-one-roots",
        "rational-part-plus-one-roots",
        ids=["0-1-power-sum q_n differs", "1-0-power-sum p_n differs"],
    )
    test_binet_eval_reports_w_part_in_w = moved("W-part-plus-one-at-n-3")


class TestRadicalCancellation:
    def test_n_zero(self):
        for pt in POINTS:
            scalar, wpart = radical_cancellation(0, pt)
            assert wpart == 0
            assert scalar == 2 * (5 - 3 * pt.t)

    def test_n_one(self):
        for pt in POINTS:
            scalar, wpart = radical_cancellation(1, pt)
            assert wpart == 0
            assert scalar == 8 * (1 + pt.t) * (5 - 3 * pt.t)

    def test_against_binomial_route(self):
        pt = substitution_chain(Fraction(1, 3))
        for n in (5, 12, 25):
            scalar, wpart = radical_cancellation(n, pt)
            assert wpart == 0
            assert scalar == radical_cancellation_binomial(n, pt.t)

    def test_binomial_rows(self):
        rows = [radical_binomial_coefficients(n) for n in range(3)]
        assert rows == [[2], [8], [14, 2]]

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError, match="index must be nonnegative, got -1"):
            radical_binomial_coefficients(-1)
        with pytest.raises(ValueError, match="index must be nonnegative, got -1"):
            radical_cancellation_binomial(-1, Fraction(1, 3))


def two_sum_binomial_numerator(n, p, q):
    """The even and odd binomial sums of radical_cancellation_binomial,
    kept apart and powered term by term: the oracle for the merged row."""
    p5, p1 = 5 * q - 3 * p, q + p
    even = sum(comb(n, 2 * k) * p5**k * p1 ** (n - k) for k in range(n // 2 + 1))
    odd = sum(comb(n, 2 * k + 1) * p5**k * p1 ** (n - k) for k in range((n + 1) // 2))
    return p5 * (2 * even + 6 * odd)


class TestPowerSums:
    def test_small_polynomials(self):
        p, q = power_sums(2)
        assert p[0] == DensePoly((2,))
        assert p[1] == DensePoly((1, 1))  # 1 + t
        assert p[2] == DensePoly((3, 2, -1))  # 3 + 2t - t^2
        assert q[1] == DensePoly((1,))
        assert q[2] == DensePoly((1, 1))

    def test_against_extension_powers(self):
        p, q = power_sums(20)
        for pt in POINTS:
            rt = roots(pt)
            acc = rt.w3**0
            for n in range(21):
                assert p[n](pt.t) == 2 * acc.a
                assert q[n](pt.t) == 2 * acc.b
                acc = acc * rt.w3

    def test_negative_max_n_rejected(self):
        with pytest.raises(ValueError):
            power_sums(-1)


class TestSamplePoints:
    def test_deterministic(self):
        a = sample_points(10, 42)
        b = sample_points(10, 42)
        assert [p.t for p in a] == [p.t for p in b]

    def test_distinct_in_range_and_valid(self):
        pts = sample_points(25, 42)
        ts = [p.t for p in pts]
        assert len(set(ts)) == 25
        assert all(-1 < t < 1 for t in ts)
        assert Fraction(-1, 3) not in ts

    def test_seed_changes_sample(self):
        assert [p.t for p in sample_points(10, 1)] != [p.t for p in sample_points(10, 2)]


EXCLUDED_T = {Fraction(1), Fraction(-1), Fraction(-1, 3), Fraction(5, 3)}
OFF_GRID_T = st.builds(
    Fraction, st.integers(-3 * 10**4, 3 * 10**4), st.integers(1, 10**4)
).filter(lambda t: t not in EXCLUDED_T)


@settings(deadline=None)
@given(OFF_GRID_T, st.sampled_from(list(FAMILIES.values())), st.integers(0, 120))
def test_integer_kernels_off_the_sample_grid(t, family, n):
    pt = substitution_chain(t)
    assert binet_eval(family, n, pt) == recurrence_gen(family, n).eval_in_z(pt.z)
    scalar, wpart = radical_cancellation(n, pt)
    assert wpart == 0
    assert scalar == radical_cancellation_binomial(n, t)


#: t = -1 and t = 5/3 zero 1+t and 5-3t, the two Horner bases
ZERO_BASE_T = st.sampled_from([Fraction(-1), Fraction(5, 3)])


@settings(deadline=None)
@given(st.one_of(OFF_GRID_T, ZERO_BASE_T), st.integers(0, 120))
@example(Fraction(-1), 120)
@example(Fraction(5, 3), 119)
def test_merged_binomial_row_matches_the_two_sums(t, n):
    p, q = t.numerator, t.denominator
    expected = two_sum_binomial_numerator(n, p, q)
    row = radical_binomial_coefficients(n)
    assert radical_binomial_numerator(n, row, p, q) == expected
    assert radical_cancellation_binomial(n, t) == Fraction(expected, q ** (n + 1))


def _det3(m):
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def z_normalized_seeds(family, point):
    """The Binet targets p_n / x^(n - delta), n <= 2, read off the recurrence."""
    return tuple(recurrence_gen(family, n).eval_in_z(point.z) for n in range(3))


def test_z_normalized_seeds():
    for pt in POINTS:
        assert [z_normalized_seeds(f, pt) for f in (R, S, SIGMA)] == [(0, 1, 2), (0, 2, 2), (3, 2, 4)]


def quadext_cramer(family, point):
    """Reference solve: Cramer's rule on the unscaled system, all in QuadExt."""
    rt = roots(point)
    one = QuadExt(1, 0, point.d)
    cols = (QuadExt(rt.w1, 0, point.d), rt.w2, rt.w3)
    m = [[one, one, one], list(cols), [w * w for w in cols]]
    g = [QuadExt(v, 0, point.d) for v in z_normalized_seeds(family, point)]
    det = _det3(m)
    return tuple(
        _det3([[g[i] if k == j else m[i][k] for k in range(3)] for i in range(3)]) / det
        for j in range(3)
    )


#: the t values sample_points draws from: denominators 2..12 in (-1, 1)
SAMPLE_GRID = {Fraction(p, d) for d in range(2, 13) for p in range(1 - d, d)}


def assert_solve_matches_reference(t):
    pt = substitution_chain(t)
    for family in FAMILIES.values():
        co = solve_coefficients(family, pt)
        assert (co.a, co.b, co.c) == quadext_cramer(family, pt)


@settings(deadline=None)
@given(OFF_GRID_T.filter(lambda t: t not in SAMPLE_GRID))
def test_integer_solve_matches_quadext_cramer(t):
    assert_solve_matches_reference(t)


# D < 0 beyond 5/3, a large denominator, and D = 900 a perfect square
@pytest.mark.parametrize(
    "t", [Fraction(7, 3), Fraction(5, 2), Fraction(2), Fraction(-123, 457), Fraction(5, 13)]
)
def test_integer_solve_at_chosen_t(t):
    assert_solve_matches_reference(t)


def quadext_residuals(point, rt):
    """Reference: both cubics evaluated on the roots rt in QuadExt."""
    z, d = point.z, point.d
    out = {}
    for name, v in (("v1", QuadExt(rt.v1, 0, d)), ("v2", rt.v2), ("v3", rt.v3)):
        out[name] = z * v**3 - 2 * v + 1
    for name, w in (("w1", QuadExt(rt.w1, 0, d)), ("w2", rt.w2), ("w3", rt.w3)):
        out[name] = w**3 - 2 * w * w + z
    return out


def shifted_roots(point, w2_shift, v1_shift=0):
    """roots(point) with w2's W-part moved by w2_shift and v1 by v1_shift."""
    rt = roots(point)
    return rt._replace(w2=rt.w2 + QuadExt(0, w2_shift, point.d), v1=rt.v1 + v1_shift)


@settings(deadline=None)
@given(
    OFF_GRID_T.filter(lambda t: t not in SAMPLE_GRID),
    st.fractions(min_value=-3, max_value=3, max_denominator=50),
)
def test_integer_residuals_match_quadext_reference(t, shift):
    pt = substitution_chain(t)
    residuals = char_root_residuals(pt, roots(pt))
    assert residuals == quadext_residuals(pt, roots(pt))
    assert all(res == 0 for res in residuals.values())
    # off the roots the residuals are nonzero, and must still agree
    shifted = shifted_roots(pt, shift, shift)
    assert char_root_residuals(pt, shifted) == quadext_residuals(pt, shifted)


# D < 0 beyond 5/3, a large denominator, and D = 900 a perfect square
@pytest.mark.parametrize(
    "t", [Fraction(7, 3), Fraction(5, 2), Fraction(2), Fraction(-123, 457), Fraction(5, 13)]
)
def test_integer_residuals_at_chosen_t(t):
    pt = substitution_chain(t)
    residuals = char_root_residuals(pt, roots(pt))
    assert residuals == quadext_residuals(pt, roots(pt))
    assert all(res == 0 for res in residuals.values())


def test_root_off_by_a_seventh_leaves_a_residual(monkeypatch):
    """verify's verdict is the table's row; off its cubic, the root's integer
    residual still equals the QuadExt reference."""
    assert_killed(ROW["root-w2-W-part"])
    apply(monkeypatch, ROW["root-w2-W-part"])
    rt = binet.roots(POINTS[1])
    residuals = char_root_residuals(POINTS[1], rt)
    assert residuals["w2"] != 0
    assert residuals == quadext_residuals(POINTS[1], rt)
