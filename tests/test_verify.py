from dataclasses import replace
from fractions import Fraction
from math import comb

import pytest

from pell3 import binet, lagrange, verify
from pell3.binet import BinetCoefficients
from pell3.exactnum import IdentityViolationError, QuadExt
from pell3.pell import FAMILIES, coefficient_triangle
from pell3.poly import CompactPell, horner_terms


def checks(report) -> set:
    return {f["check"] for f in report.failures}


class TestRunSuite:
    @pytest.mark.parametrize(
        "name, direct",
        [
            ("closed-form", lambda: verify.run_closed_form(12)),
            ("binet", lambda: verify.run_binet(12, 2, 7)),
            ("xi", lambda: verify.run_xi(12, 2, 7)),
            ("lagrange", lambda: verify.run_lagrange(order=12)),
            ("roots", lambda: verify.run_roots(12, 2, 7)),
        ],
    )
    def test_dispatches_by_name(self, name, direct):
        [report] = verify.run_suite(name, 12, 2, 7)
        assert report.to_dict() == direct().to_dict()

    def test_runner_replaced_on_the_module_is_called(self, monkeypatch):
        sentinel = verify.SuiteReport("xi", 0, 0)
        monkeypatch.setattr(verify, "run_xi", lambda *args: sentinel)
        assert verify.run_suite("xi") == [sentinel]

    def test_unknown_suite_raises_value_error(self):
        with pytest.raises(ValueError, match="unknown suite"):
            verify.run_suite("nope")


class TestMutationsAreCaught:
    """The integer kernels must fail loudly on a wrong input, not pass vacuously."""

    def test_perturbed_b_weight(self, monkeypatch):
        solve = binet.solve_coefficients

        def perturbed(family, point):
            co = solve(family, point)
            b = co.b + QuadExt(0, Fraction(1, 7), point.d)
            return BinetCoefficients(co.a, b, co.c)

        monkeypatch.setattr(binet, "solve_coefficients", perturbed)
        found = checks(verify.run_binet(max_n=6, t_samples=3, seed=42))
        for family in ("r", "s", "sigma"):
            assert f"{family}: W-part nonzero" in found
            assert f"{family}: Binet value differs from recurrence" in found

    def test_radical_in_a_weight(self, monkeypatch):
        # A is rational; a W-part on it must reach the sweep's W-part check
        solve = binet.solve_coefficients

        def perturbed(family, point):
            co = solve(family, point)
            a = co.a + QuadExt(0, Fraction(1, 7), point.d)
            return BinetCoefficients(a, co.b, co.c)

        monkeypatch.setattr(binet, "solve_coefficients", perturbed)
        found = checks(verify.run_binet(max_n=6, t_samples=3, seed=42))
        for family in ("r", "s", "sigma"):
            assert f"{family}: W-part nonzero" in found

    @pytest.mark.parametrize(
        "da, db",
        [(1, -1), (1, 0), (0, 1)],
        ids=["W-moved-from-B-to-A", "W-added-to-A", "W-added-to-B"],
    )
    def test_broken_weight_structure(self, monkeypatch, da, db):
        # the first is the move in test_binet's test_broken_weight_structure_raises;
        # the others break only "A rational" or only "C = conj(B)"
        solve = binet.solve_coefficients

        def shifted(family, point):
            co = solve(family, point)
            w = QuadExt(0, 1, point.d)
            return BinetCoefficients(co.a + da * w, co.b + db * w, co.c)

        monkeypatch.setattr(binet, "solve_coefficients", shifted)
        found = checks(verify.run_binet(max_n=4, t_samples=2, seed=42))
        for family in ("r", "s", "sigma"):
            assert f"{family}: weight structure broken" in found

    def test_perturbed_printed_weight_fails_only_the_weight_comparison(self, monkeypatch):
        # B and C stay conjugates and the solved weights stay right, so only
        # the comparison with the printed closed form can see the shift
        printed = binet.closed_form_coefficients

        def perturbed(family, point):
            co = printed(family, point)
            if family.name != "s":
                return co
            b = co.b + QuadExt(0, Fraction(1, 7), point.d)
            return BinetCoefficients(co.a, b, b.conjugate())

        monkeypatch.setattr(binet, "closed_form_coefficients", perturbed)
        report = verify.run_binet(max_n=6, t_samples=3, seed=42)
        assert [(f["t"], f["n"], f["check"]) for f in report.failures] == [
            (str(point.t), None, f"s: solved weight {label} differs from closed form")
            for point in binet.sample_points(3, 42)
            for label in "BC"
        ]

    def test_perturbed_binomial_term(self, monkeypatch):
        comb = binet.comb
        monkeypatch.setattr(binet, "comb", lambda n, k: comb(n, k) + (k == 1))
        found = checks(verify.run_xi(max_n=6, t_samples=3, seed=42))
        assert found == {"scalar differs from binomial sum"}

    def test_odd_binomial_weight_six_to_five(self, monkeypatch):
        # the paper's 6*C(n,2k+1) misread as 5: wrong from n = 1 on, at every t
        monkeypatch.setattr(
            binet,
            "radical_binomial_coefficients",
            lambda n: [2 * comb(n, 2 * k) + 5 * comb(n, 2 * k + 1) for k in range(n // 2 + 1)],
        )
        report = verify.run_xi(6, 3, 42)
        assert [(f["t"], f["n"], f["check"]) for f in report.failures] == [
            (str(point.t), n, "scalar differs from binomial sum")
            for point in binet.sample_points(3, 42)
            for n in range(1, 7)
        ]

    @pytest.mark.parametrize(
        "root, failed",
        [
            (
                "v2",
                [
                    "root v2 residual nonzero",
                    "v2 + v3 != 1/(t-1)",
                    "v2 * v3 != 1/(t^2-1)",
                    "v2 * w2 != 1",
                ],
            ),
            ("w1", ["root w1 residual nonzero", "w1*w2*w3 != -z", "v1 * w1 != 1"]),
            (
                "w2",
                [
                    "root w2 residual nonzero",
                    "w2 + w3 != 1+t",
                    "w2 * w3 != t^2-1",
                    "w1*w2*w3 != -z",
                    "v2 * w2 != 1",
                ],
            ),
            (
                "w3",
                [
                    "root w3 residual nonzero",
                    "w2 + w3 != 1+t",
                    "w2 * w3 != t^2-1",
                    "w1*w2*w3 != -z",
                    "v3 * w3 != 1",
                ],
            ),
            (
                "v3",
                [
                    "root v3 residual nonzero",
                    "v2 + v3 != 1/(t-1)",
                    "v2 * v3 != 1/(t^2-1)",
                    "v3 * w3 != 1",
                ],
            ),
        ],
    )
    def test_perturbed_root_fails_its_identities_in_order(self, monkeypatch, root, failed):
        roots = binet.roots

        def perturbed(point):
            rt = roots(point)
            return replace(rt, **{root: getattr(rt, root) + Fraction(1, 7)})

        monkeypatch.setattr(binet, "roots", perturbed)
        report = verify.run_roots(max_n=4, t_samples=2, seed=42)
        assert [(f["t"], f["check"]) for f in report.failures] == [
            (t, check) for t in ("-2/3", "1/2") for check in failed
        ]


#: t on and off the sample grid, beyond 5/3 (D < 0) included
TS = [Fraction(0), Fraction(1, 2), Fraction(-5, 7), Fraction(11, 12), Fraction(7, 3)]


def test_suite_all_passes_max_n_to_every_suite():
    reports = verify.run_suite("all", 12, 2, 7)
    expected = [verify.run_suite(s, 12, 2, 7)[0] for s in verify.SUITES]
    assert [r.to_dict() for r in reports] == [r.to_dict() for r in expected]


class TestOnePassXi:
    @pytest.mark.parametrize("t", TS)
    def test_matches_per_n_entry_point_and_extension_powers(self, t):
        point = binet.substitution_chain(t)
        d = point.d
        low, high = QuadExt(1 + t, -1, d), QuadExt(1 + t, 1, d)
        weight_low, weight_high = QuadExt(5 - 3 * t, -3, d), QuadExt(5 - 3 * t, 3, d)
        terms = binet.radical_cancellation_numerators(point)
        for n, (r, w, m) in zip(range(51), terms):
            pair = (Fraction(r, m), Fraction(w, m))
            assert pair == binet.radical_cancellation(n, point)
            # reference: the same sum powered in the extension
            ref = weight_low * low**n + weight_high * high**n
            assert pair == (ref.a, ref.b)

    def test_w_part_mutation_is_caught(self, monkeypatch):
        numerators = binet.binet_numerators

        def perturbed(point, a, b, c):
            for r, w, m in numerators(point, a, b, c):
                yield r, w + 1, m

        monkeypatch.setattr(binet, "binet_numerators", perturbed)
        found = checks(verify.run_xi(6, 3, 42))
        assert "W-part nonzero" in found


class TestBinetSweepPolynomials:
    @pytest.mark.parametrize("family", list(FAMILIES.values()), ids=lambda f: f.name)
    def test_horner_pair_agrees_with_eval_in_z(self, family):
        rows = coefficient_triangle(family, 80)
        for t in TS:
            z = binet.substitution_chain(t).z
            for n, row in enumerate(rows):
                poly = CompactPell(family.name, n, row)
                num, den = horner_terms(poly.coeffs, (-z).numerator, (-z).denominator)
                value = poly.eval_in_z(z)
                assert Fraction(num, den) == value
                assert value == sum(c * (-z) ** l for l, c in enumerate(row))

    def test_perturbed_recurrence_row_is_caught(self, monkeypatch):
        values = verify.values_at

        def perturbed(family, t):
            for n, h in enumerate(values(family, t)):
                yield h + (n == 5)

        monkeypatch.setattr(verify, "values_at", perturbed)
        report = verify.run_binet(max_n=6, t_samples=3, seed=42)
        for family in ("r", "s", "sigma"):
            bad = [
                f["n"] for f in report.failures
                if f["check"] == f"{family}: Binet value differs from recurrence"
            ]
            assert bad == [5, 5, 5]
        assert not any("W-part" in check for check in checks(report))


class TestClosedFormSweep:
    """Each closed-form row against the same y-row of one recurrence pass."""

    @staticmethod
    def failed(report) -> list:
        return [(f["check"], f["n"]) for f in report.failures]

    def test_perturbed_recurrence_row_fails_once_per_family(self, monkeypatch):
        rows = verify._rows

        def perturbed(family):
            for n, row in enumerate(rows(family)):
                yield [row[0] + 1, *row[1:]] if n == 37 else row

        monkeypatch.setattr(verify, "_rows", perturbed)
        assert self.failed(verify.run_closed_form(60)) == [
            (f"{name}: closed form differs from recurrence", 37) for name in FAMILIES
        ]

    def test_non_integral_coefficient_fails_at_its_n_only(self, monkeypatch):
        ratio_row = verify._ratio_row

        def raising(family, n, first, step):
            if n == 37:
                raise IdentityViolationError("closed-form coefficient is not an integer")
            return ratio_row(family, n, first, step)

        monkeypatch.setattr(verify, "_ratio_row", raising)
        assert self.failed(verify.run_closed_form(60)) == [
            (f"{name}: non-integral closed-form coefficient", 37) for name in FAMILIES
        ]


class TestLagrangeSuite:
    def test_default_depth_is_one_hundred(self):
        report = verify.run_lagrange()
        assert report.max_n == 100
        assert report.to_dict() == verify.run_suite("lagrange")[0].to_dict()
        assert report.ok

    @pytest.mark.parametrize("max_n", [1, 12, 40])
    def test_max_n_bounds_every_loop(self, monkeypatch, max_n):
        seen = {"check_first_term": [], "check_bridge": []}
        for name, calls in seen.items():

            def spy(n, *args, _check=getattr(lagrange, name), _calls=calls):
                _calls.append(n)
                return _check(n, *args)

            monkeypatch.setattr(lagrange, name, spy)
        [report] = verify.run_suite("lagrange", max_n)
        assert report.ok and report.max_n == max_n
        # check_bridge checks its prefix through check_first_term as well
        assert set(seen["check_first_term"]) == set(range(max_n + 1))
        assert seen["check_bridge"] == list(range(1, max_n + 1))

    def test_perturbed_triangle_row_fails_the_bridge_once(self, monkeypatch):
        triangle = verify.coefficient_triangle

        def perturbed(family, max_n):
            rows = triangle(family, max_n)
            rows[37] = (rows[37][0] + 1,) + rows[37][1:]
            return rows

        monkeypatch.setattr(verify, "coefficient_triangle", perturbed)
        report = verify.run_lagrange()
        assert [(f["n"], f["check"].split(":")[0]) for f in report.failures] == [(37, "bridge")]
        assert "differs from r_37 coefficients" in report.failures[0]["check"]

    def test_radius_ratio_off_its_closed_form_is_reported(self, monkeypatch):
        # within 5/100 of 27/32, but above it and the same at every order
        ratio = Fraction(27, 32) + Fraction(1, 1000)
        monkeypatch.setattr(lagrange, "radius_estimate", lambda order: ratio)
        report = verify.run_lagrange(order=12)
        assert [f["n"] for f in report.failures] == [60, 60]
        assert all(f["check"].startswith(f"radius ratio {ratio} ") for f in report.failures)

    @pytest.fixture
    def perturbed_inversion(self, monkeypatch):
        # C(7, 2) = 21 -> 24 keeps C(3n-2, n-1)/n integral at n = 3 (7 -> 8)
        comb = lagrange.comb
        monkeypatch.setattr(lagrange, "comb", lambda a, b: comb(a, b) + 3 * ((a, b) == (7, 2)))

    def test_failures_come_in_check_order(self, perturbed_inversion):
        """Inversion first, then every first-term failure, then every bridge one."""
        report = verify.run_lagrange(order=30)
        assert [(f["n"], f["check"].split(":")[0]) for f in report.failures] == (
            [(30, "inversion")]
            + [(n, "first-term expansion") for n in range(25)]
            + [(n, "bridge") for n in range(10, 31)]
        )

    def test_perturbed_inversion_coefficient_fails_the_first_term_check(self, perturbed_inversion):
        report = verify.run_lagrange(order=30)
        first_term = [f for f in report.failures if f["check"].startswith("first-term")]
        assert [f["n"] for f in first_term] == list(range(25))
        # U's coefficient 3 reaches every n; at n = 3 the first casualty is l = 4
        assert all("series coefficient" in f["check"] for f in first_term)
        assert "series coefficient 3 " in first_term[5]["check"]
