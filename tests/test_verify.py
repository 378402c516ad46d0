from fractions import Fraction

import pytest

from pell3 import binet, verify
from pell3.binet import BinetCoefficients
from pell3.exactnum import QuadExt


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
            return BinetCoefficients(co.family, co.a, b, co.c)

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
            return BinetCoefficients(co.family, a, co.b, co.c)

        monkeypatch.setattr(binet, "solve_coefficients", perturbed)
        found = checks(verify.run_binet(max_n=6, t_samples=3, seed=42))
        for family in ("r", "s", "sigma"):
            assert f"{family}: W-part nonzero" in found

    def test_perturbed_binomial_term(self, monkeypatch):
        comb = binet.comb
        monkeypatch.setattr(binet, "comb", lambda n, k: comb(n, k) + (k == 1))
        found = checks(verify.run_xi(max_n=6, t_samples=3, seed=42))
        assert found == {"scalar differs from binomial sum"}
