from fractions import Fraction

import pytest

from pell3 import binet, lagrange, verify
from pell3.exactnum import QuadExt


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

    @pytest.mark.parametrize("name", verify.SUITES)
    def test_runner_replaced_on_the_module_is_called(self, monkeypatch, name):
        sentinel = verify.SuiteReport(name, 0, 0)
        monkeypatch.setattr(verify, "run_" + name.replace("-", "_"), lambda *args, **kw: sentinel)
        assert verify.run_suite(name) == [sentinel]

    @pytest.mark.parametrize(
        "name, depth",
        [("closed-form", 300), ("binet", 80), ("xi", 50), ("lagrange", 100), ("roots", 40)],
    )
    def test_default_depth(self, name, depth):
        [report] = verify.run_suite(name)
        assert report.max_n == depth
        assert report.ok

    def test_unknown_suite_raises_value_error(self):
        with pytest.raises(ValueError, match="unknown suite"):
            verify.run_suite("nope")


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


class TestRootsSuite:
    def test_builds_each_points_roots_once(self, monkeypatch):
        """The residuals and the root identities read one RootTriple per t."""
        calls = []

        def spy(point, _roots=binet.roots):
            calls.append(point.t)
            return _roots(point)

        monkeypatch.setattr(binet, "roots", spy)
        assert verify.run_roots(2, 3, 42).ok
        assert len(calls) == 3 == len(set(calls))


class TestLagrangeSuite:
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
