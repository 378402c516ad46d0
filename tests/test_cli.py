import json
import sys
import time
from fractions import Fraction

import pytest

from pell3 import pell
from pell3.cli import FORMATS, main, plot_rows, render_poly
from pell3.poly import CompactPell

R18_PLAIN = "131072x^17+245760x^14+159744x^11+42240x^8+4032x^5+84x^2"


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


class TestEval:
    def test_golden_plain(self, capsys):
        code, out = run(capsys, "eval", "--family", "r", "--n", "18", "--format", "plain")
        assert code == 0
        assert out == R18_PLAIN + "\n"

    def test_sigma_zero(self, capsys):
        code, out = run(capsys, "eval", "--family", "sigma", "--n", "0", "--format", "plain")
        assert code == 0
        assert out == "3\n"

    def test_sigma_alias(self, capsys):
        code, out = run(capsys, "eval", "--family", "σ", "--n", "0", "--format", "plain")
        assert code == 0
        assert out == "3\n"

    def test_negative_n_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--family", "r", "--n", "-1"])
        assert exc.value.code == 2

    def test_unknown_family_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--family", "q", "--n", "3"])
        assert exc.value.code == 2

    def test_json_round_trip_is_byte_identical(self, capsys):
        _, out = run(capsys, "eval", "--family", "r", "--n", "18")
        parsed = CompactPell.from_json_dict(json.loads(out))
        assert json.dumps(parsed.to_json_dict()) + "\n" == out

    def test_csv(self, capsys):
        _, out = run(capsys, "eval", "--family", "r", "--n", "4", "--format", "csv")
        assert out == "exp,coeff\n3,8\n0,1\n"


class TestCoeffsAndTriangle:
    def test_coeffs_json(self, capsys):
        _, out = run(capsys, "coeffs", "--family", "r", "--n", "5")
        assert json.loads(out) == {"family": "r", "n": 5, "coeffs": ["16", "4"]}

    def test_coeffs_plain_zero_poly(self, capsys):
        _, out = run(capsys, "coeffs", "--family", "r", "--n", "0", "--format", "plain")
        assert out == "0\n"

    def test_triangle_csv(self, capsys):
        _, out = run(capsys, "triangle", "--family", "r", "--max-n", "4", "--format", "csv")
        assert out == "n,l,coeff\n1,0,1\n2,0,2\n3,0,4\n4,0,8\n4,1,1\n"

    def test_triangle_json(self, capsys):
        _, out = run(capsys, "triangle", "--family", "sigma", "--max-n", "1")
        assert json.loads(out) == {"family": "sigma", "max_n": 1, "rows": [["3"], ["2"]]}


class TestSeries:
    def test_order_three(self, capsys):
        code, out = run(capsys, "series", "--order", "3")
        assert code == 0
        assert json.loads(out) == ["1/4", "1/16", "7/256"]

    def test_order_one(self, capsys):
        _, out = run(capsys, "series", "--order", "1")
        assert json.loads(out) == ["1/4"]

    def test_order_zero_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["series", "--order", "0"])
        assert exc.value.code == 2


class TestVerify:
    def test_small_suite_passes(self, capsys):
        code, out = run(
            capsys, "verify", "--suite", "closed-form", "--max-n", "40"
        )
        assert code == 0
        reports = json.loads(out)
        assert reports[0]["suite"] == "closed-form"
        assert reports[0]["failures"] == []

    def test_binet_suite_logs_the_corrections(self, capsys):
        code, out = run(
            capsys, "verify", "--suite", "binet", "--max-n", "10", "--t-samples", "3"
        )
        assert code == 0
        report = json.loads(out)[0]
        assert any("W" in note for note in report["notes"])

    def test_unknown_suite_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "nope"])
        assert exc.value.code == 2

    def test_seed_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("PELL3_SEED", "7")
        _, out_env = run(capsys, "verify", "--suite", "xi", "--max-n", "5", "--t-samples", "4")
        monkeypatch.delenv("PELL3_SEED")
        _, out_flag = run(
            capsys, "verify", "--suite", "xi", "--max-n", "5", "--t-samples", "4",
            "--seed", "7",
        )
        assert out_env == out_flag


class TestBinetCommand:
    def test_match(self, capsys):
        code, out = run(capsys, "binet", "--family", "s", "--n", "9", "--t", "2/7")
        assert code == 0
        result = json.loads(out)
        assert result["matches_recurrence"] is True

    def test_degenerate_t_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["binet", "--family", "r", "--n", "3", "--t", "1"])
        assert exc.value.code == 2


class TestPlotData:
    def test_exact_rows(self):
        rows = plot_rows(Fraction(0), Fraction(2, 3), 3)
        assert rows[0] == (0, 0)
        assert rows[-1] == (Fraction(2, 3), Fraction(32, 27))

    def test_double_root_at_two(self):
        rows = plot_rows(Fraction(0), Fraction(2), 2)
        assert rows[-1] == (2, 0)

    def test_csv_output(self, capsys):
        code, out = run(
            capsys, "plot-data", "--from", "0", "--to", "2/3", "--steps", "3"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "u,z"
        assert len(lines) == 4
        assert float(lines[-1].split(",")[1]) == pytest.approx(32 / 27)

    def test_bad_range_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["plot-data", "--from", "1", "--to", "0", "--steps", "3"])
        assert exc.value.code == 2

    def test_single_step_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["plot-data", "--from", "0", "--to", "1", "--steps", "1"])
        assert exc.value.code == 2


class TestNumericDemo:
    def test_small_run(self, capsys):
        code, out = run(
            capsys, "numeric-demo", "--family", "r", "--n-max", "12", "--x", "1"
        )
        assert code == 0
        rows = json.loads(out)
        assert [int(r["exact"]) for r in rows[:7]] == [0, 1, 2, 4, 9, 20, 44]
        assert all(r["rel_err"] <= 1e-8 for r in rows)

    def test_zero_x_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["numeric-demo", "--family", "r", "--x", "0"])
        assert exc.value.code == 2


class TestBench:
    def test_s_at_lower_validity_bound(self, capsys):
        code, out = run(capsys, "bench", "--family", "s", "--n", "2")
        assert code == 0
        result = json.loads(out)
        assert result["equal"] is True
        assert result["recurrence_seconds"] >= 0

    def test_below_validity_bound_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--family", "s", "--n", "1"])
        assert exc.value.code == 2

    def test_sigma_n_one(self, capsys):
        code, out = run(capsys, "bench", "--family", "sigma", "--n", "1")
        assert code == 0
        assert json.loads(out)["equal"] is True


def test_missing_command_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_t_samples_past_admissible_count_is_usage_error():
    t0 = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "all", "--t-samples", "200"])
    assert exc.value.code == 2
    assert time.perf_counter() - t0 < 5


@pytest.fixture
def default_int_str_limit():
    """Python's default int->str digit limit for one test; the limit in force
    before it is put back afterwards."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(saved)


def test_render_past_int_str_limit(monkeypatch, capsys, default_int_str_limit):
    big = 7 * 10**4399  # 4400 digits, past the default limit of 4300
    poly = CompactPell("r", 4, (big, 1))
    monkeypatch.setattr(pell, "recurrence_gen", lambda family, n: poly)
    digits = "7" + "0" * 4399
    for fmt in FORMATS:
        code, out = run(capsys, "eval", "--family", "r", "--n", "4", "--format", fmt)
        assert code == 0
        assert digits in out
        assert out.rstrip("\n") == render_poly(poly, fmt).rstrip("\n")
