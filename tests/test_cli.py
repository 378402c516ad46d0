import argparse
import contextlib
import csv
import functools
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from itertools import islice
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mutants import ROW, apply, moved

from pell3 import lagrange, pell, verify
from pell3.cli import (
    FORMATS,
    _csv_lines,
    _print_records,
    build_parser,
    main,
    numeric_demo,
    parse_args,
    plot_rows,
    write_row,
)
from pell3.exactnum import IdentityViolationError
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


def pell3_env() -> dict:
    """The environment of a fresh interpreter that imports this pell3."""
    src = str(Path(pell.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


class TestWrittenAsMade:
    """eval and coeffs write a row term by term, and triangle row by row."""

    @pytest.mark.parametrize("command", ["eval", "coeffs"])
    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("n", [300, 1000], ids=["int", "decimal"])
    def test_no_byte_before_the_checks(self, capsys, monkeypatch, command, fmt, n):
        """The row's last division leaves a remainder: its coefficient, 20200
        at n = 300 and 1 at n = 1000, is divided by 7 more.  The row raises
        before a byte of it is written, on ints and on Decimal."""
        top = n - pell.R.delta
        assert (top < pell.DECIMAL_MIN_TOP) == (n == 300)
        last, ratio = top // 3, pell._term_ratio

        def inexact(name, n, l, m):
            num, den = ratio(name, n, l, m)
            return (num, 7 * den) if l == last else (num, den)

        monkeypatch.setattr(pell, "_term_ratio", inexact)
        with pytest.raises(IdentityViolationError, match=rf"\(family r, n={n}, l={last}\)"):
            main([command, "--family", "r", "--n", str(n), "--format", fmt])
        assert capsys.readouterr().out == ""

    def test_triangle_peak_memory_is_about_one_row(self):
        """triangle at max-n 1500 prints 104 MB of csv, and a row of it at
        most 0.3 MB.  The peak RSS is read by a fresh interpreter that starts
        only the triangle, since getrusage's RUSAGE_CHILDREN figure is the
        largest over every child a process has waited for."""
        argv = ["triangle", "--family", "r", "--max-n", "1500", "--format", "csv"]
        probe = (
            "import resource, subprocess, sys\n"
            "argv = [sys.executable, '-m', 'pell3', *sys.argv[1:]]\n"
            "subprocess.run(argv, stdout=subprocess.DEVNULL, check=True)\n"
            "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", probe, *argv],
            capture_output=True,
            text=True,
            env=pell3_env(),
            check=True,
        )
        peak_mb = int(done.stdout) / (2**20 if sys.platform == "darwin" else 2**10)
        assert peak_mb < 40


def route_switch_indices(family: str) -> list:
    """Every n TestRouteSwitch checks: the small rows, both sides of the
    decimal crossover, and large rows up to 5000."""
    first = pell.DECIMAL_MIN_TOP + pell.by_name(family).delta
    return [*range(41), 399, *range(first - 3, first + 4), 1000, 3000, 3001, 5000]


@functools.cache
def by_recurrence(family: str) -> dict:
    """The recurrence's rows at route_switch_indices(family), by n, from one
    pass of the recurrence per family; rows in between are not kept."""
    fam = pell.by_name(family)
    wanted = set(route_switch_indices(family))
    rows = islice(pell._rows(fam), max(wanted) + 1)
    return {
        n: CompactPell(family, n, pell._x_coeffs(fam, n, row))
        for n, row in enumerate(rows)
        if n in wanted
    }


def render_poly(poly: CompactPell, fmt: str) -> str:
    """``eval``'s output format, rendered from a CompactPell through its own
    methods, as ``eval`` printed it before it read digit strings."""
    if fmt == "plain":
        return poly.to_dense().format_plain()
    if fmt == "csv":
        terms = [[poly.exponent(l), str(c)] for l, c in enumerate(poly.coeffs) if c]
        return csv_text(["exp", "coeff"], terms)
    return json.dumps(poly.to_json_dict())


def rendered_by_recurrence(command: str, family: str, n: int, fmt: str) -> str:
    """What ``eval``/``coeffs`` printed while both read the recurrence."""
    poly = by_recurrence(family)[n]
    if command == "eval":
        text = render_poly(poly, fmt)
        return text if text.endswith("\n") else text + "\n"
    coeffs = [str(c) for c in poly.coeffs]
    if fmt == "plain":
        return (" ".join(coeffs) or "0") + "\n"
    if fmt == "csv":
        return "l,coeff\n" + "".join(f"{l},{c}\n" for l, c in enumerate(coeffs))
    return json.dumps({"family": family, "n": n, "coeffs": coeffs}) + "\n"


class TestRouteSwitch:
    """eval and coeffs print the closed form (seed rows below it), in int
    digits and, from the decimal crossover on, in Decimal digits, byte for
    byte as they printed the recurrence."""

    @pytest.mark.parametrize("command", ["eval", "coeffs"])
    @pytest.mark.parametrize("family", ["r", "s", "sigma"])
    @pytest.mark.parametrize("fmt", FORMATS)
    def test_byte_identical_to_the_recurrence(self, capsys, command, family, fmt):
        for n in route_switch_indices(family):
            code, out = run(capsys, command, "--family", family, "--n", str(n), "--format", fmt)
            assert (code, out) == (0, rendered_by_recurrence(command, family, n, fmt)), n

    def test_only_triangle_runs_the_recurrence(self, capsys, monkeypatch):
        calls = []
        rows = pell._rows
        monkeypatch.setattr(pell, "_rows", lambda family: calls.append(family.name) or rows(family))
        for command in ("eval", "coeffs"):
            for family in ("r", "s", "sigma"):
                for n in (0, 1, 2, 5, 60):
                    run(capsys, command, "--family", family, "--n", str(n))
        assert calls == []
        run(capsys, "triangle", "--family", "s", "--max-n", "4")
        assert calls == ["s"]


def encoded_row(command: str, family: pell.Family, n: int, digits: list, fmt: str) -> str:
    """``write_row``'s output as written on json.dumps and csv.writer: the
    oracle for the text it assembles itself."""
    if command == "coeffs":
        if fmt == "plain":
            return (" ".join(digits) or "0") + "\n"
        if fmt == "csv":
            return csv_text(["l", "coeff"], enumerate(digits))
        return json.dumps({"family": family.name, "n": n, "coeffs": digits}) + "\n"
    terms = [(n - family.delta - 3 * l, d) for l, d in enumerate(digits) if d != "0"]
    if fmt == "plain":
        x = {0: "", 1: "x"}
        plain = [(d if e == 0 or d != "1" else "") + x.get(e, f"x^{e}") for e, d in terms]
        return ("+".join(plain) or "0") + "\n"
    if fmt == "csv":
        return csv_text(["exp", "coeff"], terms)
    json_terms = [{"exp": e, "coeff": d} for e, d in terms]
    return json.dumps({"family": family.name, "n": n, "terms": json_terms}) + "\n"


def encoded_series(order: int, fmt: str) -> str:
    """``series`` as printed from str() of each coefficient's Fraction
    through the encoders: the oracle for the text it now assembles from
    lowest terms."""
    coeffs = [str(lagrange.inversion_coefficient(n)) for n in range(1, order + 1)]
    if fmt == "plain":
        return "\n".join(coeffs) + "\n"
    if fmt == "csv":
        return csv_text(["n", "coeff"], enumerate(coeffs, start=1))
    return json.dumps(coeffs) + "\n"


def csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def first_difference(text: str, expected: str):
    """None if the two are equal, else where they first differ and the 20
    characters from there on in each; pytest's own diff of two lines of a
    megabyte runs for minutes."""
    if text == expected:
        return None
    at = next(
        (i for i, (a, b) in enumerate(zip(text, expected)) if a != b),
        min(len(text), len(expected)),
    )
    return at, text[at : at + 20], expected[at : at + 20]


# floats whose repr takes an exponent, a sign or a word
EDGE_FLOATS = [-0.0, 5e-324, 1e16, 1e22, float("inf")]

# "0" entries, which eval skips, single digits, and 1,000-digit strings
DIGIT_STRINGS = st.one_of(
    st.just("0"),
    st.integers(1, 9).map(str),
    st.integers(10, 10**40).map(str),
    st.integers(10**999, 10**1000 - 1).map(str),
)


class TestAssembledOutput:
    """eval, coeffs and triangle assemble their json, csv and plain text
    themselves; it must be byte for byte what the encoders print."""

    @pytest.mark.parametrize("command", ["eval", "coeffs"])
    @pytest.mark.parametrize("family", list(pell.FAMILIES.values()), ids=list(pell.FAMILIES))
    @pytest.mark.parametrize("fmt", FORMATS)
    @settings(max_examples=15, deadline=None)
    @given(n=st.integers(0, 20000), digits=st.lists(DIGIT_STRINGS, max_size=40))
    @example(n=0, digits=[])  # r_0, the empty row
    @example(n=4, digits=["0", "1"])
    # r_3000: 1,000 strings of up to 1,029 digits
    @example(n=3000, digits=pell.coefficient_digits(pell.R, 3000))
    def test_row_matches_the_encoders(self, command, family, fmt, n, digits):
        args = command, family, n, digits, fmt
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            write_row(*args)
        assert first_difference(out.getvalue(), encoded_row(*args)) is None

    @pytest.mark.parametrize("family", ["r", "s", "sigma"])
    @pytest.mark.parametrize("fmt", ["json", "plain", "csv"])
    @pytest.mark.parametrize("max_n", [0, 1, 2, 3, 40, 301])
    def test_triangle_matches_the_encoders(self, capsys, family, fmt, max_n):
        """Up to max-n 3 the rows are r_0's empty one and rows of one
        coefficient; at 301 the last rows hold 101."""
        rows = pell.coefficient_triangle(pell.by_name(family), max_n)
        buf = io.StringIO()
        if fmt == "plain":
            for row in rows:
                print(" ".join(str(c) for c in row), file=buf)
        elif fmt == "csv":
            cells = [(n, l, str(c)) for n, row in enumerate(rows) for l, c in enumerate(row)]
            buf.write(csv_text(["n", "l", "coeff"], cells))
        else:
            rows = [[str(c) for c in row] for row in rows]
            print(json.dumps({"family": family, "max_n": max_n, "rows": rows}), file=buf)
        argv = ["triangle", "--family", family, "--max-n", str(max_n), "--format", fmt]
        code, out = run(capsys, *argv)
        assert code == 0
        assert first_difference(out, buf.getvalue()) is None

    @pytest.mark.parametrize("fmt", FORMATS)
    @settings(max_examples=10, deadline=None)
    @given(order=st.integers(1, 300))
    @example(order=1)
    @example(order=2)
    @example(order=3)
    @example(order=8)
    @example(order=200)
    def test_series_matches_the_encoders(self, fmt, order):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["series", "--order", str(order), "--format", fmt])
        assert code == 0
        assert first_difference(out.getvalue(), encoded_series(order, fmt)) is None

    @settings(max_examples=50, deadline=None)
    @given(
        rows=st.lists(
            st.lists(
                st.one_of(st.integers(), st.fractions().map(str), st.floats().map(repr)),
                min_size=1,
                max_size=4,
            ),
            max_size=8,
        )
    )
    def test_csv_lines_match_csv_writer(self, rows):
        """plot-data and numeric-demo print ints, Fraction strings
        and float reprs."""
        header = ["n", "exact", "binet", "rel_err"]
        assert _csv_lines(header, rows) == csv_text(header, rows)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("header", [["u", "z"], ["n", "exact", "binet", "rel_err"]])
    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_records_match_the_per_command_writers(self, fmt, header, data):
        """plot-data and numeric-demo print what each printed with its own
        writer: json.dumps of one dict per row, or csv of float reprs."""
        cell = st.one_of(st.integers(), st.fractions().map(str), st.floats())
        row = st.lists(cell, min_size=len(header), max_size=len(header))
        rows = data.draw(st.lists(row, max_size=8)) + [[v] * len(header) for v in EDGE_FLOATS]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            _print_records(fmt, header, rows)
        if fmt == "json":
            expected = json.dumps([dict(zip(header, row)) for row in rows]) + "\n"
        else:
            reprs = [[repr(v) if isinstance(v, float) else v for v in row] for row in rows]
            expected = _csv_lines(header, reprs)
        assert out.getvalue() == expected


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


#: the binomial side of every xi check off by one, and its verify argv
XI_FAULT = ROW["binomial-sum-plus-one"]
XI_ARGV = XI_FAULT.run[1:]


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

    def test_seed_env_var_is_ignored(self, capsys, monkeypatch):
        """Only argv sets the seed; a failing report lists its t, so a seed
        read from elsewhere would show."""
        apply(monkeypatch, XI_FAULT)
        _, out = run(capsys, *XI_ARGV)
        monkeypatch.setenv("PELL3_SEED", "7")
        assert run(capsys, *XI_ARGV)[1] == out

    def test_seed_reaches_the_sampler(self, capsys, monkeypatch):
        apply(monkeypatch, XI_FAULT)

        def failing_t(*seed):
            return {f["t"] for f in json.loads(run(capsys, *XI_ARGV, *seed)[1])[0]["failures"]}

        assert failing_t("--seed", "7") != failing_t("--seed", "42") == failing_t()

    test_failed_check_exits_one = moved(XI_FAULT.id)


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

    test_broken_weight_structure_exits_one = moved("weight-structure-at-n-0")
    test_recurrence_mismatch_exits_one = moved("values-from-n-3")
    test_mutant_is_caught = moved("Z-factor", "seed-scale", "odd-exponent", ids=str)


@pytest.mark.parametrize(
    "argv, value",
    [
        (["binet", "--family", "r", "--n", "5", "--t"], "-5/7"),
        (["numeric-demo", "--family", "r", "--n-max", "5", "--x"], "-1/9"),
        (["numeric-demo", "--family", "s", "--n-max", "5", "--x"], "-1e20"),
        (["numeric-demo", "--family", "sigma", "--n-max", "5", "--x"], "-.5"),
        (["plot-data", "--to", "1", "--steps", "3", "--from"], "-1/2"),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else v,
)
def test_negative_value_as_a_separate_word(capsys, argv, value):
    """A negative rational, exponent form or leading dot included, reads as
    the option's value whether it follows as its own word or after "="."""
    code, out = run(capsys, *argv, value)
    assert (code, out) == run(capsys, *argv[:-1], f"{argv[-1]}={value}")
    assert code == 0


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

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_past_float_range_is_usage_error(self, capsys, fmt):
        code = main(["plot-data", "--from", "0", "--to", "1e400", "--steps", "2", "--format", fmt])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and "float range" in err


class TestNumericDemo:
    def test_small_run(self, capsys):
        code, out = run(
            capsys, "numeric-demo", "--family", "r", "--n-max", "12", "--x", "1"
        )
        assert code == 0
        rows = json.loads(out)
        assert [int(r["exact"]) for r in rows[:7]] == [0, 1, 2, 4, 9, 20, 44]
        assert all(r["rel_err"] <= 1e-8 for r in rows)

    def test_csv_floats_are_plain_reprs(self, capsys):
        code, out = run(
            capsys, "numeric-demo", "--family", "s", "--n-max", "3", "--x", "1/2", "--format", "csv"
        )
        assert code == 0
        header, *rows = list(csv.reader(io.StringIO(out)))
        assert header == ["n", "exact", "binet", "rel_err"] and len(rows) == 4
        for row in rows:
            assert all(repr(float(field)) == field for field in row[2:4])

    @pytest.mark.parametrize("fmt", ["json", "plain"])
    def test_past_float_range_is_usage_error(self, capsys, fmt):
        # r_n(1) passes the largest float near n = 900
        code = main(["numeric-demo", "--family", "r", "--n-max", "900", "--format", fmt])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and "float range" in err

    @pytest.mark.parametrize("x", ["1e16", "-1e16", "1e20", "-1e20"])
    @pytest.mark.parametrize("family", ["r", "s", "sigma"])
    def test_large_x_runs(self, capsys, family, x):
        """Roots of very different sizes, where a float Vandermonde solve
        reports a singular matrix."""
        code, out = run(capsys, "numeric-demo", "--family", family, "--n-max", "5", f"--x={x}")
        assert code == 0
        assert len(json.loads(out)) == 6

    @pytest.mark.parametrize("family", ["r", "s", "sigma"])
    def test_x_past_float_range_is_usage_error(self, capsys, family):
        # the exact terms pass the largest float from n = 4 or 5 on
        code = main(["numeric-demo", "--family", family, "--n-max", "5", "--x", "1e100"])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and "float range" in err

    @pytest.mark.parametrize(
        "x",
        ["1", "3/7", "-2", "7", "-1/9", "1/2", "5", "-5", "100", "1/100", "-3/4", "-0.94"]
        + ["2/3", "-7/5", "13/11", "-1/1000", "1000"],
    )
    @pytest.mark.parametrize("family", ["r", "s", "sigma"])
    def test_float_binet_tracks_the_recurrence(self, family, x):
        """Complex and real root pairs, |x| on both sides of 1, and x = -0.94
        just inside the complex side of the double root at -(27/32)^(1/3)."""
        rows = numeric_demo(pell.by_name(family), 40, Fraction(x))
        assert max(row.rel_err for row in rows) <= 1e-10

    def test_runs_without_numpy(self, monkeypatch, capsys):
        argv = ["numeric-demo", "--family", "r", "--n-max", "3"]
        unblocked = run(capsys, *argv)
        monkeypatch.setitem(sys.modules, "numpy", None)  # makes `import numpy` fail
        assert run(capsys, *argv) == unblocked
        assert unblocked[0] == 0


def test_missing_command_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


ROUTE_ARGVS = [
    ["eval", "--family", "r", "--n", "3", "--", "extra"],
    ["eval", "--fam", "r", "--n", "3"],
    ["eval", "--family", "r"],
    ["eval", "--family", "q", "--n", "3"],
    ["eval", "--family", "r", "--n", "3", "--bogus", "x"],
    ["binet", "--family", "r", "--n", "3", "--t", "-5/7"],
    ["frobnicate"],
    [],
    ["-h"],
    ["eval", "--help"],
    ["verify", "--suite", "all", "--t-samples", "200"],
    ["binet", "--family", "r", "--n", "3", "--t", "5/3"],
]


def parse_outcome(capsys, parse, argv) -> tuple:
    """What one parse of argv gives, a namespace or an exit code, and what it printed."""
    try:
        outcome = vars(parse(argv))
    except SystemExit as exc:
        outcome = exc.code
    return outcome, capsys.readouterr()


@pytest.mark.parametrize("argv", ROUTE_ARGVS, ids=lambda argv: " ".join(argv) or "no-args")
def test_parse_args_matches_the_two_level_parse(capsys, argv):
    """main's one parse gives what argparse's top-level parser and its
    subparsers action give together, in this interpreter's argparse."""
    expected = parse_outcome(capsys, build_parser().parse_args, argv)
    assert parse_outcome(capsys, parse_args, argv) == expected


def test_each_request_is_parsed_once(monkeypatch, capsys):
    """One parse_known_args call per request, by the command's parser; the
    two-level parse makes two."""
    argvs = [
        next(e["argv"] for e in TRANSCRIPT if e["exit"] == 0 and e["argv"][0] == name)
        for name in build_parser().commands
    ]
    calls = []
    parse_known_args = argparse.ArgumentParser.parse_known_args

    def spy(self, *args, **kwargs):
        calls.append(self.prog)
        return parse_known_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", spy)
    for argv in argvs:
        calls.clear()
        assert run(capsys, *argv)[0] == 0
        assert calls == [f"pell3 {argv[0]}"]


@pytest.mark.parametrize(
    "argv, lines_read",
    [
        pytest.param(
            ["triangle", "--family", "r", "--max-n", "1500", "--format", "csv"], 1, id="triangle"
        ),
        # closed before the first byte: the output fails in main's flush, not in a write
        pytest.param(["eval", "--family", "r", "--n", "9"], 0, id="eval"),
        # help is printed inside argparse, before any command runs
        pytest.param(["--help"], 0, id="help"),
        pytest.param(["eval", "--help"], 0, id="eval-help"),
    ],
)
def test_closed_stdout_exits_141_quietly(argv, lines_read):
    """A reader that stops early is no fault: exit 128 + SIGPIPE, nothing on stderr."""
    env = pell3_env()
    env.pop("PYTHONUNBUFFERED", None)  # block-buffered stdout, as a shell starts pell3
    pipes = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, "env": env}
    with subprocess.Popen([sys.executable, "-m", "pell3", *argv], **pipes) as proc:
        for _ in range(lines_read):
            proc.stdout.readline()
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (141, b"")


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--suite", "lagrange", "--max-n", "0"],
        ["verify", "--suite", "all", "--max-n", "0"],
        ["verify", "--t-samples", "200"],
        ["binet", "--family", "r", "--n", "3", "--t", "5/3"],
        ["plot-data", "--from", "1", "--to", "0", "--steps", "3"],
        ["plot-data", "--from", "0", "--to", "1", "--steps", "1"],
        ["numeric-demo", "--family", "r", "--x", "0"],
    ],
    ids=" ".join,
)
def test_late_usage_error_prints_the_command_usage(capsys, argv):
    """Errors found after parsing print the usage of the subcommand at fault."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith(f"usage: pell3 {argv[0]} ")


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--t-samples", "200"],
        ["verify", "--suite", "all", "--max-n", "0"],
        ["verify", "--suite", "lagrange", "--max-n", "0"],
    ],
    ids=" ".join,
)
def test_verify_usage_error_runs_no_suite(monkeypatch, argv):
    """Input errors are found before the first suite runs."""
    called = []
    for name in verify.SUITES:
        runner = "run_" + name.replace("-", "_")
        monkeypatch.setattr(verify, runner, lambda *args, _name=runner, **kw: called.append(_name))
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert called == []


# a suite that raises is a fault in the code, not in the command line
test_fault_inside_a_suite_is_not_a_usage_error = moved("mixed-discriminant")


def test_fault_is_one_stderr_line_and_exit_three(monkeypatch, capsys):
    """An exception other than a refuted identity exits 3 and prints the
    command, its type and its message as one line, with no traceback."""
    row = ROW["mixed-discriminant"]
    apply(monkeypatch, row)
    code = main(list(row.run[1:]))
    out, err = capsys.readouterr()
    assert (code, out) == (3, "")
    assert err == "pell3 verify: ValueError: cannot combine elements with W^2=10/3 and W^2=7/3\n"


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
    monkeypatch.setattr(pell, "_ratio_row", lambda family, n, first, step: [big, 1])
    digits = "7" + "0" * 4399
    for fmt in FORMATS:
        code, out = run(capsys, "eval", "--family", "r", "--n", "4", "--format", fmt)
        assert code == 0
        assert digits in out
        assert out.rstrip("\n") == render_poly(poly, fmt).rstrip("\n")


def test_rows_never_build_a_polynomial(monkeypatch, capsys):
    """eval and coeffs print the digits of one x-form term-ratio loop: no
    closed_form, no y-to-x shift, no CompactPell on the way."""
    argvs = [
        [command, "--family", family, "--n", str(n), "--format", fmt]
        for command in ("eval", "coeffs")
        for family in ("r", "s", "sigma")
        for n in (0, 1, 2, 3, 40, 699, 700, 701)
        for fmt in FORMATS
    ]
    expected = [run(capsys, *argv) for argv in argvs]

    def forbidden(*args, **kwargs):
        raise AssertionError("eval or coeffs built a polynomial")

    for name in ("closed_form", "_x_coeffs", "CompactPell"):
        monkeypatch.setattr(pell, name, forbidden)
    assert [run(capsys, *argv) for argv in argvs] == expected


# The one golden file: each line is one CLI run, {"argv", "exit"} plus "stdout"
# or, for rows of up to a megabyte, the "sha256" of stdout. The binet, seed-42
# verify and order-40 series entries were captured while Binet, xi and series
# arithmetic ran over Fraction and QuadExt, the sha256 entries while eval and
# coeffs printed str() of ints; the code must still print them byte for byte.
GOLDEN = Path(__file__).parent / "golden" / "cli_transcript.jsonl"
TRANSCRIPT = [json.loads(line) for line in GOLDEN.read_text(encoding="utf-8").splitlines()]
# The 60 entries converted from the former binet.jsonl replay as test_binet
# under their former case ids, in the former case order; the rest replay as
# test_cli_transcript. Each entry replays once.
BINET_ARGV = [
    ("binet", "--family", family, "--n", str(n), f"--t={t}")
    for family in ("r", "s", "sigma")
    for n in (0, 1, 2, 17, 80)
    for t in ("0", "1/2", "-5/7", "11/12")
]
BY_ARGV = {tuple(entry["argv"]): entry for entry in TRANSCRIPT}
BINET_ENTRIES = [BY_ARGV[argv] for argv in BINET_ARGV]
OTHER_ENTRIES = [entry for entry in TRANSCRIPT if entry not in BINET_ENTRIES]


def transcript_difference(entry: dict, stdout: str, code: int):
    """None if a run printed the entry's stdout and exited with its code, else
    one line on what differs. CI's replay through the installed ``pell3``
    imports it too."""
    if code != entry["exit"]:
        return f"exit code {code}, expected {entry['exit']}"
    if "sha256" in entry:
        digest = hashlib.sha256(stdout.encode()).hexdigest()
        return None if digest == entry["sha256"] else f"stdout has sha256 {digest}"
    at = first_difference(stdout, entry["stdout"])
    return at and "stdout differs at offset %d: %r, expected %r" % at


def replay(capsys, entry: dict):
    """One transcript entry's run through ``main``, compared as CI compares it."""
    try:
        code = main(entry["argv"])
    except SystemExit as exc:
        code = exc.code
    assert transcript_difference(entry, capsys.readouterr().out, code) is None


class TestGoldenOutput:
    @pytest.mark.parametrize("entry", OTHER_ENTRIES, ids=lambda e: " ".join(e["argv"]) or "no-args")
    def test_cli_transcript(self, capsys, entry):
        replay(capsys, entry)

    @pytest.mark.parametrize(
        "entry", BINET_ENTRIES, ids=[f"case{i}-{e['stdout']}" for i, e in enumerate(BINET_ENTRIES)]
    )
    def test_binet(self, capsys, entry):
        replay(capsys, entry)

    def test_transcript_is_well_formed(self):
        """Unique argv, one kind of expected stdout each, and an exit-0 run of
        every command."""
        argvs = [tuple(entry["argv"]) for entry in TRANSCRIPT]
        assert len(set(argvs)) == len(argvs)
        assert all(set(e) - {"argv", "exit"} in ({"stdout"}, {"sha256"}) for e in TRANSCRIPT)
        passing = {entry["argv"][0] for entry in TRANSCRIPT if entry["exit"] == 0}
        assert set(build_parser().commands) <= passing
