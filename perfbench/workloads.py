"""The benchmark's workloads: seeded request batches and their checks.

Every request drives pell3 from outside, through ``pell3.cli.main(argv)``
or a public library function, and every output is checked by a route
independent of the one that produced it.  A workload is a fixed batch
built from the seed alone; the worker replays it in a closed loop (one
client, one process, next request when the previous one returns).
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from pell3 import cli, pell
from pell3.poly import CompactPell

FAMILIES = ("r", "s", "sigma")
FORMATS = ("json", "csv", "plain")
R18_PLAIN = "131072x^17+245760x^14+159744x^11+42240x^8+4032x^5+84x^2"


@dataclass
class Request:
    """One operation: ``op`` returns the program's output and ``check``
    says whether that output is correct."""

    label: str
    op: Callable[[], object]
    check: Callable[[object], bool]


@dataclass
class Workload:
    """``batch`` is replayed and timed; ``once`` runs once per pass, untimed."""

    batch: list
    once: list = field(default_factory=list)


def run_cli(argv: list) -> tuple:
    """Exit code and standard output of one ``pell3`` command, in process.

    A usage error surfaces as its exit code; any other exception propagates
    to the caller, which counts the request as failed.
    """
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def spread(rng: random.Random, lo: int, hi: int, k: int) -> list:
    """k integers covering lo..hi evenly, one uniform draw from each of k
    equal cells, in random order.  Stratified draws keep the batch's total
    cost nearly the same from seed to seed, so the seed changes the inputs
    but not the size of the job."""
    width = (hi - lo + 1) / k
    out = [lo + int(width * (i + rng.random())) for i in range(k)]
    rng.shuffle(out)
    return out


# --- expected values, by routes independent of the recurrence -------------


def expected_poly(family: str, n: int) -> CompactPell:
    """The closed form where the family has one, else the initial value."""
    fam = pell.by_name(family)
    if n < fam.closed_form_min:
        return CompactPell(family, n, fam.seeds[n])
    return pell.closed_form(fam, n)


def terms(poly: CompactPell) -> list:
    """(exponent, coefficient) pairs, highest exponent first, zeros dropped."""
    return [(poly.exponent(l), c) for l, c in enumerate(poly.coeffs) if c]


def plain_text(poly: CompactPell) -> str:
    """Independent rendering of the ``plain`` format (coefficients of the
    three families are all positive)."""
    parts = []
    for exp, c in terms(poly):
        x = "" if exp == 0 else "x" if exp == 1 else f"x^{exp}"
        parts.append(str(c) if exp == 0 else x if c == 1 else f"{c}{x}")
    return "+".join(parts) or "0"


def inversion_coefficients(order: int) -> list:
    """u_n = b_n / 2^(3n-1) for n = 1..order, where b_n = C(3n-2, n-1)/n is
    built by its term ratio b_{n+1}/b_n = (3n+1)(3n)(3n-1) / ((n+1)(2n+1)(2n))
    instead of the closed binomial the program uses."""
    out, b = [], Fraction(1)
    for n in range(1, order + 1):
        out.append(b / 2 ** (3 * n - 1))
        b = b * (3 * n + 1) * (3 * n) * (3 * n - 1) / ((n + 1) * (2 * n + 1) * (2 * n))
    return out


def once_verified(check: Callable[[object], bool]) -> Callable[[object], bool]:
    """Run the full check until it passes; after that an output with the
    verified one's hash passes without re-deriving the expected value, so
    repeated batches stay cheap to check.  Only the hash is kept, so the
    worker's peak RSS is not inflated by a copy of every output."""
    good = []

    def cached(out) -> bool:
        if good and hash(out) == good[0]:
            return True
        ok = check(out)
        if ok and not good:
            good.append(hash(out))
        return ok

    return cached


# --- checks, one per request kind ------------------------------------------


def check_point(out) -> bool:
    """generate: the JSON of ``eval`` read back equals ``closed_form``."""
    code, text, closed = out
    return code == 0 and CompactPell.from_json_dict(json.loads(text)) == closed


def check_eval(family: str, n: int, fmt: str) -> Callable:
    def check(out) -> bool:
        code, text = out
        if code != 0:
            return False
        want = expected_poly(family, n)
        if fmt == "json":
            return CompactPell.from_json_dict(json.loads(text)) == want
        if fmt == "csv":
            rows = "".join(f"{e},{c}\n" for e, c in terms(want))
            return text == "exp,coeff\n" + rows
        return text == plain_text(want) + "\n"

    return check


def check_coeffs(family: str, n: int, fmt: str) -> Callable:
    def check(out) -> bool:
        code, text = out
        if code != 0:
            return False
        want = [str(c) for c in expected_poly(family, n).coeffs]
        if fmt == "json":
            return json.loads(text) == {"family": family, "n": n, "coeffs": want}
        if fmt == "csv":
            return text == "l,coeff\n" + "".join(f"{l},{c}\n" for l, c in enumerate(want))
        return text == (" ".join(want) if want else "0") + "\n"

    return check


def check_triangle(family: str, max_n: int) -> Callable:
    def check(out) -> bool:
        code, text = out
        if code != 0:
            return False
        rows = "".join(
            f"{n},{l},{c}\n"
            for n in range(max_n + 1)
            for l, c in enumerate(expected_poly(family, n).coeffs)
        )
        return text == "n,l,coeff\n" + rows

    return check


def check_binet(family: str, n: int, t: Fraction) -> Callable:
    def check(out) -> bool:
        code, text = out
        if code != 0:
            return False
        got = json.loads(text)
        z = (1 - t) ** 2 * (1 + t)
        return (
            got["matches_recurrence"] is True
            and Fraction(got["t"]) == t
            and Fraction(got["value"]) == expected_poly(family, n).eval_in_z(z)
        )

    return check


def check_series(order: int) -> Callable:
    def check(out) -> bool:
        code, text = out
        return code == 0 and [Fraction(c) for c in json.loads(text)] == inversion_coefficients(
            order
        )

    return check


def check_verify(out) -> bool:
    """verify: exit 0 and every suite's report has no failures."""
    code, text = out
    if code != 0:
        return False
    reports = json.loads(text)
    suites = [r["suite"] for r in reports]
    return suites == ["closed-form", "binet", "xi", "lagrange", "roots"] and all(
        r["failures"] == [] for r in reports
    )


# --- the workloads ---------------------------------------------------------


def cli_request(argv: list, check: Callable) -> Request:
    return Request(" ".join(argv), lambda: run_cli(argv), once_verified(check))


def golden_r18() -> Request:
    return cli_request(
        ["eval", "--family", "r", "--n", "18", "--format", "plain"],
        lambda out: out == (0, R18_PLAIN + "\n"),
    )


def generate(seed: int, smoke: bool = False) -> Workload:
    """Large-index point queries: for each family, ``eval --n N --format
    json`` and ``pell.closed_form`` at one N near 3000, checked equal."""
    rng = random.Random(seed)
    lo, hi = (200, 260) if smoke else (2950, 3050)
    batch = []
    for family, n in zip(FAMILIES, spread(rng, lo, hi, len(FAMILIES))):
        argv = ["eval", "--family", family, "--n", str(n), "--format", "json"]
        fam = pell.by_name(family)

        def op(argv=argv, fam=fam, n=n):
            code, text = run_cli(argv)
            return code, text, pell.closed_form(fam, n)

        batch.append(Request(f"{' '.join(argv)} + closed_form", op, once_verified(check_point)))
    return Workload(batch, once=[golden_r18()])


def verify(seed: int, smoke: bool = False) -> Workload:
    """Time to certificate: ``verify --suite all`` at the default depths."""
    argv = ["verify", "--suite", "all", "--seed", str(seed)]
    if smoke:
        argv += ["--t-samples", "2"]
    return Workload([cli_request(argv, check_verify)])


def query(seed: int, smoke: bool = False) -> Workload:
    """A seeded stream of small mixed CLI requests, in random order."""
    rng = random.Random(seed)
    scale = 10 if smoke else 1
    batch = []
    for kind, k in (("eval", 120), ("coeffs", 120)):
        for i, n in enumerate(spread(rng, 0, 400 // scale, k // scale)):
            family, fmt = FAMILIES[i % 3], FORMATS[i // 3 % 3]
            argv = [kind, "--family", family, "--n", str(n), "--format", fmt]
            check = check_eval if kind == "eval" else check_coeffs
            batch.append(cli_request(argv, check(family, n, fmt)))
    for i, max_n in enumerate(spread(rng, 1, 300 // scale, 40 // scale)):
        family = FAMILIES[i % 3]
        argv = ["triangle", "--family", family, "--max-n", str(max_n), "--format", "csv"]
        batch.append(cli_request(argv, check_triangle(family, max_n)))
    for i, n in enumerate(spread(rng, 0, 120 // scale, 80 // scale)):
        family = FAMILIES[i % 3]
        while True:
            den = rng.randint(2, 12)
            t = Fraction(rng.randint(1 - den, den - 1), den)
            if t != Fraction(-1, 3):
                break
        argv = ["binet", "--family", family, "--n", str(n), f"--t={t}"]
        batch.append(cli_request(argv, check_binet(family, n, t)))
    for order in spread(rng, 1, 200 // scale, 40 // scale):
        batch.append(cli_request(["series", "--order", str(order)], check_series(order)))
    rng.shuffle(batch)
    return Workload(batch)


WORKLOADS = {"generate": generate, "verify": verify, "query": query}
