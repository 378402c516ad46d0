"""The package's records: immutable value records, and imports that stay light."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from pell3 import binet, pell
from pell3.cli import numeric_demo
from pell3.poly import CompactPell

POINT = binet.substitution_chain(Fraction(1, 2))

#: each value record with its fields
RECORDS = {
    "Family": (pell.R, ["name", "seeds", "closed_form_min"]),
    "SubstitutionPoint": (POINT, ["t", "z", "d"]),
    "CompactPell": (CompactPell("r", 4, (8, 1)), ["family", "n", "coeffs"]),
    "DemoRow": (numeric_demo(pell.R, 2, Fraction(1))[2], ["n", "exact", "approx", "rel_err"]),
    "RootTriple": (binet.roots(POINT), ["v1", "v2", "v3", "w1", "w2", "w3"]),
    "BinetCoefficients": (binet.solve_coefficients(pell.R, POINT), ["a", "b", "c"]),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_fields_cannot_be_assigned(name):
    record, fields = RECORDS[name]
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))


def test_compact_pell_checks_every_construction():
    poly = CompactPell(family="r", n=4, coeffs=[8, 1])
    assert poly == CompactPell("r", 4, (8, 1))
    assert repr(poly) == "CompactPell(family='r', n=4, coeffs=(8, 1))"
    with pytest.raises(ValueError, match="do not fit"):
        CompactPell(family="r", n=2, coeffs=(1, 2))
    with pytest.raises(ValueError, match="nonnegative"):
        poly._replace(n=-1)


#: dataclasses pulls in inspect, ast, dis and tokenize: a large share of start-up
HEAVY = {"dataclasses", "inspect"}

PROBE = """
import sys
before = set(sys.modules)
import pell3.{module}
print(" ".join(sorted({heavy} & (set(sys.modules) - before))))
"""


def fresh_stdout(code: str) -> str:
    """Stdout of code run in a fresh interpreter that imports pell3 from this tree."""
    src = str(Path(pell.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        check=True,
    )
    return run.stdout


@pytest.mark.parametrize(
    "module", ["exactnum", "poly", "pell", "series", "lagrange", "binet", "verify", "cli"]
)
def test_import_loads_no_dataclasses_or_inspect(module):
    """Measured against what the fresh interpreter held before the import,
    since site may load inspect itself (a .pth file can)."""
    code = PROBE.format(module=module, heavy=HEAVY)
    assert fresh_stdout(code).split() == []


#: what ``import pell3.cli`` loads of pell3: not series, as only tests use RatSeries
PRODUCTION = ["exactnum", "poly", "pell", "binet", "lagrange", "verify", "cli"]


def test_cli_loads_exactly_the_production_modules():
    code = "import sys, pell3.cli\nprint(*(m for m in sys.modules if m.startswith('pell3')))"
    assert set(fresh_stdout(code).split()) == {"pell3", *(f"pell3.{m}" for m in PRODUCTION)}
