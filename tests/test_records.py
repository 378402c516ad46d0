"""The package's records: immutable value records, and imports that stay light."""

import ast
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from test_cli import pell3_env

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
    run = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=pell3_env(),
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


#: what start-up newly loads of pell3 and of fractions, decimal and json
STARTUP = """
import sys
before = set(sys.modules)
import pell3.cli
pell3.cli.build_parser()
new = set(sys.modules) - before
print(*(m for m in new if m.startswith("pell3") or m in {"fractions", "decimal", "json"}))
"""


def test_cli_loads_exactly_the_production_modules():
    """Every request pays start-up: the parser needs only verify's suite
    names and defaults, and each command imports the modules it runs."""
    assert set(fresh_stdout(STARTUP).split()) == {"pell3", "pell3.cli", "pell3.verify"}


#: the row commands, then which of binet and lagrange are loaded
ROW_COMMANDS = """
import contextlib, io, sys
from pell3.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main([command, "--family", "r", bound, "5"])
             for command, bound in [("eval", "--n"), ("coeffs", "--n"), ("triangle", "--max-n")]]
print(*codes, *(m for m in ("pell3.binet", "pell3.lagrange") if m in sys.modules))
"""


def test_row_commands_load_neither_binet_nor_lagrange():
    assert fresh_stdout(ROW_COMMANDS).split() == ["0", "0", "0"]


def test_function_level_imports_name_modules():
    """An import inside a function runs on every call.  ``import pell3.pell
    as pell`` or ``import fractions`` finds a loaded module in C; a relative
    or ``from`` import runs importlib's Python code each time (1-2 us on
    Python 3.11), so no function body in the package holds one."""
    found = []
    for path in sorted(Path(pell.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                found += [f"{path.name}:{node.lineno}" for node in ast.walk(func)
                          if isinstance(node, ast.ImportFrom)]
    assert found == []
