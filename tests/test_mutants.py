"""The kill matrix of the mutant table in tests/mutants.py."""

from pathlib import Path

import pytest
from mutants import ROW, ROWS, assert_killed

from pell3 import verify


@pytest.mark.parametrize("row", ROWS, ids=[row.id for row in ROWS])
def test_row_is_killed(row):
    assert_killed(row)


def test_table_is_well_formed():
    assert len(ROW) == len(ROWS)
    weakenings = [row for row in ROWS if row.hides is not None]
    assert all(ROW[row.hides].hides is None and not row.run for row in weakenings)
    # one weakening row per check in verify: a new check comes with its row
    sites = Path(verify.__file__).read_text(encoding="utf-8").count("report.check(")
    weakened = {(row.target, row.old) for row in weakenings if row.target.startswith("verify.")}
    assert all(old.startswith("report.check(") for _, old in weakened)
    assert len(weakened) == sites == 19
