"""The scripts run end to end: each exits 0 and flags no bad row."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name: str, *args: str) -> list[str]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


@pytest.mark.parametrize("flags", [(), ("--deaf",)])
def test_solve_families_verifies_every_witness(flags):
    # a row whose witness does not re-verify ends in BAD; one out of
    # budget ends in "budget"
    lines = run_script("solve_families.py", "--budget", "20000", *flags)
    rows = lines[1:]
    assert len(rows) == 33
    assert not [line for line in rows if line.split()[-1] not in ("ok", "budget")]
    assert sum(line.endswith("ok") for line in rows) >= 20
    # an ok row's units are the budget it spent: a whole number within it
    assert lines[0].split()[-2:] == ["units", "witness"]
    # and its route is the nest strategy's or the search's
    assert lines[0].split()[3] == "route"
    for line in rows:
        if line.endswith("ok"):
            assert 0 <= int(line.split()[-2]) <= 20000, line
            assert line.split()[-4] in ("sandwich", "search"), line


def test_cube_table_closed_forms_match_the_scans():
    # the deaf form is known to miss at odd n; the branch form must not
    lines = run_script("cube_table.py", "8")
    assert len(lines) == 2 + 8
    assert not [line for line in lines if "BAD" in line or "BRANCH-MISMATCH" in line]
