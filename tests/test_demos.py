"""Every script in demos/ runs to completion."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# Lines a demo must print.  The default_no_credit campaign's seed 0 has 31
# tez_pool violations under each order; the demo shows 2 of the 62.  The
# single exchange checks its six wiring blocks and its three operations.
EXPECTED_LINES = {
    "fuzz_and_check.py": ["    … 60 more"],
    "single_exchange.py": ["checked 28 snapshots over 9 blocks"],
}


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_cleanly(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(demo)], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    for line in EXPECTED_LINES.get(demo.name, []):
        assert line in lines
