"""Every committed table and frozen reference value matches its generator."""

import subprocess
import sys
from pathlib import Path

import pytest

pytest.importorskip("mpmath")

SCRIPTS = sorted((Path(__file__).resolve().parents[1] / "scripts").glob("gen_*.py"))


def test_every_generator_is_checked():
    assert [p.name for p in SCRIPTS] == [
        "gen_kronrod.py", "gen_oracle_values.py", "gen_psi_tables.py",
        "gen_z_low_table.py"]


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_generator_check(script):
    # --check regenerates in memory and exits 1 on any difference
    res = subprocess.run([sys.executable, str(script), "--check"],
                         capture_output=True, text=True, timeout=600)
    assert res.returncode == 0, res.stdout + res.stderr
