"""Every committed table and frozen reference value matches its generator,
and the stored Riemann-Siegel constants cover their calibration."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "scripts").glob("gen_*.py"))


def test_every_generator_is_checked():
    assert [p.name for p in SCRIPTS] == [
        "gen_kronrod.py", "gen_oracle_values.py", "gen_psi_tables.py",
        "gen_z_low_table.py"]


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_generator_check(script):
    pytest.importorskip("mpmath")
    # --check regenerates in memory and exits 1 on any difference
    res = subprocess.run([sys.executable, str(script), "--check"],
                         capture_output=True, text=True, timeout=600)
    assert res.returncode == 0, res.stdout + res.stderr


def test_rs_error_constants_check():
    # --check exits 1 if a suggested c_K exceeds the stored _RS_ERR_C[K]
    res = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "calibrate_rs_error.py"),
         "--check"], capture_output=True, text=True, timeout=600,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert res.returncode == 0, res.stdout + res.stderr
