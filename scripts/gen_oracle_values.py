#!/usr/bin/env python3
"""Regenerate the frozen 30-digit reference values used in the tests.

Prints them, to compare against the constants in tests/test_special.py,
tests/test_hardy.py, tests/test_arith.py, tests/test_mellin.py; --check
reads those constants instead (module-level literals, complex(re, im) and
the Z_HIGH and Z_RS_REF tables) and exits 1 unless each one named here is
within binary64 rounding of its value.  Requires mpmath (dev-time only;
the package itself never imports it).
"""

import ast
import sys
from pathlib import Path

import mpmath as mp

mp.mp.dps = 30

# heights at which tests/test_hardy.py pins z_oracle_many's stated accuracy
Z_ORACLE_HEIGHTS = (1000.5, 2345.25, 3841.0, 8832.0, 17000.75, 29000.5,
                    41101.0, 48888.0)
# and z_rs_many's: 40 log-spaced heights over [10, 4e5], four digits each
Z_RS_HEIGHTS = (
    10.0, 13.12, 17.22, 22.59, 29.65, 38.91, 51.05, 66.99, 87.9, 115.3,
    151.4, 198.6, 260.6, 342.0, 448.8, 588.9, 772.7, 1014.0, 1331.0, 1746.0,
    2291.0, 3006.0, 3945.0, 5176.0, 6793.0, 8913.0, 11700.0, 15350.0,
    20140.0, 26430.0, 34680.0, 45500.0, 59710.0, 78350.0, 102800.0,
    134900.0, 177000.0, 232300.0, 304800.0, 400000.0)


def chi(s):
    """2^s pi^(s-1) sin(pi s/2) Gamma(1-s), the functional-equation factor."""
    return 2 ** s * mp.pi ** (s - 1) * mp.sin(mp.pi * s / 2) * mp.gamma(1 - s)


TESTS = Path(__file__).resolve().parent.parent / "tests"


def frozen_constants() -> dict:
    """Module-level numeric constants of the test files, by name; the
    entries of the Z_HIGH and Z_RS_REF tables as "Z_AT <height>"."""
    found = {}
    for path in sorted(TESTS.glob("test_*.py")):
        for node in ast.parse(path.read_text()).body:
            if not (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)):
                continue
            name, value = node.targets[0].id, node.value
            if isinstance(value, ast.Call) and getattr(value.func, "id", "") == "complex":
                found[name] = complex(*(ast.literal_eval(a) for a in value.args))
                continue
            try:
                lit = ast.literal_eval(value)
            except ValueError:
                continue
            if name in ("Z_HIGH", "Z_RS_REF"):
                found.update((f"Z_AT {t!r}", v) for t, v in lit.items())
            elif isinstance(lit, (int, float, complex)) and not isinstance(lit, bool):
                found[name] = lit
    return found


def check(rows) -> int:
    frozen = frozen_constants()
    bad = 0
    for label, value in rows:
        name = label.split(" = ")[0].strip()
        if name not in frozen:
            print(f"{name}: not frozen in the tests")
            bad += 1
            continue
        ref = complex(value)
        # a 20-digit literal read as binary64 is within one rounding
        if abs(complex(frozen[name]) - ref) > 4e-16 * abs(ref):
            print(f"{name}: tests hold {frozen[name]!r}, mpmath gives {value}")
            bad += 1
    print(f"{len(rows) - bad} of {len(rows)} frozen values match")
    return 1 if bad else 0


def main() -> int:
    rows = [
        ("SQRT_PI = gamma(1/2)", mp.gamma(mp.mpf(1) / 2)),
        ("GAMMA_2P5_3J", mp.gamma(mp.mpc(2.5, 3))),
        ("GAMMA_M1P5_0P5J", mp.gamma(mp.mpc(-1.5, 0.5))),
        ("GAMMA_19P5_2J", mp.gamma(mp.mpc(19.5, 2))),
        ("GAMMA_20P5_1J", mp.gamma(mp.mpc(20.5, 1))),
        ("GAMMA_0P7_0P1J", mp.gamma(mp.mpc(0.7, 0.1))),
        ("GAMMA_M3P3_4P8J", mp.gamma(mp.mpc(-3.3, 4.8))),
        ("GAMMA_M0P5_M2J", mp.gamma(mp.mpc(-0.5, -2))),
        ("GAMMA_M7P5_6J", mp.gamma(mp.mpc(-7.5, 6))),
        ("ZETA_2", mp.zeta(2)),
        ("ZETA_HALF", mp.zeta(mp.mpf(1) / 2)),
        ("ZETA_HALF_25J", mp.zeta(mp.mpc(0.5, 25))),
        ("CHI_2 = -2 pi^2", mp.pi ** mp.mpf("1.5") * mp.gamma(mp.mpf(-1) / 2)),
        ("CHI_0P3_15J", chi(mp.mpc(0.3, 15))),
        ("CHI_39P5_2J", chi(mp.mpc(39.5, 2))),
        ("CHI_41_2J", chi(mp.mpc(41, 2))),
        ("CHI_M0P7_3J", chi(mp.mpc(-0.7, 3))),
        ("CHI_2P5_4J", chi(mp.mpc(2.5, 4))),
        ("FIRST_ZERO", mp.im(mp.zetazero(1))),
        ("THETA_ZERO", mp.findroot(mp.siegeltheta, 17.8)),
        ("Z_10", mp.siegelz(10)),
        ("Z_100", mp.siegelz(100)),
        ("TWO_GAMMA_MINUS_LOG_2PI", 2 * mp.euler - mp.log(2 * mp.pi)),
        ("ZETA_3", mp.zeta(3)),
    ]
    rows += [(f"Z_AT {t!r}", mp.siegelz(t))
             for t in Z_ORACLE_HEIGHTS + Z_RS_HEIGHTS]
    if "--check" in sys.argv[1:]:
        return check(rows)
    for name, value in rows:
        print(f"{name:28s} = {value}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
