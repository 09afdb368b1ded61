#!/usr/bin/env python3
"""Generate the fixed Taylor tables for Psi(p) = cos(2pi(p^2-p-1/16))/cos(2pi p).

Twenty expansion centers (k+0.5)/20 cover [0,1] while avoiding the removable
singularities at p = 1/4, 3/4; each piece holds the order-36 Taylor series
computed at 60 digits.  hardy.py folds these series at import into one
polynomial per piece for each remainder term C_0..C_4 (a weighted sum of
Psi and its derivatives up to the 12th) and cuts the folded polynomials at
degree 14, where the dropped terms sum to below 1e-20 for |u| <= 0.025.
The folded C_k agree with 60-digit derivatives of Psi to about one unit in
the last place at sampled p.

Writes src/hardylab/_psi_tables.py; the output is committed.  --check
regenerates it in memory and exits 1 unless the committed file is
byte-for-byte the same.
"""

import sys
from pathlib import Path

import mpmath as mp

mp.mp.dps = 60

ORDER = 36
CENTERS = [mp.mpf(2 * k + 1) / 40 for k in range(20)]
OUT = Path(__file__).resolve().parent.parent / "src/hardylab/_psi_tables.py"


def psi(p):
    return mp.cos(2 * mp.pi * (p * p - p - mp.mpf(1) / 16)) / mp.cos(2 * mp.pi * p)


def render() -> str:
    rows = []
    for c in CENTERS:
        coeffs = mp.taylor(psi, c, ORDER)
        rows.append([float(x) for x in coeffs])

    lines = [
        '"""Taylor tables for the Riemann-Siegel remainder function',
        "Psi(p) = cos(2pi(p^2 - p - 1/16))/cos(2pi p).",
        "",
        "Generated by scripts/gen_psi_tables.py (60-digit arithmetic, order 36,",
        "centers (k+0.5)/20 for k = 0..19).  Line k of PSI_TAYLOR holds the",
        "Taylor coefficients of orders 0..36 at center k.  The numbers are",
        "text, parsed on import: compiled as float literals they cost a few ms",
        "in every process that imports without a bytecode cache.  Do not edit",
        'by hand."""',
        "",
        "PSI_ORDER = %d" % ORDER,
        "PSI_PIECES = 20",
        "",
        'PSI_TAYLOR = """',
    ]
    lines += [" ".join(repr(v) for v in row) for row in rows]
    lines.append('"""')
    return "\n".join(lines) + "\n"


def main() -> int:
    text = render()
    if "--check" in sys.argv[1:]:
        same = OUT.exists() and OUT.read_bytes() == text.encode()
        print(f"{OUT.name}: {'matches' if same else 'differs from'} the generator")
        return 0 if same else 1
    OUT.write_text(text)
    print(f"wrote {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
