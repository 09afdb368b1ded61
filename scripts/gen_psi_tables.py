#!/usr/bin/env python3
"""Generate the fixed Taylor tables for Psi(p) = cos(2pi(p^2-p-1/16))/cos(2pi p).

Twenty expansion centers (k+0.5)/20 cover [0,1] while avoiding the removable
singularities at p = 1/4, 3/4; each piece holds the order-36 Taylor series
formed by power-series arithmetic at 100 digits: cos of the argument
polynomial b through c' = -s b' and s' = c b', for the numerator and the
denominator, then one series division (at 60 digits, 41 of the 740 floats
come out different).  hardy.py folds these series at import into one
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

DPS = 100
mp.mp.dps = DPS

ORDER = 36
CENTERS = [mp.mpf(2 * k + 1) / 40 for k in range(20)]
OUT = Path(__file__).resolve().parent.parent / "src/hardylab/_psi_tables.py"


def cos_series(b):
    """Taylor coefficients, orders 0..ORDER, of cos(b(u)) for the polynomial
    b(u) = sum b[j] u^j, from c' = -s b' and s' = c b':
    n c_n = -sum j b_j s_{n-j} and n s_n = sum j b_j c_{n-j}."""
    c, s = [mp.cos(b[0])], [mp.sin(b[0])]
    for n in range(1, ORDER + 1):
        terms = [(j * b[j], n - j) for j in range(1, min(n, len(b) - 1) + 1)]
        c.append(-mp.fsum(w * s[i] for w, i in terms) / n)
        s.append(mp.fsum(w * c[i] for w, i in terms) / n)
    return c


def psi_taylor(p0):
    """Taylor coefficients of Psi at p0, orders 0..ORDER."""
    two_pi = 2 * mp.pi
    num = cos_series([two_pi * (p0 * p0 - p0 - mp.mpf(1) / 16),
                      two_pi * (2 * p0 - 1), two_pi])
    den = cos_series([two_pi * p0, two_pi])
    q = []
    for n in range(ORDER + 1):
        q.append((num[n] - mp.fsum(den[j] * q[n - j] for j in range(1, n + 1)))
                 / den[0])
    return q


def render() -> str:
    rows = [[float(x) for x in psi_taylor(c)] for c in CENTERS]

    lines = [
        '"""Taylor tables for the Riemann-Siegel remainder function',
        "Psi(p) = cos(2pi(p^2 - p - 1/16))/cos(2pi p).",
        "",
        f"Generated by scripts/gen_psi_tables.py ({DPS}-digit arithmetic, "
        "order 36,",
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
