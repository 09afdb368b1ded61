#!/usr/bin/env python3
"""Generate the frozen piecewise polynomial table of Hardy's Z on [0, 10].

Forty pieces of width 1/4, each the degree-16 interpolant of 30-digit mpmath
siegelz values at the 17 Chebyshev points (first kind) of the piece, written
as coefficients of u^m, u = t - center, so that hardy.z_eval_many evaluates a
height with one gather and one Horner pass (Trefethen, Approximation Theory
and Approximation Practice, 2013).  Beside it, tests/z_low_check.txt holds
siegelz values at 201 off-node heights (0, every piece edge, nextafter(10, 0)
and four fixed interior points per piece), against which tests/test_hardy.py
checks the table's stated error.

Writes src/hardylab/_z_low_table.py and tests/z_low_check.txt; --check
regenerates both in memory and exits 1 unless both committed files are
byte-for-byte the same.  Requires mpmath (dev-time only; the package itself
never imports it).
"""

import math
import sys
from pathlib import Path

import mpmath as mp

mp.mp.dps = 30

PIECES = 40
DEGREE = 16
WIDTH = mp.mpf(10) / PIECES
# interior check points of each piece, as fractions of its width
CHECK_FRACTIONS = (0.1, 0.35, 0.6, 0.85)
ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "src/hardylab/_z_low_table.py"
CHECK_OUT = ROOT / "tests/z_low_check.txt"


def piece_coefficients(j: int) -> list:
    """Coefficients of u^0..u^DEGREE of the Chebyshev interpolant of Z on
    piece j, u = t - center."""
    n = DEGREE + 1
    center = (j + mp.mpf(1) / 2) * WIDTH
    half = WIDTH / 2
    xs = [mp.cos((2 * i + 1) * mp.pi / (2 * n)) for i in range(n)]
    fs = [mp.siegelz(center + half * x) for x in xs]
    # Chebyshev coefficients by the discrete orthogonality of T_k at the nodes
    cheb = [2 * mp.fsum(f * mp.cos(k * (2 * i + 1) * mp.pi / (2 * n))
                        for i, f in enumerate(fs)) / n for k in range(n)]
    cheb[0] /= 2
    # powers of x in T_k, by T_{k+1} = 2x T_k - T_{k-1}
    cheb_t = [[1], [0, 1]]
    while len(cheb_t) < n:
        nxt = [0] + [2 * c for c in cheb_t[-1]]
        for m, c in enumerate(cheb_t[-2]):
            nxt[m] -= c
        cheb_t.append(nxt)
    mono = [mp.fsum(cheb[k] * tk[m] for k, tk in enumerate(cheb_t) if m < len(tk))
            for m in range(n)]
    # x = u / half
    return [float(c / half ** m) for m, c in enumerate(mono)]


def check_heights() -> list:
    width = 10.0 / PIECES
    ts = [j * width for j in range(PIECES)] + [math.nextafter(10.0, 0.0)]
    ts += [(j + f) * width for j in range(PIECES) for f in CHECK_FRACTIONS]
    return sorted(ts)


def render_table() -> str:
    lines = [
        '"""Piecewise polynomial table of Hardy\'s Z on [0, 10].',
        "",
        "Generated by scripts/gen_z_low_table.py (30-digit mpmath siegelz at",
        f"the {DEGREE + 1} Chebyshev points of each of {PIECES} pieces of "
        f"width 10/{PIECES}).",
        f"Line j of Z_LOW_TAYLOR holds the coefficients of u^0..u^{DEGREE} on",
        f"piece j, u = t - (j + 1/2) * 10/{PIECES}.  The numbers are text,",
        "parsed on import: compiled as float literals they cost a few ms in",
        "every process that imports without a bytecode cache.  Do not edit",
        'by hand."""',
        "",
        f"Z_LOW_PIECES = {PIECES}",
        f"Z_LOW_DEGREE = {DEGREE}",
        "",
        'Z_LOW_TAYLOR = """',
    ]
    for j in range(PIECES):
        lines.append(" ".join(repr(c) for c in piece_coefficients(j)))
    lines.append('"""')
    return "\n".join(lines) + "\n"


def render_check() -> str:
    """One line per check height: t and siegelz(t)."""
    return "".join(f"{t!r} {float(mp.siegelz(mp.mpf(t)))!r}\n"
                   for t in check_heights())


def main() -> int:
    outputs = ((OUT, render_table()), (CHECK_OUT, render_check()))
    if "--check" in sys.argv[1:]:
        same = [path.exists() and path.read_bytes() == text.encode()
                for path, text in outputs]
        for (path, _), ok in zip(outputs, same):
            print(f"{path.name}: {'matches' if ok else 'differs from'} "
                  "the generator")
        return 0 if all(same) else 1
    for path, text in outputs:
        path.write_text(text)
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
