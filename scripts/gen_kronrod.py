#!/usr/bin/env python3
"""Generate the frozen Gauss-Kronrod 8/17 rule on [-1, 1].

The 17-point Kronrod extension of 8-point Gauss-Legendre keeps the 8 Gauss
nodes and adds the 9 zeros of the Stieltjes polynomial E_9, the monic odd
polynomial of degree 9 orthogonal to every polynomial of degree below 9
under the sign-changing weight P_8(x) on [-1, 1] (Kronrod 1965; Laurie,
Math. Comp. 66, 1997).  The coefficients of P_8 and E_9 are exact
rationals; their zeros are found at 50 digits as the roots of quartics in
x^2.  The K17 weights make the rule exact on 1, x, ..., x^16 (a linear
solve at 50 digits); the rule is then exact to degree 25, which the script
checks, together with positive weights.  The G8 weights are the
Gauss-Legendre weights 2 / ((1 - x^2) P_8'(x)^2).

The same file freezes the Legendre matrix of the 17 nodes: row n maps the
17 node values of a function to the coefficient of P_n in its degree-16
interpolant, the inverse of V[j][n] = P_n(x_j) (condition number 6.9).
Integrating that interpolant from -1 to any tau in [-1, 1] gives I_k
between a moment cache's anchors without new evaluations (Greengard, SIAM
J. Numer. Anal. 28, 1991).  The script checks that twice row 0 is the K17
weights and that the integrals of x^m, m <= 16, are exact at 50 digits.

Writes src/hardylab/_kronrod_table.py; --check regenerates it in memory and
exits 1 unless the committed file is byte-for-byte the same.  Requires mpmath
(dev-time only; the package itself never imports it).
"""

import sys
from fractions import Fraction
from pathlib import Path

import mpmath as mp

mp.mp.dps = 50

GAUSS = 8
NODES = 2 * GAUSS + 1
DEGREE = 3 * GAUSS + 1  # exactness of the Kronrod rule (GAUSS even)
OUT = Path(__file__).resolve().parent.parent / "src/hardylab/_kronrod_table.py"


def moment(m: int) -> Fraction:
    """integral of x^m over [-1, 1]."""
    return Fraction(2, m + 1) if m % 2 == 0 else Fraction(0)


def legendre(n: int) -> list:
    """Monomial coefficients (x^0 first) of P_n, by Bonnet's recurrence."""
    p0, p1 = [Fraction(1)], [Fraction(0), Fraction(1)]
    for j in range(1, n):
        nxt = [Fraction(0)] * (j + 2)
        for m, c in enumerate(p1):
            nxt[m + 1] += Fraction(2 * j + 1, j + 1) * c
        for m, c in enumerate(p0):
            nxt[m] -= Fraction(j, j + 1) * c
        p0, p1 = p1, nxt
    return p1 if n else p0


def q(v: Fraction):
    return mp.mpf(v.numerator) / v.denominator


def stieltjes() -> list:
    """Monomial coefficients of E_9 = x^9 + c_7 x^7 + ... + c_1 x, solved
    from integral P_8 E_9 x^i = 0 for odd i < 9 (even i vanish by parity)."""
    p = legendre(GAUSS)
    odd = range(1, GAUSS + 1, 2)  # the unknowns c_1, c_3, ..., c_7

    def inner(j: int, i: int):
        return q(sum((c * moment(m + j + i) for m, c in enumerate(p)), Fraction(0)))

    a = mp.matrix([[inner(j, i) for j in odd] for i in odd])
    rhs = mp.matrix([-inner(GAUSS + 1, i) for i in odd])
    coef = [mp.mpf(0)] * (GAUSS + 2)
    for j, c in zip(odd, mp.lu_solve(a, rhs)):
        coef[j] = c
    coef[GAUSS + 1] = mp.mpf(1)
    return coef


def positive_roots(coef: list) -> list:
    """Positive zeros, ascending, of an even or odd polynomial given by
    monomial coefficients, through the polynomial in y = x^2."""
    first = 0 if coef[0] != 0 else 1
    quad = [coef[m] for m in range(first, len(coef), 2)]
    ys = mp.polyroots(list(reversed(quad)), maxsteps=200, extraprec=200)
    return sorted(mp.sqrt(mp.re(y)) for y in ys)


def rule():
    """(nodes, K17 weights, G8 weights) on [-1, 1], nodes ascending."""
    gauss = positive_roots([q(c) for c in legendre(GAUSS)])
    kron = positive_roots(stieltjes())
    pos = sorted(gauss + kron)
    # E_9 is odd, so 0 is the middle Kronrod node
    nodes = [-x for x in reversed(pos)] + [mp.mpf(0)] + pos
    a = mp.matrix([[x ** m for x in nodes] for m in range(NODES)])
    rhs = mp.matrix([q(moment(m)) for m in range(NODES)])
    wk = list(mp.lu_solve(a, rhs))
    dp = [m * c for m, c in enumerate(legendre(GAUSS))][1:]

    def gauss_weight(x):
        d = mp.fsum(q(c) * x ** m for m, c in enumerate(dp))
        return 2 / ((1 - x * x) * d * d)

    # the Gauss and Kronrod nodes interlace: the Gauss nodes are the
    # odd-numbered ones (the exactness checks below fail otherwise)
    wg = [gauss_weight(x) if i % 2 else mp.mpf(0) for i, x in enumerate(nodes)]
    for name, w, degree in (("K", wk, DEGREE), ("G", wg, 2 * GAUSS - 1)):
        for m in range(degree + 1):
            if abs(mp.fsum(a * x ** m for a, x in zip(w, nodes)) - q(moment(m))) > 1e-40:
                raise RuntimeError(f"{name} rule not exact for x^{m}")
    if min(wk) <= 0:
        raise RuntimeError("non-positive Kronrod weight")
    return nodes, wk, wg


def legendre_at(n: int, x):
    """P_n(x) by Bonnet's recurrence."""
    p0, p1 = mp.mpf(1), x
    if n == 0:
        return p0
    for j in range(1, n):
        p0, p1 = p1, ((2 * j + 1) * x * p1 - j * p0) / (j + 1)
    return p1


def legendre_matrix(nodes: list, wk: list) -> list:
    """Rows n = 0..16: node values -> coefficient of P_n of the interpolant."""
    v = mp.matrix([[legendre_at(n, x) for n in range(NODES)] for x in nodes])
    inv = mp.inverse(v)
    rows = [[inv[n, j] for j in range(NODES)] for n in range(NODES)]
    if max(abs(2 * rows[0][j] - wk[j]) for j in range(NODES)) > 1e-40:
        raise RuntimeError("row 0 of the Legendre matrix is not the K17 rule")
    # integral over [-1, tau] of P_n: tau + 1 for n = 0, else
    # (P_{n+1}(tau) - P_{n-1}(tau)) / (2n + 1)
    for tau in (mp.mpf(-1), mp.mpf("-0.3"), mp.mpf("0.71"), mp.mpf(1)):
        q = [tau + 1] + [(legendre_at(n + 1, tau) - legendre_at(n - 1, tau))
                         / (2 * n + 1) for n in range(1, NODES)]
        for m in range(NODES):
            got = mp.fsum(q[n] * mp.fsum(rows[n][j] * x ** m
                                         for j, x in enumerate(nodes))
                          for n in range(NODES))
            if abs(got - (tau ** (m + 1) - (-1) ** (m + 1)) / (m + 1)) > 1e-40:
                raise RuntimeError(f"interpolant integral not exact for x^{m}")
    return rows


def render() -> str:
    nodes, wk, wg = rule()
    lmat = legendre_matrix(nodes, wk)
    half = NODES // 2
    # round the upper half and mirror it, so the table is exactly symmetric
    rows = [(float(x), float(a), float(b))
            for x, a, b in zip(nodes[half:], wk[half:], wg[half:])]
    rows = [(-x, a, b) for x, a, b in reversed(rows[1:])] + rows
    lines = [
        f'"""Gauss-Kronrod {GAUSS}/{NODES} rule on [-1, 1].',
        "",
        "Generated by scripts/gen_kronrod.py (50-digit arithmetic).  Each line",
        f"of KRONROD holds a node, its K{NODES} weight and its G{GAUSS} weight; "
        "nodes",
        f"ascend, and the G{GAUSS} nodes are the odd-numbered lines counting "
        "from 0",
        f"(their G{GAUSS} weight is 0 on the other lines).  K{NODES} is exact "
        f"to degree {DEGREE},",
        f"G{GAUSS} to degree {2 * GAUSS - 1}.  Line n of LEGENDRE maps the "
        f"{NODES} node",
        f"values of a function to the coefficient of P_n in its degree-{NODES - 1}",
        "interpolant.  The numbers are text, parsed on import.  Do not edit by",
        'hand."""',
        "",
        'KRONROD = """',
    ]
    lines += [" ".join(repr(v) for v in row) for row in rows]
    lines += ['"""', "", 'LEGENDRE = """']
    # row n is even (n even) or odd (n odd) under x -> -x: round the upper
    # half of each row and mirror it, so the matrix is exactly symmetric
    for n, row in enumerate(lmat):
        # exact zeros (an odd P_n takes nothing from x = 0, P_8 nothing
        # from its own zeros, the G8 nodes) print as zeros
        upper = [float(v) if abs(v) > 1e-40 else 0.0 for v in row[half:]]
        sign = -1.0 if n % 2 else 1.0
        lines.append(" ".join(repr(v) for v in
                              [sign * v for v in reversed(upper[1:])] + upper))
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
