"""Hardy's Z function: frozen tables, Riemann-Siegel evaluation and a slow
oracle.

z_eval_many reads Z from two frozen polynomial tables:

- Below t = 10, a piecewise Chebyshev interpolant of Z on [0, 10], forty
  pieces of degree 16 fitted to 30-digit mpmath values
  (scripts/gen_z_low_table.py); one Horner pass per height.
- From t = 10 up, z_rs_many: the classical main sum
  2*sum n^{-1/2} cos(theta(t) - t log n) plus the remainder
  (-1)^{N+1} a^{-1/2} sum_{k<=K} C_k(p) a^{-k}, a = sqrt(t / 2 pi), with up
  to five correction terms C_0..C_4 built from
  Psi(p) = cos(2*pi*(p^2 - p - 1/16)) / cos(2*pi*p).  Each C_k is one
  piecewise polynomial, folded at import from the frozen Taylor tables of
  Psi (scripts/gen_psi_tables.py), and for each main-sum length N the
  whole remainder folds into one polynomial per piece.  Those of every
  N <= N_MULT = 512 are kept, one table per correction count indexed by N
  and piece, and filled 16 lengths at a time on first use.
  Phases are reduced mod 2 pi, and their cosines and sines come from fixed
  polynomials in numpy arithmetic (the main-sum section below), so Z's
  bits do not depend on the platform libm's cos and sin (the logarithms
  behind theta and ln n still come from np.log).  n^{-1/2-it} is
  completely multiplicative, so only the prime terms of the main sum take
  a phase -t log p and a cosine and sine; each composite term is one
  complex product of two terms already computed, and the sum is
  Re(e^{i theta} sum n^{-1/2-it}).  Z stops where this kernel's terms
  stop, at Z_TOP = 2 pi (N_MULT + 1)^2 (about 1.65e6), the first height
  with more than N_MULT terms.
  A height's value then does not depend on its batch as long as numpy
  rounds a complex product the same way at every length and layout;
  tests/test_hardy.py checks that for the layouts used.  numpy 2.4 does,
  into a distinct output, but rounds a product whose output aliases an
  input differently when the array has one element, so no product is
  formed in place.  Products formed from real multiplies and adds, which
  round alike anywhere, gave up the kernel's gain on [1e3, 5e4].  Each
  row sums exactly its N terms in a fixed order.

z_oracle_many computes e^{i theta(t)} zeta(1/2+it) with the one
Euler-Maclaurin zeta of special.py (a truncation per height, double-double
phases) and is the independent reference for every Z check; z_oracle is its
one-height form.  Both are within 1e-11 of mpmath for t <= 5e4, and a
height's value does not depend on its batch.  The rotation convention
(continuous theta branch with theta(0) = 0) makes Z real with
Z(0) = zeta(1/2) < 0; the opposite square-root branch would flip Z globally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyError, DomainError
from .special import (_ELEMS, TWO_PI, TWO_PI_LO, theta_batch, theta_many,
                      zeta_half_batch)

# -- Remainder-correction tables -------------------------------------------
#
# Twenty expansion centers (k+0.5)/20 cover p in [0, 1] with |u| <= 0.025
# while avoiding the removable singularities at 1/4, 3/4.  Each C_k is a
# fixed combination of Psi derivatives (Haselgrove/Pugh tabulation of the
# classical expansion; convention pinned empirically against z_oracle, see
# scripts/calibrate_rs_error.py), and the derivative of a Taylor polynomial
# is again one, so the frozen Psi tables (scripts/gen_psi_tables.py) fold at
# import into one polynomial per piece for each C_k.  The folded polynomials
# are cut at degree _C_DEGREE: the dropped terms sum to below 1e-20 at
# |u| <= 0.025 (tests/test_hardy.py checks the bound).

from ._psi_tables import PSI_ORDER, PSI_PIECES, PSI_TAYLOR

_PSI_TAYLOR = np.array(PSI_TAYLOR.split(), dtype=float).reshape(
    PSI_PIECES, PSI_ORDER + 1)  # [piece, order]
_PIECE_CENTERS = (np.arange(PSI_PIECES) + 0.5) / PSI_PIECES
_C_DEGREE = 14
_PI2 = math.pi ** 2
# C_k = sum of weight * Psi^{(d)} over the (d, weight) pairs of entry k
_C_TERMS = (
    ((0, 1.0),),
    ((3, -1.0 / (96.0 * _PI2)),),
    ((2, 1.0 / (64.0 * _PI2)), (6, 1.0 / (18432.0 * _PI2 ** 2))),
    ((1, -1.0 / (64.0 * _PI2)), (5, -1.0 / (3840.0 * _PI2 ** 2)),
     (9, -1.0 / (5308416.0 * _PI2 ** 3))),
    ((0, 1.0 / (128.0 * _PI2)), (4, 19.0 / (24576.0 * _PI2 ** 2)),
     (8, 11.0 / (5898240.0 * _PI2 ** 3)),
     (12, 1.0 / (2038431744.0 * _PI2 ** 4))),
)


def _fold_correction_tables() -> np.ndarray:
    """Coefficient of u^m in C_k on each piece, laid out [m, k, piece] so
    that tiling along the last axis gives contiguous (k, row) blocks."""
    out = np.zeros((PSI_ORDER + 1, len(_C_TERMS), PSI_PIECES))
    for k, terms in enumerate(_C_TERMS):
        for d, w in terms:
            # u^m in Psi^{(d)} is (m+d)!/m! times u^(m+d) in Psi
            falling = np.array([math.perm(m + d, d)
                                for m in range(PSI_ORDER + 1 - d)], float)
            out[:PSI_ORDER + 1 - d, k] += w * (_PSI_TAYLOR[:, d:] * falling).T
    return out


_C_TABLE = _fold_correction_tables()[:_C_DEGREE + 1]
# the binomial series' ratio of u^m to u^(m-1) over r = 1/a, -(k+1/2+m-1)/m,
# at [m - 1, k]
_B_STEP = np.array([[-(k + 0.5 + (m - 1)) / m for k in range(len(_C_TERMS))]
                    for m in range(1, _C_DEGREE + 1)])[:, :, None]

# heights per z_rs_many chunk (and per _z_low chunk): 17,476, the rows of
# 2^18 floats of degree-14 coefficients
_CHUNK = _ELEMS // (_C_DEGREE + 1)


def _remainder_rows(n: np.ndarray) -> np.ndarray:
    """The whole remainder (-1)^(N+1) a^{-1/2} sum_{k<=K} C_k(p) a^{-k} as
    coefficients of u^m on each piece, for the main-sum lengths N in n, laid
    out [K, m, i * PSI_PIECES + piece] for N = n[i], K = 0..4.

    On piece j, a = N + c_j + u, so a^{-k-1/2} is the binomial series of
    (N + c_j + u)^{-k-1/2} in u; its product with C_k is cut at degree
    _C_DEGREE, where the dropped terms stay below 1e-20 at |u| <= 0.025
    (tests/test_hardy.py checks the bound).  Only elementwise +, -, *, /
    and sqrt go into it, all exactly rounded, so a length's coefficients,
    and with them a height's value, are the same whatever batch asks and
    whichever lengths are built beside it."""
    counts = len(_C_TERMS)
    big_a = (n[:, None] + _PIECE_CENTERS).ravel()
    r = 1.0 / big_a
    # b[m, k]: coefficient of u^m in (-1)^(N+1) (N + c_j + u)^{-k-1/2}
    b = np.empty((_C_DEGREE + 1, counts, big_a.size))
    b[0, 0] = np.repeat(np.where(n % 2 == 1, 1.0, -1.0), PSI_PIECES) \
        / np.sqrt(big_a)
    for k in range(1, counts):
        np.multiply(b[0, k - 1], r, out=b[0, k])
    for m in range(1, _C_DEGREE + 1):
        np.multiply(b[m - 1], _B_STEP[m - 1], out=b[m])
        b[m] *= r
    # prod[m, k]: the u^m coefficient of C_k times b[:, k], its products
    # added in order of C_k's degree i.  No product is 0 (C has no zero
    # coefficient, b none), so starting from the i = 0 products gives the
    # bits of starting from zeros.  C is tiled, not broadcast over the
    # lengths: a broadcast cuts numpy's inner loops to PSI_PIECES elements,
    # which measured slower.
    c = np.tile(_C_TABLE, len(n))
    prod = np.multiply(c[0], b)
    term = np.empty_like(b)
    for i in range(1, _C_DEGREE + 1):
        top = _C_DEGREE + 1 - i
        np.multiply(c[i], b[:top], out=term[:top])
        prod[i:] += term[:top]
    # the remainder to K corrections: the products summed over k <= K in order
    out = np.empty((counts, _C_DEGREE + 1, big_a.size))
    out[0] = prod[:, 0]
    for k in range(1, counts):
        np.add(out[k - 1], prod[:, k], out=out[k])
    return out


def _horner(table: np.ndarray, idx: np.ndarray, u: np.ndarray) -> np.ndarray:
    """sum_m table[m, idx] u^m, one Horner pass that takes each coefficient
    row's columns idx as it reaches it."""
    acc = table[-1].take(idx)
    for row in table[-2::-1]:
        acc *= u
        acc += row.take(idx)
    return acc


# -- Z below t = 10 ------------------------------------------------------------
#
# A frozen piecewise Chebyshev interpolant of Z on [0, 10], written as one
# polynomial in u = t - center per piece (scripts/gen_z_low_table.py).  Its
# error against 30-digit mpmath siegelz is 2.2e-16 at the 201 frozen
# off-node heights; _LOW_ERR is the stated (and tested) bound.

from ._z_low_table import Z_LOW_DEGREE, Z_LOW_PIECES, Z_LOW_TAYLOR

_LOW_WIDTH = 10.0 / Z_LOW_PIECES
_LOW_TABLE = np.array(Z_LOW_TAYLOR.split(), dtype=float).reshape(
    Z_LOW_PIECES, Z_LOW_DEGREE + 1).T.copy()  # [m, piece]
_LOW_ERR = 1e-15


def _z_low(t: np.ndarray) -> np.ndarray:
    """Z from the frozen table at heights in [0, 10), _CHUNK at a time."""
    out = np.empty_like(t)
    for lo in range(0, len(t), _CHUNK):
        s = t[lo:lo + _CHUNK]
        idx = np.minimum((s / _LOW_WIDTH).astype(np.intp), Z_LOW_PIECES - 1)
        out[lo:lo + _CHUNK] = _horner(_LOW_TABLE, idx,
                                      s - (idx + 0.5) * _LOW_WIDTH)
    return out


# Remainder constants: err_est = _RS_ERR_C[K] * t^{-(2K+3)/4}; empirical,
# calibrated against z_oracle_many on t in [50, 5000]
# (scripts/calibrate_rs_error.py, sup times 1.5) and rounded up.
_RS_ERR_C = (0.19, 0.08, 0.016, 0.045, 0.13)


def z_err_est(t, corrections: int = 3):
    """Stated error of z_eval_many at t: _RS_ERR_C[K] * t^{-(2K+3)/4} for
    t >= 10 and the frozen table's tested bound _LOW_ERR (1e-15) below.  A
    scalar t gives a 0-d array, computed with scalar pow as z_rs has always
    done."""
    if not 0 <= corrections <= 4:
        raise DomainError("corrections must be in [0, 4]")
    t = np.asarray(t, dtype=float)
    rs = (_RS_ERR_C[corrections]
          * np.maximum(t, 10.0) ** (-(2 * corrections + 3) / 4.0))
    return np.where(t < 10.0, _LOW_ERR, rs)


# -- The main sum ------------------------------------------------------------
#
# Phases x (theta and -t ln p) lie in the hundreds and up.  _cis_of_quarter
# reduces x mod 2 pi (Cody & Waite 1980) to r and takes a quarter of it,
# |r / 4| <= pi / 4, where two fixed polynomials give c = cos(r / 4) and
# s = sin(r / 4) (_cis_leaf); cos r and sin r follow by doubling twice.
#
# 2 pi = _RED_HI + _RED_LO.  _RED_HI = 3217 / 512 has 12 significant bits,
# so k * _RED_HI is exact for |k| < 2^41; below Z_TOP, |x| < 1.1e7.
# _RED_LO is 2 pi - _RED_HI rounded, 1.3e-21 off.
_RED_HI = 3217.0 / 512.0
_RED_LO = (TWO_PI - _RED_HI) + TWO_PI_LO
# fdlibm's minimax kernels for |y| <= pi / 4 (Sun Microsystems, k_cos.c
# C1..C6 and k_sin.c S1..S6, 1993), each within 2^-58 of its function:
# with z = y^2, cos y = 1 + z (z P_c(z) - 1/2) and sin y = y + y (z P_s(z)
# + 0).  Columns (cos, sin): the coefficients of P_c and P_s, highest
# first, then the constants added to z P(z).
_CIS_COEF = np.array([
    [-1.13596475577881948265e-11, 1.58969099521155010221e-10],
    [2.08757232129817482790e-09, -2.50507602534068634195e-08],
    [-2.75573143513906633035e-07, 2.75573137070700676789e-06],
    [2.48015872894767294178e-05, -1.98412698298579493134e-04],
    [-1.38888888888741095749e-03, 8.33333333332248946124e-03],
    [4.16666666666666019037e-02, -1.66666666666666324348e-01],
    [-0.5, 0.0],
])[:, :, None]


def _cis_leaf(y: np.ndarray, out: np.ndarray) -> None:
    """cos y into out[0] and sin y into out[1], for 1-d y, |y| <= pi / 4.

    One Horner pass over the two stacked rows of out, each with its column
    of _CIS_COEF, then each row's tail.  Within one ulp of libm and of
    120-bit mpmath (measured on a dense grid of the range;
    tests/test_hardy.py checks both).  At y = +-0, z P_s(z) is -0, and
    y + y (-0) would be +0 for either sign; adding +0 first makes it +0, so
    y + y (+0) keeps the sign of y."""
    z = y * y
    np.multiply(_CIS_COEF[0], z, out=out)
    for c in _CIS_COEF[1:-1]:
        out += c
        out *= z
    out += _CIS_COEF[-1]
    cos, sin = out
    cos *= z
    cos += 1.0
    sin *= y
    sin += y


def _cis_of_quarter(y: np.ndarray, out: np.ndarray) -> None:
    """cos(4 y) into out[0] and sin(4 y) into out[1], for 1-d quarter phases
    y = x / 4 with |x| < 2^41 pi; y is overwritten.

    First y becomes r / 4, where r = x - 2 pi k and k = rint(x / 2 pi), with
    out's rows holding k and a product.  r / 4 is formed as
    y - k * _RED_HI / 4, which is exact (k * _RED_HI / 4 is exact and a
    multiple of 2^-11, so of ulp(y), and the difference is below 2 |y|),
    minus k * _RED_LO / 4.  That is off by at most |k| * 1.3e-21 plus half
    an ulp of k * _RED_LO, under 2^-17 ulp(x), plus the final rounding of
    r / 4, |r / 4| <= pi / 4, the range of _cis_leaf.  Then with
    c = cos(r / 4) and s = sin(r / 4) (_cis_leaf), cos r = 8 (c^2 - 1/2)^2 - 1
    and sin r = 8 s c (c^2 - 1/2), where c^2 - 1/2 is exact.  Each is within
    2^-48 + 2^-17 ulp(x) of cos x and sin x (measured against np.cos and
    np.sin for |x| <= 1e3: 13 * 2^-53 and 10.25 * 2^-53, where libm's c
    and s gave 13 and 8; tests/test_hardy.py checks the bound).  Every step
    is elementwise, so an element's bits do not depend on its neighbours."""
    c, s = out
    np.multiply(y, 2.0 / math.pi, out=c)
    np.rint(c, out=c)
    y -= np.multiply(c, 0.25 * _RED_HI, out=s)
    y -= np.multiply(c, 0.25 * _RED_LO, out=s)
    _cis_leaf(y, out)
    np.square(c, out=y)
    y -= 0.5
    s *= c
    np.multiply(y, 8.0, out=c)
    s *= c
    c *= y
    c -= 1.0


# -- The multiplicative main sum ----------------------------------------------
#
# n -> n^{-1/2 - it} is completely multiplicative, so only the prime terms
# need a phase and a cosine and sine; the term of a composite n = p q, p its
# least prime factor, is the complex product of two terms already computed.
# The sum is then Re(e^{i theta} sum_{n<=N} n^{-1/2-it}).  Z stops at Z_TOP,
# the first height with more than N_MULT terms (the benchmark's heights stop
# at N = 89).
N_MULT = 512
Z_TOP = TWO_PI * (N_MULT + 1) ** 2
# floats of a block's array (4 MB); on 65,536 heights 2^18 was 4-9% slower
# and 2^20 up to 7%
_MULT_WORK = 1 << 19


def _least_prime_factors(n: int) -> np.ndarray:
    """lpf[m] for m <= n (lpf[0] = 0, lpf[1] = 1), by a sieve."""
    lpf = np.arange(n + 1)
    for p in range(2, math.isqrt(n) + 1):
        if lpf[p] == p:
            v = lpf[p * p::p]
            np.minimum(v, p, out=v)
    return lpf


_LPF = _least_prime_factors(N_MULT)
_PRIMES = np.flatnonzero(_LPF == np.arange(N_MULT + 1))[2:]
# -ln p / 4, exact: its products with t are the bits of -ln p times t / 4
_NEG_QUARTER_LN_P = -0.25 * np.log(_PRIMES.astype(float))[:, None]
_INV_SQRT_P = (1.0 / np.sqrt(_PRIMES.astype(float)))[:, None]
# floats per row of a block of largest length N: the phases, cosines and
# sines of theta and the pi(N) primes, then complex terms: the primes', the
# N // 2 + 1 kept products', the last product's and the running sum
_PI = np.searchsorted(_PRIMES, np.arange(N_MULT + 1), side="right")
_ROW_WORK = 3 * (_PI + 1) + 2 * _PI + 2 * (np.arange(N_MULT + 1) // 2 + 3)


def _main_mult(t: np.ndarray, theta: np.ndarray, N: np.ndarray,
               out: np.ndarray) -> None:
    """Add 2 sum_{n<=N} n^{-1/2} cos(theta - t ln n) to out, for rows sorted
    by N <= N_MULT, in blocks of at most _MULT_WORK floats of _ROW_WORK."""
    lo = 0
    while lo < len(N):
        # the most rows whose arrays fit
        cap = min(len(N) - lo, _MULT_WORK // int(_ROW_WORK[N[lo]]))
        fits = _ROW_WORK[N[lo:lo + cap]] * np.arange(1, cap + 1) <= _MULT_WORK
        s = slice(lo, lo + max(1, int(np.count_nonzero(fits))))
        out[s] += 2.0 * _mult_block(t[s], theta[s], N[s])
        lo = s.stop


def _mult_block(t: np.ndarray, theta: np.ndarray,
                N: np.ndarray) -> np.ndarray:
    """One block of _main_mult.  The terms n^{-1/2-it} of the primes up to
    the block's largest N come from their phases, in one pass with theta's;
    each composite's is one product, W[n] = W[lpf(n)] W[n / lpf(n)].  Then
    one product and one sum pass per n, over the rows with N >= n (a suffix
    of the sorted rows), so a row sums exactly its N terms in n order and
    its value does not depend on the block, given complex products that
    round alike at every length and layout.  Only the terms up to
    max N / 2 are kept: no product has a larger factor.  No product writes
    into one of its inputs: numpy rounds an aliased complex product of one
    element differently from a longer one (module docstring).

    The block's arrays are views of one array: as separate arrays, glibc
    gave their memory back to the system after each block, and a walk chunk
    took 7,400 page faults and 1.7x the time (fresh process, 2-core Xeon)."""
    rows, n_max = len(N), int(N[-1])
    pi = int(_PI[n_max])
    work = np.empty(rows * int(_ROW_WORK[n_max]))
    y, c, s = phases = work[:3 * (pi + 1) * rows].reshape(3, pi + 1, rows)
    w = work[3 * (pi + 1) * rows:].view(complex).reshape(-1, rows)
    prime_terms, keep, last, acc = w[:pi], w[pi:-2], w[-2], w[-1]
    # quarter phases, which _cis_of_quarter takes
    np.multiply(theta, 0.25, out=y[0])
    np.multiply(_NEG_QUARTER_LN_P[:pi], t, out=y[1:])
    _cis_of_quarter(y.reshape(-1), phases[1:].reshape(2, -1))
    # c[0] and s[0] are theta's cosine and sine, the rows after the primes'
    np.multiply(c[1:], _INV_SQRT_P[:pi], out=prime_terms.real)
    np.multiply(s[1:], _INV_SQRT_P[:pi], out=prime_terms.imag)
    acc[:] = 1.0
    first = np.searchsorted(N, np.arange(n_max + 1)).tolist()
    terms = [None] * (n_max // 2 + 1)
    prime_rows = iter(prime_terms)
    for n, p in zip(range(2, n_max + 1), _LPF[2:n_max + 1].tolist()):
        f = first[n]
        if p == n:
            term = next(prime_rows)
        else:
            term = keep[n] if 2 * n <= n_max else last
            np.multiply(terms[p][f:], terms[n // p][f:], out=term[f:])
        if 2 * n <= n_max:
            terms[n] = term
        acc[f:] += term[f:]
    return acc.real * c[0] - acc.imag * s[0]


# -- The remainder ----------------------------------------------------------
#
# The remainder polynomials of every N <= N_MULT are kept, one table per
# correction count, at columns N * PSI_PIECES + piece.  The first chunk
# that has a length of a block of _BLOCK lengths fills the block for every
# count (one _remainder_rows call, about 1 ms), and _BUILT marks it.  Five
# arrays of 1.27 MB, not one of 6.3 MB: numpy asks for huge pages from
# 4 MiB up, and the one array grew a process's first one-height call's
# peak RSS by 4.7 MB, the five by 1.0 MB.
_BLOCK = 16
_KEPT_BLOCKS = N_MULT // _BLOCK + 1
_REMAINDER = tuple(
    np.empty((_C_DEGREE + 1, _KEPT_BLOCKS * _BLOCK * PSI_PIECES))
    for _ in _C_TERMS)
_BUILT = np.zeros(_KEPT_BLOCKS, dtype=bool)


def _fill_blocks(blocks: np.ndarray) -> None:
    """Fill the kept tables' blocks q in blocks."""
    for q in blocks.tolist():
        part = _remainder_rows(np.arange(q * _BLOCK, (q + 1) * _BLOCK))
        cols = slice(q * _BLOCK * PSI_PIECES, (q + 1) * _BLOCK * PSI_PIECES)
        for table, coef in zip(_REMAINDER, part):
            table[:, cols] = coef
        _BUILT[q] = True


@dataclass(frozen=True)
class ZSample:
    t: float
    value: float
    main_terms: int
    corrections: int
    err_est: float


def z_rs_many(t: np.ndarray, corrections: int = 3) -> np.ndarray:
    """Riemann-Siegel Z(t) for an array of t >= 10, of t's shape.  A
    height's value does not depend on the rest of the batch."""
    t = np.asarray(t, dtype=float)
    if not np.all(t >= 10.0):  # NaN too; +inf fails the Z_TOP check
        raise DomainError("z_rs requires finite t >= 10 (z_eval_many below)")
    if not 0 <= corrections <= 4:
        raise DomainError("corrections must be in [0, 4]")
    # below Z_TOP the main sum, of N = floor(sqrt(t / 2 pi)) terms, has at
    # most N_MULT
    flat = t.ravel()
    if np.any(flat >= Z_TOP):
        raise DomainError(f"z_rs requires t < {Z_TOP:.4g}"
                          f" (a main sum of at most {N_MULT} terms)")
    out = np.empty(flat.size)
    # chunks of _CHUNK heights in order of main-sum length; uint16 keys
    # (N <= N_MULT + 1) take numpy's radix sort, about 5x faster than intp
    # keys and the same stable permutation
    order = np.argsort(np.sqrt(flat / TWO_PI).astype(np.uint16), kind="stable")
    for lo in range(0, flat.size, _CHUNK):
        rows = order[lo:lo + _CHUNK]
        out[rows] = _z_rs_chunk(flat[rows], corrections)
    return out.reshape(t.shape)


def _z_rs_chunk(t: np.ndarray, corrections: int) -> np.ndarray:
    """Z at heights sorted by N = floor(sqrt(t / 2 pi)): the remainder from
    the kept tables, then the multiplicative main sum added to it.  The few
    heights just below Z_TOP whose a rounds to N_MULT + 1 take N_MULT terms
    and p = 1, the end of N_MULT's last piece."""
    a = np.sqrt(t / TWO_PI)
    N = np.minimum(np.floor(a), N_MULT).astype(np.intp)
    p = a - N
    idx = np.minimum((p * PSI_PIECES).astype(np.intp), PSI_PIECES - 1)
    u = p - _PIECE_CENTERS[idx]
    if not _BUILT[N[0] // _BLOCK:N[-1] // _BLOCK + 1].all():
        has = np.bincount(N // _BLOCK, minlength=_KEPT_BLOCKS) > 0
        _fill_blocks(np.flatnonzero(has & ~_BUILT))
    idx += N * PSI_PIECES
    z = _horner(_REMAINDER[corrections], idx, u)
    # freed before the main sum's arrays are formed
    del a, p, idx, u
    _main_mult(t, theta_many(t), N, z)
    return z


def z_rs(t: float, corrections: int = 3) -> ZSample:
    """Z(t) by the Riemann-Siegel formula with the requested number of
    remainder corrections (C_0..C_corrections)."""
    value = float(z_rs_many(np.array([t]), corrections)[0])
    main_terms = min(int(math.floor(math.sqrt(t / TWO_PI))), N_MULT)
    return ZSample(t=float(t), value=value, main_terms=main_terms,
                   corrections=corrections,
                   err_est=float(z_err_est(t, corrections)))


def z_oracle(t: float) -> float:
    """Z(t) by the Euler-Maclaurin oracle: one height of z_oracle_many."""
    return float(z_oracle_many([t])[0])


def z_oracle_many(t: np.ndarray) -> np.ndarray:
    """Z(t) = e^{i theta(t)} zeta(1/2 + it) via Euler-Maclaurin (oracle path).

    Within 1e-11 of 30-digit mpmath siegelz for t <= 5e4 (measured 7.3e-12
    at t = 48,888; tests/test_hardy.py pins the bound at frozen heights).
    Each height has its own truncation, so its value is the same alone or
    in any batch.  The product must be real; AccuracyError if a residual
    imaginary part exceeds 1e-6 (it stays below ~1e-8 at desk heights)."""
    t = np.asarray(t, dtype=float).ravel()
    if not np.all(np.isfinite(t)):
        raise DomainError("z_oracle requires finite t")
    if np.any(t < 0.0):
        raise DomainError("z_oracle requires t >= 0")
    w = np.exp(1j * theta_batch(t)) * zeta_half_batch(t)
    if np.any(np.abs(w.imag) > 1e-6):
        raise AccuracyError("z_oracle residual imaginary part too large")
    return w.real


def z_eval_many(t: np.ndarray, corrections: int = 3) -> np.ndarray:
    """Z on arbitrary t >= 0: the frozen table below t = 10, Riemann-Siegel
    above."""
    t = np.asarray(t, dtype=float)
    out = np.empty_like(t)
    low = t < 10.0  # NaN and +inf go to z_rs_many, which rejects them
    if np.any(low):
        t_low = t[low]
        if np.any(t_low < 0.0):
            raise DomainError("Z requires t >= 0")
        out[low] = _z_low(t_low)
    if np.any(~low):
        out[~low] = z_rs_many(t[~low], corrections)
    return out


def z_breakpoints(a: float, b: float) -> tuple:
    """Points where the Riemann-Siegel evaluation is not smooth: the
    table/RS switch at t = 10 and the main-sum transitions t = 2*pi*n^2.
    Quadrature panels must not straddle these.  DomainError past Z_TOP."""
    if not (math.isfinite(a) and b <= Z_TOP):
        raise DomainError(f"z_breakpoints requires finite a and b <= {Z_TOP:.4g}")
    pts = []
    if a < 10.0 < b:
        pts.append(10.0)
    n = max(1, math.ceil(math.sqrt(max(a, 0.0) / TWO_PI)))
    while True:
        t = TWO_PI * n * n
        if t >= b:
            break
        if t > a:
            pts.append(t)
        n += 1
    return tuple(sorted(pts))
