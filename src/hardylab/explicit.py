"""The first-order saddle series of the moments of Z.

Every main term here is built from one series, c_n = 2 pi sqrt(2/k) d_k(n)
n^(1/k - 1/2) cos(k pi n^(2/k) + (k-2) pi/8), whose n-th term enters at the
saddle point x = 2 pi n^(2/k): its prefix sum S_k(x) over n <= cutoff(k, x)
approximates I_k(x).  The dyadic main term over [T, 2T] is a difference of
two prefix sums, and CubicPrimitiveSum is S_3 with its transform V_1.

One helper forms the terms, in fixed blocks of _BLOCK.  The dyadic main
term carries its running sum from block to block, so its own working memory
is about 1 MB at any n_hi.  What still scales with n_hi is its caller's
uint32 d_k table, 4 n_hi bytes, and the half-length copy the sieve reads
while it builds that table, 2 n_hi more: about 39 MB at k = 4, T = 8000
(n_hi = 6.5e6).  A uint32 count converts to float64 exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arith import _DIVISOR_BUDGET, DivisorTable
from .errors import CapacityError, DomainError
from .special import TWO_PI

# (x/2pi)^(k/2) at a jump point x = 2 pi m^(2/k), itself rounded, is within
# 1.4e-15 m of m (k = 1..4, m <= 2e7); the snap only has to cover that.  A
# wider one counts points just below a jump as past it: at 1e-9 the
# jump-edged quadrature of S_3 in tests/test_explicit.py
# (test_cubic_sum_by_parts_on_a_jump_edged_grid) misses its closed form.
_SNAP = 4e-15
# terms of the saddle series formed at a time: moment_main_term holds a few
# arrays of this length, whatever n_hi is
_BLOCK = 1 << 15


@dataclass(frozen=True)
class CosineSumResult:
    k: int
    T: float
    value: float
    n_lo: int
    n_hi: int
    terms: int


def _saddle_index(k: int, x):
    """(x/2pi)^(k/2) elementwise, snapped to an integer within _SNAP."""
    p = (np.asarray(x, dtype=float) / TWO_PI) ** (0.5 * k)
    r = np.rint(p)
    return np.where(np.abs(p - r) <= _SNAP * np.maximum(p, 1.0), r, p)


def cutoff(k: int, x):
    """floor((x/2pi)^(k/2)) elementwise: the number of saddle points
    2 pi n^(2/k) at or below x."""
    return np.floor(_saddle_index(k, x)).astype(np.int64)


def _check_table(k: int, table: DivisorTable, n_hi: int) -> None:
    if n_hi > table.limit:
        raise CapacityError(
            f"divisor table limit {table.limit} < required n_hi {n_hi}")
    if table.k != k:
        raise DomainError(f"table is for d_{table.k}, need d_{k}")


def _terms(k: int, table: DivisorTable, lo: int, hi: int) -> np.ndarray:
    """c_n for n in [lo, hi), 1 <= lo: twice d_k(n) n^(-1/2) times the real
    part of the first-order saddle amplitude pi sqrt(2/k) n^(1/k)
    e^(-i(k pi n^(2/k) + (k-2) pi/8))."""
    n = np.arange(lo, hi, dtype=float)
    return TWO_PI * math.sqrt(2.0 / k) * table.counts[lo:hi] \
        * n ** (1.0 / k - 0.5) \
        * np.cos(k * math.pi * n ** (2.0 / k) + (k - 2) * math.pi / 8.0)


def saddle_terms(k: int, table: DivisorTable, n_hi: int) -> np.ndarray:
    """c_n for n = 0..n_hi (c_0 = 0), so that np.cumsum gives S_k at every
    cutoff."""
    _check_table(k, table, n_hi)
    c = np.zeros(n_hi + 1)
    for lo in range(1, n_hi + 1, _BLOCK):
        hi = min(lo + _BLOCK, n_hi + 1)
        c[lo:hi] = _terms(k, table, lo, hi)
    return c


def sum_range(k: int, T: float) -> tuple[int, int]:
    """Summation bounds: ceil((T/2pi)^(k/2)) .. floor((T/pi)^(k/2)),
    endpoints included (floating boundaries snapped to integers).  An upper
    bound past the largest divisor table divisor_sieve builds raises
    CapacityError before any integer conversion."""
    if not T > 0.0:
        raise DomainError(f"sum_range requires T > 0, got {T}")
    with np.errstate(over="ignore", invalid="ignore"):
        n_hi = np.floor(_saddle_index(k, 2.0 * T))
    if not n_hi <= _DIVISOR_BUDGET:
        raise CapacityError(
            f"the d_{k} sum to T = {T:g} needs a table of {n_hi:.4g} "
            f"entries, past the divisor table budget {_DIVISOR_BUDGET}")
    n_lo = int(math.ceil(_saddle_index(k, T)))
    return max(n_lo, 1), int(n_hi)


def moment_main_term(k: int, T: float, table: DivisorTable) -> CosineSumResult:
    """The cosine-sum main term approximating the dyadic moment integral
    of Z^k over [T, 2T]: the sum of c_n over sum_range(k, T), as the
    difference of the running sums at n_lo - 1 and n_hi.  The running sum
    is carried across blocks of _BLOCK terms from n = 1; np.cumsum adds in
    sequence, so it has the bits of one np.cumsum over the whole series."""
    if k not in (1, 2, 3, 4):
        raise DomainError("moment_main_term supports k in {1,2,3,4}")
    n_lo, n_hi = sum_range(k, T)
    _check_table(k, table, n_hi)
    below = total = 0.0
    for lo in range(1, n_hi + 1, _BLOCK):
        hi = min(lo + _BLOCK, n_hi + 1)
        # run[j] is the running sum to n = lo - 1 + j
        run = np.cumsum(np.concatenate([[total], _terms(k, table, lo, hi)]))
        if lo <= n_lo <= hi:
            below = run[n_lo - lo]
        total = run[-1]
    return CosineSumResult(k=k, T=float(T), value=float(total - below),
                           n_lo=n_lo, n_hi=n_hi, terms=n_hi - n_lo + 1)


class CubicPrimitiveSum:
    """S_3(x), the saddle series' approximation to I_3(x), prefix-summed
    over the d_3 table its caller sized: O(1) per evaluation."""

    def __init__(self, table: DivisorTable):
        self.table = table
        self.terms = saddle_terms(3, table, table.limit)
        self.prefix = np.cumsum(self.terms)

    def eval_many(self, xs: np.ndarray) -> np.ndarray:
        cut = cutoff(3, xs)
        if cut.size and cut.max() > self.table.limit:
            raise CapacityError(
                f"d_3 table limit {self.table.limit} < required {cut.max()}")
        return self.prefix[cut]

    def transform(self, s: complex, N: int) -> complex:
        """sum over n <= N of c_n (2 pi n^(2/3))^(-s): the transform
        s * integral of S_3(x) x^(-s-1) over [1, inf) with S_3 frozen at
        N terms."""
        n = np.arange(1, N + 1, dtype=float)
        return complex(np.sum(self.terms[1:N + 1]
                              * np.exp(-s * np.log(TWO_PI * n ** (2.0 / 3.0)))))
