"""The first-order saddle series of the moments of Z.

Every main term here is built from one series, c_n = 2 pi sqrt(2/k) d_k(n)
n^(1/k - 1/2) cos(k pi n^(2/k) + (k-2) pi/8), whose n-th term enters at the
saddle point x = 2 pi n^(2/k): its prefix sum S_k(x) over n <= cutoff(k, x)
approximates I_k(x).  The dyadic main term over [T, 2T] is a difference of
two prefix sums, CubicPrimitiveSum is S_3 with its transform V_1, and
cubic_primitive_approx is the exactly rounded reference for S_3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arith import DivisorTable
from .errors import CapacityError, DomainError
from .special import TWO_PI

# (x/2pi)^(k/2) at a jump point x = 2 pi m^(2/k), itself rounded, is within
# 1.4e-15 m of m (k = 1..4, m <= 2e7); the snap only has to cover that.  A
# wider one counts points just below a jump as past it: at 1e-9 the
# jump-edged quadrature of S_3 in tests/test_explicit.py
# (test_cubic_sum_by_parts_on_a_jump_edged_grid) misses its closed form.
_SNAP = 4e-15


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


def saddle_terms(k: int, table: DivisorTable, n_hi: int) -> np.ndarray:
    """c_n for n = 0..n_hi (c_0 = 0), so that np.cumsum gives S_k at every
    cutoff: twice d_k(n) n^(-1/2) times the real part of the first-order
    saddle amplitude pi sqrt(2/k) n^(1/k) e^(-i(k pi n^(2/k) + (k-2) pi/8))."""
    if n_hi > table.limit:
        raise CapacityError(
            f"divisor table limit {table.limit} < required n_hi {n_hi}")
    if table.k != k:
        raise DomainError(f"table is for d_{table.k}, need d_{k}")
    n = np.arange(1, n_hi + 1, dtype=float)
    c = np.zeros(n_hi + 1)
    c[1:] = TWO_PI * math.sqrt(2.0 / k) * table.counts[1:n_hi + 1] \
        * n ** (1.0 / k - 0.5) \
        * np.cos(k * math.pi * n ** (2.0 / k) + (k - 2) * math.pi / 8.0)
    return c


def sum_range(k: int, T: float) -> tuple[int, int]:
    """Summation bounds: ceil((T/2pi)^(k/2)) .. floor((T/pi)^(k/2)),
    endpoints included (floating boundaries snapped to integers)."""
    n_lo = int(math.ceil(_saddle_index(k, T)))
    return max(n_lo, 1), int(cutoff(k, 2.0 * T))


def moment_main_term(k: int, T: float, table: DivisorTable) -> CosineSumResult:
    """The cosine-sum main term approximating the dyadic moment integral
    of Z^k over [T, 2T]: the sum of c_n over sum_range(k, T), as the
    difference of two prefix sums."""
    if k not in (1, 2, 3, 4):
        raise DomainError("moment_main_term supports k in {1,2,3,4}")
    n_lo, n_hi = sum_range(k, T)
    prefix = np.cumsum(saddle_terms(k, table, n_hi))
    return CosineSumResult(k=k, T=float(T),
                           value=float(prefix[n_hi] - prefix[n_lo - 1]),
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


def cubic_primitive_approx(x: float, table: DivisorTable) -> float:
    """S_3(x) = sum of c_n over n <= (x/2pi)^(3/2), exactly rounded."""
    return math.fsum(saddle_terms(3, table, int(cutoff(3, x))).tolist())
