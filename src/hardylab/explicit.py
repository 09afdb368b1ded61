"""Cosine-sum main terms for the dyadic moments of Z, built from the
first-order saddle amplitudes, and the truncated cosine-sum approximation
to the cubic primitive I_3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arith import DivisorTable
from .errors import CapacityError, DomainError
from .special import TWO_PI

_SNAP = 1e-9


@dataclass(frozen=True)
class CosineSumResult:
    k: int
    T: float
    value: float
    n_lo: int
    n_hi: int
    terms: int


def saddle_terms_many(k: int, n: np.ndarray) -> np.ndarray:
    """First-order saddle amplitudes pi*sqrt(2/k)*n^(1/k) *
    exp(i*(-k*pi*n^(2/k) + (2-k)*pi/8)) for an array of n."""
    nf = np.asarray(n, dtype=float)
    mod = math.pi * math.sqrt(2.0 / k) * nf ** (1.0 / k)
    arg = -k * math.pi * nf ** (2.0 / k) + (2.0 - k) * math.pi / 8.0
    return mod * np.exp(1j * arg)


def _snap(x: float) -> float:
    r = round(x)
    if abs(x - r) <= _SNAP * max(1.0, abs(x)):
        return float(r)
    return x


def sum_range(k: int, T: float) -> tuple[int, int]:
    """Summation bounds: ceil((T/2pi)^(k/2)) .. floor((T/pi)^(k/2)),
    endpoints included (floating boundaries snapped to integers)."""
    n_lo = int(math.ceil(_snap((T / TWO_PI) ** (0.5 * k))))
    n_hi = int(math.floor(_snap((T / math.pi) ** (0.5 * k))))
    return max(n_lo, 1), n_hi


def moment_main_term(k: int, T: float, table: DivisorTable) -> CosineSumResult:
    """The cosine-sum main term approximating the dyadic moment integral
    of Z^k over [T, 2T]: 2 * sum d_k(n) n^{-1/2} Re(saddle amplitude),
    which expands to 2 pi sqrt(2/k) sum d_k(n) n^{-1/2+1/k}
    cos(k pi n^{2/k} + (k-2) pi/8)."""
    if k not in (1, 2, 3, 4):
        raise DomainError("moment_main_term supports k in {1,2,3,4}")
    n_lo, n_hi = sum_range(k, T)
    if n_hi > table.limit:
        raise CapacityError(
            f"divisor table limit {table.limit} < required n_hi {n_hi}")
    if table.k != k:
        raise DomainError(f"table is for d_{table.k}, need d_{k}")
    n = np.arange(n_lo, n_hi + 1, dtype=np.int64)
    amps = saddle_terms_many(k, n).real
    terms = table.counts[n_lo:n_hi + 1].astype(float) \
        * n.astype(float) ** -0.5 * amps
    value = 2.0 * math.fsum(terms.tolist())
    return CosineSumResult(k=k, T=float(T), value=value,
                           n_lo=n_lo, n_hi=n_hi, terms=len(n))


class CubicPrimitiveSum:
    """Prefix-summed cosine approximation to I_3(x); O(1) per evaluation."""

    def __init__(self, table: DivisorTable):
        if table.k != 3:
            raise DomainError("CubicPrimitiveSum needs a d_3 table")
        self.table = table
        n = np.arange(1, table.limit + 1, dtype=np.int64)
        nf = n.astype(float)
        terms = table.counts[1:].astype(float) * nf ** (-1.0 / 6.0) \
            * np.cos(3.0 * math.pi * nf ** (2.0 / 3.0) + math.pi / 8.0)
        self.prefix = np.concatenate([[0.0], np.cumsum(terms)])
        self.coef = TWO_PI * math.sqrt(2.0 / 3.0)

    def cutoff(self, x: float) -> int:
        return int(math.floor(_snap((x / TWO_PI) ** 1.5)))

    def eval_many(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        cut = np.floor((xs / TWO_PI) ** 1.5 + _SNAP).astype(np.int64)
        if cut.size and cut.max() > self.table.limit:
            raise CapacityError(
                f"d_3 table limit {self.table.limit} < required {cut.max()}")
        cut = np.clip(cut, 0, self.table.limit)
        return self.coef * self.prefix[cut]

    def value(self, x: float) -> float:
        return float(self.eval_many(np.array([x]))[0])


def cubic_primitive_approx(x: float, table: DivisorTable) -> float:
    """2*pi*sqrt(2/3) * sum_{n <= (x/2pi)^{3/2}} d_3(n) n^{-1/6}
    cos(3 pi n^{2/3} + pi/8)."""
    n_hi = int(math.floor(_snap((x / TWO_PI) ** 1.5)))
    if n_hi > table.limit:
        raise CapacityError(f"d_3 table limit {table.limit} < required {n_hi}")
    if n_hi < 1:
        return 0.0
    n = np.arange(1, n_hi + 1, dtype=np.int64)
    terms = table.counts[1:n_hi + 1].astype(float) * n.astype(float) ** (-1.0 / 6.0) \
        * np.cos(3.0 * math.pi * n.astype(float) ** (2.0 / 3.0) + math.pi / 8.0)
    return TWO_PI * math.sqrt(2.0 / 3.0) * math.fsum(terms.tolist())
