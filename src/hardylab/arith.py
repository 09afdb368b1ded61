"""Exact divisor-function tables d_k(n) via iterated Dirichlet convolution.

d_1 = 1 and d_{j+1} = d_j * 1; counts are exact 64-bit integers (d_8(n)
stays far below 2^63 at any table size this package will build).  Finished
tables are immutable and freely shareable.  Each convolution uses the
Dirichlet hyperbola split at r = isqrt(limit), so it costs r numpy steps.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import CapacityError, DomainError

_MAGIC = b"dktable\x00"
# largest divisor table divisor_sieve builds by default, in entries
_DIVISOR_BUDGET = 20_000_000


@dataclass(frozen=True, eq=False)
class DivisorTable:
    k: int
    limit: int
    counts: np.ndarray = field(repr=False)  # counts[n] for n in 1..limit; index 0 unused

    def __post_init__(self):
        self.counts.setflags(write=False)

    def count(self, n: int) -> int:
        if not 1 <= n <= self.limit:
            raise DomainError(f"n={n} outside table range 1..{self.limit}")
        return int(self.counts[n])


def divisor_sieve(k: int, limit: int, budget: int | None = None) -> DivisorTable:
    """Sieve exact d_k(n) for all n <= limit."""
    if k < 1 or limit < 1:
        raise DomainError("divisor_sieve requires k >= 1 and limit >= 1")
    budget = _DIVISOR_BUDGET if budget is None else budget
    if limit > budget:
        raise CapacityError(
            f"divisor table of size {limit} exceeds budget {budget}")
    counts = np.ones(limit + 1, dtype=np.int64)
    counts[0] = 0
    r = math.isqrt(limit)
    for _ in range(k - 1):
        # every d*m <= limit has d <= r, or d > r and then m <= r
        nxt = np.zeros(limit + 1, dtype=np.int64)
        for d in range(1, r + 1):
            nxt[d::d] += counts[1:limit // d + 1]
            nxt[d * (r + 1)::d] += counts[d]
        counts = nxt
    return DivisorTable(k=k, limit=limit, counts=counts)


# divisor_brute's guard, and its trial divisors: the primes up to
# isqrt(_BRUTE_MAX), found by trial division
_BRUTE_MAX = 100_000
_TRIAL_PRIMES = np.array([p for p in range(2, math.isqrt(_BRUTE_MAX) + 1)
                          if all(p % q for q in range(2, math.isqrt(p) + 1))])
# C(a + k - 1, k - 1) for every exponent a of an n <= _BRUTE_MAX, in row
# k - 1, k <= 4
_WAYS = np.array([[math.comb(a + k - 1, k - 1)
                   for a in range(_BRUTE_MAX.bit_length())]
                  for k in range(1, 5)])
# n per pass of divisor_brute, so that its (primes, n) divisibility table
# stays within 2^18 entries
_BRUTE_COLS = (1 << 18) // len(_TRIAL_PRIMES)


def divisor_brute(k: int, n):
    """Count ordered k-tuples with product n prime by prime: a tuple splits
    each p^a of n into k ordered exponents summing to a, in C(a + k - 1,
    k - 1) ways (the sieve's oracle; shares no code or algorithm with it).
    The exponents come by trial division by the primes p <= isqrt(max n),
    and what is left of n after them is 1 or one more prime.  n is an int,
    which gives an int, or an integer array, which gives the counts in its
    shape."""
    m = np.asarray(n)
    if m.dtype.kind not in "iu":
        raise DomainError("divisor_brute requires integer n")
    if k < 1 or np.any(m < 1):
        raise DomainError("divisor_brute requires k >= 1 and n >= 1")
    if k > 4 or np.any(m > _BRUTE_MAX):
        raise CapacityError("divisor_brute guarded to k <= 4, n <= 1e5")
    flat = m.astype(np.int64).ravel()
    root = math.isqrt(int(flat.max(initial=1)))
    primes = _TRIAL_PRIMES[:np.searchsorted(_TRIAL_PRIMES, root, "right")]
    counts = np.ones_like(flat)
    for lo in range(0, len(flat), _BRUTE_COLS):
        v = flat[lo:lo + _BRUTE_COLS]
        # one (p, n) pair per prime p dividing n; a is p's exponent in n,
        # and rest becomes n over its prime powers p^a
        pi, ni = np.nonzero(v % primes[:, None] == 0)
        p, a, rest = primes[pi], np.zeros_like(pi), v.copy()
        live = np.arange(len(p))
        while live.size:
            a[live] += 1
            np.floor_divide.at(rest, ni[live], p[live])
            live = live[rest[ni[live]] % p[live] == 0]
        c = counts[lo:lo + len(v)]
        np.multiply.at(c, ni, _WAYS[k - 1, a])
        c[rest > 1] *= k
    return int(counts[0]) if m.ndim == 0 else counts.reshape(m.shape)


def dump_table(table: DivisorTable, path: str | Path) -> None:
    """Binary export: 16-byte header (magic, k, limit as little-endian u32)
    followed by limit little-endian int64 counts for n = 1..limit."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<II", table.k, table.limit))
        fh.write(table.counts[1:].astype("<i8").tobytes())


def load_table(path: str | Path) -> DivisorTable:
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != _MAGIC:
            raise DomainError(f"not a divisor table: {path}")
        header = fh.read(8)
        if len(header) != 8:
            raise DomainError(f"truncated divisor table header: {path}")
        k, limit = struct.unpack("<II", header)
        if k < 1 or limit < 1:
            raise DomainError(
                f"divisor table needs k >= 1 and limit >= 1: {path}")
        data = np.frombuffer(fh.read(8 * limit), dtype="<i8")
        if len(data) != limit:
            raise DomainError(f"truncated divisor table: {path}")
        if fh.read(1):
            raise DomainError(f"bytes after the divisor counts: {path}")
    counts = np.zeros(limit + 1, dtype=np.int64)
    counts[1:] = data
    return DivisorTable(k=k, limit=limit, counts=counts)

