"""Exact divisor-function tables d_k(n) via iterated Dirichlet convolution.

d_1 = 1 and d_{j+1} = d_j * 1, for k = 1..8.  Counts are exact uint32: the
largest d_8(n) at n <= _DIVISOR_BUDGET is 2,609,418,240 (n = 19,958,400),
61% of 2^32, and the largest d_4(n) there is 672,000.  Finished tables are
immutable and freely shareable.  Each convolution runs in place and uses
the Dirichlet hyperbola split at r = isqrt(limit), so it costs r numpy
steps and peaks at 6 bytes per entry: the table and a copy of its first
half.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import CapacityError, DomainError

_MAGIC = b"dktable\x00"
# largest divisor table divisor_sieve builds or load_table reads, in entries
_DIVISOR_BUDGET = 20_000_000
# largest k divisor_sieve builds: d_k(n) < 2^32 for k <= 8, n <= the budget
_K_MAX = 8
# counts dump_table and load_table convert at a time
_IO_BLOCK = 1 << 16


@dataclass(frozen=True, eq=False)
class DivisorTable:
    k: int
    limit: int
    # uint32 counts[n] for n in 1..limit; index 0 unused
    counts: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.counts.setflags(write=False)

    def count(self, n: int) -> int:
        if not 1 <= n <= self.limit:
            raise DomainError(f"n={n} outside table range 1..{self.limit}")
        return int(self.counts[n])


def divisor_sieve(k: int, limit: int) -> DivisorTable:
    """Sieve exact d_k(n) for all n <= limit, 1 <= k <= 8."""
    if not (1 <= k <= _K_MAX and limit >= 1):
        raise DomainError(f"divisor_sieve requires 1 <= k <= {_K_MAX} and "
                          "limit >= 1")
    if limit > _DIVISOR_BUDGET:
        raise CapacityError(f"divisor table of size {limit} exceeds budget "
                            f"{_DIVISOR_BUDGET}")
    counts = np.ones(limit + 1, dtype=np.uint32)
    counts[0] = 0
    r = math.isqrt(limit)
    for _ in range(k - 1):
        # every d*m <= limit has d <= r, or d > r and then m <= r.  The
        # d = 1 term is counts itself; the rest read the old counts up to
        # index max(limit // 2, r), copied here (and freed before the next
        # copy, so the peak stays at 6 bytes per entry)
        old = counts[:max(limit // 2, r) + 1].copy()
        counts[r + 1:] += old[1]
        for d in range(2, r + 1):
            counts[d::d] += old[1:limit // d + 1]
            counts[d * (r + 1)::d] += old[d]
        del old
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
# entries of divisor_brute's (primes, n) divisibility table per pass
_BRUTE_ENTRIES = 1 << 18


def divisor_brute(k, n):
    """Count ordered k-tuples with product n prime by prime: a tuple splits
    each p^a of n into k ordered exponents summing to a, in C(a + k - 1,
    k - 1) ways (the sieve's oracle; shares no code or algorithm with it).
    The exponents come by trial division by the primes p <= isqrt(max n),
    and what is left of n after them is 1 or one more prime.  n is an int,
    which gives an int, or an integer array, which gives the counts in its
    shape.  k is an int, or a sequence of them, which gives one row of
    counts per k from the one factoring, of shape (len(k), *n.shape)."""
    m = np.asarray(n)
    ks = np.atleast_1d(k)
    if m.dtype.kind not in "iu":
        raise DomainError("divisor_brute requires integer n")
    if np.any(ks < 1) or np.any(m < 1):
        raise DomainError("divisor_brute requires k >= 1 and n >= 1")
    if np.any(ks > 4) or np.any(m > _BRUTE_MAX):
        raise CapacityError("divisor_brute guarded to k <= 4, n <= 1e5")
    flat = m.astype(np.int64).ravel()
    root = math.isqrt(int(flat.max(initial=1)))
    primes = _TRIAL_PRIMES[:np.searchsorted(_TRIAL_PRIMES, root, "right")]
    counts = np.ones((len(ks), len(flat)), dtype=np.int64)
    cols = _BRUTE_ENTRIES // max(len(primes), 1)
    for lo in range(0, len(flat), cols):
        v = flat[lo:lo + cols]
        # one (p, n) pair per prime p dividing n; a is p's exponent in n,
        # and rest becomes n over its prime powers p^a
        pi, ni = np.nonzero(v % primes[:, None] == 0)
        p, a, rest = primes[pi], np.zeros_like(pi), v.copy()
        live = np.arange(len(p))
        while live.size:
            a[live] += 1
            np.floor_divide.at(rest, ni[live], p[live])
            live = live[rest[ni[live]] % p[live] == 0]
        for c, kk in zip(counts[:, lo:lo + len(v)], ks.tolist()):
            np.multiply.at(c, ni, _WAYS[kk - 1, a])
            c[rest > 1] *= kk
    if np.ndim(k) == 0:
        return int(counts[0, 0]) if m.ndim == 0 else counts[0].reshape(m.shape)
    return counts.reshape(len(ks), *m.shape)


def dump_table(table: DivisorTable, path: str | Path) -> None:
    """Binary export: 16-byte header (magic, k, limit as little-endian u32)
    followed by limit little-endian int64 counts for n = 1..limit, written
    _IO_BLOCK counts at a time."""
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<II", table.k, table.limit))
        for lo in range(1, table.limit + 1, _IO_BLOCK):
            fh.write(table.counts[lo:lo + _IO_BLOCK].astype("<i8"))


def load_table(path: str | Path) -> DivisorTable:
    """Read dump_table's format, _IO_BLOCK counts at a time.  A limit above
    _DIVISOR_BUDGET raises CapacityError before any count is read; a count
    outside 0..2^32 - 1 raises DomainError."""
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
        if limit > _DIVISOR_BUDGET:
            raise CapacityError(f"divisor table of size {limit} exceeds "
                                f"budget {_DIVISOR_BUDGET}: {path}")
        counts = np.zeros(limit + 1, dtype=np.uint32)
        for lo in range(1, limit + 1, _IO_BLOCK):
            n = min(_IO_BLOCK, limit + 1 - lo)
            raw = fh.read(8 * n)
            if len(raw) != 8 * n:
                raise DomainError(f"truncated divisor table: {path}")
            data = np.frombuffer(raw, dtype="<i8")
            if data.min() < 0 or data.max() >= 1 << 32:
                raise DomainError(
                    f"a divisor count outside 0..2^32 - 1: {path}")
            counts[lo:lo + n] = data
        if fh.read(1):
            raise DomainError(f"bytes after the divisor counts: {path}")
    return DivisorTable(k=k, limit=limit, counts=counts)
