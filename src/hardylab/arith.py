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
# largest divisor table divisor_sieve builds, in entries
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


def divisor_sieve(k: int, limit: int) -> DivisorTable:
    """Sieve exact d_k(n) for all n <= limit."""
    if k < 1 or limit < 1:
        raise DomainError("divisor_sieve requires k >= 1 and limit >= 1")
    if limit > _DIVISOR_BUDGET:
        raise CapacityError(f"divisor table of size {limit} exceeds budget "
                            f"{_DIVISOR_BUDGET}")
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

