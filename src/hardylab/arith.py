"""Exact divisor-function tables d_k(n) via iterated Dirichlet convolution.

d_1 = 1 and d_{j+1} = d_j * 1, for k = 1..4.  Counts are exact uint32:
d_4(n) <= 672,000 < 2^20 at n <= _DIVISOR_BUDGET = 2e7.  Finished tables
are immutable and freely shareable.  Each convolution runs in place and uses
the Dirichlet hyperbola split at r = isqrt(limit), so it costs r numpy
steps and peaks at 6 bytes per entry: the table and a copy of its first
half.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, DomainError

# largest divisor table divisor_sieve builds, in entries
_DIVISOR_BUDGET = 20_000_000
# largest k divisor_sieve builds: the moments read d_k for k <= 4
_K_MAX = 4


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
    """Sieve exact d_k(n) for all n <= limit, 1 <= k <= 4."""
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

