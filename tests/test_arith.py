"""Divisor tables: sieve against the brute-force oracle."""

import math
import tracemalloc

import numpy as np
import pytest

from hardylab.arith import _DIVISOR_BUDGET, divisor_brute, divisor_sieve
from hardylab.errors import CapacityError, DomainError

ZETA_3 = 1.2020569031595942854


def test_examples():
    assert divisor_sieve(2, 12).count(12) == 6
    assert divisor_sieve(3, 4).count(4) == 6
    assert divisor_brute(3, 1) == 1
    assert divisor_brute(4, 6) == 16
    assert divisor_brute(2, 36) == 9


def test_d1_all_ones():
    t = divisor_sieve(1, 500)
    assert np.all(t.counts[1:] == 1)


def test_prime_values():
    t = divisor_sieve(4, 100)
    for p in (2, 3, 5, 7, 11, 97):
        assert t.count(p) == 4
    assert t.count(1) == 1


def test_multiplicativity_spot(d3_table, rng):
    for _ in range(200):
        m = int(rng.integers(2, 120))
        n = int(rng.integers(2, 120))
        if np.gcd(m, n) == 1:
            assert d3_table.count(m * n) == d3_table.count(m) * d3_table.count(n)


def test_sieve_matches_brute(d2_table, d3_table, d4_table):
    for table, k in ((d2_table, 2), (d3_table, 3), (d4_table, 4)):
        for n in range(1, 2001):
            assert table.count(n) == divisor_brute(k, n), (k, n)


@pytest.mark.parametrize("limit", [1, 2, 3, 8, 9, 10, 99, 100, 101, 110,
                                   120, 121])
def test_sieve_split_boundaries(limit):
    # r = isqrt(limit) splits each convolution; limits at r^2 - 1, r^2,
    # r^2 + 1, r^2 + r and (r + 1)^2 - 1 reach every edge of that split
    for k in (2, 3, 4):
        counts = divisor_sieve(k, limit).counts
        assert counts[0] == 0 and len(counts) == limit + 1
        assert [int(c) for c in counts[1:]] == [
            divisor_brute(k, n) for n in range(1, limit + 1)], (k, limit)


def _largest_d(k, limit):
    """(max d_k(n), its least n) over n <= limit.  d_k depends only on the
    exponents of n, so the maximum is at exponents a_1 >= a_2 >= ... on
    the primes 2, 3, 5, ... in order: d_k = prod C(a_i + k - 1, k - 1)."""
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53]
    best = (1, 1)

    def walk(i, n, cap, count):
        nonlocal best
        best = max(best, (count, -n))
        a = 0
        while a < cap and n * primes[i] <= limit:
            n, a = n * primes[i], a + 1
            walk(i + 1, n, a, count * math.comb(a + k - 1, k - 1))

    walk(0, 1, limit.bit_length(), 1)
    return best[0], -best[1]


def test_counts_fit_uint32_at_the_budget():
    # the exponent search agrees with the sieve on a small range
    counts = divisor_sieve(4, 10_000).counts
    assert _largest_d(4, 10_000) == (counts.max(), counts.argmax())
    # at the budget d_4 needs 20 bits, far inside uint32; a changed budget
    # fails here until this bound is derived again
    d4 = _largest_d(4, _DIVISOR_BUDGET)
    assert d4 == (672_000, 19_958_400) and d4[0] < 2 ** 20
    assert divisor_sieve(2, 10).counts.dtype == np.uint32


def test_sieve_peak_memory():
    # in place: the uint32 table plus a copy of its first half
    limit = 10 ** 6
    tracemalloc.start()
    try:
        table = divisor_sieve(4, limit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.count(720_720) == (divisor_brute(4, 16)
                                    * divisor_brute(4, 45_045))
    assert peak <= 6.5 * limit


def test_brute_matches_literal_tuple_count():
    # ordered (d1, ..., dk) with d1 * ... * dk = n, counted one tuple at a
    # time by nested loops over divisors
    divisors = [[d for d in range(1, m + 1) if m % d == 0]
                for m in range(1001)]
    for n in range(1, 1001):
        counts = {1: 1, 2: 0, 3: 0, 4: 0}
        for d1 in divisors[n]:
            counts[2] += 1
            for d2 in divisors[n // d1]:
                counts[3] += 1
                for _ in divisors[n // d1 // d2]:
                    counts[4] += 1
        for k, count in counts.items():
            assert divisor_brute(k, n) == count, (k, n)


def test_brute_takes_arrays():
    # an int gives an int; an array gives the same counts in its shape
    assert type(divisor_brute(3, 12)) is int
    rng = np.random.default_rng(5)
    n = np.concatenate([np.arange(1, 400), rng.integers(1, 100_001, 400),
                        [65_536, 99_991, 100_000, 313 * 317]])
    for k in (1, 2, 3, 4):
        counts = divisor_brute(k, n)
        assert counts.dtype == np.int64
        assert counts.tolist() == [divisor_brute(k, int(m)) for m in n]
        assert np.array_equal(divisor_brute(k, n.reshape(11, -1)),
                              counts.reshape(11, -1))
    assert divisor_brute(2, np.array([], dtype=int)).shape == (0,)
    # a sequence of k gives one row per k from the one factoring
    many = divisor_brute((1, 2, 3, 4), n.reshape(11, -1))
    assert many.shape == (4, 11, len(n) // 11)
    assert np.array_equal(many, np.stack(
        [divisor_brute(k, n.reshape(11, -1)) for k in (1, 2, 3, 4)]))
    # a bad k anywhere in the sequence raises what it raises alone
    for bad, error in ((0, DomainError), (5, CapacityError)):
        with pytest.raises(error) as alone:
            divisor_brute(bad, 12)
        for ks in ((bad, 2, 3), (2, 3, bad)):
            with pytest.raises(error) as seq:
                divisor_brute(ks, n)
            assert str(seq.value) == str(alone.value)
    with pytest.raises(DomainError):
        divisor_brute(2, np.array([3, 0, 5]))
    with pytest.raises(DomainError):
        divisor_brute(2, 6.5)
    with pytest.raises(CapacityError):
        divisor_brute(2, np.array([3, 100_001]))


def test_dirichlet_series_tail(d3_table):
    # sum d_3(n) n^-3 -> zeta(3)^3 within C (log N)^2 / N^2 as N doubles
    target = ZETA_3 ** 3
    n = np.arange(1, d3_table.limit + 1, dtype=float)
    terms = d3_table.counts[1:].astype(float) * n ** -3.0
    partial = np.cumsum(terms)
    resid = {}
    for N in (500, 1000, 2000, 4000):
        resid[N] = abs(partial[N - 1] - target)
    c_fit = resid[500] * 500.0 ** 2 / np.log(500.0) ** 2
    for N in (1000, 2000, 4000):
        assert resid[N] <= 3.0 * c_fit * np.log(N) ** 2 / N ** 2


def test_capacity_guards():
    with pytest.raises(CapacityError):
        divisor_sieve(2, _DIVISOR_BUDGET + 1)
    with pytest.raises(CapacityError):
        divisor_brute(5, 10)
    with pytest.raises(CapacityError):
        divisor_brute(2, 200_000)
    with pytest.raises(DomainError):
        divisor_sieve(0, 10)
    for k in (5, 9):
        with pytest.raises(DomainError):
            divisor_sieve(k, 10)


def test_counts_read_only(d2_table):
    with pytest.raises(ValueError):
        d2_table.counts[5] = 99
