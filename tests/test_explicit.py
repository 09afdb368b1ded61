"""Cosine-sum main terms, saddle amplitudes, cubic primitive sum."""

import math

import numpy as np
import pytest

from hardylab.arith import divisor_brute, divisor_sieve
from hardylab.errors import CapacityError, DomainError
from hardylab.explicit import (CubicPrimitiveSum, cubic_primitive_approx,
                               moment_main_term, saddle_terms_many, sum_range)
from hardylab.moments import hardy_moment, moment_cache

TWO_PI = 2.0 * math.pi


def test_saddle_term_values():
    st, st4 = saddle_terms_many(2, np.array([1, 4]))
    assert st.real == pytest.approx(math.pi, abs=1e-12)
    assert abs(st.imag) < 1e-12
    assert abs(st4) == pytest.approx(2.0 * math.pi, rel=1e-14)
    st3 = saddle_terms_many(3, np.array([1]))[0]
    assert abs(st3) == pytest.approx(math.pi * math.sqrt(2.0 / 3.0), rel=1e-14)
    want_arg = (-3.0 * math.pi - math.pi / 8.0) % (2.0 * math.pi)
    assert math.atan2(st3.imag, st3.real) % (2.0 * math.pi) \
        == pytest.approx(want_arg, abs=1e-12)


def test_sum_range_endpoints_inclusive():
    # T chosen so (T/2pi)^{k/2} is exactly an integer
    T = TWO_PI * 9.0  # k = 2: lower bound exactly 9
    lo, hi = sum_range(2, T)
    assert lo == 9
    assert hi == 18


def test_k2_degeneration_matches_divisor_sum(d2_table):
    # every cosine is 1: value = 2 pi * sum of d(n) via independent loops
    T = 300.0
    res = moment_main_term(2, T, d2_table)
    plain = 0.0
    for n in range(res.n_lo, res.n_hi + 1):
        count = sum(1 for d in range(1, n + 1) if n % d == 0)
        plain += count
    assert res.value == pytest.approx(TWO_PI * plain, rel=1e-12)


def test_k1_parity_identity(d2_table):
    # cos(pi n^2 - pi/8) = (-1)^n cos(pi/8)
    T = 900.0
    table1 = divisor_sieve(1, 64)
    res = moment_main_term(1, T, table1)
    alt = sum((-1) ** n * math.cos(math.pi / 8.0) * n ** 0.5
              for n in range(res.n_lo, res.n_hi + 1))
    assert res.value == pytest.approx(TWO_PI * math.sqrt(2.0) * alt, abs=1e-10)


def test_k3_independent_resummation():
    # brute-force loop with its own divisor counts and cosines
    T = 500.0
    table = divisor_sieve(3, 3000)
    res = moment_main_term(3, T, table)
    lo = math.ceil((T / TWO_PI) ** 1.5)
    hi = math.floor((T / math.pi) ** 1.5)
    assert (lo, hi) == (res.n_lo, res.n_hi)
    total = 0.0
    for n in range(lo, hi + 1):
        d3 = divisor_brute(3, n)
        total += d3 * n ** (-0.5 + 1.0 / 3.0) \
            * math.cos(3.0 * math.pi * n ** (2.0 / 3.0) + math.pi / 8.0)
    want = TWO_PI * math.sqrt(2.0 / 3.0) * total
    assert res.value == pytest.approx(want, rel=1e-9)


def test_main_term_capacity(d2_table):
    small = divisor_sieve(2, 10)
    with pytest.raises(CapacityError):
        moment_main_term(2, 300.0, small)
    with pytest.raises(DomainError):
        moment_main_term(2, 300.0, divisor_sieve(3, 1000))


def test_dyadic_residual_k2(d2_table):
    # module-size version of the square-window residual check
    resid = {}
    for T in (100.0, 200.0):
        mi = hardy_moment(2, T, 2.0 * T, tol=1e-8)
        ms = moment_main_term(2, T, d2_table)
        resid[T] = abs(mi.value - ms.value)
    c_fit = resid[100.0] / 100.0 ** 0.55
    assert resid[200.0] <= 3.0 * c_fit * 200.0 ** 0.55


def test_cubic_single_term():
    table = divisor_sieve(3, 10)
    want = TWO_PI * math.sqrt(2.0 / 3.0) \
        * math.cos(3.0 * math.pi + math.pi / 8.0)
    assert cubic_primitive_approx(TWO_PI, table) == pytest.approx(want, rel=1e-14)
    assert cubic_primitive_approx(2.0, table) == 0.0


def test_cubic_prefix_matches_direct(d3_table):
    cube = CubicPrimitiveSum(d3_table)
    for x in (50.0, 321.0, 1500.0):
        assert cube.value(x) == pytest.approx(
            cubic_primitive_approx(x, d3_table), rel=1e-12)


def test_cubic_residual_bound(d3_table):
    cube = CubicPrimitiveSum(d3_table)
    cache = moment_cache(3)
    r_fit = abs(cache.value(200.0) - cube.value(200.0))
    c_fit = r_fit / 200.0 ** 0.8
    for x in (500.0, 1000.0):
        r = abs(cache.value(x) - cube.value(x))
        assert r <= 3.0 * c_fit * x ** 0.8


def test_cubic_residual_doubling(d3_table):
    # residual ratio under doubling stays within 2^0.85 * 1.5
    cube = CubicPrimitiveSum(d3_table)
    cache = moment_cache(3)
    r1 = abs(cache.value(1000.0) - cube.value(1000.0))
    r2 = abs(cache.value(2000.0) - cube.value(2000.0))
    assert r2 <= 2.0 ** 0.85 * 1.5 * max(r1, 1.0)
