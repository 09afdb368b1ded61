"""The saddle series: its terms and cutoff, the dyadic main terms, the
cubic primitive sum."""

import math

import numpy as np
import pytest

from hardylab.arith import divisor_brute, divisor_sieve
from hardylab.errors import CapacityError, DomainError
from hardylab.explicit import (CubicPrimitiveSum, cubic_primitive_approx,
                               cutoff, moment_main_term, saddle_terms,
                               sum_range)
from hardylab.moments import hardy_moment, moment_cache
from hardylab.quad import PanelSet

TWO_PI = 2.0 * math.pi


def test_saddle_term_values():
    # c_n / (2 d_k(n) n^{-1/2}) is the real part of the first-order saddle
    # amplitude pi sqrt(2/k) n^{1/k} exp(i(-k pi n^{2/k} + (2-k) pi/8))
    c2 = saddle_terms(2, divisor_sieve(2, 4), 4)
    assert c2[0] == 0.0
    assert c2[1] / 2.0 == pytest.approx(math.pi, abs=1e-12)
    assert c2[4] / (2.0 * 3 * 4 ** -0.5) == pytest.approx(2.0 * math.pi, rel=1e-14)
    c3 = saddle_terms(3, divisor_sieve(3, 1), 1)[1] / 2.0
    want_arg = (-3.0 * math.pi - math.pi / 8.0) % (2.0 * math.pi)
    assert c3 == pytest.approx(
        math.pi * math.sqrt(2.0 / 3.0) * math.cos(want_arg), rel=1e-14)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_cutoff_counts_every_jump_point(k):
    # (x/2pi)^(k/2) at x = 2 pi m^(2/k) is off m by up to 1.4e-15 m; the
    # snap must count m, and the inclusive lower bound must start at m
    m = np.arange(1, 10 ** 6 + 1)
    x = TWO_PI * m.astype(float) ** (2.0 / k)
    assert np.array_equal(cutoff(k, x), m)
    for j in (1, 7, 1000, 8000, 15625, 10 ** 6):
        assert sum_range(k, x[j - 1])[0] == j
        assert sum_range(k, x[j - 1] / 2.0)[1] == j


@pytest.mark.parametrize("m", [1000, 8000, 15625])
def test_k3_codings_agree_beside_a_jump(d3_table, m):
    # a relative distance of 1e-10 below the jump is no rounding error: the
    # point counts m - 1, in every coding of the cutoff
    cube = CubicPrimitiveSum(d3_table)
    jump = TWO_PI * m ** (2.0 / 3.0)
    below = TWO_PI * (m * (1.0 - 1e-10)) ** (2.0 / 3.0)
    for x, n in ((jump, m), (below, m - 1)):
        assert int(cutoff(3, x)) == sum_range(3, x / 2.0)[1] == n
        assert cube.eval_many(np.array([x]))[0] == cube.prefix[n]
        assert cubic_primitive_approx(x, d3_table) \
            == math.fsum(cube.terms[:n + 1].tolist())


@pytest.mark.parametrize("s", [2.0 + 0j, 2.5 + 0j, 1.6 + 1j])
def test_cubic_sum_by_parts_on_a_jump_edged_grid(d3_table, s):
    # s * integral of S_3 x^{-s-1} over [1, X] is sum over n <= N of
    # c_n x_n^{-s} - S_3(X) X^{-s} (x_n = 2 pi n^{2/3}, the jumps), which
    # V_2 subtracts in closed form.  K17 on panels edged at every jump
    # integrates the steps to rounding; the panel [x_m (1 - 1e-11), x_m]
    # below each jump holds nodes 3e-14 to 1e-11 relative below it, past
    # any rounding of (x/2pi)^{3/2}, so S_3 there must count m - 1: a
    # cutoff snap as wide as 1e-9 counts them as past it and moves the
    # integral by about 1e-11 relative
    X = 300.0
    n_cut = int(cutoff(3, X))
    cube = CubicPrimitiveSum(d3_table)
    jumps = TWO_PI * np.arange(1, n_cut + 1, dtype=float) ** (2.0 / 3.0)
    panels = PanelSet.from_edges(np.sort(np.concatenate(
        [[1.0, X], jumps, jumps * (1.0 - 1e-11)])))
    x = panels.nodes()
    terms = s * panels.weights() * cube.eval_many(x) * np.exp((-s - 1.0) * np.log(x))
    closed = cube.transform(s, n_cut) - cube.prefix[n_cut] * X ** -s
    assert abs(np.sum(terms) - closed) <= 1e-14 * np.sum(np.abs(terms))


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


def test_empty_range():
    # (1/2pi)^(1/2) and (1/pi)^(1/2) lie in (0, 1): no n between them
    res = moment_main_term(1, 1.0, divisor_sieve(1, 16))
    assert (res.n_lo, res.n_hi) == (1, 0)
    assert res.value == 0.0 and res.terms == 0


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
        mi = hardy_moment(2, T, 2.0 * T)
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
    xs = (50.0, 321.0, 1500.0)
    for x, v in zip(xs, cube.eval_many(np.array(xs))):
        assert v == pytest.approx(cubic_primitive_approx(x, d3_table),
                                  rel=1e-12)


def test_cubic_residual_bound(d3_table):
    cube = CubicPrimitiveSum(d3_table)
    xs = np.array([200.0, 500.0, 1000.0])
    r = np.abs(moment_cache(3).eval_many(xs) - cube.eval_many(xs))
    c_fit = r[0] / 200.0 ** 0.8
    assert np.all(r[1:] <= 3.0 * c_fit * xs[1:] ** 0.8)


def test_cubic_residual_doubling(d3_table):
    # residual ratio under doubling stays within 2^0.85 * 1.5
    cube = CubicPrimitiveSum(d3_table)
    xs = np.array([1000.0, 2000.0])
    r1, r2 = np.abs(moment_cache(3).eval_many(xs) - cube.eval_many(xs))
    assert r2 <= 2.0 ** 0.85 * 1.5 * max(r1, 1.0)
