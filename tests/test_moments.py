"""Moment integrals I_k, the cumulative primitive F, and absolute moments."""

import math

import numpy as np
import pytest

from hardylab import moments
from hardylab.errors import DomainError
from hardylab.hardy import (z_breakpoints, z_eval_many, z_oracle,
                            z_oracle_many)
from hardylab.moments import (MomentCache, hardy_moment, moment_cache,
                              z_power_freq)
from hardylab.quad import PanelSet, integrate_oscillatory, panel_edges


def test_degenerate_interval():
    # width * midpoint value is exact to O(width^3)
    zm = z_oracle(1.0 + 5e-7)
    m = hardy_moment(2, 1.0, 1.0 + 1e-6, tol=1e-13)
    assert abs(m.value - 1e-6 * zm * zm) < 1e-13


def test_additivity(rng):
    pts = np.sort(rng.uniform(20.0, 300.0, 3))
    a, b, c = (float(x) for x in pts)
    whole = hardy_moment(3, a, c, tol=1e-9)
    p1 = hardy_moment(3, a, b, tol=1e-9)
    p2 = hardy_moment(3, b, c, tol=1e-9)
    assert abs(whole.value - (p1.value + p2.value)) \
        <= whole.abs_err_est + p1.abs_err_est + p2.abs_err_est + 1e-9


def test_even_moment_nonnegative():
    m = hardy_moment(4, 50.0, 120.0, tol=1e-9)
    assert m.value >= -m.abs_err_est


def test_primitive_basics():
    F = moment_cache(1).value  # F(T) = I_1(T)
    assert F(1.0) == 0.0
    with pytest.raises(DomainError):
        F(0.5)
    # matches the adaptive integral
    direct = hardy_moment(1, 1.0, 777.0, tol=1e-10)
    assert abs(F(777.0) - direct.value) < 1e-8


def test_primitive_sign_changes():
    cache = moment_cache(1)
    cache.ensure(1000.0)
    m = (cache.edges >= 100.0) & (cache.edges <= 1000.0)
    vals = cache.values[m]
    assert np.sum(np.sign(vals[1:]) * np.sign(vals[:-1]) < 0) >= 1


def test_primitive_quarter_power_window():
    cache = moment_cache(1)
    cache.ensure(1e4)
    lo = cache.sup_scaled(0.25, 100.0, 1000.0)
    hi = cache.sup_scaled(0.25, 1000.0, 1e4)
    assert max(hi / lo, lo / hi) <= 3.0


def test_primitive_order_bound():
    # |I_1(T)| <= C T^{1/4} with C fitted below 1e3, tested at 1e4
    cache = moment_cache(1)
    cache.ensure(1e4)
    c_fit = cache.sup_scaled(0.25, 1.0, 1000.0)
    assert abs(cache.value(1e4)) <= 3.0 * c_fit * 1e4 ** 0.25


def test_dyadic_first_moment_bound():
    # |I_1(2T) - I_1(T)| <= 2 C T^{1/4} at T = 1e3 with the calibrated
    # primitive constant
    from hardylab.mellin import primitive_constant
    T = 1000.0
    dyadic = hardy_moment(1, T, 2.0 * T, tol=1e-8)
    assert abs(dyadic.value) <= 2.0 * primitive_constant(1) * T ** 0.25


def test_oracle_vs_rs_integrand_consistency():
    # swapping the fast evaluator for the oracle moves I_k by less than the
    # integrated Riemann-Siegel remainder budget
    freq = z_power_freq(2)
    r_o = integrate_oscillatory(lambda t: z_oracle_many(t) ** 2, 10.0, 200.0,
                                freq, tol=1e-10)
    r_f = hardy_moment(2, 10.0, 200.0, tol=1e-10)
    # integral of 2 |Z| c_3 t^(-9/4) over [10, 200] with |Z| <= 5 is ~2e-3
    assert abs(r_o.value.real - r_f.value) <= 2e-3


def test_cancellation_of_odd_moment():
    # one full oscillation near t = 100 nearly cancels
    period = 1.0 / z_power_freq(1)(100.0)
    m = hardy_moment(1, 100.0, 100.0 + period, tol=1e-10)
    peak = np.max(np.abs(z_oracle_many(np.linspace(100, 100 + period, 40))))
    assert abs(m.value) <= 0.5 * peak * period


def test_abs_moment_k2_growth():
    # value / (T (log T)^4) bounded across decades
    vals = {}
    for T in (100.0, 1000.0):
        vals[T] = hardy_moment(4, 1.0, T).value / (T * math.log(T) ** 4)
    assert 0.0 < vals[1000.0] <= 3.0 * vals[100.0]


def test_second_moment_lower_bound():
    # dyadic window carries at least c T log T mass; fit c on [100, 200]
    small = hardy_moment(2, 100.0, 200.0).value / (100.0 * math.log(100.0))
    big = hardy_moment(2, 1000.0, 2000.0).value
    assert big >= 0.3 * small * 1000.0 * math.log(1000.0)


def test_moment_growth_k2_window():
    # I_2(T)/(T log T) bounded above and below across decades
    ratios = []
    for T in (100.0, 1000.0, 10000.0):
        cache = moment_cache(2)
        ratios.append(cache.value(T) / (T * math.log(T)))
    assert max(ratios) <= 3.0 * min(ratios)
    assert min(ratios) > 0.0


def test_cache_eval_matches_fresh_cache():
    # the shared cache, however other tests grew it, and a fresh one give
    # the same bits
    fresh = MomentCache(2)
    xs = np.array([55.5, 123.4, 400.0])
    vals = fresh.eval_many(xs)
    ref = moment_cache(2).eval_many(xs)
    assert vals.tobytes() == ref.tobytes()


def test_cache_walk_does_not_depend_on_request_split():
    # one request, or many in any order, walk the same panels from 1 and
    # sum the same anchors
    whole = MomentCache(3)
    whole.ensure(700.0)
    split = MomentCache(3)
    for x in (5.0, 10.0, 123.4, 60.0, 2.0 * np.pi * 49, 333.3, 700.0):
        split.ensure(x)
    assert whole.edges.tobytes() == split.edges.tobytes()
    assert whole.values.tobytes() == split.values.tobytes()
    assert whole.cum_err.tobytes() == split.cum_err.tobytes()
    assert whole.zk.tobytes() == split.zk.tobytes()
    # the walk stops at the first edge past the request, with an edge at
    # every breakpoint of the evaluation
    assert whole.edges[-2] <= 700.0 < whole.edges[-1]
    assert set(z_breakpoints(1.0, 700.0)) <= set(whole.edges.tolist())


def test_cache_eval_uses_stored_node_values(monkeypatch):
    # inside the built range I_k(x) needs no new Z values
    cache = MomentCache(3)
    cache.ensure(500.0)
    xs = np.random.default_rng(4).uniform(1.0, 500.0, 1000)
    monkeypatch.setattr(cache, "_zk", None)
    vals = cache.eval_many(np.append(xs, cache.edges[[0, 7, -2]]))
    # at an anchor the value is the anchor's bits
    assert vals[-3:].tobytes() == cache.values[[0, 7, -2]].tobytes()
    # elsewhere it agrees with an adaptive integral from the anchor
    idx = np.searchsorted(cache.edges, xs, side="right") - 1
    ref = cache.values[idx] + np.array([
        hardy_moment(3, lo, x, tol=1e-12).value if x > lo else 0.0
        for lo, x in zip(cache.edges[idx], xs)])
    assert np.max(np.abs(vals[:-3] - ref)) <= 1e-9


def test_cache_panels_are_shared_up_to_a_clipped_last_panel():
    cache = MomentCache(2)
    panels, zk = cache.panels(300.0)
    m = len(panels.half) - 1
    assert zk[:m * 17].tobytes() == cache.zk[:m].tobytes()
    assert abs(panels.mid[-1] + panels.half[-1] - 300.0) <= 1e-12
    last = z_eval_many(panels.nodes()[-17:]) ** 2
    assert zk[-17:].tobytes() == last.tobytes()


def test_cache_eval_blocks_do_not_change_values():
    # eval_many works in blocks of _ELEMS // 17 points; a point's value does
    # not depend on its block
    cache = MomentCache(1)
    xs = np.random.default_rng(9).uniform(1.0, 300.0, 40_000)
    whole = cache.eval_many(xs)
    parts = np.concatenate([cache.eval_many(xs[j:j + 777])
                            for j in range(0, len(xs), 777)])
    assert whole.tobytes() == parts.tobytes()


# I_k at seeded points (rng 2015 on [1, 300] after 1, 10 and 150), as
# float.hex of the values eval_many gave before it shared
# quad.integrals_at with the square identity
EVAL_XS = [1.0, 10.0, 150.0, 151.71758919021917, 67.49614173360439,
           231.65691881913796, 290.2164862884349, 49.6739221585803]
EVAL_REF = {
    1: ["0x0.0p+0", "-0x1.0944c4e380a29p+3", "-0x1.7e25fa1b63c91p+2",
        "-0x1.98fd7ac1556b3p+2", "-0x1.6c23b7892fa3cp+3",
        "-0x1.cda633f9ff0c5p+2", "0x1.41ad4e6e31c3ep+1",
        "-0x1.a6d66fe6ceb76p+0"],
    2: ["0x0.0p+0", "0x1.17ac89bf0f62dp+3", "0x1.f3b15e172a7c5p+8",
        "0x1.f46f7504eb1a1p+8", "0x1.5f6bfde123552p+7",
        "0x1.b1030b1bf9498p+9", "0x1.21c08225dc84fp+10",
        "0x1.caa390e1f83b0p+6"],
    3: ["0x0.0p+0", "-0x1.4877b4e5073dcp+3", "0x1.a8e357f9b14e4p+6",
        "0x1.a5a2e8cb980c8p+6", "-0x1.56eea3b5c498ap+6",
        "0x1.4ec8f267774b4p+8", "0x1.07ba885088dd3p+9",
        "0x1.bcf9a9b6aa9d7p+3"],
    4: ["0x0.0p+0", "0x1.9fe6ec7a66953p+3", "0x1.3f1cef911588dp+12",
        "0x1.3f2e5e5ab9f41p+12", "0x1.2f7570348ccfbp+10",
        "0x1.58402c0b39db9p+13", "0x1.0b8ad42e14fb0p+14",
        "0x1.48d3b3d07ac4cp+9"],
}


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_cache_eval_matches_frozen_values(k):
    vals = moment_cache(k).eval_many(np.array(EVAL_XS))
    assert [float(v).hex() for v in vals] == EVAL_REF[k]


def test_split_cache_evaluates_only_base_nodes(monkeypatch):
    # a k >= 2 cache cuts each base panel into k sub-panels and interpolates
    # the base's stored Z values: the only Z it asks for is the base walk's
    points = []

    def counting(t):
        points.append(len(t))
        return z_eval_many(t)

    monkeypatch.setattr(moments, "z_eval_many", counting)
    cache = MomentCache(3)
    for x in (50.0, 321.0, 500.0):
        cache.ensure(x)
    assert sum(points) == 17 * len(cache.base.zk)
    n = len(cache.edges[::3])
    assert cache.edges[::3].tobytes() == cache.base.edges[:n].tobytes()
    assert cache.edges[-2] <= 500.0 < cache.edges[-1]


def _state(cache):
    return [a.tobytes() for a in (cache.edges, cache.values, cache.cum_err,
                                  cache.zk)]


def test_shared_base_gives_fresh_cache_bits():
    # sharing a base, built before or after the base grew past it, gives
    # the bits of a cache with its own fresh base
    fresh = MomentCache(2)
    fresh.ensure(700.0)
    ahead = MomentCache(1)
    ahead.ensure(2000.0)
    early = MomentCache(2, ahead)
    early.ensure(700.0)
    behind = MomentCache(1)
    late = MomentCache(2, behind)
    late.ensure(300.0)
    behind.ensure(2000.0)
    late.ensure(700.0)
    assert _state(early) == _state(fresh) == _state(late)
    # the process-wide caches share moment_cache(1) as the base, however
    # other tests grew them
    shared = moment_cache(2)
    assert shared.base is moment_cache(1)
    moment_cache(1).ensure(2000.0)
    shared.ensure(700.0)
    fresh.ensure(shared.edges[-2])
    assert _state(shared) == _state(fresh)


@pytest.mark.parametrize("k", [2, 4])
def test_split_cache_within_its_error_estimate(k):
    # against K17 with direct Z on panels 4x finer than the native quarter
    # periods of Z^k, the cache is off by at most its summed error estimate
    cache = MomentCache(k)
    for a, b in ((1.0, 100.0), (1000.0, 2000.0), (3000.0, 4000.0)):
        edges = panel_edges(a, b, z_power_freq(k), z_breakpoints(a, b))
        fine = np.append((edges[:-1, None] + np.diff(edges)[:, None]
                          * (np.arange(4) / 4)).ravel(), b)
        panels = PanelSet.from_edges(fine)
        ref = float(np.sum(panels.sums(z_eval_many(panels.nodes()) ** k)))
        gap = abs(cache.value(b) - cache.value(a) - ref)
        assert gap <= cache.err_at(b) - cache.err_at(a)
    assert cache.err_at(4000.0) <= 1e-10 * abs(cache.value(4000.0))


def test_adaptive_moment_k4_converges_and_matches_cache():
    # panels that sample the value and the check rule at disjoint nodes
    # bisect on Z's rounding here and exhaust the budget; the shared
    # Gauss-Kronrod nodes converge
    r = hardy_moment(4, 2000.0, 4000.0, tol=1e-8, budget=2_000_000)
    cache = MomentCache(4)
    lo, hi = cache.eval_many(np.array([2000.0, 4000.0]))
    limit = r.abs_err_est + cache.err_at(2000.0) + cache.err_at(4000.0)
    assert abs(r.value - (hi - lo)) <= limit


def test_domain_checks():
    with pytest.raises(DomainError):
        hardy_moment(0, 1.0, 2.0)
    with pytest.raises(DomainError):
        hardy_moment(2, 5.0, 2.0)
