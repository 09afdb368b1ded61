"""Moment integrals I_k, the cumulative primitive F, and absolute moments."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from hardylab import moments, quad, verify
from hardylab.errors import DomainError
from hardylab.hardy import (_CHUNK, z_breakpoints, z_eval_many, z_oracle,
                            z_oracle_many)
from hardylab.moments import (MomentCache, hardy_moment, moment_cache,
                              power_in_place, z_freq)
from hardylab.quad import PanelSet, integrate_oscillatory, panel_edges


def test_degenerate_interval():
    # width * midpoint value is exact to O(width^3)
    zm = z_oracle(1.0 + 5e-7)
    m = hardy_moment(2, 1.0, 1.0 + 1e-6)
    assert abs(m.value - 1e-6 * zm * zm) < 1e-13


def test_additivity(rng):
    pts = np.sort(rng.uniform(20.0, 300.0, 3))
    a, b, c = (float(x) for x in pts)
    whole = hardy_moment(3, a, c)
    p1 = hardy_moment(3, a, b)
    p2 = hardy_moment(3, b, c)
    assert abs(whole.value - (p1.value + p2.value)) \
        <= whole.abs_err_est + p1.abs_err_est + p2.abs_err_est + 1e-9


def test_even_moment_nonnegative():
    m = hardy_moment(4, 50.0, 120.0)
    assert m.value >= -m.abs_err_est


def test_primitive_basics():
    F = moment_cache(1).eval_many  # F(T) = I_1(T)
    assert F(np.array([1.0]))[0] == 0.0
    with pytest.raises(DomainError):
        F(np.array([0.5]))
    # matches the fixed-rule integral
    direct = hardy_moment(1, 1.0, 777.0)
    assert abs(F(np.array([777.0]))[0] - direct.value) < 1e-8


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
    [i_top] = cache.eval_many(np.array([1e4]))
    assert abs(i_top) <= 3.0 * c_fit * 1e4 ** 0.25


def test_dyadic_first_moment_bound():
    # |I_1(2T) - I_1(T)| <= 2 C T^{1/4} at T = 1e3 with the calibrated
    # primitive constant
    from hardylab.mellin import primitive_constant
    T = 1000.0
    dyadic = hardy_moment(1, T, 2.0 * T)
    assert abs(dyadic.value) <= 2.0 * primitive_constant(1) * T ** 0.25


def test_oracle_vs_rs_integrand_consistency():
    # swapping the fast evaluator for the oracle moves I_k by less than the
    # integrated Riemann-Siegel remainder budget
    freq = lambda t: 2 * z_freq(t)
    r_o = integrate_oscillatory(lambda t: z_oracle_many(t) ** 2, 10.0, 200.0,
                                freq)
    r_f = hardy_moment(2, 10.0, 200.0)
    # integral of 2 |Z| c_3 t^(-9/4) over [10, 200] with |Z| <= 5 is ~2e-3
    assert abs(r_o.value.real - r_f.value) <= 2e-3


def test_cancellation_of_odd_moment():
    # one full oscillation near t = 100 nearly cancels
    period = 1.0 / z_freq(100.0)
    m = hardy_moment(1, 100.0, 100.0 + period)
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
    Ts = np.array([100.0, 1000.0, 10000.0])
    ratios = moment_cache(2).eval_many(Ts) / (Ts * np.log(Ts))
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
    # elsewhere it agrees with a fixed-rule integral from the anchor
    idx = np.searchsorted(cache.edges, xs, side="right") - 1
    ref = cache.values[idx] + np.array([
        hardy_moment(3, lo, x).value if x > lo else 0.0
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


def _power_inputs():
    # seeded normals of both signs, exact zeros and tiny magnitudes
    rng = np.random.default_rng(20)
    return np.concatenate([rng.normal(0.0, 5.0, 2000), np.zeros(3),
                           rng.normal(0.0, 1e-60, 200)])


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_power_in_place_bits(k):
    # k = 1, 2 keep the bits of ** k; k = 3, 4 are products, not pow
    a = _power_inputs()
    b = a.copy()
    assert power_in_place(b, k) is b
    ref = {1: a ** 1, 2: a ** 2, 3: (a * a) * a, 4: (a * a) * (a * a)}[k]
    assert b.tobytes() == ref.tobytes()


@pytest.mark.parametrize("k", [3, 4])
def test_power_in_place_rounding_bound(k):
    # k - 1 roundings: within gamma_{k-1} = m u / (1 - m u) relative of the
    # exact power (Higham 2002, section 3.1)
    a = _power_inputs()
    got = power_in_place(a.copy(), k)
    m, u = k - 1, Fraction(1, 2 ** 53)
    gamma = m * u / (1 - m * u)
    for x, y in zip(a.tolist(), got.tolist()):
        exact = Fraction(x) ** k
        assert abs(Fraction(y) - exact) <= gamma * abs(exact)


@pytest.mark.parametrize("k, temporaries", [(4, 0), (3, 1)])
def test_power_in_place_allocates_no_node_copy(k, temporaries):
    a = np.random.default_rng(21).normal(size=100_000)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        power_in_place(a, k)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < (temporaries + 0.5) * a.nbytes


def test_cache_eval_blocks_do_not_change_values():
    # eval_many works in blocks of quad._EVAL_BLOCK points; a point's value
    # does not depend on its block
    cache = MomentCache(1)
    xs = np.random.default_rng(9).uniform(1.0, 300.0, 40_000)
    whole = cache.eval_many(xs)
    parts = np.concatenate([cache.eval_many(xs[j:j + 777])
                            for j in range(0, len(xs), 777)])
    assert whole.tobytes() == parts.tobytes()
    # nor on which other panels its block touches: each block forms the
    # Legendre coefficients of its touched panels once
    other = np.random.default_rng(10).uniform(300.0, 2000.0, 3000)
    for batch in (np.concatenate([other, xs[:900]]),
                  np.concatenate([xs[:900], other[::-1], xs[:900]])):
        got = cache.eval_many(batch)
        assert got[-900:].tobytes() == whole[:900].tobytes()


def _weight_rows(y, tau):
    # the form partial_integrals replaced: per point, one weight row summed
    # over n, dotted with its panel's node values
    p_prev, p = np.ones_like(tau), tau
    w = (tau + 1.0)[:, None] * quad._LEGENDRE[0]
    for n in range(1, quad.NODES):
        p_next = ((2 * n + 1) * tau * p - n * p_prev) / (n + 1)
        w += ((p_next - p_prev) / (2 * n + 1))[:, None] * quad._LEGENDRE[n]
        p_prev, p = p, p_next
    return (w * y).sum(axis=1)


def _weight_row_integrals(lo, hi, anchors, y, xs):
    # in blocks of 4,096 points, as before
    idx = np.searchsorted(lo, xs, side="right") - 1
    a, b = lo[idx], hi[idx]
    tau = 2.0 * (xs - a) / (b - a) - 1.0
    out = anchors[idx]
    for j in range(0, len(xs), 4096):
        sl = slice(j, j + 4096)
        out[sl] += 0.5 * (b[sl] - a[sl]) * _weight_rows(y[idx[sl]], tau[sl])
    return out, idx


def _traced_peak(f, *args):
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        f(*args)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_cache_eval_memory_no_higher_than_weight_rows(monkeypatch):
    # the per-block coefficients and integrated Legendre values take no
    # more memory than the weight rows they replaced
    cache = MomentCache(3)
    cache.ensure(1000.0)
    xs = np.random.default_rng(4).uniform(1.0, 1000.0, 40_000)
    new = cache.eval_many(xs)
    peak = _traced_peak(cache.eval_many, xs)
    monkeypatch.setattr(moments, "integrals_at", _weight_row_integrals)
    old = cache.eval_many(xs)
    assert np.max(np.abs(new - old)) <= 1e-12 * np.max(np.abs(old))
    assert peak <= _traced_peak(cache.eval_many, xs)


# I_k at seeded points (rng 2015 on [1, 300] after 1, 10 and 150), as
# float.hex of the values eval_many gave before it shared
# quad.integrals_at with the square identity; k = 3 since Z^3 is the
# product Z (Z Z), not pow (its last three entries moved by 3, 2 and 4 ulp);
# k = 1..3 since Z's cos and sin come from fixed polynomials, not libm
# (moves of 1-29 ulp, at most 3.7e-15 relative); k = 2..4 since Z^k is
# integrated on Z's own panels, not on k sub-panels of each (moves of 0-27
# ulp, at most 5.8e-15 relative); k = 1 and 3 since a point's integral is
# sum_n q_n(tau) c_n over its panel's Legendre coefficients, not one weight
# row dotted with the node values (entry 6 moved by 1 ulp for both)
EVAL_XS = [1.0, 10.0, 150.0, 151.71758919021917, 67.49614173360439,
           231.65691881913796, 290.2164862884349, 49.6739221585803]
EVAL_REF = {
    1: ["0x0.0p+0", "-0x1.0944c4e380a29p+3", "-0x1.7e25fa1b63c88p+2",
        "-0x1.98fd7ac1556a8p+2", "-0x1.6c23b7892fa39p+3",
        "-0x1.cda633f9ff0b6p+2", "0x1.41ad4e6e31c4fp+1",
        "-0x1.a6d66fe6ceb6ap+0"],
    2: ["0x0.0p+0", "0x1.17ac89bf0f62ep+3", "0x1.f3b15e172a7bep+8",
        "0x1.f46f7504eb19bp+8", "0x1.5f6bfde123552p+7", "0x1.b1030b1bf9491p+9",
        "0x1.21c08225dc847p+10", "0x1.caa390e1f83adp+6"],
    3: ["0x0.0p+0", "-0x1.4877b4e5073dap+3", "0x1.a8e357f9b14e8p+6",
        "0x1.a5a2e8cb980ccp+6", "-0x1.56eea3b5c498cp+6",
        "0x1.4ec8f267774aap+8", "0x1.07ba885088dbdp+9",
        "0x1.bcf9a9b6aa9f7p+3"],
    4: ["0x0.0p+0", "0x1.9fe6ec7a66952p+3", "0x1.3f1cef9115889p+12",
        "0x1.3f2e5e5ab9f3cp+12", "0x1.2f7570348ccfap+10",
        "0x1.58402c0b39db1p+13", "0x1.0b8ad42e14faep+14",
        "0x1.48d3b3d07ac46p+9"],
}


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_cache_eval_matches_frozen_values(k):
    vals = moment_cache(k).eval_many(np.array(EVAL_XS))
    assert [float(v).hex() for v in vals] == EVAL_REF[k]


def _counting_z(monkeypatch):
    # the number of heights every later Z call in moments asks for
    points = []

    def counting(t):
        points.append(len(t))
        return z_eval_many(t)

    monkeypatch.setattr(moments, "z_eval_many", counting)
    return points


def test_split_cache_evaluates_only_base_nodes(monkeypatch):
    # a k >= 2 cache reads the base's panels and raises a copy of its stored
    # Z rows: the only Z it asks for is the base walk's
    points = _counting_z(monkeypatch)
    cache = MomentCache(3)
    cache.ensure(50.0)
    cache.base.ensure(800.0)
    for x in (321.0, 500.0):
        cache.ensure(x)
    base = cache.base
    assert sum(points) == 17 * len(base.zk)
    n = len(cache.edges)
    assert cache.edges.tobytes() == base.edges[:n].tobytes()
    assert cache.zk.tobytes() == power_in_place(base.zk[:n - 1].copy(),
                                                3).tobytes()
    assert cache.edges[-2] <= 500.0 < cache.edges[-1]


def test_split_cache_owns_no_node_array():
    # the k = 1 walk is the one store of Z rows: a k >= 2 cache keeps its
    # edges, I_k and estimates, and forms Z^k rows only as it reads them
    cache = MomentCache(3)
    cache.ensure(500.0)
    nodes = quad.NODES * (len(cache.edges) - 1)
    arrays = [v for v in vars(cache).values() if isinstance(v, np.ndarray)]
    assert len(arrays) == 3 and all(a.size < nodes for a in arrays)
    assert cache.base.z.size >= nodes and cache.zk.size == nodes


def test_walks_ask_z_for_one_chunk_at_a_time(monkeypatch):
    # the k = 1 walk and hardy_moment hand Z the nodes of quad.Z_BLOCK
    # panels per call, one Riemann-Siegel chunk of heights
    points = _counting_z(monkeypatch)
    MomentCache(1).ensure(5000.0)
    walk = list(points)
    points.clear()
    hardy_moment(2, 1000.0, 3000.0)
    for calls in (walk, points):
        assert len(calls) > 1 and max(calls) <= _CHUNK == 17_476
    assert quad.Z_BLOCK * quad.NODES == _CHUNK


def test_walk_extension_peaks_near_what_it_keeps():
    # the walk writes its Z rows into the new store as it goes and asks Z
    # for one chunk at a time: extending 2,000 -> 10,000 keeps about 3.1 MB
    # and peaks at most 6.5 MB above that (12.7 MB with the old blocks of
    # 262,140 nodes and the rows concatenated twice)
    cache = MomentCache(1)
    cache.ensure(2000.0)
    tracemalloc.start()
    try:
        cache.ensure(1.0e4)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept >= cache.z[-1000:].nbytes
    assert peak - kept <= 6.5 * 2 ** 20


def test_dyadic_suites_read_the_square_suite_walk(monkeypatch):
    # the dyadic and cubic checks take I_k from the moment caches, which
    # share one Z walk: once dyadic-square has walked it to 2000, the odd
    # and cubic suites ask Z for no height
    verify.run(["dyadic-square"])
    points = _counting_z(monkeypatch)
    verify.run(["dyadic-odd", "cubic-primitive"])
    assert sum(points) == 0


@pytest.mark.parametrize("T", [145.0, 650.0])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_moment_panels_follow_z_not_z_power(monkeypatch, k, T):
    # the moment walks quarter periods of Z for every k, so Z^k costs at
    # most twice the Z points of Z itself (quarter periods of Z^k cost about
    # k times as many)
    points = _counting_z(monkeypatch)
    hardy_moment(1, T, 2.0 * T)
    one = sum(points)
    points.clear()
    hardy_moment(k, T, 2.0 * T)
    assert sum(points) <= 2 * one


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


@pytest.mark.parametrize("k", [2, 3, 4])
def test_split_cache_within_its_error_estimate(k):
    # against K17 with direct Z on panels 4x finer than the quarter periods
    # of Z^k (4k times finer than the cache's, which are Z's), the cache is
    # off by at most its summed |K17 - G8|
    cache = MomentCache(k)
    # err_at(x) extends the walk past x first, then sums the estimates of
    # every panel through x's own: with 100 inside panel i - 1, that panel
    # counts, and at its left edge only the panels below it
    inside = cache.err_at(100.0)
    i = int(np.searchsorted(cache.edges, 100.0))
    assert cache.edges[i - 1] < 100.0 < cache.edges[i]
    assert inside == cache.cum_err[i] > cache.cum_err[i - 1] > 0.0
    assert cache.err_at(cache.edges[i - 1]) == cache.cum_err[i - 1]
    for a, b in ((1.0, 100.0), (1000.0, 2000.0), (3000.0, 4000.0)):
        edges = panel_edges(a, b, lambda t: k * z_freq(t),
                            z_breakpoints(a, b))
        fine = np.append((edges[:-1, None] + np.diff(edges)[:, None]
                          * (np.arange(4) / 4)).ravel(), b)
        panels = PanelSet.from_edges(fine)
        ref = float(np.sum(panels.integrate(z_eval_many(panels.nodes()) ** k)[0]))
        ia, ib = cache.eval_many(np.array([a, b]))
        gap = abs(ib - ia - ref)
        assert gap <= cache.err_at(b) - cache.err_at(a)
    [i_top] = cache.eval_many(np.array([4000.0]))
    assert cache.err_at(4000.0) <= 1e-10 * abs(i_top)


def test_moment_k4_matches_cache():
    # one fixed pass, well inside its budget, agrees with the cache within
    # both estimates
    r = hardy_moment(4, 2000.0, 4000.0, budget=2_000_000)
    cache = MomentCache(4)
    lo, hi = cache.eval_many(np.array([2000.0, 4000.0]))
    limit = r.abs_err_est + cache.err_at(2000.0) + cache.err_at(4000.0)
    assert abs(r.value - (hi - lo)) <= limit


def test_moment_memory_bounded_at_large_heights():
    # one pass in blocks of _ELEMS nodes and no cache to 2T: the traced
    # peak stays a few blocks' worth at any height
    tracemalloc.start()
    try:
        r = hardy_moment(1, 2.0e4, 4.0e4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20
    assert r.abs_err_est <= 1e-6


def test_domain_checks():
    with pytest.raises(DomainError):
        hardy_moment(0, 1.0, 2.0)
    with pytest.raises(DomainError):
        hardy_moment(2, 5.0, 2.0)
