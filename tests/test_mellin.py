"""Mellin transforms, continuation, decomposition, Laurent fit, identities."""

import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import hardylab
import hardylab.mellin as ML
from hardylab import moments
from hardylab.errors import ConvergenceError, DomainError, FitError
from hardylab.hardy import z_breakpoints, z_eval_many, z_oracle
from hardylab.moments import moment_cache, power_in_place, z_freq
from hardylab.quad import (CHECK_RATIO, NODES, PanelSet, integrate_oscillatory,
                           integrate_vertical_line, panel_edges)
from hardylab.special import TWO_PI

TWO_GAMMA_MINUS_LOG_2PI = -0.6834457366062798


def test_direct_vs_by_parts_k2():
    d = ML.mellin_direct(2, 3.0 + 0j, X=2000.0)
    b = ML.mellin_by_parts(2, 3.0 + 0j)
    assert abs(d.value - b.value) <= d.tail_bound + b.tail_bound


def test_direct_vs_by_parts_k1():
    d = ML.mellin_direct(1, 2.0 + 0j, X=4000.0)
    b = ML.mellin_by_parts(1, 2.0 + 0j)
    assert abs(d.value - b.value) <= d.tail_bound + b.tail_bound


def test_direct_truncation_consistency():
    # doubling X moves the value by less than the previous certificate
    m1 = ML.mellin_direct(1, 4.0 + 0j, X=500.0)
    m2 = ML.mellin_direct(1, 4.0 + 0j, X=1000.0)
    assert abs(m2.value - m1.value) <= m1.tail_bound


def test_direct_positivity_even_k():
    m = ML.mellin_direct(4, 2.0 + 0j, X=500.0)
    assert m.value.real > 0.0
    assert abs(m.value.imag) < 1e-12


def test_direct_regime_guard():
    with pytest.raises(ConvergenceError):
        ML.mellin_direct(2, 1.05 + 0j)
    with pytest.raises(DomainError):
        ML.mellin_direct(2, 3.0 + 0j, X=5.0)


@pytest.mark.parametrize("k, s, X", [
    (1, 4.0 + 0j, 500.0), (2, 3.0 + 0j, 2000.0), (3, 2.5 + 3j, 1000.0),
    (1, 2.0 - 7j, 4000.0), (2, 2.5 + 12j, 1000.0), (4, 3.0 + 20j, 2000.0)])
def test_direct_matches_an_independent_pass(k, s, X):
    # mellin_direct reads its band's transform grid; the reference is its
    # own K17 pass of Z^k x^{-s} over [1, X] on 1-wide panels hinted with
    # the twist |Im s| / (2 pi x) itself, not the band's top
    t = abs(s.imag)
    ref = integrate_oscillatory(
        lambda x: power_in_place(z_eval_many(x), k) * np.exp(-s * np.log(x)),
        1.0, X, lambda x: z_freq(x) + t / (TWO_PI * x),
        breakpoints=z_breakpoints(1.0, X))
    d = ML.mellin_direct(k, s, X=X)
    e = ML._PRIM_EXP[k]
    tail = 2.0 * abs(s) * ML.primitive_constant(k) * X ** (e - s.real) / (s.real - e)
    assert abs(d.value - ref.value) <= (d.tail_bound - tail) + ref.abs_err_est


@pytest.mark.parametrize("s", [complex(math.nan, 0.0), complex(2.0, math.inf),
                               complex(math.inf, 1.0)])
def test_non_finite_s_rejected(s):
    with pytest.raises(DomainError):
        ML.mellin_by_parts(1, s)
    with pytest.raises(DomainError):
        ML.mellin_direct(1, s)
    with pytest.raises(DomainError):
        ML.m3_decomposition(s, 1000.0)


NAN, INF = math.nan, math.inf


@pytest.mark.parametrize("call", [
    lambda: z_breakpoints(1.0, INF),
    lambda: z_breakpoints(1.0, NAN),
    lambda: z_breakpoints(NAN, 10.0),
    lambda: moments.hardy_moment(1, 1.0, INF),
    lambda: ML.mellin_direct(1, 2.0 + 0j, X=INF),
    lambda: ML.mellin_direct(1, 2.0 + 0j, X=NAN),
    lambda: integrate_vertical_line(lambda s: s, 2.0, 0.0, INF),
    lambda: integrate_vertical_line(lambda s: s, 2.0, 0.0, [4.0, NAN]),
    lambda: integrate_vertical_line(lambda s: s, 2.0, -INF, 4.0),
    lambda: ML.truncated_inversion(1, 10.0, 1.5, INF),
    lambda: ML.check_convolution(2, 1, 3.0 + 0j, 2.0, [4.0, INF], x_nodes=20.0),
    lambda: ML.v1_series(complex(NAN, 0.0), 10),
    lambda: ML.v2_residual(complex(NAN, 0.0), 1000.0),
    lambda: ML.v2_residual(complex(2.0, INF), 1000.0),
    lambda: ML.v2_residual(2.0 + 0j, NAN),
    lambda: ML.v2_residual([2.0 + 0j, complex(2.0, NAN)], 1000.0),
    lambda: ML.m3_decomposition([2.0 + 0j, complex(INF, 1.0)], 1000.0),
    lambda: ML.laplace_consistency(complex(2.0, NAN)),
    lambda: ML.laurent_fit_at_1([(0.02, 1.0), (NAN, 2.0), (0.05, 3.0)]),
    lambda: ML.laurent_fit_at_1([(0.02, 1.0), (0.03, NAN), (0.05, 3.0)]),
], ids=["breaks-b-inf", "breaks-b-nan", "breaks-a-nan", "moment-b-inf",
        "direct-X-inf", "direct-X-nan", "line-t1-inf", "line-t1-nan",
        "line-t0-inf", "inversion-U-inf", "convolution-V-inf", "v1-s-nan",
        "v2-s-nan", "v2-t-inf", "v2-X-nan", "v2-batch-nan", "m3-batch-inf",
        "laplace-t-nan", "laurent-delta-nan", "laurent-value-nan"])
def test_non_finite_input_fails_before_work(call):
    # non-finite bounds and s raise at once: none loops, runs out a budget,
    # ends in a numpy warning or returns nan
    with pytest.raises(DomainError):
        call()


def test_convolution_rejects_a_bad_height_before_any_grid(monkeypatch):
    def no_grid(*args):
        raise AssertionError("a transform grid was requested")

    monkeypatch.setattr(ML, "_grid", no_grid)
    with pytest.raises(DomainError):
        ML.check_convolution(2, 1, 3.0 + 0j, 2.0, [4.0, INF])


_NO_MA = """
import sys
from hardylab.mellin import mellin_by_parts
mellin_by_parts(2, 1.1)
print("numpy.ma" in sys.modules)
"""


def test_by_parts_leaves_numpy_ma_unimported():
    # numpy.ma costs a fresh process about 10 ms to import
    env = dict(os.environ)
    src = str(Path(hardylab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    res = subprocess.run([sys.executable, "-c", _NO_MA], env=env,
                         capture_output=True, text=True, timeout=300,
                         check=True)
    assert res.stdout.split() == ["False"]


@pytest.mark.parametrize("X", [0.5, -3.0, 0.0, math.nan, math.inf])
def test_truncation_height_below_one_rejected(X):
    with pytest.raises(DomainError, match="X"):
        ML.mellin_by_parts(1, 2.0 + 0j, X=X)
    with pytest.raises(DomainError, match="X"):
        ML.m3_decomposition(2.0 + 0j, X)


def test_truncation_height_one_is_an_empty_grid():
    # [1, X] holds no panel: the truncated transform and I_k(1) are 0
    m = ML.mellin_by_parts(1, 2.0 + 5j, X=1.0)
    assert m.value == 0.0 and math.isfinite(m.tail_bound)


def test_by_parts_continuation_k1():
    # regular continuation value below sigma = 1 with a certificate
    m = ML.mellin_by_parts(1, 0.6 + 2j)
    assert math.isfinite(m.value.real) and math.isfinite(m.value.imag)
    assert m.tail_bound > 0.0 and math.isfinite(m.tail_bound)
    assert m.method == "by_parts"


def test_by_parts_regime_guard():
    with pytest.raises(ConvergenceError):
        ML.mellin_by_parts(1, 0.2 + 0j)
    with pytest.raises(ConvergenceError):
        ML.mellin_by_parts(3, 0.7 + 0j)
    with pytest.raises(ConvergenceError):
        ML.mellin_by_parts(2, 1.005 + 0j)


def test_pointwise_growth_row_sigma_three_quarters():
    # |M_1(3/4 + it)| stays bounded along t = 5, 10, 20, 40
    vals = [abs(ML.mellin_by_parts(1, complex(0.75, t)).value)
            for t in (5.0, 10.0, 20.0, 40.0)]
    assert vals[-1] <= 3.0 * max(vals[:-1])


def test_conjugate_symmetry():
    for k, s in ((1, 2.0 + 1.5j), (2, 2.5 + 4j), (3, 2.0 + 0.5j)):
        m = ML.mellin_by_parts(k, s)
        mc = ML.mellin_by_parts(k, s.conjugate())
        assert abs(m.value.conjugate() - mc.value) <= 1e-10 * abs(m.value)


def test_representation_agreement_grid(rng):
    # 10 shared (sigma, t) points, all k <= 4
    pts = [complex(rng.uniform(1.5, 3.0), rng.uniform(-10.0, 10.0))
           for _ in range(10)]
    for k in (1, 2, 3, 4):
        for s in pts:
            d = ML.mellin_direct(k, s, X=2000.0)
            b = ML.mellin_by_parts(k, s)
            assert abs(d.value - b.value) <= d.tail_bound + b.tail_bound, (k, s)


def test_v1_series_single_term():
    want = (2.0 * math.pi) ** -1.0 * math.sqrt(2.0 / 3.0) \
        * math.cos(3.0 * math.pi + math.pi / 8.0)
    got = ML.v1_series(2.0 + 0j, 1)
    assert got.real == pytest.approx(want, rel=1e-14)
    assert got.imag == 0.0


def test_v1_series_cauchy_envelope():
    # partial-sum differences fall inside the N^{-1/2} envelope
    s = 2.0 + 0j
    v3 = ML.v1_series(s, 1000)
    v4 = ML.v1_series(s, 10_000)
    v5 = ML.v1_series(s, 20_000)
    d34 = abs(v4 - v3)
    d45 = abs(v5 - v4)
    assert d34 <= 5.0 * 1000 ** -0.5
    assert d45 <= 5.0 * 10_000 ** -0.5


def test_v1_series_triangle_bound(d3_table):
    s = 3.0 + 0j
    n = np.arange(1, 5001)
    bound = (2.0 * math.pi) ** -2.0 * math.sqrt(2.0 / 3.0) \
        * float(np.sum(d3_table.counts[1:5001] * n ** (-13.0 / 6.0)))
    assert abs(ML.v1_series(s, 5000)) <= bound


def test_v1_series_guards():
    with pytest.raises(DomainError):
        ML.v1_series(2.0 + 0j, 0)


def test_v2_residual_regularity_below_one():
    v = ML.v2_residual(1.2 + 0j, 500.0)
    assert math.isfinite(v.real) and math.isfinite(v.imag)


def test_v2_residual_doubling_growth():
    s = 2.0 + 0j
    c_r = ML.residual_constant()
    v1k = ML.v2_residual(s, 1000.0)
    v2k = ML.v2_residual(s, 2000.0)
    bound = abs(s) * c_r * 1000.0 ** (0.8 - 2.0) / (2.0 - 0.8)
    assert abs(v2k - v1k) <= 3.0 * bound


def test_decomposition_matched_cutoffs():
    for s in (2.0 + 0j, 2.5 + 0j, 1.6 + 1j):
        d = ML.m3_decomposition(s, 1000.0)
        assert d["gap_rel"] <= 1e-5, s


def test_decomposition_memos_keyed_by_height():
    # the d_3 table is sized from X, so a second call at one X reuses the
    # prefix sum of V_1 and the V_2 grid
    ML._v2_grid.cache_clear()
    ML._cubic_sum.cache_clear()
    first = ML.m3_decomposition(2.0 + 0j, 300.0)
    assert ML.m3_decomposition(2.0 + 0j, 300.0) == first
    assert ML._v2_grid.cache_info().currsize == 1
    assert ML._cubic_sum.cache_info().currsize == 1


def test_decomposition_forms_v1_once_per_s(monkeypatch):
    # V_2 is the I_3 quadrature less V_1: the decomposition hands its V_1
    # to V_2, and v2_residual, which forms its own, gives the same bits
    s = [2.0 + 0j, 1.6 + 1j]
    calls = []
    v1 = ML.v1_series
    monkeypatch.setattr(ML, "v1_series", lambda *a: calls.append(a) or v1(*a))
    d = ML.m3_decomposition(s, 1000.0)
    assert len(calls) == len(s)
    assert [r["v2"] for r in d] == ML.v2_residual(s, 1000.0)


def _v2_i3(X):
    # I_3 at the V_2 grid's nodes by spectral integration from the anchors
    cache = moment_cache(3)
    panels, z3 = cache.panels(X)
    return panels, panels.node_integrals(z3, cache.values[:len(panels.lo)])


@pytest.mark.parametrize("X", [300.0, 1000.0])
def test_v2_grid_is_the_band0_grid(X):
    # one grid, no second (jump-edged) one: 17 nodes per panel of M_3's
    # band-0 grid, and the same nodes (one shared array), weighted by I_3
    # instead of Z^3
    panels, i3 = _v2_i3(X)
    engine = ML._v2_grid(X)
    assert engine.u.size == NODES * len(panels.lo)
    assert engine.u is ML._grid(3, X, 0).engine.u
    assert engine.a.ravel().tobytes() == (panels.weights() * i3).tobytes()


def test_band0_grid_peaks_one_node_array_above_what_it_keeps():
    # on a built cache a band-0 grid forms its nodes, logs and weight times
    # Z^k products in place: it keeps u and a, and its peak stays within one
    # more node-sized array
    moment_cache(2).ensure(8000.0)
    tracemalloc.start()
    try:
        grid = ML._PrimitiveGrid(2, 8000.0, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    u, a = grid.engine.u, grid.engine.a
    assert u.size == a.size > 200_000
    assert peak <= u.nbytes + a.nbytes + u.nbytes


def test_v2_grid_i3_agrees_with_the_cache():
    # the two codings of I_3 at the nodes: one fixed 17 x 17 matrix from
    # each panel's anchor, and MomentCache.eval_many (each point's own
    # Legendre sum), also on the last panel, clipped at X with fresh Z
    X = 1000.0
    panels, i3 = _v2_i3(X)
    assert X not in moment_cache(3).edges and panels.hi[-1] == X
    ref = moment_cache(3).eval_many(panels.nodes())
    assert np.max(np.abs(i3 - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_laurent_synthetic_roundtrip():
    deltas = (0.02, 0.03, 0.05, 0.08, 0.12, 0.2)
    samples = [(d, 1.0 / d ** 2 - 0.683446 / d + 5.0) for d in deltas]
    c2, c1, c0 = ML.laurent_fit_at_1(samples)
    assert c2 == pytest.approx(1.0, abs=1e-9)
    assert c1 == pytest.approx(-0.683446, abs=1e-9)
    assert c0 == pytest.approx(5.0, abs=1e-9)


def test_laurent_fit_real_samples():
    c2, c1, c0 = ML.laurent_fit_at_1(ML.laurent_samples())
    assert 0.95 <= c2 <= 1.05
    assert abs(c1 - TWO_GAMMA_MINUS_LOG_2PI) <= 0.02


def test_laurent_fit_stability_drop_largest():
    samples = ML.laurent_samples()
    full = ML.laurent_fit_at_1(samples)
    reduced = ML.laurent_fit_at_1(samples[:-1])
    assert abs(full[0] - reduced[0]) <= 0.05
    assert abs(full[1] - reduced[1]) <= 0.05


def test_laurent_fit_error_guard():
    deltas = (0.02, 0.05, 0.08, 0.12, 0.16, 0.2)
    rng = np.random.default_rng(7)
    samples = [(d, 1.0 / d ** 2 + 2000.0 * rng.standard_normal()) for d in deltas]
    with pytest.raises(FitError):
        ML.laurent_fit_at_1(samples)


@pytest.fixture(scope="module")
def conv_k2_sweep():
    # one contour for V = 50 and 200
    return ML.check_convolution(2, 1, 3.0 + 0j, 2.0, (50.0, 200.0))


def test_convolution_k2(conv_k2_sweep):
    r = conv_k2_sweep[1]
    assert r.params["V"] == 200.0
    assert r.gap_rel <= 5e-2
    assert abs(r.lhs.imag) < 1e-12


def _k2_conv_integrand(s, X):
    # the convolution integrand of M_2 = M_1 * M_1 at s on Re w = c
    def F(w):
        a = ML.mellin_by_parts_many(1, w, X=X)
        b = ML.mellin_by_parts_many(1, 1.0 - w + s, X=X)
        return a * b
    return F


def test_convolution_conjugate_half():
    # for real s the integrand is conjugate-symmetric: the full contour
    # equals twice the real part of the half contour
    F = _k2_conv_integrand(3.0 + 0j, 1000.0)
    full = integrate_vertical_line(F, 2.0, -40.0, 40.0, max_panel=2.0)
    half = integrate_vertical_line(F, 2.0, 0.0, 40.0, max_panel=2.0)
    assert abs(full.value - 2.0 * half.value.real) \
        <= full.abs_err_est + 2.0 * half.abs_err_est + 1e-9


def test_convolution_complex_s_fold():
    # complex s: the contour folded onto Im w >= 0 as F(w) + F(conj w)
    # against the full contour over [-V, V]
    s, V = 3.0 + 1j, 10.0
    rep = ML.check_convolution(2, 1, s, 2.0, V, x_nodes=1000.0)
    full = integrate_vertical_line(_k2_conv_integrand(s, 1000.0), 2.0, -V, V,
                                   max_panel=2.0)
    assert abs(rep.rhs - full.value) \
        <= rep.certificates["contour_quad"] + full.abs_err_est


def test_convolution_sweep_matches_single_heights(monkeypatch):
    # every height lies on the contour's panel lattice, so a sweep gives
    # each height the bits of its own call; a closed form stands in for
    # the node transforms, which are the same per s however they are called
    monkeypatch.setattr(ML, "mellin_by_parts_many",
                        lambda k, w, X: np.exp(-0.1 * w) / (w - 0.5) ** (k + 1))
    args = (3, 1, 3.5 + 0j, 2.0)
    sweep = ML.check_convolution(*args, (200.0, 400.0))
    assert sweep == [ML.check_convolution(*args, V) for V in (200.0, 400.0)]


def test_scalar_heights_keep_return_types():
    v = ML.truncated_inversion(1, 1.0, 2.0, 4.0, x_trunc=20.0)
    assert type(v) is float
    assert ML.truncated_inversion(1, 1.0, 2.0, (4.0,), x_trunc=20.0) == [v]
    rep = ML.check_convolution(2, 1, 3.0 + 0j, 2.0, 4.0, x_nodes=20.0)
    assert isinstance(rep, ML.IdentityReport)
    assert isinstance(rep.lhs, complex) and isinstance(rep.rhs, complex)
    assert isinstance(rep.gap_rel, float)
    [swept] = ML.check_convolution(2, 1, 3.0 + 0j, 2.0, [4.0], x_nodes=20.0)
    assert swept == rep


def test_by_parts_retains_nothing_per_s():
    # distinct s leave no per-s state behind once their grid is built
    ML.mellin_by_parts(1, 2.0 + 0j, X=20.0)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for t in np.linspace(0.0, 4.0, 10_000):
            ML.mellin_by_parts(1, complex(2.0, t), X=20.0)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 2 ** 20


# -- the exponential-sum engine --------------------------------------------------

def _direct_sum(ln, a, s):
    # the reference: sum a e^{-s l} node by node, and its L1 mass
    terms = [a * np.exp(-sv * ln) for sv in s]
    return (np.array([np.sum(t) for t in terms]),
            np.array([np.sum(np.abs(t)) for t in terms]))


def _grid_sums(panels, zk):
    # nodes and K17 weights times the integrand: the engine's input; the
    # same at the G8 columns with the G8 weights (the K17 weights times
    # CHECK_RATIO, test_frozen_rule): the check's reference
    ln = np.log(panels.nodes())
    a_check = (panels.weights() * zk).reshape(-1, NODES) * CHECK_RATIO
    return (ln, panels.weights() * zk, ln.reshape(-1, NODES)[:, 1::2].ravel(),
            a_check[:, 1::2].ravel())


def _band3_nodes():
    # the k = 1, X = 2000 band-3 grid
    panels = PanelSet.from_edges(panel_edges(
        1.0, 2000.0, lambda x: z_freq(x) + 32.0 / (TWO_PI * x),
        z_breakpoints(1.0, 2000.0)))
    return _grid_sums(panels, z_eval_many(panels.nodes()))


def _laurent_nodes():
    # the k = 2, X = 8000 band-0 grid: the moment cache's panels
    return _grid_sums(*moment_cache(2).panels(8000.0))


def _v2_nodes():
    # the V_2 grid at X = 1000, whose weights are I_3, not Z^k: the G8
    # check is a column reweighting for any integrand
    out = _grid_sums(*_v2_i3(1000.0))
    assert np.array_equal(ML._v2_grid(1000.0).a.ravel(), out[1])
    return out


@pytest.mark.parametrize("nodes, s", [
    (_band3_nodes, 2.0 + 1j * np.append(
        np.linspace(-64.0, 64.0, 129),
        np.random.default_rng(11).uniform(-64.0, 64.0, 64))),
    (_band3_nodes, 0.75 + 1j * np.random.default_rng(12).uniform(-64.0, 64.0, 64)),
    (_laurent_nodes, 1.0 + np.array([0.02, 0.03, 0.05, 0.08, 0.12, 0.2]) + 0j),
    (_v2_nodes, np.append([3.0, 3.5, 2.6 + 1j],
                          1.8 + 1j * np.linspace(-8.0, 8.0, 17))),
])
def test_engine_matches_direct_sum(nodes, s):
    ln, a, ln_check, a_check = nodes()
    got, trunc = ML._ExpSum(ln.copy(), a).sums(s)
    for row, (lr, ar) in zip(got, ((ln, a), (ln_check, a_check))):
        want, mass = _direct_sum(lr, ar, s)
        gap = np.abs(row - want)
        assert np.all(gap <= 1e-12 * np.abs(want))
        # the Taylor cut is certified; what is left is rounding
        assert np.all(gap <= trunc + 1e-14 * mass)


def test_engine_values_do_not_depend_on_the_batch():
    # the values and G8 check values of every s, and their Taylor bounds
    engine = ML._grid(1, 2000.0, 3).engine

    def sums(s):
        values, trunc = engine.sums(s)
        return [*values, trunc]

    t = np.append(np.random.default_rng(5).uniform(-40.0, 40.0, 40),
                  [0.0, 3.99, 4.0, 8.0, -8.0, 12.0])
    s = np.append(1.5 + 1j * t, 2.5 + 1j * t)
    full = sums(s)
    backward = sums(s[::-1])
    tripled = sums(np.repeat(s, 3))
    for i, sv in enumerate(s):
        alone = [part.tobytes() for part in sums(np.array([sv]))]
        assert [part[i:i + 1].tobytes() for part in full] == alone, sv
        assert [part[-1 - i:len(s) - i].tobytes() for part in backward] == alone
        assert all(part[3 * i + j:3 * i + j + 1].tobytes() == bits
                   for part, bits in zip(tripled, alone) for j in range(3))
    # a real s (one real exponential) next to complex s of its centre
    real = sums(np.array([1.5 + 0j]))
    mixed = sums(np.array([1.5 + 3j, 1.5 + 0j, 1.5 - 2.5j]))
    assert [part[1:2].tobytes() for part in mixed] \
        == [part.tobytes() for part in real]
    # and through the transform: one batch against one call per s
    many = ML.mellin_by_parts_many(1, s, X=2000.0)
    assert many.tobytes() == np.array(
        [ML.mellin_by_parts(1, sv, X=2000.0).value for sv in s]).tobytes()


@pytest.mark.parametrize("bad, error", [
    (complex(math.nan, 1.0), DomainError), (complex(2.0, math.inf), DomainError),
    (0.2 + 5j, ConvergenceError), (0.26 + 0j, ConvergenceError)])
def test_one_bad_s_fails_the_batch_as_alone(bad, error):
    with pytest.raises(error) as alone:
        ML.mellin_by_parts(1, bad, X=20.0)
    with pytest.raises(error) as batch:
        ML.mellin_by_parts_many(1, [2.0 + 1j, bad, 3.0 + 0j], X=20.0)
    assert str(batch.value) == str(alone.value)


def test_vertical_line_batch_memory_bounded():
    # no per-s node-sized temporaries: a batch peaks below four node arrays
    # (three per centre, plus Horner blocks of fixed size) and a few arrays
    # of the batch's length, at 10^3 s as at 10^4
    node_bytes = ML._grid(1, 2000.0, 3).engine.u.nbytes

    def peak(n):
        s = 1.5 + 1j * np.linspace(16.5, 32.0, n)
        ML.mellin_by_parts_many(1, s, X=2000.0)
        tracemalloc.start()
        try:
            ML.mellin_by_parts_many(1, s, X=2000.0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    for n in (1_000, 10_000):
        assert peak(n) <= 4 * node_bytes + 160 * n, n


def test_square_identity_k2_real_positive():
    rep = ML.check_square_identity(2, 4.0 + 0j)
    assert rep.lhs.real > 0.0 and abs(rep.lhs.imag) < 1e-10
    assert rep.rhs.real > 0.0 and abs(rep.rhs.imag) < 1e-10


# the right side as the former two-level grid in the (x, u) order gave it,
# with fresh Z at every inner node: a reference independent of the moment
# cache's panels
SQUARE_RHS_REF = [
    (1, 3.0 + 0j, 500.0, 0.09975151298271466 + 0j),
    (2, 4.0 + 0j, 150.0, 0.019682156783764202 + 0j),
    (1, 3.0 + 2j, 500.0, 0.006079694552082579 - 0.04560767887076051j),
    (2, 3.5 + 0j, 500.0, 0.028129854882083003 + 0j),
]


@pytest.mark.parametrize("k, s, X, ref", SQUARE_RHS_REF)
def test_square_rhs_matches_two_level_grid(k, s, X, ref):
    rhs, err = ML._fubini_rhs(k, s, X)
    assert abs(rhs - ref) <= err


@pytest.mark.parametrize("k, X", [(1, 500.0), (2, 150.0)])
def test_square_rhs_reads_the_moment_cache(monkeypatch, k, X):
    # with the cache built past X, the only new Z values are those of the
    # last panel, clipped at X, and none when X is a cache edge
    cache = moment_cache(k)
    cache.ensure(X)
    points = []

    def counting(t):
        points.append(len(t))
        return z_eval_many(t)

    monkeypatch.setattr(moments, "z_eval_many", counting)
    monkeypatch.setattr(ML, "z_eval_many", counting)
    ML._fubini_rhs(k, 3.0 + 0j, X)
    assert 0 < sum(points) <= NODES
    points.clear()
    ML._fubini_rhs(k, 3.0 + 0j, float(cache.edges[100]))
    assert points == []


def test_every_panel_estimate_comes_from_integrate(monkeypatch):
    # with PanelSet.integrate doubling the estimate it returns, every
    # estimate read from it doubles, bit for bit (x2 is exact), and no value
    # moves.  At X = 30 the square rhs's outer estimate (1.7e-6) and inner
    # one (8.0e-8) both count: the sum doubles only if both do.  The first,
    # unpatched run builds the process-wide caches the second one reads.
    def run():
        caches = [moments.MomentCache(k) for k in (1, 2)]
        for c in caches:
            c.ensure(200.0)
        osc = integrate_oscillatory(np.cos, 0.0, 20.0, lambda t: 0.0)
        line = integrate_vertical_line(lambda s: 2.0 ** s / s, 2.0, -20.0, 20.0)
        rhs, rhs_err = ML._fubini_rhs(1, 2.5 + 5j, 30.0)
        lap = ML.laplace_consistency(1.5 + 0j)
        values = [*(c.values.tobytes() for c in caches), osc.value, line.value,
                  rhs, lap.lhs, lap.rhs]
        return values, [*(c.cum_err for c in caches), osc.abs_err_est,
                        line.abs_err_est, rhs_err, lap.certificates["outer_quad"]]

    values, errs = run()
    real = PanelSet.integrate

    def doubled(self, y):
        v, e = real(self, y)
        return v, 2.0 * e

    monkeypatch.setattr(PanelSet, "integrate", doubled)
    values2, errs2 = run()
    assert values2 == values
    for e, e2 in zip(errs, errs2):
        assert np.max(e) > 0.0
        assert np.array_equal(e2, 2.0 * np.asarray(e))


@pytest.fixture(scope="module")
def inversion_c125():
    # Z(10) by inversion at c = 1.25, one contour for U = 50 and 400
    return ML.truncated_inversion(1, 10.0, 1.25, (50.0, 400.0), x_trunc=2000.0)


def test_inversion_c125_decay_envelope(inversion_c125):
    # at c = 1.25 the four-sample error sequence is non-monotone (documented);
    # the decay of the envelope is still there
    z10 = z_oracle(10.0)
    e50, e400 = (abs(v - z10) for v in inversion_c125)
    assert e400 < e50
    assert e50 <= 0.05


def test_inversion_path_independence(inversion_c125):
    z10 = z_oracle(10.0)
    v15 = ML.truncated_inversion(1, 10.0, 1.5, 400.0, x_trunc=2000.0)
    for v in (inversion_c125[1], v15):
        assert abs(v - z10) <= 0.05


def test_inversion_k2():
    z20 = z_oracle(20.0)
    v = ML.truncated_inversion(2, 20.0, 1.25, 300.0, x_trunc=2000.0)
    assert abs(v - z20 * z20) <= 0.15


def test_inversion_sweep_transforms_each_node_once(monkeypatch):
    # at x = 10 the panels are 2 / freq = 5.46 wide and tile out from t = 0,
    # with U = 50 an edge: ten panels up to 50 (the last clipped at 50) and
    # ten more up to 100.  Each of their nodes reaches the engine once.
    calls = []
    sums = ML._ExpSum.sums

    def counting(engine, s):
        calls.extend(s.tolist())
        return sums(engine, s)

    monkeypatch.setattr(ML._ExpSum, "sums", counting)
    ML.truncated_inversion(1, 10.0, 1.75, (50.0, 100.0), x_trunc=2000.0)
    assert len(calls) == 20 * NODES
    assert len(set(calls)) == len(calls)


def test_inversion_sweep_matches_single_heights():
    heights = (50.0, 100.0)
    sweep = ML.truncated_inversion(1, 10.0, 1.75, heights, x_trunc=2000.0)
    for U, v in zip(heights, sweep):
        single = ML.truncated_inversion(1, 10.0, 1.75, U, x_trunc=2000.0)
        assert abs(v - single) <= 1e-9 * abs(single), U


def test_inversion_guards():
    with pytest.raises(ConvergenceError):
        ML.truncated_inversion(1, 10.0, 0.9, 100.0)
    with pytest.raises(DomainError):
        ML.truncated_inversion(1, 10.0, 1.25, 20.0)


@pytest.fixture(scope="module")
def laplace_batch():
    # the suite's three s and sigma = 2.9, near the top of the domain, in one
    # call, with the _lbar_many calls it made
    calls, real = [], ML._lbar_many
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ML, "_lbar_many", lambda *a: calls.append(a) or real(*a))
        return ML.laplace_consistency((1.5 + 0j, 2.0 + 0j, 2.5 + 0j, 2.9 + 0j)), calls


def test_laplace_consistency_points(laplace_batch, monkeypatch):
    reports, calls = laplace_batch
    assert len(calls) == 1
    for rep in reports[:3]:
        assert rep.gap_rel <= 1e-3, rep.params["s"]
    # each of the suite's reports has the bits of its own call, which calls
    # _lbar_many once
    real = ML._lbar_many
    monkeypatch.setattr(ML, "_lbar_many", lambda *a: calls.append(a) or real(*a))
    for i, rep in enumerate(reports[:3]):
        assert repr(ML.laplace_consistency(rep.params["s"])) == repr(rep)
        assert len(calls) == i + 2


def test_laplace_inner_trunc_covers_doubling_y(laplace_batch):
    # the move of each left side when the y-grid runs to 4e4, not 2e4: the k = 1
    # cache's nodes past the panels both grids share, less the 2e4 grid's last
    # panel (clipped at 2e4), each weighted by the exact outer integral
    # g(y) = integral over x >= x_lo of x^{s-1} e^{-xy} = y^{-s} Gamma(s, x_lo y)
    erfc = np.frompyfunc(math.erfc, 1, 1)

    def upper_gamma(s, a):
        # Gamma(s, a) for s in N/2, up from Gamma(1/2, a) or Gamma(1, a) by
        # Gamma(q + 1, a) = q Gamma(q, a) + a^q e^{-a}
        q = s % 1.0 or 1.0
        out = (math.sqrt(math.pi) * erfc(np.sqrt(a)).astype(float) if q == 0.5
               else np.exp(-a))
        while q < s:
            out, q = q * out + a ** q * np.exp(-a), q + 1.0
        return out

    reports = laplace_batch[0][:3]
    Y = reports[0].params["y_max"]
    grids = [moment_cache(1).panels(y_max) for y_max in (Y, 2.0 * Y)]
    (y2, zy2), (y4, zy4) = [(p.nodes(), z * p.weights()) for p, z in grids]
    n = len(y2) - NODES
    assert np.array_equal(y4[:n], y2[:n]) and np.array_equal(zy4[:n], zy2[:n])
    moves = []
    for rep in reports:
        s, x_lo = rep.params["s"].real, rep.params["x_lo"]
        g2, g4 = (y[n:] ** -s * upper_gamma(s, x_lo * y[n:]) for y in (y2, y4))
        moves.append(abs(np.sum(zy4[n:] * g4) - np.sum(zy2[n:] * g2)))
        assert moves[-1] <= rep.certificates["inner_trunc"], s
    # the cut is no e^{-700}: at s = 1.5 it moves the left side by 1.3e-5
    assert moves[0] > 1e-5


def test_laplace_upper_cut_follows_sigma(laplace_batch):
    # the dropped tail integral over x >= 50 of Lbar(x) x^{sigma - 1} at
    # sigma = 2.9 (4.8e-21, more than e^{-50} * 10): Lbar on 0.02-wide K17
    # panels in y on [1, 3], where all but e^{-150} of it lies
    rep = laplace_batch[0][3]
    yp = PanelSet.from_edges(np.linspace(1.0, 3.0, 101))
    zy = z_eval_many(yp.nodes()) * yp.weights()
    xp = PanelSet.from_edges(np.linspace(50.0, 100.0, 51))
    x = xp.nodes()
    lbar = (np.exp(-np.multiply.outer(x, yp.nodes())) * zy).sum(axis=1)
    tail = abs(np.sum(xp.integrate(lbar * x ** 1.9)[0]))
    assert 10.0 * math.exp(-50.0) < tail <= rep.certificates["upper_cut"]


def test_laplace_envelope_inner():
    # |Lbar(5)| respects the crude triangle bound
    panels, z = moment_cache(1).panels(2.0e4)
    y16, zy = panels.nodes(), z * panels.weights()
    cut = y16 <= 149.0
    lbar5 = float(np.sum(zy[cut] * np.exp(-5.0 * y16[cut])))
    peak = float(np.max(np.abs(z_eval_many(np.linspace(1.0, 10.0, 400)))))
    assert abs(lbar5) <= peak * math.exp(-5.0) / 5.0 + 1e-4


def test_lbar_batch_matches_per_point_loop():
    # the blocked (outer nodes x y-grid) product against the per-x sums over
    # the prefix y <= 745/x, in shuffled order with a repeated x; each row
    # computed alone has the same bits
    panels, z = moment_cache(1).panels(2.0e4)
    y, zy = panels.nodes(), z * panels.weights()
    xs = np.random.default_rng(3).permutation(
        np.append(np.geomspace(5e-4, 50.0, 60), 0.1))
    xs[7] = xs[8]
    got = ML._lbar_many(xs, y, zy)
    for x, g in zip(xs, got):
        m = y <= 745.0 / x
        terms = zy[m] * np.exp(-x * y[m])
        assert abs(g - np.sum(terms)) <= 1e-14 * np.sum(np.abs(terms)), x
        assert ML._lbar_many(np.array([x]), y, zy)[0] == g, x


@pytest.mark.parametrize("batch", [[2.0 + 0j, complex(NAN, 0.0)],
                                   [2.0 + 0j, 3.5 + 0j], [1.0 + 0j, 2.0 + 0j]],
                         ids=["nan", "sigma-3.5", "sigma-1"])
def test_laplace_rejects_a_bad_batch_before_any_work(batch, monkeypatch):
    def no_work(*args):
        raise AssertionError("work began")

    for name in ("primitive_constant", "moment_cache", "_lbar_many",
                 "mellin_by_parts_samples"):
        monkeypatch.setattr(ML, name, no_work)
    with pytest.raises(DomainError):
        ML.laplace_consistency(batch)


def test_report_json_stable(conv_k2_sweep):
    rep = conv_k2_sweep[0]
    from hardylab.reportio import to_json
    text1 = to_json(dataclasses.asdict(rep))
    text2 = to_json(dataclasses.asdict(rep))
    assert text1 == text2
    assert text1.index('"name"') < text1.index('"lhs"') < text1.index('"rhs"')
    assert '"gap_abs"' in text1 and '"certificates"' in text1


def test_mellin_sample_fields():
    m = ML.mellin_by_parts(3, 2.0 + 0j)
    assert m.k == 3 and m.s == 2.0 + 0j
    assert m.X >= 10.0 and m.tail_bound >= 0.0


def test_by_parts_certificate_within_primitive_formula():
    # odd k: certificate matches the primitive-growth formula (plus the
    # quadrature estimate); even k: sharper after tail completion
    for k, s in ((1, 1.8 + 0j), (3, 2.2 + 0j), (2, 2.0 + 0j)):
        m = ML.mellin_by_parts(k, s)
        e_k = ML._PRIM_EXP[k]
        formula = abs(s) * ML.primitive_constant(k) \
            * m.X ** (e_k - s.real) / (s.real - e_k)
        assert m.tail_bound <= formula + 1e-6
