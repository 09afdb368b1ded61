"""Mellin transforms, continuation, decomposition, Laurent fit, identities."""

import math

import numpy as np
import pytest

import hardylab.mellin as ML
from hardylab import moments
from hardylab.errors import (CapacityError, ConvergenceError, DomainError,
                             FitError)
from hardylab.hardy import z_eval_many, z_oracle
from hardylab.moments import moment_cache
from hardylab.quad import NODES

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


@pytest.mark.parametrize("s", [complex(math.nan, 0.0), complex(2.0, math.inf),
                               complex(math.inf, 1.0)])
def test_non_finite_s_rejected(s, d3_table):
    with pytest.raises(DomainError):
        ML.mellin_by_parts(1, s)
    with pytest.raises(DomainError):
        ML.mellin_direct(1, s)
    with pytest.raises(DomainError):
        ML.m3_decomposition(s, 1000.0, d3_table)


@pytest.mark.parametrize("X", [0.5, -3.0, 0.0, math.nan, math.inf])
def test_truncation_height_below_one_rejected(X, d3_table):
    with pytest.raises(DomainError, match="X"):
        ML.mellin_by_parts(1, 2.0 + 0j, X=X)
    with pytest.raises(DomainError, match="X"):
        ML.m3_decomposition(2.0 + 0j, X, d3_table)


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


def test_v1_series_single_term(d3_table):
    want = (2.0 * math.pi) ** -1.0 * math.sqrt(2.0 / 3.0) \
        * math.cos(3.0 * math.pi + math.pi / 8.0)
    got = ML.v1_series(2.0 + 0j, 1, d3_table)
    assert got.real == pytest.approx(want, rel=1e-14)
    assert got.imag == 0.0


def test_v1_series_cauchy_envelope(d3_table):
    # partial-sum differences fall inside the N^{-1/2} envelope
    s = 2.0 + 0j
    v3 = ML.v1_series(s, 1000, d3_table)
    v4 = ML.v1_series(s, 10_000, d3_table)
    v5 = ML.v1_series(s, 20_000, d3_table)
    d34 = abs(v4 - v3)
    d45 = abs(v5 - v4)
    assert d34 <= 5.0 * 1000 ** -0.5
    assert d45 <= 5.0 * 10_000 ** -0.5


def test_v1_series_triangle_bound(d3_table):
    s = 3.0 + 0j
    n = np.arange(1, 5001)
    bound = (2.0 * math.pi) ** -2.0 * math.sqrt(2.0 / 3.0) \
        * float(np.sum(d3_table.counts[1:5001] * n ** (-13.0 / 6.0)))
    assert abs(ML.v1_series(s, 5000, d3_table)) <= bound


def test_v1_series_guards(d3_table):
    with pytest.raises(CapacityError):
        ML.v1_series(2.0 + 0j, d3_table.limit + 1, d3_table)


def test_v2_residual_regularity_below_one(d3_table):
    v = ML.v2_residual(1.2 + 0j, 500.0, d3_table)
    assert math.isfinite(v.real) and math.isfinite(v.imag)


def test_v2_residual_doubling_growth(d3_table):
    s = 2.0 + 0j
    c_r = ML.residual_constant(d3_table)
    v1k = ML.v2_residual(s, 1000.0, d3_table)
    v2k = ML.v2_residual(s, 2000.0, d3_table)
    bound = abs(s) * c_r * 1000.0 ** (0.8 - 2.0) / (2.0 - 0.8)
    assert abs(v2k - v1k) <= 3.0 * bound


def test_residual_constant_keyed_by_window(d3_table):
    # the calibration window is part of the cache key: a narrower window
    # asked for later gets its own, smaller supremum
    wide = ML.residual_constant(d3_table, 2000.0)
    narrow = ML.residual_constant(d3_table, 60.0)
    assert narrow < wide
    assert ML.residual_constant(d3_table, 2000.0) == wide


def test_decomposition_matched_cutoffs(d3_table):
    for s in (2.0 + 0j, 2.5 + 0j, 1.6 + 1j):
        d = ML.m3_decomposition(s, 1000.0, d3_table)
        assert d["gap_rel"] <= 1e-5, s


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


def test_convolution_k2():
    r = ML.check_convolution(2, 1, 3.0 + 0j, 2.0, 200.0)
    assert r.gap_rel <= 5e-2
    assert abs(r.lhs.imag) < 1e-12


def test_convolution_conjugate_half():
    # for real s the integrand is conjugate-symmetric: the full contour
    # equals twice the real part of the half contour
    from hardylab.quad import integrate_vertical_line

    s = 3.0 + 0j

    def F(w):
        a = ML.mellin_by_parts_many(1, w, X=1000.0)
        b = ML.mellin_by_parts_many(1, 1.0 - w + s, X=1000.0)
        return a * b

    full = integrate_vertical_line(F, 2.0, -40.0, 40.0, tol=1e-5, max_panel=2.0)
    half = integrate_vertical_line(F, 2.0, 0.0, 40.0, tol=1e-5, max_panel=2.0)
    assert abs(full.value - 2.0 * half.value.real) \
        <= full.abs_err_est + 2.0 * half.abs_err_est + 1e-9


def test_square_identity_k2_real_positive():
    rep = ML.check_square_identity(2, 4.0 + 0j, X=150.0)
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


def test_inversion_c125_decay_envelope():
    # at c = 1.25 the four-sample error sequence is non-monotone (documented);
    # the decay of the envelope is still there
    z10 = z_oracle(10.0)
    e50 = abs(ML.truncated_inversion(1, 10.0, 1.25, 50.0, x_trunc=2000.0) - z10)
    e400 = abs(ML.truncated_inversion(1, 10.0, 1.25, 400.0, x_trunc=2000.0) - z10)
    assert e400 < e50
    assert e50 <= 0.05


def test_inversion_path_independence():
    z10 = z_oracle(10.0)
    for c in (1.25, 1.5):
        v = ML.truncated_inversion(1, 10.0, c, 400.0, x_trunc=2000.0)
        assert abs(v - z10) <= 0.05


def test_inversion_k2():
    z20 = z_oracle(20.0)
    v = ML.truncated_inversion(2, 20.0, 1.25, 300.0, x_trunc=2000.0)
    assert abs(v - z20 * z20) <= 0.15


def test_inversion_reuses_memoized_nodes():
    # at x = 10 the contour panels are 2 / freq = 5.46 wide and tile out from
    # t = 0: U = 50 has ten (the last clipped at 50), U = 100 nineteen.  The
    # taller contour evaluates M_1 only at its ten new panels (170 nodes) and
    # reuses the nine whole panels it shares (153 nodes); a repeat reuses all
    info = ML._by_parts_at.cache_info
    ML.truncated_inversion(1, 10.0, 1.75, 50.0, x_trunc=2000.0)
    before = info()
    ML.truncated_inversion(1, 10.0, 1.75, 100.0, x_trunc=2000.0)
    taller = info()
    assert (taller.hits - before.hits, taller.misses - before.misses) \
        == (9 * 17, 10 * 17)
    ML.truncated_inversion(1, 10.0, 1.75, 100.0, x_trunc=2000.0)
    again = info()
    assert (again.hits - taller.hits, again.misses) == (19 * 17, taller.misses)


def test_inversion_guards():
    with pytest.raises(ConvergenceError):
        ML.truncated_inversion(1, 10.0, 0.9, 100.0)
    with pytest.raises(DomainError):
        ML.truncated_inversion(1, 10.0, 1.25, 20.0)


def test_laplace_consistency_points():
    for s in (1.5, 2.0, 2.5):
        rep = ML.laplace_consistency(complex(s, 0.0))
        assert rep.gap_rel <= 1e-3, s


def test_laplace_envelope_inner():
    # |Lbar(5)| respects the crude triangle bound
    y16, zy = ML._laplace_grid(2.0e4)
    cut = y16 <= 149.0
    lbar5 = float(np.sum(zy[cut] * np.exp(-5.0 * y16[cut])))
    from hardylab.hardy import z_eval_many
    peak = float(np.max(np.abs(z_eval_many(np.linspace(1.0, 10.0, 400)))))
    assert abs(lbar5) <= peak * math.exp(-5.0) / 5.0 + 1e-4


def test_lbar_batch_matches_per_point_loop():
    # the blocked (outer nodes x y-grid) product against the per-x sums over
    # the prefix y <= 745/x, in shuffled order with a repeated x
    y, zy = ML._laplace_grid(2.0e4)
    xs = np.random.default_rng(3).permutation(
        np.append(np.geomspace(5e-4, 50.0, 60), 0.1))
    xs[7] = xs[8]
    got = ML._lbar_many(xs, y, zy)
    for x, g in zip(xs, got):
        m = y <= 745.0 / x
        terms = zy[m] * np.exp(-x * y[m])
        assert abs(g - np.sum(terms)) <= 1e-14 * np.sum(np.abs(terms)), x


def test_report_json_stable():
    rep = ML.check_convolution(2, 1, 3.0 + 0j, 2.0, 50.0)
    from hardylab.reportio import to_json
    text1 = to_json(rep.as_dict())
    text2 = to_json(rep.as_dict())
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
