"""Fixed-rule oscillatory quadrature and vertical-line contour integrals."""

import hashlib
import math

import numpy as np
import pytest

from hardylab.errors import BudgetError, DomainError
from hardylab.hardy import _CHUNK, z_breakpoints, z_eval_many
from hardylab.moments import z_freq
from hardylab.special import TWO_PI
from hardylab.quad import (_LEGENDRE, CHECK_RATIO, GAUSS_COLS, NODES,
                           Z_BLOCK, PanelSet, integrate_oscillatory,
                           integrate_vertical_line, panel_edges,
                           partial_integrals)


def test_cosine_full_period():
    r = integrate_oscillatory(np.cos, 0.0, 2.0 * math.pi,
                              lambda t: 1.0 / (2.0 * math.pi))
    assert abs(r.value) <= 1e-12
    assert r.evals == r.panels * NODES


def test_constant():
    r = integrate_oscillatory(lambda x: np.ones_like(x), 1.0, 3.0,
                              lambda t: 0.0)
    assert abs(r.value - 2.0) <= 1e-14


def test_z_self_consistency_on_0_100():
    # whole-interval result vs independently summed sub-intervals; Z's
    # evaluation jumps at its breakpoints, which become panel edges
    f = lambda t: z_eval_many(t)
    whole = integrate_oscillatory(f, 1.0, 100.0, z_freq,
                                  breakpoints=z_breakpoints(1.0, 100.0))
    parts = 0.0
    err = 0.0
    for a, b in ((1.0, 30.0), (30.0, 61.5), (61.5, 100.0)):
        r = integrate_oscillatory(f, a, b, z_freq,
                                  breakpoints=z_breakpoints(a, b))
        parts += r.value.real
        err += r.abs_err_est
    assert abs(whole.value.real - parts) <= whole.abs_err_est + err + 1e-9


def test_determinism_repeat_calls():
    f = lambda t: z_eval_many(t)
    breaks = z_breakpoints(10.0, 80.0)
    r1 = integrate_oscillatory(f, 10.0, 80.0, z_freq,
                               breakpoints=breaks)
    r2 = integrate_oscillatory(f, 10.0, 80.0, z_freq,
                               breakpoints=breaks)
    assert r1.value == r2.value and r1.abs_err_est == r2.abs_err_est


def test_budget_error_before_any_evaluation():
    # 100 unit panels need 1,700 evaluations: a cap below that raises
    # before the integrand is called, a cap at it integrates
    calls = []

    def f(x):
        calls.append(len(x))
        return np.cos(x)

    with pytest.raises(BudgetError):
        integrate_oscillatory(f, 0.0, 100.0, lambda t: 0.0, budget=1699)
    assert calls == []
    r = integrate_oscillatory(f, 0.0, 100.0, lambda t: 0.0, budget=1700)
    assert calls == [1700] and (r.panels, r.evals) == (100, 1700)


def test_budget_refusal_stops_the_walk():
    # [1, 2e5] takes about 600,000 quarter periods of Z; a budget of 1,000
    # nodes is refused after at most 1000 // 17 + 1 steps of the walk
    hints = []

    def freq(x):
        hints.append(x)
        return z_freq(x)

    with pytest.raises(BudgetError, match="budget"):
        integrate_oscillatory(np.cos, 1.0, 2e5, freq, budget=1000)
    assert 0 < len(hints) <= 1000 // NODES + 1


def test_domain():
    with pytest.raises(DomainError):
        integrate_oscillatory(np.cos, 1.0, 1.0, lambda t: 1.0)


def test_vertical_line_constant():
    r = integrate_vertical_line(lambda s: np.ones_like(s), 2.0, 0.0, 1.0)
    assert abs(r.value - 1.0 / (2.0 * math.pi)) <= 1e-12


def test_vertical_line_heights_are_panel_edges():
    # unit panels tile from t0 = 0 and 2.5 becomes an edge; results come in
    # the order the heights were given
    r25, r1 = integrate_vertical_line(lambda s: np.ones_like(s), 2.0, 0.0,
                                      (2.5, 1.0))
    assert (r25.panels, r1.panels) == (3, 1)
    assert abs(r25.value - 2.5 / (2.0 * math.pi)) <= 1e-15
    assert abs(r1.value - 1.0 / (2.0 * math.pi)) <= 1e-15
    with pytest.raises(DomainError):
        integrate_vertical_line(np.ones_like, 2.0, 1.0, (2.0, 1.0))


def test_vertical_line_perron():
    # x^s / s at x = 2 approaches 1 as the contour grows
    r = integrate_vertical_line(lambda s: 2.0 ** s / s, 2.0, -200.0, 200.0)
    assert abs(r.value - 1.0) <= 1e-2


def test_vertical_line_gamma_stability():
    from hardylab.special import gamma_complex

    r1 = integrate_vertical_line(gamma_complex, 0.5, -30.0, 30.0, max_panel=1.0)
    r2 = integrate_vertical_line(gamma_complex, 0.5, -30.0, 30.0, max_panel=0.5)
    assert abs(r1.value - r2.value) <= r1.abs_err_est + r2.abs_err_est + 1e-12


@pytest.mark.parametrize("sigma,T,a,b", [
    (1.0, 50.0, 10.0, 200.0),
    (1.5, 30.0, 10.0, 120.0),
    (2.0, 80.0, 15.0, 90.0),
])
def test_mean_square_transform_inequality(sigma, T, a, b):
    # int_0^T |int_a^b g(x) x^{-sigma-it} dx|^2 dt
    #   <= 2 pi int_a^b g(x)^2 x^{1-2 sigma} dx  for real integrable g;
    # g = Z is evaluated once, on panels hinted for x^{-iT}, and every inner
    # integral is a weighted sum of those values
    breaks = z_breakpoints(a, b)
    panels = PanelSet.from_edges(panel_edges(
        a, b, lambda x: z_freq(x) + T / (2 * math.pi * x), breaks))
    x = panels.nodes()
    wg = panels.weights() * z_eval_many(x) * x ** -sigma
    log_x = np.log(x)

    def outer(ts: np.ndarray) -> np.ndarray:
        return np.array([abs(np.dot(wg, np.exp(-1j * t * log_x))) ** 2
                         for t in ts])

    lhs = integrate_oscillatory(outer, 0.0, T, lambda t: 0.0, max_panel=2.0)
    rhs = integrate_oscillatory(
        lambda x: z_eval_many(x) ** 2 * x ** (1.0 - 2.0 * sigma), a, b,
        z_freq, breakpoints=breaks)
    bound = 2.0 * math.pi * rhs.value.real \
        + 2.0 * math.pi * rhs.abs_err_est + lhs.abs_err_est
    assert lhs.value.real <= bound


@pytest.mark.parametrize("a,b,k,max_panel", [
    (1.0, 400.0, 1, 4.0),
    (3.5, 900.0, 3, 1.5),
])
def test_panel_edges_breaks_and_widths(a, b, k, max_panel):
    freq = lambda t: k * z_freq(t)
    breaks = z_breakpoints(a, b) + (a, b, b + 1.0, 50.0, 50.0)
    edges = panel_edges(a, b, freq, breaks, max_panel)
    assert edges[0] == a and edges[-1] == b
    assert np.all(np.diff(edges) > 0.0)
    for x in breaks:
        if a < x < b:
            assert x in edges
    for lo, hi in zip(edges[:-1], edges[1:]):
        f = freq(lo)
        cap = min(max_panel, 0.25 / f) if f > 0 else max_panel
        assert hi - lo <= cap * (1.0 + 1e-12)  # hi = lo + width, rounded


def test_panel_edges_one_walk_equals_joined_segments():
    freq = lambda t: 2 * z_freq(t)
    cuts = (1.0,) + z_breakpoints(1.0, 700.0) + (700.0,)
    joined = np.concatenate([panel_edges(lo, hi, freq)[:-1]
                             for lo, hi in zip(cuts[:-1], cuts[1:])] + [[700.0]])
    one = panel_edges(1.0, 700.0, freq, z_breakpoints(1.0, 700.0))
    assert one.tobytes() == joined.tobytes()


# sha256 of the float64 edges and their count, pinned from the walk that
# called float() and min() at every step; the inversion contour's panel
# width at x = 10 is two periods of x^{it}
_INVERSION_PANEL = 2.0 / (math.log(10.0) / TWO_PI)


@pytest.mark.parametrize("args, digest, count", [
    ((1.0, 1e4, z_freq, z_breakpoints(1.0, 1e4)),
     "653076d45bc162c0a9cd6e5d0e6569038df6b562b0742eaed23f9bed043302f0", 20310),
    ((1.0, 4000.0, lambda t: 4 * z_freq(t), z_breakpoints(1.0, 4000.0)),
     "cd8a9ba46fbe1826a58ff367ef780a4449527af5bcc9946dc6cf1f464fb6f3dc", 27813),
    ((1.0, 4000.0, lambda t: 4 * z_freq(t)),
     "0f82afb8985b3fe272c004ac255ed096e109cba814c6c61cddd584bfb1a49116", 27801),
    # integrate_vertical_line's constant-zero hint, at the inversion's
    # panel width for x = 10 and heights 50 and 100
    ((0.0, 100.0, lambda t: 0.0, [50.0, 100.0], _INVERSION_PANEL),
     "bc67580799199290233e567887a69966304b9fd8673b9108fad0718eae9d6e4c", 21),
])
def test_panel_edges_pinned(args, digest, count):
    edges = panel_edges(*args)
    assert len(edges) == count
    assert hashlib.sha256(edges.tobytes()).hexdigest() == digest


def test_panel_sums_exact_for_polynomials():
    # K17 is exact to degree 25 and the G8 inside it to degree 15, so the
    # value sits at rounding up to degree 25, and the |K17 - G8| estimate up
    # to degree 15
    edges = np.array([-3.0, -1.7, -0.2, 0.4, 1.9, 2.5, 4.1, 5.0])
    panels = PanelSet.from_edges(edges)
    rng = np.random.default_rng(7)
    for degree in range(26):
        poly = np.polynomial.Polynomial(rng.normal(size=degree + 1))
        prim = poly.integ()
        exact = prim(edges[1:]) - prim(edges[:-1])
        # rounding scale: the panel integral of sum_j |c_j| 5^j
        scale = np.diff(edges) * np.polynomial.Polynomial(np.abs(poly.coef))(5.0)
        y = poly(panels.nodes())
        value, err = panels.integrate(y)
        assert np.all(np.abs(value - exact) <= 1e-13 * scale), degree
        flat = np.sum(panels.weights() * y)
        assert abs(flat - exact.sum()) <= 1e-13 * scale.sum(), degree
        if degree <= 15:
            # G8 is exact here too: |K17 - G8| is rounding
            assert np.all(err <= 1e-13 * scale), degree


def test_estimate_evaluates_once_at_17_nodes_per_panel():
    # unit panels from 0 with edges at the breaks 0.5 and 2: four panels,
    # one call of the integrand on their 68 nodes, one value and one
    # estimate per panel from flat node values or one row per panel
    calls = []

    def f(x):
        calls.append(len(x))
        return np.sin(x)

    r = integrate_oscillatory(f, 0.0, 3.0, lambda t: 0.0,
                              breakpoints=(0.5, 2.0))
    assert calls == [4 * NODES] and NODES == 17
    assert r.panels == 4 and r.evals == NODES * r.panels
    panels = PanelSet.from_edges(np.array([0.0, 0.5, 1.5, 2.0, 3.0]))
    y = np.sin(panels.nodes())
    flat, rows = panels.integrate(y), panels.integrate(y.reshape(-1, NODES))
    assert [a.shape for a in flat] == [(4,), (4,)]
    assert all(a.tobytes() == b.tobytes() for a, b in zip(flat, rows))


def test_fixed_pass_is_one_sum_over_blocks():
    # more panels than one block of one Riemann-Siegel chunk of nodes: the
    # value is the numpy sum of every panel's K17 value in order, the
    # estimate the fsum of their |K17 - G8|, the bits of one evaluation over
    # all the panels
    calls = []

    def f(x):
        calls.append(len(x))
        return np.sin(x)

    r = integrate_oscillatory(f, 0.0, 4.0e4, lambda t: 0.0)
    assert r.panels == 40_000 and len(calls) == -(-40_000 // Z_BLOCK) == 39
    assert max(calls) == NODES * Z_BLOCK == _CHUNK
    assert sum(calls) == r.evals == NODES * r.panels
    panels = PanelSet.from_edges(np.arange(4.0e4 + 1.0))
    v, e = panels.integrate(np.sin(panels.nodes()))
    assert r.value == np.sum(v)
    assert r.abs_err_est == math.fsum(e.tolist())


def test_frozen_rule():
    # the G8 weights are the K17 weights times CHECK_RATIO, column by column
    panel = PanelSet.from_edges(np.array([-1.0, 1.0]))
    x, wk = panel.nodes(), panel.weights()
    wg = wk * CHECK_RATIO
    assert np.array_equal(x, -x[::-1])
    assert np.array_equal(wk, wk[::-1]) and np.array_equal(wg, wg[::-1])
    assert np.all(np.diff(x) > 0.0)
    assert np.all(wk > 0.0)
    assert np.all(wg[GAUSS_COLS] > 0.0) and np.count_nonzero(wg) == 8
    assert abs(math.fsum(wk) - 2.0) <= 1e-15
    assert abs(math.fsum(wg) - 2.0) <= 1e-15
    gx, gw = np.polynomial.legendre.leggauss(8)
    assert np.max(np.abs(x[GAUSS_COLS] - gx)) <= 1e-15
    assert np.max(np.abs(wg[GAUSS_COLS] - gw)) <= 1e-15


def test_partial_integrals_exact_for_polynomials():
    # the degree-16 interpolant through 17 values of a polynomial of degree
    # at most 16 is that polynomial: integrals over [-1, tau] are exact
    x = PanelSet.from_edges(np.array([-1.0, 1.0])).nodes()
    tau = np.concatenate([[-1.0, 1.0], np.linspace(-0.999, 0.999, 41)])
    for degree in range(NODES):
        y = np.broadcast_to(x ** degree, (len(tau), NODES))
        exact = (tau ** (degree + 1) - (-1.0) ** (degree + 1)) / (degree + 1)
        assert np.max(np.abs(partial_integrals(y, tau) - exact)) <= 1e-15, degree


def test_node_integrals_exact_for_polynomials():
    # anchor plus half-width times the integral of a polynomial of degree at
    # most 16 over [-1, x_j] in the panel's own coordinate, at every node
    t = PanelSet.from_edges(np.array([-1.0, 1.0])).nodes()
    panels = PanelSet.from_edges(np.array([0.5, 1.0, 3.0, 3.25]))
    anchors = np.array([2.0, -1.0, 0.5])
    for degree in range(NODES):
        y = np.broadcast_to(t ** degree, (3, NODES))
        exact = anchors[:, None] + panels.half[:, None] * (
            t ** (degree + 1) - (-1.0) ** (degree + 1)) / (degree + 1)
        got = panels.node_integrals(y, anchors)
        assert np.max(np.abs(got - exact.ravel())) <= 1e-15, degree


def test_partial_integrals_at_the_panel_ends():
    # tau = -1 gives exactly 0 and tau = 1 exactly the K17 sum, whatever
    # the values and however many rows share the call
    y = np.random.default_rng(2).normal(size=(5, NODES))
    tau = np.array([-1.0, 1.0, -1.0, 1.0, 0.25])
    got = partial_integrals(y, tau)
    assert np.all(got[[0, 2]] == 0.0)
    k17 = PanelSet.from_edges(np.array([-1.0, 1.0])).weights()
    assert np.max(np.abs(got[[1, 3]] - y[[1, 3]] @ k17)) <= 3e-16 * np.abs(y).sum()
    one = np.concatenate([partial_integrals(y[i:i + 1], tau[i:i + 1])
                          for i in range(5)])
    assert one.tobytes() == got.tobytes()


def test_partial_integrals_within_a_unit_roundoff_of_the_interpolant():
    # against 200-bit arithmetic on the same interpolant (the stored
    # Legendre matrix, node values and tau, all exact in mpmath): the
    # coefficient sums and the sum over n stay within u * sum |y_j|
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(12)
    rows = 1000
    y = rng.normal(size=(rows, NODES)) * 10.0 ** rng.integers(-3, 4, (rows, 1))
    tau = np.concatenate([rng.uniform(-1.0, 1.0, rows - 2), [-1.0, 1.0]])
    shared = rng.integers(0, rows, rows)
    got = partial_integrals(y, tau, shared)
    with mp.workprec(200):
        L = [[mp.mpf(v) for v in row] for row in _LEGENDRE.tolist()]
        worst = 0.0
        for i, (t, r) in enumerate(zip(tau.tolist(), shared.tolist())):
            yr = [mp.mpf(v) for v in y[r].tolist()]
            c = [mp.fsum(a * b for a, b in zip(row, yr)) for row in L]
            t = mp.mpf(t)
            p_prev, p, exact = mp.mpf(1), t, (t + 1) * c[0]
            for n in range(1, NODES):
                p_next = ((2 * n + 1) * t * p - n * p_prev) / (n + 1)
                exact += (p_next - p_prev) / (2 * n + 1) * c[n]
                p_prev, p = p, p_next
            scale = 2.0 ** -53 * float(np.abs(y[r]).sum())
            worst = max(worst, float(abs(mp.mpf(float(got[i])) - exact)) / scale)
    assert worst <= 1.0


def test_partial_integrals_of_a_panel_cosine():
    # cos(omega u) on [-1, 1] with omega <= 2 is far inside the reach of a
    # degree-16 interpolant
    x = PanelSet.from_edges(np.array([-1.0, 1.0])).nodes()
    tau = np.linspace(-1.0, 1.0, 101)
    for omega in (0.5, 1.0, 2.0):
        y = np.broadcast_to(np.cos(omega * x), (len(tau), NODES))
        exact = (np.sin(omega * tau) + np.sin(omega)) / omega
        assert np.max(np.abs(partial_integrals(y, tau) - exact)) <= 1e-15, omega
