"""Panel grids and fixed Gauss-Kronrod quadrature.

Every integration grid in the package comes from here: panel_edges walks the
panel edges, PanelSet gives the nodes and weights of one frozen
Gauss-Kronrod 8/17 rule and, in PanelSet.integrate, every panel's value and
error estimate.  Panels are sized so that each spans at most a quarter of
the local oscillation period given by the caller's frequency hint; every
panel is integrated with the 17-point Kronrod rule K17 (exact to degree 25),
and its error estimated by |K17 - G8|, where G8 is the 8-point
Gauss-Legendre rule on the odd-numbered K17 nodes: the estimate reuses the
value's 17 integrand values.  integrate is the one place that estimate is
formed per panel; the transform engine forms it per s from the same
weights, through CHECK_RATIO.  No panel is ever bisected: for an integrand
analytic around each panel the fixed rule's error decays geometrically
with its degree (Trefethen, SIAM Rev. 50, 2008), and refining on |K17 - G8|
below that only chases rounding noise.  partial_integrals integrates the
degree-16 interpolant through a panel's 17 values, from the panel's Legendre
coefficients (formed once per panel a block touches), from its left edge to
any point inside: stored node values give integrals up to any point without
new evaluations, and PanelSet.node_integrals gives them at every node
through one fixed 17 x 17 matrix; node and node-integral arrays are each
formed in one array.  integrate_oscillatory hands its integrand Z_BLOCK
panels at a time, one Riemann-Siegel chunk of nodes, and sums its panels in
order with one numpy sum, whose pairwise tree is fixed for a given order and
length, so identical inputs give bit-identical results no matter how work
is batched.

Integrands receive numpy arrays of abscissae and must be pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._kronrod_table import KRONROD, LEGENDRE
from .errors import BudgetError, DomainError
from .hardy import _CHUNK

# nodes on [-1, 1], the K17 value weights and the G8 check weights (zero off
# the G8 nodes, which are the odd-numbered columns: GAUSS_COLS)
_X, _W_VALUE, _W_CHECK = np.array(KRONROD.split(), dtype=float).reshape(-1, 3).T
NODES = len(_X)
GAUSS_COLS = slice(1, NODES, 2)
# per column, a node's G8 weight over its K17 weight (0 off GAUSS_COLS): a
# G8 sum is a K17-weighted sum reweighted column by column
CHECK_RATIO = _W_CHECK / _W_VALUE
# row n maps the 17 node values to the coefficient of P_n of their
# degree-16 interpolant on [-1, 1]
_LEGENDRE = np.array(LEGENDRE.split(), dtype=float).reshape(NODES, NODES)

# default cap on panel width where the frequency hint vanishes
MAX_PANEL = 4.0
# default cap on the integrand evaluations of one integrate_oscillatory pass
EVAL_BUDGET = 100_000_000
# panels per integrand call of a walk: their nodes are one z_rs_many chunk
# (17,476 = 1,028 x 17 heights), so Z's temporaries stay one chunk's
Z_BLOCK = _CHUNK // NODES
# points per block of integrals_at: the block's Legendre values and
# coefficients, about 600 KB per array, then fit the L2 cache
_EVAL_BLOCK = 4096


@dataclass(frozen=True)
class QuadratureResult:
    value: complex
    abs_err_est: float
    panels: int
    evals: int


def panel_edges(a: float, b: float, freq, breaks=(),
                max_panel: float = MAX_PANEL,
                max_panels: int = 50_000_000) -> np.ndarray:
    """Panel edges on [a, b]: each panel spans a quarter period
    0.25 / freq(left edge), capped at max_panel (and max_panel where the
    hint is not positive), and every break in (a, b) becomes an edge.
    Raises BudgetError once the walk passes max_panels panels."""
    # the cut list ends in a sentinel no edge reaches
    cuts = sorted(x for x in set(breaks) if a < x < b) + [math.inf]
    i, cut = 0, cuts[0]
    f_cap = 0.25 / max_panel  # above it a quarter period is below the cap
    edges = [a]
    x = a
    for _ in range(max_panels + 1):
        if not x < b:
            return np.array(edges)
        f = freq(x)
        x += 0.25 / f if f > f_cap else max_panel
        if x > b:
            x = b
        if cut <= x:
            x = cut
            i += 1
            cut = cuts[i]
        edges.append(x)
    raise BudgetError(f"[{a}, {b}] needs more than {max_panels} panels, "
                      "above the budget")


class PanelSet:
    """Panels [lo_i, hi_i] with their 17 Gauss-Kronrod nodes each: K17 gives
    the value, |K17 - G8| the error estimate, both from the same values.
    Node and weight arrays are flat, panel by panel."""

    def __init__(self, lo: np.ndarray, hi: np.ndarray):
        self.lo, self.hi = lo, hi
        self.mid = 0.5 * (lo + hi)
        self.half = 0.5 * (hi - lo)

    @classmethod
    def from_edges(cls, edges: np.ndarray) -> "PanelSet":
        return cls(edges[:-1], edges[1:])

    def nodes(self) -> np.ndarray:
        """mid + half * x_j for every panel and node, in one new array."""
        out = np.multiply.outer(self.half, _X)
        out += self.mid[:, None]
        return out.ravel()

    def weights(self) -> np.ndarray:
        """The K17 weights at nodes()."""
        return (self.half[:, None] * _W_VALUE).ravel()

    def weigh(self, y: np.ndarray) -> np.ndarray:
        """y times the K17 weights at nodes(), formed in y (which the caller
        owns) one column at a time, and returned flat: the bits of
        weights() * y without a node-sized temporary."""
        rows = y.reshape(-1, NODES)
        for j in range(NODES):
            rows[:, j] *= self.half * _W_VALUE[j]
        return rows.ravel()

    def integrate(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-panel K17 integrals and their |K17 - G8| estimates, from
        values y at nodes() (flat, or one panel per row)."""
        y = np.reshape(y, (-1, NODES))
        v = (y * _W_VALUE).sum(axis=1) * self.half
        return v, np.abs(v - (y * _W_CHECK).sum(axis=1) * self.half)

    def node_integrals(self, y: np.ndarray, anchors: np.ndarray) -> np.ndarray:
        """The integral up to every node (flat, panel by panel) from values
        y at nodes() and anchors[i], the integral at panel i's left edge:
        anchors[i] + half_i * (Q y_i)_j, Q the fixed spectral-integration
        matrix (row j: the interpolant's integral over [-1, x_j])."""
        out = _row_products(_SPECTRAL, np.reshape(y, (-1, NODES)))
        out *= self.half[:, None]
        out += anchors[:, None]
        return out.ravel()


def _row_products(m: np.ndarray, y: np.ndarray) -> np.ndarray:
    """m times every row of y, in one new array: elementwise products and
    fixed row sums (no matmul, so no row depends on the others), 128 rows
    at a time, so each (rows, 17, 17) product stays at 296 KB."""
    out = np.empty((len(y), len(m)), dtype=np.result_type(y, m))
    for j in range(0, len(y), 128):
        np.sum(y[j:j + 128, None, :] * m, axis=2, out=out[j:j + 128])
    return out


def partial_integrals(y: np.ndarray, tau: np.ndarray,
                      rows: np.ndarray | None = None) -> np.ndarray:
    """The integral over [-1, tau_i] of the degree-16 interpolant through
    row rows[i] (or i) of y, values at the 17 nodes on [-1, 1]: the sum over
    n of q_n(tau_i) c_n, each row's Legendre coefficients c_n = sum_j L[n, j]
    y_j formed once, q_n = (P_{n+1} - P_{n-1})/(2n + 1) the integral of P_n.
    Exactly 0 at tau = -1 and 2 c_0, the K17 sum, at tau = 1; elementwise
    products and fixed row sums, so no result depends on the other points."""
    c = _row_products(_LEGENDRE, y)
    # P_{-1} = -1, P_0, ..., P_17 at tau, so that q_0 = P_1 - P_{-1}
    p = np.empty((NODES + 2, len(tau)))
    p[0], p[1], p[2] = -1.0, 1.0, tau
    for n in range(1, NODES):
        p[n + 2] = ((2 * n + 1) * tau * p[n + 1] - n * p[n]) / (n + 1)
    q = np.subtract(p[2:], p[:-2], out=p[2:])
    q /= np.arange(1.0, 2 * NODES, 2.0)[:, None]
    return (q.T * (c if rows is None else c[rows])).sum(axis=1)


# row j maps a panel's 17 node values to the integral of their interpolant
# over [-1, x_j]: partial_integrals of each unit vector at each node
_SPECTRAL = partial_integrals(np.eye(NODES), np.repeat(_X, NODES),
                              np.tile(np.arange(NODES), NODES)).reshape(NODES, NODES)


def integrals_at(lo: np.ndarray, hi: np.ndarray, anchors: np.ndarray,
                 y: np.ndarray, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Integrals up to each point of xs on ascending panels [lo_i, hi_i]
    with integral anchors[i] at lo_i and values y[i] at panel i's 17 nodes:
    the anchor at the left edge of the point's panel plus the integral of
    its interpolant up to the point, in blocks of _EVAL_BLOCK points (one
    coefficient set per touched panel).  Returns them and the panel indices."""
    idx = np.searchsorted(lo, xs, side="right") - 1
    a, b = lo[idx], hi[idx]
    # tau is exactly -1 at a left edge, where the integral is exactly 0
    tau = 2.0 * (xs - a) / (b - a) - 1.0
    out = anchors[idx]
    for j in range(0, len(xs), _EVAL_BLOCK):
        sl = slice(j, j + _EVAL_BLOCK)
        # the panels the block touches, ascending (np.unique costs more)
        first = idx[sl].min()
        touched = np.flatnonzero(np.bincount(idx[sl] - first)) + first
        out[sl] += 0.5 * (b[sl] - a[sl]) * partial_integrals(
            y[touched], tau[sl], np.searchsorted(touched, idx[sl]))
    return out, idx


def integrate_oscillatory(f: Callable, a: float, b: float, freq,
                          budget: int = EVAL_BUDGET, max_panel: float = 1.0,
                          breakpoints: tuple = ()) -> QuadratureResult:
    """Integral of f over [a, b] by one pass of the K17 rule over
    panel_edges(a, b, freq, breakpoints, max_panel), in blocks of Z_BLOCK
    panels: the value is the numpy sum of the panel values in order, the
    estimate the fsum of their |K17 - G8|.  Raises BudgetError if the pass
    needs more than budget nodes: the walk stops at budget // NODES panels,
    before any evaluation.

    Panels are at most max_panel wide: below t ~ 145 a quarter period of Z
    is wider than 1, and on MAX_PANEL-wide panels there G8 no longer
    resolves Z^k (a pass of Z^k x^{-s} over [1, 2000] estimates up to
    1.4e-7 on 4-wide panels, 6.6e-10 on 1-wide ones).
    """
    if not a < b:
        raise DomainError("integrate_oscillatory requires a < b")
    edges = panel_edges(a, b, freq, breakpoints, max_panel, budget // NODES)
    n = len(edges) - 1
    lo, hi, step = edges[:-1], edges[1:], Z_BLOCK
    # the node values of a block are dropped once its panels are summed
    blocks = (PanelSet(lo[j:j + step], hi[j:j + step]) for j in range(0, n, step))
    v, e = zip(*(p.integrate(f(p.nodes())) for p in blocks))
    value = np.sum(np.concatenate(v))
    err = math.fsum(np.concatenate(e).tolist())
    return QuadratureResult(value=value, abs_err_est=err, panels=n,
                            evals=NODES * n)


def check_heights(t0: float, t1) -> np.ndarray:
    """t1, one height or a sequence, as a 1-d float array; DomainError
    unless t0 and every height are finite and every height exceeds t0."""
    heights = np.atleast_1d(np.asarray(t1, dtype=float))
    if not (math.isfinite(t0) and np.all(np.isfinite(heights) & (heights > t0))):
        raise DomainError("integrate_vertical_line requires finite t0 < t1")
    return heights


def integrate_vertical_line(F: Callable, c: float, t0: float, t1,
                            max_panel: float = 1.0):
    """(1/2*pi*i) * integral of F(s) ds along s = c + i*t, t in [t0, t1], for
    one height t1 (a QuadratureResult) or a sequence of heights (a list, one
    result per height; none for an empty sequence, with no call of F).

    F receives a numpy array of complex s and is taken as smooth: K17 panels
    of width at most max_panel tile [t0, max t1] from t0, every height is a
    panel edge, and F is evaluated once on all their nodes.  A height's value
    is the numpy sum of the panel values below it, its estimate the fsum of
    their |K17 - G8|.
    """
    heights = check_heights(t0, t1)
    if not len(heights):
        return []
    edges = panel_edges(t0, float(heights.max()), lambda t: 0.0,
                        heights.tolist(), max_panel)
    panels = PanelSet.from_edges(edges)
    v, e = panels.integrate(F(c + 1j * panels.nodes()))
    # ds = i dt, so (1/2*pi*i) * integral F ds = (1/2*pi) * integral F dt
    out = [QuadratureResult(value=np.sum(v[:n]) / (2.0 * math.pi),
                            abs_err_est=math.fsum(e[:n].tolist()) / (2.0 * math.pi),
                            panels=int(n), evals=NODES * int(n))
           for n in np.searchsorted(edges, heights)]
    return out if np.ndim(t1) else out[0]
