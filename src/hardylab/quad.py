"""Panel grids and oscillation-aware adaptive quadrature.

Every integration grid in the package comes from here: panel_edges walks the
panel edges, PanelSet gives the nodes, weights and per-panel sums of one
frozen Gauss-Kronrod 8/17 rule.  Panels are sized so that each spans at most
a quarter of the local oscillation period given by the caller's frequency
hint; every panel is integrated with the 17-point Kronrod rule K17 (exact to
degree 25), and its error estimated by |K17 - G8|, where G8 is the 8-point
Gauss-Legendre rule on the odd-numbered K17 nodes: the estimate reuses the
value's 17 integrand values.  Adaptive panels failing the local tolerance
test are bisected; a contour's panels are fixed.  partial_integrals
integrates the degree-16 interpolant through a panel's 17 values from its
left edge to any point inside, so stored node values give integrals up to
any point without new evaluations.  An adaptive integral sums its accepted
panels sorted by left edge with one numpy sum, whose pairwise tree is fixed
for a given order and length, so identical inputs give bit-identical
results no matter how work is batched.

Integrands receive numpy arrays of abscissae and must be pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._kronrod_table import KRONROD, LEGENDRE
from .config import DEFAULTS
from .errors import BudgetError, DomainError

# nodes on [-1, 1], the K17 value weights and the G8 check weights (zero off
# the G8 nodes, which are the odd-numbered columns: GAUSS_COLS)
_X, _W_VALUE, _W_CHECK = np.array(KRONROD.split(), dtype=float).reshape(-1, 3).T
NODES = len(_X)
GAUSS_COLS = slice(1, NODES, 2)
# row n maps the 17 node values to the coefficient of P_n of their
# degree-16 interpolant on [-1, 1]
_LEGENDRE = np.array(LEGENDRE.split(), dtype=float).reshape(NODES, NODES)

# default cap on panel width where the frequency hint vanishes
MAX_PANEL = 4.0
_MAX_DEPTH = 40
# points per block of integrals_at: partial_integrals' (points, 17) work
# arrays, 557 KB each, then fit the L2 cache together
_EVAL_BLOCK = 4096
# binary64 evaluation-noise floor, relative to the local L1 mass of a
# panel; refinement below this level only chases rounding jitter
_NOISE_FLOOR = 4e-12


@dataclass(frozen=True)
class QuadratureResult:
    value: complex
    abs_err_est: float
    panels: int
    evals: int


def panel_edges(a: float, b: float, freq, breaks=(),
                max_panel: float = MAX_PANEL) -> np.ndarray:
    """Panel edges on [a, b]: each panel spans a quarter period
    0.25 / freq(left edge), capped at max_panel (and max_panel where the
    hint is not positive), and every break in (a, b) becomes an edge."""
    # the cut list ends in a sentinel no edge reaches
    cuts = sorted(x for x in set(breaks) if a < x < b) + [math.inf]
    i, cut = 0, cuts[0]
    f_cap = 0.25 / max_panel  # above it a quarter period is below the cap
    edges = [a]
    x = a
    for _ in range(50_000_000):
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
    raise BudgetError("panel construction runaway")


class PanelSet:
    """Panels [lo_i, hi_i] with their 17 Gauss-Kronrod nodes each: K17 gives
    the value, |K17 - G8| the error estimate, both from the same values.
    Node and weight arrays are flat, panel by panel; a check weight array
    holds zeros at the nine nodes G8 does not use."""

    def __init__(self, lo: np.ndarray, hi: np.ndarray):
        self.lo, self.hi = lo, hi
        self.mid = 0.5 * (lo + hi)
        self.half = 0.5 * (hi - lo)

    @classmethod
    def from_edges(cls, edges: np.ndarray) -> "PanelSet":
        return cls(edges[:-1], edges[1:])

    def nodes(self) -> np.ndarray:
        return (self.mid[:, None] + self.half[:, None] * _X[None, :]).ravel()

    def weights(self, check: bool = False) -> np.ndarray:
        w = _W_CHECK if check else _W_VALUE
        return (self.half[:, None] * w[None, :]).ravel()

    def sums(self, y: np.ndarray, check: bool = False) -> np.ndarray:
        """Per-panel K17 (or, with check, G8) integrals from values y at
        nodes()."""
        w = _W_CHECK if check else _W_VALUE
        return (y.reshape(-1, NODES) * w[None, :]).sum(axis=1) * self.half

    def estimate(self, f):
        """Per-panel K17 values, |K17 - G8| estimates, and f at the nodes
        (one panel per row), from one call of f on all nodes."""
        y = np.asarray(f(self.nodes())).reshape(-1, NODES)
        v = self.sums(y)
        return v, np.abs(v - self.sums(y, check=True)), y


def partial_integrals(y: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """For each row i of y (values at the 17 nodes on [-1, 1]), the integral
    over [-1, tau_i] of the degree-16 interpolant through them.

    The integral of P_n over [-1, tau] is (P_{n+1} - P_{n-1})(tau) / (2n + 1)
    (tau + 1 for n = 0), which is exactly 0 at tau = -1; at tau = 1 the
    weights are exactly the K17 weights.  Elementwise products and a fixed
    per-row sum: a row's result does not depend on the other rows."""
    tau = np.asarray(tau, dtype=float)
    p_prev, p = np.ones_like(tau), tau
    w = (tau + 1.0)[:, None] * _LEGENDRE[0]
    for n in range(1, NODES):
        p_next = ((2 * n + 1) * tau * p - n * p_prev) / (n + 1)
        w += ((p_next - p_prev) / (2 * n + 1))[:, None] * _LEGENDRE[n]
        p_prev, p = p, p_next
    return (w * y).sum(axis=1)


def integrals_at(lo: np.ndarray, hi: np.ndarray, anchors: np.ndarray,
                 y: np.ndarray, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Integrals up to each point of xs on ascending panels [lo_i, hi_i]
    with integral anchors[i] at lo_i and values y[i] at panel i's 17 nodes:
    the anchor at the left edge of the point's panel plus the integral of
    the panel's interpolant up to the point, in blocks of _EVAL_BLOCK
    points.  Returns the integrals and each point's panel index."""
    idx = np.searchsorted(lo, xs, side="right") - 1
    a, b = lo[idx], hi[idx]
    # tau is exactly -1 at a left edge, where the integral is exactly 0
    tau = 2.0 * (xs - a) / (b - a) - 1.0
    out = anchors[idx]
    for j in range(0, len(xs), _EVAL_BLOCK):
        sl = slice(j, j + _EVAL_BLOCK)
        out[sl] += 0.5 * (b[sl] - a[sl]) * partial_integrals(y[idx[sl]], tau[sl])
    return out, idx


def integrate_oscillatory(f: Callable, a: float, b: float, freq,
                          tol: float = 1e-9, budget: int | None = None,
                          max_panel: float = MAX_PANEL,
                          breakpoints: tuple = ()) -> QuadratureResult:
    """Adaptive integral of f over [a, b] with an oscillation frequency hint.

    ``freq(t)`` estimates the local oscillation frequency (cycles per unit);
    panels start at a quarter period and are bisected until the local error
    estimate is at most tol * panel_width / (b - a).  Raises BudgetError
    (carrying the flagged partial result) if the evaluation cap is hit.
    """
    if not a < b:
        raise DomainError("integrate_oscillatory requires a < b")
    budget = DEFAULTS.eval_budget if budget is None else budget

    edges = panel_edges(a, b, freq, breakpoints, max_panel)
    evals = 0
    done_lo, done_val, done_err = [], [], []
    cur_lo, cur_hi = edges[:-1], edges[1:]
    cur_depth = np.zeros(len(cur_lo), dtype=int)
    scale = tol / (b - a)
    exhausted = False
    while len(cur_lo):
        panels = PanelSet(cur_lo, cur_hi)
        v, e, y = panels.estimate(f)
        mass = panels.sums(np.abs(y))  # L1 mass of f on each panel
        evals += NODES * len(cur_lo)
        width = cur_hi - cur_lo
        ok = (e <= np.maximum(scale * width, _NOISE_FLOOR * mass)) \
            | (cur_depth >= _MAX_DEPTH)
        done_lo.append(cur_lo[ok])
        done_val.append(v[ok]); done_err.append(e[ok])
        bad = ~ok
        if not np.any(bad):
            break
        if evals > budget:
            # keep the un-refined panels as best effort and flag
            done_lo.append(cur_lo[bad])
            done_val.append(v[bad]); done_err.append(e[bad])
            exhausted = True
            break
        mid = 0.5 * (cur_lo[bad] + cur_hi[bad])
        cur_lo = np.concatenate([cur_lo[bad], mid])
        cur_hi = np.concatenate([mid, cur_hi[bad]])
        cur_depth = np.concatenate([cur_depth[bad] + 1, cur_depth[bad] + 1])

    lo_all = np.concatenate(done_lo)
    order = np.argsort(lo_all, kind="stable")
    val_all = np.concatenate(done_val)[order]
    err_all = np.concatenate(done_err)[order]
    value = np.sum(val_all)
    err = float(math.fsum(err_all.tolist()))
    result = QuadratureResult(value=value, abs_err_est=err,
                              panels=len(val_all), evals=evals)
    if exhausted:
        raise BudgetError(
            f"evaluation budget {budget} exhausted (err~{err:.2e})", result=result)
    return result


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
    result per height).

    F receives a numpy array of complex s and is taken as smooth: K17 panels
    of width at most max_panel tile [t0, max t1] from t0, every height is a
    panel edge, and F is evaluated once on all their nodes.  A height's value
    is the numpy sum of the panel values below it, its estimate the fsum of
    their |K17 - G8|.
    """
    heights = check_heights(t0, t1)
    edges = panel_edges(t0, float(heights.max()), lambda t: 0.0,
                        heights.tolist(), max_panel)
    v, e, _ = PanelSet.from_edges(edges).estimate(lambda t: F(c + 1j * t))
    # ds = i dt, so (1/2*pi*i) * integral F ds = (1/2*pi) * integral F dt
    out = [QuadratureResult(value=np.sum(v[:n]) / (2.0 * math.pi),
                            abs_err_est=math.fsum(e[:n].tolist()) / (2.0 * math.pi),
                            panels=int(n), evals=NODES * int(n))
           for n in np.searchsorted(edges, heights)]
    return out if np.ndim(t1) else out[0]
