"""Panel grids and oscillation-aware adaptive quadrature.

Every integration grid in the package comes from here: panel_edges walks
the panel edges, PanelSet gives the nodes, weights and per-panel sums of one
frozen Gauss-Kronrod 8/17 rule.  Panels are sized so that each spans at most
a quarter of the local oscillation period given by the caller's frequency
hint; every panel is integrated with the 17-point Kronrod rule K17 (exact to
degree 25), and its error estimated by |K17 - G8|, where G8 is the 8-point
Gauss-Legendre rule on the odd-numbered K17 nodes: the estimate reuses the
value's 17 integrand values.  Panels failing the local tolerance test are
bisected.  partial_integrals integrates the degree-16 interpolant through a
panel's 17 values from its left edge to any point inside, so stored node
values give integrals up to any point without new evaluations; split_values
evaluates the same interpolant at the nodes of k equal sub-panels.  An
adaptive integral sums its accepted panels sorted by left edge with one
numpy sum, whose pairwise tree is fixed for a given order and length, so
identical inputs give bit-identical results no matter how work is batched.

Integrands receive numpy arrays of abscissae and must be pure.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._kronrod_table import KRONROD, LEGENDRE
from .config import DEFAULTS
from .errors import BudgetError, DomainError
from .special import _ELEMS

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
    cuts = sorted(x for x in set(breaks) if a < x < b)
    edges = [a]
    x = a
    i = 0
    while x < b:
        f = float(freq(x))
        x = min(b, x + (min(max_panel, 0.25 / f) if f > 0 else max_panel))
        if i < len(cuts) and cuts[i] <= x:
            x = cuts[i]
            i += 1
        edges.append(x)
        if len(edges) > 50_000_000:
            raise BudgetError("panel construction runaway")
    return np.array(edges)


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
    the panel's interpolant up to the point, in blocks of at most _ELEMS
    node values.  Returns the integrals and each point's panel index."""
    idx = np.searchsorted(lo, xs, side="right") - 1
    a, b = lo[idx], hi[idx]
    # tau is exactly -1 at a left edge, where the integral is exactly 0
    tau = 2.0 * (xs - a) / (b - a) - 1.0
    out = anchors[idx]
    step = _ELEMS // NODES
    for j in range(0, len(xs), step):
        sl = slice(j, j + step)
        out[sl] += 0.5 * (b[sl] - a[sl]) * partial_integrals(y[idx[sl]], tau[sl])
    return out, idx


@functools.cache
def split_matrix(k: int) -> np.ndarray:
    """[NODES, k, NODES], read-only: entry (m, j, i) weighs a panel's node
    value m in its degree-16 interpolant at node i of sub-panel j, the panel
    being cut into k equal sub-panels."""
    # node i of sub-panel j on the panel's [-1, 1]
    t = -1.0 + (2.0 * np.arange(k)[:, None] + 1.0 + _X[None, :]) / k
    p_prev, p = np.ones_like(t), t
    out = p_prev[None] * _LEGENDRE[0][:, None, None] \
        + p[None] * _LEGENDRE[1][:, None, None]
    for n in range(1, NODES - 1):
        p_prev, p = p, ((2 * n + 1) * t * p - n * p_prev) / (n + 1)
        out += p[None] * _LEGENDRE[n + 1][:, None, None]
    out.flags.writeable = False
    return out


def split_lebesgue(k: int) -> float:
    """Lebesgue constant of split_matrix(k): the largest factor by which
    the interpolant can amplify a perturbation of the node values."""
    return float(np.abs(split_matrix(k)).sum(axis=0).max())


def split_values(y: np.ndarray, k: int) -> np.ndarray:
    """For each row of y (values at a panel's 17 nodes), its degree-16
    interpolant at the nodes of the panel's k equal sub-panels: one row per
    sub-panel, sub-panels of a panel consecutive.  Seventeen elementwise
    passes in a fixed order, no matmul: a row's result does not depend on
    the other rows."""
    mat = split_matrix(k)
    out = y[:, 0, None, None] * mat[0]
    for m in range(1, NODES):
        out += y[:, m, None, None] * mat[m]
    return out.reshape(-1, NODES)


def legendre_tail(y: np.ndarray) -> np.ndarray:
    """|c_15| + |c_16| per row of y, c_n the coefficient of P_n in the
    row's degree-16 interpolant: where a smooth integrand is resolved, its
    size is the rounding noise of the node values."""
    return (np.abs((y * _LEGENDRE[NODES - 2]).sum(axis=1))
            + np.abs((y * _LEGENDRE[NODES - 1]).sum(axis=1)))


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


def integrate_vertical_line(F: Callable, c: float, t0: float, t1: float,
                            tol: float = 1e-9,
                            max_panel: float = 1.0) -> QuadratureResult:
    """(1/2*pi*i) * integral of F(s) ds along s = c + i*t, t in [t0, t1].

    F receives a numpy array of complex s and is taken as smooth: panels of
    width max_panel, bisected as the tolerance requires.
    """
    if not t0 < t1:
        raise DomainError("integrate_vertical_line requires t0 < t1")

    def g(t: np.ndarray) -> np.ndarray:
        return np.asarray(F(c + 1j * t))

    res = integrate_oscillatory(g, t0, t1, lambda t: 0.0, tol=tol,
                                max_panel=max_panel)
    # ds = i dt, so (1/2*pi*i) * integral F ds = (1/2*pi) * integral F dt
    return QuadratureResult(value=res.value / (2.0 * math.pi),
                            abs_err_est=res.abs_err_est / (2.0 * math.pi),
                            panels=res.panels, evals=res.evals)

