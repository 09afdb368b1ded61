"""Power moments of Hardy's function: I_k(x) = integral of Z^k over [1, x].

A per-k cumulative cache holds I_k at its panel edges.  The k = 1 cache
walks Gauss-Kronrod panels from 1 (quarter periods of Z, an edge at every
breakpoint of the evaluation) and keeps, for every panel, I_1 at its edges
and Z at its 17 nodes: the one store of Z rows.  Any I_k(x) inside the
built range is then the anchor at the panel's left edge plus the integral
of the panel's degree-16 interpolant up to x, summed from the panel's
Legendre coefficients: no new Z values.  The verify suites read I_k(2T) -
I_k(T) so, and transform grids on [1, X] read the same panels and node
values.  Mellin-transform callers re-integrate I_k thousands of times: the
cache saves hours.

Every k >= 2 cache shares that one Z walk: it has a k = 1 base cache (the
process-wide moment_cache(1) for moment_cache(k), a fresh one for a fresh
cache) and takes the base's panels bit for bit.  It keeps no node array: it
raises the base's Z rows to the k-th power as it reads them, to integrate
new panels, at the panels eval_many touches and for panels(x).  Its walk
evaluates no Z of its own; for any k,
panels(x) evaluates Z at the 17 nodes of its last panel when that panel is
clipped at x.  A quarter period of Z spans k/4 of a period of Z^k, at most
one period for k <= 4, and Z is entire: K17, exact to degree 25, resolves
Z^k there, and each panel is judged by its own |K17 - G8|
(quad.PanelSet.integrate), as for k = 1; err_at(x) sums those estimates
through x's own panel.  hardy_moment and the transform grids size their
panels by Z's frequency for every k as well, and ask Z for quad.Z_BLOCK
panels at a time, one Riemann-Siegel chunk of nodes.

Every node array of Z^k, here and in the mellin grids, is raised in place by
power_in_place: k - 1 products for k <= 4, not libm pow, so within
gamma_{k-1} = (k-1) u / (1 - (k-1) u) relative of the exact power of the
stored Z (u = 2^-53; Higham 2002, section 3.1).

The walk is canonical: ensure(x) continues it from the last edge and stops
at the first edge past x, and anchors are summed one panel at a time from
the last anchor, so edges, anchors and node values are the same bits
however the requests were split, and whatever the base had built before.
Cache construction is single-threaded and extend-only: arrays already built
are replaced, never mutated.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .hardy import z_breakpoints, z_eval_many
from .quad import (MAX_PANEL, NODES, Z_BLOCK, PanelSet, integrals_at,
                   integrate_oscillatory, panel_edges)
from .special import TWO_PI


@dataclass(frozen=True)
class MomentResult:
    k: int
    a: float
    b: float
    value: float
    abs_err_est: float


def z_freq(t: float) -> float:
    """Local oscillation frequency of Z: |theta'(t)| / (2*pi)."""
    if t <= 0.1:
        return 0.0
    return abs(0.5 * math.log(t / TWO_PI)) / TWO_PI


def power_in_place(a: np.ndarray, k: int) -> np.ndarray:
    """a^k, formed in a (which the caller owns) and returned: for k = 2, 3, 4
    the products a*a, a*(a*a) (one temporary) and (a*a)*(a*a), not pow."""
    if k == 3:
        a *= a * a
    elif k in (2, 4):
        a *= a
        if k == 4:
            a *= a
    elif k > 4:
        a **= k
    return a


def hardy_moment(k: int, a: float, b: float, tol: float | None = None,
                 budget: int | None = None) -> MomentResult:
    """integral of Z^k over [a, b]: one pass of the fixed K17 rule
    (quad.integrate_oscillatory) over quarter periods of Z (not of Z^k) for
    every k, with an edge at every breakpoint of the evaluation, in blocks
    and with no cache, so memory stays bounded for large b; Z from the
    Riemann-Siegel formula above t = 10 and from the frozen low table below.
    tol is accepted and steers nothing: the rule has no refinement.  budget
    caps the evaluations (BudgetError before any is made)."""
    if not (1 <= k <= 8):
        raise DomainError("hardy_moment requires 1 <= k <= 8")
    if not (1.0 <= a < b):
        raise DomainError("hardy_moment requires 1 <= a < b")

    def f(t: np.ndarray) -> np.ndarray:
        return power_in_place(z_eval_many(t), k)

    res = integrate_oscillatory(f, a, b, z_freq, budget=budget,
                                breakpoints=z_breakpoints(a, b))
    return MomentResult(k=k, a=a, b=b, value=float(res.value.real),
                        abs_err_est=res.abs_err_est)


def _running_sum(acc: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """acc, then its last value plus terms, one at a time."""
    return np.concatenate(
        [acc[:-1], np.cumsum(np.concatenate([acc[-1:], terms]))])


class MomentCache:
    """Cumulative I_k on [1, X], extended on demand: panel edges, I_k and its
    summed error estimate at the edges, and for k = 1 Z at every panel's 17
    nodes (z, one row per panel).  For k >= 2 the panels and Z rows are those
    of a k = 1 base cache: a fresh cache gets a fresh base."""

    def __init__(self, k: int, base: "MomentCache | None" = None):
        self.k = k
        self.base = None if k == 1 else (base or MomentCache(1))
        self.edges = np.array([1.0])
        self.values = np.array([0.0])
        self.cum_err = np.array([0.0])
        if self.base is None:
            self.z = np.empty((0, NODES))

    @property
    def zk(self) -> np.ndarray:
        """Z^k at every built panel's 17 nodes, one row per panel, formed on
        read from the stored Z rows."""
        return self._power_rows(0, len(self.edges) - 1)

    def _zk(self, t: np.ndarray) -> np.ndarray:
        return power_in_place(z_eval_many(t), self.k)

    def _power_rows(self, lo: int, hi: int, out: np.ndarray | None = None):
        """Z^k at the nodes of panels lo..hi-1, written into out (a new
        array by default): the stored Z rows copied and raised Z_BLOCK rows
        at a time, so k = 3's product temporary stays a block."""
        out = np.empty((hi - lo, NODES)) if out is None else out
        for j in range(0, hi - lo, Z_BLOCK):
            block = out[j:min(j + Z_BLOCK, hi - lo)]
            np.copyto(block, (self.base or self).z[lo + j:lo + j + len(block)])
            power_in_place(block, self.k)
        return out

    def ensure(self, x_max: float) -> None:
        """Continue the walk to the first edge past x_max."""
        if not math.isfinite(x_max):
            raise DomainError("MomentCache.ensure requires a finite height")
        if x_max < self.edges[-1]:
            return
        edges, val, err = self._walk(x_max)
        self.edges = np.concatenate([self.edges, edges[1:]])
        # summed one panel at a time from the last anchor: the same bits
        # however the walk was split
        self.values = _running_sum(self.values, val)
        self.cum_err = _running_sum(self.cum_err, err)

    def _walk(self, x_max: float):
        """The panels from the last edge through the first edge past x_max,
        with their K17 values and |K17 - G8| estimates (PanelSet.integrate),
        Z_BLOCK panels at a time.  k = 1 walks quarter periods of Z and
        writes Z at every node into a new store after the old rows; k >= 2
        reads the base's panels and raises the base's rows."""
        first = len(self.edges) - 1
        if self.base is None:
            # the walk's steps never exceed MAX_PANEL, so it crosses x_max
            # before reaching the bound, and the edge that crosses it is not
            # clipped; every breakpoint gets an edge (evaluation is
            # piecewise smooth)
            start = self.edges[-1]
            bound = x_max + MAX_PANEL
            edges = panel_edges(start, bound, z_freq,
                                z_breakpoints(start, bound))
        else:
            self.base.ensure(x_max)
            edges = self.base.edges[first:]
        edges = edges[:int(np.searchsorted(edges, x_max, side="right")) + 1]
        lo, hi = edges[:-1], edges[1:]
        val, err = np.empty(len(lo)), np.empty(len(lo))
        if self.base is None:
            z = np.empty((first + len(lo), NODES))
            z[:first] = self.z
        for j in range(0, len(lo), Z_BLOCK):
            panels = PanelSet(lo[j:j + Z_BLOCK], hi[j:j + Z_BLOCK])
            top = first + j + len(panels.lo)
            if self.base is None:
                y = z[first + j:top]
                y[...] = self._zk(panels.nodes()).reshape(-1, NODES)
            else:
                y = self._power_rows(first + j, top)
            val[j:j + Z_BLOCK], err[j:j + Z_BLOCK] = panels.integrate(y)
        if self.base is None:
            self.z = z
        return edges, val, err

    def eval_many(self, xs: np.ndarray) -> np.ndarray:
        """I_k at arbitrary points: the anchor at the left edge of the
        point's panel plus the integral of the panel's interpolant up to the
        point (quad.integrals_at), over the panels the points touch (Z^k
        formed at their nodes alone)."""
        xs = np.asarray(xs, dtype=float)
        if not np.all(np.isfinite(xs) & (xs >= 1.0)):
            raise DomainError("I_k defined for finite x >= 1")
        self.ensure(float(xs.max()) if xs.size else 1.0)
        idx = np.searchsorted(self.edges[:-1], xs, side="right") - 1
        first = int(idx.min()) if idx.size else 0
        touched = np.flatnonzero(np.bincount(idx.ravel() - first)) + first
        y = power_in_place(np.take((self.base or self).z, touched, axis=0), self.k)
        return integrals_at(self.edges[touched], self.edges[touched + 1],
                            self.values[touched], y, xs)[0]

    def panels(self, x: float) -> tuple[PanelSet, np.ndarray]:
        """The cache's panels on [1, x], the last one clipped at x, with Z^k
        at their nodes (flat, panel by panel) in one new array: only a
        clipped last panel evaluates Z, at its 17 nodes."""
        self.ensure(x)
        m = int(np.searchsorted(self.edges, x, side="right")) - 1
        edges = self.edges[:m + 1]
        if edges[-1] < x:
            edges = np.append(edges, x)
        panels = PanelSet.from_edges(edges)
        zk = self._power_rows(0, m, np.empty((len(panels.lo), NODES)))
        if len(zk) > m:
            zk[m] = self._zk(PanelSet(edges[-2:-1], edges[-1:]).nodes())
        return panels, zk.ravel()

    def err_at(self, x: float) -> float:
        """The summed |K17 - G8| of I_k(x): every panel through x's own,
        after extending the walk past x (at an edge, the panels below it)."""
        self.ensure(x)
        return float(self.cum_err[np.searchsorted(self.edges, x)])

    def sup_scaled(self, exponent: float, x_lo: float, x_hi: float) -> float:
        """sup over anchors in [x_lo, x_hi] of |I_k(x)| * x^(-exponent)."""
        self.ensure(x_hi)
        m = (self.edges >= x_lo) & (self.edges <= x_hi)
        return float(np.max(np.abs(self.values[m]) * self.edges[m] ** (-exponent)))


@functools.cache
def moment_cache(k: int) -> MomentCache:
    """The process-wide I_k cache; for k >= 2 its base is moment_cache(1)."""
    return MomentCache(k, None if k == 1 else moment_cache(1))
