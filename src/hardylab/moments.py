"""Power moments of Hardy's function: I_k(x) = integral of Z^k over [1, x].

A per-k cumulative cache is the one store of Z^k node values.  The k = 1
cache walks Gauss-Kronrod panels from 1 (quarter periods of Z, an edge at
every breakpoint of the evaluation) and keeps, for every panel, I_1 at its
edges and Z at its 17 nodes.  Any I_k(x) inside the built range is then the
anchor at the panel's left edge plus the integral of the panel's degree-16
interpolant up to x: no new Z values.  Transform grids on [1, X] read the
same panels and node values.  Mellin-transform callers re-integrate I_k
thousands of times, so the cache is the difference between seconds and
hours.

Every k >= 2 cache shares that one Z walk: it has a k = 1 base cache (the
process-wide moment_cache(1) for moment_cache(k), a fresh one for a fresh
cache), cuts each base panel into k equal sub-panels, and takes Z at their
nodes from the base panel's degree-16 interpolant through its 17 stored
values (quad.split_values).  It evaluates no Z of its own.  The
interpolation carries the base values' rounding noise into all k
sub-panels with one sign, which |K17 - G8| does not see, so each sub-panel's
error adds an empirical estimate of it (MomentCache._split).

The walk is canonical: ensure(x) continues it from the last edge and stops
at the first edge (for k >= 2, sub-edge) past x, and anchors are summed one
panel at a time from the last anchor, so edges, anchors and node values are
the same bits however the requests were split, and whatever the base had
built before.  Cache construction is single-threaded and extend-only:
arrays already built are replaced, never mutated.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .hardy import _ELEMS, z_breakpoints, z_eval_many
from .quad import (MAX_PANEL, NODES, PanelSet, integrals_at,
                   integrate_oscillatory, legendre_tail, panel_edges,
                   split_lebesgue, split_values)
from .special import TWO_PI


@dataclass(frozen=True)
class MomentResult:
    k: int
    a: float
    b: float
    value: float
    abs_err_est: float


def z_power_freq(k: int):
    """Local oscillation frequency of Z^k: k * |theta'(t)| / (2*pi)."""
    def freq(t: float) -> float:
        if t <= 0.1:
            return 0.0
        return k * abs(0.5 * math.log(t / TWO_PI)) / TWO_PI
    return freq


def hardy_moment(k: int, a: float, b: float, tol: float = 1e-7,
                 budget: int | None = None) -> MomentResult:
    """integral of Z^k over [a, b], adaptive; Z from the Riemann-Siegel
    formula above t = 10 and from the frozen low table below."""
    if not (1 <= k <= 8):
        raise DomainError("hardy_moment requires 1 <= k <= 8")
    if not (1.0 <= a < b):
        raise DomainError("hardy_moment requires 1 <= a < b")

    def f(t: np.ndarray) -> np.ndarray:
        return z_eval_many(t) ** k

    res = integrate_oscillatory(f, a, b, z_power_freq(k), tol=tol,
                                budget=budget, breakpoints=z_breakpoints(a, b))
    return MomentResult(k=k, a=a, b=b, value=float(res.value.real),
                        abs_err_est=res.abs_err_est)


def _running_sum(acc: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """acc, then its last value plus terms, one at a time."""
    return np.concatenate(
        [acc[:-1], np.cumsum(np.concatenate([acc[-1:], terms]))])


class MomentCache:
    """Cumulative I_k on [1, X], extended on demand: panel edges, I_k and its
    summed error estimate at the edges, and Z^k at every panel's 17 nodes
    (one row per panel).  For k >= 2 the panels are those of a k = 1 base
    cache, each cut into k equal sub-panels, and Z at their nodes is the
    base panel's interpolant: a fresh cache gets a fresh base."""

    def __init__(self, k: int, base: "MomentCache | None" = None):
        self.k = k
        self.base = None if k == 1 else (base or MomentCache(1))
        self.edges = np.array([1.0])
        self.values = np.array([0.0])
        self.cum_err = np.array([0.0])
        self.zk = np.empty((0, NODES))

    def _zk(self, t: np.ndarray) -> np.ndarray:
        return z_eval_many(t) ** self.k

    def ensure(self, x_max: float) -> None:
        """Continue the walk to the first edge past x_max."""
        if not math.isfinite(x_max):
            raise DomainError("MomentCache.ensure requires a finite height")
        if x_max < self.edges[-1]:
            return
        edges, val, err, y = (self._walk if self.base is None
                              else self._split)(x_max)
        self.edges = np.concatenate([self.edges, edges[1:]])
        # summed one panel at a time from the last anchor: the same bits
        # however the walk was split
        self.values = _running_sum(self.values, val)
        self.cum_err = _running_sum(self.cum_err, err)
        self.zk = np.concatenate([self.zk, y])

    def _walk(self, x_max: float):
        """k = 1: quarter periods of Z from the last edge, with Z evaluated
        at every node."""
        start = self.edges[-1]
        # the walk's steps never exceed MAX_PANEL, so it crosses x_max before
        # reaching the bound, and the edge that crosses it is not clipped;
        # every breakpoint gets an edge (evaluation is piecewise smooth)
        bound = x_max + MAX_PANEL
        edges = panel_edges(start, bound, z_power_freq(1),
                            z_breakpoints(start, bound))
        edges = edges[:int(np.searchsorted(edges, x_max, side="right")) + 1]
        step = _ELEMS // NODES
        lo, hi = edges[:-1], edges[1:]
        parts = [PanelSet(lo[j:j + step], hi[j:j + step]).estimate(self._zk)
                 for j in range(0, len(lo), step)]
        return (edges, *(np.concatenate(p) for p in zip(*parts)))

    def _split(self, x_max: float):
        """k >= 2: the base panels from the one holding the last edge, each
        cut into k equal sub-panels, with Z at their nodes interpolated from
        the base panel's 17 values.  Interpolation carries the base values'
        rounding noise into all k sub-panels with one sign, so each
        sub-panel's error estimate adds Lambda_k k max|Z|^(k-1) (|c_15| +
        |c_16|) width, from the base panel's values and Legendre
        coefficients: an estimate, not a bound."""
        base, k = self.base, self.k
        base.ensure(x_max)
        first, skip = divmod(len(self.edges) - 1, k)
        stop = int(np.searchsorted(base.edges, x_max, side="right"))
        lo, hi = base.edges[first:stop], base.edges[first + 1:stop + 1]
        sub = np.append((lo[:, None] + (hi - lo)[:, None]
                         * (np.arange(k) / k)).ravel(), hi[-1])
        # through the first sub-edge past x_max
        edges = sub[skip:int(np.searchsorted(sub, x_max, side="right")) + 1]
        step = _ELEMS // (NODES * k)
        parts = []
        rows = base.zk[first:stop]
        for j in range(0, len(rows), step):
            z = rows[j:j + step]
            panels = PanelSet(sub[j * k:(j + len(z)) * k],
                              sub[j * k + 1:(j + len(z)) * k + 1])
            y = split_values(z, k) ** k
            val = panels.sums(y)
            per_width = (k * split_lebesgue(k) * np.abs(z).max(axis=1) ** (k - 1)
                         * legendre_tail(z))
            est = np.repeat(per_width, k) * (2.0 * panels.half)
            parts.append((val, np.abs(val - panels.sums(y, check=True)) + est, y))
        # the first skip sub-panels are built already, and the walk stops
        # at the first sub-edge past x_max
        n = len(edges) - 1
        return (edges, *(np.concatenate(p)[skip:skip + n] for p in zip(*parts)))

    def eval_many(self, xs: np.ndarray) -> np.ndarray:
        """I_k at arbitrary points: the anchor at the left edge of the
        point's panel plus the integral of the panel's interpolant up to the
        point (quad.integrals_at)."""
        xs = np.asarray(xs, dtype=float)
        if not np.all(np.isfinite(xs) & (xs >= 1.0)):
            raise DomainError("I_k defined for finite x >= 1")
        self.ensure(float(xs.max()) if xs.size else 1.0)
        return integrals_at(self.edges[:-1], self.edges[1:], self.values,
                            self.zk, xs)[0]

    def panels(self, x: float) -> tuple[PanelSet, np.ndarray]:
        """The cache's panels on [1, x], the last one clipped at x, with Z^k
        at their nodes (flat, panel by panel): only a clipped last panel
        evaluates Z, at its 17 nodes."""
        self.ensure(x)
        m = int(np.searchsorted(self.edges, x, side="right")) - 1
        edges, zk = self.edges[:m + 1], self.zk[:m]
        if edges[-1] < x:
            last = PanelSet(edges[-1:], np.array([x]))
            edges = np.append(edges, x)
            zk = np.concatenate([zk, self._zk(last.nodes())[None]])
        return PanelSet.from_edges(edges), zk.ravel()

    def value(self, x: float) -> float:
        return float(self.eval_many(np.array([x]))[0])

    def err_at(self, x: float) -> float:
        idx = int(np.searchsorted(self.edges, x, side="right")) - 1
        return float(self.cum_err[max(idx, 0)])

    def sup_scaled(self, exponent: float, x_lo: float, x_hi: float) -> float:
        """sup over anchors in [x_lo, x_hi] of |I_k(x)| * x^(-exponent)."""
        self.ensure(x_hi)
        m = (self.edges >= x_lo) & (self.edges <= x_hi)
        return float(np.max(np.abs(self.values[m]) * self.edges[m] ** (-exponent)))


@functools.cache
def moment_cache(k: int) -> MomentCache:
    """The process-wide I_k cache; for k >= 2 its base is moment_cache(1)."""
    return MomentCache(k, None if k == 1 else moment_cache(1))
