"""Power moments of Hardy's function: I_k(x) = integral of Z^k over [1, x].

A per-k cumulative cache stores I_k at quarter-period anchor points, built
in one deterministic left-to-right pass; any I_k(x) then costs a single
Gauss-Legendre panel from the nearest anchor.  Mellin-transform callers
re-integrate I_k thousands of times, so the cache is the difference between
seconds and hours.  write_checkpoints/read_checkpoints write and read back
I_k at T = 1, 1 + dT, ... as CSV; no CLI command uses them, and the cache
never loads them.

Cache construction is single-threaded and extend-only; the anchor arrays
already written are never mutated, so finished prefixes are safe to read
concurrently.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DomainError
from .hardy import _ELEMS, z_breakpoints, z_eval_many
from .quad import NODES, PanelSet, integrate_oscillatory, panel_edges
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
                 corrections: int = 3, budget: int | None = None) -> MomentResult:
    """integral of Z^k over [a, b], adaptive; Z from the Riemann-Siegel
    formula above t = 10 and from the frozen low table below."""
    if not (1 <= k <= 8):
        raise DomainError("hardy_moment requires 1 <= k <= 8")
    if not (1.0 <= a < b):
        raise DomainError("hardy_moment requires 1 <= a < b")

    def f(t: np.ndarray) -> np.ndarray:
        return z_eval_many(t, corrections) ** k

    res = integrate_oscillatory(f, a, b, z_power_freq(k), tol=tol,
                                budget=budget, breakpoints=z_breakpoints(a, b))
    return MomentResult(k=k, a=a, b=b, value=float(res.value.real),
                        abs_err_est=res.abs_err_est)


class MomentCache:
    """Cumulative I_k anchors on [1, X], extended on demand."""

    def __init__(self, k: int, corrections: int = 3):
        self.k = k
        self.corrections = corrections
        self.edges = np.array([1.0])
        self.values = np.array([0.0])
        self.cum_err = np.array([0.0])

    def _zk(self, t: np.ndarray) -> np.ndarray:
        return z_eval_many(t, self.corrections) ** self.k

    def ensure(self, x_max: float) -> None:
        if x_max <= self.edges[-1]:
            return
        start = self.edges[-1]
        # evaluation is only piecewise smooth; every breakpoint gets an edge
        edges = panel_edges(start, x_max, z_power_freq(self.k),
                            z_breakpoints(start, x_max))
        val, err, _ = PanelSet.from_edges(edges).estimate(self._zk)
        base_val = self.values[-1]
        base_err = self.cum_err[-1]
        self.edges = np.concatenate([self.edges, edges[1:]])
        self.values = np.concatenate([self.values, base_val + np.cumsum(val)])
        self.cum_err = np.concatenate(
            [self.cum_err, base_err + np.cumsum(err)])

    def eval_many(self, xs: np.ndarray) -> np.ndarray:
        """I_k at arbitrary points (vectorized, anchored single panels, in
        blocks of at most _ELEMS nodes)."""
        xs = np.asarray(xs, dtype=float)
        if np.any(xs < 1.0):
            raise DomainError("I_k defined for x >= 1")
        self.ensure(float(xs.max()) if xs.size else 1.0)
        idx = np.searchsorted(self.edges, xs, side="right") - 1
        idx = np.clip(idx, 0, len(self.edges) - 1)
        out = self.values[idx]
        step = _ELEMS // NODES
        for j in range(0, len(xs), step):
            sl = slice(j, j + step)
            panels = PanelSet(self.edges[idx[sl]], xs[sl])
            flat = panels.nodes()
            vals = np.zeros_like(flat)
            nz = panels.half.repeat(NODES) > 0
            vals[nz] = self._zk(flat[nz])
            out[sl] += panels.sums(vals)
        return out

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
    return MomentCache(k)


def hardy_primitive_F(T: float) -> float:
    """F(T) = I_1(T), served from the cumulative cache."""
    if T < 1.0:
        raise DomainError("F(T) requires T >= 1")
    if T == 1.0:
        return 0.0
    return moment_cache(1).value(T)


def abs_moment(k: int, a: float, b: float, tol: float = 1e-7) -> MomentResult:
    """integral of |zeta(1/2+it)|^(2k) = Z^(2k) over [a, b] (k = 1 or 2)."""
    if k not in (1, 2):
        raise DomainError("abs_moment supports k in {1, 2}")
    inner = hardy_moment(2 * k, a, b, tol)
    return MomentResult(k=k, a=a, b=b, value=inner.value,
                        abs_err_est=inner.abs_err_est)


def checkpoints(k: int, t_max: float, dt: float = 100.0):
    """(T, I_k(T), err) rows at T = 1, 1+dt, 1+2dt, ... up to t_max."""
    cache = moment_cache(k)
    ts = np.arange(1.0, t_max + 0.5 * dt, dt)
    vals = cache.eval_many(ts)
    return [(float(t), float(v), cache.err_at(float(t))) for t, v in zip(ts, vals)]


def write_checkpoints(path: str | Path, k: int, t_max: float, dt: float = 100.0) -> None:
    """CSV rows (k, T, I_k(T), err), stable ordering."""
    rows = checkpoints(k, t_max, dt)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["k", "T", "I_k", "err"])
        for t, v, e in rows:
            w.writerow([k, f"{t:.17e}", f"{v:.17e}", f"{e:.17e}"])


def read_checkpoints(path: str | Path):
    with open(path, newline="") as fh:
        r = csv.reader(fh)
        next(r)
        return [(int(k), float(t), float(v), float(e)) for k, t, v, e in r]
