"""The four benchmark workloads: inputs from a seed, the timed ops, and the
checks behind ``failed``.

Each workload turns (seed, pass index) into a list of ops, runs every op
through hardylab's public functions, and checks the outputs afterwards, so
check time never lands inside a timed pass.  The amount of work in a pass
does not depend on the seed: seeds move heights, lines and sample points
inside fixed strata, never the number or size of the calls.

Check statuses: "ok"; "cert_miss" when a value misses the certificate the
package reports for it but lies within binary64 rounding of it (counted as
failed, output still correct); "wrong" when a value is outside both;
"error" when the op raised.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from hardylab import arith, cli, explicit, hardy, mellin, moments, verify
from hardylab.config import RunConfig

EPS = np.finfo(float).eps


@dataclass
class Op:
    kind: str
    args: tuple
    label: str
    check: dict = field(default_factory=dict)


def _digest_values(*values) -> bytes:
    parts = []
    for v in values:
        if isinstance(v, np.ndarray):
            parts.append(np.ascontiguousarray(v).tobytes())
        elif isinstance(v, bytes):
            parts.append(v)
        else:
            parts.append(repr(v).encode())
    return b"|".join(parts)


# -- z-kernel -----------------------------------------------------------------

Z_BANDS = (("low", 0.0, 10.0), ("t1e1", 10.0, 1e2), ("t1e2", 1e2, 1e3),
           ("t1e3", 1e3, 1e4), ("t1e4", 1e4, 5e4))
Z_KS = (0, 3, 4)
# about 10^3 up to one full 65 536-point internal chunk, geometric steps
Z_SIZES = (1024, 2896, 8192, 23170, 65536)
Z_CHECKS_PER_OP = 4
# the CLI's stated error below t = 10 (oracle path)
Z_LOW_LIMIT = 1e-10


class ZKernel:
    """Height batches through hardy.z_eval_many, the `hardylab z` traffic.

    A pass is one op per (band, K); batch sizes rotate over the bands as a
    Latin square, so every pass evaluates the same number of points in the
    same band and K mix."""

    name = "z-kernel"

    def __init__(self, scale: str, seed: int):
        self.sizes = Z_SIZES if scale == "full" else tuple(s // 16 for s in Z_SIZES)
        self.short_ops = 0

    def plan(self, rng: np.random.Generator) -> list[Op]:
        ops = []
        for bi, (band, lo, hi) in enumerate(Z_BANDS):
            for kj, k in enumerate(Z_KS):
                n = self.sizes[(bi + kj) % len(self.sizes)]
                t = rng.uniform(lo, hi, n)
                idx = rng.choice(n, Z_CHECKS_PER_OP, replace=False)
                ops.append(Op("z_eval_many", (t, k), f"{band}.K{k}.n{n}",
                              {"idx": np.sort(idx)}))
        return ops

    def setup(self) -> None:
        pass

    def run(self, op: Op):
        return hardy.z_eval_many(*op.args)

    def check(self, ops, outs) -> list[tuple[str, str]]:
        res = []
        for op, out in zip(ops, outs):
            t_all, k = op.args
            status, worst = "ok", 0.0
            for i in op.check["idx"]:
                t = float(t_all[i])
                diff = abs(float(out[i]) - hardy.z_oracle(t))
                if t < 10.0:
                    limit, floor = Z_LOW_LIMIT, 0.0
                else:
                    zs = hardy.z_rs(t, k)
                    limit = zs.err_est
                    # each of the N main-sum phases t*ln(n) carries up to
                    # t*ln(N)*eps of rounding, weighted by 2/sqrt(n): the
                    # sum stays below 4*sqrt(N)*t*ln(N)*eps
                    n = max(zs.main_terms, 2)
                    floor = 4.0 * math.sqrt(n) * t * math.log(n) * EPS
                worst = max(worst, diff / limit)
                if diff > limit + floor:
                    status = "wrong"
                elif diff > limit and status == "ok":
                    status = "cert_miss"
            res.append((status, f"max |Z - oracle| / err_est = {worst:.3g}"))
        return res

    def digest(self, op: Op, out) -> bytes:
        return _digest_values(op.label, out)


# -- dyadic-moments -----------------------------------------------------------

D_RUNGS = 4
D_T_RANGE = (100.0, 2000.0)
# seeded relative jitter of T around each stratum's log-midpoint; neighbouring
# ops differ in cost by 30% or more, so the op-latency quantiles keep their
# place while every input still moves with the seed
D_T_JITTER = 0.02
D_CACHE_POINTS = 14
D_SIEVE_CHECKS = 12
D_BRUTE_MAX = 100_000  # divisor_brute's guard


class DyadicMoments:
    """`hardylab moment --mode both` in-process, plus fresh moment caches.

    For every k = 1..4 a pass visits one T in each of D_RUNGS log-spaced
    strata of [100, 2000], at the stratum's log-midpoint moved by up to
    D_T_JITTER by the seed.  Each (k, T) gives a moment op (hardy_moment at the CLI's
    tol_moment, divisor_sieve to n_hi, moment_main_term) and a cache op
    (fresh MomentCache(k).ensure(2T) and eval_many at seeded points)."""

    name = "dyadic-moments"

    def __init__(self, scale: str, seed: int):
        self.rungs = D_RUNGS if scale == "full" else 2
        self.t_hi = D_T_RANGE[1] if scale == "full" else 300.0
        # every rung but the top one: its ops take up to 2 s, the others 0.5 s
        self.short_ops = 8 * (self.rungs - 1)

    def plan(self, rng: np.random.Generator) -> list[Op]:
        cfg = RunConfig()
        lo, hi = D_T_RANGE[0], self.t_hi
        ops = []
        for r in range(self.rungs):
            for k in (1, 2, 3, 4):
                mid = lo * (hi / lo) ** ((r + 0.5) / self.rungs)
                T = float(mid * (1.0 + D_T_JITTER * (2.0 * rng.random() - 1.0)))
                n_hi = max(explicit.sum_range(k, T)[1], 16)
                ns = rng.integers(1, min(n_hi, D_BRUTE_MAX) + 1, D_SIEVE_CHECKS)
                ops.append(Op("moment_both", (k, T, cfg.tol_moment, cfg.eval_budget),
                              f"k{k}.T{T:.3f}", {"brute_n": ns, "pair": len(ops) + 1}))
                X = 2.0 * T
                pts = np.concatenate([[T, X], rng.uniform(1.0, X, D_CACHE_POINTS)])
                ops.append(Op("moment_cache", (k, X, pts), f"k{k}.X{X:.3f}"))
        return ops

    def setup(self) -> None:
        pass

    def run(self, op: Op):
        if op.kind == "moment_both":
            k, T, tol, budget = op.args
            mi = moments.hardy_moment(k, T, 2.0 * T, tol=tol, budget=budget)
            n_hi = explicit.sum_range(k, T)[1]
            table = arith.divisor_sieve(k, max(n_hi, 16))
            ms = explicit.moment_main_term(k, T, table)
            return mi, ms, table
        k, X, pts = op.args
        cache = moments.MomentCache(k)
        cache.ensure(X)
        vals = cache.eval_many(pts)
        return vals, cache.err_at(pts[0]), cache.err_at(pts[1])

    def check(self, ops, outs) -> list[tuple[str, str]]:
        res = [("ok", "")] * len(ops)
        for i, (op, out) in enumerate(zip(ops, outs)):
            if op.kind != "moment_both":
                continue
            j = op.check["pair"]
            (mi, ms, table), (vals, err_t, err_2t) = out, outs[j]
            k = op.args[0]
            bad = [int(n) for n in op.check["brute_n"] if n <= table.limit
                   and table.count(int(n)) != arith.divisor_brute(k, int(n))]
            gap = abs(mi.value - (vals[1] - vals[0]))
            limit = mi.abs_err_est + err_t + err_2t
            ok = gap <= limit and not bad and math.isfinite(ms.value)
            status = "ok" if ok else "wrong"
            detail = f"|quad - cache| = {gap:.3g} <= {limit:.3g}; sieve misses {bad}"
            res[i] = res[j] = (status, detail)
        return res

    def digest(self, op: Op, out) -> bytes:
        if op.kind == "moment_both":
            mi, ms, table = out
            return _digest_values(op.label, mi.value, mi.abs_err_est, ms.value,
                                  ms.n_lo, ms.n_hi, table.counts)
        return _digest_values(op.label, *out)


# -- mellin-contour -----------------------------------------------------------

M_LINE_X = 2000.0
M_LINE_SPLIT = 2  # ops per line and band
M_BAND_TOPS = (4.0, 8.0, 16.0, 32.0, 64.0)  # transform grid bands 0..4
M_SIGMA = (1.3, 2.5)
M_INV_C = (1.8, 2.2)
M_INV_U = (50.0, 100.0, 200.0)
M_INV_LIMIT = 0.05
M_CONV_S = (2.85, 3.15)
M_CONV_C = (1.9, 2.1)
M_CONV_TOL = 5e-4  # check_convolution's default
M_CONV_LIMIT = 5e-2
M_DIRECT_X = 500.0
# laurent_samples' default deltas, each moved by up to this share by the seed
M_LAURENT_D = (0.02, 0.03, 0.05, 0.08, 0.12, 0.2)
M_LAURENT_JITTER = 0.08
# verify's Laurent ranges
M_LAURENT = ((0.95, 1.05), (-0.705, -0.663))
M_WARM_SIGMA = 2.0


def _grid_band(t_abs: float) -> int:
    """Transform grid band of |Im s| (band b covers (4 * 2^(b-1), 4 * 2^b])."""
    return 0 if t_abs <= 4.0 else math.ceil(math.log2(t_abs / 4.0))


class MellinContour:
    """Transform evaluation with warm moment caches and transform grids.

    Set-up warms the k = 1, 2 moment caches and primitive constants and
    builds, through one mellin_by_parts call per band, every transform grid
    the ops use, so a timed op costs per-s evaluation only.  The ops are
    mellin_by_parts_many on vertical lines (k = 1, 2, seeded c, two ops of
    three s-values per grid band up to |Im s| = 64), a truncated_inversion
    U-sweep 50 -> 100 -> 200 at seeded c, check_convolution(2, 1, s, c,
    V=50) at seeded real s near 3 and c near 2, and the Laurent fit on
    seeded deltas.
    Every transform runs at the lines' X = 2000, so the lines, the sweep and
    the convolution nodes share one set of grids.  Every pass draws new
    s-values, so no pass reuses another's memoized transforms."""

    name = "mellin-contour"

    def __init__(self, scale: str, seed: int):
        full = scale == "full"
        self.per_band = 6 if full else 2
        self.bands = M_BAND_TOPS if full else M_BAND_TOPS[:2]
        self.inv_u = M_INV_U if full else (40.0,)
        # the line ops, tens of ms each; the sweep and convolution take seconds
        self.short_ops = 2 * len(self.bands) * M_LINE_SPLIT

    def plan(self, rng: np.random.Generator) -> list[Op]:
        ops = []
        for k in (1, 2):
            c = float(rng.uniform(*M_SIGMA))
            probe = (int(rng.integers(len(self.bands) * M_LINE_SPLIT)),
                     int(rng.integers(self.per_band // M_LINE_SPLIT)))
            lo = 0.0
            for b, hi in enumerate(self.bands):
                t = rng.uniform(lo, hi, self.per_band) * rng.choice((-1.0, 1.0), self.per_band)
                for h, s in enumerate(np.split(c + 1j * t, M_LINE_SPLIT)):
                    i = b * M_LINE_SPLIT + h
                    chk = {"direct": complex(s[probe[1]])} if i == probe[0] else {}
                    ops.append(Op("by_parts_line", (k, s), f"k{k}.band{b}.{h}", chk))
                lo = hi
        c = float(rng.uniform(*M_INV_C))
        for U in self.inv_u:
            ops.append(Op("inversion", (1, 10.0, c, U), f"c{c:.4f}.U{U:g}"))
        s, c = float(rng.uniform(*M_CONV_S)), float(rng.uniform(*M_CONV_C))
        ops.append(Op("convolution", (2, 1, complex(s), c, 50.0), f"s{s:.4f}.c{c:.4f}"))
        u = rng.random(len(M_LAURENT_D))
        jitter = M_LAURENT_JITTER * (2.0 * u - 1.0)
        jitter[0], jitter[-1] = M_LAURENT_JITTER * u[0], -M_LAURENT_JITTER * u[-1]
        deltas = tuple(float(d) for d in np.array(M_LAURENT_D) * (1.0 + jitter))
        ops.append(Op("laurent", (deltas,), "laurent"))
        return ops

    def setup(self) -> None:
        mellin.primitive_constant(1)
        mellin.primitive_constant(2)
        top_band = {1: _grid_band(max(self.inv_u + self.bands)), 2: len(self.bands) - 1}
        for k, last in top_band.items():
            for b in range(last + 1):
                mellin.mellin_by_parts(k, M_WARM_SIGMA + 4j * 2.0 ** b, X=M_LINE_X)
        # the convolution's left side picks its own X from its tolerance
        mellin.mellin_by_parts(2, complex(sum(M_CONV_S) / 2.0), tol=M_CONV_TOL)

    def run(self, op: Op):
        if op.kind == "by_parts_line":
            k, s = op.args
            return mellin.mellin_by_parts_many(k, s, X=M_LINE_X)
        if op.kind == "inversion":
            return mellin.truncated_inversion(*op.args, x_trunc=M_LINE_X)
        if op.kind == "convolution":
            return mellin.check_convolution(*op.args, x_nodes=M_LINE_X)
        samples = [(d, mellin.mellin_by_parts(2, complex(1.0 + d), X=M_LINE_X).value)
                   for d in op.args[0]]
        return mellin.laurent_fit_at_1(samples)

    def check(self, ops, outs) -> list[tuple[str, str]]:
        z10 = hardy.z_oracle(10.0)
        res = []
        for op, out in zip(ops, outs):
            if op.kind == "by_parts_line":
                ok = bool(np.all(np.isfinite(out)))
                detail = ""
                if "direct" in op.check:
                    s = op.check["direct"]
                    bp = mellin.mellin_by_parts(op.args[0], s, X=M_LINE_X)
                    dr = mellin.mellin_direct(op.args[0], s, X=M_DIRECT_X)
                    gap, limit = abs(bp.value - dr.value), bp.tail_bound + dr.tail_bound
                    ok = ok and gap <= limit
                    detail = f"|by_parts - direct| = {gap:.3g} <= {limit:.3g}"
            elif op.kind == "inversion":
                gap = abs(out - z10)
                ok, detail = gap <= M_INV_LIMIT, f"|inversion - Z(10)| = {gap:.3g}"
            elif op.kind == "convolution":
                ok, detail = out.gap_rel <= M_CONV_LIMIT, f"gap_rel = {out.gap_rel:.3g}"
            else:
                ok = all(lo <= v <= hi for v, (lo, hi) in zip(out, M_LAURENT))
                detail = f"c_-2 = {out[0]:.6f}, c_-1 = {out[1]:.6f}"
            res.append(("ok" if ok else "wrong", detail))
        return res

    def digest(self, op: Op, out) -> bytes:
        if op.kind == "convolution":
            return _digest_values(op.label, out.lhs, out.rhs, out.gap_rel)
        return _digest_values(op.label, out)


# -- verify-cold --------------------------------------------------------------

V_SKIP = ("identities",)
V_SMALL = ("functional-equation", "z-agreement", "divisor-oracle")
V_SHORT_OPS = 5


class VerifyCold:
    """`hardylab verify <suite>` for every suite in verify.SUITES order but
    identities, each a cli.main call in one fresh process with cold caches.
    Bundles go to bundles/ under the worker's working directory, which the
    runner makes per run."""

    name = "verify-cold"

    def __init__(self, scale: str, seed: int):
        self.scale = scale
        self.seed = seed
        # the suites before primitive-scaling, each under 1 s
        self.short_ops = V_SHORT_OPS

    def plan(self, rng: np.random.Generator) -> list[Op]:
        suites = [s for s in verify.SUITES if s not in V_SKIP]
        if self.scale != "full":
            suites = [s for s in suites if s in V_SMALL]
        os.makedirs("bundles", exist_ok=True)
        return [Op("suite", (["--seed", str(self.seed), "verify", s, "--out",
                              os.path.join("bundles", f"{s}.json")],), s)
                for s in suites]

    def setup(self) -> None:
        pass

    def run(self, op: Op):
        return cli.main(op.args[0])

    def check(self, ops, outs) -> list[tuple[str, str]]:
        return [("ok" if code == 0 else "wrong", f"exit {code}")
                for code in outs]

    def digest(self, op: Op, out) -> bytes:
        with open(op.args[0][-1], "rb") as fh:
            return _digest_values(op.label, out, fh.read())


WORKLOADS = {w.name: w for w in (ZKernel, DyadicMoments, MellinContour, VerifyCold)}
