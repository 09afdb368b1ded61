"""In-memory span tracer for the benchmark's traced runs.

``install`` wraps the public, batch-sized functions of every hardylab layer
at each module that holds a reference to them (the defining module and every
module that imported the name), so calls made inside the package are traced
as well as calls made by the workload.  A span records its name, start, end,
parent span and op id; per-call counters ride along in ``info``.  Spans stay
in memory; ``layer_metrics`` turns them into the per-layer figures once the
run is over.

Only the benchmark patches anything: the package itself carries no tracing.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np

# Height bands of hardy.z_ns_per_pt.*; "low" is t < 10.
BANDS = ((10.0, 1e2, "t1e1"), (1e2, 1e3, "t1e2"), (1e3, 1e4, "t1e3"),
         (1e4, float("inf"), "t1e4"))
LAYERS = ("special", "hardy", "quad", "moments", "arith", "explicit",
          "mellin", "verify", "cli", "reportio")


def height_band(lo: float, hi: float) -> str | None:
    """Band label of a batch whose heights all lie in one band, else None."""
    if hi < 10.0:
        return "low"
    for lo_edge, hi_edge, name in BANDS:
        if lo >= lo_edge and hi < hi_edge:
            return name
    return None


def _points(args, kwargs, result, pre):
    return (int(np.size(args[0])),)


def _z_eval_info(args, kwargs, result, pre):
    t = np.asarray(args[0], dtype=float)
    k = kwargs.get("corrections", args[1] if len(args) > 1 else 3)
    if t.size == 0:
        return (0, 0, None, k)
    return (int(t.size), int(np.count_nonzero(t < 10.0)),
            height_band(float(t.min()), float(t.max())), int(k))


def _quad_info(args, kwargs, result, pre):
    return (result.panels, result.evals)


def _sieve_info(args, kwargs, result, pre):
    return (int(result.limit),)


def _memo_key_info(args, kwargs, result, pre):
    return (int(args[0]), complex(args[1]), float(result.X))


def _anchor_count(args, kwargs):
    return len(args[0].edges)


def _anchors_added(args, kwargs, result, pre):
    return (len(args[0].edges) - pre,)


# (layer, module, attribute, hook).  Hooks turn (args, kwargs, result, pre)
# into the span's info tuple; ``pre`` is what the PRE hook of the same
# attribute returned before the call.  A dotted attribute names a method,
# patched on its class.
INSTRUMENTED = (
    ("special", "hardylab.special", "theta_many", _points),
    ("special", "hardylab.special", "theta_batch", _points),
    ("special", "hardylab.special", "zeta_half_batch", _points),
    ("hardy", "hardylab.hardy", "z_eval_many", _z_eval_info),
    ("hardy", "hardylab.hardy", "z_rs_many", _points),
    ("hardy", "hardylab.hardy", "z_oracle_many", _points),
    ("quad", "hardylab.quad", "integrate_oscillatory", _quad_info),
    ("quad", "hardylab.quad", "integrate_vertical_line", None),
    ("moments", "hardylab.moments", "hardy_moment", None),
    ("moments", "hardylab.moments", "MomentCache.ensure", _anchors_added),
    ("moments", "hardylab.moments", "MomentCache.eval_many", _points),
    ("arith", "hardylab.arith", "divisor_sieve", _sieve_info),
    ("arith", "hardylab.arith", "divisor_brute", None),
    ("explicit", "hardylab.explicit", "moment_main_term", None),
    ("explicit", "hardylab.explicit", "CubicPrimitiveSum.eval_many", _points),
    ("mellin", "hardylab.mellin", "mellin_by_parts", _memo_key_info),
    ("mellin", "hardylab.mellin", "mellin_by_parts_many", None),
    ("mellin", "hardylab.mellin", "mellin_direct", None),
    ("mellin", "hardylab.mellin", "primitive_constant", None),
    ("mellin", "hardylab.mellin", "truncated_inversion", None),
    ("mellin", "hardylab.mellin", "check_convolution", None),
    ("mellin", "hardylab.mellin", "laurent_samples", None),
    ("mellin", "hardylab.mellin", "laurent_fit_at_1", None),
    ("mellin", "hardylab.mellin", "m3_decomposition", None),
    ("mellin", "hardylab.mellin", "check_square_identity", None),
    ("mellin", "hardylab.mellin", "laplace_consistency", None),
    ("verify", "hardylab.verify", "run", None),
    ("cli", "hardylab.cli", "main", None),
    ("reportio", "hardylab.reportio", "to_json", None),
    ("reportio", "hardylab.reportio", "fmt", None),
)
# called many times per outer call from inside their own module (recursion,
# formatting helpers): patched only where imported, so one call is one span
_IMPORTERS_ONLY = {"divisor_brute", "to_json", "fmt"}
PRE = {"MomentCache.ensure": _anchor_count}

# span fields
NAME, START, END, PARENT, OP, INFO = range(6)
SETUP_OP = -1
CHECK_OP = -2  # spans made while checking outputs are left out of the metrics


class Tracer:
    """Span recorder.  Single-threaded: the open-span stack is the parent
    chain, so child spans never overlap one another."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = SETUP_OP

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.monotonic_ns(), 0, parent, self.op, None])
        self._stack.append(idx)
        return idx

    def end(self, idx: int, info=None) -> None:
        span = self.spans[idx]
        span[END] = time.monotonic_ns()
        span[INFO] = info
        self._stack.pop()

    def wrap(self, name: str, fn, hook, pre_hook=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            pre = pre_hook(args, kwargs) if pre_hook is not None else None
            idx = tracer.begin(name)
            info = None
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    info = hook(args, kwargs, result, pre)
                return result
            except Exception as exc:
                # BudgetError carries the flagged partial quadrature result
                partial = getattr(exc, "result", None)
                if hook is not None and partial is not None:
                    info = hook(args, kwargs, partial, pre)
                raise
            finally:
                tracer.end(idx, info)

        return traced


def install(tracer: Tracer) -> None:
    """Patch every instrumented function at every hardylab module that holds
    it."""
    import hardylab.cli  # noqa: F401  (loads every layer module)

    mods = [m for n, m in sys.modules.items()
            if n == "hardylab" or n.startswith("hardylab.")]
    for layer, modname, attr, hook in INSTRUMENTED:
        owner = sys.modules[modname]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            setattr(cls, meth, tracer.wrap(f"{layer}.{attr}", getattr(cls, meth),
                                           hook, PRE.get(attr)))
            continue
        orig = getattr(owner, attr)
        wrapped = tracer.wrap(f"{layer}.{attr}", orig, hook)
        for mod in mods:
            if getattr(mod, attr, None) is orig and not (
                    attr in _IMPORTERS_ONLY and mod is owner):
                setattr(mod, attr, wrapped)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer self time, counters and the unattributed share of op time.

    Op spans are named "op.<kind>"; every other span belongs to the layer
    named by its first dotted component.  A span's self time is its duration
    minus the time its child spans cover.
    """
    child_ns = [0] * len(spans)
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            child_ns[s[PARENT]] += s[END] - s[START]
            children.setdefault(s[PARENT], []).append(i)

    self_s = dict.fromkeys(LAYERS, 0.0)
    z_ns: dict[str, list[int]] = {}
    c = dict.fromkeys((
        "z_rs", "z_low", "theta_ns", "theta_pts", "quad_calls", "quad_panels",
        "quad_evals", "ensure_ns", "anchors", "sieve_ns", "sieve_entries",
        "bp_calls", "bp_hits", "bp_plain_ns", "bp_plain", "grid_builds",
        "grid_nodes", "grid_ns", "op_ns", "op_self_ns"), 0)
    memo_keys = set()
    for i, s in enumerate(spans):
        if s[OP] == CHECK_OP:
            continue
        name, dur, info = s[NAME], s[END] - s[START], s[INFO]
        layer = name.split(".", 1)[0]
        if layer == "op":
            c["op_ns"] += dur
            c["op_self_ns"] += dur - child_ns[i]
            continue
        self_s[layer] += (dur - child_ns[i]) * 1e-9
        if info is None:
            continue
        if name == "hardy.z_eval_many":
            n, n_low, band, k = info
            c["z_low"] += n_low
            if band is not None:
                acc = z_ns.setdefault("low" if band == "low" else f"K{k}.{band}", [0, 0])
                acc[0] += dur
                acc[1] += n
        elif name == "hardy.z_rs_many":
            c["z_rs"] += info[0]
        elif name == "special.theta_many":
            c["theta_ns"] += dur
            c["theta_pts"] += info[0]
        elif name == "quad.integrate_oscillatory":
            c["quad_calls"] += 1
            c["quad_panels"] += info[0]
            c["quad_evals"] += info[1]
        elif name == "moments.MomentCache.ensure":
            c["ensure_ns"] += dur
            c["anchors"] += info[0]
        elif name == "arith.divisor_sieve":
            c["sieve_ns"] += dur
            c["sieve_entries"] += info[0]
        elif name == "mellin.mellin_by_parts":
            c["bp_calls"] += 1
            if info in memo_keys:
                c["bp_hits"] += 1
                continue
            memo_keys.add(info)
            # a grid build evaluates Z directly under the transform span;
            # I_k lookups go through MomentCache spans instead
            grid_pts = sum(spans[j][INFO][0] for j in children.get(i, ())
                           if spans[j][NAME] == "hardy.z_eval_many"
                           and spans[j][INFO] is not None)
            if grid_pts:
                c["grid_builds"] += 1
                c["grid_nodes"] += grid_pts
                c["grid_ns"] += dur
            else:
                c["bp_plain"] += 1
                c["bp_plain_ns"] += dur

    out = {f"{layer}.self_s": v for layer, v in self_s.items()}
    for k in (0, 3, 4):
        for _, _, band in BANDS:
            ns, n = z_ns.get(f"K{k}.{band}", (0, 0))
            out[f"hardy.z_ns_per_pt.K{k}.{band}"] = _ratio(ns, n)
    ns, n = z_ns.get("low", (0, 0))
    out["hardy.z_ns_per_pt.low"] = _ratio(ns, n)
    out["special.theta_ns_per_pt"] = _ratio(c["theta_ns"], c["theta_pts"])
    out["hardy.z_points.rs"] = c["z_rs"]
    out["hardy.z_points.low"] = c["z_low"]
    out["quad.calls"] = c["quad_calls"]
    out["quad.panels"] = c["quad_panels"]
    out["quad.evals"] = c["quad_evals"]
    # every evaluated panel costs 16 + 8 integrand values
    out["quad.accept_ratio"] = _ratio(c["quad_panels"], c["quad_evals"] / 24.0)
    out["moments.anchors"] = c["anchors"]
    out["moments.ensure_us_per_anchor"] = _ratio(c["ensure_ns"] * 1e-3, c["anchors"])
    out["arith.sieve_entries"] = c["sieve_entries"]
    out["arith.sieve_ns_per_entry"] = _ratio(c["sieve_ns"], c["sieve_entries"])
    out["mellin.by_parts_calls"] = c["bp_calls"]
    out["mellin.memo_hit_ratio"] = _ratio(c["bp_hits"], c["bp_calls"])
    out["mellin.transform_us_per_s"] = _ratio(c["bp_plain_ns"] * 1e-3, c["bp_plain"])
    out["mellin.grid_builds"] = c["grid_builds"]
    out["mellin.grid_nodes"] = c["grid_nodes"]
    out["mellin.grid_build_s"] = c["grid_ns"] * 1e-9
    out["trace.unattributed_share"] = _ratio(c["op_self_ns"], c["op_ns"])
    return out


# counters that must repeat exactly between two runs of the same inputs
EXACT_COUNTERS = (
    "hardy.z_points.rs", "hardy.z_points.low", "quad.calls", "quad.panels",
    "quad.evals", "moments.anchors", "mellin.grid_builds", "mellin.grid_nodes",
    "mellin.by_parts_calls", "arith.sieve_entries",
)
