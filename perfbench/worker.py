"""One benchmark process: set up a workload, run its passes, check them.

Started by run.py in a fresh interpreter with BLAS pools pinned to one
thread and the run's own directory as working directory.  Writes one JSON
result file; everything printed by the program goes to the run's log.

    python3 perfbench/worker.py --workload NAME --seed N --passes P \
        --scale full|small --trace 0|1 --t-spawn NS --out result.json \
        [--setup-only] [--worker-index I] [--short-passes Q]

Each op record carries its slot, the op's place in its pass: ops in one slot
have the same kind and size in every pass, only their seeded inputs differ.
It also carries the mean time of the host-speed probes run just before and
just after the op (see probe).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
import traceback

import numpy as np

# importing the workloads imports hardylab: part of the measured set-up
import tracer as tracing
from workloads import WORKLOADS


# A fixed piece of numpy and interpreter work that calls no hardylab code,
# run after set-up and after every op.  The host runs all work up to 1.6x
# slower in spells of a second to minutes; the probes on either side of an
# op measure the host's speed during it, and run.py reports times at one
# reference speed (PROBE_REF_S).  The probe allocates nothing and its two
# 64 KB arrays stay in cache, so what an op leaves behind in the allocator
# or the caches does not change its time.
_PROBE_X = np.linspace(1.0, 2.0, 8000)
_PROBE_BUF = np.empty_like(_PROBE_X)


def probe() -> float:
    """Seconds the fixed probe work takes now."""
    t0 = time.monotonic_ns()
    acc = 0.0
    for k in range(15):
        np.multiply(_PROBE_X, k + 1.5, out=_PROBE_BUF)
        np.cos(_PROBE_BUF, out=_PROBE_BUF)
        acc += float(_PROBE_BUF.sum())
    s = 0
    for i in range(4000):
        s += i * i
    return (time.monotonic_ns() - t0) * 1e-9


def _args(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--passes", type=int, default=1)
    ap.add_argument("--scale", choices=("full", "small"), default="full")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t-spawn", type=int, required=True,
                    help="CLOCK_MONOTONIC ns taken just before this process started")
    ap.add_argument("--worker-index", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--short-passes", type=int, default=0,
                    help="after the full passes, passes of the workload's short_ops "
                         "first ops only")
    ap.add_argument("--out", required=True)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = _args(argv)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)

    wl = WORKLOADS[args.workload](args.scale, args.seed)
    passes = []
    input_hash = hashlib.sha256()
    # full and short passes alternate, so each slot's samples spread over the run
    n = args.passes + args.short_passes
    order = sorted(range(n), key=lambda p: ((p + 0.5) / args.passes if p < args.passes
                                            else (p - args.passes + 1) / (args.short_passes + 1)))
    for p in order:
        rng = np.random.default_rng([args.seed, args.worker_index, p])
        ops = wl.plan(rng)
        if p >= args.passes:
            ops = ops[:wl.short_ops]
        for op in ops:
            input_hash.update(repr((op.kind, op.label)).encode())
            for a in op.args:
                input_hash.update(a.tobytes() if isinstance(a, np.ndarray)
                                  else repr(a).encode())
        passes.append(ops)
    wl.setup()
    t_first = time.monotonic_ns()
    setup_s = (t_first - args.t_spawn) * 1e-9
    last_probe = probe()
    result = {"setup_s": setup_s, "setup_probe_s": last_probe, "numpy": np.__version__,
              "input_digest": input_hash.hexdigest()}
    if args.setup_only:
        with open(args.out, "w") as fh:
            json.dump(result, fh)
        return 0

    op_records, outs_all, ops_all = [], [], []
    op_id = 0
    for ops in passes:
        outs = []
        for slot, op in enumerate(ops):
            span = None
            if tracer is not None:
                tracer.op = op_id
                span = tracer.begin(f"op.{op.kind}")
            t0 = time.monotonic_ns()
            try:
                out = wl.run(op)
            except Exception as exc:  # an op failure is a result, not a crash
                out = exc
            t1 = time.monotonic_ns()
            if span is not None:
                tracer.end(span)
            outs.append(out)
            next_probe = probe()
            op_records.append([op.kind, op.label, (t1 - t0) * 1e-9, slot,
                               0.5 * (last_probe + next_probe)])
            last_probe = next_probe
            op_id += 1
        outs_all.append(outs)
        ops_all.append(ops)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is not None:
        tracer.op = tracing.CHECK_OP
    statuses = []
    digest = hashlib.sha256()
    for ops, outs in zip(ops_all, outs_all):
        errors = [isinstance(o, Exception) for o in outs]
        try:
            checked = wl.check(ops, outs)
        except Exception:
            checked = [("wrong", "check raised: " + traceback.format_exc(limit=1))] * len(ops)
        for op, out, err, st in zip(ops, outs, errors, checked):
            if err:
                statuses.append(("error", f"{type(out).__name__}: {out}"))
                digest.update(repr(("error", type(out).__name__, str(out))).encode())
            else:
                statuses.append(st)
                digest.update(hashlib.sha256(wl.digest(op, out)).digest())
    for rec, st in zip(op_records, statuses):
        rec[3:3] = st  # [kind, label, seconds, status, detail, slot, probe seconds]

    result.update(ops=op_records, peak_rss_mb=peak_rss_mb,
                  digest=digest.hexdigest())
    if tracer is not None:
        layer = tracing.layer_metrics(tracer.spans)
        suites = {}
        for kind, label, dur, *_ in op_records:
            if kind == "suite":
                suites[label] = suites.get(label, 0.0) + dur
        result.update(layer=layer, suite_s=suites)
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
