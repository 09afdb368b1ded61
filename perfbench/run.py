"""hardylab benchmark: one command, a workload per run, checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the directory holding src/hardylab).
Each workload runs in fresh single-threaded processes (perfbench/worker.py)
with BLAS pools pinned to one thread; its inputs come from --seed only.
Work is counted in passes, fixed lists of ops whose number and size do not
depend on the seed; the op at one place in a pass is a slot.  A run makes
several passes (see plan) and times each slot by the mean of its latencies
over them.  Every latency is first brought to one reference host speed:
the worker times a fixed probe after set-up and after every op, and an op's
latency is scaled by PROBE_REF_S over the mean of the probes on its two
sides; set-up time by PROBE_REF_S over the probe that follows it.

--trace 0 prints the end-to-end metrics; --trace 1 runs the workload once
untraced and once traced, and prints the per-layer metrics.  Human-readable
lines come first; the last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.

Every program output (verify bundles, HARDYLAB_CACHE_DIR) goes to a per-run
directory under .perfbench_runs/, removed at the end.  Output digests are
kept in .perfbench_runs/digests.json, keyed by hashes of src/hardylab and of
the benchmark's own code, so two runs of the same code and seed must
produce the same bytes; a mismatch makes the run incorrect.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("z-kernel", "dyadic-moments", "mellin-contour", "verify-cold")
# run seconds per full pass, probes and checks included, on the 2-vCPU Xeon
# the benchmark was built on
PASS_SECONDS = {"z-kernel": 2.0, "dyadic-moments": 11.0, "mellin-contour": 8.5}
# every slot is timed at least twice
MIN_PASSES = {"z-kernel": 2, "dyadic-moments": 2, "mellin-contour": 2}
# Short passes run only a workload's first, cheap ops (short_ops in
# workloads.py), the slots that set op_p50_ms and op_tail_ms, so these get
# many more samples than full passes allow.  verify-cold's cold pass is too
# long to repeat; its short passes run its first suites in extra cold
# processes.
SHORT_PASSES = {"dyadic-moments": 2, "mellin-contour": 12, "verify-cold": 1}
V_PREFIX_RUNS = 3
# The probe's time on the 2-vCPU Xeon the benchmark was built on, in the
# host's fast spells: reported times are at that host speed.
PROBE_REF_S = 1.5e-3
RUN_DEADLINE_S = 170.0
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(Exception):
    pass


def source_facts(root: Path) -> dict:
    src = root / "src" / "hardylab"
    h = hashlib.sha256()
    lines = 0
    for path in sorted(src.rglob("*.py")):
        data = path.read_bytes()
        h.update(path.relative_to(src).as_posix().encode() + b"\0" + data)
        if path.name != "_psi_tables.py":
            lines += data.count(b"\n")
    commit = "unknown (not a git checkout)"
    if (root / ".git").exists():  # git would otherwise report an enclosing repo
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                    capture_output=True, text=True, timeout=10,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"src_sha256": h.hexdigest(), "src_lines": lines, "commit": commit,
            "cpu": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version()}


class Runner:
    def __init__(self, root: Path, args, run_dir: Path):
        self.args, self.run_dir = args, run_dir
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.env = dict(os.environ)
        self.env.update({k: "1" for k in THREAD_ENV})
        self.env.update({
            "PYTHONPATH": str(root / "src"),
            "PYTHONDONTWRITEBYTECODE": "1",
            "HARDYLAB_CACHE_DIR": str(run_dir / "cache"),
        })
        self.n = 0

    def worker(self, *, passes: int, trace: int, index: int = 0,
               short: int = 0) -> dict:
        self.n += 1
        cwd = self.run_dir / f"w{self.n}"
        cwd.mkdir()
        out = cwd / "result.json"
        cmd = [sys.executable, str(HERE / "worker.py"),
               "--workload", self.args.workload, "--seed", str(self.args.seed),
               "--passes", str(passes), "--scale", self.args.scale,
               "--trace", str(trace), "--worker-index", str(index),
               "--short-passes", str(short), "--out", str(out)]
        if passes + short == 0:
            cmd.append("--setup-only")
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("run deadline reached")
        with open(cwd / "log.txt", "w") as log:
            t_spawn = time.monotonic_ns()
            try:
                proc = subprocess.run(cmd + ["--t-spawn", str(t_spawn)], cwd=cwd,
                                      env=self.env, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=timeout)
            except subprocess.TimeoutExpired:
                raise BenchError(f"worker exceeded the {RUN_DEADLINE_S:g} s deadline")
        if proc.returncode != 0 or not out.exists():
            tail = (cwd / "log.txt").read_text()[-2000:]
            raise BenchError(f"worker exited {proc.returncode}:\n{tail}")
        return json.loads(out.read_text())


def plan(workload: str, seconds: float) -> list[dict]:
    """The processes of one measured run, in order.  The first one measures;
    each of the others adds a set-up sample and, where it runs ops, more
    samples of their slots.  The first process alone is what a traced run
    repeats."""
    if workload == "verify-cold":
        return [{"passes": 1}] + [{"passes": 0, "short": 1}] * V_PREFIX_RUNS
    passes = max(MIN_PASSES[workload], round(seconds / PASS_SECONDS[workload]))
    # set-up-only processes: a set-up takes 0.3 s, mellin-contour's 10 s
    setups = 1 if workload == "mellin-contour" else 4
    return ([{"passes": passes, "short": SHORT_PASSES.get(workload, 0)}]
            + [{"passes": 0}] * setups)


SMALL_RUN_OPS = 20


def median_latency(lat: list[float]) -> float:
    """Median of the slot latencies; with fewer than SMALL_RUN_OPS slots, the
    mean of the middle three (four when their number is even), so a single
    slot's noise does not set it."""
    lat = sorted(lat)
    n = len(lat)
    if n >= SMALL_RUN_OPS or n < 3:
        return statistics.median(lat)
    mid = (n - 1) // 2
    return statistics.fmean(lat[mid - 1:mid + 2] if n % 2 else lat[mid - 1:mid + 3])


def tail_latency(lat: list[float]) -> tuple[float, float]:
    """Slot latency at the highest percentile with at least ten slots beyond
    it; with fewer than SMALL_RUN_OPS slots that percentile would sit below
    the median, so the slowest slot stands in (percentile 100)."""
    lat = sorted(lat)
    n = len(lat)
    if n >= SMALL_RUN_OPS:
        return lat[n - 11], 100.0 * (n - 10) / n
    return lat[-1], 100.0


def summarize(results: list[dict]) -> dict:
    """Run figures from the results of one or more worker processes.  Each
    slot is timed by the mean of its latencies, at the reference host speed,
    over every pass that ran it; wall_s is the sum of these over the slots
    of a pass."""
    ops = [op for r in results for op in r.get("ops", [])]
    by_slot: dict[int, list[float]] = {}
    raw_by_slot: dict[int, list[float]] = {}
    for op in ops:
        by_slot.setdefault(op[5], []).append(op[2] * PROBE_REF_S / op[6])
        raw_by_slot.setdefault(op[5], []).append(op[2])
    slot_s = [statistics.fmean(by_slot[slot]) for slot in sorted(by_slot)]
    tail, tail_pct = tail_latency(slot_s)
    failed = sum(1 for op in ops if op[3] != "ok")
    return {
        "ops": ops, "attempted": len(ops), "failed": failed,
        "wrong": [op for op in ops if op[3] in ("wrong", "error")],
        "wall_s": sum(slot_s), "slots": len(slot_s),
        "samples": sorted({len(v) for v in by_slot.values()}),
        "op_p50_ms": 1e3 * median_latency(slot_s),
        "op_tail_ms": 1e3 * tail, "tail_pct": tail_pct,
        "peak_rss_mb": max(r["peak_rss_mb"] for r in results if "ops" in r),
        "setups": [r["setup_s"] * PROBE_REF_S / r["setup_probe_s"] for r in results],
        "raw_wall_s": sum(statistics.fmean(v) for v in raw_by_slot.values()),
        "raw_setup_s": statistics.median(r["setup_s"] for r in results),
        "host_factor": statistics.median(op[6] for op in ops) / PROBE_REF_S,
        "digest": hashlib.sha256(
            "".join(r["digest"] for r in results if "digest" in r).encode()).hexdigest(),
        "input_digest": hashlib.sha256(
            "".join(r["input_digest"] for r in results).encode()).hexdigest(),
    }


def check_digest(store_path: Path, key: str, digest: str) -> str:
    """Compare against the digest an earlier run of the same source tree
    and inputs left behind; record it if this is the first such run."""
    store = json.loads(store_path.read_text()) if store_path.exists() else {}
    seen = store.get(key)
    if seen is None:
        store[key] = digest
        tmp = store_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(store, indent=1, sort_keys=True))
        os.replace(tmp, store_path)
        return "recorded"
    return "match" if seen == digest else f"MISMATCH (earlier run: {seen[:16]})"


def run(args, root: Path) -> int:
    facts = source_facts(root)
    state = root / ".perfbench_runs"
    state.mkdir(exist_ok=True)
    run_dir = state / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir()
    procs = plan(args.workload, args.seconds)
    passes = procs[0]["passes"]
    try:
        runner = Runner(root, args, run_dir)
        if args.trace:
            base = [runner.worker(trace=0, **procs[0])]
            traced = [runner.worker(trace=1, **procs[0])]
        else:
            base = [runner.worker(trace=0, index=i, **p) for i, p in enumerate(procs)]
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    s = summarize(base)
    bench_sha = hashlib.sha256(b"".join(p.read_bytes() for p in sorted(HERE.glob("*.py"))))
    key = (f"{facts['src_sha256']}:{bench_sha.hexdigest()}:{args.workload}:"
           f"{args.seed}:{args.seconds:g}:{args.scale}:{args.trace}")
    determinism = check_digest(state / "digests.json", key, s["digest"])
    t = summarize(traced) if args.trace else None
    problems = [f"{op[0]} {op[1]}: {op[3]} ({op[4]})"
                for op in s["wrong"] + (t["wrong"] if t else [])]
    if determinism.startswith("MISMATCH"):
        problems.append(f"output digest {determinism}")
    if t and t["digest"] != s["digest"]:
        problems.append("traced and untraced outputs differ")

    meta = dict(facts, numpy=base[0]["numpy"], workload=args.workload,
                seed=args.seed, seconds=args.seconds, processes=len(base),
                passes=passes,
                input_digest=s["input_digest"][:16], output_digest=s["digest"][:16],
                determinism=determinism)
    print(f"# run {json.dumps(meta)}")
    statuses, failed_kinds = {}, {}
    for kind, label, _, status, *_ in s["ops"]:
        statuses[status] = statuses.get(status, 0) + 1
        if status != "ok":
            name = f"{kind} {'.'.join(label.split('.')[:2])} {status}"
            failed_kinds[name] = failed_kinds.get(name, 0) + 1
    print(f"# ops {s['attempted']} attempted, {s['failed']} failed "
          f"(fail_ratio {s['failed'] / s['attempted']:.4f}); statuses {statuses}")
    if failed_kinds:
        print(f"# failed ops by kind: {failed_kinds}")
    for p in problems:
        print(f"# problem: {p}")

    if t:
        layer = dict(traced[0]["layer"])
        layer.update({f"verify.suite_s.{suite}": sec
                      for suite, sec in traced[0]["suite_s"].items()})
        layer["trace.overhead_ratio"] = t["wall_s"] / s["wall_s"]
        # a layer the workload never reaches reads 0
        metrics = {name: {"value": layer.get(name, 0.0), "unit": unit}
                   for name, unit in per_layer_units().items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(s["setups"]), "unit": "s"},
            "wall_s": {"value": s["wall_s"], "unit": "s"},
            "op_p50_ms": {"value": s["op_p50_ms"], "unit": "ms"},
            "op_tail_ms": {"value": s["op_tail_ms"], "unit": "ms"},
            "peak_rss_mb": {"value": s["peak_rss_mb"], "unit": "MB"},
            "ok_ratio": {"value": 1.0 - s["failed"] / s["attempted"], "unit": "ratio"},
        }
        print(f"# host: probe at {s['host_factor']:.3f} x PROBE_REF_S (median); "
              f"uncorrected wall_s {s['raw_wall_s']:.6g} s, setup_s {s['raw_setup_s']:.6g} s")
        print(f"# samples: setup_s median of {len(s['setups'])} set-ups; "
              f"{s['slots']} slots, each timed by the mean of {s['samples']} samples; "
              f"{s['attempted']} ops; op_tail_ms at p{s['tail_pct']:.1f} of the slots")
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"correct": not problems, "attempted": s["attempted"],
                      "failed": s["failed"], "metrics": metrics}))
    return 0


def per_layer_units() -> dict[str, str]:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "small"), default="full",
                    help="small: a reduced pass for the self-test")
    args = ap.parse_args(argv)
    # turn a termination request into SystemExit, so the running worker is
    # killed and waited for and the run directory removed on the way out
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = Path.cwd()
    if not (root / "src" / "hardylab" / "__init__.py").is_file():
        print("run.py: no src/hardylab here; run from the root of a hardylab "
              "source checkout", file=sys.stderr)
        return 2
    return run(args, root)


if __name__ == "__main__":
    sys.exit(main())
