"""Self-test of the benchmark: repeatable counters, digests and checks.

    python3 perfbench/selftest.py [--seed N] [--workload NAME ...]

Run from the root of a hardylab source checkout.  For each workload it runs
the traced benchmark at the small scale twice with one seed and asserts
that both runs are correct (no wrong outputs, no raised ops, identical
output bytes within and across the runs) and report identical work
counters.  It then asserts that another seed changes the workload's inputs.
Exits 0 when every assertion holds, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import THREAD_ENV, WORKLOADS  # noqa: E402
from tracer import EXACT_COUNTERS  # noqa: E402


def bench(workload: str, seed: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1", "--scale", "small"],
        capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise AssertionError(f"{workload}: run.py exited {proc.returncode}\n{proc.stderr}")
    meta = next(json.loads(l[len("# run "):]) for l in lines if l.startswith("# run "))
    return json.loads(lines[-1]), meta


def input_digest(workload: str, seed: int) -> str:
    env = dict(os.environ, PYTHONPATH=str(Path.cwd() / "src"),
               PYTHONDONTWRITEBYTECODE="1", **{k: "1" for k in THREAD_ENV})
    with tempfile.TemporaryDirectory(dir=Path.cwd() / ".perfbench_runs") as tmp:
        out = Path(tmp) / "setup.json"
        subprocess.run([sys.executable, str(HERE / "worker.py"), "--workload", workload,
                        "--seed", str(seed), "--scale", "small", "--setup-only",
                        "--t-spawn", str(time.monotonic_ns()), "--out", str(out)],
                       cwd=tmp, env=env, check=True, timeout=300,
                       stdout=subprocess.DEVNULL)
        return json.loads(out.read_text())["input_digest"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--workload", nargs="*", default=list(WORKLOADS))
    args = ap.parse_args(argv)
    (Path.cwd() / ".perfbench_runs").mkdir(exist_ok=True)
    failures = []
    for wl in args.workload:
        try:
            (a, meta_a), (b, meta_b) = bench(wl, args.seed), bench(wl, args.seed)
            assert a["correct"] and b["correct"], f"{wl}: a run was not correct"
            assert meta_a["determinism"] in ("recorded", "match"), meta_a["determinism"]
            assert meta_b["determinism"] == "match", meta_b["determinism"]
            diff = {k: (a["metrics"][k]["value"], b["metrics"][k]["value"])
                    for k in EXACT_COUNTERS
                    if a["metrics"][k]["value"] != b["metrics"][k]["value"]}
            assert not diff, f"{wl}: counters differ between runs: {diff}"
            assert input_digest(wl, args.seed) != input_digest(wl, args.seed + 1), \
                f"{wl}: another seed gave the same inputs"
            counters = {k: a["metrics"][k]["value"] for k in EXACT_COUNTERS}
            print(f"ok   {wl}: {a['attempted']} ops, {a['failed']} failed, "
                  f"counters {counters}")
        except (AssertionError, subprocess.SubprocessError) as exc:
            failures.append(wl)
            print(f"FAIL {wl}: {exc}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
