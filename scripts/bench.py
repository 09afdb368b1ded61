#!/usr/bin/env python3
"""Write BENCH_<pr>.json: the benchmark's figures for this tree, with its
source size, tier-1 time, `verify all` time and host facts.  Run it from
anywhere; it works on the checkout it lives in:

    python scripts/bench.py --pr 36

For each workload BENCHMARK.json lists, it runs perfbench/run.py as it is,
for BENCHMARK.json's run_seconds: at seeds 1, 2 and 3 at --trace 0, and at
seed 1 at --trace 1.  Each run's figures are the JSON object on its last
line, and its `# run` line gives the source hash, the host and the output
digest.  The file holds, per workload, each end-to-end metric's median over
the seeds, its spread (max - min over the median) and every seed's value,
the output digests, and the traced run's per-layer metrics.  It adds
src_lines (scripts/src_lines.py), the wall time of one tier-1 pytest run
(ROADMAP.md's command), and `verify all` in a fresh process: the process's
wall time and each suite's, run in order as `verify all` runs them.  run.py
keeps its per-run state in .perfbench_runs/ (git-ignored); the script
writes nothing else but the BENCH file.  About 2 minutes on a 2-core Xeon,
tier-1 included.

BENCH_36.json was written by `python scripts/bench.py --pr 36`.
"""

import argparse
import json
import os
import runpy
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)
# verify all's suites in order, each timed, in the fresh process
_VERIFY = """\
import json, time
from hardylab import verify
suite_s = {}
for name in verify.SUITES:
    start = time.perf_counter()
    verify.run([name])
    suite_s[name] = time.perf_counter() - start
print(json.dumps(suite_s))
"""


def _env() -> dict:
    path = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


def _run_output(stdout: str) -> dict:
    """One run.py run's figures: the JSON object on its last line, with the
    facts of its `# run` line under "run"."""
    lines = stdout.strip().splitlines()
    out = json.loads(lines[-1])
    out["run"] = next(json.loads(line[len("# run "):]) for line in lines
                      if line.startswith("# run "))
    return out


def bench_run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", f"{seconds:g}",
         "--trace", str(trace)], cwd=ROOT, capture_output=True, text=True)
    if res.returncode:
        sys.exit(f"run.py {workload} seed {seed} trace {trace} exited "
                 f"{res.returncode}:\n{res.stderr[-2000:]}")
    return _run_output(res.stdout)


def tier1() -> dict:
    """Wall time and summary line of one tier-1 pytest run."""
    start = time.perf_counter()
    res = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "-p", "no:cacheprovider"], cwd=ROOT, env=_env(), capture_output=True,
        text=True)
    return {"wall_s": round(time.perf_counter() - start, 2),
            "summary": res.stdout.strip().splitlines()[-1]}


def verify_all() -> dict:
    start = time.perf_counter()
    res = subprocess.run([sys.executable, "-c", _VERIFY], cwd=ROOT, env=_env(),
                         capture_output=True, text=True, check=True)
    return {"wall_s": round(time.perf_counter() - start, 3),
            "suite_s": {k: round(v, 3) for k, v in json.loads(res.stdout).items()}}


def assemble(pr: int, runs: dict, traced: dict, src_lines: int, tier1: dict,
             verify: dict) -> dict:
    """The BENCH record from parsed run.py outputs: runs[workload] holds the
    untraced runs, one per seed, and traced[workload] the traced one."""
    workloads = {}
    for name, outs in runs.items():
        end_to_end = {}
        for key, metric in outs[0]["metrics"].items():
            values = [o["metrics"][key]["value"] for o in outs]
            median = statistics.median(values)
            end_to_end[key] = {
                "median": median, "unit": metric["unit"], "values": values,
                "spread": (max(values) - min(values)) / median if median else None}
        workloads[name] = {
            "seeds": [o["run"]["seed"] for o in outs],
            "correct": all(o["correct"] for o in outs + [traced[name]]),
            "output_digests": [o["run"]["output_digest"] for o in outs],
            "end_to_end": end_to_end,
            "per_layer": {k: m["value"] for k, m in traced[name]["metrics"].items()},
        }
    facts = next(iter(runs.values()))[0]["run"]
    return {"pr": pr, "src_sha256": facts["src_sha256"],
            "host": {k: facts[k] for k in ("cpu", "nproc", "python", "numpy")},
            "src_lines": src_lines, "tier1": tier1, "verify_all": verify,
            "workloads": workloads}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--pr", type=int, required=True,
                    help="the number in the file's name, BENCH_<pr>.json")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    runs, traced = {}, {}
    for workload in (w["name"] for w in spec["workloads"]):
        runs[workload] = [bench_run(workload, seed, seconds, 0)
                          for seed in SEEDS]
        traced[workload] = bench_run(workload, SEEDS[0], seconds, 1)
    src_lines = runpy.run_path(str(ROOT / "scripts" / "src_lines.py"))["src_lines"]()
    record = assemble(args.pr, runs, traced, src_lines, tier1(), verify_all())
    path = ROOT / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
