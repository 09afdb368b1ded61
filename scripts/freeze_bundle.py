#!/usr/bin/env python3
"""Freeze the verify bundle: run `hardylab verify all` once and write every
check's value, limit and pass flag to tests/bundle_golden.json.

tests/test_acceptance.py holds each later bundle to this file, within
|new - old| <= max(1e-9 |old|, 1e-13) for values and limits and exactly for
pass flags.  Every run prints each old -> new move with its share of that
tolerance.  A change that moves a value on purpose reruns this script and
records the lines it prints.  --check writes nothing and exits 1 if any
move exceeds the tolerance (a changed pass flag, or a check added or
removed, always does): it reports the drift of a change that keeps the
golden file.  Needs only numpy and hardylab (run with src/ on PYTHONPATH);
takes about 5 s on a 2-core Xeon.
"""

import json
import math
import sys
from pathlib import Path

from hardylab import verify

OUT = Path(__file__).resolve().parent.parent / "tests/bundle_golden.json"


def frozen(bundle: dict) -> dict:
    """{suite: {check: {value, limit, pass}}} from a verify bundle."""
    return {name: {c["name"]: {"value": c["value"], "limit": c["limit"],
                               "pass": c["pass"]}
                   for c in suite["checks"]}
            for name, suite in bundle["suites"].items()}


def share(old, new) -> float:
    """|new - old| as a share of the golden tolerance; inf for a pass
    flag that changed."""
    if isinstance(old, bool) or isinstance(new, bool):
        return 0.0 if old == new else math.inf
    return abs(new - old) / max(1e-9 * abs(old), 1e-13)


def moves(old: dict, new: dict) -> list[tuple[str, float]]:
    """(line, share of the tolerance) for every entry that differs."""
    out = []
    for suite, checks in new.items():
        for name, entry in checks.items():
            before = old.get(suite, {}).get(name)
            if before is None:
                out.append((f"{suite} / {name}: new", math.inf))
                continue
            for key, v in entry.items():
                if before[key] != v:
                    out.append((f"{suite} / {name} {key}: {before[key]!r} -> "
                                f"{v!r}", share(before[key], v)))
    for suite, checks in old.items():
        for name in checks.keys() - new.get(suite, {}).keys():
            out.append((f"{suite} / {name}: removed", math.inf))
    return out


def main(argv: list[str]) -> int:
    check = "--check" in argv
    new = frozen(verify.run(["all"]))
    old = json.loads(OUT.read_text()) if OUT.exists() else {}
    found = moves(old, new)
    for line, s in found:
        print(f"{line} ({s:.3g} of the tolerance)")
    if check:
        over = sum(s > 1.0 for _, s in found)
        print(f"{len(found)} moves, {over} above the tolerance")
        return 1 if over else 0
    OUT.write_text(json.dumps(new, indent=1) + "\n")
    print(f"wrote {OUT}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
