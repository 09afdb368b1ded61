#!/usr/bin/env python3
"""Freeze the verify bundle: run `hardylab verify all` once and write every
check's value, limit and pass flag to tests/bundle_golden.json.

tests/test_acceptance.py holds each later bundle to this file, within
|new - old| <= max(1e-9 |old|, 1e-13) for values and limits and exactly for
pass flags.  A change that moves a value on purpose reruns this script and
records the old -> new lines it prints.  Needs only numpy and hardylab (run
with src/ on PYTHONPATH); takes about a minute.
"""

import json
from pathlib import Path

from hardylab import verify

OUT = Path(__file__).resolve().parent.parent / "tests/bundle_golden.json"


def frozen(bundle: dict) -> dict:
    """{suite: {check: {value, limit, pass}}} from a verify bundle."""
    return {name: {c["name"]: {"value": c["value"], "limit": c["limit"],
                               "pass": c["pass"]}
                   for c in suite["checks"]}
            for name, suite in bundle["suites"].items()}


def main() -> int:
    new = frozen(verify.run(["all"]))
    old = json.loads(OUT.read_text()) if OUT.exists() else {}
    for suite, checks in new.items():
        for name, entry in checks.items():
            before = old.get(suite, {}).get(name)
            if before is None:
                print(f"{suite} / {name}: new")
                continue
            for key, v in entry.items():
                if before[key] != v:
                    print(f"{suite} / {name} {key}: {before[key]!r} -> {v!r}")
    for suite, checks in old.items():
        for name in checks.keys() - new.get(suite, {}).keys():
            print(f"{suite} / {name}: removed")
    OUT.write_text(json.dumps(new, indent=1) + "\n")
    print(f"wrote {OUT}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
