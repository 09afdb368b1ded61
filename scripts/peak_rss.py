#!/usr/bin/env python3
"""Peak resident memory and wall time of one hardylab command line.

Runs `hardylab ARGS...` in a fresh Python process, with this checkout's
src/ first on PYTHONPATH, and when it exits prints one line to standard
error:

    exit 0 peak_rss_mb 183.42 wall_s 2.871

peak_rss_mb is the child's ru_maxrss (getrusage(RUSAGE_CHILDREN), KiB on
Linux) over 1024; the script starts no other child, so it is that one
process's peak.  wall_s spans the whole child, interpreter start included.
The command's own output goes where it would go, so a table can be
compared byte for byte:

    python scripts/peak_rss.py mellin --k 3 --decompose --X 5e4 \\
        --sigma 2:2.5:2 --t 0:1:2 > m3.csv

The script exits with the command's exit code.
"""

import os
import resource
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
_MAIN = "import sys; from hardylab.cli import main; sys.exit(main(sys.argv[1:]))"


def peak_rss(args: list[str]) -> tuple[int, float, float]:
    """(exit code, peak RSS in MB, wall seconds) of `hardylab args`."""
    path = [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    start = time.perf_counter()
    code = subprocess.call([sys.executable, "-c", _MAIN, *args], env=env)
    wall = time.perf_counter() - start
    rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return code, rss, wall


if __name__ == "__main__":
    code, rss, wall = peak_rss(sys.argv[1:])
    print(f"exit {code} peak_rss_mb {rss:.2f} wall_s {wall:.3f}",
          file=sys.stderr)
    sys.exit(code)
