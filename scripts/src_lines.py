#!/usr/bin/env python3
"""Print src_lines, the source size the ROADMAP tracks: the lines of every
src/hardylab/*.py, counted as `wc -l` counts them, except the generated
_psi_tables.py (the other generated tables count).  Needs no imports
beyond the standard library:

    python scripts/src_lines.py
"""

from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src/hardylab"


def src_lines() -> int:
    return sum(p.read_bytes().count(b"\n") for p in SRC.glob("*.py")
               if p.name != "_psi_tables.py")


if __name__ == "__main__":
    print(src_lines())
