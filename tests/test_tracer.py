"""The benchmark reads the library from outside: its tracer wraps library
functions by name, and every name it lists must still exist, or its traced
runs break; its src_lines must be the figure scripts/src_lines.py prints."""

import importlib
import runpy
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


def test_instrumented_names_resolve():
    # run_path compiles the file without caching bytecode beside it, and
    # defining INSTRUMENTED patches nothing: only install() does
    instrumented = runpy.run_path(str(TRACER))["INSTRUMENTED"]
    missing = []
    for _layer, module, attr, _hook in instrumented:
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{module}.{attr}")
    assert not missing, missing


def test_src_lines_matches_the_benchmark():
    run = runpy.run_path(str(ROOT / "perfbench" / "run.py"))
    script = runpy.run_path(str(ROOT / "scripts" / "src_lines.py"))
    assert run["source_facts"](ROOT)["src_lines"] == script["src_lines"]()
