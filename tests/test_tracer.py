"""The benchmark's tracer wraps library functions by name: every name it
lists must still exist, or its traced runs break."""

import importlib
import runpy
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
