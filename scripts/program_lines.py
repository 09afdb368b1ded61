#!/usr/bin/env python3
"""Program-path line report: the library statements no program path runs.

Runs PATHS (hardylab command lines, through cli.main) and one small-scale
pass of each perfbench workload with the check of its outputs
(perfbench/workloads.py, loaded from its file and left as it is) in one
process, under sys.settrace limited to src/hardylab, in a temporary
working directory: the verify report and the workloads' bundles/ land
there, not in the tree.  It then prints every statement of a library
function that none of them executed, function by function, and lists
`raise` statements apart, as guards.  Code that only the tests reach is
listed, so a "no caller" claim can be read off the report rather than off
a grep:

    python scripts/program_lines.py

Needs numpy and hardylab (src/ is put first on sys.path); about 6 s on a
2-core Xeon.  A statement counts as run when any of its lines ran.
Functions that run only while hardylab is imported count as run when
hardylab is first imported under the trace, as this script does; a caller
that imported hardylab before sees their bodies listed.
"""

import ast
import contextlib
import importlib.util
import io
import os
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "hardylab"

# one command line per CLI command and mode
PATHS = (
    ("verify", "all"),
    ("z", "--from", "5", "--to", "20", "--step", "0.5", "--oracle"),
    ("moment", "--k", "2", "--T", "300", "--mode", "both"),
    ("moment", "--k", "3", "--T", "300", "--mode", "explicit"),
    ("moment", "--k", "4", "--T", "200", "--mode", "direct"),
    ("mellin", "--k", "2", "--sigma", "2:3:2", "--t", "0:6:2"),
    ("mellin", "--k", "1", "--X", "500", "--sigma", "2:2:1", "--t", "0:1:2"),
    ("mellin", "--k", "2", "--laurent"),
    ("mellin", "--k", "3", "--decompose", "--X", "1000",
     "--sigma", "1.6:2.4:3", "--t=-9:9:10"),
    ("divisors", "--k", "4", "--limit", "50", "--format", "json"),
)
WORKLOADS = ("z-kernel", "dyadic-moments", "mellin-contour", "verify-cold")


def _functions(path: Path):
    """(qualified name, statements) for every function in a source file:
    its simple statements as (first line, last line, is a raise), the
    docstring and the bodies of nested functions left out."""
    out = []

    def statements(body, acc):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                continue
            blocks = [getattr(node, f, []) for f in ("body", "orelse",
                                                     "finalbody")]
            blocks += [h.body for h in getattr(node, "handlers", [])]
            blocks += [c.body for c in getattr(node, "cases", [])]
            if any(blocks):
                for block in blocks:
                    statements(block, acc)
            else:
                acc.append((node.lineno, node.end_lineno,
                            isinstance(node, ast.Raise)))
        return acc

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                body = child.body
                if (body and isinstance(body[0], ast.Expr)
                        and isinstance(body[0].value, ast.Constant)
                        and isinstance(body[0].value.value, str)):
                    body = body[1:]
                out.append((prefix + child.name, statements(body, [])))
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text()), "")
    return out


def _workload_pass(workloads, name: str, seed: int = 1) -> None:
    """One small-scale pass of a perfbench workload: plan, set-up, ops and
    the check of their outputs, as perfbench/worker.py runs them."""
    import numpy as np
    wl = workloads.WORKLOADS[name]("small", seed)
    ops = wl.plan(np.random.default_rng(seed))
    wl.setup()
    wl.check(ops, [wl.run(op) for op in ops])


def executed(commands, workloads=()) -> tuple[dict, list]:
    """Run the command lines, then one pass of each named workload, under
    the trace: ({file: lines run}, [(command, exit code) of those that did
    not exit 0])."""
    hits = defaultdict(set)
    prefix = str(PACKAGE) + os.sep

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    sys.path.insert(0, str(SRC))
    failed, cwd, bytecode = [], os.getcwd(), sys.dont_write_bytecode
    sys.dont_write_bytecode, tracer = True, sys.gettrace()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        sys.settrace(call)
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                from hardylab.cli import main
                for argv in commands:
                    code = main(list(argv))
                    if code:
                        failed.append((" ".join(argv), code))
                if workloads:
                    spec = importlib.util.spec_from_file_location(
                        "perfbench_workloads",
                        ROOT / "perfbench" / "workloads.py")
                    module = importlib.util.module_from_spec(spec)
                    # its dataclasses look their module up by name
                    sys.modules[spec.name] = module
                    spec.loader.exec_module(module)
                    for name in workloads:
                        _workload_pass(module, name)
        finally:
            sys.settrace(tracer)
            os.chdir(cwd)
            sys.dont_write_bytecode = bytecode
            sys.path.remove(str(SRC))
    return hits, failed


def unexecuted(commands, workloads=()) -> tuple[dict, dict, list]:
    """The statements no path ran, keyed "module.qualified_name": ({name:
    first lines}, {name: first lines of raise statements}, the paths that
    did not exit 0)."""
    hits, failed = executed(commands, workloads)
    missed, raises = {}, {}
    for path in sorted(PACKAGE.glob("*.py")):
        ran = hits.get(str(path), set())
        for name, stmts in _functions(path):
            for first, last, is_raise in stmts:
                if ran.isdisjoint(range(first, last + 1)):
                    table = raises if is_raise else missed
                    table.setdefault(f"{path.stem}.{name}", []).append(first)
    return missed, raises, failed


def main() -> int:
    missed, raises, failed = unexecuted(PATHS, WORKLOADS)
    for command, code in failed:
        print(f"path exited {code}: {command}")
    for title, table in (("statements no program path runs", missed),
                         ("raise guards no program path reaches", raises)):
        print(f"{title}: {sum(map(len, table.values()))}")
        for name, lines in table.items():
            print(f"  {name}: {', '.join(map(str, lines))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
