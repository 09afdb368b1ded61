"""Acceptance suite: every exit criterion at its stated tolerance.

Each criterion prints one pass/fail line (run with ``pytest -s`` to see
them live).  The underlying checks live in hardylab.verify; this module
pins the criterion-to-suite mapping, the runtime budgets, and the
bit-identical determinism requirement.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import hardylab
import hardylab.verify as verify
from hardylab.config import RunConfig
from hardylab.reportio import to_json

BUDGETS = {
    "functional-equation": 10.0,
    "z-agreement": 60.0,
    "dyadic-square": 600.0,
    "dyadic-odd": 900.0,
    "cubic-primitive": 600.0,
    "primitive-scaling": 300.0,
    "laurent": 300.0,
    "identities": 1200.0,
    "series-decomposition": 300.0,
    "divisor-oracle": 30.0,
}


@pytest.fixture(scope="module")
def first_run():
    cfg = RunConfig()
    suites = {}
    elapsed = {}
    for name in verify.SUITES:
        t0 = time.perf_counter()
        bundle = verify.run([name], cfg)
        elapsed[name] = time.perf_counter() - t0
        suites[name] = bundle["suites"][name]
    full = {"seed": cfg.seed, "suites": suites,
            "pass": all(s["pass"] for s in suites.values())}
    return full, elapsed


def _criterion(first_run, number: int, suite: str) -> None:
    bundle, elapsed = first_run
    res = bundle["suites"][suite]
    took = elapsed[suite]
    status = "PASS" if res["pass"] else "FAIL"
    print(f"criterion {number:2d} [{status}] {suite} ({took:.1f}s)")
    for check in res["checks"]:
        assert check["pass"], (suite, check)
    assert took < BUDGETS[suite], f"{suite} exceeded runtime budget"


def test_criterion_01_functional_equation(first_run):
    _criterion(first_run, 1, "functional-equation")


def test_criterion_02_z_cross_validation(first_run):
    _criterion(first_run, 2, "z-agreement")


def test_criterion_03_square_window_residual(first_run):
    _criterion(first_run, 3, "dyadic-square")


def test_criterion_04_odd_window_residuals(first_run):
    _criterion(first_run, 4, "dyadic-odd")


def test_criterion_05_cubic_primitive(first_run):
    _criterion(first_run, 5, "cubic-primitive")


def test_criterion_06_primitive_scaling(first_run):
    _criterion(first_run, 6, "primitive-scaling")


def test_criterion_07_laurent_principal_part(first_run):
    _criterion(first_run, 7, "laurent")


def test_criterion_08_identity_suite(first_run):
    _criterion(first_run, 8, "identities")


def test_criterion_09_series_decomposition(first_run):
    _criterion(first_run, 9, "series-decomposition")


def test_criterion_10_divisor_oracle(first_run):
    _criterion(first_run, 10, "divisor-oracle")


def test_criterion_11_determinism(first_run):
    bundle1, _ = first_run
    second = verify.run(["all"], RunConfig())
    b1 = to_json(bundle1)
    b2 = to_json(second)
    status = "PASS" if b1 == b2 else "FAIL"
    print(f"criterion 11 [{status}] determinism (bit-identical bundles)")
    assert b1 == b2


def test_light_suites_call_each_reference_once(monkeypatch):
    # each reference function takes its suite's points in one batch: chi
    # its four grids, zeta its s and 1 - s rows, divisor_brute k = 2, 3, 4
    calls = []
    for name in ("chi", "zeta_euler_maclaurin", "divisor_brute"):
        fn = getattr(verify, name)
        monkeypatch.setattr(verify, name, lambda *a, _n=name, _f=fn, **kw:
                            calls.append(_n) or _f(*a, **kw))
    cfg = RunConfig()
    assert all(c.passed for c in verify.suite_functional_equation(cfg))
    assert sorted(calls) == ["chi", "zeta_euler_maclaurin"]
    calls.clear()
    assert all(c.passed for c in verify.suite_divisor_oracle(cfg))
    assert calls == ["divisor_brute"]


GOLDEN = Path(__file__).with_name("bundle_golden.json")


def _moved(new: float, old: float) -> bool:
    return new != old and not abs(new - old) <= max(1e-9 * abs(old), 1e-13)


def test_bundle_matches_frozen_values(first_run):
    # the same behaviour to stated tolerances: every check keeps its value
    # and limit within max(1e-9 |old|, 1e-13) and its pass flag exactly.
    # A change that moves a value on purpose reruns scripts/freeze_bundle.py
    bundle, _ = first_run
    golden = json.loads(GOLDEN.read_text())
    got = {suite: {c["name"]: c for c in res["checks"]}
           for suite, res in bundle["suites"].items()}
    assert {s: list(c) for s, c in got.items()} \
        == {s: list(c) for s, c in golden.items()}
    moved = []
    for suite, checks in golden.items():
        for name, old in checks.items():
            new = got[suite][name]
            if (new["pass"] != old["pass"]
                    or _moved(new["value"], old["value"])
                    or _moved(new["limit"], old["limit"])):
                moved.append((suite, name, {k: (old[k], new[k]) for k in old}))
    assert not moved, moved


_SECTIONS = """
import json, sys
from hardylab import verify
from hardylab.reportio import to_json
bundle = verify.run(sys.argv[1:])
print(json.dumps({n: to_json(s) for n, s in bundle["suites"].items()}))
"""


def _sections(names):
    # a fresh process: caches start empty
    env = dict(os.environ)
    src = str(Path(hardylab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    res = subprocess.run([sys.executable, "-c", _SECTIONS, *names], env=env,
                         capture_output=True, text=True, timeout=900,
                         check=True)
    return json.loads(res.stdout)


def test_suite_order_does_not_change_sections():
    # the moment caches walk one canonical lattice, so a section does not
    # depend on which suites ran before it in the same process
    names = [n for n in verify.SUITES if n != "identities"]
    forward = _sections(names)
    backward = _sections(names[::-1])
    assert list(forward) == names
    for name in names:
        assert forward[name] == backward[name], name
    # dyadic-odd alone walks the caches itself, where after dyadic-square
    # it reads the walk that suite made
    for name in ("series-decomposition", "dyadic-odd"):
        assert _sections([name])[name] == forward[name], name
