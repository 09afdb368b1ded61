"""CLI surface: subcommands, formats, exit codes, determinism, sensitivity."""

import json
import math
import os
import re
import runpy
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import hardylab.cli as cli
import hardylab.mellin as ML
import hardylab.verify as verify
from hardylab.cli import main
from hardylab.errors import AccuracyError
from hardylab.reportio import fmt, to_json


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_z_row_count(capsys):
    code, out, _ = run_cli(capsys, "z", "--from", "10", "--to", "20",
                           "--step", "0.5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,z_rs,err_est"
    assert len(lines) - 1 == 21


def test_z_sign_change_brackets_first_zero(capsys):
    code, out, _ = run_cli(capsys, "z", "--from", "14.0", "--to", "14.5",
                           "--step", "0.5")
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    v14, v145 = float(rows[0][1]), float(rows[1][1])
    assert v14 * v145 < 0.0


def test_z_oracle_column_close(capsys):
    code, out, _ = run_cli(capsys, "z", "--from", "50", "--to", "60",
                           "--step", "2", "--oracle")
    lines = out.strip().splitlines()
    assert lines[0] == "t,z_rs,z_oracle,err_est"
    for line in lines[1:]:
        _, rs, oracle, _ = (float(v) for v in line.split(","))
        assert abs(rs - oracle) < 1e-3


def test_z_usage_error(capsys):
    code, _, err = run_cli(capsys, "z", "--from", "20", "--to", "10",
                           "--step", "0.5")
    assert code == 2


def test_csv_17_digit_format(capsys):
    _, out, _ = run_cli(capsys, "z", "--from", "10", "--to", "11",
                        "--step", "1")
    row = out.strip().splitlines()[1].split(",")
    assert re.fullmatch(r"-?\d\.\d{16}e[+-]\d{2,3}", row[1])


def test_json_mirrors_csv(capsys):
    _, out_c, _ = run_cli(capsys, "z", "--from", "10", "--to", "12",
                          "--step", "1")
    _, out_j, _ = run_cli(capsys, "z", "--from", "10", "--to", "12",
                          "--step", "1", "--format", "json")
    csv_vals = [line.split(",")[1] for line in out_c.strip().splitlines()[1:]]
    parsed = json.loads(out_j)
    json_vals = [f"{row['z_rs']:.16e}" for row in parsed]
    assert csv_vals == json_vals


def _whole_table(header, rows, fm):
    # the table formatter before tables streamed: every row built, then
    # one string written
    if fm == "json":
        return to_json([dict(zip(header, row)) for row in rows]) + "\n"
    return "".join(",".join(map(fmt, r)) + "\n" for r in [header, *rows])


@pytest.mark.parametrize("fm", ["csv", "json"])
@pytest.mark.parametrize("oracle", [(), ("--oracle",)])
def test_z_table_in_chunks_has_the_one_chunk_bytes(capsys, monkeypatch, fm,
                                                   oracle):
    # 201 heights across t = 10; after its two ends, a z table asks Z for
    # one chunk of Z_ROWS heights at a time
    argv = ("z", "--from", "5", "--to", "25", "--step", "0.1", "--format",
            fm, *oracle)
    calls = []
    z_eval_many = cli.z_eval_many
    monkeypatch.setattr(cli, "z_eval_many", lambda ts, k: calls.append(
        len(ts)) or z_eval_many(ts, k))
    code, whole, err = run_cli(capsys, *argv)
    assert code == 0 and err == "" and calls == [2, 201]
    calls.clear()
    monkeypatch.setattr(cli, "Z_ROWS", 7)
    code, chunked, err = run_cli(capsys, *argv)
    assert code == 0 and err == "" and calls == [2] + [7] * 28 + [5]
    assert chunked == whole


@pytest.mark.parametrize("fm", ["csv", "json"])
@pytest.mark.parametrize("n", [0, 1, 3])
@pytest.mark.parametrize("to_file", [False, True])
def test_streamed_table_bytes_match_the_whole_table(tmp_path, capsys, fm, n,
                                                    to_file):
    # rows arrive from an iterator, and the bytes are the whole table's
    header = ["n", "x", "y"]
    rows = [(1, 0.1, math.nan), (2, -2.5e-300, math.inf), (3, 1e17, -0.0)][:n]
    out = str(tmp_path / "t.txt") if to_file else None
    cli._emit_table(header, iter(rows), out, fm)
    got = Path(out).read_text() if to_file else capsys.readouterr().out
    assert got == _whole_table(header, rows, fm)


@pytest.mark.parametrize("fm", ["csv", "json"])
def test_divisor_table_streams_in_bounded_memory(tmp_path, fm):
    # 50,000 rows: the whole table as tuples, dicts and one JSON string
    # took 5.1 MB (CSV) and 23 MB (JSON) under tracemalloc; streamed, the
    # peak is the sieve's, about 0.5 MB
    out = tmp_path / "d2.txt"
    tracemalloc.start()
    try:
        code = main(["divisors", "--k", "2", "--limit", "50000",
                     "--format", fm, "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak <= 1e6, peak
    assert out.stat().st_size > 50_000 * len("1,1\n")


@pytest.mark.parametrize("fm", ["csv", "json"])
def test_closed_stdout_ends_a_table_quietly(fm):
    # a reader that takes one line and closes the pipe (| head -1) ends
    # the table: exit 0 and nothing on stderr
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "hardylab.cli", "divisors", "--k", "2",
         "--limit", "200000", "--format", fm],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    first = proc.stdout.readline()
    proc.stdout.close()
    assert proc.wait(timeout=120) == 0
    assert proc.stderr.read() == b""
    proc.stderr.close()
    assert first == (b"n,d_2\n" if fm == "csv" else b"[\n")


@pytest.mark.parametrize("frm,to,step", [
    ("10", "inf", "1"), ("nan", "20", "1"), ("10", "20", "nan"),
    ("-inf", "20", "1"), ("10", "20", "inf"),
])
def test_z_non_finite_usage_error(capsys, frm, to, step):
    code, _, err = run_cli(capsys, "z", f"--from={frm}", f"--to={to}",
                           f"--step={step}")
    assert code == 2
    assert "finite" in err


def test_moment_both_mode(capsys):
    code, out, _ = run_cli(capsys, "moment", "--k", "2", "--T", "100",
                           "--mode", "both")
    assert code == 0
    header = out.splitlines()[0].split(",")
    assert header[:2] == ["k", "T"]
    for col in ("integral", "cosine_sum", "residual", "residual_scaled"):
        assert col in header
    row = out.splitlines()[1].split(",")
    scaled = float(row[header.index("residual_scaled")])
    assert scaled < 10.0


def test_moment_invalid_k(capsys):
    code, _, err = run_cli(capsys, "moment", "--k", "9", "--T", "100")
    assert code == 2


def test_mellin_grid(capsys):
    code, out, _ = run_cli(capsys, "mellin", "--k", "1",
                           "--sigma", "2:3:2", "--t", "0:1:2")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) - 1 == 4
    assert lines[0].startswith("k,sigma,t,re,im,X,tail_bound")


def test_mellin_table_batch_matches_per_row_calls(capsys, monkeypatch):
    # a 3 x 40 by_parts table goes through the engine grouped by (X, band):
    # the same bytes as one mellin_by_parts call per row
    argv = ("mellin", "--k", "2", "--sigma", "3:4:3", "--t=-20:20:40")
    code, batched, _ = run_cli(capsys, *argv)
    assert code == 0 and len(batched.splitlines()) == 121
    # mellin_by_parts is this one-element call
    batch = ML.mellin_by_parts_samples
    monkeypatch.setattr(ML, "mellin_by_parts_samples", lambda k, s, X: [
        batch(k, [sv], X=X)[0] for sv in s])
    code, per_row, _ = run_cli(capsys, *argv)
    assert code == 0 and per_row == batched


def test_mellin_decompose_batch_matches_per_row_calls(capsys, monkeypatch):
    # a 3 x 10 decomposition table is one m3_decomposition call: the same
    # bytes as one call per row
    argv = ("mellin", "--k", "3", "--decompose", "--X", "1000",
            "--sigma", "1.6:2.4:3", "--t=-9:9:10")
    code, batched, _ = run_cli(capsys, *argv)
    assert code == 0 and len(batched.splitlines()) == 31
    batch = ML.m3_decomposition
    monkeypatch.setattr(ML, "m3_decomposition", lambda s, X: [
        batch(sv, X) for sv in s])
    code, per_row, _ = run_cli(capsys, *argv)
    assert code == 0 and per_row == batched


def test_mellin_fixed_x_batch_matches_per_row_calls(capsys, monkeypatch):
    # a 3 x 21 table at one --X over bands 0-4 is one
    # mellin_by_parts_samples call: the same bytes as one call per row
    argv = ("mellin", "--k", "3", "--X", "1000", "--sigma", "1.5:3:3",
            "--t=-60:60:21")
    code, batched, _ = run_cli(capsys, *argv)
    assert code == 0 and len(batched.splitlines()) == 64
    assert batched.splitlines()[0] == "k,sigma,t,re,im,X,tail_bound"
    batch = ML.mellin_by_parts_samples
    monkeypatch.setattr(ML, "mellin_by_parts_samples", lambda k, s, X: [
        batch(k, [sv], X=X)[0] for sv in s])
    code, per_row, _ = run_cli(capsys, *argv)
    assert code == 0 and per_row == batched


GONE = "unrecognized arguments: --method"


@pytest.mark.parametrize("argv, message", [
    (("--k", "2", "--laurent", "--X", "1000"), "does not read --X"),
    (("--k", "2", "--laurent", "--sigma", "2:3:2"), "does not read --sigma"),
    (("--k", "2", "--laurent", "--t", "0:1:2"), "does not read --t"),
    (("--k", "2", "--laurent", "--method", "by_parts"), GONE),
    (("--k", "2", "--laurent", "--method", "direct"), GONE),
    (("--k", "2", "--laurent", "--decompose"), "does not read --decompose"),
    (("--k", "3", "--decompose", "--X", "1000", "--method", "direct"), GONE),
    (("--k", "3", "--decompose", "--X", "1000", "--method", "by_parts"),
     GONE),
    (("--k", "1", "--method", "direct"), GONE),
    (("--k", "1", "--X", "500", "--method", "by_parts"), GONE),
], ids=["laurent-X", "laurent-sigma", "laurent-t", "laurent-by_parts",
        "laurent-direct", "laurent-decompose", "decompose-direct",
        "decompose-by_parts", "table-direct", "table-by_parts"])
def test_mellin_mode_refuses_an_option_it_does_not_read(capsys, monkeypatch,
                                                        argv, message):
    # --laurent reads none of --X, --sigma, --t and --decompose, and no mode
    # reads --method, which is gone with the direct route: each given exits
    # 2 naming it, before any work
    def never(*a, **kw):
        raise AssertionError("work started on an option that is not read")

    for name in ("_grid", "_v2_grid", "_cubic_sum", "moment_cache",
                 "laurent_samples", "m3_decomposition",
                 "mellin_by_parts_samples", "mellin_direct"):
        monkeypatch.setattr(ML, name, never)
    code, out, err = run_cli(capsys, "mellin", *argv)
    assert code == 2 and out == ""
    assert message in err


def test_mellin_decompose_sizes_its_table_from_X(capsys):
    # X = 5000 needs d_3 up to 22,448, past any fixed 20,000-entry table
    code, out, _ = run_cli(capsys, "mellin", "--k", "3", "--decompose",
                           "--X", "5000")
    header, *rows = out.splitlines()
    assert code == 0 and header.endswith(",gap_rel") and len(rows) == 2
    assert all(float(r.rsplit(",", 1)[1]) <= 1e-5 for r in rows)


def test_mellin_laurent(capsys):
    code, out, _ = run_cli(capsys, "mellin", "--k", "2", "--laurent")
    assert code == 0
    header, row = out.strip().splitlines()
    assert header == "c_minus2,c_minus1,c_0"
    c2, c1, _ = (float(v) for v in row.split(","))
    assert 0.95 <= c2 <= 1.05
    assert -0.705 <= c1 <= -0.663


def test_mellin_non_finite_sigma_usage_error(capsys):
    code, out, err = run_cli(capsys, "mellin", "--k", "1",
                             "--sigma", "nan:2:2")
    assert code == 2
    assert "finite" in err and out == ""


@pytest.mark.parametrize("sigma, t", [("nan:2:2", "0:0:1"),
                                      ("2:2:1", "inf:inf:1")])
def test_mellin_decompose_non_finite_usage_error(capsys, sigma, t):
    code, out, err = run_cli(capsys, "mellin", "--k", "3", "--decompose",
                             "--sigma", sigma, "--t", t, "--X", "1000")
    assert code == 2
    assert "finite" in err and out == ""


# Riemann-Siegel stops at t = 1.65e6, where its main sum passes 512 terms;
# the oracle at 2.0e5, where an Euler-Maclaurin row passes 2^18
@pytest.mark.parametrize("span", [("--from", "1e12", "--to", "2e12"),
                                  ("--from", "3e5", "--to", "4e5", "--oracle"),
                                  ("--from", "2e6", "--to", "3e6")])
def test_z_above_height_limit_usage_error(capsys, span):
    code, out, err = run_cli(capsys, "z", *span, "--step", "1e12")
    assert code == 2
    assert out == "" and str(2 ** 18 if "--oracle" in span else 512) in err


def test_divisor_budget_guards_limit(capsys, monkeypatch):
    # a limit past the budget, or a k outside 1..4, exits 2 in the library
    # before the sieve allocates its counts
    def no_counts(*a, **kw):
        raise AssertionError("the sieve allocated its counts")

    monkeypatch.setattr(np, "ones", no_counts)
    for k, limit, says in (("2", "20000001", "budget"),
                           ("5", "100", "1 <= k <= 4"),
                           ("0", "100", "1 <= k <= 4")):
        code, out, err = run_cli(capsys, "divisors", "--k", k,
                                 "--limit", limit)
        assert code == 2 and out == "" and says in err, (k, limit)


@pytest.mark.parametrize("argv", [
    ("mellin", "--k", "1", "--sigma", "2:2:1", "--t", "1e5:1e5:1"),
    ("mellin", "--k", "4", "--sigma", "2:3:2", "--t=-2e4:0:3"),
    ("mellin", "--k", "1", "--X", "2000", "--t", "1e6:1e6:1"),
    ("mellin", "--k", "3", "--decompose", "--X", "500", "--t", "0:1e7:2"),
])
def test_mellin_past_the_im_cap_usage_error(capsys, monkeypatch, argv):
    # |Im s| > 16384 exits 2 before any grid, cache or d_3 table
    def never(*a, **kw):
        raise AssertionError("work started past the |Im s| cap")

    for name in ("_grid", "_v2_grid", "_cubic_sum", "moment_cache"):
        monkeypatch.setattr(ML, name, never)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "" and "16384" in err


def test_mellin_at_the_im_cap_prints_a_row(capsys):
    code, out, _ = run_cli(capsys, "mellin", "--k", "1", "--sigma", "2:2:1",
                           "--t", "16384:16384:1", "--X", "250")
    lines = out.splitlines()
    assert code == 0 and len(lines) == 2
    assert lines[1].split(",")[2] == "1.6384000000000000e+04"


def _refuse_transform_work(monkeypatch):
    def never(*a, **kw):
        raise AssertionError("work started outside the X domain")

    for name in ("_ExpSum", "_v2_grid", "_cubic_sum", "moment_cache"):
        monkeypatch.setattr(ML, name, never)


def test_mellin_x_cap_usage_error(capsys, monkeypatch):
    # the library's one X check, before any cache walk, grid or d_3 table
    _refuse_transform_work(monkeypatch)
    for X in ("6e4", "1e6"):
        for how in ((), ("--t", "0:40:3"), ("--k", "3", "--decompose")):
            code, out, err = run_cli(capsys, "mellin", "--k", "1", "--X", X,
                                     *how)
            assert code == 2 and out == ""
            assert "X must be in [10, 50000]" in err


@pytest.mark.parametrize("grid", [(), ("--t", "0:40:3")],
                         ids=["by_parts", "bands"])
@pytest.mark.parametrize("X", ["0.5", "-3", "0", "5", "9.99"])
def test_mellin_small_x_usage_error(capsys, monkeypatch, X, grid):
    # the default grid, or one over bands 0, 3 and 4: before any grid
    _refuse_transform_work(monkeypatch)
    code, out, err = run_cli(capsys, "mellin", "--k", "1", "--X", X, *grid)
    assert code == 2 and out == "" and "X must be in [10, 50000]" in err


def test_mellin_decompose_small_x_usage_error(capsys):
    code, out, err = run_cli(capsys, "mellin", "--k", "3", "--decompose",
                             "--sigma", "2:2:1", "--t", "0:0:1", "--X", "0.5")
    assert code == 2 and out == "" and "X" in err


@pytest.mark.parametrize("argv", [
    ("z", "--from", "10", "--to", "1e12", "--step", "1"),
    ("z", "--from=-1e308", "--to", "1e308", "--step", "1e-300"),
    ("mellin", "--k", "1", "--sigma", "2:3:1000000", "--t", "0:1:1000000"),
    ("mellin", "--k", "1", "--sigma", "2:3:1000000000"),
    ("mellin", "--k", "3", "--decompose", "--X", "500",
     "--sigma", "2:3:1000000", "--t", "0:1:1000000"),
])
def test_huge_grid_fails_before_work(capsys, monkeypatch, argv):
    # 10^12 rows are refused by their count, before any array is built
    def never(*a, **kw):
        raise AssertionError("work started on an oversized grid")

    for name in ("z_eval_many", "z_err_est", "divisor_sieve"):
        monkeypatch.setattr(cli, name, never)
    for name in ("mellin_by_parts", "mellin_by_parts_samples", "mellin_direct",
                 "m3_decomposition"):
        monkeypatch.setattr(ML, name, never)
    monkeypatch.setattr(cli.np, "arange", never)
    monkeypatch.setattr(cli.np, "linspace", never)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "" and str(cli.MAX_ROWS) in err


def test_mellin_laurent_requires_k2(capsys):
    code, _, _ = run_cli(capsys, "mellin", "--k", "1", "--laurent")
    assert code == 2


def test_mellin_decompose_requires_x(capsys):
    code, out, err = run_cli(capsys, "mellin", "--k", "3", "--decompose",
                             "--sigma", "2:2:1", "--t", "0:0:1")
    assert code == 2 and out == ""
    assert "--X" in err


def test_mellin_decompose(capsys):
    code, out, _ = run_cli(capsys, "mellin", "--k", "3", "--decompose",
                           "--sigma", "2:2:1", "--t", "0:0:1", "--X", "500")
    assert code == 0
    header = out.splitlines()[0]
    assert header == "sigma,t,v1,v2,sum,m3,gap_rel"
    gap = float(out.strip().splitlines()[1].split(",")[-1])
    assert gap <= 1e-5


def test_verify_unknown_suite(capsys):
    code, _, err = run_cli(capsys, "verify", "not-a-suite")
    assert code == 2


def test_verify_unknown_name_beside_all_runs_no_suite(tmp_path, capsys,
                                                     monkeypatch):
    def never(cfg):
        raise AssertionError("a suite ran before the names were checked")

    for name in verify.SUITES:
        monkeypatch.setitem(verify._SUITE_FUNCS, name, never)
    code, out, err = run_cli(capsys, "verify", "all", "bogus",
                             "--out", str(tmp_path / "bundle.json"))
    assert code == 2 and out == "" and "bogus" in err
    assert not (tmp_path / "bundle.json").exists()


def test_verify_single_suite(tmp_path, capsys):
    out_path = tmp_path / "bundle.json"
    code, out, _ = run_cli(capsys, "verify", "divisor-oracle",
                           "--out", str(out_path))
    assert code == 0
    assert "[PASS] divisor-oracle/divisor-sieve-vs-brute-k2" in out
    bundle = json.loads(out_path.read_text())
    assert bundle["pass"] is True


def test_out_in_missing_directory_fails_before_work(tmp_path, capsys,
                                                    monkeypatch):
    def never(*a, **kw):
        raise AssertionError("work started before --out was checked")

    monkeypatch.setattr(verify, "run", never)
    missing = str(tmp_path / "missing" / "x.json")
    code, out, err = run_cli(capsys, "verify", "all", "--out", missing)
    assert code == 2 and out == "" and "--out" in err
    code, out, err = run_cli(capsys, "verify", "all", "--out", str(tmp_path))
    assert code == 2 and out == ""
    code, out, err = run_cli(capsys, "z", "--from", "10", "--to", "11",
                             "--step", "0.5", "--out", missing)
    assert code == 2 and out == "" and not (tmp_path / "missing").exists()


def test_verify_determinism_repeat_runs(tmp_path, capsys):
    p1, p2 = tmp_path / "b1.json", tmp_path / "b2.json"
    code1, _, _ = run_cli(capsys, "verify", "dyadic-square",
                          "primitive-scaling", "--out", str(p1))
    code2, _, _ = run_cli(capsys, "verify", "dyadic-square",
                          "primitive-scaling", "--out", str(p2))
    assert code1 == code2 == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_verify_detects_injected_sign_error(tmp_path, capsys, monkeypatch):
    # mutation sensitivity: a sign flip in the saddle series must fail both
    # suites built on it, the dyadic main terms and the cubic primitive sum
    import hardylab.explicit as explicit
    real = explicit._terms

    def flipped(k, table, lo, hi):
        return -real(k, table, lo, hi)

    monkeypatch.setattr(explicit, "_terms", flipped)
    for suite in ("dyadic-square", "cubic-primitive"):
        code, out, _ = run_cli(capsys, "verify", suite,
                               "--out", str(tmp_path / f"{suite}.json"))
        assert code == 1, suite
        assert "FAIL" in out


def test_moment_past_z_top_usage_error(capsys):
    # [2e6, 4e6] and [1e12, 2e12] lie past Z's top height, 1.65e6: a usage
    # error (exit 2) before the budget check, not a budget failure (exit 3)
    for T in ("2e6", "1e12"):
        code, out, err = run_cli(capsys, "moment",
                                 "--k", "1", "--T", T, "--mode", "direct")
        assert code == 2
        assert out == "" and "z_breakpoints" in err


@pytest.mark.parametrize("k, T, says", [
    ("1", "inf", "requires a finite T >= 1"),
    ("2", "nan", "requires a finite T >= 1"),
    ("1", "1e300", "divisor table budget 20000000"),
    ("2", "1e300", "divisor table budget 20000000"),
    ("4", "1e300", "divisor table budget 20000000"),
])
def test_moment_huge_or_non_finite_T_usage_error(capsys, monkeypatch, k, T,
                                                 says):
    # a usage error (exit 2) before any sieve: a huge T must not overflow
    # (exit 1) or wrap n_hi to a negative table size in its integer cast
    def no_sieve(*args):
        pytest.fail("sieved a divisor table")

    monkeypatch.setattr(cli, "divisor_sieve", no_sieve)
    code, out, err = run_cli(capsys, "moment", "--k", k, "--T", T,
                             "--mode", "explicit")
    assert code == 2
    assert out == "" and says in err


def test_accuracy_exit_code(capsys, monkeypatch):
    def fail(ts):
        raise AccuracyError("oracle bound exceeded")

    monkeypatch.setattr(cli, "z_oracle_many", fail)
    code, out, err = run_cli(capsys, "z", "--from", "10", "--to", "20",
                             "--step", "5", "--oracle")
    assert code == 3
    assert out == "" and err == "z: oracle bound exceeded\n"


def test_moment_past_k4_is_refused_before_z(capsys, monkeypatch):
    # Z^k is formed for k in 1..4 only: a larger k exits 2 before any Z
    def never(*a, **kw):
        raise AssertionError("Z was evaluated for k > 4")

    monkeypatch.setattr("hardylab.moments.z_eval_many", never)
    for k in ("5", "8"):
        code, out, err = run_cli(capsys, "moment", "--k", k, "--T", "2000",
                                 "--mode", "direct")
        assert code == 2 and out == "" and "1..4" in err


def test_seed_reaches_the_bundle(tmp_path, capsys):
    # --seed, or verify.SEED without it, is the bundle's seed and the
    # sampled suites' generator seed
    for front, seed in (([], verify.SEED), (["--seed", "7"], 7)):
        out = tmp_path / f"{seed}.json"
        code, _, _ = run_cli(capsys, *front, "verify", "functional-equation",
                             "--out", str(out))
        assert code == 0
        assert out.read_text() == to_json(
            verify.run(["functional-equation"], seed=seed)) + "\n"
        assert json.loads(out.read_text())["seed"] == seed


@pytest.mark.parametrize("line", ["--seed=-1", "--config=run.cfg"])
def test_config_value_the_program_cannot_honour_usage_error(tmp_path, capsys,
                                                            line):
    # a negative seed, or the config file the program no longer reads,
    # exits 2 before any work: no table, no bundle
    bundle = tmp_path / "bundle.json"
    for argv in (["divisors", "--k", "2", "--limit", "3"],
                 ["verify", "divisor-oracle", "--out", str(bundle)]):
        code, out, err = run_cli(capsys, line, *argv)
        assert code == 2 and out == "" and line.split("=")[0] in err
    assert not bundle.exists()


def test_json_scalars_are_fmt_bare_or_quoted():
    # a bool, an int or a finite float bare; anything else quoted, escaped
    cases = [(None, "null"), (True, "true"), (-7, "-7"),
             (1.5, "1.5000000000000000e+00"),
             (np.float64(-0.0), "-0.0000000000000000e+00"),
             (math.nan, '"nan"'), (-math.inf, '"-inf"'), (np.int64(3), '"3"'),
             (1 - 2j, '"1.0000000000000000e+00-2.0000000000000000e+00j"'),
             ('a"b\\c', '"a\\"b\\\\c"')]
    for x, want in cases:
        assert to_json(x) == want, x


def test_peak_rss_script_reports_one_command(tmp_path):
    # scripts/peak_rss.py runs one command line in a fresh process and
    # prints its peak RSS and wall time; the table goes to tmp_path
    script = Path(__file__).resolve().parents[1] / "scripts" / "peak_rss.py"
    out = tmp_path / "z.csv"
    res = subprocess.run([sys.executable, str(script), "z", "--from", "10",
                          "--to", "10.5", "--step", "1", "--out", str(out)],
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    m = re.fullmatch(r"exit 0 peak_rss_mb (\d+\.\d\d) wall_s (\d+\.\d{3})\n",
                     res.stderr)
    assert m and float(m[1]) > 0.0 and float(m[2]) > 0.0, res.stderr
    assert res.stdout == ""
    assert out.read_text().splitlines()[0] == "t,z_rs,err_est"
    assert len(out.read_text().splitlines()) == 2


def _tree_files(root):
    return {os.path.join(d, f) for d, dirs, files in os.walk(root)
            if ".git" not in Path(d).relative_to(root).parts for f in files}


def test_program_lines_lists_what_its_paths_leave_unrun():
    # scripts/program_lines.py traces its command lines in a temporary
    # directory: one divisors line runs the sieve but not the dyadic main
    # term, and leaves the tree as it was
    root = Path(__file__).resolve().parents[1]
    script = runpy.run_path(str(root / "scripts" / "program_lines.py"))
    before = _tree_files(root)
    missed, raises, failed = script["unexecuted"](
        [("divisors", "--k", "3", "--limit", "40")])
    assert failed == []
    assert "explicit.moment_main_term" in missed
    assert "arith.divisor_sieve" not in missed
    assert "arith.divisor_sieve" in raises
    assert _tree_files(root) == before


def _canned_run(seed, metrics):
    # run.py's standard output: what ran, the metric table, then the JSON
    facts = {"src_sha256": "ab" * 32, "src_lines": 3245, "cpu": "Xeon",
             "nproc": 2, "python": "3.11.7", "numpy": "2.4.6", "seed": seed,
             "output_digest": f"{seed:016x}"}
    table = "".join(f"{k:40s} {v:>16.6g} s\n" for k, v in metrics.items())
    return (f"# run {json.dumps(facts)}\n# ops 9 attempted, 0 failed\n{table}"
            + json.dumps({"correct": True, "attempted": 9, "failed": 0,
                          "metrics": {k: {"value": v, "unit": "s"}
                                      for k, v in metrics.items()}}) + "\n")


def test_bench_script_assembles_canned_runs():
    # scripts/bench.py's assembly step on canned run.py output: no benchmark
    # runs, and nothing is written into the tree
    root = Path(__file__).resolve().parents[1]
    before = _tree_files(root)
    script = runpy.run_path(str(root / "scripts" / "bench.py"))
    parse = script["_run_output"]
    runs = {"z-kernel": [parse(_canned_run(seed, {"wall_s": w, "setup_s": 0.3}))
                         for seed, w in ((1, 2.0), (2, 2.2), (3, 1.9))]}
    traced = {"z-kernel": parse(_canned_run(1, {"hardy.self_s": 0.5}))}
    tier1 = {"wall_s": 80.0, "summary": "9 passed in 80.00s"}
    verify = {"wall_s": 3.5, "suite_s": {"laurent": 0.02}}
    rec = script["assemble"](36, runs, traced, 3245, tier1, verify)
    assert set(rec) == {"pr", "src_sha256", "host", "src_lines", "tier1",
                        "verify_all", "workloads"}
    assert rec["host"] == {"cpu": "Xeon", "nproc": 2, "python": "3.11.7",
                           "numpy": "2.4.6"}
    assert (rec["pr"], rec["src_lines"], rec["tier1"], rec["verify_all"]) \
        == (36, 3245, tier1, verify)
    w = rec["workloads"]["z-kernel"]
    assert set(w) == {"seeds", "correct", "output_digests", "end_to_end",
                      "per_layer"}
    assert w["seeds"] == [1, 2, 3] and w["correct"] is True
    assert w["output_digests"] == [f"{s:016x}" for s in (1, 2, 3)]
    wall = w["end_to_end"]["wall_s"]
    assert set(w["end_to_end"]) == {"wall_s", "setup_s"}
    assert wall["median"] == 2.0 and wall["values"] == [2.0, 2.2, 1.9]
    assert wall["spread"] == pytest.approx(0.15) and wall["unit"] == "s"
    assert w["per_layer"] == {"hardy.self_s": 0.5}
    json.dumps(rec)
    assert _tree_files(root) == before
