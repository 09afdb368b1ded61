"""CLI surface: subcommands, formats, exit codes, determinism, sensitivity."""

import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hardylab.cli as cli
import hardylab.mellin as ML
import hardylab.verify as verify
from hardylab.cli import main
from hardylab.config import load_config
from hardylab.errors import AccuracyError
from hardylab.reportio import to_json


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
    monkeypatch.setattr(ML, "mellin_by_parts_samples", lambda k, s, tol, X: [
        batch(k, [sv], tol, X)[0] for sv in s])
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


# Riemann-Siegel stops at t = 4.3e11, the oracle at 2.0e5
@pytest.mark.parametrize("span", [("--from", "1e12", "--to", "2e12"),
                                  ("--from", "3e5", "--to", "4e5", "--oracle")])
def test_z_above_height_limit_usage_error(capsys, span):
    code, out, err = run_cli(capsys, "z", *span, "--step", "1e12")
    assert code == 2
    assert out == "" and str(2 ** 18) in err


def test_divisor_budget_guards_limit(capsys):
    code, _, err = run_cli(capsys, "divisors", "--k", "2",
                           "--limit", "20000001")
    assert code == 2
    assert "budget" in err


def test_mellin_x_cap_usage_error(capsys):
    code, out, err = run_cli(capsys, "mellin", "--k", "1", "--X", "1e6")
    assert code == 2 and out == ""
    assert "--X" in err


@pytest.mark.parametrize("method", ["by_parts", "direct"])
@pytest.mark.parametrize("X", ["0.5", "-3", "0"])
def test_mellin_small_x_usage_error(capsys, X, method):
    code, out, err = run_cli(capsys, "mellin", "--k", "1", "--X", X,
                             "--method", method)
    assert code == 2 and out == "" and "X" in err


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


def test_divisors_roundtrip(tmp_path, capsys):
    dump = tmp_path / "d3.bin"
    code, _, _ = run_cli(capsys, "divisors", "--k", "3", "--limit", "50",
                         "--dump", str(dump))
    assert code == 0 and dump.exists()
    code, out, _ = run_cli(capsys, "divisors", "--k", "3", "--limit", "8",
                           "--load", str(dump), "--csv")
    assert code == 0
    rows = dict(tuple(int(v) for v in line.split(","))
                for line in out.strip().splitlines()[1:])
    assert rows[4] == 6 and rows[8] == 10


def test_divisors_load_truncated_header_usage_error(tmp_path, capsys):
    bad = tmp_path / "cut.bin"
    bad.write_bytes(b"dktable\x00\x03\x00")
    code, out, err = run_cli(capsys, "divisors", "--k", "3", "--load", str(bad))
    assert code == 2 and out == ""
    assert "truncated divisor table header" in err


def test_divisors_load_wrong_k_usage_error(tmp_path, capsys):
    dump = tmp_path / "d2.bin"
    code, _, _ = run_cli(capsys, "divisors", "--k", "2", "--limit", "20",
                         "--dump", str(dump))
    assert code == 0
    code, out, err = run_cli(capsys, "divisors", "--k", "4", "--limit", "5",
                             "--load", str(dump))
    assert code == 2 and out == ""
    assert "d_2" in err


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
    real = explicit.saddle_terms

    def flipped(k, table, n_hi):
        return -real(k, table, n_hi)

    monkeypatch.setattr(explicit, "saddle_terms", flipped)
    for suite in ("dyadic-square", "cubic-primitive"):
        code, out, _ = run_cli(capsys, "verify", suite,
                               "--out", str(tmp_path / f"{suite}.json"))
        assert code == 1, suite
        assert "FAIL" in out


def test_budget_exit_code(tmp_path, capsys):
    # the 580 panels of [400, 800] need 9,860 evaluations: a budget of
    # 5,000 stops the moment before any, with exit 3
    cfg_file = tmp_path / "budget.cfg"
    cfg_file.write_text("eval_budget = 5000\n")
    code, out, err = run_cli(capsys, "--config", str(cfg_file), "moment",
                             "--k", "3", "--T", "400", "--mode", "direct")
    assert code == 3
    assert out == "" and "budget" in err.lower()


def test_accuracy_exit_code(capsys, monkeypatch):
    def fail(ts):
        raise AccuracyError("oracle bound exceeded")

    monkeypatch.setattr(cli, "z_oracle_many", fail)
    code, out, err = run_cli(capsys, "z", "--from", "10", "--to", "20",
                             "--step", "5", "--oracle")
    assert code == 3
    assert out == "" and err == "z: oracle bound exceeded\n"


def test_moment_k8_direct_at_default_budget(capsys):
    code, out, _ = run_cli(capsys, "moment", "--k", "8", "--T", "2000",
                           "--mode", "direct")
    assert code == 0
    header, row = out.strip().splitlines()
    assert header == "k,T,integral,quad_err"
    assert float(row.split(",")[2]) > 0.0


def test_format_default_from_config(tmp_path, capsys):
    cfg_file = tmp_path / "fmt.cfg"
    cfg_file.write_text("output_format = json\n")
    code, out, _ = run_cli(capsys, "--config", str(cfg_file), "divisors",
                           "--k", "2", "--limit", "3", "--csv")
    assert code == 0
    assert json.loads(out)[0]["n"] == 1


def test_config_file_and_overrides(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("tol_moment = 1e-5\neval_budget = 5000\n# comment\n")
    cfg = load_config(cfg_file, {"seed": 99})
    assert cfg.tol_moment == 1e-5
    assert cfg.eval_budget == 5000
    assert cfg.seed == 99
    with pytest.raises(KeyError):
        load_config(cfg_file, {"no_such_key": 1})


@pytest.mark.parametrize("line", [
    "output_format = xml", "tol_mellin = nan", "tol_mellin = inf",
    "tol_mellin = 0", "tol_mellin = -1e-6", "seed = -1", "--seed=-1",
    "eval_budget = -5",
])
def test_config_value_the_program_cannot_honour_usage_error(tmp_path, capsys,
                                                            line):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text(line + "\n")
    # a line of the file, or the one flag that sets a config value
    front = [line] if line.startswith("--") else ["--config", str(cfg_file)]
    code, out, err = run_cli(capsys, *front, "divisors", "--k", "2",
                             "--limit", "3")
    assert code == 2 and out == "" and "config error" in err


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
