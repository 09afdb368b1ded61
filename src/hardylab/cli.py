"""Batch command-line front end.

Subcommands: z, moment, mellin, divisors, verify.  Tables stream as CSV
with fixed 17-significant-digit scientific notation (JSON mirrors the same
values); identical config and seed give bit-identical output.  Exit codes:
0 ok, 1 verification failure, 2 usage error, 3 budget/accuracy failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import mellin as ML
from . import verify
from .arith import divisor_sieve, dump_table, load_table
from .config import RunConfig, load_config
from .errors import (AccuracyError, BudgetError, CapacityError,
                     ConvergenceError, DomainError, FitError, NumericsError,
                     PoleError)
from .explicit import moment_main_term, sum_range
from .hardy import z_err_est, z_eval_many, z_oracle_many
from .moments import hardy_moment
from .reportio import fmt, to_json

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
MAX_ROWS = 1_000_000  # a larger z or mellin table exits 2 before any work


def _emit_table(header, rows, out, fm: str) -> None:
    fh = open(out, "w") if out else sys.stdout
    try:
        if fm == "json":
            payload = [dict(zip(header, row)) for row in rows]
            fh.write(to_json(payload) + "\n")
        else:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(fmt(v) for v in row) + "\n")
    finally:
        if out:
            fh.close()


def cmd_z(args, cfg: RunConfig) -> int:
    if not all(math.isfinite(v) for v in (args.frm, args.to, args.step)):
        print("z: --from, --to and --step must be finite", file=sys.stderr)
        return EXIT_USAGE
    if args.step <= 0 or args.to <= args.frm:
        print("z: requires --from < --to and --step > 0", file=sys.stderr)
        return EXIT_USAGE
    span = (args.to - args.frm) / args.step
    if not span < MAX_ROWS:
        print(f"z: the grid has more than {MAX_ROWS} rows", file=sys.stderr)
        return EXIT_USAGE
    ts = args.frm + args.step * np.arange(int(np.floor(span + 1e-9)) + 1)
    header = ["t", "z_rs", "err_est"]
    cols = [ts, z_eval_many(ts, args.corrections),
            z_err_est(ts, args.corrections)]
    if args.oracle:
        header.insert(2, "z_oracle")
        cols.insert(2, z_oracle_many(ts))
    rows = [tuple(float(c[i]) for c in cols) for i in range(len(ts))]
    _emit_table(header, rows, args.out, args.format)
    return EXIT_OK


def cmd_moment(args, cfg: RunConfig) -> int:
    k, T = args.k, args.T
    if not 1 <= k <= 8 or (args.mode != "direct" and k > 4):
        print(f"moment: unsupported k={k} for mode {args.mode}", file=sys.stderr)
        return EXIT_USAGE
    if T < 1.0:
        print("moment: requires T >= 1", file=sys.stderr)
        return EXIT_USAGE
    header, row = ["k", "T"], [k, T]
    if args.mode in ("direct", "both"):
        mi = hardy_moment(k, T, 2.0 * T, budget=cfg.eval_budget)
        header += ["integral", "quad_err"]
        row += [mi.value, mi.abs_err_est]
    if args.mode in ("explicit", "both"):
        table = divisor_sieve(k, max(sum_range(k, T)[1], 16))
        ms = moment_main_term(k, T, table)
        header += ["cosine_sum", "n_lo", "n_hi"]
        row += [ms.value, ms.n_lo, ms.n_hi]
    if args.mode == "both":
        header += ["residual", "residual_scaled"]
        row += [mi.value - ms.value,
                abs(mi.value - ms.value) / T ** (k / 4.0)]
    _emit_table(header, [tuple(row)], args.out, args.format)
    return EXIT_OK


def _s_grid(sigma: str, t: str) -> list[tuple[float, float]]:
    """The (sigma, t) pairs of two a:b:n grids, sigma-major."""
    (a, b, m), (c, d, n) = sigma.split(":"), t.split(":")
    m, n = int(m), int(n)
    if min(m, n) < 1:
        raise ValueError("grid needs n >= 1")
    if m * n > MAX_ROWS:
        raise ValueError(f"the s-grid has more than {MAX_ROWS} points")
    a, b, c, d = map(float, (a, b, c, d))
    if not all(map(math.isfinite, (a, b, c, d))):
        raise ValueError("--sigma and --t bounds must be finite")
    ts = np.linspace(c, d, n).tolist()
    return [(sig, tt) for sig in np.linspace(a, b, m).tolist() for tt in ts]


def cmd_mellin(args, cfg: RunConfig) -> int:
    k = args.k
    if not 1 <= k <= 4:
        print(f"mellin: k must be in 1..4, got {k}", file=sys.stderr)
        return EXIT_USAGE
    if args.X is not None and not args.X <= ML._X_CAP:
        print(f"mellin: --X must be at most {ML._X_CAP:g}", file=sys.stderr)
        return EXIT_USAGE
    if args.laurent:
        if k != 2:
            print("mellin: --laurent requires k = 2", file=sys.stderr)
            return EXIT_USAGE
        c2, c1, c0 = ML.laurent_fit_at_1(ML.laurent_samples())
        _emit_table(["c_minus2", "c_minus1", "c_0"], [(c2, c1, c0)],
                    args.out, args.format)
        return EXIT_OK
    grid = _s_grid(args.sigma, args.t)
    s = [complex(sig, t) for sig, t in grid]
    if args.decompose:
        if k != 3:
            print("mellin: --decompose requires k = 3", file=sys.stderr)
            return EXIT_USAGE
        if args.X is None:
            print("mellin: --decompose requires --X", file=sys.stderr)
            return EXIT_USAGE
        # one engine call per grid, the bits of per-row calls
        decomp = ML.m3_decomposition(s, args.X, divisor_sieve(3, 20000))
        rows = [(sig, t, d["v1"], d["v2"], d["sum"], d["m3"], d["gap_rel"])
                for (sig, t), d in zip(grid, decomp)]
        _emit_table(["sigma", "t", "v1", "v2", "sum", "m3", "gap_rel"],
                    rows, args.out, args.format)
        return EXIT_OK
    if args.method == "direct":
        samples = [ML.mellin_direct(k, sv, X=2000.0 if args.X is None else args.X)
                   for sv in s]
    else:
        # one engine call per (X, band) grid, the bits of per-row calls
        samples = ML.mellin_by_parts_samples(k, s, tol=cfg.tol_mellin, X=args.X)
    rows = [(k, sig, t, m.value.real, m.value.imag, m.X, m.tail_bound,
             m.method) for (sig, t), m in zip(grid, samples)]
    _emit_table(["k", "sigma", "t", "re", "im", "X", "tail_bound", "method"],
                rows, args.out, args.format)
    return EXIT_OK


def cmd_divisors(args, cfg: RunConfig) -> int:
    if args.k < 1 or args.k > 8:
        print(f"divisors: k must be 1..8, got {args.k}", file=sys.stderr)
        return EXIT_USAGE
    if args.load:
        table = load_table(args.load)
        if table.k != args.k:
            print(f"divisors: {args.load} holds d_{table.k}, not d_{args.k}",
                  file=sys.stderr)
            return EXIT_USAGE
    else:
        table = divisor_sieve(args.k, args.limit)
    if args.dump:
        dump_table(table, args.dump)
    if args.csv or not args.dump:
        rows = [(n, int(table.counts[n]))
                for n in range(1, min(table.limit, args.limit) + 1)]
        _emit_table(["n", f"d_{table.k}"], rows, args.out, args.format)
    return EXIT_OK


def cmd_verify(args, cfg: RunConfig) -> int:
    names = args.suites or ["all"]
    try:
        bundle = verify.run(names, cfg)
    except KeyError as exc:
        print(f"verify: {exc}", file=sys.stderr)
        return EXIT_USAGE
    text = to_json(bundle) + "\n"
    out = args.out or "hardylab_verify.json"
    Path(out).write_text(text)
    for name, suite in bundle["suites"].items():
        for check in suite["checks"]:
            status = "PASS" if check["pass"] else "FAIL"
            print(f"[{status}] {name}/{check['name']}: value={fmt(check['value'])} "
                  f"limit={fmt(check['limit'])}")
    print(f"overall: {'PASS' if bundle['pass'] else 'FAIL'}")
    return EXIT_OK if bundle["pass"] else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hardylab",
        description="Numerical laboratory for Hardy's Z function, its "
                    "moments, and modified Mellin transforms")
    ap.add_argument("--config", help="flat key=value config file")
    ap.add_argument("--seed", type=int, help="seed for sampled property suites")
    sub = ap.add_subparsers(dest="command", required=True)
    # the table commands' output options
    table = argparse.ArgumentParser(add_help=False)
    table.add_argument("--format", choices=("csv", "json"))
    table.add_argument("--out")

    p = sub.add_parser("z", help="tabulate Z(t)", parents=[table])
    p.add_argument("--from", dest="frm", type=float, required=True)
    p.add_argument("--to", type=float, required=True)
    p.add_argument("--step", type=float, required=True)
    p.add_argument("--corrections", type=int, default=3, choices=range(5))
    p.add_argument("--oracle", action="store_true",
                   help="add the Euler-Maclaurin oracle column")

    p = sub.add_parser("moment", help="dyadic moment of Z^k over [T, 2T]",
                       parents=[table])
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--mode", choices=("direct", "explicit", "both"),
                   default="both")

    p = sub.add_parser("mellin", help="Mellin transform values on an s-grid",
                       parents=[table])
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--sigma", default="2:3:2", help="grid a:b:n for Re s")
    p.add_argument("--t", default="0:0:1", help="grid a:b:n for Im s")
    p.add_argument("--method", choices=("by_parts", "direct"),
                   default="by_parts")
    p.add_argument("--X", type=float, help="truncation height override")
    p.add_argument("--laurent", action="store_true",
                   help="fit the double pole at s = 1 (k = 2)")
    p.add_argument("--decompose", action="store_true",
                   help="cosine-series + residual split (k = 3)")

    p = sub.add_parser("divisors", help="exact d_k tables", parents=[table])
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--limit", type=int, default=100)
    p.add_argument("--dump", help="write binary table")
    p.add_argument("--load", help="read binary table")
    p.add_argument("--csv", action="store_true")

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("suites", nargs="*",
                   help=f"suite names or 'all'; available: {', '.join(verify.SUITES)}")
    p.add_argument("--out", help="report bundle path "
                   "(default hardylab_verify.json)")
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    overrides = {} if args.seed is None else {"seed": args.seed}
    try:
        cfg = load_config(args.config, overrides)
    except (KeyError, ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if getattr(args, "format", None) is None:
        args.format = cfg.output_format
    # an output path that cannot be written fails before any work
    out = getattr(args, "out", None)
    if out and (Path(out).is_dir() or not Path(out).parent.is_dir()):
        print(f"{args.command}: --out {out}: not a file in an existing "
              "directory", file=sys.stderr)
        return EXIT_USAGE
    handlers = {
        "z": cmd_z, "moment": cmd_moment, "mellin": cmd_mellin,
        "divisors": cmd_divisors, "verify": cmd_verify,
    }
    try:
        return handlers[args.command](args, cfg)
    except (BudgetError, AccuracyError) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (DomainError, PoleError, CapacityError, ConvergenceError,
            FitError, ValueError) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericsError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
