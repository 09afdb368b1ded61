"""Batch command-line front end.

Subcommands: z, moment, mellin, divisors, verify.  Tables stream as CSV
with fixed 17-significant-digit scientific notation (JSON mirrors the same
values); identical arguments and seed give bit-identical output.  Exit codes:
0 ok, 1 verification failure, 2 usage error, 3 budget/accuracy failure.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import mellin as ML
from . import verify
from .arith import divisor_sieve
from .errors import (CapacityError, ConvergenceError, DomainError, FitError,
                     NumericsError, PoleError)
from .explicit import moment_main_term, sum_range
from .hardy import z_err_est, z_eval_many, z_oracle_many
from .moments import hardy_moment
from .reportio import fmt, to_json

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
MAX_ROWS = 1_000_000  # a larger z or mellin table exits 2 before any work
Z_ROWS = 1 << 14  # a z table's heights per evaluation; its rows stream


def _emit_table(header, rows, out, fm: str) -> None:
    # each row is written as it arrives; a reader that closes the pipe ends
    # the table, and its fd then points at os.devnull so no flush raises again
    with open(out, "w") if out else contextlib.nullcontext(sys.stdout) as fh:
        try:
            if fm == "json":
                sep = "[\n  "
                for row in rows:
                    fh.write(sep + to_json(dict(zip(header, row)), 1))
                    sep = ",\n  "
                fh.write("[]\n" if sep[0] == "[" else "\n]\n")
            else:
                fh.write(",".join(header) + "\n")
                for row in rows:
                    fh.write(",".join(map(fmt, row)) + "\n")
            fh.flush()
        except BrokenPipeError:
            with open(os.devnull, "w") as null:
                os.dup2(null.fileno(), fh.fileno())


def cmd_z(args) -> int:
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
    n = int(np.floor(span + 1e-9)) + 1

    def rows(i):
        ts = args.frm + args.step * i
        oracle = [z_oracle_many(ts)] if args.oracle else []
        cols = [ts, z_eval_many(ts, args.corrections), *oracle,
                z_err_est(ts, args.corrections)]
        return zip(*(c.tolist() for c in cols))
    # domains are intervals, heights ascend: a bad grid fails at its ends
    rows(np.array([0, n - 1]))
    table = (row for lo in range(0, n, Z_ROWS)
             for row in rows(np.arange(lo, min(lo + Z_ROWS, n))))
    _emit_table(["t", "z_rs"] + ["z_oracle"] * args.oracle + ["err_est"],
                table, args.out, args.format)
    return EXIT_OK


def cmd_moment(args) -> int:
    k, T = args.k, args.T
    # here, not only in divisor_sieve: --mode explicit runs sum_range first,
    # and --k 9 --T 1000 would exit on a table-capacity message, not on k
    if not 1 <= k <= 4:
        print(f"moment: k must be in 1..4, got {k}", file=sys.stderr)
        return EXIT_USAGE
    if not (math.isfinite(T) and T >= 1.0):
        print("moment: requires a finite T >= 1", file=sys.stderr)
        return EXIT_USAGE
    header, row = ["k", "T"], [k, T]
    if args.mode in ("direct", "both"):
        mi = hardy_moment(k, T, 2.0 * T)
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


# per mellin mode, its k and the options it does not read (unset: None, False)
_MODES = {"laurent": (2, ("X", "sigma", "t", "decompose")),
          "decompose": (3, ())}


def cmd_mellin(args) -> int:
    k = args.k
    mode = "laurent" if args.laurent else "decompose" if args.decompose else ""
    need, unread = _MODES.get(mode, (k, ()))
    given = [name for name in unread if getattr(args, name) not in (None, False)]
    if given or k != need:
        why = f"does not read --{given[0]}" if given else f"requires k = {need}"
        print(f"mellin: --{mode} {why}", file=sys.stderr)
        return EXIT_USAGE
    if args.laurent:
        _emit_table(["c_minus2", "c_minus1", "c_0"],
                    [ML.laurent_fit_at_1(ML.laurent_samples())], args.out, args.format)
        return EXIT_OK
    grid = _s_grid(args.sigma or "2:3:2", args.t or "0:0:1")
    s = [complex(sig, t) for sig, t in grid]
    if args.decompose:
        if args.X is None:
            print("mellin: --decompose requires --X", file=sys.stderr)
            return EXIT_USAGE
        # one engine call per grid, the bits of per-row calls
        decomp = ML.m3_decomposition(s, args.X)
        rows = ((sig, t, d["v1"], d["v2"], d["sum"], d["m3"], d["gap_rel"])
                for (sig, t), d in zip(grid, decomp))
        _emit_table(["sigma", "t", "v1", "v2", "sum", "m3", "gap_rel"],
                    rows, args.out, args.format)
        return EXIT_OK
    # one engine call per (X, band) grid, the bits of per-row calls
    samples = ML.mellin_by_parts_samples(k, s, X=args.X)
    rows = ((k, sig, t, m.value.real, m.value.imag, m.X, m.tail_bound)
            for (sig, t), m in zip(grid, samples))
    _emit_table(["k", "sigma", "t", "re", "im", "X", "tail_bound"],
                rows, args.out, args.format)
    return EXIT_OK


def cmd_divisors(args) -> int:
    table = divisor_sieve(args.k, args.limit)
    rows = zip(range(1, table.limit + 1), map(int, table.counts[1:]))
    _emit_table(["n", f"d_{table.k}"], rows, args.out, args.format)
    return EXIT_OK


def cmd_verify(args) -> int:
    names = args.suites or ["all"]
    try:
        bundle = verify.run(names, seed=args.seed)
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


def _seed(text: str) -> int:
    # numpy's generators refuse a negative seed: exit 2 before any work
    if (seed := int(text)) < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {seed}")
    return seed


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hardylab",
        description="Numerical laboratory for Hardy's Z function, its "
                    "moments, and modified Mellin transforms")
    ap.add_argument("--seed", type=_seed, default=verify.SEED,
                    help=f"seed for sampled suites (default {verify.SEED})")
    sub = ap.add_subparsers(dest="command", required=True)
    # the table commands' output options
    table = argparse.ArgumentParser(add_help=False)
    table.add_argument("--format", choices=("csv", "json"), default="csv")
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
    p.add_argument("--k", type=int, required=True, help="power of Z, 1..4")
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--mode", choices=("direct", "explicit", "both"),
                   default="both")

    p = sub.add_parser("mellin", help="Mellin transform values on an s-grid",
                       parents=[table])
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--sigma", help="grid a:b:n for Re s (default 2:3:2)")
    p.add_argument("--t", help="grid a:b:n for Im s (default 0:0:1)")
    p.add_argument("--X", type=float, help="truncation height override")
    p.add_argument("--laurent", action="store_true",
                   help="fit the double pole at s = 1 (k = 2)")
    p.add_argument("--decompose", action="store_true",
                   help="cosine-series + residual split (k = 3)")

    p = sub.add_parser("divisors", help="exact d_k tables", parents=[table])
    p.add_argument("--k", type=int, required=True, help="1..4")
    p.add_argument("--limit", type=int, default=100)

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
    # an output path that cannot be written fails before any work
    path = args.out
    if path and (Path(path).is_dir() or not Path(path).parent.is_dir()):
        print(f"{args.command}: --out {path}: not a file in an existing "
              "directory", file=sys.stderr)
        return EXIT_USAGE
    handlers = {
        "z": cmd_z, "moment": cmd_moment, "mellin": cmd_mellin,
        "divisors": cmd_divisors, "verify": cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except (DomainError, PoleError, CapacityError, ConvergenceError,
            FitError, ValueError) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericsError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
