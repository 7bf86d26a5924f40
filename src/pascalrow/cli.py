"""Command-line front end: row, power, theta, verify, bench.

Exit codes: 0 success, 1 verification failure, 2 usage error (also an
unwritable --out, or a verify worker process that died). Data goes to
stdout (or --out), diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import bignat, rowgen, verify_bench
from .row import Method

THRESHOLD_ENV_VAR = "PASCAL_KARATSUBA_THRESHOLD"

_METHOD_FLAGS = {
    "power": Method.POWER_PARTITION,
    "mult": Method.MULTIPLICATIVE,
    "rec": Method.RECURRENCE,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pascalrow",
        description=(
            "Generate rows of Pascal's triangle by partitioning the decimal "
            "digits of (10**(theta+1) + 1)**n into theta+1 wide blocks."
        ),
    )
    parser.add_argument(
        "--karatsuba-threshold",
        type=int,
        metavar="LIMBS",
        default=None,
        help=(
            "operand size at which multiplication switches to the "
            f"subquadratic path (>= 2; overrides ${THRESHOLD_ENV_VAR})"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    row = sub.add_parser("row", help="print the coefficients of row n")
    row.add_argument("n", type=int)
    row.add_argument("--method", choices=sorted(_METHOD_FLAGS), default="power")
    row.add_argument("--format", choices=("plain", "csv", "json"), default="plain")

    power = sub.add_parser("power", help="print (10**(theta+1) + 1)**n")
    power.add_argument("n", type=int)
    power.add_argument(
        "--annotate",
        action="store_true",
        help="separate the theta+1 wide digit blocks with '|'",
    )

    theta = sub.add_parser("theta", help="print the block geometry for row n")
    theta.add_argument("n", type=int)

    verify = sub.add_parser("verify", help="run the check families over a range of n")
    verify.add_argument("--from", dest="n_from", type=int, required=True, metavar="A")
    verify.add_argument("--to", dest="n_to", type=int, required=True, metavar="B")
    verify.add_argument(
        "--checks",
        default=None,
        metavar="LIST",
        help="comma-separated subset of: " + ",".join(verify_bench.CHECK_NAMES),
    )
    verify.add_argument("--samples", type=int, default=5, metavar="K")
    verify.add_argument("--seed", type=int, default=0, metavar="S")
    verify.add_argument("--format", choices=("csv", "jsonl"), default="jsonl")
    verify.add_argument("--out", default=None, metavar="FILE")

    bench = sub.add_parser("bench", help="time the three generation methods")
    bench.add_argument("--from", dest="n_from", type=int, required=True, metavar="A")
    bench.add_argument("--to", dest="n_to", type=int, required=True, metavar="B")
    bench.add_argument("--step", type=int, default=1, metavar="S")
    bench.add_argument("--reps", type=int, default=1, metavar="R")
    bench.add_argument("--out", default=None, metavar="FILE")

    return parser


def run_cli(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        _apply_threshold(args.karatsuba_threshold)
        if args.command == "row":
            return _cmd_row(args)
        if args.command == "power":
            return _cmd_power(args)
        if args.command == "theta":
            return _cmd_theta(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_bench(args)
    except (ValueError, OSError) as exc:
        print(f"pascalrow: error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli())


def _apply_threshold(flag_value: int | None) -> None:
    if flag_value is not None:
        bignat.set_karatsuba_threshold(flag_value)
        return
    env_value = os.environ.get(THRESHOLD_ENV_VAR)
    if env_value is None:
        return
    try:
        parsed = int(env_value)
    except ValueError:
        raise ValueError(
            f"${THRESHOLD_ENV_VAR} must be an integer >= 2, got {env_value!r}"
        ) from None
    bignat.set_karatsuba_threshold(parsed)


def _cmd_row(args) -> int:
    row = rowgen.generate_row(_METHOD_FLAGS[args.method], args.n)
    if args.format == "plain":
        print(" ".join(str(c) for c in row.coefficients))
    elif args.format == "csv":
        print("n,k,coefficient")
        for k, coefficient in enumerate(row.coefficients):
            print(f"{row.n},{k},{coefficient}")
    else:
        print(
            json.dumps(
                {
                    "n": row.n,
                    "method": row.method.value,
                    "coefficients": [str(c) for c in row.coefficients],
                }
            )
        )
    return 0


def _cmd_power(args) -> int:
    text = str(rowgen.power_integer(args.n))
    if args.annotate:
        width = rowgen.theta(args.n).block_width
        stops = range(len(text), 0, -width)
        blocks = [text[max(0, stop - width) : stop] for stop in stops]
        text = "|".join(reversed(blocks))
    print(text)
    return 0


def _cmd_theta(args) -> int:
    geometry = rowgen.theta(args.n)
    base = rowgen.eleven_variant(geometry)
    print(
        f"n={geometry.n} central_digits={geometry.block_width} "
        f"theta={geometry.theta} base={base}"
    )
    return 0


def _cmd_verify(args) -> int:
    checks = None
    if args.checks is not None:
        checks = [name.strip() for name in args.checks.split(",") if name.strip()]
    report = verify_bench.verify_range_parallel(
        args.n_from,
        args.n_to,
        checks=checks,
        residue_samples=args.samples,
        seed=args.seed,
    )
    verify_bench.emit_report(report, args.format, args.out)
    status = "PASS" if report.passed else "FAIL"
    print(
        f"verify n={args.n_from}..{args.n_to} seed={args.seed} "
        f"samples={args.samples}: {status}",
        file=sys.stderr,
    )
    return 0 if report.passed else 1


def _cmd_bench(args) -> int:
    records = verify_bench.bench_methods(
        args.n_from, args.n_to, step=args.step, repetitions=args.reps
    )
    verify_bench.emit_report(records, "csv", args.out)
    return 0
