"""Command-line front door: solve, verify, sweep and precision-scan workflows.

Every command prints a single JSON object to stdout (diagnostics go to
stderr) so output is machine-readable end to end.  Exit codes: 0 success
(or solution found), 1 no solution / mismatches found, 2 usage error, 3
unwritable output destination.  A handler returns 0 or 1; ``main`` alone
maps a ``ValueError`` naming a command field to 2, an ``EmitError`` to 3.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from collections.abc import Sequence
from dataclasses import asdict

from . import bench
from .bench import (
    ALGORITHMS,
    EmitError,
    InsufficientDataError,
    SweepConfig,
    check_solver_options,
    scan_as_dict,
)
from .numerics import NumericMode, parse_mode
from .rotor import DlogInstance, SolveReport

_VERIFY_P_MAX_LIMIT = 500  # guard against accidental multi-hour exhaustive runs
_DEFAULT_SEED = 1
# Library fields set by a flag of another name, and their "field=value" mentions.
_FLAG_OF_FIELD = {"p_min": "--p-min", "p_max": "--p-max", "samples_per_p": "--samples"}
_FIELD_RE = re.compile(rf"\b({'|'.join(_FLAG_OF_FIELD)})\b(?:=([^,\s]+))?")


def _mode_arg(text: str) -> NumericMode:
    try:
        return parse_mode(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arcrotor",
        description="Discrete-log toolkit: rotor solvers, oracles and benchmark sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve one instance x^k = y (mod p)")
    solve.add_argument("--p", type=int, required=True, help="modulus (>= 2)")
    solve.add_argument("--x", type=int, required=True, help="base, 1 <= x < p")
    solve.add_argument("--y", type=int, required=True, help="target, 1 <= y < p")
    solve.add_argument(
        "--algo",
        choices=ALGORITHMS,
        default="rotor-int",
        help="solver to run (default: rotor-int)",
    )
    solve.add_argument(
        "--mode",
        type=_mode_arg,
        default="exact",
        help="numeric mode for rotor-real: exact, float64 or fixed:<bits> (default: exact)",
    )
    solve.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help="comparison tolerance in degrees (default: half the angular step; 0 in exact mode)",
    )
    solve.set_defaults(handler=_cmd_solve)

    verify = sub.add_parser(
        "verify", help="exhaustively check solver agreement for all p <= p-max"
    )
    verify.add_argument(
        "--p-max",
        type=int,
        required=True,
        help=f"largest modulus to cover, in [2, {_VERIFY_P_MAX_LIMIT}]",
    )
    verify.set_defaults(handler=_cmd_verify)

    sweep = sub.add_parser("sweep", help="measurement sweep with complexity fits")
    sweep.add_argument("--p-min", type=int, required=True)
    sweep.add_argument("--p-max", type=int, required=True)
    sweep.add_argument("--samples", type=int, default=5, help="instances per modulus")
    sweep.add_argument("--seed", type=int, default=_DEFAULT_SEED)
    sweep.add_argument("--algo", choices=ALGORITHMS, default="rotor-int")
    sweep.add_argument("--mode", type=_mode_arg, default="exact")
    sweep.add_argument("--tolerance", type=float, default=None)
    sweep.add_argument(
        "--prime-only",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="restrict moduli to primes (default: on)",
    )
    sweep.add_argument(
        "--median",
        action="store_true",
        help="aggregate op counts by median instead of mean before fitting",
    )
    sweep.add_argument("--out", required=True, help="destination file for the records")
    sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    sweep.set_defaults(handler=_cmd_sweep)

    scan = sub.add_parser(
        "precision-scan", help="find the smallest p where an approximate mode fails"
    )
    scan.add_argument(
        "--mode",
        type=_mode_arg,
        required=True,
        help="approximate mode to probe: float64 or fixed:<bits>",
    )
    scan.add_argument("--tolerance", type=float, default=None)
    scan.add_argument("--p-min", type=int, default=3)
    scan.add_argument("--p-max", type=int, required=True)
    scan.add_argument("--samples", type=int, default=3, help="instances per modulus")
    scan.add_argument("--seed", type=int, default=_DEFAULT_SEED)
    scan.add_argument(
        "--scan-all",
        action="store_true",
        help="census the full range instead of stopping at the first failing p",
    )
    scan.add_argument("--out", required=True, help="destination file for the census")
    scan.add_argument("--format", choices=("csv", "json"), default="csv")
    scan.set_defaults(handler=_cmd_precision_scan)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv) if argv is not None else None)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return int(args.handler(args))
    except EmitError as exc:
        message, code = str(exc), 3
    except ValueError as exc:
        message, code = _usage_error(exc, args), 2
        if message is None:
            raise
    print(f"error: {message}", file=sys.stderr)
    return code


def cli_entrypoint() -> None:
    raise SystemExit(main())


def _emit_json(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True))


# ---------------------------------------------------------------------------
# Handlers
# ---------------------------------------------------------------------------
# A handler returns its exit code, 0 or 1, and raises on failure; main maps
# an EmitError to 3 and a ValueError to 2, with _usage_error's text.  Library
# checks word their messages to start with the offending field's name, so
# that text names the flag the user typed; one naming no field propagates.


def _usage_error(exc: ValueError, args: argparse.Namespace) -> str | None:
    """A library ValueError's message for exit 2, naming flags and the values as typed.

    A value the library checked in another form (precision-scan raises
    --p-min to 3) is reported as typed, followed by the value checked.  None
    when the message does not start with a field of the command.
    """

    def as_flag(match: re.Match) -> str:
        flag = _FLAG_OF_FIELD[match[1]]
        if match[2] is None:
            return flag
        typed = str(getattr(args, flag[2:].replace("-", "_")))
        return f"{flag} {typed}" + ("" if typed == match[2] else f" (checked as {match[2]})")

    message = _FIELD_RE.sub(as_flag, str(exc))
    if message.startswith("--"):
        return message
    return f"--{message}" if message.partition(" ")[0] in vars(args) else None


def _solve_payload(report: SolveReport) -> dict:
    counts = asdict(report.counters)
    return {"k": report.k, "found": report.found, "reason": report.reason.value, **counts}


def _cmd_solve(args: argparse.Namespace) -> int:
    inst = DlogInstance(args.p, args.x, args.y)
    check_solver_options(args.algo, args.mode, args.tolerance)
    report = bench.solve(args.algo, inst, args.mode, args.tolerance)
    _emit_json(_solve_payload(report))
    return 0 if report.found else 1


def _cmd_verify(args: argparse.Namespace) -> int:
    if not 2 <= args.p_max <= _VERIFY_P_MAX_LIMIT:
        raise ValueError(
            f"p_max must lie in [2, {_VERIFY_P_MAX_LIMIT}] "
            f"(guard against runaway runs), got {args.p_max}"
        )
    result = bench.verify_equivalence(args.p_max)
    _emit_json({"command": "verify", **asdict(result)})
    return 0 if result.mismatches == 0 else 1


def _cmd_sweep(args: argparse.Namespace) -> int:
    cfg = SweepConfig(
        p_min=args.p_min,
        p_max=args.p_max,
        samples_per_p=args.samples,
        seed=args.seed,
        prime_only=args.prime_only,
        algo=args.algo,
        mode=args.mode,
        tolerance=args.tolerance,
    )
    records = bench.run_sweep(cfg)
    bench.emit_results(records, args.format, args.out)

    aggregate = "median" if args.median else "mean"
    # Instances answered by the k=0/k=1 pre-checks cost zero ops and cannot
    # enter a log-log fit; drop them from the fit input only.
    fittable = [r for r in records if r.counters.total_arithmetic > 0]
    if len(fittable) < len(records):
        print(
            f"note: {len(records) - len(fittable)} zero-op record(s) excluded from fits",
            file=sys.stderr,
        )
    fits: dict[str, dict | None] = {}
    for n_def in ("p", "bits_of_p"):
        try:
            fits[n_def] = asdict(bench.fit_complexity(fittable, n_def, aggregate))
        except InsufficientDataError as exc:
            print(f"note: no fit against n={n_def}: {exc}", file=sys.stderr)
            fits[n_def] = None

    bits_fit = fits["bits_of_p"]
    doubling = 2.0 ** bits_fit["exponent"] if bits_fit is not None else None
    correct = sum(1 for r in records if r.correct)
    _emit_json(
        {
            "command": "sweep",
            "seed": cfg.seed,
            "algo": cfg.algo,
            "mode": str(cfg.mode),
            "p_min": cfg.p_min,
            "p_max": cfg.p_max,
            "samples_per_p": cfg.samples_per_p,
            "prime_only": cfg.prime_only,
            "aggregate": aggregate,
            "records": len(records),
            "correct_fraction": (correct / len(records)) if records else None,
            "fits": fits,
            "ops_multiplier_per_bits_doubling": doubling,
            "out": str(args.out),
            "format": args.format,
        }
    )
    return 0


def _cmd_precision_scan(args: argparse.Namespace) -> int:
    report = bench.precision_scan(
        mode=args.mode,
        tolerance=args.tolerance,
        p_max=args.p_max,
        samples_per_p=args.samples,
        seed=args.seed,
        p_min=args.p_min,
        stop_at_first_failure=not args.scan_all,
    )
    bench.emit_results(report, args.format, args.out)

    payload = scan_as_dict(report)
    del payload["census"]  # full census lives in the output file
    payload["command"] = "precision-scan"
    payload["out"] = str(args.out)
    payload["format"] = args.format
    _emit_json(payload)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
