"""Command-line front end.

Subcommands: h1 (one table row), appendix (recompute and compare the embedded
reference tables), verify (property suites), lift (sample/lift sections),
diagnose (level-lowering order table).  Exit codes: 0 success, 1 verification
or comparison failure, 2 usage/parse error, 3 resource guard, 4 lift input
with nonvanishing local data.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import lru_cache
from pathlib import Path

from . import serialize
from .cache import DiskCache
from .engine import h1_filtered, level_descent_diagnostic, use_disk_cache
from .errors import ScheduleFailure, SectionFormatError, TheoremViolation
from .lifting import lift_by_schedule, lift_by_solve, sample_kernel_section
from .linalg import is_prime
from .localdata import local_data_operator, local_data_tensor
from .tables import AppendixReport, TABLE_PRIMES, compare_row, verify_appendix
from .verify import SUITES, run_suites

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_BAD_INPUT_DATA = 4

DEFAULT_ROW_LIMIT = 5000
ROW_LIMIT_ENV = "LOGDOP_ROW_LIMIT"


def _guard(p: int, d: int, args) -> int:
    """EXIT_OK when the job fits the row limit, else the reported exit code."""
    limit = args.row_limit
    if limit is None:
        value = os.environ.get(ROW_LIMIT_ENV, str(DEFAULT_ROW_LIMIT))
        try:
            limit = int(value)
        except ValueError:
            print(f"error: {ROW_LIMIT_ENV} = {value!r} is not an integer",
                  file=sys.stderr)
            return EXIT_USAGE
    rows = (p + 1) * d * (d + 1) // 2
    if rows > limit:
        print(f"error: job size {rows} skyscraper coordinates exceeds the row "
              f"limit {limit} (raise with --row-limit or {ROW_LIMIT_ENV})",
              file=sys.stderr)
        return EXIT_RESOURCE
    return EXIT_OK


def _require_prime(p: int) -> bool:
    if not is_prime(p):
        print(f"error: p = {p} is not prime", file=sys.stderr)
        return False
    return True


def _require_at_least(flag: str, value: int, low: int) -> bool:
    if value < low:
        print(f"error: {flag} {value} is out of range (need {flag} >= {low})",
              file=sys.stderr)
        return False
    return True


def _emit(text: str, out) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _install_cache(args) -> None:
    if getattr(args, "cache", None):
        use_disk_cache(DiskCache(args.cache))


# ---------------------------------------------------------------------------
# h1
# ---------------------------------------------------------------------------

def cmd_h1(args) -> int:
    if not (_require_prime(args.p) and _require_at_least("--d", args.d, 1)
            and _require_at_least("--level", args.level, 0)):
        return EXIT_USAGE
    if code := _guard(args.p, args.d, args):
        return code
    _install_cache(args)
    report = h1_filtered(args.p, args.d, args.level)
    if args.format == "json":
        text = serialize.dump_json(serialize.h1_report_to_doc(report))
    elif args.format == "csv":
        text = serialize.h1_report_to_csv(report, per_degree=args.per_degree)
    else:
        text = serialize.h1_report_to_text(report, per_degree=args.per_degree)
    _emit(text, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# appendix
# ---------------------------------------------------------------------------

def cmd_appendix(args) -> int:
    if (args.p is None) != (args.d is None):
        print("error: single-row mode needs both --p and --d", file=sys.stderr)
        return EXIT_USAGE
    _install_cache(args)
    if args.p is not None:
        if args.p not in TABLE_PRIMES:
            print(f"error: no reference table for p = {args.p}", file=sys.stderr)
            return EXIT_USAGE
        try:
            comparison = compare_row(args.p, args.d)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        if args.format == "json":
            doc = serialize.appendix_report_to_doc(AppendixReport((comparison,)))
            _emit(serialize.dump_json(doc), args.out)
        else:
            _emit(comparison.computed.table_text() + "\n", args.out)
            if not comparison.matches_printed:
                print(f"note: printed row differs: {comparison.printed.table_text()} "
                      f"[{comparison.status()}]", file=sys.stderr)
        return EXIT_OK if comparison.accepted else EXIT_FAILED

    report = verify_appendix()
    if args.format == "json":
        text = serialize.dump_json(serialize.appendix_report_to_doc(report))
    else:
        text = serialize.appendix_report_to_text(report)
    _emit(text, args.out)
    return EXIT_OK if report.all_accepted else EXIT_FAILED


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    results = run_suites(names, seed=args.seed)
    failed = False
    for result in results:
        print(result.summary())
        if not result.passed:
            failed = True
            print(f"  first counterexample: {result.failures[0]}")
    return EXIT_FAILED if failed else EXIT_OK


# ---------------------------------------------------------------------------
# lift
# ---------------------------------------------------------------------------

def _check_path(out) -> str:
    path = Path(out)
    return str(path.with_name(path.stem + ".check.json"))


def cmd_lift(args) -> int:
    if args.sample:
        if args.p is None or args.d is None:
            print("error: --sample needs --p and --d", file=sys.stderr)
            return EXIT_USAGE
        if not (_require_prime(args.p) and _require_at_least("--d", args.d, 1)
                and _require_at_least("--level", args.level, 0)):
            return EXIT_USAGE
        if code := _guard(args.p, args.d, args):
            return code
        delta = sample_kernel_section(args.p, args.d, seed=args.seed, m=args.level)
        _emit(serialize.dump_json(serialize.tensor_to_doc(delta)), args.out)
        return EXIT_OK

    if not args.input:
        print("error: need --input FILE or --sample", file=sys.stderr)
        return EXIT_USAGE
    try:
        doc = serialize.parse_json_document(Path(args.input).read_text())
        delta = serialize.tensor_from_doc(doc)
    except OSError as exc:
        print(f"error: cannot read {args.input}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SectionFormatError as exc:
        where = f" (line {exc.lineno}, column {exc.colno})" if exc.lineno else ""
        print(f"error: {args.input}: {exc}{where}", file=sys.stderr)
        return EXIT_USAGE
    if code := _guard(delta.p, delta.d, args):
        return code

    data = local_data_tensor(delta)
    if not data.is_zero:
        print("error: input section has nonvanishing degree-d local data at:",
              file=sys.stderr)
        for a, k, i in data.nonzero_coordinates():
            print(f"  point {a}, order {k}, power {i}: "
                  f"{data.residue(a, k, i)} mod {delta.p ** (k - i)}", file=sys.stderr)
        return EXIT_BAD_INPUT_DATA

    try:
        if args.method == "schedule":
            lift, check = lift_by_schedule(delta, return_local_data=True)
        else:
            lift, check = lift_by_solve(delta, return_local_data=True)
            if args.method == "both":
                other = lift_by_schedule(delta)
                diff = lift.minus(other)
                agree = local_data_operator(diff).is_zero
                print(f"solve/schedule outputs differ by a lift of zero: {agree}",
                      file=sys.stderr)
                if not agree:
                    return EXIT_FAILED
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (TheoremViolation, ScheduleFailure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILED

    if not check.is_zero:
        print("error: produced lift has residual local data", file=sys.stderr)
        return EXIT_FAILED
    _emit(serialize.dump_json(serialize.operator_to_doc(lift)), args.out)
    if args.check:
        check_text = serialize.dump_json(serialize.local_data_to_doc(check))
        _emit(check_text, _check_path(args.out) if args.out else None)
    return EXIT_OK


# ---------------------------------------------------------------------------
# data
# ---------------------------------------------------------------------------

def cmd_data(args) -> int:
    try:
        doc = serialize.parse_json_document(Path(args.input).read_text())
    except OSError as exc:
        print(f"error: cannot read {args.input}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SectionFormatError as exc:
        print(f"error: {args.input}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        tag = doc.get("format")
        if tag == serialize.FORMAT_TENSOR:
            section = serialize.tensor_from_doc(doc)
            if code := _guard(section.p, section.d, args):
                return code
            data = local_data_tensor(section)
        elif tag == serialize.FORMAT_OPERATOR:
            op = serialize.operator_from_doc(doc)
            if code := _guard(op.p, max(op.d, 1), args):
                return code
            data = local_data_operator(op)
        else:
            print(f"error: {args.input}: cannot take local data of a "
                  f"{tag!r} document", file=sys.stderr)
            return EXIT_USAGE
    except SectionFormatError as exc:
        print(f"error: {args.input}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    _emit(serialize.dump_json(serialize.local_data_to_doc(data)), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# diagnose
# ---------------------------------------------------------------------------

def cmd_diagnose(args) -> int:
    if not (_require_prime(args.p) and _require_at_least("--m", args.m, 0)
            and _require_at_least("--dmax", args.dmax, 1)):
        return EXIT_USAGE
    if code := _guard(args.p, args.dmax, args):
        return code
    _install_cache(args)
    diag = level_descent_diagnostic(args.p, args.m, args.dmax, args.schedule)
    if args.format == "json":
        text = serialize.dump_json(serialize.diagnostic_to_doc(diag))
    elif args.format == "csv":
        text = serialize.diagnostic_to_csv(diag)
    else:
        text = serialize.diagnostic_to_text(diag)
    _emit(text, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="logdop",
        description="Exact H^1 computations for logarithmic differential "
                    "operators on the blown-up projective line.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, cache=True):
        sp.add_argument("--out", help="write output to this path instead of stdout")
        sp.add_argument("--row-limit", type=int, default=None,
                        help=f"job size guard (default {DEFAULT_ROW_LIMIT}; "
                             f"env {ROW_LIMIT_ENV})")
        if cache:
            sp.add_argument("--cache", help="directory for (p, d, m) result cache")

    sp = sub.add_parser("h1", help="compute one H^1 table row")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--level", type=int, default=0, help="divided-power level m")
    sp.add_argument("--per-degree", action="store_true",
                    help="also list each degree summand")
    sp.add_argument("--format", choices=("text", "json", "csv"), default="text")
    common(sp)
    sp.set_defaults(func=cmd_h1)

    sp = sub.add_parser("appendix", help="recompute the reference tables")
    sp.add_argument("--verify", action="store_true",
                    help="explicit comparison mode (comparison always runs)")
    sp.add_argument("--p", type=int, help="single-row mode: prime")
    sp.add_argument("--d", type=int, help="single-row mode: degree")
    sp.add_argument("--format", choices=("text", "json"), default="text")
    common(sp)
    sp.set_defaults(func=cmd_appendix)

    sp = sub.add_parser("verify", help="run property suites")
    sp.add_argument("--suite", choices=tuple(SUITES) + ("all",), required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("lift", help="lift a vanishing-data tensor section")
    sp.add_argument("--input", help="tensor-section JSON file")
    sp.add_argument("--sample", action="store_true",
                    help="emit a seeded random vanishing-data section instead")
    sp.add_argument("--p", type=int)
    sp.add_argument("--d", type=int)
    sp.add_argument("--level", type=int, default=0)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--method", choices=("solve", "schedule", "both"),
                    default="solve")
    sp.add_argument("--check", action="store_true",
                    help="also emit the lift's local data (all zeros expected)")
    common(sp, cache=False)
    sp.set_defaults(func=cmd_lift)

    sp = sub.add_parser("data", help="local data of a section/operator file")
    sp.add_argument("--input", required=True,
                    help="tensor-section or operator JSON file")
    common(sp, cache=False)
    sp.set_defaults(func=cmd_data)

    sp = sub.add_parser("diagnose", help="level-lowering order diagnostics")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--dmax", type=int, required=True)
    sp.add_argument("--schedule", choices=("sqrt", "zero"), default="sqrt")
    sp.add_argument("--format", choices=("text", "json", "csv"), default="text")
    common(sp)
    sp.set_defaults(func=cmd_diagnose)

    return parser


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    # built on the first main() call, not at import: the handlers it binds are
    # looked up then, and a process running many commands builds it once
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except SectionFormatError as exc:  # a corrupt --cache entry
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
