"""Command-line front end.

Subcommands: h1 (one table row), appendix (recompute and compare the embedded
reference tables), verify (property suites), lift (sample/lift sections),
data (local data of a file), diagnose (level-lowering order table).  Exit
codes: 0 success, 1 verification or comparison failure, 2 usage/parse error,
3 resource guard, 4 lift input with nonvanishing local data; main prints each
one-line ``error:`` refusal (a _Refusal, a corrupt cache entry or a cache
entry that cannot be written) and each failed self-check of any command
(an InvariantViolation, exit 1).  A --cache ends with its command:
the handler passes its DiskCache down as an argument, and no module keeps it.
Standard output, output files and standard error are UTF-8 whatever the
locale (_emit and _stderr, both through _write), and a caller may swap
either standard stream for one without a byte buffer.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from contextlib import contextmanager
from functools import lru_cache
from pathlib import Path

from . import serialize
from .cache import DiskCache
from .engine import SCHEDULES, h1_filtered, level_descent_diagnostic
from .errors import (
    CacheWriteError,
    InvariantViolation,
    NonvanishingLocalData,
    SectionFormatError,
)
from .lifting import lift_by_schedule, lift_by_solve, sample_kernel_section
from .linalg import require_prime
from .localdata import local_data_operator, local_data_tensor
from .tables import AppendixReport, TABLE_PRIMES, compare_row, verify_appendix
from .verify import SUITES

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_BAD_INPUT_DATA = 4

DEFAULT_ROW_LIMIT = 5000
ROW_LIMIT_ENV = "LOGDOP_ROW_LIMIT"


class _Refusal(Exception):
    """A command that will not run: main prints ``error: {message}``, exits ``code``."""

    def __init__(self, message: str, code: int = EXIT_USAGE):
        super().__init__(message)
        self.code = code


def _guard(p: int, d: int, args) -> None:
    """Refuse a job larger than the row limit (exit 3), or a bad limit."""
    limit, source = args.row_limit, "--row-limit"
    if limit is None:
        value = os.environ.get(ROW_LIMIT_ENV, str(DEFAULT_ROW_LIMIT))
        try:
            limit, source = int(value), ROW_LIMIT_ENV
        except ValueError:
            raise _Refusal(f"{ROW_LIMIT_ENV} = {value!r} is not an integer") from None
    _require_at_least(source, limit, 1)
    rows = (p + 1) * d * (d + 1) // 2
    if rows > limit:
        raise _Refusal(f"job size {rows} skyscraper coordinates exceeds the row "
                       f"limit {limit} (raise with --row-limit or {ROW_LIMIT_ENV})",
                       EXIT_RESOURCE)


def _require_prime(p: int) -> None:
    """Refuse, with linalg.require_prime's message, a composite p or one at
    or above 3.317 * 10^24, where is_prime has no exact fast test.  No such
    p could run anyway: its job has more than p rows.  Callers test only a p
    whose job has passed _guard."""
    try:
        require_prime(p)
    except ValueError as exc:
        raise _Refusal(str(exc)) from exc


def _require_at_least(flag: str, value: int, low: int) -> None:
    if value < low:
        raise _Refusal(f"{flag} {value} is out of range (need {flag} >= {low})")


def _write(stream, text: str) -> None:
    """Write ``text`` to a standard stream as UTF-8, whatever the locale's
    encoding: to its byte buffer once its text layer is flushed, or as text
    to a stream that has no buffer (a caller's io.StringIO, say)."""
    stream.flush()
    buffer = getattr(stream, "buffer", None)
    if buffer is None:
        stream.write(text)
    else:
        buffer.write(text.encode("utf-8"))
        buffer.flush()


def _emit(text: str, out) -> None:
    """Write ``text`` as UTF-8 to the file ``out``, or to stdout."""
    if out:
        try:
            Path(out).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise _Refusal(f"cannot write {out}: {exc.strerror}") from exc
    else:
        _write(sys.stdout, text)


def _stderr(line: str) -> None:
    """Write one line to stderr as UTF-8; every ``note:`` and ``error:`` line
    goes through here."""
    _write(sys.stderr, f"{line}\n")


def _install_cache(args):
    """--cache's DiskCache or None.  The name stays: perfbench wraps it by name."""
    if not args.cache:
        return None
    try:
        return DiskCache(args.cache)
    except OSError as exc:
        raise _Refusal(f"cannot use {args.cache} as the cache directory: "
                       f"{exc.strerror}") from exc


@contextmanager
def _input_document(path):
    """The JSON document in the file at ``path``.  A file that cannot be read
    or decoded is refused as ``cannot read {path}: ...``, and a
    SectionFormatError raised while the block reads the document as
    ``{path}: ...``."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise _Refusal(f"cannot read {path}: {exc}") from exc
    try:
        yield serialize.parse_json_document(text)
    except SectionFormatError as exc:
        raise _Refusal(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# h1
# ---------------------------------------------------------------------------

def cmd_h1(args) -> int:
    _require_at_least("--d", args.d, 1)
    _require_at_least("--level", args.level, 0)
    _guard(args.p, args.d, args)
    _require_prime(args.p)
    report = h1_filtered(args.p, args.d, cache=_install_cache(args))
    if args.format == "json":
        text = serialize.dump_json(serialize.h1_report_to_doc(report, args.level))
    elif args.format == "csv":
        text = serialize.h1_report_to_csv(report, per_degree=args.per_degree)
    else:
        text = serialize.h1_report_to_text(report, args.level,
                                           per_degree=args.per_degree)
    _emit(text, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# appendix
# ---------------------------------------------------------------------------

def cmd_appendix(args) -> int:
    if (args.p is None) != (args.d is None):
        raise _Refusal("single-row mode needs both --p and --d")
    cache = _install_cache(args)
    if args.p is not None:
        if args.p not in TABLE_PRIMES:
            raise _Refusal(f"no reference table for p = {args.p}")
        try:
            comparison = compare_row(args.p, args.d, cache)
        except ValueError as exc:
            raise _Refusal(str(exc)) from exc
        if args.format == "json":
            doc = serialize.appendix_report_to_doc(AppendixReport((comparison,)))
            _emit(serialize.dump_json(doc), args.out)
        else:
            _emit(comparison.computed.table_text() + "\n", args.out)
            if not comparison.matches_printed:
                _stderr(f"note: printed row differs: {comparison.printed.table_text()} "
                        f"[{comparison.status()}]")
        return EXIT_OK if comparison.accepted else EXIT_FAILED

    report = verify_appendix(cache)
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
    lines, failed = [], False
    for name in names:
        t0 = time.perf_counter()
        result = SUITES[name](args.seed)
        lines.append(f"{result.summary()}, {time.perf_counter() - t0:.2f}s")
        if not result.passed:
            failed = True
            lines.append(f"  first counterexample: {result.failures[0]}")
    _emit("\n".join(lines) + "\n", None)  # once every suite has finished
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
            raise _Refusal("--sample needs --p and --d")
        _require_at_least("--d", args.d, 1)
        _require_at_least("--level", args.level, 0)
        _guard(args.p, args.d, args)
        _require_prime(args.p)
        delta = sample_kernel_section(args.p, args.d, seed=args.seed, m=args.level)
        _emit(serialize.tensor_text(delta), args.out)
        return EXIT_OK

    if not args.input:
        raise _Refusal("need --input FILE or --sample")
    with _input_document(args.input) as doc:
        _guard(*serialize.section_size(doc, serialize.FORMAT_TENSOR), args)
        delta = serialize.tensor_from_doc(doc)

    try:
        if args.method == "schedule":
            lift, check = lift_by_schedule(delta)
        else:
            lift, check = lift_by_solve(delta)
            if args.method == "both":
                # lift_by_schedule raises unless its lift has the input's symbol
                # and zero local data, so the two lifts differ by a lift of zero
                lift_by_schedule(delta)
                _stderr("solve/schedule outputs differ by a lift of zero: True")
    except NonvanishingLocalData as exc:
        data = exc.data
        _stderr("error: input section has nonvanishing degree-d local data at:")
        for a, k, i in data.nonzero_coordinates():
            _stderr(f"  point {a}, order {k}, power {i}: "
                    f"{data.residue(a, k, i)} mod {delta.p ** (k - i)}")
        return EXIT_BAD_INPUT_DATA
    except ValueError as exc:
        raise _Refusal(str(exc)) from exc

    _emit(serialize.operator_text(lift), args.out)
    if args.check:
        _emit(serialize.local_data_text(check),
              _check_path(args.out) if args.out else None)
    return EXIT_OK


# ---------------------------------------------------------------------------
# data
# ---------------------------------------------------------------------------

def cmd_data(args) -> int:
    with _input_document(args.input) as doc:
        tag = doc.get("format")
        if tag not in (serialize.FORMAT_TENSOR, serialize.FORMAT_OPERATOR):
            raise SectionFormatError(f"cannot take local data of a {tag!r} document")
        _guard(*serialize.section_size(doc, tag), args)
        tensor = tag == serialize.FORMAT_TENSOR
        section = (serialize.tensor_from_doc if tensor else serialize.operator_from_doc)(doc)
    try:
        data = local_data_tensor(section) if tensor else local_data_operator(section)
    except ValueError as exc:  # an operator that is not a global section
        raise _Refusal(str(exc)) from exc
    _emit(serialize.local_data_text(data), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# diagnose
# ---------------------------------------------------------------------------

def cmd_diagnose(args) -> int:
    _require_at_least("--m", args.m, 0)
    _require_at_least("--dmax", args.dmax, 1)
    _guard(args.p, args.dmax, args)
    _require_prime(args.p)
    cache = _install_cache(args)
    diag = level_descent_diagnostic(args.p, args.m, args.dmax, args.schedule, cache)
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

class _Parser(argparse.ArgumentParser):
    """Usage errors as one ``error:`` line, exit 2; subparsers share the class."""

    def error(self, message):
        _stderr(f"error: {message}")
        self.exit(EXIT_USAGE)


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The one parser, built on the first main() call, not at import: the
    handlers it binds are looked up then, and a process running many commands
    builds it once."""
    parser = _Parser(
        prog="logdop",
        description="Exact H^1 computations for logarithmic differential "
                    "operators on the blown-up projective line.")
    sub = parser.add_subparsers(dest="command", required=True)

    shared = {"--out": dict(help="write output to this path instead of stdout"),
              "--row-limit": dict(type=int, help=f"job size guard (default "
                                  f"{DEFAULT_ROW_LIMIT}; env {ROW_LIMIT_ENV})"),
              "--cache": dict(help="directory for (p, d) result cache")}

    def common(sp, *flags):
        for flag in flags:
            sp.add_argument(flag, **shared[flag])

    sp = sub.add_parser("h1", help="compute one H^1 table row")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--level", type=int, default=0, help="divided-power level m")
    sp.add_argument("--per-degree", action="store_true",
                    help="also list each degree summand")
    sp.add_argument("--format", choices=("text", "json", "csv"), default="text")
    common(sp, "--out", "--row-limit", "--cache")
    sp.set_defaults(func=cmd_h1)

    sp = sub.add_parser("appendix", help="recompute the reference tables")
    sp.add_argument("--p", type=int, help="single-row mode: prime")
    sp.add_argument("--d", type=int, help="single-row mode: degree")
    sp.add_argument("--format", choices=("text", "json"), default="text")
    common(sp, "--out", "--cache")
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
    common(sp, "--out", "--row-limit")
    sp.set_defaults(func=cmd_lift)

    sp = sub.add_parser("data", help="local data of a section/operator file")
    sp.add_argument("--input", required=True,
                    help="tensor-section or operator JSON file")
    common(sp, "--out", "--row-limit")
    sp.set_defaults(func=cmd_data)

    sp = sub.add_parser("diagnose", help="level-lowering order diagnostics")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--dmax", type=int, required=True)
    sp.add_argument("--schedule", choices=tuple(SCHEDULES), default="sqrt")
    sp.add_argument("--format", choices=("text", "json", "csv"), default="text")
    common(sp, "--out", "--row-limit", "--cache")
    sp.set_defaults(func=cmd_diagnose)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (_Refusal, SectionFormatError, CacheWriteError) as exc:  # the latter two: --cache
        _stderr(f"error: {exc}")
        return exc.code if isinstance(exc, _Refusal) else EXIT_USAGE
    except InvariantViolation as exc:  # a failed self-check: a bug witness
        _stderr(f"error: {exc}")
        return EXIT_FAILED


if __name__ == "__main__":
    sys.exit(main())
