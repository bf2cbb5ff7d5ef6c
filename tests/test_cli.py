import hashlib
import io
import json
import os
import pkgutil
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import logdop
from logdop import (
    cache, cli, engine, lifting, linalg, localdata, serialize, tables, verify,
)
from logdop.calculus import TensorSection, symbol, tensor_to_operator
from logdop.cli import main
from logdop.errors import SectionFormatError
from logdop.lifting import (
    correction_solver,
    lift_by_schedule,
    lift_by_solve,
    sample_kernel_section,
)
from logdop.linalg import AbelianPGroup


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# h1
# ---------------------------------------------------------------------------

def test_h1_text_matches_reference_row(capsys):
    code, out, _ = run(capsys, "h1", "--p", "3", "--d", "9")
    assert code == 0
    assert "32 × 3  24 × 3^2  16 × 3^3  8 × 3^4  1 × 3^5" in out


def test_h1_trivial_group(capsys):
    code, out, _ = run(capsys, "h1", "--p", "2", "--d", "1")
    assert code == 0
    assert "0" in out


def test_h1_non_prime_exits_2(capsys):
    code, _, err = run(capsys, "h1", "--p", "4", "--d", "2")
    assert code == 2
    assert "not prime" in err


def test_h1_row_limit_exits_3(capsys):
    code, _, err = run(capsys, "h1", "--p", "3", "--d", "9", "--row-limit", "10")
    assert code == 3
    assert "row" in err


def test_h1_row_limit_env_override(capsys, monkeypatch):
    monkeypatch.setenv("LOGDOP_ROW_LIMIT", "10")
    code, _, _ = run(capsys, "h1", "--p", "3", "--d", "9")
    assert code == 3
    monkeypatch.setenv("LOGDOP_ROW_LIMIT", "100000")
    code, _, _ = run(capsys, "h1", "--p", "3", "--d", "9")
    assert code == 0


def test_h1_json_and_csv(capsys):
    code, out, _ = run(capsys, "h1", "--p", "5", "--d", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["format"] == "h1-report/1"
    assert doc["per_degree"][1]["exponents"] == [1] * 6 + [2]
    code, out, _ = run(capsys, "h1", "--p", "5", "--d", "2", "--format", "csv",
                       "--per-degree")
    assert out.splitlines()[0] == "p,d,exponent,multiplicity"
    assert "5,2,2,1" in out


def test_h1_determinism(capsys):
    first = run(capsys, "h1", "--p", "3", "--d", "4", "--format", "json")
    second = run(capsys, "h1", "--p", "3", "--d", "4", "--format", "json")
    assert first == second


def test_h1_cache_round_trip(tmp_path, capsys):
    cache = tmp_path / "cache"
    code, out1, _ = run(capsys, "h1", "--p", "3", "--d", "3",
                        "--cache", str(cache))
    assert code == 0
    entries = sorted(f.name for f in cache.iterdir())
    assert entries == [f"h1-p3-d{d}.json" for d in (1, 2, 3)]
    doc = json.loads((cache / "h1-p3-d2.json").read_text())
    assert doc["format"] == "h1-group/2" and doc["exponents"] == [1, 1, 1]
    code, out2, _ = run(capsys, "h1", "--p", "3", "--d", "3",
                        "--cache", str(cache))
    assert code == 0 and out2 == out1


def test_h1_cache_holds_one_entry_per_group_at_every_level(tmp_path, capsys):
    cache = tmp_path / "cache"
    for level in ("2", "0"):
        code, _, _ = run(capsys, "h1", "--p", "3", "--d", "3", "--level", level,
                         "--cache", str(cache))
        assert code == 0
    assert sorted(f.name for f in cache.iterdir()) == [
        f"h1-p3-d{d}.json" for d in (1, 2, 3)]


@pytest.mark.parametrize("argv, bad", [
    (("h1", "--p", "3", "--d", "0"), "--d 0"),
    (("h1", "--p", "3", "--d", "-2"), "--d -2"),
    (("h1", "--p", "3", "--d", "2", "--level", "-1"), "--level -1"),
    (("diagnose", "--p", "3", "--m", "-1", "--dmax", "3"), "--m -1"),
    (("diagnose", "--p", "3", "--m", "1", "--dmax", "0"), "--dmax 0"),
    (("lift", "--sample", "--p", "3", "--d", "0"), "--d 0"),
    (("lift", "--sample", "--p", "3", "--d", "2", "--level", "-1"), "--level -1"),
])
def test_out_of_range_arguments_exit_2(capsys, argv, bad):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert bad in err


@pytest.mark.parametrize("argv, bad", [
    (("h1", "--p", "abc", "--d", "2"), "argument --p: invalid int value: 'abc'"),
    (("h1", "--p", "3", "--d", "2", "--bogus"), "unrecognized arguments: --bogus"),
    (("h1", "--p", "3"), "the following arguments are required: --d"),
], ids=["bad-int", "unknown-flag", "missing-flag"])
def test_bad_flags_exit_2_with_one_line(capsys, argv, bad):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert captured.err == f"error: {bad}\n"


def test_help_still_prints_the_usage_block(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["h1", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: logdop h1 [-h] --p P --d D")
    assert "--per-degree" in out


def test_row_limit_env_not_an_integer_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("LOGDOP_ROW_LIMIT", "abc")
    code, out, err = run(capsys, "h1", "--p", "3", "--d", "2")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "'abc'" in err


@pytest.mark.parametrize("argv, bad", [
    (("h1", "--p", "3", "--d", "2", "--row-limit", "-1"), "--row-limit -1"),
    (("h1", "--p", "3", "--d", "2"), "LOGDOP_ROW_LIMIT -5"),
], ids=["flag", "env"])
def test_row_limit_below_one_exits_2(capsys, monkeypatch, argv, bad):
    monkeypatch.setenv("LOGDOP_ROW_LIMIT", "-5")
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert bad in err


@pytest.mark.parametrize("argv", [
    ("h1", "--p", "3", "--d", "2"),
    ("appendix", "--p", "3", "--d", "2"),
], ids=["h1", "appendix"])
def test_out_to_a_directory_exits_2(tmp_path, capsys, argv):
    code, out, err = run(capsys, *argv, "--out", str(tmp_path))
    assert code == 2 and out == ""
    assert err == f"error: cannot write {tmp_path}: Is a directory\n"


def test_cache_at_an_existing_file_exits_2(tmp_path, capsys):
    path = tmp_path / "cache"
    path.write_text("")
    code, out, err = run(capsys, "h1", "--p", "3", "--d", "2", "--cache", str(path))
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot use {path} as the cache directory")
    assert err.count("\n") == 1


def test_cache_entry_that_is_a_directory_exits_2(tmp_path, capsys):
    (tmp_path / "h1-p3-d2.json").mkdir()
    code, out, err = run(capsys, "h1", "--p", "3", "--d", "2", "--cache", str(tmp_path))
    assert code == 2 and out == ""
    assert err.startswith("error: corrupt cache entry") and err.count("\n") == 1


@pytest.mark.parametrize("damage", [
    lambda text: text[:10],
    lambda text: "not json",
    lambda text: text.replace("[", "[0, ", 1),
    lambda text: text.replace("[", "[3, ", 1),
    lambda text: text.replace("[", "[" + "1, " * 6, 1),
    lambda text: text.replace("[", "[" + "2, " * 5, 1),
], ids=["truncated", "not-json", "zero-exponent", "exponent-above-d",
        "more-exponents-than-rows", "order-above-the-target"])
@pytest.mark.parametrize("argv", [
    ("h1", "--p", "3", "--d", "3"),
    ("appendix", "--format", "json"),
    ("diagnose", "--p", "3", "--m", "1", "--dmax", "3"),
], ids=["h1", "appendix", "diagnose"])
def test_corrupt_cache_entry_exits_2(tmp_path, capsys, argv, damage):
    directory = tmp_path / "cache"
    cache.DiskCache(directory).put(3, 2, [1, 1, 1])
    entry = directory / "h1-p3-d2.json"
    entry.write_text(damage(entry.read_text()))
    with pytest.raises(SectionFormatError, match="corrupt cache entry"):
        cache.DiskCache(directory).get(3, 2)
    code, _, err = run(capsys, *argv, "--cache", str(directory))
    assert code == 2
    assert err.startswith("error: corrupt cache entry") and err.count("\n") == 1


def test_a_cache_ends_with_its_command(tmp_path, capsys):
    directory = tmp_path / "cache"
    code, _, _ = run(capsys, "h1", "--p", "3", "--d", "2", "--cache", str(directory))
    assert code == 0
    written = sorted(f.name for f in directory.iterdir())
    assert written == ["h1-p3-d1.json", "h1-p3-d2.json"]
    assert run(capsys, "h1", "--p", "5", "--d", "2")[0] == 0
    assert run(capsys, "verify", "--suite", "splitting")[0] == 0
    assert sorted(f.name for f in directory.iterdir()) == written


def test_a_corrupt_entry_does_not_reach_a_later_command(tmp_path, capsys):
    directory = tmp_path / "cache"
    code, _, _ = run(capsys, "h1", "--p", "3", "--d", "2", "--cache", str(directory))
    assert code == 0
    (directory / "h1-p7-d1.json").write_text("not json")
    code, out, err = run(capsys, "diagnose", "--p", "7", "--m", "1", "--dmax", "1")
    assert (code, err) == (0, "")
    assert out


@pytest.mark.parametrize("argv, count", [
    (("appendix", "--format", "json"), 39),
    (("diagnose", "--p", "5", "--m", "2", "--dmax", "12"), 12),
    (("h1", "--p", "3", "--d", "10", "--per-degree"), 10),
], ids=["appendix", "diagnose", "h1"])
def test_a_warm_command_reads_each_cache_entry_once(tmp_path, capsys, monkeypatch,
                                                    argv, count):
    # a DiskCache keeps no memo: each command asks for each group once
    argv = (*argv, "--cache", str(tmp_path))
    cold = run(capsys, *argv)
    entries = sorted(f.name for f in tmp_path.iterdir())
    assert len(entries) == count
    reads = []
    read_text = Path.read_text

    def counted(path, *args, **kwargs):
        if path.parent == tmp_path:
            reads.append(path.name)
        return read_text(path, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", counted)
    assert run(capsys, *argv) == cold
    assert sorted(reads) == entries


def test_a_cold_appendix_builds_each_presentation_once(monkeypatch):
    built = []
    presentation = engine.tensor_presentation

    def counted(p, d):
        built.append((p, d))
        return presentation(p, d)

    monkeypatch.setattr(engine, "tensor_presentation", counted)
    engine.h1_tensor.cache_clear()
    assert tables.verify_appendix().all_accepted
    assert len(built) == len(set(built)) == 39


def test_cache_put_replaces_entries_atomically(tmp_path, monkeypatch):
    store = cache.DiskCache(tmp_path)
    store.put(3, 2, [1, 1, 1])
    before = (tmp_path / "h1-p3-d2.json").read_bytes()

    def interrupted(src, dst):
        raise OSError("interrupted")

    monkeypatch.setattr(cache.os, "replace", interrupted)
    with pytest.raises(OSError, match="interrupted"):
        store.put(3, 2, [2])
    assert [f.name for f in tmp_path.iterdir()] == ["h1-p3-d2.json"]
    assert (tmp_path / "h1-p3-d2.json").read_bytes() == before
    assert store.get(3, 2) == (1, 1, 1)


def test_a_cache_that_cannot_be_written_exits_2(tmp_path, capsys, monkeypatch):
    def refused(src, dst):
        raise PermissionError(13, "Permission denied")

    monkeypatch.setattr(cache.os, "replace", refused)
    code, out, err = run(capsys, "h1", "--p", "3", "--d", "2", "--cache", str(tmp_path))
    assert code == 2 and out == ""
    entry = tmp_path / "h1-p3-d1.json"
    assert err == f"error: cannot write the cache entry {entry}: Permission denied\n"
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# refusals: every way a command says no, with its exact stderr and exit code
# ---------------------------------------------------------------------------

REFUSAL_FILES = {
    "file": "",
    "bad-json.json": '{"format": }',
    "array.json": "[]",
    "operator.json": serialize.dump_json(
        {"format": "operator/1", "p": 3, "m": 0, "d": 1,
         "terms": [{"chart": "y", "power": 3, "order": 1, "coeff": "1"}]}),
    "group.json": serialize.dump_json(
        {"format": "h1-group/2", "p": 3, "d": 2, "exponents": [1]}),
    "short.json": serialize.dump_json(
        {"format": "tensor-section/1", "p": 3, "d": 2, "m": 0,
         "a": ["0"], "b": ["0", "0", "0"]}),
    "level-1.json": serialize.dump_json(
        {"format": "tensor-section/1", "p": 3, "d": 2, "m": 1,
         "a": ["0", "0"], "b": ["0", "0", "0"]}),
    "huge.json": serialize.dump_json(
        {"format": "tensor-section/1", "p": 3, "d": 60, "m": 0, "a": [], "b": []}),
    "p4.json": serialize.dump_json(
        {"format": "tensor-section/1", "p": 4, "d": 2, "m": 0,
         "a": ["0", "0"], "b": ["0", "0", "0"]}),
    "cache/h1-p3-d1.json": "not json",
    "bounds/h1-p3-d2.json": serialize.dump_json(
        {"format": "h1-group/2", "p": 3, "d": 2, "exponents": [99] + [1] * 10}),
    # within the bounds above, but with the wrong factor count, or an exponent
    # below the paper's floor((p-1)(d+1)/(p+1))
    "count/h1-p3-d2.json": serialize.dump_json(
        {"format": "h1-group/2", "p": 3, "d": 2, "exponents": [1]}),
    "floor/h1-p3-d3.json": serialize.dump_json(
        {"format": "h1-group/2", "p": 3, "d": 3, "exponents": [1] * 5}),
    # p and d that compare equal to the key but are not JSON integers
    "typed-p/h1-p3-d1.json": serialize.dump_json(
        {"format": "h1-group/2", "p": 3.0, "d": 1, "exponents": [1]}),
    "typed-d/h1-p3-d1.json": serialize.dump_json(
        {"format": "h1-group/2", "p": 3, "d": True, "exponents": [1]}),
    "not-utf8.json": b"\xff\xfe{",
    # an array nested past the decoder's recursion limit
    **{name: "[" * 100_000 + "]" * 100_000 for name in ("deep.json", "deep/h1-p3-d1.json")},
    # count, floor and max <= d all hold, but the order is 3^4 where it is 3^3
    "order/h1-p3-d2.json": serialize.dump_json(
        {"format": "h1-group/2", "p": 3, "d": 2, "exponents": [1, 1, 2]}),
    # order 3^14, above the 3^12 of all of Q_2: the factor count refuses it first
    "over-count/h1-p3-d2.json": serialize.dump_json(
        {"format": "h1-group/2", "p": 3, "d": 2, "exponents": [2] * 7}),
    # documents that int() would have read: each field must be what its schema says
    **{f"strict/{name}.json": serialize.dump_json(
        {"format": "tensor-section/1", "p": 3, "d": 2, "m": 0,
         "a": ["0", "0"], "b": ["0", "0", "0"], **fields})
       for name, fields in {"float-p": {"p": 3.9}, "bool-p": {"p": True},
                            "string-m": {"m": "0"}, "float-a": {"a": [2.5, 0]},
                            "string-a": {"a": "12"}, "underscore": {"a": ["1_000", "0"]},
                            "plus": {"b": ["+5", "0", "0"]},
                            "arabic-digits": {"b": ["\u0661\u0662", "0", "0"]}}.items()},
    "strict/no-m.json": serialize.dump_json(
        {"format": "tensor-section/1", "p": 3, "d": 2,
         "a": ["0", "0"], "b": ["0", "0", "0"]}),
    **{f"strict/{name}.json": serialize.dump_json(
        {"format": "operator/1", "p": 3, "m": 0, "d": 1, **fields})
       for name, fields in {
           "no-terms": {},
           "string-terms": {"terms": "none"},
           "float-power": {"terms": [{"chart": "y", "power": 1.0, "order": 1,
                                      "coeff": "1"}]},
           "int-coeff": {"terms": [{"chart": "y", "power": 1, "order": 1, "coeff": 1}]},
           "list-chart": {"terms": [{"chart": [], "power": 1, "order": 1,
                                     "coeff": "1"}]},
           "order-above-d": {"terms": [{"chart": "x", "power": 0, "order": 3,
                                        "coeff": "1"}]}}.items()},
}

_GUARD = ("error: job size {rows} skyscraper coordinates exceeds the row limit "
          "{limit} (raise with --row-limit or LOGDOP_ROW_LIMIT)")
_MISSING = ("error: cannot read {tmp}/missing.json: [Errno 2] No such file or "
            "directory: '{tmp}/missing.json'")
_UNDECODABLE = ("error: cannot read {tmp}/not-utf8.json: 'utf-8' codec can't "
                "decode byte 0xff in position 0: invalid start byte")
_SHORT = ("error: {tmp}/short.json: need 2 A-coefficients and 3 B-coefficients, "
          "got 1 and 3")

REFUSALS = {
    # id: (argv, LOGDOP_ROW_LIMIT or None, exit code, the one stderr line)
    "h1-d": (("h1", "--p", "3", "--d", "0"), None, 2,
             "error: --d 0 is out of range (need --d >= 1)"),
    "h1-level": (("h1", "--p", "3", "--d", "2", "--level", "-1"), None, 2,
                 "error: --level -1 is out of range (need --level >= 0)"),
    "sample-d": (("lift", "--sample", "--p", "3", "--d", "0"), None, 2,
                 "error: --d 0 is out of range (need --d >= 1)"),
    "sample-level": (("lift", "--sample", "--p", "3", "--d", "2", "--level", "-1"),
                     None, 2, "error: --level -1 is out of range (need --level >= 0)"),
    "diagnose-m": (("diagnose", "--p", "3", "--m", "-1", "--dmax", "3"), None, 2,
                   "error: --m -1 is out of range (need --m >= 0)"),
    "diagnose-dmax": (("diagnose", "--p", "3", "--m", "1", "--dmax", "0"), None, 2,
                      "error: --dmax 0 is out of range (need --dmax >= 1)"),
    "row-limit-flag-bad": (("h1", "--p", "3", "--d", "2", "--row-limit", "abc"),
                           None, 2,
                           "error: argument --row-limit: invalid int value: 'abc'"),
    "row-limit-flag-low": (("h1", "--p", "3", "--d", "2", "--row-limit", "0"), None, 2,
                           "error: --row-limit 0 is out of range "
                           "(need --row-limit >= 1)"),
    "row-limit-env-bad": (("h1", "--p", "3", "--d", "2"), "abc", 2,
                          "error: LOGDOP_ROW_LIMIT = 'abc' is not an integer"),
    "row-limit-env-low": (("h1", "--p", "3", "--d", "2"), "0", 2,
                          "error: LOGDOP_ROW_LIMIT 0 is out of range "
                          "(need LOGDOP_ROW_LIMIT >= 1)"),
    "job-guard": (("h1", "--p", "3", "--d", "9", "--row-limit", "10"), None, 3,
                  _GUARD.format(rows=180, limit=10)),
    "non-prime": (("h1", "--p", "4", "--d", "2"), None, 2, "error: p = 4 is not prime"),
    "non-prime-sample": (("lift", "--sample", "--p", "4", "--d", "2"), None, 2,
                         "error: p = 4 is not prime"),
    "non-prime-diagnose": (("diagnose", "--p", "4", "--m", "1", "--dmax", "2"), None, 2,
                           "error: p = 4 is not prime"),
    "data-non-prime": (("data", "--input", "{tmp}/p4.json"), None, 2,
                       "error: {tmp}/p4.json: p = 4 is not prime"),
    "out-directory": (("h1", "--p", "3", "--d", "2", "--out", "{tmp}"), None, 2,
                      "error: cannot write {tmp}: Is a directory"),
    "cache-file": (("h1", "--p", "3", "--d", "2", "--cache", "{tmp}/file"), None, 2,
                   "error: cannot use {tmp}/file as the cache directory: File exists"),
    "cache-corrupt": (("h1", "--p", "3", "--d", "2", "--cache", "{tmp}/cache"), None, 2,
                      "error: corrupt cache entry {tmp}/cache/h1-p3-d1.json: "
                      "invalid JSON at line 1, column 1: Expecting value"),
    "cache-out-of-bounds": (("h1", "--p", "3", "--d", "2", "--cache", "{tmp}/bounds"),
                            None, 2, "error: corrupt cache entry "
                            "{tmp}/bounds/h1-p3-d2.json: exponent 99 exceeds d = 2"),
    "cache-factor-count": (("h1", "--p", "3", "--d", "2", "--per-degree",
                            "--cache", "{tmp}/count"), None, 2,
                           "error: corrupt cache entry {tmp}/count/h1-p3-d2.json: "
                           "factor count 1, not (p-1)d - 1 = 3"),
    "cache-below-the-bound": (("h1", "--p", "3", "--d", "3", "--per-degree",
                               "--cache", "{tmp}/floor"), None, 2,
                              "error: corrupt cache entry {tmp}/floor/h1-p3-d3.json: "
                              "exponent 1 is below floor((p-1)(d+1)/(p+1)) = 2"),
    "cache-order": (("h1", "--p", "3", "--d", "2", "--cache", "{tmp}/order"), None, 2,
                    "error: corrupt cache entry {tmp}/order/h1-p3-d2.json: "
                    "the exponents sum to 4, but the degree-2 group has order p^3"),
    "cache-over-count": (("h1", "--p", "3", "--d", "2", "--cache", "{tmp}/over-count"),
                         None, 2, "error: corrupt cache entry "
                         "{tmp}/over-count/h1-p3-d2.json: "
                         "factor count 7, not (p-1)d - 1 = 3"),
    "cache-deep": (("h1", "--p", "3", "--d", "1", "--cache", "{tmp}/deep"), None, 2,
                   "error: corrupt cache entry {tmp}/deep/h1-p3-d1.json: "
                   "invalid JSON: nested too deeply"),
    **{f"cache-{name}": (("h1", "--p", "3", "--d", "1", "--cache", f"{{tmp}}/{name}"),
                         None, 2, f"error: corrupt cache entry {{tmp}}/{name}/h1-p3-d1.json")
       for name in ("typed-p", "typed-d")},
    "appendix-half-row": (("appendix", "--p", "7"), None, 2,
                          "error: single-row mode needs both --p and --d"),
    "appendix-p": (("appendix", "--p", "13", "--d", "2"), None, 2,
                   "error: no reference table for p = 13"),
    "appendix-d": (("appendix", "--p", "7", "--d", "99"), None, 2,
                   "error: no reference row for p=7, d=99"),
    "lift-no-input": (("lift",), None, 2, "error: need --input FILE or --sample"),
    "lift-sample-half": (("lift", "--sample", "--p", "3"), None, 2,
                         "error: --sample needs --p and --d"),
    "lift-unreadable": (("lift", "--input", "{tmp}/missing.json"), None, 2, _MISSING),
    "lift-not-utf8": (("lift", "--input", "{tmp}/not-utf8.json"), None, 2, _UNDECODABLE),
    "lift-bad-json": (("lift", "--input", "{tmp}/bad-json.json"), None, 2,
                      "error: {tmp}/bad-json.json: invalid JSON at line 1, "
                      "column 12: Expecting value"),
    "lift-wrong-tag": (("lift", "--input", "{tmp}/operator.json"), None, 2,
                       "error: {tmp}/operator.json: expected a tensor-section/1 "
                       "document, found format='operator/1'"),
    "lift-malformed": (("lift", "--input", "{tmp}/short.json"), None, 2, _SHORT),
    "lift-schedule-level": (("lift", "--input", "{tmp}/level-1.json",
                             "--method", "schedule"), None, 2,
                            "error: the correction schedule is a level-0 construction"),
    "lift-huge": (("lift", "--input", "{tmp}/huge.json"), None, 3,
                  _GUARD.format(rows=7320, limit=5000)),
    "data-unreadable": (("data", "--input", "{tmp}/missing.json"), None, 2, _MISSING),
    "data-not-utf8": (("data", "--input", "{tmp}/not-utf8.json"), None, 2, _UNDECODABLE),
    "data-bad-json": (("data", "--input", "{tmp}/bad-json.json"), None, 2,
                      "error: {tmp}/bad-json.json: invalid JSON at line 1, "
                      "column 12: Expecting value"),
    "data-deep": (("data", "--input", "{tmp}/deep.json"), None, 2,
                  "error: {tmp}/deep.json: invalid JSON: nested too deeply"),
    "lift-deep": (("lift", "--input", "{tmp}/deep.json"), None, 2,
                  "error: {tmp}/deep.json: invalid JSON: nested too deeply"),
    "data-array-root": (("data", "--input", "{tmp}/array.json"), None, 2,
                        "error: {tmp}/array.json: document root must be an object"),
    "data-wrong-tag": (("data", "--input", "{tmp}/group.json"), None, 2,
                       "error: {tmp}/group.json: cannot take local data of a "
                       "'h1-group/2' document"),
    "data-malformed": (("data", "--input", "{tmp}/short.json"), None, 2, _SHORT),
    "data-huge": (("data", "--input", "{tmp}/huge.json"), None, 3,
                  _GUARD.format(rows=7320, limit=5000)),
    "data-non-global": (("data", "--input", "{tmp}/operator.json"), None, 2,
                        "error: operator is not a global section; "
                        "local data undefined"),
    "lift-float-p": (("lift", "--input", "{tmp}/strict/float-p.json"), None, 2,
                     "error: {tmp}/strict/float-p.json: field 'p' is not an integer"),
    **{f"data-{name}": (("data", "--input", f"{{tmp}}/strict/{name}.json"), None, 2,
                        f"error: {{tmp}}/strict/{name}.json: {why}")
       for name, why in {
           "float-p": "field 'p' is not an integer",
           "bool-p": "field 'p' is not an integer",
           "string-m": "field 'm' is not an integer",
           "no-m": "missing field 'm'",
           **{name: "coefficient lists must hold decimal strings"
              for name in ("float-a", "string-a", "underscore", "plus", "arabic-digits")},
           "no-terms": "need a 'terms' list",
           "string-terms": "need a 'terms' list",
           # the message echoes the entry; its braces are doubled for format()
           "float-power": "malformed term entry: "
                          "{{'chart': 'y', 'power': 1.0, 'order': 1, 'coeff': '1'}}",
           "int-coeff": "malformed term entry: "
                        "{{'chart': 'y', 'power': 1, 'order': 1, 'coeff': 1}}",
           "list-chart": "malformed term entry: "
                         "{{'chart': [], 'power': 1, 'order': 1, 'coeff': '1'}}",
           "order-above-d": "order 3 outside 0..1"}.items()},
}


@pytest.mark.parametrize("argv, env, code, err", REFUSALS.values(), ids=REFUSALS)
def test_refusal_table(tmp_path, capsys, monkeypatch, argv, env, code, err):
    for name, text in REFUSAL_FILES.items():
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_bytes(text if isinstance(text, bytes) else text.encode())
    if env is not None:
        monkeypatch.setenv("LOGDOP_ROW_LIMIT", env)
    try:
        got = main([arg.format(tmp=tmp_path) for arg in argv])
    except SystemExit as exc:  # argparse usage errors
        got = exc.code
    captured = capsys.readouterr()
    assert (got, captured.out, captured.err) == (code, "", err.format(tmp=tmp_path) + "\n")


@pytest.mark.parametrize("flag", [("--verify",), ("--row-limit", "1")],
                         ids=["verify", "row-limit"])
def test_appendix_has_no_options_that_do_nothing(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["appendix", *flag])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert captured.err == f"error: unrecognized arguments: {' '.join(flag)}\n"


# ---------------------------------------------------------------------------
# appendix
# ---------------------------------------------------------------------------

def test_appendix_verify_full(capsys):
    code, out, _ = run(capsys, "appendix")
    assert code == 0
    assert "verdict OK" in out
    assert out.count("known-discrepancy") == 1


def test_appendix_single_row(capsys):
    code, out, _ = run(capsys, "appendix", "--p", "7", "--d", "6")
    assert code == 0
    assert out.strip() == "45 × 7  35 × 7^2  24 × 7^3  13 × 7^4  3 × 7^5"


def test_appendix_discrepant_row_reports_both(capsys):
    code, out, err = run(capsys, "appendix", "--p", "3", "--d", "8")
    assert code == 0  # flagged row: accepted via the structural checks
    assert "20 × 3^2" in out
    assert "10 × 3^2" in err and "known-discrepancy" in err


def test_a_flagged_row_must_split_against_the_printed_row_before_it(monkeypatch, capsys):
    # a Z/3^5 summand in the printed (3, 7) row, which no computed row 8 holds
    real = tables.load_golden

    def forged(p):
        groups, flagged = real(p)
        if p == 3:
            groups = {**groups, 7: AbelianPGroup(p, groups[7].exponents + (5,))}
        return groups, flagged

    monkeypatch.setattr(tables, "load_golden", forged)
    row = tables.compare_row(3, 8)
    assert (row.splitting_ok, row.summand_count_ok) == (False, True)
    assert row.status() == "MISMATCH"
    code, _, err = run(capsys, "appendix", "--p", "3", "--d", "8")
    assert code == 1 and "[MISMATCH]" in err


def test_a_data_file_that_declares_another_prime_is_refused(monkeypatch, tmp_path):
    (tmp_path / "p3.json").write_text(serialize.dump_json({"p": 5, "rows": []}))
    monkeypatch.setattr(tables, "_DATA", tmp_path)
    with pytest.raises(ValueError) as exc:
        tables.load_golden(3)
    assert str(exc.value) == "corpus file for p=3 declares p=5"


def test_appendix_json_round_trips(capsys):
    code, out, _ = run(capsys, "appendix", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["all_accepted"] is True
    assert [t["p"] for t in doc["tables"]] == [2, 3, 5, 7, 11]
    assert sum(len(t["rows"]) for t in doc["tables"]) == 39


def test_appendix_single_row_json_is_the_full_reports_row(capsys, schemas):
    jsonschema = pytest.importorskip("jsonschema")
    code, out, _ = run(capsys, "appendix", "--p", "3", "--d", "8", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, schemas["appendix-report/1"])
    assert [(t["p"], [r["d"] for r in t["rows"]]) for t in doc["tables"]] == [(3, [8])]
    code, out, _ = run(capsys, "appendix", "--format", "json")
    assert code == 0
    (full,) = [t for t in json.loads(out)["tables"] if t["p"] == 3]
    assert [r for r in full["rows"] if r["d"] == 8] == doc["tables"][0]["rows"]


def test_appendix_single_row_bad_usage(capsys):
    code, _, err = run(capsys, "appendix", "--p", "7")
    assert code == 2
    code, _, err = run(capsys, "appendix", "--p", "13", "--d", "2")
    assert code == 2


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_coeffs_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "coeffs")
    assert code == 0
    assert "suite coeffs" in out and "pass" in out


def test_verify_seed_determinism(capsys):
    a = run(capsys, "verify", "--suite", "splitting", "--seed", "5")
    b = run(capsys, "verify", "--suite", "splitting", "--seed", "5")
    assert a[0] == b[0] == 0
    # timings differ; compare everything before the timing column
    strip = lambda out: [line.rsplit(",", 1)[0] for line in out.splitlines()]
    assert strip(a[1]) == strip(b[1])


def test_verify_reports_a_failing_suite(capsys, monkeypatch):
    def forged(seed):
        result = verify.SuiteResult("splitting")
        result.record(True, "")
        result.record(False, f"forged mismatch (seed {seed})")
        return result

    monkeypatch.setitem(verify.SUITES, "splitting", forged)
    code, out, _ = run(capsys, "verify", "--suite", "splitting", "--seed", "3")
    summary, counterexample = out.splitlines()
    assert code == 1
    assert re.fullmatch(r"suite splitting: 2 checks, FAIL \(1\), \d+\.\d\ds", summary)
    assert counterexample == "  first counterexample: forged mismatch (seed 3)"


@pytest.mark.parametrize("failing", [None, "localdata"], ids=["pass", "fail"])
def test_verify_all_runs_every_suite_in_registry_order(capsys, monkeypatch, failing):
    def fake(name):
        def suite(seed):
            result = verify.SuiteResult(name)
            result.record(True, "")
            if name == failing:
                result.record(False, f"forged mismatch (seed {seed})")
            return result
        return suite

    for name in verify.SUITES:
        monkeypatch.setitem(verify.SUITES, name, fake(name))
    code, out, err = run(capsys, "verify", "--suite", "all", "--seed", "4")
    expected = []
    for name in verify.SUITES:
        if name == failing:
            expected += [f"suite {name}: 2 checks, FAIL (1), <t>s",
                         "  first counterexample: forged mismatch (seed 4)"]
        else:
            expected.append(f"suite {name}: 1 checks, pass, <t>s")
    masked = [re.sub(r", \d+\.\d\ds$", ", <t>s", line) for line in out.splitlines()]
    assert (code, masked, err) == (1 if failing else 0, expected, "")


# ---------------------------------------------------------------------------
# faults: a failed self-check of any command
# ---------------------------------------------------------------------------

def _unsettled_elimination(p, d):
    # the genuine postcondition of the p-local core, on a row it cannot settle
    return linalg._plocal_exponents([{0: 9}], (1,), 3)


def _shifted_symbol(op, d):
    coords = symbol(op, d).coordinates()
    coords[0] += 1
    return TensorSection.from_coordinates(op.p, d, op.m, coords)


@pytest.mark.parametrize("forgery, method, message", [
    ("elimination", None, "p-local elimination settled 0 of 1 rows"),
    ("multipliers", "schedule", "schedule lift has residual local data"),
    ("multipliers", "both", "schedule lift has residual local data"),
    ("solve", "solve", "no order <= 7 correction exists"),
    ("symbol", "solve", "solve lift changed the top-order symbol"),
], ids=["h1", "lift-schedule", "lift-both", "lift-solve", "lift-symbol"])
def test_a_failed_self_check_is_one_error_line(tmp_path, capsys, monkeypatch,
                                               forgery, method, message):
    if method is None:
        monkeypatch.setattr(engine, "h1_tensor", _unsettled_elimination)
        argv = ["h1", "--p", "3", "--d", "4"]
    else:
        section = tmp_path / "delta.json"
        assert run(capsys, "lift", "--sample", "--p", "3", "--d", "8", "--seed", "1",
                   "--out", str(section))[0] == 0
        if forgery == "multipliers":
            genuine = lifting.schedule_multipliers

            def forged(d):
                c = genuine(d)
                c[0] += 1
                return c

            monkeypatch.setattr(lifting, "schedule_multipliers", forged)
        elif forgery == "symbol":
            monkeypatch.setattr(lifting, "symbol", _shifted_symbol)
        else:
            monkeypatch.setattr(linalg.CokernelSolver, "solve", lambda self, b: None)
        argv = ["lift", "--input", str(section), "--method", method, "--check",
                "--out", str(tmp_path / "lift.json")]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err
    assert not (tmp_path / "lift.json").exists()


# ---------------------------------------------------------------------------
# lift
# ---------------------------------------------------------------------------

def test_lift_sample_then_lift_with_check(tmp_path, capsys):
    section = tmp_path / "delta.json"
    code, _, _ = run(capsys, "lift", "--sample", "--p", "3", "--d", "3",
                     "--seed", "11", "--out", str(section))
    assert code == 0
    doc = json.loads(section.read_text())
    assert serialize.tensor_from_doc(doc) == sample_kernel_section(3, 3, seed=11)

    out_op = tmp_path / "lift.json"
    code, _, _ = run(capsys, "lift", "--input", str(section), "--method", "both",
                     "--check", "--out", str(out_op))
    assert code == 0
    op_doc = json.loads(out_op.read_text())
    assert op_doc["format"] == "operator/1"
    check_doc = json.loads((tmp_path / "lift.check.json").read_text())
    assert all(e["residue"] == "0" for e in check_doc["entries"])


def test_lift_both_check_computes_local_data_three_times(tmp_path, capsys,
                                                       monkeypatch):
    section = tmp_path / "delta.json"
    out = tmp_path / "lift.json"
    code, _, _ = run(capsys, "lift", "--sample", "--p", "5", "--d", "6",
                     "--seed", "4", "--out", str(section))
    assert code == 0
    correction_solver(5, 6, 0)  # the correction basis is not the lift's own work
    calls = []
    genuine = localdata.local_data_operator

    def counted(op):
        calls.append(op)
        return genuine(op)

    for module in (cli, lifting, localdata):
        monkeypatch.setattr(module, "local_data_operator", counted)
    code, _, _ = run(capsys, "lift", "--input", str(section), "--method", "both",
                     "--check", "--out", str(out))
    assert code == 0
    # the residual of the bare section and each path's own check; the
    # solve/schedule agreement is read from the two checked vectors
    assert len(calls) == 3
    digests = [hashlib.sha256(path.read_bytes()).hexdigest()
               for path in (section, out, tmp_path / "lift.check.json")]
    assert digests == [
        "f2f09e30ce01b21fdfbf3e66b943b90780a4105f399d32ff070753a632f56e34",
        "f8636d3cf4451669a8b69c498127e77acfe1078e33b458e469b0ef184d5bf082",
        "23ed23f040ff1d65817d5ab95f321a6a62d0aea121d84d827e738773717a33d9",
    ]


def test_lift_both_computes_tensor_local_data_twice(tmp_path, capsys,
                                                   monkeypatch):
    section = tmp_path / "delta.json"
    code, _, _ = run(capsys, "lift", "--sample", "--p", "5", "--d", "6",
                     "--seed", "4", "--out", str(section))
    assert code == 0
    calls = []
    genuine = localdata.local_data_tensor

    def counted(delta, lifts=None):
        calls.append(delta)
        return genuine(delta, lifts)

    for module in (cli, lifting, localdata):
        monkeypatch.setattr(module, "local_data_tensor", counted)
    code, _, _ = run(capsys, "lift", "--input", str(section), "--method", "both",
                     "--out", str(tmp_path / "lift.json"))
    assert code == 0
    # the input check of each path; the CLI makes none of its own
    assert len(calls) == 2


def test_lift_both_agreement_line_and_exit_code(tmp_path, capsys):
    section = tmp_path / "delta.json"
    for p, d, seed in ((3, 3, 11), (5, 6, 4), (2, 5, 0)):
        code, _, _ = run(capsys, "lift", "--sample", "--p", str(p), "--d", str(d),
                         "--seed", str(seed), "--out", str(section))
        assert code == 0
        code, out, err = run(capsys, "lift", "--input", str(section),
                             "--method", "both")
        assert code == 0
        assert err == "solve/schedule outputs differ by a lift of zero: True\n"
        solve_code, solve_out, solve_err = run(capsys, "lift", "--input",
                                               str(section), "--method", "solve")
        assert (solve_code, solve_out, solve_err) == (0, out, "")
        # what the line states, checked directly on the difference
        delta = sample_kernel_section(p, d, seed=seed)
        diff = lift_by_solve(delta)[0].minus(lift_by_schedule(delta)[0])
        assert localdata.local_data_operator(diff).is_zero
        assert not any(symbol(diff, d).coordinates())


def test_lift_zero_section(tmp_path, capsys):
    section = tmp_path / "zero.json"
    section.write_text(serialize.dump_json(
        {"format": "tensor-section/1", "p": 3, "d": 2, "m": 0,
         "a": ["0", "0"], "b": ["0", "0", "0"]}))
    code, out, _ = run(capsys, "lift", "--input", str(section))
    assert code == 0
    assert json.loads(out)["terms"] == []


def test_lift_nonvanishing_input_exits_4(tmp_path, capsys):
    section = tmp_path / "bad.json"
    section.write_text(serialize.dump_json(
        {"format": "tensor-section/1", "p": 3, "d": 2, "m": 0,
         "a": ["1", "0"], "b": ["0", "0", "0"]}))
    code, _, err = run(capsys, "lift", "--input", str(section))
    assert code == 4
    assert "nonvanishing" in err and "point" in err


def test_lift_nonvanishing_input_exits_4_at_every_level_and_method(tmp_path, capsys):
    section = tmp_path / "bad.json"
    for level in (0, 1):
        section.write_text(serialize.dump_json(
            {"format": "tensor-section/1", "p": 3, "d": 2, "m": level,
             "a": ["1", "0"], "b": ["0", "0", "0"]}))
        for method in ("solve", "schedule", "both"):
            code, out, err = run(capsys, "lift", "--input", str(section),
                                 "--method", method)
            assert code == 4, (level, method)
            assert out == ""
            assert err.splitlines() == [
                "error: input section has nonvanishing degree-d local data at:",
                "  point 1, order 2, power 0: 1 mod 9",
                "  point 1, order 2, power 1: 1 mod 3",
                "  point 2, order 2, power 0: 7 mod 9",
                "  point 2, order 2, power 1: 2 mod 3",
                "  point inf, order 2, power 0: 1 mod 9",
            ], (level, method)


def test_lift_malformed_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text('{"format": "tensor-section/1",\n  "p": }')
    code, _, err = run(capsys, "lift", "--input", str(bad))
    assert code == 2
    assert "line 2" in err


def test_lift_schedule_rejects_level(tmp_path, capsys):
    section = tmp_path / "m1.json"
    code, _, _ = run(capsys, "lift", "--sample", "--p", "3", "--d", "2",
                     "--level", "1", "--seed", "0", "--out", str(section))
    assert code == 0
    code, _, err = run(capsys, "lift", "--input", str(section),
                       "--method", "schedule")
    assert code == 2
    assert "level-0" in err
    # the solve path handles positive level
    code, _, _ = run(capsys, "lift", "--input", str(section), "--method", "solve")
    assert code == 0


# ---------------------------------------------------------------------------
# diagnose
# ---------------------------------------------------------------------------

def test_diagnose_table(capsys):
    code, out, _ = run(capsys, "diagnose", "--p", "3", "--m", "1",
                       "--dmax", "9", "--schedule", "sqrt")
    assert code == 0
    assert len([l for l in out.splitlines() if l.lstrip()[:1].isdigit()]) == 9


def test_diagnose_zero_schedule_matches_exponents(capsys):
    code, out, _ = run(capsys, "diagnose", "--p", "5", "--m", "0",
                       "--dmax", "5", "--schedule", "zero", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    for row in doc["rows"]:
        assert row["scheduled_exponent"] == row["max_exponent"]


def test_diagnose_p2_note_and_exit_zero(capsys):
    code, out, _ = run(capsys, "diagnose", "--p", "2", "--m", "1", "--dmax", "5")
    assert code == 0
    assert "p = 2" in out


def test_diagnose_csv(capsys):
    code, out, _ = run(capsys, "diagnose", "--p", "5", "--m", "2",
                       "--dmax", "6", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0].startswith("d,max_exponent")


# ---------------------------------------------------------------------------
# data
# ---------------------------------------------------------------------------

def test_data_consumes_operator_files(tmp_path, capsys):
    section = tmp_path / "delta.json"
    operator = tmp_path / "op.json"
    run(capsys, "lift", "--sample", "--p", "3", "--d", "2", "--seed", "4",
        "--out", str(section))
    run(capsys, "lift", "--input", str(section), "--out", str(operator))
    code, out, _ = run(capsys, "data", "--input", str(operator))
    assert code == 0
    doc = json.loads(out)
    assert doc["format"] == "local-data/1" and not doc["degree_only"]
    assert all(e["residue"] == "0" for e in doc["entries"])


def test_data_output_is_pinned(tmp_path, capsys):
    # SHA-256 of `data --input` output as the generic JSON encoder wrote it:
    # a level-1 section and its bare operator, both with nonzero residues
    # and coefficients above 2^64, and a lift, whose local data vanish
    section = TensorSection(5, 3, 1, (2 ** 70 + 1, -3, 7), (1, -2 ** 65, 4, 9))
    (tmp_path / "section.json").write_text(
        serialize.dump_json(serialize.tensor_to_doc(section)))
    (tmp_path / "operator.json").write_text(
        serialize.dump_json(serialize.operator_to_doc(tensor_to_operator(section))))
    run(capsys, "lift", "--sample", "--p", "5", "--d", "6", "--seed", "4",
        "--out", str(tmp_path / "kernel.json"))
    run(capsys, "lift", "--input", str(tmp_path / "kernel.json"),
        "--out", str(tmp_path / "lift.json"))
    digests, nonzero = {}, {}
    for name in ("section", "operator", "lift"):
        code, out, _ = run(capsys, "data", "--input", str(tmp_path / f"{name}.json"))
        assert code == 0
        digests[name] = hashlib.sha256(out.encode()).hexdigest()
        nonzero[name] = any(e["residue"] != "0" for e in json.loads(out)["entries"])
    assert nonzero == {"section": True, "operator": True, "lift": False}
    assert digests == {
        "section": "08be3d2b37773109d54c0701ab2571acf5e02e34366cee967c7c170566127adf",
        "operator": "e5b157ab0505b35c8ac61138c8dd71b0ab1c5f118563eb02488c94a67d1f3394",
        "lift": "23ed23f040ff1d65817d5ab95f321a6a62d0aea121d84d827e738773717a33d9",
    }


def test_data_consumes_tensor_files_and_rejects_non_global(tmp_path, capsys):
    section = tmp_path / "delta.json"
    section.write_text(serialize.dump_json(
        {"format": "tensor-section/1", "p": 2, "d": 1, "m": 0,
         "a": ["0"], "b": ["0", "1"]}))
    code, out, _ = run(capsys, "data", "--input", str(section))
    assert code == 0
    doc = json.loads(out)
    assert doc["degree_only"] is True
    assert [e["residue"] for e in doc["entries"]] == ["0", "1", "0"]

    bad = tmp_path / "op.json"
    bad.write_text(serialize.dump_json(
        {"format": "operator/1", "p": 3, "m": 0, "d": 1,
         "terms": [{"chart": "y", "power": 3, "order": 1, "coeff": "1"}]}))
    code, _, err = run(capsys, "data", "--input", str(bad))
    assert code == 2
    assert "global" in err


@pytest.mark.parametrize("command, doc", [
    ("data", {"format": "operator/1", "p": 3, "d": 2,
              "terms": [{"chart": "x", "power": 0, "order": 2, "coeff": "1"}]}),
    ("lift", {"format": "tensor-section/1", "p": 3, "d": 2,
              "a": ["0", "0"], "b": ["0", "0", "0"]}),
], ids=["data-operator", "lift-zero-section"])
def test_a_huge_level_answers_at_once(tmp_path, capsys, command, doc):
    # once p^m > d every q_level is 0, so m = 10^9 reads as m = 2 (3^2 > 2);
    # neither run may build 3^(10^9)
    huge = tmp_path / "huge.json"
    huge.write_text(serialize.dump_json(dict(doc, m=10 ** 9)))
    proc = run_module(command, "--input", str(huge), timeout=20)
    assert proc.returncode == 0 and proc.stderr == b""
    small = tmp_path / "small.json"
    small.write_text(serialize.dump_json(dict(doc, m=2)))
    code, out, _ = run(capsys, command, "--input", str(small))
    assert code == 0
    assert json.loads(proc.stdout) == dict(json.loads(out), m=10 ** 9)


# ---------------------------------------------------------------------------
# a huge prime
# ---------------------------------------------------------------------------

HUGE_P = 2 ** 61 - 1  # prime; its job of p + 1 rows would exhaust memory


def run_python(*argv, env=None, timeout=5):
    """``python argv`` in a fresh interpreter that imports this package; the
    output comes back as bytes."""
    src = str(Path(logdop.__file__).resolve().parents[1])
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *argv], env=env,
                          capture_output=True, timeout=timeout)


def run_module(*argv, env=None, timeout=5):
    """``python -m logdop argv`` in a fresh interpreter (run_python)."""
    return run_python("-m", "logdop", *argv, env=env, timeout=timeout)


# ---------------------------------------------------------------------------
# the package: modules that import on their own, and no facade
# ---------------------------------------------------------------------------

MODULES = sorted(m.name for m in pkgutil.iter_modules(logdop.__path__)
                 if m.name != "__main__")


@pytest.mark.parametrize("module", MODULES)
def test_each_module_imports_first_in_a_fresh_interpreter(module):
    proc = run_python("-c", f"import logdop.{module}")
    assert proc.returncode == 0, proc.stderr.decode()


def test_the_cli_starts_without_dataclasses_or_inspect():
    # each CLI run is a fresh process: dataclasses pulls in inspect, ast, dis
    # and tokenize, and compiles its generated methods on every start
    proc = run_python("-c", "import sys, logdop.cli; "
                      "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    assert (proc.returncode, proc.stdout) == (0, b"[]\n"), proc.stderr.decode()


def test_the_module_runs_a_command():
    proc = run_module("h1", "--p", "3", "--d", "2")
    assert proc.returncode == 0 and proc.stderr == b"", proc.stderr.decode()
    assert proc.stdout == "H^1 for p=3, degrees <= 2, level m=0:\n  total: 4 × 3\n".encode()


def test_the_package_binds_no_public_name_and_runs_as_a_module():
    assert len(MODULES) >= 11
    proc = run_python("-c", "import logdop; "
                      "print(sorted(n for n in vars(logdop) if not n.startswith('_')))")
    assert (proc.returncode, proc.stdout) == (0, b"[]\n"), proc.stderr.decode()
    proc = run_module("--help")
    assert proc.returncode == 0 and proc.stdout.startswith(b"usage: logdop ")


@pytest.mark.parametrize("argv", [
    ("h1", "--p", str(HUGE_P), "--d", "1"),
    ("diagnose", "--p", str(HUGE_P), "--m", "0", "--dmax", "1"),
    ("lift", "--sample", "--p", str(HUGE_P), "--d", "1"),
    ("lift", "--input", "{tensor}"),
    ("data", "--input", "{tensor}"),
    ("data", "--input", "{operator}"),
], ids=["h1", "diagnose", "lift-sample", "lift-input", "data-tensor", "data-operator"])
def test_huge_prime_exits_3_before_any_primality_test(tmp_path, argv):
    files = {
        "tensor": {"format": "tensor-section/1", "p": HUGE_P, "d": 1, "m": 0,
                   "a": ["0"], "b": ["0", "0"]},
        "operator": {"format": "operator/1", "p": HUGE_P, "m": 0, "d": 1,
                     "terms": []},
    }
    for name, doc in files.items():
        (tmp_path / f"{name}.json").write_text(serialize.dump_json(doc))
    argv = [arg.format(**{n: tmp_path / f"{n}.json" for n in files}) for arg in argv]
    proc = run_module(*argv)
    assert proc.returncode == 3 and proc.stdout == b""
    assert proc.stderr.startswith(b"error: job size ") and proc.stderr.count(b"\n") == 1


def test_composite_p_with_only_large_factors_exits_2_at_once():
    # (2^31 - 1)^2: trial division would need about 10^9 steps to refuse it.
    # Never try a huge prime here: it passes the check and then builds a
    # matrix of p + 1 rows.
    p = (2 ** 31 - 1) ** 2
    proc = run_module("h1", "--p", str(p), "--d", "1", "--row-limit", str(10 ** 19))
    assert proc.returncode == 2 and proc.stdout == b""
    assert proc.stderr == f"error: p = {p} is not prime\n".encode()


def test_p_beyond_the_primality_bound_exits_2_at_once():
    # is_prime has no exact fast test at or above 3.317e24 and raises there;
    # this composite has only large factors, so trial division would hang
    p = (2 ** 61 - 1) * (2 ** 31 - 1)
    proc = run_module("h1", "--p", str(p), "--d", "1", "--row-limit", str(10 ** 30))
    assert proc.returncode == 2 and proc.stdout == b""
    assert proc.stderr.startswith(f"error: p = {p} is too large".encode())
    assert proc.stderr.count(b"\n") == 1


def test_composite_p_beyond_the_row_limit_exits_3(capsys):
    code, _, err = run(capsys, "h1", "--p", "10000", "--d", "1")
    assert code == 3 and err.startswith("error: job size 10001 ")


# ---------------------------------------------------------------------------
# pinned bytes and the locale
# ---------------------------------------------------------------------------

def test_h1_and_diagnose_bytes_are_pinned(capsys):
    # SHA-256 of two large outputs, so that a change to the elimination's
    # pivot order cannot move a byte of them
    code, h1_out, _ = run(capsys, "h1", "--p", "3", "--d", "30", "--per-degree",
                          "--format", "json")
    assert code == 0
    code, diag_out, _ = run(capsys, "diagnose", "--p", "5", "--m", "2", "--dmax", "20",
                            "--schedule", "sqrt", "--format", "json")
    assert code == 0
    assert hashlib.sha256(h1_out.encode()).hexdigest() == \
        "5dcc64c6020e9177621fbd1f99dc5404328181675c66f3776b8a32e505dfc0b5"
    assert hashlib.sha256(diag_out.encode()).hexdigest() == \
        "fe18069a4dfd59b56f1ec95f3f763163fbdadf62448770d4640d7fcb816da4d0"


def test_appendix_bytes_are_pinned(capsys):
    # the full report in both formats, and the flagged single row with its
    # stderr note, as written when each row still read its table afresh
    code, json_out, err = run(capsys, "appendix", "--format", "json")
    assert (code, err) == (0, "")
    assert hashlib.sha256(json_out.encode()).hexdigest() == \
        "1bdf139cac4d1dacbfeedafb4a60a15ef91b7b24c896bb20c76b9f02f313160f"
    code, text_out, err = run(capsys, "appendix")
    assert (code, err) == (0, "")
    assert hashlib.sha256(text_out.encode()).hexdigest() == \
        "eac600a07b7f8ab5d349cc74c866af757737034f0453a9c0f3402a364dc63074"
    assert run(capsys, "appendix", "--p", "3", "--d", "8") == (
        0, "28 × 3  20 × 3^2  12 × 3^3  4 × 3^4\n",
        "note: printed row differs: 28 × 3  10 × 3^2  12 × 3^3  4 × 3^4 "
        "[known-discrepancy]\n")


def _lift_round_trip(tmp_path, capsys, p, d, seed, level=0, method="both"):
    """Sample a section, lift it with --check; (stderr, SHA-256 of the
    section, lift and check files in that order)."""
    section, lift = tmp_path / "section.json", tmp_path / "lift.json"
    assert run(capsys, "lift", "--sample", "--p", str(p), "--d", str(d),
               "--level", str(level), "--seed", str(seed),
               "--out", str(section)) == (0, "", "")
    code, out, err = run(capsys, "lift", "--input", str(section), "--method", method,
                         "--check", "--out", str(lift))
    assert (code, out) == (0, "")
    digest = hashlib.sha256()
    for path in (section, lift, tmp_path / "lift.check.json"):
        digest.update(path.read_bytes())
    return err, digest.hexdigest()


LIFT_DIGESTS = {
    (3, 8): ["b280a7709d194e6f186da97d2db9d9642756dab83261b2b0ebb8c9662fe428fd",
             "a4c2fffcbc6b5d0edb46263d44aa7efdbca5d27085caa6591eed9c0303427975",
             "719ce55cc6c8a20bec5d7d75505318cef152c9913925995242d6a316616ea64b",
             "dc857b9faba2ff2abb2ff8ce0a4d2b6d29cc461d2509a436a5b78d6d05d87a33",
             "63b5a3190c2a577e4adb7483471a84b5ce86863b429f55abdb00630132088d8e"],
    (5, 6): ["fa169cb95cbe5f4d3477b16538fd1506b56bc1a1e755d4b9a9e71e6f5f98835c",
             "ce2611eacdfb1550cda7340690e75254d59b2eb1ed594a7b99c14620021354d6",
             "1dccce88a4b66219c5caca65bed3be5df17fa9d315effc71269a328a97e0dfdd",
             "04be62dd59142150f79ea21504e796f2d3463b7a758161ef0ba84ce96503bd81",
             "d0686b2cff257909cc3ddd387bbe1ee53ba3ba943ec2b624b9d4715d0b8624c8"],
}


@pytest.mark.parametrize("cell", sorted(LIFT_DIGESTS), ids=lambda c: f"p{c[0]}-d{c[1]}")
def test_lift_bytes_are_pinned(tmp_path, capsys, cell):
    # every file of the sample -> lift --method both --check round trip for
    # seeds 0..4, as written when operator local data came from the two
    # chart aggregates and Taylor shifts and the documents from dump_json
    results = [_lift_round_trip(tmp_path, capsys, *cell, seed) for seed in range(5)]
    assert results == [("solve/schedule outputs differ by a lift of zero: True\n", digest)
                       for digest in LIFT_DIGESTS[cell]]


def test_level_one_lift_bytes_are_pinned(tmp_path, capsys):
    assert _lift_round_trip(tmp_path, capsys, 3, 6, 0, level=1, method="solve") == (
        "", "a43ed3f28c69e3a81c4fa3b4a3ee5fdf8dafcffc944aec871e7fc60c4091306f")


@pytest.mark.parametrize("argv, digest", [
    (("h1", "--p", "3", "--d", "80", "--per-degree", "--format", "json",
      "--row-limit", "13000"),
     "f21672750231db4423434973a6dca7abd083f55dee3492fb9f2ce83df839c745"),
    (("h1", "--p", "5", "--d", "40", "--per-degree", "--format", "json"),
     "76807ccf9faa82b31ecd9237931f4440b88ed26c4a728d74a2086a4c99f9339a"),
], ids=["p3-d80", "p5-d40"])
def test_h1_bytes_are_pinned_at_large_d(capsys, argv, digest):
    # the digests come from the elimination of the full local-data matrix;
    # each group is now read off tensor_presentation
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


DIAGNOSE_P5_DIGESTS = [
    "525fb427b32cf4031c92a7b9b9e0e540c2a3a59c38deee8e8d91671ee821a300",
    "b2b8a21b1d1549ee0d461ef032319b413d8d68c38fbbc7aecc92922b8bb7a8e7",
    "fe18069a4dfd59b56f1ec95f3f763163fbdadf62448770d4640d7fcb816da4d0",
    "350fb0cd6338d2d26d9caeffc148772ba2ee2a6bf3226a407f5244bdfe6b7d78",
    "0967aa6e891fa33854dcdba3273ae2fbc04b4dfa8e068cd2fa29629f6d776685",
    "ff4c3cd19a3bcc0901c2caab0f1eaccae54e7f0a8e2b2a0600ceab8c723f1a05",
    "de38e990e2dcfd53288829315406a7fa5c3c081ab07827c751f51ec1829b1d68",
    "9e3bd6c3041f51d39c63368fc71f4725b047675277c30c2218c97ceb72c39993",
    "90aefbfa530f47b764be0c1b5c53fed9d8cb47af0528ac6578226ff6d5ccf84b",
]


@pytest.mark.parametrize("m", range(len(DIAGNOSE_P5_DIGESTS)))
def test_diagnose_bytes_are_pinned_at_every_level(capsys, m):
    # digests written by the power comparison p^a against d^b, whose d^b
    # took 4.5 s at m = 8; the bound's sign now comes from a continued fraction
    code, out, _ = run(capsys, "diagnose", "--p", "5", "--m", str(m), "--dmax", "20",
                       "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == DIAGNOSE_P5_DIGESTS[m]


def test_diagnose_at_a_high_level_answers_at_once():
    proc = run_module("diagnose", "--p", "5", "--m", "40", "--dmax", "20", timeout=20)
    assert proc.returncode == 0 and proc.stderr == b""


def test_diagnose_at_a_huge_level_never_builds_p_to_the_m():
    proc = run_module("diagnose", "--p", "5", "--m", "1000000000", "--dmax", "3",
                      "--format", "json", timeout=20)
    assert proc.returncode == 0 and proc.stderr == b""
    assert b'"m": 1000000000,' in proc.stdout


def test_output_is_utf8_under_an_ascii_locale(tmp_path):
    # the table text holds a non-ASCII "×"; under the C locale, with locale
    # coercion and UTF-8 mode off, stdout, --out and the stderr note must
    # still carry the bytes of a UTF-8 run
    argv = ("appendix", "--p", "7", "--d", "6")
    utf8 = run_module(*argv, env=dict(os.environ, PYTHONUTF8="1"))
    assert utf8.returncode == 0 and "×".encode() in utf8.stdout
    ascii_env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
    proc = run_module(*argv, env=ascii_env)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, utf8.stdout, b"")
    out = tmp_path / "row.txt"
    proc = run_module(*argv, "--out", str(out), env=ascii_env)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"", b"")
    assert out.read_bytes() == utf8.stdout
    argv = ("appendix", "--p", "3", "--d", "8")
    utf8 = run_module(*argv, env=dict(os.environ, PYTHONUTF8="1"))
    assert utf8.stderr.startswith("note: printed row differs: 28 × 3 ".encode())
    proc = run_module(*argv, env=ascii_env)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, utf8.stdout, utf8.stderr)


def test_streams_without_a_byte_buffer(tmp_path):
    # a caller may swap stdout or stderr for a text-only stream such as
    # io.StringIO: each command still answers with its exit code, and its
    # text lands in the stream in place of an AttributeError
    with redirect_stdout(io.StringIO()) as out:
        assert main(["h1", "--p", "3", "--d", "2"]) == 0
    assert out.getvalue() == ("H^1 for p=3, degrees <= 2, level m=0:\n"
                              "  total: 4 × 3\n")
    with redirect_stderr(io.StringIO()) as err:
        assert main(["h1", "--p", "4", "--d", "2"]) == 2
    assert err.getvalue() == "error: p = 4 is not prime\n"
    section = tmp_path / "section.json"
    assert main(["lift", "--sample", "--p", "3", "--d", "3", "--out", str(section)]) == 0
    with redirect_stdout(io.StringIO()) as out, redirect_stderr(io.StringIO()) as err:
        assert main(["lift", "--input", str(section), "--method", "both"]) == 0
    assert json.loads(out.getvalue())["format"] == "operator/1"
    assert err.getvalue() == "solve/schedule outputs differ by a lift of zero: True\n"
