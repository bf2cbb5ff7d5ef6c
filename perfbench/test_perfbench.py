"""Tests of the benchmark itself: span arithmetic, output checks, tracing.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import workloads
from spans import Spans, Tracer, layer_metrics, metric_units, self_times, union_length

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------

def test_union_length_merges_and_clips():
    assert union_length([(1, 3), (2, 5), (7, 8)], 0, 10) == 5
    assert union_length([(-2, 1), (9, 12)], 0, 10) == 2
    assert union_length([(4, 6), (4, 6), (5, 5.5)], 0, 10) == 2
    assert union_length([], 0, 10) == 0


def test_self_time_is_duration_minus_union_of_children():
    table = Spans.from_list([
        ("run", -1, 0, 10),
        ("a", 0, 1, 4),
        ("b", 0, 3, 6),    # overlaps a: the union is [1, 6], not 3 + 3
        ("c", 1, 2, 3),    # grandchild: counts against a, not run
        ("d", 0, 9, 12),   # runs past its parent: clipped to [9, 10]
    ])
    assert self_times(table) == [10 - 5 - 1, 3 - 1, 3, 1, 3]


def test_ratio_metrics_on_a_hand_built_table():
    rows = [
        ("run", -1, 0, 100),
        ("cli.main", 0, 0, 90),
        ("cli.command", 1, 0.5, 85),
        # two local_data_operator calls, nine operator_to_laurent calls
        ("localdata.local_data_operator", 2, 1, 10),
        ("calculus.operator_to_laurent", 3, 1, 2),
        ("calculus.operator_to_laurent", 3, 2, 3),
        ("calculus.operator_to_laurent", 3, 3, 4),
        ("calculus.operator_to_laurent", 3, 4, 5),
        ("localdata.local_data_operator", 2, 10, 20),
        ("calculus.operator_to_laurent", 8, 11, 12),
        ("calculus.operator_to_laurent", 8, 12, 13),
        ("calculus.operator_to_laurent", 8, 13, 14),
        ("calculus.operator_to_laurent", 8, 14, 15),
        ("calculus.operator_to_laurent", 2, 20, 21),   # outside local data
        # h1_tensor over two distinct groups, three Smith forms inside it
        ("engine.h1_tensor", 2, 30, 40),
        ("linalg.snf_tracked", 14, 31, 39),
        ("engine.h1_tensor", 2, 40, 50),
        ("linalg.snf_tracked", 16, 41, 45),
        ("linalg.snf_untracked", 16, 45, 49),
        ("engine.h1_tensor", 2, 50, 51),               # repeat of (3, 1, 0)
        ("linalg.snf_tracked", 2, 60, 70),             # outside h1_tensor
        ("cli._emit", 2, 80, 82),
    ]
    attrs = {14: [3, 1, 0], 16: [3, 2, 0], 19: [3, 1, 0],
             15: 10, 17: 20, 18: 30, 20: 40}
    m = layer_metrics(Spans.from_list(rows, attrs), untraced_run_s=80, traced_run_s=100)
    assert m["calculus.laurent_per_operator"] == 9 / 2
    assert m["engine.solver_builds_per_group"] == 3 / 2
    assert m["engine.h1_tensor.calls"] == 3
    assert m["linalg.snf_tracked.calls"] == 3
    assert m["linalg.snf_tracked.s"] == 8 + 4 + 10
    assert m["linalg.snf_cells"] == 100
    assert m["linalg.tracked_share"] == 22 / 26
    assert m["trace.overhead"] == pytest.approx(0.25)
    # cli.main's self time is parsing, [0, 0.5] and [85, 90]; cli._emit's is 2
    assert m["cli.self_s"] == 0.5 + 5 + 2
    # the root's own [90, 100], plus the command body outside its children,
    # which cover [1, 21], [30, 51], [60, 70] and [80, 82]
    assert m["trace.unattributed_share"] == pytest.approx(
        (10 + (84.5 - (20 + 21 + 10 + 2))) / 100)


def test_ratios_read_zero_where_a_layer_is_not_called():
    m = layer_metrics(Spans.from_list([("run", -1, 0, 1)]), 1.0, 1.0)
    assert m["calculus.laurent_per_operator"] == 0
    assert m["engine.solver_builds_per_group"] == 0
    assert m["linalg.tracked_share"] == 0


def test_layer_seconds_count_outermost_spans_only():
    rows = [("run", -1, 0, 10),
            ("serialize.dump_json", 0, 1, 4),
            ("serialize.h1_group_doc", 1, 2, 3),
            ("serialize.h1_report_to_text", 0, 5, 6)]
    m = layer_metrics(Spans.from_list(rows, {1: 100, 2: 7, 3: 20}), 1.0, 1.0)
    assert m["serialize.s"] == 3 + 1
    assert m["serialize.bytes_out"] == 120


def test_metric_names_are_well_formed_and_listed_in_benchmark_json():
    units = metric_units()
    for name in units:
        assert METRIC_NAME.fullmatch(name), name
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["per_layer"]] == list(units)
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == units
    for metric in bench["end_to_end"] + bench["per_layer"]:
        assert METRIC_NAME.fullmatch(metric["name"]), metric["name"]
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_tracer_round_trip(tmp_path):
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda x: x * 2, lambda a, kw, r: r)
    outer = tracer.wrap("outer", lambda x: inner(x) + inner(x + 1))
    assert outer(5) == 22
    with pytest.raises(ZeroDivisionError):
        tracer.wrap("boom", lambda: 1 / 0)()
    tracer.save(tmp_path)
    table = Spans.load(tmp_path)
    assert [table.label(i) for i in range(len(table))] == ["outer", "inner", "inner", "boom"]
    assert list(table.parent) == [-1, 0, 0, -1]
    assert table.attrs == {1: 10, 2: 12}
    assert all(table.end[i] >= table.start[i] for i in range(len(table)))


# ---------------------------------------------------------------------------
# output checks: genuine outputs pass, each check fails on forged ones
# ---------------------------------------------------------------------------

def _failed(checks) -> list:
    return [label for ok, label in checks if not ok]


def _cli(argv, cwd: Path) -> int:
    code = ("import sys, logdop.cli; "
            f"sys.exit(logdop.cli.main({argv!r}))")
    return subprocess.run([sys.executable, "-c", code], cwd=cwd,
                          env={"PYTHONPATH": str(SRC), "PATH": ""},
                          capture_output=True).returncode


@pytest.fixture(scope="module")
def appendix_run(tmp_path_factory):
    run_dir = tmp_path_factory.mktemp("appendix")
    plan = workloads.appendix_plan(0)
    for argv in plan[:2]:  # the verify suites write nothing the checks read
        assert _cli(argv, run_dir) == 0
    return run_dir, plan


def test_appendix_checks(appendix_run, tmp_path):
    run_dir, plan = appendix_run
    check = workloads.appendix_check
    assert _failed(check(run_dir, plan, [0] * 4, tmp_path)) == []
    assert len(_failed(check(run_dir, plan, [0, 0, 1, 0], tmp_path))) == 1

    forged = tmp_path / "forged"
    shutil.copytree(run_dir, forged)
    doc = json.loads((forged / "appendix-1.json").read_text())
    doc["tables"][0]["rows"][2]["status"] = "MISMATCH"
    (forged / "appendix-1.json").write_text(json.dumps(doc))
    failed = _failed(check(forged, plan, [0] * 4, tmp_path))
    assert any("accepted" in label for label in failed)
    assert any("byte-identical" in label for label in failed)

    doc = json.loads((run_dir / "appendix-1.json").read_text())
    p3 = next(t for t in doc["tables"] if t["p"] == 3)
    p3["rows"][7]["status"] = "match"      # d = 8 no longer flagged
    p3["rows"].pop()                        # and a row goes missing
    (forged / "appendix-1.json").write_text(json.dumps(doc))
    failed = _failed(check(forged, plan, [0] * 4, tmp_path))
    assert any("exactly (3, 8)" in label for label in failed)
    assert any("39 appendix rows" in label for label in failed)

    (forged / "appendix-1.json").write_text("{truncated")
    assert _failed(check(forged, plan, [0] * 4, tmp_path))


def _expected_copy(tmp_path: Path, name: str, corrupt: bool) -> Path:
    expected = tmp_path / ("corrupt" if corrupt else "expected")
    expected.mkdir(exist_ok=True)
    data = (workloads.EXPECTED_DIR / name).read_bytes()
    if corrupt:
        data = data.replace(b"1", b"2", 1)
    (expected / name).write_bytes(data)
    return expected


def test_bigrow_checks(tmp_path):
    plan = workloads.bigrow_plan(0)
    check = workloads.bigrow_check
    run_dir = _expected_copy(tmp_path, "bigrow.json", corrupt=False)
    assert _failed(check(run_dir, plan, [0], workloads.EXPECTED_DIR)) == []
    corrupt = _expected_copy(tmp_path, "bigrow.json", corrupt=True)
    assert _failed(check(run_dir, plan, [0], corrupt)) == [
        "bigrow.json byte-identical to expected/bigrow.json"]
    assert len(_failed(check(run_dir, plan, [3], workloads.EXPECTED_DIR))) == 1

    doc = json.loads((run_dir / "bigrow.json").read_text())
    doc["per_degree"][9]["exponents"].pop(0)        # d = 10 loses a summand
    doc["per_degree"][19]["exponents"] = [1] * 39   # d = 20: right count, exponent 1
    (run_dir / "bigrow.json").write_text(json.dumps(doc))
    failed = _failed(check(run_dir, plan, [0], workloads.EXPECTED_DIR))
    assert any(label.startswith("d=10: 18 summands") for label in failed)
    assert any(label.startswith("d=20: max exponent") for label in failed)


def test_descent_checks(tmp_path):
    plan = workloads.descent_plan(0)
    check = workloads.descent_check
    run_dir = _expected_copy(tmp_path, "descent.json", corrupt=False)
    assert _failed(check(run_dir, plan, [0], workloads.EXPECTED_DIR)) == []
    corrupt = _expected_copy(tmp_path, "descent.json", corrupt=True)
    assert len(_failed(check(run_dir, plan, [0], corrupt))) == 1
    assert len(_failed(check(run_dir, plan, [1], workloads.EXPECTED_DIR))) == 1
    (run_dir / "descent.json").unlink()
    assert len(_failed(check(run_dir, plan, [0], workloads.EXPECTED_DIR))) == 1


def test_lifts_checks(tmp_path):
    plan = workloads.lifts_plan(7)
    assert len(plan) == 400 and plan[0][plan[0].index("--seed") + 1] == "700"
    check = workloads.lifts_check
    for p, d in workloads.LIFT_CELLS:
        for k in range(workloads.LIFT_SECTIONS):
            doc = {"format": "local-data/1", "p": p, "d": d,
                   "entries": [{"residue": "0"}, {"residue": "0"}]}
            name = workloads._lift_names(p, d, k)[2]
            (tmp_path / name).write_text(json.dumps(doc))
    codes = [0] * len(plan)
    assert _failed(check(tmp_path, plan, codes, tmp_path)) == []

    bad = tmp_path / workloads._lift_names(5, 6, 42)[2]
    doc = json.loads(bad.read_text())
    doc["entries"][1]["residue"] = "3"
    bad.write_text(json.dumps(doc))
    assert _failed(check(tmp_path, plan, codes, tmp_path)) == [
        "lift (p=5, d=6, #42): --check document has no residues"]
    assert len(_failed(check(tmp_path, plan, codes[:-1], tmp_path))) == 2
    codes[5] = 4
    assert len(_failed(check(tmp_path, plan, codes, tmp_path))) == 2


# ---------------------------------------------------------------------------
# traced runs keep the program's behaviour
# ---------------------------------------------------------------------------

SMALL_PLAN = [
    ["h1", "--p", "3", "--d", "6", "--per-degree", "--format", "json", "--out", "h1.json"],
    ["appendix", "--p", "3", "--d", "8", "--format", "json", "--cache", "cache",
     "--out", "row-1.json"],
    ["appendix", "--p", "3", "--d", "8", "--format", "json", "--cache", "cache",
     "--out", "row-2.json"],
    ["lift", "--sample", "--p", "3", "--d", "4", "--seed", "11", "--out", "section.json"],
    ["lift", "--input", "section.json", "--method", "both", "--check", "--out", "lift.json"],
    ["diagnose", "--p", "3", "--m", "1", "--dmax", "6", "--format", "json",
     "--out", "diag.json"],
    ["verify", "--suite", "lattice"],
]


def _worker(mode: str, run_dir: Path) -> dict:
    run_dir.mkdir()
    (run_dir / "plan.json").write_text(json.dumps(SMALL_PLAN))
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "worker.py"), mode],
                          cwd=run_dir, env={"PYTHONPATH": str(SRC), "PATH": ""},
                          capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()
    return json.loads((run_dir / "result.json").read_text())


def test_traced_run_writes_the_same_outputs(tmp_path):
    plain = _worker("run", tmp_path / "plain")
    traced = _worker("trace", tmp_path / "traced")
    assert plain["exit_codes"] == traced["exit_codes"] == [0] * len(SMALL_PLAN)
    outputs = sorted(p.name for p in (tmp_path / "plain").glob("*.json")
                     if p.name not in ("plan.json", "result.json"))
    assert "lift.check.json" in outputs
    for name in outputs:
        assert (tmp_path / "plain" / name).read_bytes() == \
            (tmp_path / "traced" / name).read_bytes(), name
    table = Spans.load(tmp_path / "traced")
    m = layer_metrics(table, plain["run_s"], traced["run_s"])
    # first row pass: 8 misses (d <= 8); second pass: 8 hits; the lattice
    # suite misses d <= 8 for the four other primes and hits for p = 3,
    # because lru_cache keys h1_tensor(3, d) apart from h1_tensor(3, d, 0)
    assert (m["cache.misses"], m["cache.hits"], m["cache.put.calls"]) == (40, 16, 40)
    assert m["lifting.lift_by_solve.calls"] == 1
    assert m["localdata.q_d_matrix.calls"] > 0   # reached through engine's own name
    assert m["calculus.laurent_per_operator"] >= 4


INSTRUMENT_CHECK = """
import sys
import worker
from logdop import engine, linalg
from spans import Tracer

def bindings():
    found = {}
    for name, mod in list(sys.modules.items()):
        if name == "logdop" or name.startswith("logdop."):
            for key, value in vars(mod).items():
                found[f"{name}.{key}"] = value
                if isinstance(value, type) and value.__module__ == name:
                    for attr, member in vars(value).items():
                        found[f"{name}.{key}.{attr}"] = member
    return found

before = bindings()
tracer = Tracer()
worker.instrument(tracer)
after = bindings()
# the functions instrument wrapped, found through the wrappers it installed
wrapped = {id(value.__wrapped__) for key, value in after.items()
           if value is not before.get(key) and hasattr(value, "__wrapped__")}
assert len(wrapped) >= len(tracer.names), (len(wrapped), len(tracer.names))
unwrapped = [key for key, value in after.items() if id(value) in wrapped]
assert not unwrapped, unwrapped
assert hasattr(engine.q_d_matrix, "__wrapped__")         # an importer's own name
assert hasattr(linalg.CokernelSolver.__init__, "__wrapped__")
assert engine.h1_tensor.cache_info().currsize >= 0
assert worker.run_plan([["h1", "--p", "2", "--d", "3", "--cache", sys.argv[1],
                         "--out", sys.argv[2]]]) == [0]
"""


def test_instrument_replaces_every_binding(tmp_path):
    # in a subprocess, so that no wrapped module outlives the test
    proc = subprocess.run(
        [sys.executable, "-c", INSTRUMENT_CHECK, str(tmp_path / "cache"),
         str(tmp_path / "out")],
        env={"PYTHONPATH": f"{SRC}{os.pathsep}{BENCH_DIR}", "PATH": ""},
        capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()
