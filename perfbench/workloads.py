"""The benchmark's workloads: the CLI commands each cold run makes, and the
checks its outputs must pass.

Each workload is a fixed sequence of ``logdop.cli.main(argv)`` calls with
paths relative to the run directory.  Only ``lifts`` depends on the seed;
the other three are fixed by their (p, d, m) and ignore it.  Checks read the
files a run left behind and return (passed, label) pairs; they never raise
on missing or malformed output, which counts as failed.  Why each workload
was chosen is recorded in BENCHMARK.json.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

LIFT_CELLS = ((3, 8), (5, 6))
LIFT_SECTIONS = 100
KNOWN_DISCREPANCIES = {(3, 8)}
APPENDIX_ROWS = 39
BIGROW_P, BIGROW_D = 3, 30


@dataclass(frozen=True)
class Workload:
    name: str
    plan: Callable[[int], list]             # seed -> list of argv lists
    check: Callable[[Path, list, list, Path], list]  # run dir, plan, codes, expected dir


def _read_bytes(path: Path):
    try:
        return path.read_bytes()
    except OSError:
        return None


def _read_json(path: Path):
    data = _read_bytes(path)
    if data is None:
        return None
    try:
        return json.loads(data)
    except ValueError:
        return None


def _exit_checks(plan, codes) -> list:
    if len(codes) != len(plan):
        return [(False, f"{len(codes)} exit codes for {len(plan)} commands")]
    return [(code == 0, f"exit 0: {' '.join(argv)} (got {code})")
            for argv, code in zip(plan, codes)]


def _same_as_expected(run_dir: Path, expected_dir: Path, name: str) -> tuple:
    got = _read_bytes(run_dir / name)
    want = _read_bytes(expected_dir / name)
    return (got is not None and got == want,
            f"{name} byte-identical to expected/{name}")


# ---------------------------------------------------------------------------
# appendix
# ---------------------------------------------------------------------------

def appendix_plan(seed: int) -> list:
    passes = [["appendix", "--format", "json", "--cache", "cache",
               "--out", f"appendix-{n}.json"] for n in (1, 2)]
    return passes + [["verify", "--suite", "splitting"],
                     ["verify", "--suite", "lattice"]]


def _appendix_rows(doc) -> list:
    try:
        return [(table["p"], row["d"], row["status"])
                for table in doc["tables"] for row in table["rows"]]
    except (KeyError, TypeError):
        return []


def appendix_check(run_dir: Path, plan: list, codes: list, expected_dir: Path) -> list:
    checks = _exit_checks(plan, codes)
    rows = _appendix_rows(_read_json(run_dir / "appendix-1.json"))
    checks.append((len(rows) == APPENDIX_ROWS,
                   f"{APPENDIX_ROWS} appendix rows (got {len(rows)})"))
    for p, d, status in rows:
        checks.append((status in ("match", "known-discrepancy"),
                       f"row (p={p}, d={d}) accepted (status {status})"))
    flagged = {(p, d) for p, d, status in rows if status == "known-discrepancy"}
    checks.append((flagged == KNOWN_DISCREPANCIES,
                   f"known-discrepancy rows are exactly (3, 8) (got {sorted(flagged)})"))
    first = _read_bytes(run_dir / "appendix-1.json")
    second = _read_bytes(run_dir / "appendix-2.json")
    checks.append((first is not None and first == second,
                   "second (cached) pass byte-identical to the first"))
    return checks


# ---------------------------------------------------------------------------
# bigrow
# ---------------------------------------------------------------------------

def bigrow_plan(seed: int) -> list:
    return [["h1", "--p", str(BIGROW_P), "--d", str(BIGROW_D), "--per-degree",
             "--format", "json", "--out", "bigrow.json"]]


def bigrow_check(run_dir: Path, plan: list, codes: list, expected_dir: Path) -> list:
    p = BIGROW_P
    checks = _exit_checks(plan, codes)
    doc = _read_json(run_dir / "bigrow.json")
    try:
        per_degree = {row["d"]: row["exponents"] for row in doc["per_degree"]}
    except (KeyError, TypeError):
        per_degree = {}
    for d in range(1, BIGROW_D + 1):
        exps = per_degree.get(d, [])
        checks.append((len(exps) == (p - 1) * d - 1,
                       f"d={d}: {len(exps)} summands, expected (p-1)d-1"))
        bound = (p - 1) * (d + 1) // (p + 1)
        checks.append((max(exps, default=0) >= bound,
                       f"d={d}: max exponent >= floor((p-1)(d+1)/(p+1)) = {bound}"))
    checks.append(_same_as_expected(run_dir, expected_dir, "bigrow.json"))
    return checks


# ---------------------------------------------------------------------------
# lifts
# ---------------------------------------------------------------------------

def section_seed(seed: int, k: int) -> int:
    """S(seed, k): the sampling seed of section k; distinct for distinct pairs."""
    return LIFT_SECTIONS * seed + k


def _lift_names(p: int, d: int, k: int) -> tuple:
    stem = f"lift-p{p}-d{d}-{k}"
    return f"section-p{p}-d{d}-{k}.json", f"{stem}.json", f"{stem}.check.json"


def lifts_plan(seed: int) -> list:
    plan = []
    for p, d in LIFT_CELLS:
        for k in range(LIFT_SECTIONS):
            section, lift, _ = _lift_names(p, d, k)
            plan.append(["lift", "--sample", "--p", str(p), "--d", str(d),
                         "--seed", str(section_seed(seed, k)), "--out", section])
            plan.append(["lift", "--input", section, "--method", "both",
                         "--check", "--out", lift])
    return plan


def _no_residues(doc, p: int, d: int) -> bool:
    try:
        return (doc["format"] == "local-data/1" and doc["p"] == p and doc["d"] == d
                and len(doc["entries"]) > 0
                and all(int(e["residue"]) == 0 for e in doc["entries"]))
    except (KeyError, TypeError, ValueError):
        return False


def lifts_check(run_dir: Path, plan: list, codes: list, expected_dir: Path) -> list:
    checks = _exit_checks(plan, codes)
    for p, d in LIFT_CELLS:
        for k in range(LIFT_SECTIONS):
            check_doc = _read_json(run_dir / _lift_names(p, d, k)[2])
            checks.append((_no_residues(check_doc, p, d),
                           f"lift (p={p}, d={d}, #{k}): --check document has no residues"))
    return checks


# ---------------------------------------------------------------------------
# descent
# ---------------------------------------------------------------------------

def descent_plan(seed: int) -> list:
    return [["diagnose", "--p", "5", "--m", "2", "--dmax", "20", "--schedule", "sqrt",
             "--format", "json", "--out", "descent.json"]]


def descent_check(run_dir: Path, plan: list, codes: list, expected_dir: Path) -> list:
    checks = _exit_checks(plan, codes)
    checks.append(_same_as_expected(run_dir, expected_dir, "descent.json"))
    return checks


WORKLOADS = {w.name: w for w in (
    Workload("appendix", appendix_plan, appendix_check),
    Workload("bigrow", bigrow_plan, bigrow_check),
    Workload("lifts", lifts_plan, lifts_check),
    Workload("descent", descent_plan, descent_check),
)}
