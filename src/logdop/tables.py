"""Reference H^1 tables and their recomputation.

The repository embeds the published tables as data files, one per prime, with
summands stored as [multiplicity, exponent] pairs and a known_discrepancy
flag per row.  One row (p = 3, d = 8) is internally inconsistent as printed:
its second entry breaks both the degree-splitting against row d = 7 and the
new-summand count 2d-1.  Flagged rows are reported with both values and
validated against those two structural properties instead of the printed
numbers; everything else must match exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

from .engine import h1_filtered
from .linalg import AbelianPGroup

TABLE_RANGES = ((2, 11), (3, 9), (5, 8), (7, 6), (11, 5))
TABLE_PRIMES = tuple(p for p, _ in TABLE_RANGES)


@dataclass(frozen=True)
class GoldenRow:
    p: int
    d: int
    group: AbelianPGroup
    known_discrepancy: bool


def _summands_to_group(p, summands) -> AbelianPGroup:
    exps = []
    for mult, n in summands:
        exps.extend([n] * mult)
    return AbelianPGroup(p, tuple(exps))


def load_golden(p: int) -> list:
    """Reference rows for one prime, ascending d."""
    data = resources.files("logdop").joinpath(f"data/appendix/p{p}.json")
    doc = json.loads(data.read_text(encoding="utf-8"))
    if doc.get("p") != p:
        raise ValueError(f"corpus file for p={p} declares p={doc.get('p')}")
    return [GoldenRow(p, row["d"], _summands_to_group(p, row["summands"]),
                      row.get("known_discrepancy", False))
            for row in doc["rows"]]


@dataclass(frozen=True)
class RowComparison:
    p: int
    d: int
    printed: AbelianPGroup
    computed: AbelianPGroup
    known_discrepancy: bool
    matches_printed: bool
    splitting_ok: bool       # computed row contains printed row d-1
    summand_count_ok: bool   # new summands number (p-1)d - 1
    bound_met: bool
    bound_equal: bool

    @property
    def accepted(self) -> bool:
        """Row verdict: exact match, or (flagged rows only) both structural checks."""
        if self.matches_printed:
            return True
        return self.known_discrepancy and self.splitting_ok and self.summand_count_ok

    def status(self) -> str:
        if self.matches_printed:
            return "match"
        if self.accepted:
            return "known-discrepancy"
        return "MISMATCH"


def compare_row(p: int, d: int) -> RowComparison:
    """One table row from one h1_filtered report; the splitting check reads
    the printed row d-1, so it can fail even where the computed rows agree."""
    golden = {row.d: row for row in load_golden(p)}
    if d not in golden:
        raise ValueError(f"no reference row for p={p}, d={d}")
    printed = golden[d]
    previous = golden[d - 1].group if d > 1 else AbelianPGroup(p, ())
    report = h1_filtered(p, d)
    computed = report.total
    return RowComparison(
        p=p, d=d, printed=printed.group, computed=computed,
        known_discrepancy=printed.known_discrepancy,
        matches_printed=computed == printed.group,
        splitting_ok=computed.contains_multiset(previous),
        summand_count_ok=report.per_degree[-1].num_factors == (p - 1) * d - 1,
        bound_met=report.bound_met[-1],
        bound_equal=report.bound_equal[-1],
    )


@dataclass(frozen=True)
class AppendixReport:
    comparisons: tuple

    @property
    def all_accepted(self) -> bool:
        return all(c.accepted for c in self.comparisons)

    def rows_for(self, p: int) -> list:
        return [c for c in self.comparisons if c.p == p]


def verify_appendix() -> AppendixReport:
    """Recompute all reference tables and compare row by row, in (p, d) order."""
    return AppendixReport(tuple(compare_row(p, d) for p, dmax in TABLE_RANGES
                                for d in range(1, dmax + 1)))
