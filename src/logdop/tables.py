"""Reference H^1 tables and their recomputation.

The repository embeds the published tables as data files, one per prime, with
summands stored as [multiplicity, exponent] pairs and a known_discrepancy
flag per row; load_golden reads a file through serialize's JSON decoder as
{degree: printed group} and the set of flagged degrees.  One row (p = 3, d = 8) is internally inconsistent as printed:
its second entry breaks both the degree-splitting against row d = 7 and the
new-summand count 2d-1.  Flagged rows are reported with both values and
validated against those two structural properties instead of the printed
numbers; everything else must match exactly.
"""

from __future__ import annotations

from importlib import resources

from .engine import h1_filtered, summand_count
from .linalg import AbelianPGroup
from .serialize import parse_json_document

_DATA = resources.files("logdop").joinpath("data/appendix")
TABLE_PRIMES = (2, 3, 5, 7, 11)  # one data file p<p>.json each; its rows are the table


def load_golden(p: int) -> tuple:
    """(groups, flagged) of one prime's reference table: groups maps each
    printed d, in the file's ascending order, to its AbelianPGroup, and
    flagged is the set of degrees marked known_discrepancy."""
    doc = parse_json_document(_DATA.joinpath(f"p{p}.json").read_text(encoding="utf-8"))
    if doc.get("p") != p:
        raise ValueError(f"corpus file for p={p} declares p={doc.get('p')}")
    rows = doc["rows"]
    groups = {row["d"]: AbelianPGroup(p, tuple(n for mult, n in row["summands"]
                                                for _ in range(mult)))
              for row in rows}
    return groups, {row["d"] for row in rows if row["known_discrepancy"]}


class RowComparison:
    """One table row, printed against computed.  Immutable after construction."""

    __slots__ = ("p", "d", "printed", "computed", "known_discrepancy",
                 "matches_printed", "splitting_ok", "summand_count_ok",
                 "bound_met", "bound_equal")

    def __init__(self, p: int, d: int, printed: AbelianPGroup, computed: AbelianPGroup,
                 known_discrepancy: bool, matches_printed: bool, splitting_ok: bool,
                 summand_count_ok: bool, bound_met: bool, bound_equal: bool):
        self.p = p
        self.d = d
        self.printed = printed
        self.computed = computed
        self.known_discrepancy = known_discrepancy
        self.matches_printed = matches_printed
        self.splitting_ok = splitting_ok          # computed row contains printed row d-1
        self.summand_count_ok = summand_count_ok  # new summands number (p-1)d - 1
        self.bound_met = bound_met
        self.bound_equal = bound_equal

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


def _compare(p: int, groups: dict, flagged, d: int, report) -> RowComparison:
    """Row d of one prime's table (groups, flagged: as load_golden returns
    them): the direct sum of the first d groups of an h1_filtered report.
    The splitting check reads the printed row d-1, so it can fail even where
    the computed rows agree."""
    printed = groups[d]
    computed = AbelianPGroup(p, tuple(n for g in report.per_degree[:d] for n in g.exponents))
    return RowComparison(
        p=p, d=d, printed=printed, computed=computed,
        known_discrepancy=d in flagged,
        matches_printed=computed == printed,
        splitting_ok=computed.contains_multiset(groups.get(d - 1, AbelianPGroup(p, ()))),
        summand_count_ok=report.per_degree[d - 1].num_factors == summand_count(p, d),
        bound_met=report.bound_met[d - 1],
        bound_equal=report.bound_equal[d - 1],
    )


def compare_row(p: int, d: int, cache=None) -> RowComparison:
    """One table row against its reference; ``cache`` as in h1_filtered."""
    groups, flagged = load_golden(p)
    if d not in groups:
        raise ValueError(f"no reference row for p={p}, d={d}")
    return _compare(p, groups, flagged, d, h1_filtered(p, d, cache=cache))


class AppendixReport:
    """Every row of every reference table.  Immutable after construction."""

    __slots__ = ("comparisons",)

    def __init__(self, comparisons: tuple):
        self.comparisons = comparisons

    @property
    def all_accepted(self) -> bool:
        return all(c.accepted for c in self.comparisons)

    def rows_for(self, p: int) -> list:
        return [c for c in self.comparisons if c.p == p]


def verify_appendix(cache=None) -> AppendixReport:
    """Recompute every row of every reference table, in (p, d) order, from
    one h1_filtered report per table, so each group is asked for once;
    ``cache`` is as in h1_filtered."""
    comparisons = []
    for p in TABLE_PRIMES:
        groups, flagged = load_golden(p)
        report = h1_filtered(p, max(groups), cache=cache)
        comparisons.extend(_compare(p, groups, flagged, d, report) for d in groups)
    return AppendixReport(tuple(comparisons))
