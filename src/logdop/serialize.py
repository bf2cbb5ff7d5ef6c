"""JSON/CSV/text document formats for sections, operators, data and reports.

All integer payloads (coefficients, residues) travel as decimal strings so
arbitrary-precision values survive any JSON reader.  Every document carries a
``format`` tag.  The JSON schemas ship under logdop/schemas, each pinning its
tag in ``properties.format.const``; the test suite finds a document's schema
by that tag and validates each emitted document against it.  The readers take
only what those schemas allow: no float, bool or string where an integer
belongs, and no coefficient but an ASCII decimal string.  Text output for H^1
groups mirrors the reference-table notation 'm x p^n'.
"""

from __future__ import annotations

import io
import json
from functools import lru_cache
from itertools import chain, groupby
from operator import attrgetter
from typing import TYPE_CHECKING

from .calculus import CHARTS, OperatorSection, TensorSection
from .errors import SectionFormatError
from .localdata import INF, LocalDataVector, coords_degree, coords_le

if TYPE_CHECKING:
    from .engine import H1Report, LevelDiagnostic
    from .tables import AppendixReport

FORMAT_TENSOR = "tensor-section/1"
FORMAT_OPERATOR = "operator/1"
FORMAT_LOCAL_DATA = "local-data/1"
FORMAT_H1_REPORT = "h1-report/1"
FORMAT_DIAGNOSTIC = "diagnostic/1"
FORMAT_APPENDIX_REPORT = "appendix-report/1"


def parse_json_document(text: str) -> dict:
    """json.loads with position-carrying errors for malformed input files:
    the package's one JSON decoder, for input files, cache entries and the
    reference tables."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SectionFormatError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # an integer literal past int's digit limit
        raise SectionFormatError(f"invalid JSON: {exc}") from exc
    except RecursionError as exc:  # fixed text: the message varies by Python version
        raise SectionFormatError("invalid JSON: nested too deeply") from exc
    if not isinstance(doc, dict):
        raise SectionFormatError("document root must be an object")
    return doc


def _expect(doc: dict, tag: str) -> None:
    if doc.get("format") != tag:
        raise SectionFormatError(
            f"expected a {tag} document, found format={doc.get('format')!r}")


def _decimals(values) -> tuple:
    """A JSON list of ASCII decimal strings (the schemas' ^-?[0-9]+$) as ints;
    ValueError for anything else."""
    if not (isinstance(values, list) and all(
            isinstance(x, str) and x.isascii() and x.removeprefix("-").isdigit()
            for x in values)):
        raise ValueError("not a list of decimal strings")
    return tuple(map(int, values))  # ValueError past int's digit limit


def _int_field(doc, key):
    """A JSON integer: no float, bool or string is read as one."""
    if key not in doc:
        raise SectionFormatError(f"missing field {key!r}")
    if type(doc[key]) is not int:
        raise SectionFormatError(f"field {key!r} is not an integer")
    return doc[key]


def section_size(doc: dict, tag: str) -> tuple:
    """(p, max(d, 1)) of a tensor-section or operator document, read without
    building the section: the job is sized before p is tested for primality
    (is_prime, a Miller-Rabin test)."""
    _expect(doc, tag)
    return _int_field(doc, "p"), max(_int_field(doc, "d"), 1)


# ---------------------------------------------------------------------------
# tensor sections
# ---------------------------------------------------------------------------

def tensor_to_doc(delta: TensorSection) -> dict:
    return {
        "format": FORMAT_TENSOR,
        "p": delta.p, "d": delta.d, "m": delta.m,
        "a": [str(x) for x in delta.A],
        "b": [str(x) for x in delta.B],
    }


def _decimal_list(values) -> str:
    """A nonempty top-level list field of decimal strings, laid out as
    ``indent=1``."""
    items = ",\n".join(f'  "{x}"' for x in values)
    return f"[\n{items}\n ]"


def tensor_text(delta: TensorSection) -> str:
    """The tensor-section/1 document of ``delta``, as ``dump_json`` would
    write it from tensor_to_doc, written directly like local_data_text; a
    section has d >= 1 A- and d+1 B-coefficients, so neither list is empty."""
    return (f'{{\n "format": "{FORMAT_TENSOR}",\n "p": {delta.p},\n'
            f' "d": {delta.d},\n "m": {delta.m},\n'
            f' "a": {_decimal_list(delta.A)},\n "b": {_decimal_list(delta.B)}\n}}\n')


def tensor_from_doc(doc: dict) -> TensorSection:
    _expect(doc, FORMAT_TENSOR)
    p, d, m = (_int_field(doc, k) for k in ("p", "d", "m"))
    try:
        a, b = _decimals(doc.get("a")), _decimals(doc.get("b"))
    except ValueError:
        raise SectionFormatError("coefficient lists must hold decimal strings") from None
    try:
        return TensorSection(p, d, m, a, b)
    except ValueError as exc:
        raise SectionFormatError(str(exc)) from None


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------

def operator_to_doc(op: OperatorSection) -> dict:
    return {
        "format": FORMAT_OPERATOR,
        "p": op.p, "m": op.m, "d": op.d,
        "terms": [
            {"chart": chart, "power": i, "order": k, "coeff": str(c)}
            for (chart, i, k), c in op.sorted_terms()
        ],
    }


def operator_text(op: OperatorSection) -> str:
    """The operator/1 document of ``op``, as ``dump_json`` would write it
    from operator_to_doc: one fixed 4-field block per term, sorted, written
    directly like local_data_text.  The charts "x" and "y" and the format
    tag are the only strings besides the decimal coefficients."""
    blocks = ",\n".join(
        f'  {{\n   "chart": "{chart}",\n   "power": {i},\n   "order": {k},\n'
        f'   "coeff": "{c}"\n  }}'
        for (chart, i, k), c in op.sorted_terms())
    terms = f"[\n{blocks}\n ]" if blocks else "[]"
    return (f'{{\n "format": "{FORMAT_OPERATOR}",\n "p": {op.p},\n'
            f' "m": {op.m},\n "d": {op.d},\n "terms": {terms}\n}}\n')


def operator_from_doc(doc: dict) -> OperatorSection:
    _expect(doc, FORMAT_OPERATOR)
    p, m, d = (_int_field(doc, k) for k in ("p", "m", "d"))
    if not isinstance(doc.get("terms"), list):
        raise SectionFormatError("need a 'terms' list")
    terms = {}
    for entry in doc["terms"]:
        try:
            chart, power, order = key = entry["chart"], entry["power"], entry["order"]
            if chart not in CHARTS or type(power) is not int or type(order) is not int:
                raise ValueError("not a term")
            (coeff,) = _decimals([entry["coeff"]])
        except (KeyError, TypeError, ValueError):
            raise SectionFormatError(f"malformed term entry: {entry!r}") from None
        terms[key] = terms.get(key, 0) + coeff
    try:
        return OperatorSection(p, m, d, terms)
    except ValueError as exc:
        raise SectionFormatError(str(exc)) from None


# ---------------------------------------------------------------------------
# local data
# ---------------------------------------------------------------------------

@lru_cache(maxsize=16)
def _local_data_frame(p: int, d: int, degree_only: bool) -> tuple:
    """(coordinates, pieces) of the entries list of a local-data/1 document.

    The list is pieces[0] r_0 pieces[1] ... r_{n-1} pieces[n], with r_j the
    residue at coordinates[j]: each piece closes the previous 5-field block
    and opens the next one up to its residue's opening quote.  Bounded like
    localdata._pascal_columns; a lift writes one shape per (p, d).
    """
    coords = coords_degree(p, d) if degree_only else coords_le(p, d)
    point = {INF: f'"{INF}"'}.get
    heads = [f'  {{\n   "point": {point(a, a)},\n   "order": {k},\n   "power": {i},\n'
             f'   "modulus_exponent": {k - i},\n   "residue": "' for a, k, i in coords]
    if not heads:
        return (), ("[]",)
    return tuple(coords), (("[\n" + heads[0],) + tuple('"\n  },\n' + h for h in heads[1:])
                           + ('"\n  }\n ]',))


def local_data_text(data: LocalDataVector) -> str:
    """The local-data/1 document of ``data``, as ``dump_json`` would write it.

    The format's only writer, and the bulk of a lift's output: a fixed header,
    then one fixed 5-field block per coordinate in ``data.coords()`` order,
    written directly rather than through the pure-Python ``indent=1`` encoder;
    only the residues are written per document, into the blocks' memoized
    text (_local_data_frame).  Every int goes through str(); "inf" and the
    format tag are the only strings, and residues are decimal strings.
    """
    coords, pieces = _local_data_frame(data.p, data.d, data.degree_only)
    residue = data.entries.get
    entries = "".join(chain.from_iterable(
        zip(pieces, [str(residue(c, 0)) for c in coords]))) + pieces[-1]
    return (f'{{\n "format": "{FORMAT_LOCAL_DATA}",\n "p": {data.p},\n'
            f' "d": {data.d},\n "m": {data.m},\n'
            f' "degree_only": {"true" if data.degree_only else "false"},\n'
            f' "entries": {entries}\n}}\n')


# ---------------------------------------------------------------------------
# H^1 reports
# ---------------------------------------------------------------------------

def h1_report_to_doc(report: H1Report, m: int) -> dict:
    return {
        "format": FORMAT_H1_REPORT,
        "p": report.p, "d": report.d, "m": m,
        "per_degree": [
            {"d": dd, "exponents": list(g.exponents)}
            for dd, g in enumerate(report.per_degree, start=1)
        ],
        "total": {"exponents": list(report.total.exponents)},
        "bounds": [
            {"d": dd, "bound": b, "max_exponent": g.max_exponent,
             "met": met, "equal": eq}
            for dd, (g, b, met, eq) in enumerate(
                zip(report.per_degree, report.bounds,
                    report.bound_met, report.bound_equal), start=1)
        ],
    }


def h1_report_to_text(report: H1Report, m: int, per_degree: bool = False) -> str:
    lines = [f"H^1 for p={report.p}, degrees <= {report.d}, level m={m}:"]
    lines.append(f"  total: {report.total.table_text()}")
    if per_degree:
        for dd, (g, b, met, eq) in enumerate(
                zip(report.per_degree, report.bounds,
                    report.bound_met, report.bound_equal), start=1):
            mark = "=" if eq else (">=" if met else "< BOUND")
            lines.append(f"  d={dd}: {g.table_text()}   (exponent {mark} {b})")
    return "\n".join(lines) + "\n"


def h1_report_to_csv(report: H1Report, per_degree: bool = False) -> str:
    lines = ["p,d,exponent,multiplicity"]
    if per_degree:
        for dd, g in enumerate(report.per_degree, start=1):
            for n, mult in g.summands():
                lines.append(f"{report.p},{dd},{n},{mult}")
    else:
        for n, mult in report.total.summands():
            lines.append(f"{report.p},{report.d},{n},{mult}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# appendix comparisons
# ---------------------------------------------------------------------------

def appendix_report_to_doc(report: AppendixReport) -> dict:
    tables = []
    for p, rows in groupby(report.comparisons, key=attrgetter("p")):  # (p, d) order
        tables.append({"p": p, "rows": [{
            "d": c.d,
            "printed": [[mult, n] for n, mult in c.printed.summands()],
            "computed": [[mult, n] for n, mult in c.computed.summands()],
            "status": c.status(),
            "known_discrepancy": c.known_discrepancy,
            "splitting_ok": c.splitting_ok,
            "summand_count_ok": c.summand_count_ok,
            "bound_met": c.bound_met,
            "bound_equal": c.bound_equal,
        } for c in rows]})
    return {
        "format": FORMAT_APPENDIX_REPORT,
        "tables": tables,
        "all_accepted": report.all_accepted,
    }


def appendix_report_to_text(report: AppendixReport) -> str:
    out = io.StringIO()
    for p, rows in groupby(report.comparisons, key=attrgetter("p")):
        out.write(f"p = {p}\n")
        for c in rows:
            out.write(f"  d={c.d:<3} {c.computed.table_text():<60} {c.status()}\n")
            if not c.matches_printed:
                out.write(f"        printed:  {c.printed.table_text()}\n")
                out.write(f"        splitting containment: {c.splitting_ok}, "
                          f"new-summand count (p-1)d-1: {c.summand_count_ok}\n")
    status = "OK" if report.all_accepted else "FAILED"
    out.write(f"{len(report.comparisons)} rows, verdict {status}\n")
    return out.getvalue()


# ---------------------------------------------------------------------------
# level diagnostics
# ---------------------------------------------------------------------------

def diagnostic_to_doc(diag: LevelDiagnostic) -> dict:
    return {
        "format": FORMAT_DIAGNOSTIC,
        "p": diag.p, "m": diag.m, "schedule": diag.schedule,
        "rows": [
            {"d": r.d, "max_exponent": r.max_exponent,
             "schedule_n": r.schedule_n, "vp_transition": r.vp_transition,
             "scheduled_exponent": r.scheduled_exponent,
             "pushed_exponent": r.pushed_exponent,
             "bound": r.bound_value,
             "bound_nonnegative": r.bound_nonnegative,
             "bound_satisfied": r.bound_satisfied}
            for r in diag.rows
        ],
        "grew": diag.grew,
        "trend_note": diag.trend_note(),
    }


_DIAG_COLUMNS = ("d", "max_exp", "n_d", "vp(d!/q!)", "sched_ord", "pushed_ord",
                 "bound", "bound>=0", "ok")


def diagnostic_to_text(diag: LevelDiagnostic) -> str:
    out = io.StringIO()
    out.write(f"level diagnostic: p={diag.p}, m={diag.m}, schedule={diag.schedule}\n")
    out.write("  " + "  ".join(f"{h:>9}" for h in _DIAG_COLUMNS) + "\n")
    for r in diag.rows:
        cells = (r.d, r.max_exponent, r.schedule_n, r.vp_transition,
                 r.scheduled_exponent, r.pushed_exponent,
                 f"{r.bound_value:.2f}", "yes" if r.bound_nonnegative else "no",
                 "yes" if r.bound_satisfied else "NO")
        out.write("  " + "  ".join(f"{str(c):>9}" for c in cells) + "\n")
    out.write("  " + diag.trend_note() + "\n")
    return out.getvalue()


def diagnostic_to_csv(diag: LevelDiagnostic) -> str:
    lines = ["d,max_exponent,schedule_n,vp_transition,scheduled_exponent,"
             "pushed_exponent,bound,bound_nonnegative,bound_satisfied"]
    for r in diag.rows:
        lines.append(
            f"{r.d},{r.max_exponent},{r.schedule_n},{r.vp_transition},"
            f"{r.scheduled_exponent},{r.pushed_exponent},{r.bound_value:.6f},"
            f"{int(r.bound_nonnegative)},{int(r.bound_satisfied)}")
    return "\n".join(lines) + "\n"


def dump_json(doc: dict) -> str:
    """The package's one JSON encoder: documents, reports and cache entries."""
    return json.dumps(doc, indent=1, sort_keys=False) + "\n"
