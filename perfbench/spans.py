"""Spans of a traced run, and the arithmetic that turns them into layer metrics.

A span is one call into a layer: its name, the span that was open when it
started (its parent, -1 for none), its start and end on one clock, and an
optional attribute recorded from the call's arguments or result (a matrix
shape, a cache verdict, an output size).  The worker records spans in
compact arrays and writes them out once, when the traced run ends; the
driver loads them and derives the per-layer metrics below.

Only the standard library is used, so the worker can import this module
without touching the program under test.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path

ROOT_SPAN = "run"

# Layers whose metrics are a call count and inclusive seconds ("x.calls", "x.s").
CALLS_AND_SECONDS = (
    "linalg.snf_tracked",
    "linalg.snf_untracked",
    "linalg.solve",
    "linalg.element_order",
    "calculus.coeff_a_level",
    "calculus.transform_term",
    "calculus.operator_to_laurent",
    "localdata.q_d_matrix",
    "localdata.operator_matrix",
    "localdata.local_data_operator",
    "localdata.local_data_tensor",
    "engine.h1_tensor",
    "lifting.lift_by_solve",
    "lifting.lift_by_schedule",
    "tables.compare_row",
    "tables.load_golden",
    "cache.get",
    "cache.put",
)

# Layers whose metric is inclusive seconds only ("x.s").
SECONDS_ONLY = (
    "linalg.kernel_basis",
    "linalg.det",
    "linalg.rank_mod_p",
    "engine.verify_splitting",
    "engine.lattice_order_check",
    "lifting.correction_solver",
    "lifting.sample_kernel_section",
)

SNF_SPANS = ("linalg.snf_tracked", "linalg.snf_untracked")
SERIALIZE_PREFIX = "serialize."

# The CLI layer: argument parsing (self time of cli.main) and the helpers for
# guards, cache install and file output.
CLI_SPANS = ("cli.main", "cli._guard", "cli._require_prime", "cli._install_cache",
             "cli._emit")
# Spans whose self time no layer accounts for: the root, and each command
# handler's own body (report assembly and every unwrapped program function it
# calls, such as h1_filtered or the verify suites).
UNATTRIBUTED_SPANS = (ROOT_SPAN, "cli.command")
TOP_SELF_TIMES = 5


def metric_units() -> dict:
    """Every per-layer metric name, in report order, with its unit."""
    units = {}
    for name in CALLS_AND_SECONDS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.s"] = "s"
    for name in SECONDS_ONLY:
        units[f"{name}.s"] = "s"
    units.update({
        "linalg.snf_cells": "cells",
        "linalg.tracked_share": "ratio",
        "calculus.laurent_per_operator": "ratio",
        "engine.solver_builds_per_group": "ratio",
        "engine.level_descent_diagnostic.self_s": "s",
        "cache.hits": "count",
        "cache.misses": "count",
        "serialize.s": "s",
        "serialize.bytes_out": "bytes",
        "cli.self_s": "s",
        "trace.overhead": "ratio",
        "trace.unattributed_share": "ratio",
    })
    return units


# ---------------------------------------------------------------------------
# recording (runs inside the traced worker)
# ---------------------------------------------------------------------------

class Tracer:
    """Records one span per call of each wrapped function, in memory."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.attrs: dict = {}
        self._stack = [-1]

    def wrap(self, span_name: str, fn, attr=None):
        """Return fn wrapped to record a span per call.

        ``attr(args, kwargs, result)``, when given, stores one JSON value on
        the span.  The wrapper keeps fn's behaviour: same result, same
        exceptions, and lru_cache's cache_clear/cache_info stay reachable.
        """
        if span_name not in self._ids:
            self._ids[span_name] = len(self.names)
            self.names.append(span_name)
        nid = self._ids[span_name]
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack, attrs, clock = self._stack, self.attrs, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if attr is not None:
                attrs[idx] = attr(args, kwargs, result)
            return result

        for name in ("cache_clear", "cache_info"):
            if hasattr(fn, name):
                setattr(traced, name, getattr(fn, name))
        return traced

    def save(self, directory) -> None:
        """Write the spans: a JSON header plus the four arrays in binary."""
        directory = Path(directory)
        header = {"names": self.names, "count": len(self.start),
                  "attrs": {str(k): v for k, v in self.attrs.items()}}
        (directory / "spans.json").write_text(json.dumps(header))
        with open(directory / "spans.bin", "wb") as fh:
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(fh)


# ---------------------------------------------------------------------------
# arithmetic (runs in the driver and in the benchmark's tests)
# ---------------------------------------------------------------------------

@dataclass
class Spans:
    """Span table: ``name[i]`` indexes ``names``; parents precede children."""

    names: list
    name: object
    parent: object
    start: object
    end: object
    attrs: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.start)

    def label(self, i: int) -> str:
        return self.names[self.name[i]]

    @classmethod
    def from_list(cls, rows, attrs=None) -> "Spans":
        """Build from (name, parent, start, end) tuples, for hand-made tables."""
        names, ids = [], {}
        for row in rows:
            if row[0] not in ids:
                ids[row[0]] = len(names)
                names.append(row[0])
        return cls(names, [ids[r[0]] for r in rows], [r[1] for r in rows],
                   [float(r[2]) for r in rows], [float(r[3]) for r in rows],
                   dict(attrs or {}))

    @classmethod
    def load(cls, directory) -> "Spans":
        directory = Path(directory)
        header = json.loads((directory / "spans.json").read_text())
        n = header["count"]
        arrays = [array("i"), array("i"), array("d"), array("d")]
        with open(directory / "spans.bin", "rb") as fh:
            for arr in arrays:
                arr.fromfile(fh, n)
        attrs = {int(k): v for k, v in header["attrs"].items()}
        return cls(header["names"], *arrays, attrs)


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, each clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        elif b > cur_hi:
            cur_hi = b
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Spans) -> list:
    """Each span's duration minus the union of its children's intervals."""
    children: dict = {}
    for i, par in enumerate(spans.parent):
        if par >= 0:
            children.setdefault(par, []).append((spans.start[i], spans.end[i]))
    out = []
    for i in range(len(spans)):
        lo, hi = spans.start[i], spans.end[i]
        kids = children.get(i)
        out.append(hi - lo - (union_length(kids, lo, hi) if kids else 0.0))
    return out


def _outermost(spans: Spans, matches) -> list:
    """Indices of spans satisfying ``matches`` with no ancestor that does."""
    inside = [False] * len(spans)
    out = []
    for i in range(len(spans)):
        par = spans.parent[i]
        hit = matches(spans.label(i))
        enclosed = par >= 0 and inside[par]
        if hit and not enclosed:
            out.append(i)
        inside[i] = hit or enclosed
    return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: Spans, untraced_run_s: float, traced_run_s: float) -> dict:
    """Per-layer metric values of one traced run (name -> number).

    A ratio whose base is zero on a workload (the layer is not called there)
    reads 0.  Parents must precede their children in the table, as they do
    in any recording.
    """
    by_name: dict = {}
    for i in range(len(spans)):
        by_name.setdefault(spans.label(i), []).append(i)
    selfs = self_times(spans)

    def dur(i):
        return spans.end[i] - spans.start[i]

    def calls(name):
        return len(by_name.get(name, ()))

    def seconds(name):
        return sum(dur(i) for i in _outermost(spans, lambda s: s == name))

    metrics = {}
    for name in CALLS_AND_SECONDS:
        metrics[f"{name}.calls"] = calls(name)
        metrics[f"{name}.s"] = seconds(name)
    for name in SECONDS_ONLY:
        metrics[f"{name}.s"] = seconds(name)

    snf = [i for name in SNF_SPANS for i in by_name.get(name, ())]
    metrics["linalg.snf_cells"] = sum(spans.attrs.get(i, 0) for i in snf)
    tracked = metrics["linalg.snf_tracked.s"]
    metrics["linalg.tracked_share"] = _ratio(
        tracked, tracked + metrics["linalg.snf_untracked.s"])
    metrics["calculus.laurent_per_operator"] = _ratio(
        calls("calculus.operator_to_laurent"), calls("localdata.local_data_operator"))

    # Smith forms started inside h1_tensor, per distinct (p, d, m) asked for
    h1 = by_name.get("engine.h1_tensor", ())
    under_h1 = set(_subtree(spans, h1))
    builds = sum(1 for i in snf if i in under_h1)
    groups = {tuple(spans.attrs[i]) for i in h1 if i in spans.attrs}
    metrics["engine.solver_builds_per_group"] = _ratio(builds, len(groups))

    metrics["engine.level_descent_diagnostic.self_s"] = sum(
        selfs[i] for i in by_name.get("engine.level_descent_diagnostic", ()))
    gets = by_name.get("cache.get", ())
    metrics["cache.hits"] = sum(1 for i in gets if spans.attrs.get(i))
    metrics["cache.misses"] = len(gets) - metrics["cache.hits"]

    top_serialize = _outermost(spans, lambda s: s.startswith(SERIALIZE_PREFIX))
    metrics["serialize.s"] = sum(dur(i) for i in top_serialize)
    metrics["serialize.bytes_out"] = sum(spans.attrs.get(i, 0) for i in top_serialize)
    metrics["cli.self_s"] = sum(selfs[i] for name in CLI_SPANS
                                for i in by_name.get(name, ()))

    metrics["trace.overhead"] = _ratio(traced_run_s, untraced_run_s) - 1.0
    unattributed = sum(selfs[i] for name in UNATTRIBUTED_SPANS
                       for i in by_name.get(name, ()))
    metrics["trace.unattributed_share"] = _ratio(
        unattributed, sum(dur(i) for i in by_name.get(ROOT_SPAN, ())))
    return metrics


def _subtree(spans: Spans, roots) -> list:
    """Indices of all strict descendants of the given spans."""
    marked = [False] * len(spans)
    for i in roots:
        marked[i] = True
    out = []
    for i in range(len(spans)):
        par = spans.parent[i]
        if par >= 0 and marked[par]:
            marked[i] = True
            out.append(i)
    return out


def top_self_times(spans: Spans) -> list:
    """(span name, summed self seconds) of the TOP_SELF_TIMES names with the
    most self time."""
    totals: dict = {}
    for i, s in enumerate(self_times(spans)):
        totals[spans.label(i)] = totals.get(spans.label(i), 0.0) + s
    return sorted(totals.items(), key=lambda kv: -kv[1])[:TOP_SELF_TIMES]
