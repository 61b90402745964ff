"""Corpus sweep: measure dist(mu_t(G)) against the case predictions.

Each (graph, t) record measures dist(mu_t(G)), compares it with
predict_dist, and classifies the orbit of the root. Records are
independent, so sweeps may run across processes; results are emitted in
input order either way, making reports byte-identical for any --jobs.

Each graph's twin quotient (graphs.twin_quotient) and its chain, colored
by the kind of each class, are built once, with no chain of G: they
answer dist(G) and every row of the graph whose root orbit has at most
two points (distinguishing.quotient_dist at t = 0 and at the row's t),
and no DFS runs on G. A row first reads the first two rounds of colour
refinement on mu_t(G) off G's degrees (mycielskian.root_fixed_by_degrees),
with no mu_t(G) built. Where they set the root w apart, every
automorphism fixes it, the automorphisms of mu_t(G) are the lifts of
Aut(G) times the swaps of open twins (README), and quotient_dist
measures the row.

Every other row (the stars, K_1, K_2 and the few graphs whose root only
a deeper refinement sets apart) builds mu_t(G) and reads the root orbit
with orbit_of: one refinement, and at most one targeted search per other
member of the root's cell, with no chain of mu_t(G). The orbit's size
alone then picks the search. Where it is {w}, quotient_dist measures the
row. Where it is {w, x} (K_1 and the stars K_{1,m}, m >= 2), the value
is the larger of quotient_dist and 2: no automorphism fixing w reads the
root's color, so with two colors it can differ from x's, and then no
automorphism moving w keeps the coloring (README). Only a larger orbit
(K_2, whose mu_t(G) is an odd cycle) runs the distinguishing DFS on
mu_t(G), which builds its own chain. The row's method is search either
way: the value is exact and was found within the budget. Apart from the
chain builds and orbit_of, every search a record runs spends from its
budget; a row whose search, walk or DFS runs out of it reads
budget_exceeded, and every row of a graph whose dist(G) runs out of it
does too.
"""

from __future__ import annotations

import functools
import io
import json
import os
from collections import namedtuple

from . import distinguishing
from .automorphism import Budget, orbit_of
from .constructions import predict_dist
from .distinguishing import DEFAULT_BUDGET, distinguishing_number, quotient_dist
from .errors import MycdistError, SearchBudgetExceeded
from .graph6 import parse_graph6, write_graph6
from .graphs import Star, classify_star, isolated_vertices, twin_quotient
from .mycielskian import MycLayout, build_mycielskian, root_fixed_by_degrees

ORBIT_FIXED = "fixed"
ORBIT_CENTER_SHADOW = "center_shadow"
ORBIT_ALL = "all"
ORBIT_OTHER = "other"

METHOD_SEARCH = "search"
METHOD_BUDGET_EXCEEDED = "budget_exceeded"
METHOD_MALFORMED = "malformed"

# rows carrying these methods are bookkeeping, not prediction failures
NON_VIOLATION_METHODS = (METHOD_BUDGET_EXCEEDED, METHOD_MALFORMED)


class VerifyRecord(namedtuple("VerifyRecord", [
        "graph6", "n", "ell", "dist_g", "t", "case", "predicted_kind",
        "predicted_value", "measured", "method", "root_orbit", "passed"],
        defaults=(None,) * 10 + (False,))):
    """One (graph, t) row; the fields are CSV_FIELDS, with passed for pass.
    A row that measures nothing leaves the fields it has no value for to
    the defaults: None, and passed False."""

    __slots__ = ()


CSV_FIELDS = ["pass" if f == "passed" else f for f in VerifyRecord._fields]


class VerifyReport(namedtuple("VerifyReport", "records")):
    """The rows of a sweep, in input order."""

    __slots__ = ()

    @property
    def summary(self) -> dict:
        return {
            "records": len(self.records),
            "violations": sum(1 for r in self.records
                              if not r.passed and r.method not in NON_VIOLATION_METHODS),
            "budget_exceeded": sum(1 for r in self.records
                                   if r.method == METHOD_BUDGET_EXCEEDED),
            "malformed": sum(1 for r in self.records
                             if r.method == METHOD_MALFORMED),
        }


def classify_root_orbit(orbit: frozenset[int], layout: MycLayout,
                        star: Star | None) -> str:
    """The class of the root's orbit on mu_t(G), laid out by layout, for
    star = classify_star(G)."""
    root = layout.root
    if orbit == {root}:
        return ORBIT_FIXED
    if star is not None and orbit == {root, layout.vertex_id(star.center, layout.t)}:
        return ORBIT_CENTER_SHADOW
    if orbit == frozenset(range(layout.order)):
        return ORBIT_ALL
    return ORBIT_OTHER


def expected_root_orbit(star: Star | None) -> str:
    """The class of the root's orbit that the structure allows on every
    mu_t(G), for star = classify_star(G).

    K_2 lifts to an odd cycle (orbit is everything); every other graph
    pins the root, except a star K_{1,m} with m != 1, whose root orbit is
    {w, c^t} at every t, w the root and c^t the top copy of the center c.
    For m = 0, mu_t(K_1) is t isolated vertices and the edge c^t w.
    For m >= 2, with L_i the leaves:

    * Upper bound. deg w = deg c^t = m + 1, while every c^i below the top
      has degree 2m and every copy of a leaf degree 2, and m + 1 is
      neither for m >= 2. So the root's orbit lies in {w, c^t}.
    * Equality. Write w as c^(t+1). Swapping c^(t+1-2j) with c^(t-2j),
      and each L_i^(t-2j) with L_i^(t-1-2j), for every j >= 0 where both
      levels exist, is an automorphism taking w to c^t.
    """
    if star is None:
        return ORBIT_FIXED
    return ORBIT_ALL if star.m == 1 else ORBIT_CENTER_SHADOW


def _malformed_rows(line: str, ts: list[int]) -> list[VerifyRecord]:
    """The rows of an unreadable line, its bytes outside printable ASCII
    written as \\xNN, so that the report encodes under any codec."""
    raw = line.strip().encode("utf-8", "surrogateescape")
    text = "".join(chr(b) if 32 <= b < 127 else f"\\x{b:02x}" for b in raw)
    return [VerifyRecord(text, t=t, method=METHOD_MALFORMED) for t in ts]


def process_record(line: str, ts: list[int], budget_steps: int) -> list[VerifyRecord]:
    """All (line, t) rows for one corpus record; a line that is no graph6
    record, or that holds the order-0 graph, which has no mu_t, gets one
    malformed row per t."""
    try:
        g = parse_graph6(line)
    except MycdistError:
        g = None
    if g is None or g.n == 0:
        return _malformed_rows(line, ts)
    g6 = write_graph6(g)
    ell = len(isolated_vertices(g))
    star = classify_star(g)
    quotient = twin_quotient(g)
    # chains are built through the distinguishing module's attribute, the
    # one that bench/run.py --trace 1 wraps as the listing layer
    group = distinguishing.enumerate_automorphisms(quotient.graph, quotient.kinds)
    try:
        dist_g: int | None = quotient_dist(quotient, 0, group, Budget(budget_steps))
    except SearchBudgetExceeded:
        dist_g = None
    rows = []
    for t in ts:
        layout = MycLayout(g.n, t)
        if root_fixed_by_degrees(g, t):
            orbit: frozenset[int] = frozenset((layout.root,))
        else:
            mu = build_mycielskian(g, t)[0]
            orbit = orbit_of(mu, layout.root)
        orbit_class = classify_root_orbit(orbit, layout, star)
        if dist_g is None:
            # no prediction possible without dist(g); still worth a row
            rows.append(VerifyRecord(g6, g.n, ell, t=t, method=METHOD_BUDGET_EXCEEDED,
                                     root_orbit=orbit_class))
            continue
        prediction = predict_dist(g, t, dist_g)
        method = METHOD_SEARCH
        measured: int | None
        budget = Budget(budget_steps)
        try:
            if len(orbit) <= 2:
                measured = max(quotient_dist(quotient, t, group, budget), len(orbit))
            else:
                measured = distinguishing_number(mu, budget=budget).value
        except SearchBudgetExceeded:
            measured, method = None, METHOD_BUDGET_EXCEEDED
        ok = (measured is not None and prediction.holds(measured)
              and orbit_class == expected_root_orbit(star))
        rows.append(VerifyRecord(
            graph6=g6, n=g.n, ell=ell, dist_g=dist_g, t=t,
            case=prediction.case_tag, predicted_kind=prediction.kind,
            predicted_value=prediction.value, measured=measured, method=method,
            root_orbit=orbit_class, passed=ok))
    return rows


def run_verify(lines: list[str], ts: list[int], *, budget_steps: int = DEFAULT_BUDGET,
               jobs: int = 1) -> VerifyReport:
    """Sweep a corpus of graph6 records: process_record over each line,
    its rows in input order. budget_steps bounds every search a record
    runs; no record is refused for its order."""
    record = functools.partial(process_record, ts=ts, budget_steps=budget_steps)
    workers = min(jobs, os.cpu_count() or 1, len(lines))
    if workers > 1:
        # imported here: the pool pulls in multiprocessing, which a
        # one-process sweep and every other subcommand never use
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(record, lines, chunksize=8))
    else:
        results = map(record, lines)
    return VerifyReport(tuple(r for rows in results for r in rows))


def _row_dict(r: VerifyRecord) -> dict:
    return dict(zip(CSV_FIELDS, r))


_JSON_CONSTANTS = {None: "null", False: "false", True: "true"}


@functools.cache
def _key(k: str) -> str:
    """A dict key as printed; the documents use a small fixed set."""
    return json.dumps(k) + ": "


def _dumps(doc, indent: str = "\n") -> str:
    """json.dumps(doc, indent=2) for documents with str keys: json encodes
    with indent in pure Python, and this is faster. type(), not
    isinstance(): a bool is an int, and json prints it differently."""
    kind = type(doc)
    if kind is int:
        return str(doc)
    if kind is bool or doc is None:
        return _JSON_CONSTANTS[doc]
    inner = indent + "  "
    if kind is dict:
        items = [_key(k) + _dumps(v, inner) for k, v in doc.items()]
        return "{" + inner + ("," + inner).join(items) + indent + "}" if items else "{}"
    if kind is list or kind is tuple:
        items = [_dumps(x, inner) for x in doc]
        return "[" + inner + ("," + inner).join(items) + indent + "]" if items else "[]"
    return json.dumps(doc)  # str, float


def report_to_json(report: VerifyReport) -> str:
    doc = {"records": [_row_dict(r) for r in report.records],
           "summary": report.summary}
    return _dumps(doc) + "\n"


def _csv_cell(val) -> str:
    if val is None:
        return ""
    if isinstance(val, bool):
        return "true" if val else "false"
    return str(val)


def report_to_csv(report: VerifyReport) -> str:
    """One row per record, its fields in order: they are CSV_FIELDS."""
    # imported here: no other subcommand writes CSV
    import csv
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_FIELDS)
    writer.writerows([_csv_cell(val) for val in r] for r in report.records)
    return buf.getvalue()
