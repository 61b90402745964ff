"""Corpus sweep: measure dist(mu_t(G)) against the case predictions.

Each (graph, t) record measures or certifies dist(mu_t(G)), compares it
with predict_dist, and classifies the orbit of the root. Records are
independent, so sweeps may run across processes; results are emitted in
input order either way, making reports byte-identical for any --jobs.

Each graph's group is built once as a stabilizer chain. Every
automorphism sigma of G lifts to mu_t(G), acting on each layer as sigma
does and fixing the root, so the chain of mu_t(G) is seeded with the
lifts of the generators of G's chain and searches only for the
automorphisms they do not reach. The root is the last vertex, the
chain's first base point, so its orbit is read off the chain's top level
with no search of its own, and the same chain serves the distinguishing
search.
"""

from __future__ import annotations

import csv
import io
import json
import os
from collections import namedtuple

from . import distinguishing
# bench/run.py --trace 1 wraps verify.orbit_of by name; records read the
# root orbit off the chain instead
from .automorphism import AutListing, Budget, orbit_of  # noqa: F401
from .constructions import (CASE_ISOLATE_DOMINATED, CASE_K1_TGT1, EXACT,
                            isolate_case_coloring, predict_dist)
from .distinguishing import (DEFAULT_BUDGET, distinguishing_number,
                             is_distinguishing)
from .errors import MycdistError, SearchBudgetExceeded
from .graph6 import parse_graph6, write_graph6
from .graphs import Graph, classify_star, isolated_vertices
from .mycielskian import MycLayout, build_mycielskian

CSV_FIELDS = ["graph6", "n", "ell", "dist_g", "t", "case", "predicted_kind",
              "predicted_value", "measured", "method", "root_orbit", "pass"]

ORBIT_FIXED = "fixed"
ORBIT_CENTER_SHADOW = "center_shadow"
ORBIT_ALL = "all"
ORBIT_OTHER = "other"

METHOD_SEARCH = "search"
METHOD_CERTIFIED = "certified"
METHOD_BUDGET_EXCEEDED = "budget_exceeded"
METHOD_MALFORMED = "malformed"

# rows carrying these methods are bookkeeping, not prediction failures
NON_VIOLATION_METHODS = (METHOD_BUDGET_EXCEEDED, METHOD_MALFORMED)


class VerifyRecord(namedtuple("VerifyRecord", [
        "graph6", "n", "ell", "dist_g", "t", "case", "predicted_kind",
        "predicted_value", "measured", "method", "root_orbit", "passed"])):
    """One (graph, t) row; the fields are CSV_FIELDS, with passed for pass."""

    __slots__ = ()


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


def classify_root_orbit(orbit: frozenset[int], g: Graph, t: int) -> str:
    layout = MycLayout(g.n, t)
    root = layout.root
    if orbit == {root}:
        return ORBIT_FIXED
    star = classify_star(g)
    if star is not None and orbit == {root, layout.vertex_id(star.center, t)}:
        return ORBIT_CENTER_SHADOW
    if orbit == frozenset(range(layout.order)):
        return ORBIT_ALL
    return ORBIT_OTHER


def root_orbit_conforms(orbit_class: str, g: Graph, t: int) -> bool:
    """Does the observed root orbit match the classification for this source?

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
    star = classify_star(g)
    if star is not None and star.m == 1:
        return orbit_class == ORBIT_ALL
    if star is not None:
        return orbit_class == ORBIT_CENTER_SHADOW
    return orbit_class == ORBIT_FIXED


def _lifts(group: AutListing, t: int) -> list[tuple[int, ...]]:
    """The generators of G's chain lifted to mu_t(G): s*n + i goes to
    s*n + sigma(i) on each layer s, and the root is fixed."""
    n = group.n
    root = MycLayout(n, t).root
    return [tuple(s * n + x for s in range(t + 1) for x in h) + (root,)
            for _, _, gens in group.levels for h in gens]


def _root_orbit(chain: AutListing, root: int) -> frozenset[int]:
    """Orbit of the last vertex, the chain's first base point: the images
    of the top level when the root is its base point, and the root alone
    when the refined unit partition already isolates it."""
    if chain.levels and chain.levels[-1][0] == root:
        return frozenset(img[root] for img in chain.levels[-1][1])
    return frozenset((root,))


def _certify_exact(g: Graph, t: int, mu, mu_group: AutListing, prediction,
                   dist_g_result) -> bool:
    """Twin lower bound == constructive upper bound, both checked; the
    bound is the largest twin class kept on mu's chain."""
    if prediction.kind != EXACT:
        return False
    if prediction.case_tag not in (CASE_ISOLATE_DOMINATED, CASE_K1_TGT1):
        return False
    if max(len(cl) for cl in mu_group.twins) != prediction.value:
        return False
    coloring = isolate_case_coloring(g, t, dist_g_result.certificate)
    return coloring.k == prediction.value and is_distinguishing(mu, coloring)


def process_record(line: str, ts: list[int], budget_steps: int) -> list[VerifyRecord]:
    """All (line, t) rows for one corpus record."""
    g = parse_graph6(line)
    g6 = write_graph6(g)
    ell = len(isolated_vertices(g))
    # chains are built through the distinguishing module's attribute, the
    # one that bench/run.py --trace 1 wraps as the listing layer
    group = distinguishing.enumerate_automorphisms(g)
    try:
        dist_g_result = distinguishing_number(g, budget=Budget(budget_steps),
                                              group=group)
    except SearchBudgetExceeded:
        dist_g_result = None
    rows = []
    for t in ts:
        mu, layout = build_mycielskian(g, t)
        mu_group = distinguishing.enumerate_automorphisms(mu, known=_lifts(group, t))
        orbit_class = classify_root_orbit(_root_orbit(mu_group, layout.root), g, t)
        if dist_g_result is None:
            # no prediction possible without dist(g); still worth a row
            rows.append(VerifyRecord(
                graph6=g6, n=g.n, ell=ell, dist_g=None, t=t, case=None,
                predicted_kind=None, predicted_value=None, measured=None,
                method=METHOD_BUDGET_EXCEEDED, root_orbit=orbit_class, passed=False))
            continue
        prediction = predict_dist(g, t, dist_g_result.value)
        method = METHOD_SEARCH
        measured: int | None
        try:
            measured = distinguishing_number(mu, budget=Budget(budget_steps),
                                             group=mu_group).value
        except SearchBudgetExceeded:
            if _certify_exact(g, t, mu, mu_group, prediction, dist_g_result):
                measured, method = prediction.value, METHOD_CERTIFIED
            else:
                measured, method = None, METHOD_BUDGET_EXCEEDED
        if measured is None:
            ok = False
        elif prediction.kind == EXACT:
            ok = measured == prediction.value
        else:
            ok = measured <= prediction.value
        ok = ok and root_orbit_conforms(orbit_class, g, t)
        rows.append(VerifyRecord(
            graph6=g6, n=g.n, ell=ell, dist_g=dist_g_result.value, t=t,
            case=prediction.case_tag, predicted_kind=prediction.kind,
            predicted_value=prediction.value, measured=measured, method=method,
            root_orbit=orbit_class, passed=ok))
    return rows


def _worker(args) -> list[VerifyRecord]:
    return process_record(*args)


def _malformed_rows(line: str, ts: list[int]) -> list[VerifyRecord]:
    return [VerifyRecord(
        graph6=line.strip(), n=None, ell=None, dist_g=None, t=t, case=None,
        predicted_kind=None, predicted_value=None, measured=None,
        method=METHOD_MALFORMED, root_orbit=None, passed=False) for t in ts]


def run_verify(lines: list[str], ts: list[int], *, budget_steps: int = DEFAULT_BUDGET,
               max_n: int = 6, jobs: int = 1) -> VerifyReport:
    """Sweep a corpus of graph6 records.

    Unparseable and order-0 records are noted as malformed rows and the
    sweep continues; a record larger than max_n is a caller error and
    raises, since it changes the cost class of the whole run.
    """
    parts: list[list[VerifyRecord] | None] = [None] * len(lines)
    good: list[tuple[int, str]] = []
    for idx, line in enumerate(lines):
        try:
            g = parse_graph6(line)
        except MycdistError:
            parts[idx] = _malformed_rows(line, ts)
            continue
        if g.n > max_n:
            raise MycdistError(
                f"record {idx + 1} ({line.strip()!r}): n={g.n} exceeds max-n {max_n}")
        if g.n == 0:
            parts[idx] = _malformed_rows(line, ts)
            continue
        good.append((idx, line))
    tasks = [(line, ts, budget_steps) for _, line in good]
    workers = min(jobs, os.cpu_count() or 1, len(tasks))
    if workers > 1:
        # imported here: the pool pulls in multiprocessing, which a
        # one-process sweep and every other subcommand never use
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_worker, tasks, chunksize=8))
    else:
        results = [_worker(task) for task in tasks]
    for (idx, _), rows in zip(good, results):
        parts[idx] = rows
    return VerifyReport(tuple(r for part in parts for r in part))


def _row_dict(r: VerifyRecord) -> dict:
    d = r._asdict()
    d["pass"] = d.pop("passed")  # the last field, so the order is CSV_FIELDS
    return d


def report_to_json(report: VerifyReport) -> str:
    doc = {"records": [_row_dict(r) for r in report.records],
           "summary": report.summary}
    return json.dumps(doc, indent=2) + "\n"


def _csv_cell(val) -> str:
    if val is None:
        return ""
    if isinstance(val, bool):
        return "true" if val else "false"
    return str(val)


def report_to_csv(report: VerifyReport) -> str:
    """One row per record, its fields in order: they are CSV_FIELDS."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_FIELDS)
    writer.writerows([_csv_cell(val) for val in r] for r in report.records)
    return buf.getvalue()
