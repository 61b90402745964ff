"""Verify pipeline and the command line surface."""

import concurrent.futures
import contextlib
import csv
import hashlib
import io
import json
import math
import pathlib
import pickle
import subprocess
import sys
import time
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mycdist.graphs
from mycdist import (AutListing, Coloring, Graph, MycLayout, VerifyRecord,
                     build_mycielskian, classify_star, complete_graph,
                     cycle_graph, distinguishing_number,
                     enumerate_automorphisms, kn_base_coloring, orbit_of,
                     paper_coloring, parse_graph6, path_graph, predict_dist,
                     star_graph, write_graph6)
from mycdist import constructions, distinguishing, verify
from mycdist import cli
from mycdist.cli import _dumps, main
from mycdist.distinguishing import DEFAULT_BUDGET
from mycdist.errors import MalformedColoring
from mycdist.graphs import isolated_vertices
from mycdist.mycielskian import root_fixed_by_degrees
from mycdist.verify import (CSV_FIELDS, VerifyReport, classify_root_orbit,
                            expected_root_orbit, process_record,
                            report_to_csv, report_to_json, run_verify)

from .oracles import enumerate_automorphisms_naive
from .support import (chain_elements, graphs, is_automorphism,
                      reference_aut_generators, source_tree_env,
                      twin_rich_graphs)

ROOT = pathlib.Path(__file__).resolve().parents[1]
N3_LINES = ["B?", "BG", "BW", "Bw"]  # all four graphs on 3 vertices


def json_docs(text):
    dec = json.JSONDecoder()
    docs, idx = [], 0
    while idx < len(text):
        if text[idx].isspace():
            idx += 1
            continue
        doc, idx = dec.raw_decode(text, idx)
        docs.append(doc)
    return docs


def run_cli(argv, stdin_text="", monkeypatch=None, capsys=None):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_run_verify_n3_sweep():
    report = run_verify(N3_LINES, [1])
    assert len(report.records) == 4
    assert report.summary == {"records": 4, "violations": 0,
                              "budget_exceeded": 0, "malformed": 0}
    for r in report.records:
        assert r.passed and r.method == "search"


def test_run_verify_k1_record():
    report = run_verify(["@"], [2])
    (r,) = report.records
    assert r.case == "K1_tgt1" and r.predicted_kind == "exact"
    assert r.predicted_value == 2 and r.measured == 2
    assert r.root_orbit == "center_shadow"
    assert r.passed


def test_run_verify_malformed_noted_not_fatal():
    report = run_verify(["Bw", "Bww", "?", "A_"], [1, 2])
    assert report.summary["malformed"] == 4  # two bad records, two t each
    assert report.summary["violations"] == 0
    bad = [r for r in report.records if r.method == "malformed"]
    assert {r.graph6 for r in bad} == {"Bww", "?"}
    assert all(r.n is None and not r.passed for r in bad)
    # good records still processed, in input order
    assert [r.graph6 for r in report.records[:2]] == ["Bw", "Bw"]


def test_run_verify_bare_header_is_a_malformed_row():
    report = run_verify([">>graph6<<", "Bw"], [1])
    assert [r.method for r in report.records] == ["malformed", "search"]
    assert report.records[0].graph6 == ">>graph6<<"


def test_rows_measure_the_unbounded_search(corpus_n6):
    # rows measured on G's twin quotient (K_1's and the stars' through the
    # two-point rule) and K_2's rows, measured by the DFS on mu_t(G), read
    # the value the search on mu_t(G) finds with no budget
    for line, g in corpus_n6:
        for r in process_record(line, [1, 2, 3], DEFAULT_BUDGET):
            mu, _ = build_mycielskian(g, r.t)
            assert r.measured == distinguishing_number(mu).value, (line, r.t)


@settings(max_examples=40, deadline=None)
@given(twin_rich_graphs(6))
def test_twin_rich_rows_measure_the_unbounded_search(g):
    for r in process_record(write_graph6(g), [1, 2], DEFAULT_BUDGET):
        mu, _ = build_mycielskian(g, r.t)
        assert r.measured == distinguishing_number(mu).value


@pytest.mark.parametrize("line, t, n, value", [
    # mu_2(K_5): Aut(K_5) is nontrivial, so the search on G's twin
    # quotient starts at 2, and a labeling with 2 colors distinguishes
    ("D~{", 2, 5, 2),
    # mu_2 of the empty graph on 3 vertices: 6 isolated twins, so the
    # search on G's twin quotient starts at 6, with no class to label
    ("B?", 2, 3, 6),
])
def test_bounds_settle_without_a_dfs(line, t, n, value, monkeypatch):
    # the root is fixed, and dist(G) is read off G's twin quotient: no
    # DFS runs, on G (n vertices) or on mu_t(G)
    orders = []
    search_k = distinguishing._search_k

    def counted(order, *args):
        orders.append(order)
        return search_k(order, *args)

    monkeypatch.setattr(distinguishing, "_search_k", counted)
    (r,) = process_record(line, [t], DEFAULT_BUDGET)
    assert (r.n, r.measured, r.method, r.passed) == (n, value, "search", True)
    assert orders == []


def test_run_verify_takes_records_of_any_size(monkeypatch, capsys):
    # no vertex cap: n = 7, the edgeless graph on 8 vertices and K_8 are
    # swept like any other record, under the budget alone
    report = run_verify(["Bw", "FqhXw", "G?????", "G~~~~{"], [1, 2, 3])
    assert [r.n for r in report.records] == [3] * 3 + [7] * 3 + [8] * 6
    assert all(r.method == "search" and r.passed for r in report.records)
    code, out, _ = run_cli(["verify"], "G?????\n", monkeypatch, capsys)
    assert code == 0
    assert [r["pass"] for r in json_docs(out)[0]["records"]] == [True, True]


def test_run_verify_parses_each_line_once(corpus_n6, monkeypatch):
    # each line is parsed once, by its own process_record call
    calls = []
    parse = verify.parse_graph6
    monkeypatch.setattr(verify, "parse_graph6",
                        lambda line: calls.append(line) or parse(line))
    report = run_verify([line for line, _ in corpus_n6], [1])
    assert len(report.records) == len(calls) == 208


@pytest.mark.parametrize("m", range(2, 6))
def test_star_rows_run_no_dfs(m, monkeypatch):
    # the root orbit of mu_t(K_{1,m}) is {w, c^t}, so each row is measured
    # on G's twin quotient, as dist(G) is, and no DFS runs on mu_t or on G
    orders = []
    search = verify.distinguishing_number

    def counted(g, *args, **kwargs):
        orders.append(g.n)
        return search(g, *args, **kwargs)

    monkeypatch.setattr(verify, "distinguishing_number", counted)
    rows = process_record(write_graph6(star_graph(m)), [1, 2, 3], DEFAULT_BUDGET)
    assert orders == []
    assert [(r.case, r.method, r.root_orbit, r.passed) for r in rows] == [
        ("GENERIC", "search", "center_shadow", True)] * 3


def test_dfs_on_mu_runs_exactly_where_the_root_orbit_exceeds_two_points(corpus_n7,
                                                                        monkeypatch):
    # every row of n <= 7 at t = 1, 2, 3: the root orbit alone picks the
    # search, the DFS on mu_t(G) where it has more than two points, and
    # the search on G's twin quotient, which also answers dist(G), where
    # it has one or two; mu_t(G) has n(t + 1) + 1 vertices
    orders = []
    search = verify.distinguishing_number

    def counted(g, *args, **kwargs):
        orders.append(g.n)
        return search(g, *args, **kwargs)

    monkeypatch.setattr(verify, "distinguishing_number", counted)
    moved = searched = 0
    for line, g in corpus_n7:
        orders.clear()
        rows = process_record(line, [1, 2, 3], DEFAULT_BUDGET)
        mu_orders = [g.n * (r.t + 1) + 1 for r in rows if r.root_orbit == "all"]
        assert orders == mu_orders, line
        moved += sum(r.root_orbit != "fixed" for r in rows)
        searched += len(mu_orders)
    # the root moves on K_1, K_2 and the stars K_{1,m}, m = 2..6, at three
    # values of t; its orbit is all of the odd cycle mu_t(K_2) alone
    assert moved == 3 * 7
    assert searched == 3


def test_isolate_case_settles_under_tiny_budget():
    # dist(empty_3) fits in 8 steps (it takes 4), the 10-vertex DFS would
    # not (it takes 11); mu_2's root is fixed, so the row is measured on
    # G's chain, in one step: G has no class but its isolates
    report = run_verify(["B?"], [2], budget_steps=8)
    (r,) = report.records
    assert r.method == "search"
    assert r.case == "ISOLATE_DOMINATED"
    assert r.measured == r.predicted_value == 6
    assert r.passed
    assert report.summary["violations"] == 0


@pytest.mark.parametrize("budget_steps", [8, 64])
def test_paper_coloring_rows_settle_under_tiny_budgets(budget_steps, corpus_n6):
    # every row with an isolate-case coloring is measured within the
    # budget by the search on G's twin quotient, K_1's rows included,
    # whose root orbit has two points
    lines = [line for line, _ in corpus_n6]
    report = run_verify(lines, [1, 2, 3], budget_steps=budget_steps)
    methods = {r.method for r in report.records}
    assert methods <= {"search", "budget_exceeded"}
    settled = [r for r in report.records if r.dist_g is not None
               and r.case in ("ISOLATE_DOMINATED", "K1_tgt1")]
    assert settled
    for r in settled:
        assert r.method == "search", r
        assert r.measured == r.predicted_value and r.passed, r


def test_budget_exceeded_recorded_not_fatal():
    # dist(K_2) fits in 58 steps (it takes 3); mu_1(K_2) is C_5, whose
    # root is not fixed, and its DFS does not (it takes 59)
    report = run_verify(["A_"], [1], budget_steps=58)
    (r,) = report.records
    assert r.method == "budget_exceeded"
    assert r.case == "K2_t1" and r.measured is None and not r.passed
    assert report.summary == {"records": 1, "violations": 0,
                              "budget_exceeded": 1, "malformed": 0}
    # even dist(g) out of budget: still one row per t, orbit still classified
    report = run_verify([write_graph6(cycle_graph(6))], [1, 2], budget_steps=1)
    assert [r.t for r in report.records] == [1, 2]
    for r in report.records:
        assert r.method == "budget_exceeded" and r.dist_g is None
        assert r.case is None and r.root_orbit == "fixed"


def test_csv_json_parity():
    report = run_verify(N3_LINES + ["@", "A_", "Bww"], [1, 2])
    rows = list(csv.DictReader(io.StringIO(report_to_csv(report))))
    docs = json_docs(report_to_json(report))
    assert len(docs) == 1
    recs = docs[0]["records"]
    assert docs[0]["summary"] == report.summary
    assert len(rows) == len(recs) == len(report.records)
    for row, rec in zip(rows, recs):
        assert set(row) == set(CSV_FIELDS) == set(rec)
        for key in CSV_FIELDS:
            val = rec[key]
            if val is None:
                assert row[key] == ""
            elif isinstance(val, bool):
                assert row[key] == ("true" if val else "false")
            else:
                assert row[key] == str(val)


def test_report_to_json_matches_json_indent_2():
    # a malformed row's \xNN escapes and a budget_exceeded row's nulls,
    # the shapes a swept report adds to those of the other subcommands
    # the byte 0xff of an undecodable file, as _read_text passes it on
    report = run_verify(["Bw", "B\udcff\x01", "C~"], [1, 2], budget_steps=0)
    methods = {r.method for r in report.records}
    assert methods == {"malformed", "budget_exceeded"}
    assert report.records[2].graph6 == "B\\xff\\x01"
    doc = {"records": [dict(zip(CSV_FIELDS, r)) for r in report.records],
           "summary": report.summary}
    assert report_to_json(report) == json.dumps(doc, indent=2) + "\n"


def test_jobs_do_not_change_report(corpus_n6):
    # unreadable and order-0 lines among the good ones: their malformed
    # rows are built by the workers too
    good = [line for line, _ in corpus_n6[:24]]
    lines = ["Bww", *good[:12], "?", ">>graph6<<", *good[12:], "B\udcff\x01"]
    serial = run_verify(lines, [1], jobs=1)
    assert serial.summary["malformed"] == 4
    parallel = run_verify(lines, [1], jobs=4)
    assert report_to_csv(serial) == report_to_csv(parallel)
    assert report_to_json(serial) == report_to_json(parallel)


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records the worker count and
    runs the tasks in this process."""

    def __init__(self, seen, max_workers):
        seen.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks, chunksize=1):
        return map(fn, tasks)


@pytest.mark.parametrize("jobs, cpus, want", [
    (10**6, 3, 3),  # clamped to the CPU count
    (10**6, 8, 4),  # clamped to the four records
    (2, 8, 2),
    (10**6, None, None),  # unknown CPU count: one worker, no pool
    (1, 8, None),
])
def test_run_verify_clamps_workers(jobs, cpus, want, monkeypatch):
    seen = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        lambda max_workers: RecordingPool(seen, max_workers))
    monkeypatch.setattr(verify.os, "cpu_count", lambda: cpus)
    report = run_verify(N3_LINES, [1], jobs=jobs)
    assert seen == ([] if want is None else [want])
    assert report_to_csv(report) == report_to_csv(run_verify(N3_LINES, [1]))


@pytest.mark.parametrize("line", ["Bww", ">>graph6<<", "?", "~??"])
def test_process_record_answers_unreadable_lines(line):
    # an unparseable record, a bare header, the order-0 graph and a
    # multi-byte header (n > 62, the one size limit verify keeps): one
    # malformed row per t, the rows the sweep writes for the line
    rows = process_record(line, [1, 2], DEFAULT_BUDGET)
    assert [(r.graph6, r.t, r.method) for r in rows] == [
        (line, 1, "malformed"), (line, 2, "malformed")]
    assert rows == list(run_verify([line], [1, 2]).records)


def test_process_record_classifies_the_star_once_per_record(monkeypatch, corpus_n6):
    # the record's Star serves the root orbit at every t: once for each
    # of the 208 records, not once more per row
    calls = []
    classify = verify.classify_star

    def counted(g):
        calls.append(g.n)
        return classify(g)

    for module in (verify, constructions):
        monkeypatch.setattr(module, "classify_star", counted, raising=False)
    rows = 0
    for line, _ in corpus_n6:
        rows += len(process_record(line, [1, 2, 3], DEFAULT_BUDGET))
    assert rows == 624
    assert len(calls) == 208


def test_process_record_row_shape():
    rows = process_record("Bw", [1, 2], 10**8)
    assert [r.t for r in rows] == [1, 2]
    for r in rows:
        assert r.graph6 == "Bw" and r.n == 3 and r.ell == 0 and r.dist_g == 3
        assert r.predicted_kind == "upper_bound" and r.measured <= r.predicted_value


def test_process_record_builds_one_chain_per_graph(monkeypatch):
    # the chain of G's twin quotient, colored by kind, shared by dist(G)
    # and every row whose root orbit has at most two points, with no
    # chain of G and no mu_t built where G's degrees certify the root; a
    # star's rows, and EQKo's, whose root only a deeper refinement sets
    # apart, build mu_t and read the root orbit with one orbit_of call,
    # with no chain of mu_t. K_{3,3}, K_{1,3} and EQKo have quotients of
    # 2, 2 and 5 vertices.
    builds, mus, orbits = [], [], []
    build, build_mu = distinguishing.enumerate_automorphisms, verify.build_mycielskian
    orbit = verify.orbit_of

    def counted_build(*args, **kwargs):
        builds.append(args[0].n)
        return build(*args, **kwargs)

    def counted_mu(g, t):
        mus.append(t)
        return build_mu(g, t)

    def counted_orbit(*args):
        orbits.append(args)
        return orbit(*args)

    monkeypatch.setattr(distinguishing, "enumerate_automorphisms", counted_build)
    monkeypatch.setattr(verify, "build_mycielskian", counted_mu)
    # the name bench/run.py --trace 1 wraps
    monkeypatch.setattr(verify, "orbit_of", counted_orbit)
    golden = (ROOT / "tests" / "golden" / "verify.csv").read_text().splitlines()
    for line, orders in [("ElUg", [2]), ("CF", [2]),  # K_{1,3}
                         ("EQKo", [5])]:
        builds.clear()
        mus.clear()
        orbits.clear()
        rows = process_record(line, [1, 2], 10**8)
        assert [r.method for r in rows] == ["search", "search"]
        assert builds == orders
        assert mus == ([] if line == "ElUg" else [1, 2])
        # one orbit_of per uncertified row, asked for the root of mu_t
        n = parse_graph6(line).n
        assert [(mu.n, root) for mu, root in orbits] == [
            (n * (t + 1) + 1, n * (t + 1)) for t in mus]
        assert report_to_csv(VerifyReport(tuple(rows))).splitlines()[1:] == [
            row for row in golden if row.startswith(line + ",")][:2]


def test_uncertified_root_of_an_asymmetric_mycielskian_reads_fixed():
    # an asymmetric G on 10 vertices whose degrees do not certify the
    # root: mu_t(G) is asymmetric too, its chain has no level, and the
    # root orbit is the root alone
    g = parse_graph6("Ih??c{?yG")
    assert not any(root_fixed_by_degrees(g, t) for t in (1, 2, 3))
    assert enumerate_automorphisms(build_mycielskian(g, 1)[0]).levels == ()
    rows = process_record("Ih??c{?yG", [1, 2, 3], DEFAULT_BUDGET)
    assert [(r.measured, r.root_orbit, r.passed) for r in rows] == [(1, "fixed", True)] * 3


def _count_twin_classes(monkeypatch) -> list[int]:
    """The order of each graph whose open-twin classes are found, through
    any module's binding."""
    calls = []
    find = mycdist.graphs.twin_classes

    def counted(g):
        calls.append(g.n)
        return find(g)

    for module in (mycdist.graphs, distinguishing):
        monkeypatch.setattr(module, "twin_classes", counted)
    return calls


def test_process_record_finds_twin_classes_once_per_graph(monkeypatch):
    # once for G, by its twin quotient, and once for the quotient (here
    # K_2), by its chain build; the searches read the quotient and its
    # chain, and mu_t's root is fixed, so it has no chain
    calls = _count_twin_classes(monkeypatch)
    rows = process_record("ElUg", [1, 2], 10**8)
    assert [r.method for r in rows] == ["search", "search"]
    assert calls == [6, 2]


def test_isolate_case_finds_twin_classes_once_per_graph(monkeypatch):
    # under a budget too small for mu_2's DFS the row is measured on G's
    # twin quotient, a single vertex; G's twin classes are found once, by
    # the quotient, and the quotient's not at all, since its chain build
    # stops at its discrete refinement
    calls = _count_twin_classes(monkeypatch)
    rows = process_record("B?", [2], 8)
    assert [(r.method, r.measured, r.passed) for r in rows] == [("search", 6, True)]
    assert calls == [3]


def test_certified_rows_at_any_t_read_as_at_t3(corpus_n6):
    # the root certificate reads three levels of mu_t(G), and no label
    # cap is counted past its kind's vertices of the quotient, so a
    # certified row at t = 10**6 builds no mu_t(G) and no power of k; on
    # every certified, isolate-free, non-star graph it reads as at t = 3
    checked = 0
    for line, g in corpus_n6:
        if (not root_fixed_by_degrees(g, 3) or classify_star(g) is not None
                or isolated_vertices(g)):
            continue
        low, high = process_record(line, [3, 10**6], DEFAULT_BUDGET)
        assert (high.method, high.measured) == ("search", low.measured), line
        checked += 1
    assert checked == 149


def test_import_leaves_the_process_pool_out():
    # concurrent.futures pulls in multiprocessing; only verify --jobs > 1
    # uses it, and imports it there
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, mycdist.cli; print('concurrent.futures' in sys.modules)"],
        capture_output=True, text=True, env=source_tree_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_runtime_imports_only_the_standard_library():
    # the package, its CLI and the sweep run on a bare Python
    code = ("import sys, mycdist, mycdist.cli, mycdist.verify; "
            "print(sorted({'numpy', 'networkx', 'hypothesis', 'pytest'}"
            " & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=source_tree_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_import_loads_no_dataclasses_inspect_or_typing():
    # every command pays the import; -S keeps site's .pth files from
    # loading typing before the package does; csv loads only to write CSV
    code = ("import sys, mycdist, mycdist.cli, mycdist.verify; "
            "print(sorted({'csv', 'dataclasses', 'inspect', 'typing'}"
            " & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                          text=True, env=source_tree_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_record_fields_are_the_csv_columns():
    assert CSV_FIELDS == ["graph6", "n", "ell", "dist_g", "t", "case",
                          "predicted_kind", "predicted_value", "measured",
                          "method", "root_orbit", "pass"]
    assert list(VerifyRecord._fields) == [
        "passed" if f == "pass" else f for f in CSV_FIELDS]


def test_records_round_trip_through_pickle():
    # --jobs pickles tasks to the workers and their records back
    g = parse_graph6("Bw")
    group = enumerate_automorphisms(g)
    res = distinguishing_number(g)
    records = process_record("Bw", [1, 2], 10**6)
    for obj in [g, *records, res, res.certificate, MycLayout(3, 2)]:
        back = pickle.loads(pickle.dumps(obj))
        assert type(back) is type(obj) and back == obj
    back = pickle.loads(pickle.dumps(group))
    assert type(back) is AutListing
    assert (back.n, back.order, back.levels, back.twins) == (
        3, 6, group.levels, group.twins)
    with pytest.raises(MalformedColoring, match=r"colors \[3\] outside 1..2"):
        Coloring(2, (1, 3))


def test_root_orbit_classification():
    for g, t, expect in [
        (complete_graph(2), 1, "all"),
        (complete_graph(2), 2, "all"),
        (star_graph(3), 1, "center_shadow"),
        (path_graph(3), 1, "center_shadow"),  # P_3 = K_{1,2}
        (complete_graph(3), 1, "fixed"),
        (Graph(2), 2, "fixed"),
    ]:
        mu, layout = build_mycielskian(g, t)
        star = classify_star(g)
        got = classify_root_orbit(orbit_of(mu, layout.root), layout, star)
        assert got == expect, (g.edges(), t)
        assert got == expected_root_orbit(star)
    assert expected_root_orbit(classify_star(complete_graph(3))) == "fixed"
    assert expected_root_orbit(classify_star(star_graph(2))) == "center_shadow"
    assert expected_root_orbit(classify_star(Graph(1))) == "center_shadow"
    assert expected_root_orbit(classify_star(Graph(4))) == "fixed"
    # an orbit of none of the named shapes
    layout = MycLayout(4, 2)
    assert classify_root_orbit(frozenset({0, layout.root}), layout, None) == "other"


@pytest.mark.parametrize("m", range(2, 8))
@pytest.mark.parametrize("t", range(1, 5))
def test_star_root_orbit_is_center_shadow(m, t):
    """The argument in expected_root_orbit, checked on K_{1,m}: the root
    w and the top copy of the center form the root's orbit, and the
    level reflection that swaps them is an automorphism."""
    g = star_graph(m)
    center = m
    mu, layout = build_mycielskian(g, t)
    top = layout.vertex_id(center, t)
    orbit = orbit_of(mu, layout.root)
    assert orbit == frozenset({layout.root, top})
    star = classify_star(g)
    assert classify_root_orbit(orbit, layout, star) == expected_root_orbit(
        star) == "center_shadow"

    def vid(i, s):  # level t + 1 of the center is the root
        return layout.root if s == t + 1 else layout.vertex_id(i, s)

    img = list(range(mu.n))
    for j in range(t // 2 + 1):
        hi = t - 2 * j
        img[vid(center, hi + 1)], img[vid(center, hi)] = (
            vid(center, hi), vid(center, hi + 1))
        if hi >= 1:
            for i in range(m):
                img[vid(i, hi)], img[vid(i, hi - 1)] = vid(i, hi - 1), vid(i, hi)
    assert img[layout.root] == top
    assert is_automorphism(mu, img)


def test_cli_myc_k2_gives_c5(monkeypatch, capsys):
    code, out, _ = run_cli(["myc", "--t", "1"], "A_\n", monkeypatch, capsys)
    assert code == 0
    (doc,) = json_docs(out)
    mu = parse_graph6(doc["graph6"])
    from mycdist import find_isomorphism
    assert find_isomorphism(mu, cycle_graph(5)) is not None
    assert doc["layout"]["4"] == {"role": "root", "i": None, "level": None}
    assert doc["layout"]["2"] == {"role": "shadow", "i": 0, "level": 1}


def test_cli_myc_multiple_t(monkeypatch, capsys):
    code, out, _ = run_cli(["myc", "--t", "1,2"], "Bw\n", monkeypatch, capsys)
    assert code == 0
    docs = json_docs(out)
    assert [d["t"] for d in docs] == [1, 2]
    assert parse_graph6(docs[1]["graph6"]).n == 10


def test_cli_myc_edge_format(monkeypatch, capsys):
    code, out, _ = run_cli(["myc", "--format", "edges"],
                           "3 2\n0 1\n1 2\n", monkeypatch, capsys)
    assert code == 0
    (doc,) = json_docs(out)
    from mycdist import parse_edge_list
    mu = parse_edge_list(doc["edges"])
    # m + 2mt + n edges: 2 + 4 + 3
    assert mu.n == 7 and mu.edge_count == 9
    # edge lists carry no graph6 order limit on output
    code, out, _ = run_cli(["myc", "--format", "edges", "--t", "30"],
                           "2 1\n0 1\n", monkeypatch, capsys)
    assert code == 0 and json_docs(out)[0]["edges"].startswith("63 ")


@pytest.mark.parametrize("argv, stdin_text", [
    (["myc", "--t", "1,-1"], "Bw\n"),
    (["myc", "--format", "edges", "--t", "1,0"], "3 2\n0 1\n1 2\n"),
    (["coloring", "--t", "1,0"], ""),
    (["verify", "--t", "1,0"], "Bw\n"),
    # the t error comes before the input is read: none is given here
    (["coloring", "--t", "0"], ""),
])
def test_cli_t_below_1_exits_2_before_any_output(argv, stdin_text, monkeypatch, capsys):
    code, out, err = run_cli(argv, stdin_text, monkeypatch, capsys)
    bad = argv[-1].split(",")[-1]
    assert (code, out, err) == (2, "", f"error: t must be >= 1, got {bad}\n")


def test_cli_myc_empty_input(monkeypatch, capsys):
    code, _, err = run_cli(["myc"], "", monkeypatch, capsys)
    assert code == 2 and "error" in err
    code, out, err = run_cli(["myc", "--t", ","], "Bw\n", monkeypatch, capsys)
    assert (code, out, err) == (2, "", "error: empty --t list\n")


@pytest.mark.parametrize("argv", [["myc"], ["coloring"]],
                         ids=["myc", "coloring"])
def test_cli_order_0_graph_exits_2_as_empty_source(argv, monkeypatch, capsys):
    code, out, err = run_cli(argv, "?\n", monkeypatch, capsys)
    assert (code, out, err) == (
        2, "", "error: source graph must have at least one vertex\n")


def test_cli_aut(monkeypatch, capsys):
    c5 = write_graph6(cycle_graph(5))
    code, out, _ = run_cli(["aut"], c5 + "\n", monkeypatch, capsys)
    assert code == 0
    (doc,) = json_docs(out)
    assert doc["order"] == 10
    assert doc["orbits"] == [[0, 1, 2, 3, 4]]
    g = cycle_graph(5)
    for img in doc["generators"]:
        assert is_automorphism(g, img)
    # the emitted generators generate the whole group
    known = {tuple(range(5))}
    frontier = list(known)
    gens = [tuple(img) for img in doc["generators"]]
    while frontier:
        x = frontier.pop()
        for gen in gens:
            y = tuple(x[i] for i in gen)
            if y not in known:
                known.add(y)
                frontier.append(y)
    assert len(known) == 10


def test_cli_aut_generators_match_group_closure(corpus_n7, monkeypatch, capsys):
    """`aut` reads generators off a stabilizer chain; they and the orbits
    must be the lists the closure of the whole listing gives."""
    graphs = [g for _, g in corpus_n7 if g.n == 7]
    assert len(graphs) == 1044
    graphs += [build_mycielskian(g, 1)[0] for _, g in corpus_n7 if g.n <= 6]
    graphs += [Graph(8), complete_graph(7)]
    for g in graphs:
        code, out, _ = run_cli(["aut"], write_graph6(g) + "\n", monkeypatch, capsys)
        assert code == 0
        (doc,) = json_docs(out)
        gens, orbits = reference_aut_generators(
            chain_elements(enumerate_automorphisms(g)))
        assert doc["generators"] == [list(img) for img in gens], g.edges()
        assert doc["orbits"] == orbits, g.edges()


def _aut(g):
    """Exit code and document of `aut` on g, in process."""
    with mock.patch("sys.stdin", io.StringIO(write_graph6(g) + "\n")), \
            contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(["aut"])
    return code, json.loads(out.getvalue())


@settings(max_examples=150, deadline=None)
@given(graphs(8))
def test_cli_aut_matches_closure_of_naive_listing(g):
    naive = enumerate_automorphisms_naive(g)
    gens, orbits = reference_aut_generators(naive)
    code, doc = _aut(g)
    assert code == 0
    assert doc == {"order": len(naive), "generators": [list(img) for img in gens],
                   "orbits": orbits}


def test_cli_aut_prints_groups_of_any_order():
    """Groups over 10^6 elements print like any other: the order, the
    generators and the orbits are read off the chain, and no element
    listing is built."""
    cases = [(Graph(10), math.factorial(10)),
             (Graph(25), math.factorial(25)),
             (build_mycielskian(parse_graph6("D??"), 2)[0], 435456000)]
    start = time.perf_counter()
    docs = [_aut(g) for g, _ in cases]
    assert time.perf_counter() - start < 1.0
    for (g, order), (code, doc) in zip(cases, docs):
        assert code == 0
        assert doc["order"] == enumerate_automorphisms(g).order == order
        assert all(is_automorphism(g, img) for img in doc["generators"])
        for orbit in doc["orbits"]:
            assert all(orbit_of(g, v) == frozenset(orbit) for v in orbit)
        assert sorted(v for orbit in doc["orbits"] for v in orbit) == list(range(g.n))


def test_cli_dist(monkeypatch, capsys):
    code, out, _ = run_cli(["dist"], write_graph6(cycle_graph(5)) + "\n",
                           monkeypatch, capsys)
    assert code == 0
    (doc,) = json_docs(out)
    assert doc["dist"] == 3
    assert len(doc["certificate"]) == 5

    code, out, _ = run_cli(["dist"], write_graph6(complete_graph(4)) + "\n",
                           monkeypatch, capsys)
    assert json_docs(out)[0]["dist"] == 4

    mu5 = write_graph6(build_mycielskian(complete_graph(5), 1)[0])
    code, out, _ = run_cli(["dist"], mu5 + "\n", monkeypatch, capsys)
    assert json_docs(out)[0]["dist"] == 3  # ceil(sqrt(5))


def test_cli_dist_matches_golden(monkeypatch, capsys):
    # every graph with n <= 7 and mu_1, mu_2 of every graph with n <= 5,
    # as tools/make_dist_golden.py wrote them: value, certificate and
    # twin witness, so a prune that changes any certificate fails here;
    # the printed bytes, which the golden's key order fixes
    golden = ROOT / "tests" / "golden" / "dist.jsonl"
    records = [json.loads(ln) for ln in golden.read_text().splitlines()]
    assert len(records) == 1356
    for want in records:
        g6 = want.pop("graph6")
        code, out, _ = run_cli(["dist"], g6 + "\n", monkeypatch, capsys)
        assert code == 0
        assert out == json.dumps(want, indent=2) + "\n", g6


def replay_golden(name, monkeypatch, capsys):
    """Run each command of tests/golden/<name> as tools/make_dist_golden.py
    recorded it and compare the printed bytes, the exit code and the
    stderr; return the records."""
    golden = ROOT / "tests" / "golden" / name
    records = [json.loads(ln) for ln in golden.read_text().splitlines()]
    for want in records:
        code, out, err = run_cli(want["argv"], want["stdin"], monkeypatch, capsys)
        assert (code, err) == (want["exit"], want["stderr"]), want["argv"]
        assert out == "".join(json.dumps(doc, indent=2) + "\n"
                              for doc in want["stdout"]), (want["stdin"], want["argv"])
    return records


def test_cli_coloring_matches_golden(monkeypatch, capsys):
    # every graph with n <= 5 at --t 1,2,3, and K_1 at --t 2,3: the paper
    # colorings, and the cases that have none
    records = replay_golden("coloring.jsonl", monkeypatch, capsys)
    assert len(records) == 53
    assert sum(r["exit"] == 0 for r in records) == 51
    assert sum(len(r["stdout"]) for r in records) == 152


def test_cli_myc_matches_golden(monkeypatch, capsys):
    # myc --t 1,2 on every graph with n <= 5, as graph6 and as an edge
    # list: the layouts hold nulls, and the edge lists newlines to escape
    records = replay_golden("myc.jsonl", monkeypatch, capsys)
    assert len(records) == 104
    assert all(r["exit"] == 0 and len(r["stdout"]) == 2 for r in records)


def test_cli_verify_matches_golden(monkeypatch, capsys):
    # verify data/graphs_n1_6.g6 --t 1,2,3 --out csv as
    # tools/make_dist_golden.py wrote it: every row's case, prediction,
    # measured value, method and root orbit, byte for byte
    golden = ROOT / "tests" / "golden" / "verify.csv"
    argv = ["verify", str(ROOT / "data" / "graphs_n1_6.g6"), "--t", "1,2,3",
            "--out", "csv"]
    code, out, err = run_cli(argv, "", monkeypatch, capsys)
    assert (code, err) == (0, "")
    assert out.count("\n") == 625
    assert out == golden.read_text()


def test_n6_t1_sweep_matches_bench_golden(corpus_n6):
    golden = ROOT / "bench" / "golden" / "sweep_n6_t1.csv"
    report = run_verify([line for line, _ in corpus_n6], [1])
    assert report_to_csv(report) == golden.read_text()


def test_n7_t1_sweep_matches_its_digest():
    # the 1044 rows of n = 7 at t = 1, pinned by the sha256 that
    # tools/verify_digest.py prints for them
    lines = (ROOT / "data" / "graphs_n7.g6").read_text().split()
    report = run_verify(lines, [1])
    assert len(report.records) == 1044
    digest = hashlib.sha256(report_to_csv(report).encode()).hexdigest()
    assert digest == ("50373ac21fe07690d065fc99284dd693"
                      "93d7302bc85ed7bdb4adfe0399e6ccc8")


@pytest.mark.parametrize("t, want", [
    (2, "4a3785db0837e7cbf626057cbadf4ee1648f526333b3645f21e217a69b21e3a1"),
    (3, "376178d4526c6a9cd90e99875e60954d16fc9fa49af6c76189f470c7ece0b623"),
], ids=["t2", "t3"])
def test_n7_t2_t3_sweeps_match_their_digests(t, want):
    # the 1044 rows of n = 7 at t = 2 and t = 3, pinned like t = 1 above
    lines = (ROOT / "data" / "graphs_n7.g6").read_text().split()
    report = run_verify(lines, [t])
    assert len(report.records) == 1044
    assert hashlib.sha256(report_to_csv(report).encode()).hexdigest() == want


def test_n6_t8_sweep_is_measured_under_the_default_budget(corpus_n6):
    # mu_8 has up to 55 vertices; a row whose root is fixed is measured on
    # G's chain, so every row of n <= 6 is a pass within the budget
    report = run_verify([line for line, _ in corpus_n6], [8])
    assert len(report.records) == 208
    assert {(r.method, r.passed) for r in report.records} == {("search", True)}


def test_cli_dist_budget(monkeypatch, capsys):
    k4 = write_graph6(complete_graph(4))
    code, _, err = run_cli(["dist", "--budget", "3"], k4 + "\n",
                           monkeypatch, capsys)
    assert code == 3 and "error" in err


def test_cli_check_coloring(monkeypatch, capsys):
    c5 = write_graph6(cycle_graph(5))
    code, out, _ = run_cli(["check-coloring", "--coloring", "[1,1,1,1,1]"],
                           c5 + "\n", monkeypatch, capsys)
    assert code == 0
    (doc,) = json_docs(out)
    assert doc["distinguishing"] is False
    assert is_automorphism(cycle_graph(5), doc["witness"])
    assert doc["witness"] != [0, 1, 2, 3, 4]

    k3 = write_graph6(complete_graph(3))
    code, out, _ = run_cli(["check-coloring", "--coloring", "[1,2,3]"],
                           k3 + "\n", monkeypatch, capsys)
    assert json_docs(out)[0] == {"distinguishing": True, "witness": None}

    # base-2 coloring of the 10-vertex double mycielskian of K_3
    mu = write_graph6(build_mycielskian(complete_graph(3), 2)[0])
    coloring = kn_base_coloring(3, 2)
    code, out, _ = run_cli(
        ["check-coloring", "--coloring", json.dumps(list(coloring.assign))],
        mu + "\n", monkeypatch, capsys)
    assert json_docs(out)[0]["distinguishing"] is True

    code, _, err = run_cli(["check-coloring", "--coloring", "[1,2]"],
                           k3 + "\n", monkeypatch, capsys)
    assert code == 2


def test_cli_check_coloring_from_file(tmp_path, monkeypatch, capsys):
    path = tmp_path / "colors.json"
    path.write_text("[1, 2, 3]")
    k3 = write_graph6(complete_graph(3))
    code, out, _ = run_cli(["check-coloring", "--coloring", f"@{path}"],
                           k3 + "\n", monkeypatch, capsys)
    assert code == 0 and json_docs(out)[0]["distinguishing"] is True


# A file that is not UTF-8 is read with its bad bytes kept as lone
# surrogates: the parsers reject them, and a corpus line becomes a
# malformed row instead of ending the sweep.
def test_cli_undecodable_file_is_malformed_input(tmp_path, monkeypatch, capsys):
    bad = tmp_path / "bad"
    bad.write_bytes(b"\xff\n")
    code, out, err = run_cli(["aut", str(bad)], "", monkeypatch, capsys)
    assert (code, out) == (2, "") and err.startswith("error: ")
    code, out, err = run_cli(["check-coloring", "--coloring", f"@{bad}"],
                             "Bw\n", monkeypatch, capsys)
    assert (code, out) == (2, "") and err.startswith("error: bad coloring JSON")

    corpus = tmp_path / "corpus.g6"
    corpus.write_bytes(b"Bw\n\xff\xfe\nA_\n")
    code, out, _ = run_cli(["verify", str(corpus), "--t", "1"], "",
                           monkeypatch, capsys)
    assert code == 0
    assert [r["method"] for r in json.loads(out)["records"]] == [
        "search", "malformed", "search"]


def test_cli_verify_escapes_undecodable_bytes_under_strict_stdout(tmp_path,
                                                                  monkeypatch):
    # the malformed row's graph6 cell holds the line's bytes outside
    # printable ASCII as \xNN, so a strict stdout can encode the report
    corpus = tmp_path / "corpus.g6"
    corpus.write_bytes(b"Bw\n\xff\xfe\n")
    for fmt in ("csv", "json"):
        raw = io.BytesIO()
        out = io.TextIOWrapper(raw, encoding="utf-8", errors="strict")
        monkeypatch.setattr("sys.stdout", out)
        code = main(["verify", str(corpus), "--t", "1", "--out", fmt])
        out.flush()
        text = raw.getvalue().decode("ascii")
        rows = (list(csv.DictReader(io.StringIO(text))) if fmt == "csv"
                else json.loads(text)["records"])
        assert code == 0
        assert [r["method"] for r in rows] == ["search", "malformed"]
        assert rows[1]["graph6"] == "\\xff\\xfe"


def test_cli_undecodable_stdin_exits_2(monkeypatch, capsys):
    # under a strict UTF-8 stdin the byte reaches the graph6 parser as a
    # lone surrogate, which it rejects
    stdin = io.TextIOWrapper(io.BytesIO(b"\xff\n"), encoding="utf-8")
    monkeypatch.setattr("sys.stdin", stdin)
    code = main(["aut"])
    out = capsys.readouterr()
    assert (code, out.out) == (2, "") and out.err.startswith("error: ")


def test_cli_undecodable_stdin_line_is_a_malformed_row(monkeypatch, capsys):
    # stdin decodes as a file does, so under a strict UTF-8 stdin a line
    # that is not UTF-8 is one malformed row and the sweep goes on
    stdin = io.TextIOWrapper(io.BytesIO(b"Bw\n\xff\xfe\nA_\n"), encoding="utf-8")
    monkeypatch.setattr("sys.stdin", stdin)
    code = main(["verify", "--t", "1"])
    rows = json.loads(capsys.readouterr().out)["records"]
    assert code == 0
    assert [r["method"] for r in rows] == ["search", "malformed", "search"]


def test_cli_deeply_nested_coloring_exits_2(monkeypatch, capsys):
    # json.loads raises RecursionError, not JSONDecodeError, this deep
    code, out, err = run_cli(["check-coloring", "--coloring", "[" * 50000],
                             "Bw\n", monkeypatch, capsys)
    assert (code, out) == (2, "") and err.startswith("error: bad coloring JSON")


def test_cli_coloring_prints_the_paper_coloring(corpus_n6, monkeypatch, capsys):
    # each document holds the case of predict_dist for its row and
    # paper_coloring of G's certificate, which distinguishes mu_t(G);
    # K_1 and K_2 stop at t = 1, which has none
    for line, g in corpus_n6:
        code, out, err = run_cli(["coloring", "--t", "1,2,3"], line + "\n",
                                 monkeypatch, capsys)
        if line in ("@", "A_"):
            assert (code, out) == (2, "") and "has no paper coloring" in err
            continue
        assert (code, err) == (0, ""), line
        res = distinguishing_number(g)
        for t, doc in zip([1, 2, 3], json_docs(out), strict=True):
            case = predict_dist(g, t, res.value).case_tag
            coloring = paper_coloring(g, t, case, res.certificate)
            assert (doc["case"], doc["t"], doc["k"], doc["colors"]) == (
                case, t, coloring.k, list(coloring.assign)), (line, t)
            assert doc["distinguishing"] is True, (line, t)


def test_cli_coloring_star_and_kn(monkeypatch, capsys):
    k13 = write_graph6(star_graph(3))
    code, out, _ = run_cli(["coloring"], k13 + "\n", monkeypatch, capsys)
    assert code == 0
    (doc,) = json_docs(out)
    assert doc["k"] == 3 and doc["distinguishing"] is True
    assert parse_graph6(doc["graph6"]).n == 9

    k5 = write_graph6(complete_graph(5))
    code, out, _ = run_cli(["coloring"], k5 + "\n", monkeypatch, capsys)
    (doc,) = json_docs(out)
    assert doc["k"] == 3 and doc["distinguishing"] is True


def test_cli_coloring_isolate_and_lift(monkeypatch, capsys):
    code, out, _ = run_cli(["coloring", "--t", "2"], "A?\n", monkeypatch, capsys)
    assert code == 0
    (doc,) = json_docs(out)
    assert doc["case"] == "ISOLATE_DOMINATED"
    assert doc["k"] == 4 and doc["distinguishing"] is True

    c6 = write_graph6(cycle_graph(6))
    code, out, _ = run_cli(["coloring", "--t", "2"], c6 + "\n", monkeypatch, capsys)
    (doc,) = json_docs(out)
    assert doc["case"] == "GENERIC"
    assert doc["k"] == 2 and doc["distinguishing"] is True

    # K_2 has no paper coloring at t = 1
    code, out, err = run_cli(["coloring"], "A_\n", monkeypatch, capsys)
    assert (code, out, err) == (2, "", "error: case K2_t1 has no paper coloring\n")


def test_cli_coloring_reads_its_input_once_for_every_t(monkeypatch, capsys):
    code, out, _ = run_cli(["coloring", "--t", "2,3"], "A?\n", monkeypatch, capsys)
    assert code == 0
    assert [doc["t"] for doc in json_docs(out)] == [2, 3]


# graph6 holds at most 62 vertices; a mu_t past that is rejected before
# any mu_t or coloring is built, and before any document is printed;
# for coloring, before the distinguishing search, which takes seconds on K_62
@pytest.mark.parametrize("argv, stdin_text", [
    (["myc", "--t", "1,20000"], "E~~w\n"),
    (["myc", "--t", "30"], "A_\n"),
    (["coloring", "--t", "1"], write_graph6(complete_graph(62)) + "\n"),
    (["coloring", "--t", "300000"], "Bw\n"),
    (["coloring", "--t", "1,30"], "Bw\n"),
    (["coloring", "--t", "1,40"], "A?\n"),
], ids=["myc-t20000", "myc-t30", "kn-n62", "star-t300000", "star-t30",
        "isolate-t40"])
def test_cli_rejects_mu_t_over_graph6_range(argv, stdin_text, monkeypatch, capsys):
    start = time.perf_counter()
    code, out, err = run_cli(argv, stdin_text, monkeypatch, capsys)
    assert time.perf_counter() - start < 0.5
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "graph6" in err


def test_cli_verify_json_and_csv(tmp_path, monkeypatch, capsys):
    corpus = tmp_path / "n3.g6"
    corpus.write_text("".join(line + "\n" for line in N3_LINES))
    code, out, _ = run_cli(["verify", str(corpus), "--t", "1"],
                           "", monkeypatch, capsys)
    assert code == 0
    (doc,) = json_docs(out)
    assert doc["summary"]["records"] == 4 and doc["summary"]["violations"] == 0

    code, out, _ = run_cli(["verify", str(corpus), "--t", "1", "--out", "csv"],
                           "", monkeypatch, capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == ",".join(CSV_FIELDS)
    assert len(lines) == 5


def test_cli_verify_bad_inputs(monkeypatch, capsys):
    code, out, _ = run_cli(["verify", "--t", "1"], "Bww\n", monkeypatch, capsys)
    assert code == 0  # malformed is noted, not fatal
    (doc,) = json_docs(out)
    assert doc["summary"]["malformed"] == 1

    code, out, _ = run_cli(["verify", "--t", "1"], "G?????\n",
                           monkeypatch, capsys)
    assert code == 0  # no vertex cap: the edgeless graph on 8 vertices
    (doc,) = json_docs(out)
    assert [(r["n"], r["pass"]) for r in doc["records"]] == [(8, True)]

    code, _, err = run_cli(["verify", "--t", "abc"], "Bw\n",
                           monkeypatch, capsys)
    assert code == 2

    code, _, err = run_cli(["verify", "--t", "1", "/no/such/file"],
                           "", monkeypatch, capsys)
    assert code == 2


@pytest.mark.parametrize("text", ["2 1\n0 0\n", "-1 0\n"])
def test_cli_invalid_edge_list_exits_2(text, monkeypatch, capsys):
    # a loop and a negative order are input errors, not tracebacks
    code, out, err = run_cli(["dist", "--format", "edges"], text, monkeypatch, capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ")


def test_cli_verify_default_t_is_1_and_2(tmp_path, monkeypatch, capsys):
    corpus = tmp_path / "one.g6"
    corpus.write_text("Bw\n")
    code, out, _ = run_cli(["verify", str(corpus)], "", monkeypatch, capsys)
    assert code == 0
    (doc,) = json_docs(out)
    assert [r["t"] for r in doc["records"]] == [1, 2]


@pytest.mark.parametrize("coloring, g6", [("[true]", "@"), ("[false]", "@"),
                                           ("[1, true]", "A_")])
def test_cli_check_coloring_rejects_booleans(coloring, g6, monkeypatch, capsys):
    # JSON true loads as a bool, which Python counts as the int 1
    code, out, err = run_cli(["check-coloring", "--coloring", coloring],
                             g6 + "\n", monkeypatch, capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ")


# Flags a subcommand never reads are not accepted: `verify --format edges`
# used to parse an edge list as graph6 lines, report every row malformed
# and exit 0.
UNREAD_FLAGS = [
    ["myc", "--budget", "5"],
    ["aut", "--t", "2"],
    ["aut", "--budget", "5"],
    ["dist", "--t", "2"],
    ["check-coloring", "--coloring", "[1,2,3]", "--t", "2"],
    ["check-coloring", "--coloring", "[1,2,3]", "--budget", "5"],
    ["verify", "--format", "edges"],
    ["verify", "--max-n", "6"],  # the vertex cap verify once had
    # the options dist and coloring once had: the input's case now picks
    # the coloring, and the step budget is the one stop rule of dist
    ["dist", "--k-cap", "2"],
    ["coloring", "--construction", "kn"],
    ["coloring", "--w-color", "2"],
]


@pytest.mark.parametrize("argv", UNREAD_FLAGS)
def test_cli_rejects_flags_a_subcommand_does_not_read(argv, monkeypatch, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(argv, "3 2\n0 1\n1 2\n", monkeypatch, capsys)
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and "unrecognized arguments" in out.err


# Commands whose arguments would leak into the next one if parsing kept
# state between calls: a flag left over (--t 2,3 of coloring), a subcommand
# default overridden (--t of myc against the 1,2 default of verify).
IN_ONE_PROCESS = [
    (["coloring", "--t", "2,3"], "A?\n"),
    (["dist"], "Dhc\n"),
    (["myc", "--t", "1"], "A_\n"),
    (["verify"], "Bw\n"),
    (["dist", "--budget", "3"], "C~\n"),
    (["aut"], "Dhc\n"),
    (["check-coloring", "--coloring", "[1,2,3]"], "Bw\n"),
]


def test_cli_calls_in_one_process_match_fresh_processes(monkeypatch, capsys):
    env = source_tree_env()
    for argv, stdin_text in IN_ONE_PROCESS:
        got = run_cli(argv, stdin_text, monkeypatch, capsys)
        proc = subprocess.run([sys.executable, "-m", "mycdist", *argv],
                              input=stdin_text, capture_output=True, text=True,
                              env=env)
        assert got == (proc.returncode, proc.stdout, proc.stderr), argv


_SMALL = st.integers(-1, 4).map(str)
# --k-cap, --construction, --m, --n, --w-color and --max-n are flags that
# no subcommand reads any more
_FLAG_VALUES = {
    "--format": st.sampled_from(["graph6", "edges", "x"]),
    "--t": st.sampled_from(["1", "2", "3", "1,2", "1,2,3", "0", "-1", "x", ""]),
    "--budget": st.integers(-1, 2000).map(str),
    "--k-cap": _SMALL,
    "--coloring": st.sampled_from(["[1]", "[1,2]", "[1,2,3]", "[]", "[0]",
                                   "[true]", "[1.5]", "{}", "x", "@-",
                                   "@/no/such/file"]),
    "--construction": st.sampled_from(["star", "kn", "isolate", "lift", "x"]),
    "--m": _SMALL,
    "--n": _SMALL,
    "--w-color": _SMALL,
    "--out": st.sampled_from(["json", "csv", "x"]),
    "--max-n": _SMALL,
}


@st.composite
def cli_argv(draw):
    """A subcommand, a few flags with small values, maybe an input path.
    --jobs is left out, so no worker process is started."""
    argv = [draw(st.sampled_from(["myc", "aut", "dist", "check-coloring",
                                  "coloring", "verify", "x"]))]
    for flag in draw(st.lists(st.sampled_from(sorted(_FLAG_VALUES)), max_size=4)):
        argv += [flag, draw(_FLAG_VALUES[flag])]
    argv += draw(st.lists(st.sampled_from(["-", "/no/such/file", "-h"]), max_size=1))
    return argv


# any text, and text drawn from the characters of graph6 records and of
# edge lists, so that some of it parses
_STDIN = st.one_of(st.text(max_size=40),
                   st.text(alphabet="".join(map(chr, range(63, 127))) + "\n",
                           max_size=40),
                   st.text(alphabet=" 0123456789\n", max_size=40))


@settings(max_examples=300, deadline=None)
@given(cli_argv(), _STDIN)
def test_cli_exit_codes_on_any_input(argv, stdin_text):
    with mock.patch("sys.stdin", io.StringIO(stdin_text)), \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as e:  # argparse: --help, or unusable arguments
            code = e.code
            assert code in (0, 2), argv
            return
    assert code in (0, 2, 3), argv


# Every JSON value the CLI prints, and the traps of a hand-written
# encoder: bools are ints, empty containers print inline, ints past 64
# bits, escapes and non-ASCII text, tuples (json prints them as lists).
_JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(),
                          st.integers(min_value=2 ** 63),
                          st.integers(max_value=-2 ** 63), st.text())
_JSON_DOCS = st.recursive(
    _JSON_SCALARS,
    lambda kids: st.one_of(st.lists(kids, max_size=4),
                           st.lists(kids, max_size=4).map(tuple),
                           st.dictionaries(st.text(max_size=4), kids, max_size=4)),
    max_leaves=20)


@settings(max_examples=300, deadline=None)
@given(_JSON_DOCS)
def test_dumps_matches_json_indent_2(doc):
    assert _dumps(doc) == json.dumps(doc, indent=2)


def run_main(argv, stdin_text):
    """(exit code or SystemExit code, stdout, stderr) of main(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(stdin_text)), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
    return code, out.getvalue(), err.getvalue()


def assert_dispatch_matches_whole_parser(argv, stdin_text):
    got = run_main(argv, stdin_text)
    with mock.patch.object(cli, "_commands", dict):  # no command known
        want = run_main(argv, stdin_text)
    assert got == want, argv


@pytest.mark.parametrize("argv", [[], ["-h"], ["aut", "-h"], ["x"], *UNREAD_FLAGS])
def test_cli_dispatch_matches_whole_parser_cases(argv):
    assert_dispatch_matches_whole_parser(argv, "3 2\n0 1\n1 2\n")


@settings(max_examples=300, deadline=None)
@given(cli_argv(), _STDIN)
def test_cli_dispatch_matches_whole_parser(argv, stdin_text):
    # main parses with the subcommand's own parser; the whole parser, which
    # a table of no commands forces, must print and exit the same
    assert_dispatch_matches_whole_parser(argv, stdin_text)


def test_console_script_installed():
    proc = subprocess.run(["mycdist", "dist"],
                          input=write_graph6(cycle_graph(5)) + "\n",
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["dist"] == 3
