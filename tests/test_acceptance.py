"""Acceptance suite: one test per shipped guarantee, with runtime caps.

Each test prints a single PASS line with its measurements; pytest -v shows
one pass/fail line per criterion either way.
"""

import math
import subprocess
import sys
import time

from mycdist import (Graph, build_mycielskian, classify_star, complete_graph,
                     cycle_graph, distinguishing_number,
                     enumerate_automorphisms, isolate_case_coloring,
                     isolated_vertices, kn_base_coloring, lift_coloring,
                     orbit_of, paper_coloring, parse_graph6, path_graph,
                     predict_dist, star_graph, write_graph6)
from mycdist.verify import run_verify

from .conftest import DATA
from .oracles import (distinguishing_number_bruteforce,
                      enumerate_automorphisms_naive)
from .support import (chain_elements, disjoint_union, distinguishes,
                      naive_component_count, source_tree_env, validate_facts)


def test_criterion_1_cycle_baselines():
    start = time.perf_counter()
    assert distinguishing_number(cycle_graph(5)).value == 3
    for n in range(6, 10):
        assert distinguishing_number(cycle_graph(n)).value == 2, n
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"{elapsed:.2f}s"
    print(f"criterion 1 PASS: dist(C_5)=3, dist(C_6..C_9)=2 in {elapsed:.2f}s")


def test_criterion_2_complete_graph_law():
    start = time.perf_counter()
    for n in range(3, 7):
        for t in (1, 2):
            want = 2
            while want ** (t + 1) < n:
                want += 1
            mu, _ = build_mycielskian(complete_graph(n), t)
            got = distinguishing_number(mu).value
            assert got == want, (n, t, got, want)
            if t == 1:
                assert got == math.isqrt(n - 1) + 1, (n, got)  # ceil(sqrt(n))
    elapsed = time.perf_counter() - start
    assert elapsed < 300, f"{elapsed:.1f}s"
    print(f"criterion 2 PASS: dist(mu_t(K_n)) law on n=3..6, t=1..2 in {elapsed:.1f}s")


def test_criterion_3_constructive_certificates(corpus_n6):
    start = time.perf_counter()
    checked = 0

    star_grid = [(m, t) for m in range(2, 6) for t in (1, 2)] + [(2, 3), (3, 3)]
    for m, t in star_grid:
        g = star_graph(m)
        mu, _ = build_mycielskian(g, t)
        base = distinguishing_number(g)
        case = predict_dist(g, t, base.value).case_tag
        c = paper_coloring(g, t, case, base.certificate)
        assert c.k == base.value and distinguishes(mu, c), (m, t)
        checked += 1

    kn_grid = [(n, t) for n in range(3, 7) for t in (1, 2)] + [(3, 3), (4, 3)]
    for n, t in kn_grid:
        mu, _ = build_mycielskian(complete_graph(n), t)
        coloring = kn_base_coloring(n, t)
        assert len(set(coloring.assign)) == coloring.k, (n, t)
        assert distinguishes(mu, coloring), (n, t)
        checked += 1

    for line, g in corpus_n6:
        base = distinguishing_number(g)
        ell = len(isolated_vertices(g))
        star = classify_star(g)
        for t in (1, 2):
            if ell >= 1 and t * ell > base.value:
                mu, _ = build_mycielskian(g, t)
                c = isolate_case_coloring(g, t, base.certificate)
                assert distinguishes(mu, c), (line, t)
                checked += 1
            if g.n >= 3 and star is None and t * ell <= base.value:
                mu, _ = build_mycielskian(g, t)
                for w_color in {1, min(2, base.value)}:
                    c = lift_coloring(g, t, base.certificate, w_color=w_color)
                    assert distinguishes(mu, c), (line, t, w_color)
                    checked += 1

    elapsed = time.perf_counter() - start
    print(f"criterion 3 PASS: {checked} constructive colorings all distinguishing "
          f"in {elapsed:.1f}s")


def test_criterion_4_case_analysis_full_sweep(corpus_n6):
    start = time.perf_counter()
    lines = [line for line, _ in corpus_n6]
    report = run_verify(lines, [1, 2])
    assert report.summary["records"] == 416
    assert report.summary["violations"] == 0
    assert report.summary["budget_exceeded"] == 0
    assert report.summary["malformed"] == 0
    for r in report.records:
        assert r.passed, r
        if r.predicted_kind == "exact":
            assert r.measured == r.predicted_value, r
        else:
            assert r.measured <= r.predicted_value, r
    elapsed = time.perf_counter() - start
    assert elapsed < 1800, f"{elapsed:.1f}s"
    print(f"criterion 4 PASS: 208 graphs x t=1,2 swept, 0 violations "
          f"in {elapsed:.1f}s")


def _assert_searched_rows_pass(report):
    """Every row was measured by the exact search and meets its prediction."""
    for r in report.records:
        assert r.passed and r.method == "search", r
        if r.predicted_kind == "exact":
            assert r.measured == r.predicted_value, r
        else:
            assert r.measured <= r.predicted_value, r


def test_criterion_4b_case_analysis_n7_sweep(corpus_n7):
    # all 1044 graphs on 7 vertices at t = 1,2, at the default budget
    start = time.perf_counter()
    lines = [line for line, g in corpus_n7 if g.n == 7]
    report = run_verify(lines, [1, 2])
    assert report.summary == {"records": 2088, "violations": 0,
                              "budget_exceeded": 0, "malformed": 0}
    _assert_searched_rows_pass(report)
    elapsed = time.perf_counter() - start
    assert elapsed < 60, f"{elapsed:.1f}s"
    print(f"criterion 4b PASS: 1044 graphs on 7 vertices x t=1,2 swept, "
          f"0 violations, 0 over budget in {elapsed:.1f}s")


def test_criterion_4c_case_analysis_t3_sweep(corpus_n6):
    # all 208 graphs with n <= 6 at t = 3, at the default budget: up to
    # 25 vertices, and groups up to |Aut(mu_3(K_{3,3}))| = 3359232
    start = time.perf_counter()
    lines = [line for line, _ in corpus_n6]
    report = run_verify(lines, [3])
    assert report.summary == {"records": 208, "violations": 0,
                              "budget_exceeded": 0, "malformed": 0}
    _assert_searched_rows_pass(report)
    elapsed = time.perf_counter() - start
    assert elapsed < 10, f"{elapsed:.1f}s"
    print(f"criterion 4c PASS: 208 graphs x t=3 swept, 0 violations, "
          f"0 over budget in {elapsed:.1f}s")


def test_criterion_5_root_orbits(corpus_n6):
    start = time.perf_counter()
    counts = {"connected_nonstar": 0, "disconnected": 0, "star": 0, "k2": 0}
    for _, g in corpus_n6:
        star = classify_star(g)
        connected = naive_component_count(g.n, set(g.edges())) <= 1
        for t in (1, 2):
            mu, layout = build_mycielskian(g, t)
            orbit = orbit_of(mu, layout.root)
            if star is not None and star.m == 1:
                assert orbit == frozenset(range(mu.n)), (g.edges(), t)
                counts["k2"] += 1
            elif star is not None and star.m >= 2:
                shadow = layout.vertex_id(star.center, t)
                assert orbit == frozenset({layout.root, shadow}), (g.edges(), t)
                counts["star"] += 1
            elif not connected:
                assert orbit == frozenset({layout.root}), (g.edges(), t)
                counts["disconnected"] += 1
            elif star is None and g.n >= 3:
                assert orbit == frozenset({layout.root}), (g.edges(), t)
                counts["connected_nonstar"] += 1
    assert counts["k2"] == 2
    assert counts["star"] == 8  # K_{1,m} for m = 2..5, at t = 1 and 2
    assert counts["disconnected"] >= 100
    assert counts["connected_nonstar"] >= 200
    elapsed = time.perf_counter() - start
    print(f"criterion 5 PASS: root orbits {counts} in {elapsed:.1f}s")


AUT_FIXTURES = [
    Graph(1),
    complete_graph(2),
    Graph(4),
    path_graph(4),
    complete_graph(4),
    cycle_graph(5),
    cycle_graph(6),
    star_graph(4),
    disjoint_union(complete_graph(3), complete_graph(3)),
    Graph(6, [(0, 3), (0, 4), (0, 5), (1, 3), (1, 4), (1, 5),
              (2, 3), (2, 4), (2, 5)]),  # K_{3,3}
    build_mycielskian(complete_graph(3), 1)[0],
    complete_graph(5),
    Graph(8, [(0, 1), (0, 2), (0, 4), (1, 3), (1, 5), (2, 3), (2, 6),
              (3, 7), (4, 5), (4, 6), (5, 7), (6, 7)]),  # 3-cube
    build_mycielskian(path_graph(3), 1)[0],
]


def test_criterion_6_oracle_equivalences(corpus_n7):
    start = time.perf_counter()
    for g in AUT_FIXTURES:
        assert g.n <= 8
        fast = enumerate_automorphisms(g)
        naive = enumerate_automorphisms_naive(g)
        assert chain_elements(fast) == naive, g.edges()
    mid = time.perf_counter()
    for line, g in corpus_n7:
        a = distinguishing_number(g).value
        b = distinguishing_number_bruteforce(g).value
        assert a == b, (line, a, b)
    elapsed = time.perf_counter() - start
    print(f"criterion 6 PASS: {len(AUT_FIXTURES)} listings match naive "
          f"({mid - start:.1f}s); dist matches brute force on "
          f"{len(corpus_n7)} graphs ({elapsed - (mid - start):.1f}s)")


def test_criterion_7_structural_facts(corpus_n7):
    start = time.perf_counter()
    for line, g in corpus_n7:
        for t in (1, 2, 3):
            mu, layout = build_mycielskian(g, t)
            assert mu.n == (t + 1) * g.n + 1
            report = validate_facts(g, t, mu, layout)
            assert report.all_ok, (line, t, report.failures())
    elapsed = time.perf_counter() - start
    print(f"criterion 7 PASS: facts hold for {len(corpus_n7)} graphs x t=1..3 "
          f"in {elapsed:.1f}s")


def test_criterion_8_format_stability(corpus_n7, tmp_path):
    start = time.perf_counter()
    for line, g in corpus_n7:
        assert write_graph6(g) == line
        assert parse_graph6(write_graph6(g)) == g

    subset = tmp_path / "n5.g6"
    with open(DATA / "graphs_n1_6.g6") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln.strip()]
    small = [ln for ln in lines if parse_graph6(ln).n <= 5]
    subset.write_text("".join(ln + "\n" for ln in small))
    env = source_tree_env()
    outs = {}
    for fmt in ("json", "csv"):
        for jobs in ("1", "8"):
            proc = subprocess.run(
                [sys.executable, "-m", "mycdist", "verify", str(subset),
                 "--out", fmt, "--jobs", jobs],
                capture_output=True, text=True, env=env)
            assert proc.returncode == 0, proc.stderr
            outs[(fmt, jobs)] = proc.stdout
        assert outs[(fmt, "1")] == outs[(fmt, "8")], fmt
    elapsed = time.perf_counter() - start
    print(f"criterion 8 PASS: {len(corpus_n7)} graph6 round trips; "
          f"--jobs 1/8 reports byte-identical on {len(small)} records "
          f"in {elapsed:.1f}s")
