"""Verify pipeline and the command line surface."""

import concurrent.futures
import contextlib
import csv
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

from mycdist import (AutListing, Coloring, ExceedsCap, MycLayout, VerifyRecord,
                     build_mycielskian, complete_graph, cycle_graph,
                     distinguishing_number, empty_graph,
                     enumerate_automorphisms, is_automorphism,
                     kn_base_coloring, orbit_of, parse_graph6, path_graph,
                     star_graph, write_graph6)
from mycdist import automorphism, distinguishing, verify
from mycdist.cli import main
from mycdist.errors import MalformedColoring, MycdistError
from mycdist.verify import (CSV_FIELDS, classify_root_orbit, process_record,
                            report_to_csv, report_to_json, root_orbit_conforms,
                            run_verify)

from .oracles import enumerate_automorphisms_naive
from .support import (chain_elements, graphs, reference_aut_generators,
                      source_tree_env)

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


def test_run_verify_oversized_record_is_fatal():
    with pytest.raises(MycdistError, match="record 2"):
        run_verify(["Bw", "G?????"], [1])


def test_certified_fallback_under_tiny_budget():
    # dist(empty_3) fits in 8 steps (it takes 4), the 10-vertex search
    # does not (it takes 11)
    report = run_verify(["B?"], [2], budget_steps=8)
    (r,) = report.records
    assert r.method == "certified"
    assert r.case == "ISOLATE_DOMINATED"
    assert r.measured == r.predicted_value == 6
    assert r.passed
    assert report.summary["violations"] == 0


def test_budget_exceeded_recorded_not_fatal():
    # dist(C_5) fits in 70 steps (it takes 59), dist(mu_1(C_5)) does not
    # (it takes 82)
    c5 = write_graph6(cycle_graph(5))
    report = run_verify([c5], [1], budget_steps=70)
    (r,) = report.records
    assert r.method == "budget_exceeded"
    assert r.case == "GENERIC" and r.measured is None and not r.passed
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


def test_jobs_do_not_change_report(corpus_n6):
    lines = [line for line, _ in corpus_n6[:24]]
    serial = run_verify(lines, [1], jobs=1)
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


def test_process_record_row_shape():
    rows = process_record("Bw", [1, 2], 10**8)
    assert [r.t for r in rows] == [1, 2]
    for r in rows:
        assert r.graph6 == "Bw" and r.n == 3 and r.ell == 0 and r.dist_g == 3
        assert r.predicted_kind == "upper_bound" and r.measured <= r.predicted_value


def test_process_record_builds_one_chain_per_graph(monkeypatch):
    # G's chain and one per t, each shared by the distinguishing search,
    # and the root orbit read off mu_t's chain with no search of its own
    builds, orbits = [], []
    build = distinguishing.enumerate_automorphisms

    def counted_build(*args, **kwargs):
        builds.append(args[0].n)
        return build(*args, **kwargs)

    def counted_orbit(*args):
        orbits.append(args)
        return automorphism.orbit_of(*args)

    monkeypatch.setattr(distinguishing, "enumerate_automorphisms", counted_build)
    monkeypatch.setattr(verify, "orbit_of", counted_orbit)
    monkeypatch.setattr(automorphism, "orbit_of", counted_orbit)
    rows = process_record("ElUg", [1, 2], 10**8)
    assert [r.method for r in rows] == ["search", "search"]
    assert builds == [6, 13, 19]
    assert orbits == []


def test_process_record_finds_twin_classes_once_per_graph(monkeypatch):
    # once for G and once per t, by the chain build; the distinguishing
    # search reads them off the chain
    calls = []
    find = automorphism.twin_classes

    def counted(g):
        calls.append(g.n)
        return find(g)

    monkeypatch.setattr(automorphism, "twin_classes", counted)
    monkeypatch.setattr(distinguishing, "twin_classes", counted)
    rows = process_record("ElUg", [1, 2], 10**8)
    assert [r.method for r in rows] == ["search", "search"]
    assert calls == [6, 13, 19]


def test_certified_path_finds_twin_classes_once_per_graph(monkeypatch):
    # mu_2's search runs out of steps and the record is certified: the
    # twin lower bound is read off mu_2's chain, not found a second time
    calls = []
    find = automorphism.twin_classes

    def counted(g):
        calls.append(g.n)
        return find(g)

    monkeypatch.setattr(automorphism, "twin_classes", counted)
    monkeypatch.setattr(distinguishing, "twin_classes", counted)
    rows = process_record("B?", [2], 8)
    assert [r.method for r in rows] == ["certified"]
    assert calls == [3, 10]


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
    # loading typing before the package does
    code = ("import sys, mycdist, mycdist.cli, mycdist.verify; "
            "print(sorted({'dataclasses', 'inspect', 'typing'}"
            " & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                          text=True, env=source_tree_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_record_fields_are_the_csv_columns():
    assert list(VerifyRecord._fields) == [
        "passed" if f == "pass" else f for f in CSV_FIELDS]


def test_records_round_trip_through_pickle():
    # --jobs pickles tasks to the workers and their records back
    g = parse_graph6("Bw")
    group = enumerate_automorphisms(g)
    res = distinguishing_number(g, group=group)
    records = process_record("Bw", [1, 2], 10**6)
    for obj in [*records, res, res.certificate, ExceedsCap(2),
                MycLayout(3, 2)]:
        back = pickle.loads(pickle.dumps(obj))
        assert type(back) is type(obj) and back == obj
    back = pickle.loads(pickle.dumps(group))
    assert type(back) is AutListing
    assert (back.n, back.order, back.levels, back.twins) == (
        3, 6, group.levels, group.twins)
    with pytest.raises(MalformedColoring, match=r"colors \[3\] outside 1..2"):
        Coloring(2, (1, 3))


def test_root_orbit_read_off_the_chain_matches_orbit_of(corpus_n6):
    for line, g in corpus_n6:
        group = enumerate_automorphisms(g)
        for t in (1, 2, 3):
            mu, layout = build_mycielskian(g, t)
            chain = enumerate_automorphisms(mu, known=verify._lifts(group, t))
            assert verify._root_orbit(chain, layout.root) == orbit_of(
                mu, layout.root), (line, t)


def test_root_orbit_classification():
    for g, t, expect in [
        (complete_graph(2), 1, "all"),
        (complete_graph(2), 2, "all"),
        (star_graph(3), 1, "center_shadow"),
        (path_graph(3), 1, "center_shadow"),  # P_3 = K_{1,2}
        (complete_graph(3), 1, "fixed"),
        (empty_graph(2), 2, "fixed"),
    ]:
        mu, layout = build_mycielskian(g, t)
        from mycdist import orbit_of
        orbit = orbit_of(mu, layout.root)
        got = classify_root_orbit(orbit, g, t)
        assert got == expect, (g.edges(), t)
        assert root_orbit_conforms(got, g, t)
    assert not root_orbit_conforms("all", complete_graph(3), 1)
    assert not root_orbit_conforms("fixed", star_graph(2), 1)
    assert not root_orbit_conforms("fixed", star_graph(3), 2)
    assert not root_orbit_conforms("other", empty_graph(4), 2)


@pytest.mark.parametrize("m", range(2, 8))
@pytest.mark.parametrize("t", range(1, 5))
def test_star_root_orbit_is_center_shadow(m, t):
    """The argument in root_orbit_conforms, checked on K_{1,m}: the root
    w and the top copy of the center form the root's orbit, and the
    level reflection that swaps them is an automorphism."""
    g = star_graph(m)
    center = m
    mu, layout = build_mycielskian(g, t)
    top = layout.vertex_id(center, t)
    orbit = orbit_of(mu, layout.root)
    assert orbit == frozenset({layout.root, top})
    assert root_orbit_conforms(classify_root_orbit(orbit, g, t), g, t)

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


def test_cli_myc_empty_input(monkeypatch, capsys):
    code, _, err = run_cli(["myc"], "", monkeypatch, capsys)
    assert code == 2 and "error" in err


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
    graphs += [empty_graph(8), complete_graph(7)]
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
    cases = [(empty_graph(10), math.factorial(10)),
             (empty_graph(25), math.factorial(25)),
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
    # twin witness, so a prune that changes any certificate fails here
    golden = ROOT / "tests" / "golden" / "dist.jsonl"
    records = [json.loads(ln) for ln in golden.read_text().splitlines()]
    assert len(records) == 1356
    for want in records:
        code, out, _ = run_cli(["dist"], want.pop("graph6") + "\n",
                               monkeypatch, capsys)
        assert code == 0
        assert json.loads(out) == want


def test_n6_t1_sweep_matches_bench_golden(corpus_n6):
    golden = ROOT / "bench" / "golden" / "sweep_n6_t1.csv"
    report = run_verify([line for line, _ in corpus_n6], [1])
    assert report_to_csv(report) == golden.read_text()


def test_cli_dist_k_cap_and_budget(monkeypatch, capsys):
    k4 = write_graph6(complete_graph(4))
    code, out, _ = run_cli(["dist", "--k-cap", "2"], k4 + "\n",
                           monkeypatch, capsys)
    assert code == 0
    assert json_docs(out)[0] == {"exceeds_cap": 2}

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
    _, coloring = kn_base_coloring(3, 2)
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


def test_cli_coloring_star_and_kn(monkeypatch, capsys):
    code, out, _ = run_cli(["coloring", "--construction", "star", "--m", "3"],
                           "", monkeypatch, capsys)
    assert code == 0
    (doc,) = json_docs(out)
    assert doc["k"] == 3 and doc["distinguishing"] is True
    assert parse_graph6(doc["graph6"]).n == 9

    code, out, _ = run_cli(["coloring", "--construction", "kn", "--n", "5"],
                           "", monkeypatch, capsys)
    (doc,) = json_docs(out)
    assert doc["k"] == 3 and doc["distinguishing"] is True

    code, _, err = run_cli(["coloring", "--construction", "star"],
                           "", monkeypatch, capsys)
    assert code == 2
    code, _, err = run_cli(["coloring", "--construction", "star", "--m", "1"],
                           "", monkeypatch, capsys)
    assert code == 2


def test_cli_coloring_isolate_and_lift(monkeypatch, capsys):
    code, out, _ = run_cli(["coloring", "--construction", "isolate", "--t", "2"],
                           "A?\n", monkeypatch, capsys)
    assert code == 0
    (doc,) = json_docs(out)
    assert doc["k"] == 4 and doc["distinguishing"] is True

    c6 = write_graph6(cycle_graph(6))
    code, out, _ = run_cli(
        ["coloring", "--construction", "lift", "--t", "2", "--w-color", "2"],
        c6 + "\n", monkeypatch, capsys)
    (doc,) = json_docs(out)
    assert doc["k"] == 2 and doc["distinguishing"] is True

    # lift refuses K_2
    code, _, _ = run_cli(["coloring", "--construction", "lift"],
                         "A_\n", monkeypatch, capsys)
    assert code == 2


def test_cli_coloring_reads_its_input_once_for_every_t(monkeypatch, capsys):
    code, out, _ = run_cli(["coloring", "--construction", "isolate", "--t", "2,3"],
                           "A?\n", monkeypatch, capsys)
    assert code == 0
    assert [doc["t"] for doc in json_docs(out)] == [2, 3]


# graph6 holds at most 62 vertices; a mu_t past that is rejected before
# any mu_t or coloring is built, and before any document is printed
@pytest.mark.parametrize("argv, stdin_text", [
    (["myc", "--t", "1,20000"], "E~~w\n"),
    (["myc", "--t", "30"], "A_\n"),
    (["coloring", "--construction", "kn", "--n", "1500", "--t", "1"], ""),
    (["coloring", "--construction", "star", "--m", "2", "--t", "300000"], ""),
    (["coloring", "--construction", "star", "--m", "2", "--t", "1,30"], ""),
    (["coloring", "--construction", "isolate", "--t", "1,40"], "A?\n"),
], ids=["myc-t20000", "myc-t30", "kn-n1500", "star-t300000", "star-t30",
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

    code, _, err = run_cli(["verify", "--t", "1"], "G?????\n",
                           monkeypatch, capsys)
    assert code == 2 and "record 1" in err

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
@pytest.mark.parametrize("argv", [
    ["myc", "--budget", "5"],
    ["aut", "--t", "2"],
    ["aut", "--budget", "5"],
    ["dist", "--t", "2"],
    ["check-coloring", "--coloring", "[1,2,3]", "--t", "2"],
    ["check-coloring", "--coloring", "[1,2,3]", "--budget", "5"],
    ["verify", "--format", "edges"],
])
def test_cli_rejects_flags_a_subcommand_does_not_read(argv, monkeypatch, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(argv, "3 2\n0 1\n1 2\n", monkeypatch, capsys)
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and "unrecognized arguments" in out.err


# Commands whose arguments would leak into the next one if parsing kept
# state between calls: a flag left over (--k-cap), a subcommand default
# overridden (--t of myc against the 1,2 default of verify).
IN_ONE_PROCESS = [
    (["dist", "--k-cap", "2"], "Dhc\n"),
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


def test_console_script_installed():
    proc = subprocess.run(["mycdist", "dist"],
                          input=write_graph6(cycle_graph(5)) + "\n",
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["dist"] == 3
