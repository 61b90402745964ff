"""Case predictor and the four constructive colorings."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mycdist import (Coloring, DistPrediction, Graph, build_mycielskian,
                     classify_star, complete_graph, cycle_graph,
                     distinguishing_number, isolate_case_coloring,
                     isolated_vertices, kn_base_coloring, lift_coloring,
                     paper_coloring, predict_dist, search_color_preserving,
                     star_graph)
from mycdist.constructions import (CASE_GENERIC, CASE_ISOLATE_DOMINATED,
                                   CASE_K1_T1, CASE_K1_TGT1, CASE_K2_T1,
                                   CASE_K2_TGT1, EXACT, UPPER_BOUND)
from mycdist.errors import InvalidT, PreconditionViolated, SizeMismatch

from .oracles import _canonical_colorings_exactly
from .support import disjoint_union, distinguishes, graphs


def test_predict_dist_cases():
    k1 = Graph(1)
    k2 = complete_graph(2)
    assert predict_dist(k1, 1, 1) == DistPrediction(CASE_K1_T1, EXACT, 2)
    assert predict_dist(k1, 3, 1) == DistPrediction(CASE_K1_TGT1, EXACT, 3)
    assert predict_dist(k2, 1, 2) == DistPrediction(CASE_K2_T1, EXACT, 3)
    assert predict_dist(k2, 2, 2) == DistPrediction(CASE_K2_TGT1, EXACT, 2)
    assert predict_dist(Graph(3), 2, 3) == DistPrediction(
        CASE_ISOLATE_DOMINATED, EXACT, 6)
    assert predict_dist(complete_graph(3), 1, 3) == DistPrediction(
        CASE_GENERIC, UPPER_BOUND, 3)
    # empty_2 is not the K_2 case: no edge
    assert predict_dist(Graph(2), 2, 2) == DistPrediction(
        CASE_ISOLATE_DOMINATED, EXACT, 4)
    with pytest.raises(InvalidT):
        predict_dist(k2, 0, 2)
    with pytest.raises(PreconditionViolated):
        predict_dist(Graph(0), 1, 0)
    exact = DistPrediction(CASE_K2_T1, EXACT, 3)
    assert exact.holds(3) and not exact.holds(2)
    bound = DistPrediction(CASE_GENERIC, UPPER_BOUND, 3)
    assert bound.holds(2) and not bound.holds(4)


def test_paper_coloring_realizes_each_case(corpus_n6):
    # every graph with n <= 6 at t = 1, 2, 3: 624 rows
    none_cases, rows, checked = [], 0, 0
    for _, g in corpus_n6:
        dist_g = distinguishing_number(g)
        for t in (1, 2, 3):
            rows += 1
            prediction = predict_dist(g, t, dist_g.value)
            c = paper_coloring(g, t, prediction.case_tag, dist_g.certificate)
            if c is None:
                none_cases.append(prediction.case_tag)
                continue
            mu, _ = build_mycielskian(g, t)
            assert c.n == mu.n
            assert prediction.holds(c.k), (g.edges(), t, prediction, c.k)
            assert search_color_preserving(mu, c.assign) is None, (g.edges(), t)
            checked += 1
    assert rows == 624 and checked == 620
    assert sorted(none_cases) == sorted(
        [CASE_K1_T1, CASE_K2_T1, CASE_K2_TGT1, CASE_K2_TGT1])


def test_predict_isolates_need_strict_dominance():
    g = disjoint_union(Graph(1), complete_graph(2))
    # t*l = 2 equals dist, so the generic bound applies
    assert predict_dist(g, 2, 2) == DistPrediction(CASE_GENERIC, UPPER_BOUND, 2)
    assert predict_dist(g, 3, 2) == DistPrediction(CASE_ISOLATE_DOMINATED, EXACT, 3)


def test_star_lift_distinguishes_iff_root_avoids_center_color():
    # every distinguishing coloring of K_{1,m} with m or m+1 colors, up to
    # renaming, lifted with every root color: the root and the center's
    # top copy share an orbit, and nothing else stands in the way
    for m in range(2, 6):
        g = star_graph(m)
        center = m
        for k in (m, m + 1):
            for assign in _canonical_colorings_exactly(g.n, k):
                if not distinguishes(g, Coloring(k, assign)):
                    continue
                for t in (1, 2, 3):
                    mu, _ = build_mycielskian(g, t)
                    for w_color in range(1, k + 1):
                        c = lift_coloring(g, t, Coloring(k, assign), w_color)
                        assert distinguishes(mu, c) == (w_color != assign[center]), (
                            m, assign, t, w_color)


def test_kn_base_coloring_values():
    c = kn_base_coloring(3, 1)
    assert c.k == 2
    # digit vectors 00, 01, 10 for the three vertices, LSB at level 0
    assert c.assign == (1, 2, 1, 1, 1, 2, 1)
    assert kn_base_coloring(5, 1).k == 3
    assert kn_base_coloring(3, 2).k == 2
    assert kn_base_coloring(9, 1).k == 3
    with pytest.raises(PreconditionViolated, match="base coloring needs n >= 3, got 2"):
        kn_base_coloring(2, 1)
    with pytest.raises(InvalidT):
        kn_base_coloring(3, 0)
    # checked before the search for k, which never ends for t <= -1
    with pytest.raises(InvalidT):
        kn_base_coloring(5, -1)


def test_kn_base_coloring_distinguishes():
    combos = [(n, t) for n in range(3, 7) for t in (1, 2)]
    combos += [(3, 3), (4, 3)]
    for n, t in combos:
        mu, _ = build_mycielskian(complete_graph(n), t)
        c = kn_base_coloring(n, t)
        assert len(set(c.assign)) == c.k
        assert distinguishes(mu, c), (n, t)


def test_kn_base_coloring_is_optimal():
    # no coloring with fewer colors works, checked by blunt exhaustion
    for n in range(3, 6):
        for t in (1, 2):
            mu, _ = build_mycielskian(complete_graph(n), t)
            k = kn_base_coloring(n, t).k
            for j in range(1, k):
                for assign in _canonical_colorings_exactly(mu.n, j):
                    assert not distinguishes(mu, Coloring(j, assign)), (n, t, assign)
            assert distinguishing_number(mu).value == k


def test_isolate_case_coloring_examples():
    c = isolate_case_coloring(Graph(2), 2, Coloring(2, (1, 2)))
    mu, _ = build_mycielskian(Graph(2), 2)
    assert c.k == 4
    assert distinguishes(mu, c)

    c = isolate_case_coloring(Graph(1), 3, Coloring(1, (1,)))
    mu, _ = build_mycielskian(Graph(1), 3)
    assert c.k == 3
    assert distinguishes(mu, c)

    k1_plus_k2 = disjoint_union(Graph(1), complete_graph(2))
    with pytest.raises(PreconditionViolated):
        isolate_case_coloring(k1_plus_k2, 2, Coloring(2, (1, 1, 2)))


def test_isolate_case_coloring_guards():
    with pytest.raises(InvalidT):
        isolate_case_coloring(Graph(2), 0, Coloring(2, (1, 2)))
    with pytest.raises(SizeMismatch, match="coloring length 1 != source order 2"):
        isolate_case_coloring(Graph(2), 2, Coloring(1, (1,)))
    with pytest.raises(PreconditionViolated):
        isolate_case_coloring(complete_graph(3), 2, Coloring(3, (1, 2, 3)))
    # the order-0 graph, as build_mycielskian rejects it
    with pytest.raises(PreconditionViolated, match="at least one vertex"):
        isolate_case_coloring(Graph(0), 1, Coloring(0, ()))


def test_isolate_case_coloring_corpus(corpus_n6):
    hit = 0
    for line, g in corpus_n6:
        ell = len(isolated_vertices(g))
        if ell == 0:
            continue
        base = distinguishing_number(g)
        for t in (1, 2):
            if t * ell <= base.value:
                continue
            hit += 1
            mu, _ = build_mycielskian(g, t)
            c = isolate_case_coloring(g, t, base.certificate)
            assert c.k == t * ell
            assert distinguishes(mu, c), (line, t)
            # exactness: the isolates of mu are t*l mutual twins
            assert distinguishing_number(mu).value == t * ell, (line, t)
    # only t = 2 can dominate on this corpus: isolates are twins, so
    # dist(g) >= l and t*l > dist(g) needs t >= 2
    assert hit >= 15


def isolate_closed_form(g, t, c):
    """The isolate coloring's closed form before it became a lift: the
    j-th isolate's level-s copy takes (s mod t)*l + j + 1, every other
    vertex its given color on every level, and the root 2."""
    iso = isolated_vertices(g)
    rows = [list(c.assign) for _ in range(t + 1)]
    for s, row in enumerate(rows):
        for j, v in enumerate(iso):
            row[v] = (s % t) * len(iso) + j + 1
    return Coloring(t * len(iso), tuple(x for row in rows for x in row) + (2,))


def test_isolate_case_coloring_is_the_closed_form(corpus_n6):
    # the corpus starts with K_1 ("@"), whose one vertex is isolated
    assert corpus_n6[0][0] == "@"
    hit = 0
    for line, g in corpus_n6:
        ell = len(isolated_vertices(g))
        if ell == 0:
            continue
        cert = distinguishing_number(g).certificate
        for t in range(1, 5):
            if t * ell <= cert.k:
                with pytest.raises(PreconditionViolated):
                    isolate_case_coloring(g, t, cert)
                continue
            hit += 1
            assert isolate_case_coloring(g, t, cert) == isolate_closed_form(g, t, cert), (line, t)
    assert hit == 107


@settings(max_examples=200, deadline=None)
@given(graphs(7), st.integers(1, 3), st.integers(1, 4), st.data())
def test_lift_coloring_is_rainbow_on_isolated_vertices(base, extra, t, data):
    # g is base plus 1..3 isolates; any coloring of g whose isolates take
    # distinct colors, from a palette of at least t*l colors
    g = Graph(base.n + extra, list(base.edges()))
    iso = isolated_vertices(g)
    k = data.draw(st.integers(t * len(iso), t * len(iso) + 3))
    assign = data.draw(st.lists(st.integers(1, k), min_size=g.n, max_size=g.n))
    for v, color in zip(iso, data.draw(st.permutations(range(1, k + 1)))):
        assign[v] = color
    c = lift_coloring(g, t, Coloring(k, tuple(assign)))
    mu, _ = build_mycielskian(g, t)
    colors = [c.assign[v] for v in isolated_vertices(mu)]
    assert len(colors) == t * len(iso)
    assert len(set(colors)) == len(colors)


def test_lift_coloring_examples():
    c = lift_coloring(complete_graph(3), 1, Coloring(3, (1, 2, 3)), w_color=1)
    mu, _ = build_mycielskian(complete_graph(3), 1)
    assert c.k == 3
    assert c.assign == (1, 2, 3, 1, 2, 3, 1)
    assert search_color_preserving(mu, c.assign) is None

    base = distinguishing_number(cycle_graph(6))
    c = lift_coloring(cycle_graph(6), 2, base.certificate, w_color=2)
    mu, _ = build_mycielskian(cycle_graph(6), 2)
    assert c.k == 2
    assert search_color_preserving(mu, c.assign) is None

    with pytest.raises(PreconditionViolated):
        lift_coloring(complete_graph(2), 1, Coloring(2, (1, 2)))
    with pytest.raises(PreconditionViolated):
        lift_coloring(Graph(1), 1, Coloring(1, (1,)))


def test_lift_coloring_guards():
    with pytest.raises(InvalidT):
        lift_coloring(complete_graph(3), 0, Coloring(3, (1, 2, 3)))
    with pytest.raises(PreconditionViolated):
        lift_coloring(complete_graph(3), 1, Coloring(3, (1, 2, 3)), w_color=4)
    with pytest.raises(PreconditionViolated):
        lift_coloring(complete_graph(3), 1, Coloring(3, (1, 2, 3)), w_color=0)
    # t*l exceeds the palette: the isolate construction applies instead
    with pytest.raises(PreconditionViolated):
        lift_coloring(Graph(3), 2, Coloring(3, (1, 2, 3)))
    # the order-0 graph, before its empty palette fails the w_color check
    with pytest.raises(PreconditionViolated, match="at least one vertex"):
        lift_coloring(Graph(0), 1, Coloring(0, ()))


def test_lift_coloring_handles_isolates():
    # one isolate and a path; t*l = 2 fits inside k = 2
    g = Graph(4, [(1, 2), (2, 3)])
    base = distinguishing_number(g)
    assert base.value == 2
    c = lift_coloring(g, 2, base.certificate)
    mu, _ = build_mycielskian(g, 2)
    assert c.k == 2
    # isolate copies at levels 0 and 1 carry distinct colors
    assert {c.assign[0], c.assign[4]} == {1, 2}
    assert distinguishes(mu, c)


def test_lift_coloring_corpus(corpus_n6):
    hit = 0
    for line, g in corpus_n6:
        if g.n < 3 or classify_star(g) is not None:
            continue
        base = distinguishing_number(g)
        ell = len(isolated_vertices(g))
        for t in (1, 2):
            if t * ell > base.value:
                continue
            hit += 1
            mu, _ = build_mycielskian(g, t)
            for w_color in (1, min(2, base.value)):
                c = lift_coloring(g, t, base.certificate, w_color=w_color)
                assert c.k == base.value
                assert distinguishes(mu, c), (line, t, w_color)
    assert hit > 300
