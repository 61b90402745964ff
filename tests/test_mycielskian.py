"""Mycielskian construction and its structural facts."""

import pytest

from mycdist import (Graph, MycLayout, build_mycielskian, classify_star,
                     complete_graph, cycle_graph, find_isomorphism, orbit_of,
                     parse_graph6, star_graph)
from mycdist.errors import (InvalidT, PreconditionViolated, SizeMismatch,
                            VertexOutOfRange)
from mycdist.mycielskian import root_fixed_by_degrees

from .conftest import corpus_lines
from .support import (degree_rounds, disjoint_union, naive_component_count,
                      naive_cut_vertices, validate_facts)

# mu(K_{1,3}) drawn edge by edge: leaves 0,1,2, center 3, level-1 copies
# 4,5,6,7, root 8
FIG_MU_STAR3 = Graph(9, [
    (0, 3), (1, 3), (2, 3),
    (3, 4), (3, 5), (3, 6),
    (0, 7), (1, 7), (2, 7),
    (4, 8), (5, 8), (6, 8), (7, 8),
])


def test_star3_matches_hand_drawn_figure():
    mu, _ = build_mycielskian(star_graph(3), 1)
    assert mu == FIG_MU_STAR3
    assert sorted(mu.degree(v) for v in range(9)) == [2, 2, 2, 2, 2, 2, 4, 4, 6]


def test_k1_gives_k1_plus_k2():
    mu, layout = build_mycielskian(Graph(1), 1)
    assert mu.n == 3
    assert mu.edges() == [(1, 2)]
    assert layout.root == 2


def test_k2_gives_odd_cycles():
    for t in (1, 2, 3):
        mu, _ = build_mycielskian(complete_graph(2), t)
        assert find_isomorphism(mu, cycle_graph(2 * t + 3)) is not None


def test_mu2_k3_shape():
    mu, layout = build_mycielskian(complete_graph(3), 2)
    assert mu.n == 10
    assert [mu.degree(v) for v in range(10)] == [4, 4, 4, 4, 4, 4, 3, 3, 3, 3]
    assert mu.neighbors(layout.root) == {layout.vertex_id(i, 2) for i in range(3)}
    # cross edges join copies of distinct source vertices only
    for s in range(2):
        for i in range(3):
            for j in range(3):
                assert mu.has_edge(layout.vertex_id(i, s),
                                   layout.vertex_id(j, s + 1)) == (i != j)


def test_level0_induces_source():
    g = parse_graph6("DQc")  # arbitrary 5-vertex graph
    mu, layout = build_mycielskian(g, 2)
    for u in range(g.n):
        for v in range(g.n):
            if u != v:
                assert mu.has_edge(u, v) == g.has_edge(u, v)
    assert layout.vertex_id(3, 0) == 3


def test_layout_roles():
    _, layout = build_mycielskian(Graph(3, [(0, 1), (1, 2)]), 2)
    assert layout.order == 10 and layout.root == 9
    assert layout.role(0).kind == "original"
    assert layout.role(4) == type(layout.role(4))("shadow", 1, 1)
    assert layout.role(9).kind == "root"
    with pytest.raises(VertexOutOfRange, match="vertex 10 outside layout of order 10"):
        layout.role(10)
    with pytest.raises(VertexOutOfRange, match=r"no vertex \(i=0, s=3\)"):
        layout.vertex_id(0, 3)


@pytest.mark.parametrize("n, t", [(1, 1), (1, 3), (2, 2), (4, 1), (5, 3)])
def test_lift_lays_rows_out_by_vertex_id(n, t):
    layout = MycLayout(n, t)
    lifted = layout.lift([[(i, s) for i in range(n)] for s in range(t + 1)], "w")
    assert len(lifted) == layout.order
    for s in range(t + 1):
        for i in range(n):
            assert lifted[layout.vertex_id(i, s)] == (i, s)
    assert lifted[layout.root] == "w"


def test_lift_rejects_rows_of_the_wrong_shape():
    layout = MycLayout(3, 2)
    row = [1, 1, 1]
    for rows in ([row] * 2, [row] * 4, [row, row, [1, 1]], [row, row, row + [1]]):
        with pytest.raises(SizeMismatch, match="need 3 rows of 3 values"):
            layout.lift(rows, 1)


def test_builder_rejects_bad_inputs():
    with pytest.raises(PreconditionViolated, match="at least one vertex"):
        build_mycielskian(Graph(0), 1)
    with pytest.raises(InvalidT):
        build_mycielskian(Graph(1), 0)
    # the layout is where t >= 1 is checked: no layout of an undefined mu_t
    with pytest.raises(InvalidT, match="got 0"):
        MycLayout(3, 0)
    # namedtuple's own constructors run the same check
    with pytest.raises(InvalidT, match="got 0"):
        MycLayout(3, 2)._replace(t=0)
    with pytest.raises(InvalidT, match="got -1"):
        MycLayout._make((3, -1))


def test_root_shadow_neighbors_mirror_source():
    g = parse_graph6("DQc")
    mu, layout = build_mycielskian(g, 2)
    t = 2
    for i in range(g.n):
        top = layout.vertex_id(i, t)
        below = mu.neighbors(top) - {layout.root}
        assert below == {layout.vertex_id(j, t - 1) for j in g.neighbors(i)}


def test_disconnected_source_root_is_unique_cut_vertex(corpus_n6):
    for _, g in corpus_n6:
        if naive_component_count(g.n, set(g.edges())) < 2:
            continue
        for t in (1, 2):
            mu, layout = build_mycielskian(g, t)
            assert naive_cut_vertices(mu) == {layout.root}


def test_root_certificate_matches_the_built_graph(corpus_n7):
    # rounds 1 and 2 of colour refinement read off G's degrees are those
    # of the built mu_t(G), and a certified root is fixed; the certificate
    # fails on the stars, K_1 and K_2, whose root is not fixed, and on
    # EQKo alone besides, whose root only a deeper refinement sets apart
    rows = [(line, g, t) for line, g in corpus_n7 if g.n <= 6 for t in (1, 2, 3, 8)]
    rows += [(line, g, 1) for line, g in corpus_n7 if g.n == 7]
    missed = []
    for line, g, t in rows:
        mu, layout = build_mycielskian(g, t)
        degrees, around = degree_rounds(g, t)
        adj = mu.adjacency
        assert degrees == tuple(map(len, adj)), (line, t)
        assert around == {v: tuple(sorted(degrees[u] for u in adj[v]))
                          for v in range(mu.n) if degrees[v] == g.n}, (line, t)
        if root_fixed_by_degrees(g, t):
            assert orbit_of(mu, layout.root) == {layout.root}, (line, t)
        elif classify_star(g) is None:
            missed.append((line, t))
    # K_{1,m} for m = 0..6, K_1 and K_2 among them
    stars = [g for _, g in corpus_n7 if classify_star(g) is not None]
    assert [classify_star(g).m for g in stars] == list(range(7))
    assert not any(root_fixed_by_degrees(g, t) for g in stars for t in (1, 2, 3, 8))
    assert missed == [("EQKo", 1), ("EQKo", 2), ("EQKo", 3), ("EQKo", 8)]


def test_root_certificate_reads_three_levels(corpus_n7):
    # levels 0..t-2 of mu_t(G) repeat one degree row with the same
    # neighbour rows, so the certificate reads levels 0, t-1 and t only:
    # it agrees with both rounds on every level, and t = 10**6 reads as 3
    for line, g in corpus_n7:
        for t in range(1, 9):
            around = degree_rounds(g, t)[1]
            root = around.pop((t + 1) * g.n)
            assert root_fixed_by_degrees(g, t) == (root not in around.values()), (line, t)
        assert root_fixed_by_degrees(g, 10**6) == root_fixed_by_degrees(g, 3), line


def test_validate_facts_full_sweep(corpus_n7):
    for _, g in corpus_n7:
        for t in (1, 2, 3):
            mu, layout = build_mycielskian(g, t)
            report = validate_facts(g, t, mu, layout)
            assert report.all_ok, (g.edges(), t, report.failures())


def test_validate_facts_detects_wrong_graph():
    g = complete_graph(3)
    mu, layout = build_mycielskian(g, 1)
    # break a degree fact: drop one cross edge, add a level-1 edge
    edges = [e for e in mu.edges() if e != (0, 4)] + [(4, 5)]
    tampered = Graph(mu.n, edges)
    report = validate_facts(g, 1, tampered, layout)
    assert not report.all_ok
    names = {c.name for c in report.failures()}
    assert "levels_independent" in names
    assert "inner_level_degrees" in names


def test_validate_facts_layout_mismatch():
    g = complete_graph(3)
    mu, layout = build_mycielskian(g, 1)
    with pytest.raises(SizeMismatch, match=r"layout is for \(n=3, t=1\)"):
        validate_facts(g, 2, mu, layout)
    with pytest.raises(SizeMismatch, match=r"layout is for \(n=3, t=1\)"):
        validate_facts(complete_graph(4), 1, mu, layout)
    with pytest.raises(SizeMismatch, match="graph order 5 != layout order 7"):
        validate_facts(g, 1, complete_graph(5), layout)


def test_order_formula_on_corpus_sample():
    for line in corpus_lines("graphs_n1_6.g6")[:40]:
        g = parse_graph6(line)
        for t in (1, 2):
            mu, _ = build_mycielskian(g, t)
            assert mu.n == (t + 1) * g.n + 1


def test_disjoint_union_helper():
    g = disjoint_union(complete_graph(2), complete_graph(2))
    assert g.edges() == [(0, 1), (2, 3)]
