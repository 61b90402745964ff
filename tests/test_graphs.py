"""Structural predicates against naive oracles."""

import pytest
from hypothesis import given, settings

from mycdist import (Graph, Star, build_mycielskian, classify_star,
                     complete_graph, cycle_graph, isolated_vertices,
                     path_graph, star_graph, twin_classes)
from mycdist.errors import InvalidGraph, VertexOutOfRange

from .support import disjoint_union, graphs, naive_twin_classes


def test_basic_accessors():
    g = path_graph(4)
    assert g.degree(0) == 1 and g.degree(1) == 2
    assert g.neighbors(1) == {0, 2}
    assert g.edge_count == 3
    assert g.has_edge(2, 3) and not g.has_edge(0, 3)
    with pytest.raises(VertexOutOfRange):
        g.degree(4)
    with pytest.raises(VertexOutOfRange):
        Graph(3, [(0, 5)])
    with pytest.raises(ValueError):
        Graph(3, [(1, 1)])
    with pytest.raises(InvalidGraph):
        cycle_graph(2)


def test_order_zero_graph_is_accepted():
    g = Graph(0)
    assert g.n == 0 and g.edges() == []
    assert twin_classes(g) == []


@settings(max_examples=150, deadline=None)
@given(graphs(10))
def test_handshake(g):
    assert sum(g.degree(v) for v in range(g.n)) == 2 * g.edge_count


@settings(max_examples=150, deadline=None)
@given(graphs(9))
def test_twin_classes_match_naive_partition(g):
    got = twin_classes(g)
    assert got == sorted(naive_twin_classes(g), key=lambda c: c[0])
    flat = sorted(v for cl in got for v in cl)
    assert flat == list(range(g.n))
    for cl in got:
        for x in cl:
            for y in cl:
                assert g.neighbors(x) == g.neighbors(y)


def test_twin_classes_on_star_mycielskian():
    mu, _ = build_mycielskian(star_graph(3), 1)
    classes = twin_classes(mu)
    assert [0, 1, 2] in classes  # the three leaves
    assert [4, 5, 6] in classes  # their level-1 copies


def test_isolated_vertices():
    g = disjoint_union(Graph(2), path_graph(3))
    assert isolated_vertices(g) == [0, 1]
    assert isolated_vertices(complete_graph(3)) == []


def test_classify_star():
    assert classify_star(Graph(1)) == Star(0, 0)
    assert classify_star(complete_graph(2)) == Star(1, 0)
    assert classify_star(star_graph(4)) == Star(4, 4)
    assert classify_star(path_graph(3)) == Star(2, 1)
    for g in [path_graph(4), cycle_graph(3), Graph(2),
              disjoint_union(star_graph(2), Graph(1))]:
        assert classify_star(g) is None


def test_classify_star_characterization(corpus_n7):
    # Star(m, c) iff exactly m+1 vertices, m edges, all incident to c; the
    # corpus holds every graph with n <= 7
    for _, g in corpus_n7:
        star = classify_star(g)
        expected = None
        if g.n >= 1 and g.edge_count == g.n - 1:
            for c in range(g.n):
                if g.degree(c) == g.n - 1 and all(
                        g.degree(v) <= 1 for v in range(g.n) if v != c):
                    expected = Star(g.n - 1, c)
                    break
        assert star == expected, (g.edges(), star, expected)
