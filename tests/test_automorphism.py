"""Automorphism engine against the brute-force listing and known groups."""

import contextlib
import hashlib
import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mycdist import (Graph, build_mycielskian, complete_graph, cycle_graph,
                     enumerate_automorphisms, find_isomorphism, orbit_of,
                     path_graph, search_color_preserving, star_graph)
from mycdist import automorphism
from mycdist.automorphism import Budget, _refine_pair, equitable_partition
from mycdist.constructions import kn_base_coloring, lift_coloring
from mycdist.distinguishing import distinguishing_number
from mycdist.errors import (PreconditionViolated, SearchBudgetExceeded,
                            SizeMismatch)
from mycdist.graphs import classify_star, twin_quotient

from .oracles import (color_preserving_order_naive,
                      enumerate_automorphisms_naive)
from .support import (assert_group_axioms, chain_elements, disjoint_union,
                      graphs, is_automorphism, is_isomorphism,
                      lifted_automorphism, lt_order, mycielskian_group_order,
                      mycielskian_twin_sets, naive_twin_classes,
                      quotient_group_order, reference_listing,
                      reference_refine_pair, twin_rich_graphs)


def petersen() -> Graph:
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, edges)


FIXTURES = [
    Graph(1),
    complete_graph(2),
    Graph(4),
    path_graph(4),
    complete_graph(4),
    cycle_graph(5),
    cycle_graph(6),
    star_graph(4),
    Graph(5, [(0, 2), (0, 3), (1, 2), (1, 3), (1, 4)]),
    disjoint_union(complete_graph(3), complete_graph(3)),
    build_mycielskian(complete_graph(3), 1)[0],
    Graph(8, [(0, 1), (0, 2), (0, 4), (1, 3), (1, 5), (2, 3), (2, 6),
              (3, 7), (4, 5), (4, 6), (5, 7), (6, 7)]),  # 3-cube
]

KNOWN_ORDERS = [
    (complete_graph(4), 24),
    (cycle_graph(5), 10),
    (cycle_graph(6), 12),
    (path_graph(4), 2),
    (star_graph(4), 24),
    (Graph(4), 24),
    (build_mycielskian(complete_graph(2), 1)[0], 10),  # C_5
    (petersen(), 120),
]


def test_is_automorphism():
    c4 = cycle_graph(4)
    assert is_automorphism(c4, (1, 2, 3, 0))
    assert is_automorphism(c4, (0, 3, 2, 1))
    assert not is_automorphism(c4, (1, 0, 2, 3))
    with pytest.raises(SizeMismatch):
        is_automorphism(c4, (0, 1, 2))


def test_known_group_orders():
    for g, order in KNOWN_ORDERS:
        assert enumerate_automorphisms(g).order == order, g.edges()


def test_fast_listing_matches_naive_on_fixtures():
    for g in FIXTURES:
        fast = enumerate_automorphisms(g)
        naive = enumerate_automorphisms_naive(g)
        assert chain_elements(fast) == naive, g.edges()


def test_listing_is_sorted_and_a_group():
    for g in FIXTURES:
        listing = chain_elements(enumerate_automorphisms(g))
        assert list(listing) == sorted(listing)
        assert_group_axioms(listing)


def test_automorphisms_preserve_local_structure():
    for g in (petersen(), star_graph(4),
              build_mycielskian(complete_graph(3), 1)[0]):
        for img in chain_elements(enumerate_automorphisms(g)):
            for v in range(g.n):
                assert g.degree(img[v]) == g.degree(v)
                assert (sorted(g.degree(u) for u in g.neighbors(img[v]))
                        == sorted(g.degree(u) for u in g.neighbors(v)))


def test_colored_chain_counts_the_color_preserving_automorphisms(corpus_n6):
    # fixed colorings of every graph with n <= 6: one color, and two and
    # three colors drawn with a fixed seed
    rng = random.Random(6)
    for line, g in corpus_n6:
        colorings = [[0] * g.n] + [[rng.randint(1, c) for _ in range(g.n)]
                                   for c in (2, 3)]
        for colors in colorings:
            group = enumerate_automorphisms(g, colors)
            assert group.order == color_preserving_order_naive(g, colors), (line, colors)
            assert all(colors[img[v]] == colors[v]
                       for img in chain_elements(group) for v in range(g.n))
            # the chain keeps, and was seeded with, same-color twins only
            assert all(len({colors[v] for v in cls}) == 1 for cls in group.twins)
        # one color is no color: the same chain as the uncolored call
        assert enumerate_automorphisms(g, [0] * g.n).levels == \
            enumerate_automorphisms(g).levels


def test_twin_quotient_chain_and_twin_swaps_give_the_group(corpus_n7):
    # |Aut(G)| = |Aut(Q, kinds)| prod |C|! over G's twin classes, the
    # quotient's vertices in order of their least members
    discrete = 0
    for line, g in corpus_n7:
        q = twin_quotient(g)
        group = enumerate_automorphisms(q.graph, q.kinds)
        assert quotient_group_order(g, group.order) == enumerate_automorphisms(g).order, line
        assert sorted(v for cls in q.classes for v in cls) == list(range(g.n))
        assert [cls[0] for cls in q.classes] == sorted(cls[0] for cls in q.classes)
        open_classes = {tuple(cls) for cls in naive_twin_classes(g)}
        for cls, (size, closed, isolated) in zip(q.classes, q.kinds):
            assert size == len(cls) and isolated == (not g.neighbors(cls[0]))
            assert closed == (size > 1 and g.has_edge(cls[0], cls[1]))
            assert closed or cls in open_classes
        discrete += not group.levels
    # the colored refinement of the quotient is already discrete on most
    assert discrete == 135 + 688


def test_discrete_colored_quotients_stop_at_the_refinement(corpus_n7, monkeypatch):
    # a discrete refinement proves the group trivial: the chain build
    # returns no level and singleton twin classes, and finds no twin class
    # and no seed; the refinement is read by the reference kernel
    calls = []
    for name in ("twin_partition", "_seeds"):
        def counted(*args, _name=name, _real=getattr(automorphism, name)):
            calls.append(_name)
            return _real(*args)
        monkeypatch.setattr(automorphism, name, counted)
    discrete = 0
    for line, g in corpus_n7:
        q = twin_quotient(g)
        m, adj = q.graph.n, q.graph.adjacency
        cells = [[j for j in range(m) if q.kinds[j] == kind] for kind in sorted(set(q.kinds))]
        if len(reference_refine_pair(adj, adj, cells, cells)[0]) < m:
            continue
        discrete += 1
        calls.clear()
        group = enumerate_automorphisms(q.graph, q.kinds)
        singles = tuple((j,) for j in range(m))
        assert (group.n, group.levels, group.twins) == (m, (), singles), line
        assert calls == [], line
    assert discrete == 135 + 688


@settings(max_examples=120, deadline=None)
@given(graphs(6))
def test_fast_listing_matches_naive(g):
    assert chain_elements(enumerate_automorphisms(g)) == enumerate_automorphisms_naive(g)


@settings(max_examples=80, deadline=None)
@given(graphs(6))
def test_orbits_match_listing(g):
    listing = chain_elements(enumerate_automorphisms(g))
    for v in range(g.n):
        expect = frozenset(img[v] for img in listing)
        assert orbit_of(g, v) == expect


def test_orbit_examples():
    assert orbit_of(cycle_graph(5), 0) == frozenset(range(5))
    assert orbit_of(path_graph(4), 0) == frozenset({0, 3})
    assert orbit_of(path_graph(4), 1) == frozenset({1, 2})
    mu, layout = build_mycielskian(star_graph(3), 1)
    assert orbit_of(mu, layout.root) == frozenset({7, 8})
    assert orbit_of(petersen(), 0) == frozenset(range(10))


def test_color_preserving_search():
    mu, _ = build_mycielskian(complete_graph(3), 1)
    distinguishing = [1, 2, 1, 1, 1, 2, 1]
    assert search_color_preserving(mu, distinguishing) is None

    weak = [1, 2, 1, 1, 1, 1, 1]
    p = search_color_preserving(mu, weak)
    assert p is not None and p != tuple(range(mu.n))
    assert is_automorphism(mu, p)
    assert all(weak[p[v]] == weak[v] for v in range(mu.n))

    monochrome = [1] * mu.n
    p = search_color_preserving(mu, monochrome)
    assert p is not None and is_automorphism(mu, p)


def test_color_preserving_respects_classes():
    # rainbow kills everything, even on a vertex-transitive graph
    g = cycle_graph(6)
    assert search_color_preserving(g, [1, 2, 3, 4, 5, 6]) is None
    with pytest.raises(SizeMismatch):
        search_color_preserving(g, [1, 2, 3])


def test_find_isomorphism():
    g = cycle_graph(5)
    h = Graph(5, [(0, 2), (2, 4), (4, 1), (1, 3), (3, 0)])
    p = find_isomorphism(g, h)
    assert p is not None
    for u, v in g.edges():
        assert h.has_edge(p[u], p[v])
    # same degree sequence, not isomorphic
    assert find_isomorphism(cycle_graph(6),
                            disjoint_union(cycle_graph(3), cycle_graph(3))) is None
    assert find_isomorphism(cycle_graph(5), cycle_graph(6)) is None
    assert find_isomorphism(Graph(0), Graph(0)) == ()


LEAF_CAP = 1000  # leaves walked per search; a large group has far more


def _leaves(g, h, P, Q):
    return list(itertools.islice(
        automorphism._search_pair(g.adjacency, h.adjacency, P, Q), LEAF_CAP))


def _same_size_graph(g, rng):
    """A random graph with the order and edge count of g."""
    pairs = list(itertools.combinations(range(g.n), 2))
    return Graph(g.n, rng.sample(pairs, g.edge_count))


def _assert_leaves_are_isomorphisms(g, h, isomorphic):
    leaves = _leaves(g, h, [list(range(g.n))], [list(range(h.n))])
    assert all(is_isomorphism(g, h, img) for img in leaves)
    assert len(set(leaves)) == len(leaves)
    if isomorphic:
        assert leaves


@settings(max_examples=60, deadline=None)
@given(st.one_of(graphs(9), twin_rich_graphs(10)), st.randoms(use_true_random=False),
       st.data())
def test_every_leaf_is_an_isomorphism(g, rng, data):
    """Every leaf of the search is yielded with no edge check, so each one
    must already be an isomorphism: against a relabelling of g, against a
    random graph of the same size, and of g onto itself under a coloring,
    where it must also keep the colors."""
    order = list(range(g.n))
    rng.shuffle(order)
    relabelled = Graph(g.n, [(order[u], order[v]) for u, v in g.edges()])
    _assert_leaves_are_isomorphisms(g, relabelled, True)
    _assert_leaves_are_isomorphisms(g, _same_size_graph(g, rng), False)
    colors = data.draw(st.lists(st.integers(1, 3), min_size=g.n, max_size=g.n))
    cells = [[v for v in range(g.n) if colors[v] == c] for c in sorted(set(colors))]
    leaves = _leaves(g, g, cells, cells)
    assert leaves[0] == tuple(range(g.n))
    for img in leaves:
        assert is_isomorphism(g, g, img)
        assert all(colors[img[v]] == colors[v] for v in range(g.n))


def _random_regular(n, d, rng):
    """A random simple d-regular graph on n vertices, by the pairing
    model with rejection."""
    while True:
        points = [v for v in range(n) for _ in range(d)]
        rng.shuffle(points)
        edges = {(min(u, v), max(u, v)) for u, v in zip(points[::2], points[1::2])}
        if len(edges) == n * d // 2 and all(u != v for u, v in edges):
            return Graph(n, edges)


def test_every_leaf_is_an_isomorphism_on_regular_pairs():
    """Regular graphs, where round 1 of refinement splits nothing: each
    against a relabelling of itself and against another regular graph of
    the same order and degree."""
    rng = random.Random(3)
    for d in (3, 4):
        for n in range(8, 17):
            if n * d % 2:
                continue
            for _ in range(8):
                g = _random_regular(n, d, rng)
                order = list(range(n))
                rng.shuffle(order)
                relabelled = Graph(n, [(order[u], order[v]) for u, v in g.edges()])
                _assert_leaves_are_isomorphisms(g, relabelled, True)
                _assert_leaves_are_isomorphisms(g, _random_regular(n, d, rng), False)


def test_caps():
    # no vertex or element cap: the order of any group is read off its
    # chain, and the step budget bounds the searches
    assert enumerate_automorphisms(Graph(25)).order == math.factorial(25)
    assert len(enumerate_automorphisms(Graph(10))) == math.factorial(10)
    assert orbit_of(Graph(25), 0) == frozenset(range(25))
    # the oracle keeps its own cap, with no runtime error type
    with pytest.raises(ValueError):
        enumerate_automorphisms_naive(Graph(10))


def test_budget_counter():
    b = Budget(5)
    for _ in range(5):
        b.spend()
    with pytest.raises(SearchBudgetExceeded) as exc:
        b.spend()
    assert exc.value.steps == 6


def test_order_zero_graph():
    listing = enumerate_automorphisms(Graph(0))
    assert listing.order == 1 and chain_elements(listing) == ((),)


def test_listing_matches_reference_on_corpora(corpus_n7):
    """The chain's elements against the search-per-element listing: the
    full groups of the n = 7 corpus (at most 7! elements), and mu_1
    (n <= 6) and mu_2 (n <= 5) up to a bound of 960 elements, which keeps
    the reference listing short. The reference must find more elements
    than the bound exactly where the chain's order is over it."""
    bound = 960
    cases = [(g, math.factorial(7)) for _, g in corpus_n7 if g.n == 7]
    assert len(cases) == 1044
    for _, g in corpus_n7:
        if g.n <= 6:
            cases.append((build_mycielskian(g, 1)[0], bound))
        if g.n <= 5:
            cases.append((build_mycielskian(g, 2)[0], bound))
    over = 0
    for g, cap in cases:
        want = sorted(itertools.islice(reference_listing(g), cap + 1))
        group = enumerate_automorphisms(g)
        if len(want) > cap:
            assert group.order > cap, g.edges()
            over += 1
        else:
            assert chain_elements(group) == tuple(want), g.edges()
    assert over == 14  # 8 mu_1 and 6 mu_2 groups exceed the bound


@settings(max_examples=120, deadline=None)
@given(graphs(7))
def test_listing_has_one_element_per_group_element(g):
    group = enumerate_automorphisms(g)
    elements = chain_elements(group)
    assert len(set(elements)) == group.order == len(group)
    assert elements == enumerate_automorphisms_naive(g)


@settings(max_examples=120, deadline=None)
@given(st.one_of(graphs(7), twin_rich_graphs(7)))
def test_seeded_chain_lists_the_group(g):
    """Twin swaps seed the generators; every unreached orbit point still
    gets its own search, so the chain lists exactly the group."""
    naive = enumerate_automorphisms_naive(g)
    group = enumerate_automorphisms(g)
    assert group.order == len(naive)
    assert chain_elements(group) == naive


def _basic_orbits(group):
    """Each base point with its orbit under the automorphisms fixing
    every point above it."""
    return [(b, sorted(img[b] for img in images)) for b, images, _ in group.levels]


def test_mycielskian_group_order_in_closed_form(corpus_n6):
    """The order of mu_t(G)'s chain against the closed form in support,
    for every G with n <= 6 at t = 1, 2, 3: the lifts of Aut(G) and the
    open-twin swaps generate Aut(mu_t(G)), up to the root swap of a star
    and the cycle of K_2."""
    for line, g in corpus_n6:
        aut_order = len(enumerate_automorphisms_naive(g))
        for t in (1, 2, 3):
            mu, _ = build_mycielskian(g, t)
            order = enumerate_automorphisms(mu).order
            assert order == mycielskian_group_order(g, t, aut_order), (line, t)


def _distances_from(g, v):
    dist = {v: 0}
    frontier = [v]
    while frontier:
        nxt = []
        for u in frontier:
            for x in g.neighbors(u):
                if x not in dist:
                    dist[x] = dist[u] + 1
                    nxt.append(x)
        frontier = nxt
    return dist


def test_root_stabilizer_is_lt(corpus_n6):
    """README's proof that the automorphisms of mu_t(G) fixing the root w
    are LT, checked on every G with n <= 6 at t = 1, 2, 3 (624 rows): step
    1's distances from w; |Aut(mu_t(G))| = |LT| |orbit of w|, with no case
    for stars or K_2; and w alone in its cell of the refined unit
    partition, so fixed, on every row but a star's."""
    rows = 0
    for line, g in corpus_n6:
        aut_order = len(enumerate_automorphisms_naive(g))
        for t in (1, 2, 3):
            mu, layout = build_mycielskian(g, t)
            w = layout.root
            dist = _distances_from(mu, w)
            for i in range(g.n):
                if g.neighbors(i):
                    for s in range(t + 1):
                        want = t + 1 - s if s else t + 1
                        assert dist[layout.vertex_id(i, s)] == want, (line, t, i, s)
            orbit = orbit_of(mu, w)
            assert enumerate_automorphisms(mu).order == lt_order(
                g, t, aut_order) * len(orbit), (line, t)
            fixed = [w] in equitable_partition(mu)
            assert fixed == (classify_star(g) is None), (line, t)
            rows += 1
    assert rows == 624


def test_lifts_normalize_the_open_twin_swaps(corpus_n6):
    """The "⊇" half of README's lemma, on every G with n <= 6 at t = 1, 2,
    3: each swap of consecutive members of a set of T is an automorphism
    of mu_t(G), so T <= Aut(mu_t(G)); and the lift of each generator of
    G's chain (support.lifted_automorphism) is an automorphism of mu_t(G)
    that maps every set of T onto a set of T, so the lifts normalize T."""
    swaps = 0
    for line, g in corpus_n6:
        gens = [h for _, _, found in enumerate_automorphisms(g).levels for h in found]
        for t in (1, 2, 3):
            mu, _ = build_mycielskian(g, t)
            sets = mycielskian_twin_sets(g, t)
            for members in sets:
                for a, b in zip(members, members[1:]):
                    swap = list(range(mu.n))
                    swap[a], swap[b] = b, a
                    assert is_automorphism(mu, swap), (line, t, a, b)
                    swaps += 1
            blocks = {frozenset(x) for x in sets}
            for h in gens:
                lift = lifted_automorphism(h, t)
                assert is_automorphism(mu, lift), (line, t, h)
                images = {frozenset(lift[v] for v in x) for x in sets}
                assert images == blocks, (line, t, h)
    assert swaps == 1743


@settings(max_examples=120, deadline=None)
@given(st.one_of(graphs(7), twin_rich_graphs(7)))
def test_chain_keeps_the_twin_classes(g):
    _assert_chain_keeps_the_twin_partition(g)


def test_chain_keeps_the_twin_partition_on_the_corpus(corpus_n7):
    for line, g in corpus_n7:
        _assert_chain_keeps_the_twin_partition(g)


def _naive_twin_partition(g):
    """Each vertex's closed-twin class where it has size >= 2, else its
    open-twin class, by comparing every pair of neighborhoods; each class
    once, in order of least member."""
    adj = g.adjacency
    parts = []
    for v in range(g.n):
        cls = tuple(u for u in range(g.n) if adj[u] | {u} == adj[v] | {v})
        if len(cls) < 2:
            cls = tuple(u for u in range(g.n) if adj[u] == adj[v])
        if cls not in parts:
            parts.append(cls)
    return tuple(parts)


def _assert_chain_keeps_the_twin_partition(g):
    naive = _naive_twin_partition(g)
    # every vertex lies in its own class, so n members in all means that
    # no two classes meet
    assert sum(map(len, naive)) == g.n
    twins = enumerate_automorphisms(g).twins
    assert twins == tuple(map(tuple, twin_quotient(g).classes)) == naive


def _complement(g):
    return Graph(g.n, [(u, v) for u in range(g.n) for v in range(u + 1, g.n)
                       if v not in g.adjacency[u]])


def _chain_matches_naive(g):
    """The chain's order, its basic orbits and its twin classes are those
    of the naive listing and of graphs.twin_partition."""
    naive = enumerate_automorphisms_naive(g)
    group = enumerate_automorphisms(g)
    assert group.order == len(naive)
    assert _basic_orbits(group) == [
        (b, sorted({h[b] for h in _stabilizer(naive, b + 1)}))
        for b, _, _ in group.levels]
    assert group.twins == _naive_twin_partition(g)
    return group


def _matching(n):
    return Graph(n, [(i, i + 1) for i in range(0, n, 2)])


@pytest.mark.parametrize("g", [complete_graph(n) for n in range(2, 8)]
                         + [_complement(_matching(n)) for n in (4, 6)]
                         + [_matching(n) for n in (4, 6)],
                         ids=["K2", "K3", "K4", "K5", "K6", "K7", "K4-M", "K6-M",
                              "2K2", "3K2"])
def test_closed_twin_swaps_seed_the_chain(g):
    # K_n is one closed-twin class and a perfect matching n/2 of them (K_n
    # minus one has open twins instead); the swaps of consecutive members
    # are stored as generators, and the chain still has the group's order
    # and orbits
    group = _chain_matches_naive(g)
    stored = {h for _, _, gens in group.levels for h in gens}
    closed: dict = {}
    for v in range(g.n):
        closed.setdefault(g.adjacency[v] | {v}, []).append(v)
    for cls in closed.values():
        for u, v in zip(cls, cls[1:]):
            swap = list(range(g.n))
            swap[u], swap[v] = v, u
            assert tuple(swap) in stored


@settings(max_examples=80, deadline=None)
@given(twin_rich_graphs(7))
def test_closed_twin_seeded_chain_matches_naive(g):
    # open twins of g are closed twins of its complement
    _chain_matches_naive(_complement(g))


def _stabilizer(naive, d: int):
    """H_d: the elements of the naive listing fixing every vertex from d on."""
    return [h for h in naive if all(h[v] == v for v in range(d, len(h)))]


@settings(max_examples=150, deadline=None)
@given(graphs(7), st.data())
def test_preserving_moves_last_matches_naive(g, data):
    """The chain walk says yes exactly when some automorphism fixing
    d..n-1 and moving d-1 preserves the colors below d, for every d."""
    colors = data.draw(st.lists(st.integers(1, 3), min_size=g.n, max_size=g.n))
    naive = enumerate_automorphisms_naive(g)
    group = enumerate_automorphisms(g)
    for d in range(1, g.n + 1):
        want = any(h[d - 1] != d - 1
                   and all(colors[h[v]] == colors[v] for v in range(d))
                   for h in _stabilizer(naive, d))
        assert group.preserving_moves_last(colors, d, Budget(10**6)) == want


def test_preserving_moves_last_examples():
    # path 0-1-2-3: the reversal is the one nontrivial element, and it
    # moves 3, so only d = 4 can say yes
    path = enumerate_automorphisms(path_graph(4))
    assert [path.preserving_moves_last((1, 2, 2, 1), d, Budget(10**6))
            for d in (1, 2, 3, 4)] == [False, False, False, True]
    assert not path.preserving_moves_last((1, 2, 1, 2), 4, Budget(10**6))
    # S_5 on the edgeless graph: a transposition (u d-1) preserves any
    # coloring where u < d-1 shares the color of d-1
    sym = enumerate_automorphisms(Graph(5))
    assert [sym.preserving_moves_last((1, 2, 3, 1, 4), d, Budget(10**6))
            for d in range(1, 6)] == [False, False, False, True, False]
    # one step per transversal element multiplied into the product
    budget = Budget(10**6)
    assert sym.preserving_moves_last((1, 1, 1, 1, 1), 5, budget)
    assert budget.used == 4
    with pytest.raises(SearchBudgetExceeded):
        sym.preserving_moves_last((1, 1, 1, 1, 1), 5, Budget(3))


def chain_distinguishes(group, colors) -> bool:
    """No nontrivial automorphism preserves colors, read off the chain: one
    whose largest moved point is m fixes m+1..n-1 and moves m, so it is
    what preserving_moves_last(colors, m + 1) looks for."""
    return not any(group.preserving_moves_last(colors, d, Budget(10**6))
                   for d in range(1, group.n + 1))


@settings(max_examples=150, deadline=None)
@given(st.one_of(graphs(7), twin_rich_graphs(7)), st.data())
def test_chain_is_distinguishing_matches_search(g, data):
    colors = data.draw(st.lists(st.integers(1, 3), min_size=g.n, max_size=g.n))
    group = enumerate_automorphisms(g)
    assert chain_distinguishes(group, colors) == (search_color_preserving(g, colors) is None)


def test_chain_is_distinguishing_matches_search_on_case_colorings(corpus_n6):
    # mu_1 and mu_2 of every graph with n <= 6, under the paper's
    # colorings: G's certificate lifted, and the K_n base coloring
    for _, g in corpus_n6:
        cert = distinguishing_number(g).certificate
        for t in (1, 2):
            mu, _ = build_mycielskian(g, t)
            group = enumerate_automorphisms(mu)
            colorings = []
            with contextlib.suppress(PreconditionViolated):
                colorings.append(lift_coloring(g, t, cert))
            if g.n >= 3:
                colorings.append(kn_base_coloring(g.n, t))
            for c in colorings:
                assert (chain_distinguishes(group, c.assign)
                        == (search_color_preserving(mu, c.assign) is None))


@settings(max_examples=150, deadline=None)
@given(graphs(7), st.data())
def test_first_preserving_needs_a_shared_color_and_orbit(g, data):
    """A nontrivial color-preserving automorphism maps some vertex to
    another of its color and orbit, so where no two vertices share both
    the search finds nothing."""
    colors = data.draw(st.lists(st.integers(1, 3), min_size=g.n, max_size=g.n))
    naive = enumerate_automorphisms_naive(g)
    identity = naive[0]  # the listing is sorted
    orb = [min(h[v] for h in naive) for v in range(g.n)]  # least orbit member
    img = search_color_preserving(g, colors)
    want = any(h != identity and all(colors[h[v]] == colors[v] for v in range(g.n))
               for h in naive)
    assert (img is not None) == want
    if len(set(zip(colors, orb))) == g.n:
        assert img is None
    if img is not None:
        assert img in naive
        assert all(orb[img[v]] == orb[v] and colors[img[v]] == colors[v]
                   for v in range(g.n))


# sha256 of repr(chain.levels) over the chains of every graph with n <= 7,
# then of mu_1 and mu_2 of every graph with n <= 5, in corpus order. Written
# by the engine before the chain build skipped refining cuts of twin cells
# and the search stopped checking the identity leaf, it shows that neither
# shortcut changes a chain.
CHAIN_SHA256 = "5fda0d49b5c63d0f10996d5253f0904c5878199ec136d46f26167e180c415c4d"


def test_chains_are_pinned(corpus_n7):
    plain = hashlib.sha256()
    for _, g in corpus_n7:
        plain.update(repr(enumerate_automorphisms(g).levels).encode())
    for _, g in corpus_n7:
        if g.n > 5:
            continue
        for t in (1, 2):
            mu, _ = build_mycielskian(g, t)
            plain.update(repr(enumerate_automorphisms(mu).levels).encode())
    assert plain.hexdigest() == CHAIN_SHA256


def test_discrete_coloring_needs_no_edge_check(corpus_n7):
    """No search checks a leaf edge by edge: a coloring whose refinement is
    discrete admits only the identity, and a pair leaf, the identity or
    not, is yielded as it stands."""
    rng = random.Random(0)
    discrete = 0
    for _, g in corpus_n7:
        colors = [rng.randint(1, 3) for _ in range(g.n)]
        cells = [[v for v in range(g.n) if colors[v] == c] for c in sorted(set(colors))]
        adj = g.adjacency
        if len(_refine_pair(adj, adj, cells, cells)[0]) < g.n:
            continue
        discrete += 1
        assert search_color_preserving(g, colors) is None
    assert discrete > 100
    p5 = path_graph(5)
    assert search_color_preserving(p5, [1] * 5) == (4, 3, 2, 1, 0)
    assert find_isomorphism(p5, Graph(5, [(4, 3), (3, 2), (2, 1), (1, 0)])) is not None
    assert orbit_of(p5, 0) == {0, 4}
    assert enumerate_automorphisms(petersen()).order == 120
