"""The incremental refinement kernel against the reference kernel.

Both must return the same ordered pair (or None) on every aligned input,
so that every search tree built on the kernel is unchanged. The chain
build skips the kernel where a cut is already stable (a cell of twins);
the last tests check on the corpus that the kernel returns such a cut
unchanged.
"""

import copy

from hypothesis import given, settings
from hypothesis import strategies as st

from mycdist import Graph, build_mycielskian
from mycdist.automorphism import _refine_pair

from .support import graphs, reference_refine_pair, twin_rich_graphs


def _cells(order, sizes):
    cells, i = [], 0
    for size in sizes:
        cells.append(sorted(order[i:i + size]))
        i += size
    return cells


@st.composite
def aligned_pairs(draw):
    """(adj_s, adj_t, P, Q): a graph with n <= 10, a random ordered
    partition P with ascending cells, and a Q of the same cell sizes that
    is P itself, P relabelled with the graph, P relabelled on the same
    graph, or an unrelated partition."""
    n = draw(st.integers(1, 10))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    g = Graph(n, draw(st.lists(pairs.filter(lambda e: e[0] != e[1]), max_size=n * n)))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1)))) if n > 1 else []
    sizes = [b - a for a, b in zip([0] + cuts, cuts + [n])]
    P = _cells(draw(st.permutations(range(n))), sizes)
    perm = draw(st.permutations(range(n)))
    mode = draw(st.sampled_from(("same", "graph", "labels", "other")))
    if mode == "same":
        return g.adjacency, g.adjacency, P, P
    if mode == "graph":
        h = Graph(n, [(perm[u], perm[v]) for u, v in g.edges()])
        return g.adjacency, h.adjacency, P, [sorted(perm[v] for v in c) for c in P]
    if mode == "labels":
        return g.adjacency, g.adjacency, P, [sorted(perm[v] for v in c) for c in P]
    return g.adjacency, g.adjacency, P, _cells(perm, sizes)


def _both(adj_s, adj_t, P, Q, split=-1):
    """Run both kernels on copies; check they agree and leave P, Q alone."""
    before = copy.deepcopy((P, Q))
    want = reference_refine_pair(adj_s, adj_t, copy.deepcopy(P), copy.deepcopy(Q))
    got = _refine_pair(adj_s, adj_t, P, Q, split)
    assert got == want
    assert (P, Q) == before
    return got


@settings(max_examples=400, deadline=None)
@given(aligned_pairs())
def test_refine_matches_reference(case):
    _both(*case)


@settings(max_examples=400, deadline=None)
@given(aligned_pairs(), st.data())
def test_refine_hint_matches_reference(case, data):
    """A stable matched pair with one cell cut into a singleton and the
    rest, as the search makes it: the same result with and without the
    hint naming that cell."""
    adj_s, adj_t, P, Q = case
    stable = _both(adj_s, adj_t, P, Q)
    if stable is None:
        return
    P, Q = stable
    wide = [i for i, cell in enumerate(P) if len(cell) > 1]
    if not wide:
        return
    ci = data.draw(st.sampled_from(wide))
    v, u = P[ci][0], data.draw(st.sampled_from(Q[ci]))
    newP = P[:ci] + [[v], [x for x in P[ci] if x != v]] + P[ci + 1:]
    newQ = Q[:ci] + [[u], [x for x in Q[ci] if x != u]] + Q[ci + 1:]
    assert _both(adj_s, adj_t, newP, newQ) == _both(adj_s, adj_t, newP, newQ, ci)


def _twin_cells(adj, P):
    """Indices of the cells of P with two or more members that are all
    open twins of one another or all closed twins of one another."""
    return [ci for ci, cell in enumerate(P) if len(cell) > 1 and (
        len({adj[v] for v in cell}) == 1 or len({adj[v] | {v} for v in cell}) == 1)]


def _cut(P, ci, v):
    return P[:ci] + [[v], [x for x in P[ci] if x != v]] + P[ci + 1:]


def _assert_twin_cuts_are_stable(g) -> int:
    """Cutting a twin cell of a stable partition into one member and the
    rest leaves nothing to refine: every member of every twin cell of the
    stable unit partition, and the base point of every twin cell the
    chain's base-point walk (n-1 down to 0, each cut refined) meets.
    Returns the number of twin cells the walk met."""
    adj = g.adjacency
    P, _ = _refine_pair(adj, adj, [list(range(g.n))], [list(range(g.n))])
    for ci in _twin_cells(adj, P):
        for v in P[ci]:
            cut = _cut(P, ci, v)
            got = _refine_pair(adj, adj, cut, cut, ci)
            assert got[0] == cut and got[1] is got[0]
    met = 0
    for b in range(g.n - 1, -1, -1):
        ci = next(i for i, cell in enumerate(P) if b in cell)
        if len(P[ci]) == 1:
            continue
        twin = ci in _twin_cells(adj, P)
        cut = _cut(P, ci, b)
        P, _ = _refine_pair(adj, adj, cut, cut, ci)
        if twin:
            assert P == cut
            met += 1
    return met


def test_twin_cell_cuts_are_stable_on_the_corpus(corpus_n7):
    """Every graph with n <= 7, and mu_1 and mu_2 of every graph with n <= 5."""
    met = 0
    for _, g in corpus_n7:
        met += _assert_twin_cuts_are_stable(g)
        if g.n <= 5:
            for t in (1, 2):
                met += _assert_twin_cuts_are_stable(build_mycielskian(g, t)[0])
    assert met == 1899  # the walks meet this many twin cells


@settings(max_examples=200, deadline=None)
@given(st.one_of(twin_rich_graphs(8), graphs(7)))
def test_twin_cell_cuts_are_stable(g):
    _assert_twin_cuts_are_stable(g)
