"""The incremental refinement kernel against the reference kernel.

Both must return the same ordered pair (or None) on every aligned input,
so that every search tree built on the kernel is unchanged.
"""

import copy

from hypothesis import given, settings
from hypothesis import strategies as st

from mycdist import Graph
from mycdist.automorphism import _refine_pair

from .support import reference_refine_pair


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
