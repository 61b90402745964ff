"""Naive reference implementations used as oracles in tests.

Everything here is written for obviousness, not speed, and on purpose
shares no code with the package internals it is checking. The three
exceptions read the package's own structures: reference_listing drives
its search, because what it checks is how the chain is assembled from
that search, chain_elements expands the chain it builds, and
chain_without_generators empties the generators it stores; the naive n!
listing in oracles.py checks the first two. validate_facts reads the
MycLayout it is given, since what it checks is that a built graph fits
that layout.
"""

import dataclasses
import os
import pathlib
from collections import Counter, deque

from hypothesis import strategies as st

import mycdist
from mycdist.automorphism import (AutListing, _search_pair, _unit_pair,
                                  enumerate_automorphisms)
from mycdist.errors import LayoutMismatch
from mycdist.graphs import Graph
from mycdist.mycielskian import MycLayout


def graphs(max_n):
    """Random graphs on 1..max_n vertices, from up to n^2 drawn edges."""
    def build(n):
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        edges = st.lists(pairs.filter(lambda e: e[0] != e[1]), max_size=n * n)
        return st.builds(Graph, st.just(n), edges)
    return st.integers(1, max_n).flatmap(build)


def twin_rich_graphs(max_n):
    """Random graphs on up to max_n vertices, each vertex of a random base
    graph blown up into an independent set of 1..3 open twins, the result
    relabelled at random."""
    def blow_up(base, sizes, order):
        copies, start = [], 0
        for size in sizes:
            copies.append(order[start:start + size])
            start += size
        edges = [(a, b) for u, v in base.edges()
                 for a in copies[u] for b in copies[v]]
        return Graph(len(order), edges)

    def build(base):
        sizes = st.lists(st.integers(1, 3), min_size=base.n, max_size=base.n)
        fitting = sizes.filter(lambda s: sum(s) <= max_n)
        return fitting.flatmap(lambda s: st.permutations(range(sum(s))).map(
            lambda order: blow_up(base, s, order)))
    return graphs(max(1, max_n // 2)).flatmap(build)


def source_tree_env():
    """Environment for a child `python -m mycdist` that runs the same
    source tree as the test process."""
    src = str(pathlib.Path(mycdist.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def naive_component_count(n, edge_set, removed=frozenset()):
    """Count connected components by BFS, optionally with a vertex removed."""
    alive = [v for v in range(n) if v not in removed]
    seen = set()
    count = 0
    for s in alive:
        if s in seen:
            continue
        count += 1
        queue = deque([s])
        seen.add(s)
        while queue:
            v = queue.popleft()
            for u in alive:
                if u not in seen and (min(v, u), max(v, u)) in edge_set:
                    seen.add(u)
                    queue.append(u)
    return count


def naive_cut_vertices(g):
    """v is a cut vertex iff deleting it increases the component count."""
    edge_set = {(u, v) for u, v in g.edges()}
    base = naive_component_count(g.n, edge_set)
    cuts = set()
    for v in range(g.n):
        if naive_component_count(g.n, edge_set, removed={v}) > base:
            cuts.add(v)
    return cuts


@dataclasses.dataclass(frozen=True)
class FactCheck:
    name: str
    ok: bool
    witness: str | None = None


@dataclasses.dataclass(frozen=True)
class FactReport:
    checks: tuple[FactCheck, ...]

    @property
    def all_ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> list[FactCheck]:
        return [c for c in self.checks if not c.ok]


def validate_facts(g: Graph, t: int, h: Graph, layout: MycLayout) -> FactReport:
    """Check the structural facts of mu_t(g) against a built graph h.

    Facts: order (t+1)n+1; deg(w) = n; deg of level-s copy of i is
    2*deg_g(i) for s < t and deg_g(i)+1 at level t; levels 1..t induce
    independent sets.
    """
    if layout.n != g.n or layout.t != t:
        raise LayoutMismatch(f"layout is for (n={layout.n}, t={layout.t}), not (n={g.n}, t={t})")
    if h.n != layout.order:
        raise LayoutMismatch(f"graph order {h.n} != layout order {layout.order}")
    n = g.n
    checks = []

    checks.append(FactCheck("order", h.n == (t + 1) * n + 1))

    wdeg = h.degree(layout.root)
    checks.append(FactCheck("root_degree", wdeg == n, None if wdeg == n else f"deg(w)={wdeg}, n={n}"))

    bad = None
    for s in range(t):
        for i in range(n):
            d = h.degree(layout.vertex_id(i, s))
            if d != 2 * g.degree(i):
                bad = f"deg(u_{i}^{s})={d}, expected {2 * g.degree(i)}"
                break
        if bad:
            break
    checks.append(FactCheck("inner_level_degrees", bad is None, bad))

    bad = None
    for i in range(n):
        d = h.degree(layout.vertex_id(i, t))
        if d != g.degree(i) + 1:
            bad = f"deg(u_{i}^{t})={d}, expected {g.degree(i) + 1}"
            break
    checks.append(FactCheck("top_level_degrees", bad is None, bad))

    bad = None
    for s in range(1, t + 1):
        ids = {layout.vertex_id(i, s) for i in range(n)}
        for v in ids:
            hit = h.neighbors(v) & ids
            if hit:
                bad = f"level {s} has edge {v}-{min(hit)}"
                break
        if bad:
            break
    checks.append(FactCheck("levels_independent", bad is None, bad))

    return FactReport(tuple(checks))


def naive_twin_classes(g):
    """Quadratic pairwise comparison of open neighborhoods."""
    classes = []
    for v in range(g.n):
        for rep, members in classes:
            if g.neighbors(v) == g.neighbors(rep):
                members.append(v)
                break
        else:
            classes.append((v, [v]))
    return [sorted(members) for _, members in classes]


def bfs_distances(g):
    """All-pairs distances; -1 where unreachable."""
    dist = [[-1] * g.n for _ in range(g.n)]
    for s in range(g.n):
        dist[s][s] = 0
        queue = deque([s])
        while queue:
            v = queue.popleft()
            for u in g.neighbors(v):
                if dist[s][u] == -1:
                    dist[s][u] = dist[s][v] + 1
                    queue.append(u)
    return dist


def assert_group_axioms(listing):
    """Closure, identity, inverses over a full listing of image vectors."""
    elems = set(listing)
    n = len(listing[0])
    ident = tuple(range(n))
    assert ident in elems
    for a in elems:
        inv = [0] * n
        for i, x in enumerate(a):
            inv[x] = i
        assert tuple(inv) in elems
    for a in elems:
        for b in elems:
            assert tuple(a[x] for x in b) in elems


# The refinement kernel as it was before the incremental rewrite: every
# round rebuilds both cell maps and a Counter signature for every vertex.
# The rewrite must return the same pair (or None) on every input.
def reference_refine_pair(adj_s, adj_t, P, Q):
    """Refine an aligned pair to a stable equitable pair; None on mismatch."""
    while True:
        cell_s = {}
        for ci, cell in enumerate(P):
            for v in cell:
                cell_s[v] = ci
        cell_t = {}
        for ci, cell in enumerate(Q):
            for v in cell:
                cell_t[v] = ci
        newP, newQ = [], []
        changed = False
        for ci in range(len(P)):
            groups_s: dict = {}
            for v in P[ci]:
                cnt = Counter()
                for u in adj_s[v]:
                    cnt[cell_s[u]] += 1
                groups_s.setdefault(tuple(sorted(cnt.items())), []).append(v)
            groups_t: dict = {}
            for v in Q[ci]:
                cnt = Counter()
                for u in adj_t[v]:
                    cnt[cell_t[u]] += 1
                groups_t.setdefault(tuple(sorted(cnt.items())), []).append(v)
            keys = sorted(groups_s)
            if keys != sorted(groups_t):
                return None
            for key in keys:
                a, b = groups_s[key], groups_t[key]
                if len(a) != len(b):
                    return None
                newP.append(sorted(a))
                newQ.append(sorted(b))
            if len(keys) > 1:
                changed = True
        P, Q = newP, newQ
        if not changed:
            return P, Q


def chain_elements(group) -> tuple[tuple[int, ...], ...]:
    """The image vector of every automorphism in an AutListing, sorted:
    one product per choice of a transversal element at each level of the
    chain, |Aut| tuples, so a caller checks order first."""
    elements = [tuple(range(group.n))]
    for _, images, _ in group.levels:
        elements = [tuple(t[x] for x in h) for t in images for h in elements]
    return tuple(sorted(elements))


def chain_without_generators(g: Graph):
    """g's stabilizer chain with no generators stored: the distinguishing
    search reads its lex-leader prune off them, so given this chain as
    group= it runs unpruned, with the same value and certificate."""
    group = enumerate_automorphisms(g)
    levels = tuple((b, images, ()) for b, images, _ in group.levels)
    return AutListing(group.n, levels, group.twins)


# The listing as it was before the stabilizer chain: every group element
# is its own leaf of the refinement search. The chain listing must return
# the same elements.
def reference_listing(g: Graph):
    """Every automorphism of g as an image vector, one search leaf each,
    in the order the search finds them."""
    if g.n == 0:
        yield ()
        return
    P, Q = _unit_pair(g.n)
    yield from _search_pair(g.adjacency, g.adjacency, P, Q)


# The generators and orbits of `aut` as they were before they were read
# off a stabilizer chain: scan the sorted listing, close the group after
# each generator, and read each orbit off the whole listing. `aut` must
# print the same lists.
def reference_aut_generators(listing: tuple[tuple[int, ...], ...]):
    """(generators, orbits) of the listing sorted by image vector, by
    group closure.

    Each closure is Dimino's: the group H known before a new generator is
    kept whole, and the larger group is the union of the cosets H r. A
    representative r times a generator is either in a known coset or
    starts a new one, so only the elements of new cosets are built.
    """
    n = len(listing[0])
    identity = tuple(range(n))
    gens: list[tuple[int, ...]] = []
    elements = [identity]
    known = {identity}
    for img in listing:
        if img in known:
            continue
        gens.append(img)
        old = list(elements)
        reps = [identity]
        for r in reps:  # grows while it is read
            for gen in gens:
                y = tuple(r[i] for i in gen)
                if y not in known:
                    coset = [tuple(h[i] for i in y) for h in old]
                    elements.extend(coset)
                    known.update(coset)
                    reps.append(y)
    orbits = []
    seen: set[int] = set()
    for v in range(n):
        if v in seen:
            continue
        orbit = sorted({img[v] for img in listing})
        seen.update(orbit)
        orbits.append(orbit)
    return gens, orbits
