"""Naive reference implementations used as oracles in tests.

Everything here is written for obviousness, not speed, and on purpose
shares no code with the package internals it is checking. The three
exceptions read the package's own structures: reference_listing drives
its search, because what it checks is how the chain is assembled from
that search, chain_elements expands the chain it builds, and
chain_without_generators empties the generators it stores, and
unpruned_distinguishing_number runs the search on that chain; the naive
n! listing in oracles.py checks the first two. validate_facts and
degree_rounds read MycLayout, since what they check is how mu_t(G) is
laid out. It also holds the small helpers that only the tests use:
disjoint_union, canonical, is_automorphism, is_isomorphism, distinguishes,
lifted_automorphism, lt_order, quotient_group_order,
mycielskian_group_order and mycielskian_twin_sets.
"""

import dataclasses
import math
import os
import pathlib
from collections import Counter, deque

import pytest
from hypothesis import strategies as st

import mycdist
from mycdist import distinguishing
from mycdist.automorphism import (AutListing, _search_pair,
                                  enumerate_automorphisms,
                                  search_color_preserving)
from mycdist.distinguishing import Coloring
from mycdist.errors import SizeMismatch
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


def disjoint_union(g, h):
    """g and h side by side, h's vertices shifted past g's."""
    edges = list(g.edges()) + [(u + g.n, v + g.n) for u, v in h.edges()]
    return Graph(g.n + h.n, edges)


def canonical(c: Coloring) -> Coloring:
    """c renumbered by first occurrence; k becomes the used count."""
    seen = {}
    out = []
    for x in c.assign:
        if x not in seen:
            seen[x] = len(seen) + 1
        out.append(seen[x])
    return Coloring(len(seen), tuple(out))


def is_automorphism(g, img):
    """Is the image vector img an automorphism of g?"""
    if len(img) != g.n:
        raise SizeMismatch(f"permutation length {len(img)} != graph order {g.n}")
    return is_isomorphism(g, g, img)


def is_isomorphism(g, h, img):
    """Is the image vector img an isomorphism from g onto h? A bijection
    that maps every edge of g to an edge of h, with as many edges on both
    sides, maps the edge set of g onto that of h."""
    if len(img) != g.n or sorted(img) != list(range(h.n)):
        return False
    edges = set(h.edges())
    return len(g.edges()) == len(edges) and all(
        (min(img[u], img[v]), max(img[u], img[v])) in edges for u, v in g.edges())


def _neighbourhoods(g):
    nbhd = [set() for _ in range(g.n)]
    for u, v in g.edges():
        nbhd[u].add(v)
        nbhd[v].add(u)
    return nbhd


def lt_order(g, t, aut_order):
    """|LT| for mu_t(G), aut_order = |Aut(G)|: with ell the isolated
    vertices of G and C its open-twin classes other than the isolates,
    |Aut(G)| (t ell)! prod_C (|C|!)^t (README's lemma)."""
    nbhd = _neighbourhoods(g)
    classes = Counter(frozenset(s) for s in nbhd if s)
    ell = sum(1 for s in nbhd if not s)
    return aut_order * math.factorial(t * ell) * math.prod(
        math.factorial(size) ** t for size in classes.values())


def quotient_group_order(g, quotient_order):
    """|Aut(G)| from quotient_order = |Aut(Q, kinds)| of G's twin quotient
    Q: quotient_order times |C|! for each twin class C of G. The closed
    classes of size >= 2 and the open classes are those classes, since
    the open class of a vertex with a closed twin is the vertex alone and
    adds the factor 1! (README: Aut(G)/T is Aut(Q, kinds))."""
    nbhd = _neighbourhoods(g)
    open_classes = Counter(frozenset(s) for s in nbhd)
    closed_classes = Counter(frozenset(s | {v}) for v, s in enumerate(nbhd))
    return quotient_order * math.prod(
        math.factorial(size)
        for size in (*open_classes.values(), *closed_classes.values()))


def mycielskian_group_order(g, t, aut_order):
    """|Aut(mu_t(G))| in closed form, for aut_order = |Aut(G)|: |LT|;
    twice that for a star K_{1,m} with m != 1 (K_1 is the star with
    m = 0), and 2(2t+3) for K_2, whose mu_t is the cycle C_(2t+3). That
    the root is fixed on every other G is a measured observation, not a
    theorem (README)."""
    nbhd = _neighbourhoods(g)
    m = len(g.edges())
    if g.n == 2 and m == 1:
        return 2 * (2 * t + 3)
    order = lt_order(g, t, aut_order)
    star = g.n == 1 or (m == g.n - 1 and any(len(s) == g.n - 1 for s in nbhd))
    return 2 * order if star else order


def lifted_automorphism(h, t):
    """The automorphism h of G, an image vector of length n, lifted to
    mu_t(G) in MycLayout's scheme (copy s of vertex i is s n + i, the
    root (t+1) n): h on every level, the root fixed."""
    n = len(h)
    return tuple(s * n + x for s in range(t + 1) for x in h) + ((t + 1) * n,)


def mycielskian_twin_sets(g, t):
    """The sets of T in README's lemma, as vertex ids of mu_t(G) in
    MycLayout's scheme (copy s of vertex i is s n + i): C^s for each
    open-twin class C of G other than the isolates I and each s = 0..t,
    then I^0 u ... u I^(t-1) and I^t when G has isolates. The members of
    each set are pairwise open twins of mu_t(G)."""
    n = g.n
    isolates = [v for v in range(n) if not g.neighbors(v)]
    sets = [[s * n + v for v in cls] for cls in naive_twin_classes(g)
            if g.neighbors(cls[0]) for s in range(t + 1)]
    if isolates:
        sets += [[s * n + v for s in range(t) for v in isolates],
                 [t * n + v for v in isolates]]
    return sets


def degree_rounds(g: Graph, t: int) -> tuple[tuple[int, ...], dict[int, tuple[int, ...]]]:
    """Rounds 1 and 2 of colour refinement on mu_t(g), read off g's
    degrees level by level without building mu_t(g): the degree of every
    vertex in id order, and the sorted degrees of the neighbours of each
    vertex whose degree is the root's, n. The oracle of
    mycielskian.root_fixed_by_degrees, which reads three levels only.

    The level-s copy v^s of v has degree 2 d(v) for s < t and d(v) + 1 at
    s = t. Its neighbours are N(v)^0 u N(v)^1 at s = 0, N(v)^(s-1) u
    N(v)^(s+1) for 0 < s < t, and N(v)^(t-1) u {w} at s = t; the root's
    are the n copies on level t.
    """
    layout = MycLayout(g.n, t)
    n = g.n
    adj = g.adjacency
    below = [2 * len(nbhd) for nbhd in adj]
    rows = [below] * t + [[len(nbhd) + 1 for nbhd in adj]]
    around = {layout.root: tuple(sorted(rows[t]))}
    for s, row in enumerate(rows):
        for v, d in enumerate(row):
            if d == n:
                near = [rows[max(s - 1, 0)][u] for u in adj[v]]
                near += [rows[s + 1][u] for u in adj[v]] if s < t else [n]
                around[s * n + v] = tuple(sorted(near))
    return layout.lift(rows, n), around


def distinguishes(g: Graph, c: Coloring) -> bool:
    """Does no nontrivial automorphism of g preserve c? Asked of the
    package's chain-free check; a length mismatch raises SizeMismatch."""
    return search_color_preserving(g, c.assign) is None


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
        raise SizeMismatch(f"layout is for (n={layout.n}, t={layout.t}), not (n={g.n}, t={t})")
    if h.n != layout.order:
        raise SizeMismatch(f"graph order {h.n} != layout order {layout.order}")
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
    search reads its lex-leader prune off them, so on this chain it runs
    unpruned, with the same value and certificate."""
    group = enumerate_automorphisms(g)
    levels = tuple((b, images, ()) for b, images, _ in group.levels)
    return AutListing(group.n, levels, group.twins)


def unpruned_distinguishing_number(g: Graph, budget=None):
    """distinguishing_number(g) with the lex-leader prune cut off: the
    search builds its chain through distinguishing.enumerate_automorphisms,
    which returns chain_without_generators(g) for the length of the call."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(distinguishing, "enumerate_automorphisms",
                      chain_without_generators)
        return distinguishing.distinguishing_number(g, budget=budget)


# The listing as it was before the stabilizer chain: every group element
# is its own leaf of the refinement search. The chain listing must return
# the same elements.
def reference_listing(g: Graph):
    """Every automorphism of g as an image vector, one search leaf each,
    in the order the search finds them."""
    if g.n == 0:
        yield ()
        return
    P = [list(range(g.n))]
    yield from _search_pair(g.adjacency, g.adjacency, P, P)


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
