"""Simple undirected graphs on vertex ids 0..n-1, with the few analyses
the pipeline reads: isolated vertices, open-twin classes, the twin
partition and quotient, and stars.

Graphs are immutable once built; all analyses return deterministically
ordered results so downstream reports are reproducible.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable

from .errors import InvalidGraph, VertexOutOfRange


class Graph:
    """Immutable simple graph: no loops, no multi-edges, ids dense from 0."""

    __slots__ = ("n", "_adj", "_m")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise InvalidGraph("order must be >= 0")
        adj: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise VertexOutOfRange(f"edge ({u},{v}) outside 0..{n - 1}")
            if u == v:
                raise InvalidGraph(f"loop at {u}")
            adj[u].add(v)
            adj[v].add(u)
        self.n = n
        # frozenset of a set, not of a list: a list of five or more
        # vertices gives a frozenset half as large again
        self._adj = tuple(map(frozenset, adj))
        self._m = sum(map(len, adj)) // 2

    def neighbors(self, v: int) -> frozenset[int]:
        self._check(v)
        return self._adj[v]

    def degree(self, v: int) -> int:
        self._check(v)
        return len(self._adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        self._check(u)
        self._check(v)
        return v in self._adj[u]

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, sorted."""
        return [(u, v) for u in range(self.n) for v in sorted(self._adj[u]) if u < v]

    @property
    def edge_count(self) -> int:
        return self._m

    @property
    def adjacency(self) -> tuple[frozenset[int], ...]:
        return self._adj

    def _check(self, v: int):
        if not (0 <= v < self.n):
            raise VertexOutOfRange(f"vertex {v} outside 0..{self.n - 1}")

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self._adj == other._adj

    def __hash__(self):
        return hash((self.n, self._adj))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self._m})"


def isolated_vertices(g: Graph) -> list[int]:
    """Degree-0 vertices, ascending."""
    return [v for v, nbhd in enumerate(g.adjacency) if not nbhd]


def twin_classes(g: Graph) -> list[list[int]]:
    """Partition into open-twin classes (N(x) = N(y)), ordered by least member.

    Mutually isolated vertices are twins (both neighborhoods empty).
    """
    by_nbhd: dict[frozenset[int], list[int]] = {}
    for v, nbhd in enumerate(g.adjacency):
        by_nbhd.setdefault(nbhd, []).append(v)
    # vertices join in ascending order, so each class is ascending and the
    # classes come in order of their least members
    return list(by_nbhd.values())


def twin_partition(g: Graph) -> tuple[tuple[int, ...], ...]:
    """g's twin classes: each vertex's closed-twin class (N[x] = N[y]) where
    it has a closed twin, and its open-twin class (twin_classes) otherwise,
    each ascending, ordered by least member.

    These classes partition V(g), since no vertex v has both an open twin
    x and a closed twin y. Closed twins are adjacent, so y lies in
    N(v) = N(x), and x then lies in N[y] = N[v]; as x != v, x would be
    adjacent to v, but open twins are non-adjacent (v is not in
    N(v) = N(x)). So every member of a closed class of size >= 2 has that
    class, and every member of an open class of size >= 2 has no closed
    twin and so has that open class. Aut(g) is the swaps inside these
    classes extended by the automorphisms of the twin quotient that keep
    each class's kind (README)."""
    closed: dict[frozenset[int], list[int]] = {}
    for v, nbhd in enumerate(g.adjacency):
        closed.setdefault(nbhd | {v}, []).append(v)
    parts = [cls for cls in closed.values() if len(cls) > 1]
    paired = {v for cls in parts for v in cls}
    # the open class of a vertex with a closed twin is that vertex alone
    parts += [cls for cls in twin_classes(g) if cls[0] not in paired]
    # disjoint ascending lists sort in order of their least members
    return tuple(map(tuple, sorted(parts)))


class TwinQuotient(namedtuple("TwinQuotient", "graph classes kinds")):
    """g's twin quotient: vertex j of graph stands for classes[j], and
    kinds[j] is that class's (size, closed, isolated)."""

    __slots__ = ()


def twin_quotient(g: Graph) -> TwinQuotient:
    """One vertex per class of twin_partition(g), in its order. Between two
    classes g has every edge or none, so two classes are adjacent in the
    quotient when their least members are adjacent in g. A class's kind is
    its size, whether it is a closed class of size >= 2, and whether it is
    the class of g's isolated vertices."""
    adj = g.adjacency
    classes = twin_partition(g)
    index = {v: j for j, cls in enumerate(classes) for v in cls}
    edges = [(i, j) for i, cls in enumerate(classes)
             for j in {index[u] for u in adj[cls[0]]} if i < j]
    # the members of a class of size >= 2 are adjacent exactly when it is closed
    kinds = tuple((len(cls), len(cls) > 1 and cls[1] in adj[cls[0]], not adj[cls[0]])
                  for cls in classes)
    return TwinQuotient(Graph(len(classes), edges), classes, kinds)


class Star(namedtuple("Star", "m center")):
    """K_{1,m} classification: m leaves around vertex `center`."""

    __slots__ = ()


def classify_star(g: Graph) -> Star | None:
    """Return Star(m, center) iff g is exactly K_{1,m}, else None.

    K_1 is Star(0, 0); K_2 is Star(1, c) with c the lower id. For n >= 3,
    a vertex c of degree n-1 meets all n-1 edges, so every other vertex
    is a leaf and c is the only such vertex.
    """
    n = g.n
    if n == 0 or g.edge_count != n - 1:
        return None
    if n <= 2:
        return Star(n - 1, 0)
    c = next((v for v, nbhd in enumerate(g.adjacency) if len(nbhd) == n - 1), None)
    return None if c is None else Star(n - 1, c)


# -- small constructors for the tests, the bench and examples -------------


def complete_graph(n: int) -> Graph:
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise InvalidGraph("cycle needs n >= 3")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def star_graph(m: int) -> Graph:
    """K_{1,m} with leaves 0..m-1 and center m."""
    return Graph(m + 1, [(i, m) for i in range(m)])
