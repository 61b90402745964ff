"""Simple undirected graphs on vertex ids 0..n-1, with the few analyses
the pipeline reads: isolated vertices, open-twin classes and stars.

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
        self._adj = tuple(frozenset(s) for s in adj)
        self._m = sum(len(s) for s in adj) // 2

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
    return [v for v in range(g.n) if g.degree(v) == 0]


def twin_classes(g: Graph) -> list[list[int]]:
    """Partition into open-twin classes (N(x) = N(y)), ordered by least member.

    Mutually isolated vertices are twins (both neighborhoods empty).
    """
    by_nbhd: dict[frozenset[int], list[int]] = {}
    for v in range(g.n):
        by_nbhd.setdefault(g.neighbors(v), []).append(v)
    classes = [sorted(c) for c in by_nbhd.values()]
    classes.sort(key=lambda c: c[0])
    return classes


class Star(namedtuple("Star", "m center")):
    """K_{1,m} classification: m leaves around vertex `center`."""

    __slots__ = ()


def classify_star(g: Graph) -> Star | None:
    """Return Star(m, center) iff g is exactly K_{1,m}, else None.

    K_1 is Star(0, 0); K_2 is Star(1, c) with c the lower id.
    """
    n = g.n
    if n == 0 or g.edge_count != n - 1:
        return None
    if n == 1:
        return Star(0, 0)
    if n == 2:
        return Star(1, 0)
    centers = [v for v in range(n) if g.degree(v) == n - 1]
    if len(centers) != 1:
        return None
    c = centers[0]
    if all(g.degree(v) == 1 for v in range(n) if v != c):
        return Star(n - 1, c)
    return None


# -- small constructors used throughout tests and the CLI ------------------


def empty_graph(n: int) -> Graph:
    return Graph(n)


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


def disjoint_union(g: Graph, h: Graph) -> Graph:
    edges = list(g.edges()) + [(u + g.n, v + g.n) for u, v in h.edges()]
    return Graph(g.n + h.n, edges)
