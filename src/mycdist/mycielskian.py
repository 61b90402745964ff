"""Generalized Mycielskian construction mu_t(G).

Vertex ids are arithmetic: the level-s copy of source vertex i is s*n + i
for 0 <= s <= t (level 0 is the original), and the root w is (t+1)*n.
Level 0 induces a copy of G; each source edge ij contributes the cross
edges (s*n+i, (s+1)*n+j) and (s*n+j, (s+1)*n+i) for 0 <= s < t; w is
adjacent to exactly the level-t vertices.

This module is the only one that knows the scheme: the constructions
build their colorings as per-level rows through MycLayout.lift, and
root_fixed_by_degrees reads the first two rounds of colour refinement on
mu_t(G) off G's degrees, so that verify certifies a fixed root without
building mu_t(G), at any t.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import InvalidT, PreconditionViolated, SizeMismatch, VertexOutOfRange
from .graphs import Graph


class VertexRole(namedtuple("VertexRole", "kind index level")):
    """What a mu_t(G) vertex id stands for: kind is "original", "shadow"
    or "root"; index the source vertex id, None for the root; level 0 for
    originals, 1..t for shadows, None for the root."""

    __slots__ = ()


class MycLayout(namedtuple("MycLayout", "n t")):
    """Id scheme of one mu_t construction over a source of order n; mu_t
    is defined for t >= 1 only, so no layout exists for a smaller t."""

    __slots__ = ()

    def __new__(cls, n: int, t: int):
        if t < 1:
            raise InvalidT(f"t must be >= 1, got {t}")
        return super().__new__(cls, n, t)

    # namedtuple's _make (and _replace, which calls it) skips __new__
    _make = classmethod(lambda cls, iterable: cls(*iterable))

    @property
    def order(self) -> int:
        return (self.t + 1) * self.n + 1

    @property
    def root(self) -> int:
        return (self.t + 1) * self.n

    def vertex_id(self, i: int, s: int) -> int:
        if not (0 <= i < self.n and 0 <= s <= self.t):
            raise VertexOutOfRange(f"no vertex (i={i}, s={s}) in this layout")
        return s * self.n + i

    def role(self, v: int) -> VertexRole:
        if v == self.root:
            return VertexRole("root", None, None)
        if not (0 <= v < self.order):
            raise VertexOutOfRange(f"vertex {v} outside layout of order {self.order}")
        s, i = divmod(v, self.n)
        return VertexRole("original" if s == 0 else "shadow", i, s)

    def lift(self, rows: list[list], root) -> tuple:
        """One value per vertex in id order: rows[s][i] for the level-s
        copy of source vertex i, for s = 0..t, then root for the root."""
        if len(rows) != self.t + 1 or any(len(row) != self.n for row in rows):
            raise SizeMismatch(f"need {self.t + 1} rows of {self.n} values")
        return tuple(x for row in rows for x in row) + (root,)


def build_mycielskian(g: Graph, t: int) -> tuple[Graph, MycLayout]:
    """Construct (mu_t(g), layout). Requires g.n >= 1 and t >= 1."""
    if g.n == 0:
        raise PreconditionViolated("source graph must have at least one vertex")
    layout = MycLayout(g.n, t)
    n = g.n
    edges: list[tuple[int, int]] = []
    for i, j in g.edges():
        edges.append((i, j))
        for s in range(t):
            edges.append((s * n + i, (s + 1) * n + j))
            edges.append((s * n + j, (s + 1) * n + i))
    w = layout.root
    edges.extend((t * n + i, w) for i in range(n))
    return Graph(layout.order, edges), layout


def root_fixed_by_degrees(g: Graph, t: int) -> bool:
    """True when no vertex of mu_t(g) other than the root w has both w's
    degree, n, and w's sorted neighbour degrees: the first two rounds of
    colour refinement, read off g's degrees without building mu_t(g).
    Every automorphism keeps both, so True proves that each one fixes w.
    False on every star K_{1,m}, K_1 and K_2, whose w is not fixed, and on
    the few other g whose w only a deeper refinement sets apart.

    The level-s copy v^s of v has degree 2 d(v) for s < t and d(v) + 1 at
    s = t. Its neighbours are N(v)^0 u N(v)^1 at s = 0, N(v)^(s-1) u
    N(v)^(s+1) for 0 < s < t, and N(v)^(t-1) u {w} at s = t; w's are the n
    copies on level t. So levels 0..t-2 read one pair of rows, and only
    levels t-1 and t differ from it: O(n * max degree) at any t.
    """
    n = g.n
    adj = g.adjacency
    below = [2 * len(nbhd) for nbhd in adj]
    top = [len(nbhd) + 1 for nbhd in adj]
    root = sorted(top)
    # (the level's degrees, its neighbours' on the levels below and above)
    # for levels t-1 and t, and levels 0..t-2 where t > 1
    levels = [(below, below, top), (top, below, None)] + [(below, below, below)] * (t > 1)
    for row, left, right in levels:
        for v, nbhd in enumerate(adj):
            if row[v] == n:
                near = [left[u] for u in nbhd]
                near += [n] if right is None else [right[u] for u in nbhd]
                if sorted(near) == root:
                    return False
    return True
