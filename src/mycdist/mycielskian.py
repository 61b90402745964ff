"""Generalized Mycielskian construction mu_t(G).

Vertex ids are arithmetic: the level-s copy of source vertex i is s*n + i
for 0 <= s <= t (level 0 is the original), and the root w is (t+1)*n.
Level 0 induces a copy of G; each source edge ij contributes the cross
edges (s*n+i, (s+1)*n+j) and (s*n+j, (s+1)*n+i) for 0 <= s < t; w is
adjacent to exactly the level-t vertices.

This module is the only one that knows the scheme: the constructions
build their colorings as per-level rows through MycLayout.lift.
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

