"""Generalized Mycielskian construction mu_t(G).

Vertex ids are arithmetic: the level-s copy of source vertex i is s*n + i
for 0 <= s <= t (level 0 is the original), and the root w is (t+1)*n.
Level 0 induces a copy of G; each source edge ij contributes the cross
edges (s*n+i, (s+1)*n+j) and (s*n+j, (s+1)*n+i) for 0 <= s < t; w is
adjacent to exactly the level-t vertices.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import EmptySource, InvalidT, LayoutMismatch
from .graphs import Graph


class VertexRole(namedtuple("VertexRole", "kind index level")):
    """What a mu_t(G) vertex id stands for: kind is "original", "shadow"
    or "root"; index the source vertex id, None for the root; level 0 for
    originals, 1..t for shadows, None for the root."""

    __slots__ = ()


class MycLayout(namedtuple("MycLayout", "n t")):
    """Id scheme of one mu_t construction over a source of order n."""

    __slots__ = ()

    @property
    def order(self) -> int:
        return (self.t + 1) * self.n + 1

    @property
    def root(self) -> int:
        return (self.t + 1) * self.n

    def vertex_id(self, i: int, s: int) -> int:
        if not (0 <= i < self.n and 0 <= s <= self.t):
            raise LayoutMismatch(f"no vertex (i={i}, s={s}) in this layout")
        return s * self.n + i

    def role(self, v: int) -> VertexRole:
        if v == self.root:
            return VertexRole("root", None, None)
        if not (0 <= v < self.order):
            raise LayoutMismatch(f"vertex {v} outside layout of order {self.order}")
        s, i = divmod(v, self.n)
        return VertexRole("original" if s == 0 else "shadow", i, s)

    def roles(self) -> list[VertexRole]:
        return [self.role(v) for v in range(self.order)]


def build_mycielskian(g: Graph, t: int) -> tuple[Graph, MycLayout]:
    """Construct (mu_t(g), layout). Requires g.n >= 1 and t >= 1."""
    if g.n == 0:
        raise EmptySource("source graph must have at least one vertex")
    if t < 1:
        raise InvalidT(f"t must be >= 1, got {t}")
    n = g.n
    layout = MycLayout(n=n, t=t)
    edges: list[tuple[int, int]] = []
    for i, j in g.edges():
        edges.append((i, j))
        for s in range(t):
            edges.append((s * n + i, (s + 1) * n + j))
            edges.append((s * n + j, (s + 1) * n + i))
    w = layout.root
    edges.extend((t * n + i, w) for i in range(n))
    return Graph(layout.order, edges), layout

