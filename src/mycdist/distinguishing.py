"""Distinguishing numbers of small graphs.

A coloring is distinguishing when no nontrivial automorphism preserves
all color classes. The exact search enumerates colorings in canonical
form (colors renumbered by first occurrence) and in lex order, so color
permutations are never revisited and the first distinguishing k-coloring
found is the lex-first one. Three prunes keep the tree small, all of them
sound:

* each class of open twins (equal open neighborhoods) takes strictly
  ascending colors in id order. For twins u < v the swap h = (u v) is an
  automorphism. If a canonical distinguishing coloring c had
  c(u) > c(v), c o h renumbered would distinguish too and agree with c
  before u; c(v) < c(u) <= max(c[:u]) + 1, so c(v) already occurs before
  u, the renumbering keeps it, and c o h reads c(v) < c(u) at u. So c is
  not the lex-first coloring, and the DFS starts each vertex's colors
  above those of the previous member of its class;
* if some nontrivial automorphism preserves the colors assigned so far
  while fixing every still-uncolored vertex, no extension can work. Such
  an automorphism lies in H_d, the group fixing every vertex from d on.
  At a node d that the search reaches, it must move d-1: were the largest
  point it moves some m < d-1, it would lie in H_(m+1) and preserve
  colors[:m+1], and the same check at node m+1 on this path would have
  cut. So the check asks only for an h in H_d with h(d-1) = u != d-1,
  where u has the color of d-1 and lies in the orbit of d-1 under H_d;
  where there is no such u it costs nothing more. Each such h is t_u k,
  with t_u the element of the group's one stabilizer chain (base n-1,
  ..., 0) that takes d-1 to u and k in H_(d-1), so the check walks the
  chain's levels d-2, ..., 0 and keeps a partial product only while it
  maps each base point to a vertex of that point's color
  (AutListing.preserving_moves_last);
* lex-leader rejection from a generating set (Crawford, Ginsberg, Luks
  & Roy, KR 1996): at a node d, with 2 <= d < n, each h among the
  chain's generators and their inverses compares colors[h(0)],
  colors[h(1)], ..., renumbered by first occurrence, with colors[0],
  colors[1], ..., and the prefix is cut when the first difference is
  smaller. The walk stops with no cut at the first p with h(p) >= d, as
  that vertex has no color yet. Every position it compared reads colors
  already fixed, so for any completion c of the prefix, c o h renumbered
  has those same first positions and is smaller than c. If c is
  distinguishing, c o h is one as well (its preserving group is
  conjugate to that of c), with as many colors, so c is not the first
  distinguishing k-coloring: only failed subtrees are cut, the returned
  certificate is the one the unpruned search returns, and h need not map
  {0..d-1} onto itself. A generating set is weaker than the whole group,
  but it is stored with the chain, so the prune runs on a group of any
  order. The comparisons are not charged to the budget, so a budget step
  stays one DFS node or one transversal element composed, and the pruned
  tree never costs more than the unpruned one.

distinguishing_number builds g's chain itself unless it is passed one as
group=, as verify does with the chain it has already read the root orbit
off, seeded with the automorphisms it knew. Seeds change which generators
the chain stores, so the lex-leader prune may cut other prefixes and the
budget count may move, but never the value or the certificate. The DFS
keeps the running maximum of the colors on its path per depth, which is
where each generator's renumbering starts.
"""

from __future__ import annotations

from collections import namedtuple

from .automorphism import (AutListing, Budget, enumerate_automorphisms,
                          first_preserving)
from .errors import MalformedColoring, SizeMismatch
from .graphs import Graph, twin_classes

DEFAULT_BUDGET = 10**8


class Coloring(namedtuple("Coloring", "k assign")):
    """Vertex coloring with palette 1..k; assign[v] is the color of v."""

    __slots__ = ()

    def __new__(cls, k: int, assign: tuple[int, ...]):
        if assign:
            if k < 1:
                raise MalformedColoring(f"k={k} but {len(assign)} vertices")
            bad = [c for c in assign if not (1 <= c <= k)]
            if bad:
                raise MalformedColoring(f"colors {bad} outside 1..{k}")
        elif k < 0:
            raise MalformedColoring("negative k")
        return super().__new__(cls, k, assign)

    @property
    def n(self) -> int:
        return len(self.assign)

    def canonical(self) -> "Coloring":
        """Renumber colors by first occurrence; k becomes the used count."""
        seen: dict[int, int] = {}
        out = []
        for c in self.assign:
            if c not in seen:
                seen[c] = len(seen) + 1
            out.append(seen[c])
        return Coloring(len(seen), tuple(out))


class DistResult(namedtuple("DistResult", "value certificate lower_bound_witness",
                            defaults=(None,))):
    """value, a Coloring certificate, and lower_bound_witness: the twin
    class size when it forced the value, else None."""

    __slots__ = ()


class ExceedsCap(namedtuple("ExceedsCap", "k_cap")):
    """Returned when the distinguishing number is proven to exceed k_cap."""

    __slots__ = ()


def twin_lower_bound(g: Graph) -> int:
    """Largest twin class size: twins must all receive distinct colors."""
    if g.n == 0:
        return 0
    return max(len(c) for c in twin_classes(g))


def is_distinguishing(g: Graph, c: Coloring) -> bool:
    if c.n != g.n:
        raise MalformedColoring(f"coloring length {c.n} != graph order {g.n}")
    return first_preserving(g.adjacency, c.assign) is None


def _generators(group) -> list[tuple[int, tuple[int, ...]]]:
    """(m, h) for each distinct h among the chain's generators and their
    inverses, m the first point h moves, in ascending order."""
    gens = {h for _, _, level_gens in group.levels for h in level_gens}
    # the inverse lists the points in the order of their images
    gens |= {tuple(sorted(range(group.n), key=h.__getitem__)) for h in gens}
    return sorted((next(v for v, w in enumerate(h) if v != w), h) for h in gens)


def _smaller_image(gens, colors, d: int, prefix_max) -> bool:
    """True if some (m, h) of gens maps the canonical prefix colors[:d] to
    one that, renumbered by first occurrence, is lexicographically smaller
    before the first position p with h(p) >= d. h fixes 0..m-1, so the
    renumbering starts as the identity on colors 1..prefix_max[m], where
    prefix_max[m] = max(colors[:m])."""
    for m, h in gens:
        if m >= d - 1:
            break  # h fixes 0..d-2 and maps d-1 above it
        base = nxt = prefix_max[m]
        renamed: dict[int, int] = {}
        for p in range(m, d):
            w = h[p]
            if w >= d:
                break
            x = colors[w]
            if x > base:
                y = renamed.get(x)
                if y is None:
                    nxt += 1
                    y = renamed[x] = nxt
                x = y
            c = colors[p]
            if x != c:
                if x < c:
                    return True
                break
    return False


def _search_k(n: int, k: int, prev, gens, moves_last, budget: Budget):
    """First canonical distinguishing coloring with exactly k colors, or None."""
    colors = [0] * n
    prefix_max = [0] * (n + 1)  # prefix_max[d] = max(colors[:d]) on this path

    def dfs(d: int, max_used: int):
        budget.spend(1)
        prefix_max[d] = max_used
        if d >= 2:
            if d < n and _smaller_image(gens, colors, d, prefix_max):
                return None
            if moves_last(colors, d, budget):
                return None
        if d == n:
            return tuple(colors)
        lo = colors[prev[d]] + 1 if prev[d] >= 0 else 1
        for c in range(lo, min(max_used + 1, k) + 1):
            if max(max_used, c) + (n - d - 1) < k:
                continue  # can no longer introduce k distinct colors
            colors[d] = c
            res = dfs(d + 1, max(max_used, c))
            colors[d] = 0
            if res is not None:
                return res
        return None

    return dfs(0, 0)


def distinguishing_number(g: Graph, k_cap: int | None = None, *,
                          budget: int | Budget | None = None,
                          group: AutListing | None = None) -> DistResult | ExceedsCap:
    """Exact distinguishing number with a certificate coloring.

    The search starts at the twin lower bound and increments k after
    exhausting each level, so the returned value is minimal. Raises
    SearchBudgetExceeded when the step budget runs out; returns
    ExceedsCap once the value is proven to exceed k_cap. One stabilizer
    chain of g serves the color-preserving check, the generators of the
    lex-leader prune, and the twin classes behind the twin order and the
    lower bound: group, when given, is that chain, built by
    enumerate_automorphisms(g) with or without known automorphisms,
    and otherwise it is built here.
    """
    n = g.n
    if n == 0:
        return DistResult(0, Coloring(0, ()))
    if isinstance(budget, Budget):
        bud = budget
    else:
        bud = Budget(DEFAULT_BUDGET if budget is None else budget)
    if group is None:
        group = enumerate_automorphisms(g)
    elif group.n != n:
        raise SizeMismatch(f"chain on {group.n} points != graph order {n}")
    prev = [-1] * n  # prev[v]: the member of v's twin class before v, or -1
    for cl in group.twins:
        for u, v in zip(cl, cl[1:]):
            prev[v] = u
    tb = max(len(cl) for cl in group.twins)
    gens = _generators(group)

    for k in range(max(tb, 1), n + 1):
        if k_cap is not None and k > k_cap:
            return ExceedsCap(k_cap)
        cert = _search_k(n, k, prev, gens, group.preserving_moves_last, bud)
        if cert is not None:
            witness = tb if (tb >= 2 and k == tb) else None
            return DistResult(k, Coloring(k, cert), witness)
    raise AssertionError("rainbow coloring is always distinguishing")
