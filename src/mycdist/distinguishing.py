"""Distinguishing numbers of small graphs.

A coloring is distinguishing when no nontrivial automorphism preserves
all color classes. The exact search enumerates colorings in canonical
form (colors renumbered by first occurrence) and in lex order, so color
permutations are never revisited and the first distinguishing k-coloring
found is the lex-first one. Three prunes keep the tree small, all of them
sound:

* each twin class (graphs.twin_partition: closed twins, N[u] = N[v], and
  the open twins, N(u) = N(v), of every other vertex) takes strictly
  ascending colors in id order. For twins u < v of either kind the swap
  h = (u v) is an automorphism. If a canonical distinguishing coloring c
  had c(u) > c(v), c o h renumbered would distinguish too and agree with c
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
  order. A generator found larger at a compared position stays so in
  the whole subtree, whose nodes only color positions from d on, so each
  node walks only the generators its parent left undecided. The
  comparisons are not charged to the budget, so a budget step stays one
  DFS node or one transversal element composed, and the pruned tree never
  costs more than the unpruned one.

The k loop starts at lower_bound, read off the chain: the largest twin
class, and 2 when the group is nontrivial. A level below it has no
distinguishing coloring, so skipping it changes no value or certificate.

distinguishing_number builds g's chain itself. The DFS keeps the
running maximum of the colors on its path per depth, which is where each
generator's renumbering starts. Its steps come out of the Budget the
caller passes, or out of a fresh one of DEFAULT_BUDGET steps.

quotient_dist answers dist(G), and at t >= 1 the least k for which some
k-coloring of mu_t(G) is kept by no nontrivial automorphism that fixes
the root w. Where every automorphism fixes w, that is dist(mu_t(G));
where the root orbit is {w, x}, dist(mu_t(G)) is the larger of it and 2
(README). It works on G's twin quotient Q (graphs.twin_quotient): one
vertex per twin class C of G (graphs.twin_partition), colored by its
kind (|C|, closed, isolated). README proves that Aut(G) is the group T of
permutations within the classes extended by the kind-preserving
automorphisms of Q, and that the automorphisms of mu_t(G) fixing w are
the lifts of Aut(G) times the permutations within the sets of open twins
of mu_t(G). So no nontrivial one of them keeps a coloring exactly when
it is injective on each set of twins and no nontrivial automorphism of Q
preserves the labels of its classes: the set of colors of C at t = 0;
the tuple of color sets of C's copies on levels 0..t for an open C,
comb(k, |C|)^(t+1) labels; and the set of the members' color tuples over
the t+1 levels for a closed C, whose members are open twins of nobody in
mu_t(G) but whose swap lifts to one that swaps their copies on every
level, so the tuples differ: comb(k^(t+1), |C|) labels. At t = 0 both
read comb(k, |C|). The isolates' class is alone in its kind, and asks
only k >= max(t, 1) * l for l isolates, which fills I^t and the t*l
isolated vertices of mu_t(G). That is a list-distinguishing question on
Q (Ferrara, Flesch & Gethner, EJC 18 (2011) P161), and the search walks
Q's chain, colored by kind: labels are numbered by first occurrence
within each kind, since only classes of one kind map onto each other,
each vertex-order prefix is cut as in _search_k, and the vertices above
the chain's last base point, which every automorphism fixes, take any
label, so a chain with no level needs no search at all.

This module checks no given coloring: the package's one check of a whole
coloring is automorphism.search_color_preserving.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .automorphism import AutListing, Budget, enumerate_automorphisms
from .errors import MalformedColoring
from .graphs import Graph, TwinQuotient, twin_classes

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

    # namedtuple's _make (and _replace, which calls it) skips __new__
    _make = classmethod(lambda cls, iterable: cls(*iterable))

    @property
    def n(self) -> int:
        return len(self.assign)


class DistResult(namedtuple("DistResult", "value certificate lower_bound_witness",
                            defaults=(None,))):
    """value, a Coloring certificate, and lower_bound_witness: the twin
    class size when it forced the value, else None."""

    __slots__ = ()


def twin_lower_bound(g: Graph) -> int:
    """Largest open-twin class size (graphs.twin_classes): open twins must
    all receive distinct colors."""
    return max(map(len, twin_classes(g)), default=0)


def lower_bound(group: AutListing) -> int:
    """A lower bound on dist(g) read off g's chain: the largest twin
    class, as twins take distinct colors, and 2 when Aut(g) is
    nontrivial."""
    tb = max(map(len, group.twins), default=0)
    return max(tb, 2) if group.order > 1 else tb


def _generators(group) -> list[tuple[int, tuple[int, ...]]]:
    """(m, h) for each distinct h among the chain's generators and their
    inverses, m the first point h moves, in ascending order."""
    gens = {h for _, _, level_gens in group.levels for h in level_gens}
    # the inverse lists the points in the order of their images
    gens |= {tuple(sorted(range(group.n), key=h.__getitem__)) for h in gens}
    return sorted((next(v for v, w in enumerate(h) if v != w), h) for h in gens)


def _smaller_image(gens, colors, d: int, prefix_max):
    """None if some (m, h) of gens maps the canonical prefix colors[:d] to
    one that, renumbered by first occurrence, is lexicographically smaller
    before the first position p with h(p) >= d; otherwise the generators
    still undecided, in order. h fixes 0..m-1, so the renumbering starts as
    the identity on colors 1..prefix_max[m], where
    prefix_max[m] = max(colors[:m]). A generator whose image is larger at
    a compared position is left out: every position it compared keeps its
    color in the subtree below, so it can cut nothing there."""
    live = []
    for gen in gens:
        m, h = gen
        base = nxt = prefix_max[m]
        renamed: dict[int, int] = {}
        for p in range(m, d):
            w = h[p]
            if w >= d:
                live.append(gen)
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
                    return None
                break
        else:
            live.append(gen)
    return live


def _search_k(n: int, k: int, prev, gens, moves_last, budget: Budget):
    """First canonical distinguishing coloring with exactly k colors, or None."""
    colors = [0] * n
    prefix_max = [0] * (n + 1)  # prefix_max[d] = max(colors[:d]) on this path

    def dfs(d: int, max_used: int, gens):
        budget.spend()
        prefix_max[d] = max_used
        if d >= 2:
            if d < n:
                gens = _smaller_image(gens, colors, d, prefix_max)
                if gens is None:
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
            res = dfs(d + 1, max(max_used, c), gens)
            if res is not None:
                return res
        return None

    return dfs(0, 0, gens)


def distinguishing_number(g: Graph, *, budget: Budget | None = None) -> DistResult:
    """Exact distinguishing number with a certificate coloring.

    The search starts at lower_bound(group) and increments k after
    exhausting each level, so the returned value is minimal. Raises
    SearchBudgetExceeded when the step budget runs out. One stabilizer
    chain of g, built here by enumerate_automorphisms(g), serves the
    color-preserving check, the generators of the lex-leader prune, and
    the twin classes behind the twin order and the lower bound.
    """
    n = g.n
    if n == 0:
        return DistResult(0, Coloring(0, ()))
    bud = Budget(DEFAULT_BUDGET) if budget is None else budget
    group = enumerate_automorphisms(g)
    prev = [-1] * n  # prev[v]: the member of v's twin class before v, or -1
    for cl in group.twins:
        for u, v in zip(cl, cl[1:]):
            prev[v] = u
    tb = max(map(len, group.twins))
    gens = _generators(group)

    for k in range(lower_bound(group), n + 1):
        cert = _search_k(n, k, prev, gens, group.preserving_moves_last, bud)
        if cert is not None:
            witness = tb if (tb >= 2 and k == tb) else None
            return DistResult(k, Coloring(k, cert), witness)
    raise AssertionError("rainbow coloring is always distinguishing")


def _labeling_k(kinds, caps, moves_last, budget: Budget) -> bool:
    """Is there a labeling of the quotient's vertices, vertex j with a label
    in 1..caps[kinds[j]], under which no nontrivial automorphism of the
    quotient's chain preserves the labels? Labels are numbered by first
    occurrence within each kind, and each vertex-order prefix is cut by
    the color-preserving walk, as in _search_k (module docstring)."""
    m = len(kinds)
    labels = [0] * m
    used = dict.fromkeys(caps, 0)  # labels used so far, per kind

    def dfs(d: int) -> bool:
        budget.spend()
        if d == m:
            return True
        kind = kinds[d]
        top = used[kind]
        for label in range(1, min(top + 1, caps[kind]) + 1):
            labels[d] = label
            if moves_last(labels, d + 1, budget):
                continue
            used[kind] = max(top, label)
            if dfs(d + 1):
                return True
        used[kind] = top
        return False

    return dfs(0)


def _label_cap(kind, k: int, t: int, most: int) -> int:
    """The labels a class of this kind can take with k colors at level t
    (module docstring), or most if that is fewer; the isolates' one class
    is alone in its kind. Labels are numbered by first occurrence within
    a kind, so a search never reads a cap above the kind's most vertices.
    No count above it is built: for x >= 2, x ** e > most once
    e >= most.bit_length(), so the exponent stops there."""
    s, closed, isolated = kind
    if isolated:
        return 1
    if closed:
        # comb(x, s) grows with x >= s, and comb(x, s) > most for x > most + s
        return min(math.comb(k ** min(t + 1, (most + s).bit_length()), s), most)
    return min(math.comb(k, s) ** min(t + 1, most.bit_length()), most)


def quotient_dist(quotient: TwinQuotient, t: int, group: AutListing,
                  budget: Budget) -> int:
    """dist(g) at t = 0, and at t >= 1 the least k for which some k-coloring
    of mu_t(g) is kept by no nontrivial automorphism fixing the root, which
    is dist(mu_t(g)) where every automorphism fixes it. Both are the least k
    for which some labeling of the twin quotient of g
    (graphs.twin_quotient), with _label_cap labels for a class of that
    kind, is preserved by no nontrivial automorphism in group, the
    chain of quotient.graph colored by quotient.kinds (module docstring). g
    has at least one vertex. k starts at max(t, 1) * l for the l isolates,
    and at 2 when Aut(g) is nontrivial, which then has a nontrivial lift to
    mu_t(g), or where every cap first reaches 1 if that is larger; a chain
    with no level stops there. A budget step is one node of the search or
    one transversal element of the walk; SearchBudgetExceeded when budget
    runs out.
    """
    kinds = quotient.kinds
    ell = sum(s for s, _, isolated in kinds if isolated)
    nontrivial = group.order > 1 or any(s > 1 for s, _, _ in kinds)
    k = max(max(t, 1) * ell, 2 if nontrivial else 1)
    # no labeling exists below the least k at which every cap is >= 1;
    # a cap never falls as k grows, so each kind can raise k in turn
    for kind in set(kinds):
        while not _label_cap(kind, k, t, 1):
            k += 1
    if not group.levels:
        budget.spend()  # the search's one node: nothing moves
        return k
    # every automorphism fixes each vertex above the chain's last base
    # point, so only the labels of the vertices up to it are searched
    moved = kinds[:group.levels[-1][0] + 1]
    counts = {kind: kinds.count(kind) for kind in set(kinds)}
    while True:
        caps = {kind: _label_cap(kind, k, t, most) for kind, most in counts.items()}
        if _labeling_k(moved, caps, group.preserving_moves_last, budget):
            return k
        k += 1
