"""Automorphism search for small graphs.

The engine is a backtracking search over aligned ordered-partition pairs
(P of the domain, Q of the codomain). Each node refines both partitions to
a stable equitable pair using (cell, neighbor-count-per-cell) signatures,
prunes on any signature mismatch, then individualizes: the lowest vertex
id in the smallest non-singleton cell of P is mapped, in turn, onto each
member of the aligned cell of Q in ascending order. Discrete leaves are
verified edge-by-edge before being reported. The DFS order is therefore
deterministic.

Each group is one stabilizer chain (Seress, Permutation Group
Algorithms, 2003) with base n-1, n-2, ..., 0: level b is the stable pair
with n-1..b+1 individualized, whose cell-fixing group is H_(b+1), the
automorphisms fixing b+1..n-1, and vertices whose cell is already a
singleton are skipped. Deepest level first, the orbit of b under H_(b+1)
is grown inside its cell: one targeted search per member that the
automorphisms found so far (all in H_(b+1)) do not already reach, each
found automorphism kept as a generator, and each orbit point given one
transversal element taking b to it. Every automorphism is then uniquely a
product of one transversal element per level, so the one chain serves
two readers, and no element of the group is listed: |Aut| is the product
of the orbit sizes; and the distinguishing search asks whether some
element of H_d that moves d-1 preserves a partial coloring, a walk down
the levels below d that multiplies transversal elements only while their
product keeps the colors (preserving_moves_last), and cuts lex-leader
prefixes with the generators kept at each level. orbit_of runs the same
orbit step on its vertex's cell. first_preserving, the one color-preserving
search over a whole graph, seeds the same search with color classes.

The chain is seeded with automorphisms known before any search: the swap
of each pair of consecutive members of an open-twin class (the chain keeps
the classes as twins, for the distinguishing search), and whatever
the caller passes as known (verify passes the lifts of Aut(G) to
mu_t(G)), each checked edge by edge as a leaf is. Starting Schreier-Sims
from known generators is standard practice (Seress, 2003), and nauty
reuses the automorphisms it has found the same way (McKay & Piperno,
2014). A seed whose largest moved point is m fixes m+1..n-1, so it lies
in H_(m+1) and moves m; it joins the generators just before level m's
orbit step, which first closes the orbit under the generators so far and
only then runs a targeted search for each cell member still unreached.
The seeds can only reach points of the true orbit, and every point they
miss still gets its own search, so every level's orbit, and with it the
order, is that of the unseeded chain; only the transversal elements
chosen, the stored generators and the number of searches change.

Refinement works in rounds. In each round every cell is split by the
signatures its vertices have against the partition the round started
with, and the fragments of a cell are laid out in the order of their
signatures; the pair is stable after a round with no split. The kernel
only re-splits dirty cells, as in the refinement of McKay & Piperno
(Practical Graph Isomorphism II, 2014) and Paige & Tarjan (1987): after
round 1, a cell is dirty when it has a neighbour in a fragment, other than
the largest, of a cell that split in the round before; every other cell
keeps its neighbour counts and can neither split nor mismatch. At a child
node of the search, round 1 starts from the cells next to the vertex
individualized in P, since the parent's pair was stable and matched.
When P and Q are the same partition of the same graph, one side is
refined and copied. The invariant: the kernel returns the same ordered
pair, or None, as refining every cell on every round, so search trees and
witnesses do not depend on the shortcut. Refinement spends no budget
steps.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence
from functools import cached_property

from .errors import SearchBudgetExceeded, SizeMismatch
from .graphs import Graph, twin_classes


class AutListing:
    """Aut(g) as a stabilizer chain with base n-1, n-2, ..., 0.

    levels holds, deepest level first, (b, images, gens) for each base
    point b whose cell is not a singleton once b+1..n-1 are individualized:
    images are one automorphism fixing b+1..n-1 per point of the orbit of
    b under those automorphisms, and gens the generators found at that
    level. Every automorphism is uniquely a product of one image per level,
    so order is read off the levels and preserving_moves_last walks them;
    the distinguishing search reads gens, and nothing builds the group.
    twins holds the open-twin classes of g (graphs.twin_classes), whose
    swaps seeded the chain and which the distinguishing search reads too.
    """

    def __init__(self, n: int, levels: tuple[tuple[int, tuple, tuple], ...],
                 twins: tuple[tuple[int, ...], ...]):
        self.n = n
        self.levels = levels
        self.twins = twins

    @property
    def order(self) -> int:
        return math.prod(len(images) for _, images, _ in self.levels)

    def __len__(self):
        """The order; len() itself fails past sys.maxsize, order does not."""
        return self.order

    @cached_property
    def _transversals(self) -> list[tuple[tuple[int, tuple[int, ...]], ...]]:
        """trans[b], for b = 0..n-1: a pair (t(b), t[:b]) per transversal
        element t of level b, or () where H_(b+1) fixes b."""
        trans: list = [()] * self.n
        for b, images, _ in self.levels:
            if len(images) > 1:
                trans[b] = tuple((t[b], t[:b]) for t in images)
        return trans

    def preserving_moves_last(self, colors: Sequence[int], d: int,
                              budget: Budget) -> bool:
        """True if some automorphism h fixing d..n-1 and moving d-1
        preserves colors[:d], for 1 <= d <= n.

        Such an h is uniquely a product t_(d-1) t_(d-2) ... t_0 of one
        transversal element per level below d, and h(b) is the product of
        the factors above level b applied to t_b(b). The walk builds the
        product from level d-1 down and keeps a factor only while the
        product maps its base point b to a vertex of the color of b; where
        H_(b+1) fixes b, it checks the image of b. At level d-1 it takes
        only the points u != d-1 of the color of d-1, so it needs no
        factor at all when there are none. A budget step is one
        transversal element multiplied into the product.
        """
        trans = self._transversals

        def walk(perm, b: int) -> bool:
            # perm: the product of the factors above level b, on 0..b
            while b >= 0:
                level = trans[b]
                c = colors[b]
                if level:
                    for w, t in level:
                        if colors[perm[w]] == c:
                            budget.spend()
                            if walk([perm[x] for x in t], b - 1):
                                return True
                    return False
                if colors[perm[b]] != c:
                    return False
                b -= 1
            return True

        b = d - 1
        c = colors[b]
        for u, t in trans[b]:
            if u != b and colors[u] == c:
                budget.spend()
                if walk(t, b - 1):
                    return True
        return False


class Budget:
    """Shared step counter; spend() raises once the limit is crossed."""

    __slots__ = ("limit", "used")

    def __init__(self, limit: int):
        self.limit = limit
        self.used = 0

    def spend(self, k: int = 1):
        self.used += k
        if self.used > self.limit:
            raise SearchBudgetExceeded(self.used)


def is_automorphism(g: Graph, img: Sequence[int]) -> bool:
    """Is the image vector img an automorphism of g?"""
    if len(img) != g.n:
        raise SizeMismatch(f"permutation length {len(img)} != graph order {g.n}")
    if sorted(img) != list(range(g.n)):
        return False
    return _maps_edges(g.adjacency, g.adjacency, img)


def _refine_pair(adj_s, adj_t, P, Q, split: int = -1):
    """Refine an aligned pair to a stable equitable pair; None on mismatch.

    Cells must be ascending. A cell is named by the position of its first
    vertex in the concatenation of the partition: names keep the order of
    the cells, and a split renames only the vertices that move. `split`
    names a cell the caller has just cut into a singleton and the rest of
    an otherwise stable matched pair; round 1 then re-splits only the cells
    next to that singleton of P.
    """
    n = len(adj_s)
    same = adj_s is adj_t and P == Q
    cell_s, at_s = _cell_names(P, n)
    cell_t, at_t = (cell_s, at_s) if same else _cell_names(Q, n)
    name_s, name_t = cell_s.__getitem__, cell_t.__getitem__
    # Dirty cells are found on the P side alone. The pair matched up to
    # here, so a cell that is clean on the P side but not on the Q side
    # has fewer edges into some fragment than its Q twin, and the edge
    # count forces a cell that is dirty on the P side to mismatch in the
    # same round.
    if split >= 0:
        dirty = set(map(name_s, adj_s[P[split][0]]))
    else:
        dirty = {s for s, cell in enumerate(at_s)
                 if cell is not None and (len(cell) > 1 or not same)}
    while True:
        cuts = []
        for s in dirty:
            cell = at_s[s]
            if same and len(cell) == 1:
                continue
            keys = [tuple(sorted(map(name_s, adj_s[v]))) for v in cell]
            first = keys[0]
            if same:
                if keys.count(first) < len(keys):
                    cuts.append((s, _fragments(cell, keys), None))
                continue
            keys_t = [tuple(sorted(map(name_t, adj_t[v]))) for v in at_t[s]]
            if keys.count(first) == len(keys) == keys_t.count(first):
                continue
            if sorted(keys) != sorted(keys_t):
                return None
            cuts.append((s, _fragments(cell, keys), _fragments(at_t[s], keys_t)))
        if not cuts:
            P = [cell for cell in at_s if cell is not None]
            return (P, list(P)) if same else (P, [cell for cell in at_t if cell is not None])
        # the next round's dirty cells go by the names after every cut
        for s, frags_s, frags_t in cuts:
            _place(frags_s, s, cell_s, at_s)
            if frags_t is not None:
                _place(frags_t, s, cell_t, at_t)
        dirty = set()
        for _, frags_s, _ in cuts:
            big = max(frags_s, key=len)
            for frag in frags_s:
                if frag is not big:
                    for v in frag:
                        dirty.update(map(name_s, adj_s[v]))


def _cell_names(P, n: int):
    """Per-vertex cell names and the cell starting at each position."""
    cell_of = [0] * n
    at: list = [None] * n
    start = 0
    for cell in P:
        at[start] = cell
        for v in cell:
            cell_of[v] = start
        start += len(cell)
    return cell_of, at


def _fragments(cell, keys) -> list[list[int]]:
    """The vertices of cell grouped by key, ascending within each group,
    groups in the order of their ((cell, count), ...) signatures."""
    groups: dict = {}
    for key, v in zip(keys, cell):
        if key in groups:
            groups[key].append(v)
        else:
            groups[key] = [v]
    return [groups[key] for key in sorted(groups, key=_run_lengths)]


def _place(frags, start: int, cell_of, at):
    """Lay the fragments of the cell at start out in its place."""
    for i, frag in enumerate(frags):
        at[start] = frag
        if i:
            for v in frag:
                cell_of[v] = start
        start += len(frag)


def _run_lengths(key: tuple[int, ...]) -> tuple[int, ...]:
    """(cell, count, cell, count, ...) of a sorted tuple of neighbour cell
    names. Names are >= 0, so these sort as the ((cell, count), ...) pairs."""
    out: list[int] = []
    prev = -1
    for c in key:
        if c == prev:
            out[-1] += 1
        else:
            out += (c, 1)
            prev = c
    return tuple(out)


def _target_cell(P) -> int:
    """Index of the first smallest non-singleton cell of P; -1 if discrete."""
    best = -1
    for ci, cell in enumerate(P):
        if len(cell) > 1 and (best == -1 or len(cell) < len(P[best])):
            best = ci
    return best


def _leaf_image(adj_s, adj_t, P, Q):
    img = [0] * len(adj_s)
    for ci in range(len(P)):
        img[P[ci][0]] = Q[ci][0]
    return tuple(img) if _maps_edges(adj_s, adj_t, img) else None


def _maps_edges(adj_s, adj_t, img) -> bool:
    """Does the bijection img map every neighbourhood of adj_s onto the
    neighbourhood of the image vertex in adj_t?"""
    for v in range(len(adj_s)):
        if {img[u] for u in adj_s[v]} != adj_t[img[v]]:
            return False
    return True


def _search_pair(adj_s, adj_t, P, Q,
                 split: int = -1) -> Iterator[tuple[int, ...]]:
    """Yield every bijection consistent with the aligned pair (P, Q).

    `split` is the refinement hint of _refine_pair: the cell the caller
    cut in a pair it had refined, or -1.
    """
    ref = _refine_pair(adj_s, adj_t, P, Q, split)
    if ref is None:
        return
    P, Q = ref
    best = _target_cell(P)
    if best == -1:
        img = _leaf_image(adj_s, adj_t, P, Q)
        if img is not None:
            yield img
        return
    v = P[best][0]
    rest_p = [x for x in P[best] if x != v]
    for u in Q[best]:
        newP = P[:best] + [[v], rest_p] + P[best + 1:]
        newQ = Q[:best] + [[u], [x for x in Q[best] if x != u]] + Q[best + 1:]
        yield from _search_pair(adj_s, adj_t, newP, newQ, best)


def _unit_pair(n: int):
    cell = list(range(n))
    return [list(cell)], [list(cell)]


def enumerate_automorphisms(g: Graph,
                            known: Iterable[Sequence[int]] = ()) -> AutListing:
    """Aut(g) as one stabilizer chain with base n-1, n-2, ..., 0.

    Level b is the stable pair with n-1..b+1 individualized, whose
    cell-fixing group is H_(b+1), the automorphisms fixing b+1..n-1.
    Deepest level first, the orbit step grows the orbit of b in its cell.
    No element is built: the order is read off the chain, and the
    color-preserving walk multiplies transversal elements as it goes.

    known takes automorphisms of g already found elsewhere, as image
    vectors; each is checked edge by edge and one that is not an
    automorphism raises ValueError. They and the swap of
    each pair of consecutive members of an open-twin class seed the
    chain's generators, which spares the orbit step a targeted search
    for every point they reach. The chain's order and orbits do not
    depend on the seeds. The twin classes are kept on the chain as twins.
    """
    n = g.n
    adj = g.adjacency
    twins = tuple(map(tuple, twin_classes(g)))
    seeds = _seeds(g, twins, known)
    if n == 0:
        return AutListing(0, (), twins)
    P, Q = _unit_pair(n)
    P, _ = _refine_pair(adj, adj, P, Q)
    cuts = []
    for b in range(n - 1, -1, -1):
        if len(P) == n:
            break
        ci = next(i for i, cell in enumerate(P) if b in cell)
        if len(P[ci]) > 1:
            cuts.append((b, P, ci))
            cut = P[:ci] + [[b], [x for x in P[ci] if x != b]] + P[ci + 1:]
            P, _ = _refine_pair(adj, adj, cut, cut, ci)
    gens: list[tuple[int, ...]] = []
    levels = []
    for b, P, ci in reversed(cuts):
        start = len(gens)
        gens.extend(seeds.get(b, ()))
        trans = _orbit(adj, P, ci, b, gens)
        levels.append((b, tuple(trans.values()), tuple(gens[start:])))
    return AutListing(n, tuple(levels), twins)


def _seeds(g: Graph, twins, known) -> dict[int, dict[tuple[int, ...], None]]:
    """The swaps of consecutive members of each class of twins, the
    open-twin classes of g, and the elements of known, each under the
    largest point m it moves, in insertion order and without repeats.

    A seed fixes m+1..n-1, so it lies in H_(m+1), moves m, and belongs
    with the generators of level m, which exists because H_(m+1) moves m.
    The identity moves nothing and is dropped.
    """
    n = g.n
    adj = g.adjacency
    by: dict[int, dict[tuple[int, ...], None]] = {}
    for cls in twins:
        for u, v in zip(cls, cls[1:]):
            img = list(range(n))
            img[u], img[v] = v, u
            by.setdefault(v, {})[tuple(img)] = None
    for p in known:
        img = tuple(p)
        if sorted(img) != list(range(n)) or not _maps_edges(adj, adj, img):
            raise ValueError(f"not an automorphism of the graph: {img}")
        moved = [v for v, w in enumerate(img) if v != w]
        if moved:
            by.setdefault(moved[-1], {})[img] = None
    return by


def first_preserving(adj, colors) -> tuple[int, ...] | None:
    """First nontrivial automorphism in DFS order that preserves every
    vertex's color, as an image vector; None if there is none.

    The color classes, in color order, seed the search's initial
    partition; no listing is built.
    """
    by: dict[int, list[int]] = {}
    for v, c in enumerate(colors):
        by.setdefault(c, []).append(v)
    cells = [by[c] for c in sorted(by)]
    for img in _search_pair(adj, adj, cells, cells):
        if any(i != x for i, x in enumerate(img)):
            return img
    return None


def search_color_preserving(g: Graph, coloring) -> tuple[int, ...] | None:
    """First nontrivial color-preserving automorphism in DFS order, as an
    image vector, or None.

    Accepts a Coloring or a plain sequence of 1-based colors.
    """
    colors = getattr(coloring, "assign", coloring)
    if len(colors) != g.n:
        raise SizeMismatch(f"coloring length {len(colors)} != graph order {g.n}")
    return first_preserving(g.adjacency, colors)


def _orbit(adj, P, ci: int, v: int,
           gens: list[tuple[int, ...]]) -> dict[int, tuple[int, ...]]:
    """Orbit of v in P[ci] under the automorphisms that fix every cell of
    the stable pair (P, P), each orbit point mapped to one such
    automorphism taking v to it.

    gens holds automorphisms of that group, found or known before. The
    orbit is first closed under them; then one targeted search runs per
    member of the cell that the automorphisms so far do not reach, and
    each one it finds is appended to gens. Every member is reached or
    searched, so the orbit is exact whatever gens held.
    """
    trans = {v: tuple(range(len(adj)))}
    _close(trans, gens)
    cut_p = P[:ci] + [[v], [x for x in P[ci] if x != v]] + P[ci + 1:]
    for u in P[ci]:
        if u in trans:
            continue
        cut_q = P[:ci] + [[u], [x for x in P[ci] if x != u]] + P[ci + 1:]
        img = next(_search_pair(adj, adj, cut_p, cut_q, ci), None)
        if img is not None:
            gens.append(img)
            _close(trans, gens)
    return trans


def _close(trans: dict[int, tuple[int, ...]], gens: list[tuple[int, ...]]):
    """Extend the orbit in trans to its closure under gens: a point y = g(x)
    reached from x is mapped to g composed with the element of x."""
    frontier = list(trans)
    while frontier:
        x = frontier.pop()
        for img in gens:
            y = img[x]
            if y not in trans:
                trans[y] = tuple(img[z] for z in trans[x])
                frontier.append(y)


def orbit_of(g: Graph, v: int) -> frozenset[int]:
    """Orbit of v under Aut(g), without listing the group.

    The orbit step of enumerate_automorphisms, run on v's cell of the
    stable equitable partition with no automorphisms known beforehand:
    at most one targeted search per member of that cell, on a graph of
    any order.
    """
    g._check(v)
    adj = g.adjacency
    P, Q = _unit_pair(g.n)
    P, _ = _refine_pair(adj, adj, P, Q)
    ci = next(i for i, cell in enumerate(P) if v in cell)
    return frozenset(_orbit(adj, P, ci, v, []))


def find_isomorphism(g: Graph, h: Graph) -> tuple[int, ...] | None:
    """Color-free isomorphism g -> h via the same refinement search, as
    the image vector of g's vertices in h."""
    if g.n != h.n or g.edge_count != h.edge_count:
        return None
    if g.n == 0:
        return ()
    P = [list(range(g.n))]
    Q = [list(range(h.n))]
    return next(_search_pair(g.adjacency, h.adjacency, P, Q), None)
