"""Automorphism search for small graphs.

The engine is a backtracking search over aligned ordered-partition pairs
(P of the domain, Q of the codomain). Each node refines both partitions to
a stable equitable pair using (cell, neighbor-count-per-cell) signatures,
prunes on any signature mismatch, then individualizes: the lowest vertex
id in the smallest non-singleton cell of P is mapped, in turn, onto each
member of the aligned cell of Q in ascending order. The DFS order is
therefore deterministic. A discrete leaf is reported as it stands, with
no edge check: its pair is stable and matched, so each vertex v of P has
the same sorted tuple of neighbour-cell names as the vertex w in the
aligned cell of Q, and a cell's name is its position, so v's neighbours
sit in exactly the cells of w's. The map taking each singleton cell of P
to its aligned cell of Q therefore maps N(v) onto N(w) for every v: it
is an isomorphism, and the identity where P and Q are one partition of
one graph.

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
orbit step on its vertex's cell. search_color_preserving, the package's
one check of a whole coloring, builds no chain: it seeds the same search
with the color classes instead.

The chain is seeded with automorphisms known before any search: the swap
of each pair of consecutive members of a twin class
(graphs.twin_partition). The chain keeps the classes, for the
distinguishing search. Starting Schreier-Sims from known generators
is standard practice (Seress, 2003), and nauty reuses the automorphisms
it has found the same way (McKay & Piperno, 2014). A swap whose larger
point is m fixes m+1..n-1, so it lies in H_(m+1) and moves m; it joins
the generators just before level m's orbit step, which first closes the
orbit under the generators so far and only then runs a targeted search
for each cell member still unreached. The seeds can only reach points of
the true orbit, and every point they miss still gets its own search, so
every level's orbit, and with it the order, is that of the unseeded
chain; only the transversal elements chosen, the stored generators and
the number of searches change.

A chain of the automorphisms that keep a vertex coloring
(enumerate_automorphisms(g, colors)) starts from the refined color
classes instead of the unit partition, as search_color_preserving seeds
its search, and only the swaps of twins of one color seed it. Every
later step only splits cells, so each automorphism it finds keeps the
colors. verify builds such a chain for G's twin quotient, colored by
kind; on most small graphs that refinement is already discrete, and
the build stops there. Every chain build refines its cells first: a
discrete refinement proves the group trivial (McKay & Piperno, 2014),
and since twins of one color are swapped by an automorphism, no
refinement parts them, so every twin class is then a singleton. No twin
class, seed or cut is computed for such a graph.

Refinement works in rounds. In each round every cell is split by the
signatures its vertices have against the partition the round started
with, and the fragments of a cell are laid out in the order of their
signatures; the pair is stable after a round with no split. The kernel
only re-splits dirty cells, as in the refinement of McKay & Piperno
(Practical Graph Isomorphism II, 2014) and Paige & Tarjan (1987): after
round 1, a cell is dirty when it has a neighbour in a fragment, other than
the largest, of a cell that split in the round before; every other cell
keeps its neighbour counts and can neither split nor mismatch. Round 1 on
the single cell of a unit pair splits it by degree, ascending. At a child
node of the search, round 1 starts from the cells next to the vertex
individualized in P, since the parent's pair was stable and matched.
When P and Q are the same partition of the same graph, one side is
refined and returned as both. The invariant: the kernel returns the same
ordered pair, or None, as refining every cell on every round, so search
trees and witnesses do not depend on the shortcut. Refinement spends no
budget steps.

The chain's base-point walk does not refine a cut of a cell C whose
members all lie in one twin class, of a stable P: each vertex outside C
is adjacent to all of C or to none of it, and the members of C are
pairwise non-adjacent (open twins) or pairwise adjacent (closed twins),
so splitting C into [b] and C minus b is already equitable, and the
kernel would return the cut unchanged.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from functools import cached_property

from .errors import SearchBudgetExceeded, SizeMismatch
from .graphs import Graph, twin_partition


class AutListing:
    """Aut(g) as a stabilizer chain with base n-1, n-2, ..., 0.

    levels holds, deepest level first, (b, images, gens) for each base
    point b whose cell is not a singleton once b+1..n-1 are individualized:
    images are one automorphism fixing b+1..n-1 per point of the orbit of
    b under those automorphisms, and gens the generators found at that
    level. Every automorphism is uniquely a product of one image per level,
    so order is read off the levels and preserving_moves_last walks them;
    the distinguishing search reads gens, and nothing builds the group.
    twins holds the twin classes of g (graphs.twin_partition), split by
    color on a chain of a colored graph and ordered by least member:
    their swaps seeded the chain, and the distinguishing search reads
    them too.
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

    def spend(self):
        self.used += 1
        if self.used > self.limit:
            raise SearchBudgetExceeded(self.used)


def _refine_pair(adj_s, adj_t, P, Q, split: int = -1):
    """Refine an aligned pair to a stable equitable pair; None on mismatch.

    A same pair, one partition of one graph, comes back as one list
    twice, (P, P). Cells must be ascending. A cell is named by the
    position of its first vertex in the concatenation of the partition:
    names keep the order of the cells, and a split renames only the
    vertices that move. `split` names a cell the caller has just cut into
    a singleton and the rest of an otherwise stable matched pair; round 1
    then re-splits only the cells next to that singleton of P.
    """
    n = len(adj_s)
    same = adj_s is adj_t and P == Q
    unit = same and split < 0 and len(P) == 1
    if unit:
        # round 1 on a single cell: every key is (0,) * degree, so the
        # fragments are the degree classes in ascending order
        by_deg: dict[int, list[int]] = {}
        for v in P[0]:
            by_deg.setdefault(len(adj_s[v]), []).append(v)
        P = [by_deg[d] for d in sorted(by_deg)]
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
    elif unit:
        big = max(P, key=len)
        dirty = {cell_s[u] for frag in P if frag is not big
                 for v in frag for u in adj_s[v]}
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
            return (P, P) if same else (P, [cell for cell in at_t if cell is not None])
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


def _search_pair(adj_s, adj_t, P, Q,
                 split: int = -1) -> Iterator[tuple[int, ...]]:
    """Yield every isomorphism consistent with the aligned pair (P, Q),
    one per discrete leaf of the search.

    `split` is the refinement hint of _refine_pair: the cell the caller
    cut in a pair it had refined, or -1.
    """
    ref = _refine_pair(adj_s, adj_t, P, Q, split)
    if ref is None:
        return
    P, Q = ref
    best = _target_cell(P)
    if best == -1:
        # a discrete matched pair: v's neighbours sit in the cells of w's
        img = [0] * len(adj_s)
        for cell_p, cell_q in zip(P, Q):
            img[cell_p[0]] = cell_q[0]
        yield tuple(img)
        return
    v = P[best][0]
    newP = P[:best] + [[v], P[best][1:]] + P[best + 1:]
    for u in Q[best]:
        newQ = Q[:best] + [[u], [x for x in Q[best] if x != u]] + Q[best + 1:]
        yield from _search_pair(adj_s, adj_t, newP, newQ, best)


def enumerate_automorphisms(g: Graph,
                            colors: Sequence | None = None) -> AutListing:
    """Aut(g) as one stabilizer chain with base n-1, n-2, ..., 0.

    Level b is the stable pair with n-1..b+1 individualized, whose
    cell-fixing group is H_(b+1), the automorphisms fixing b+1..n-1.
    Deepest level first, the orbit step grows the orbit of b in its cell.
    No element is built: the order is read off the chain, and the
    color-preserving walk multiplies transversal elements as it goes.

    The swap of each pair of consecutive members of a twin class
    (graphs.twin_partition) seeds the chain's generators, which spares
    the orbit step a targeted search for every point it reaches. The
    chain's order and orbits do not depend on the seeds. The twin classes
    are kept on the chain.

    colors, when given, holds one sortable color per vertex, and the chain
    is then that of the automorphisms preserving every color: it starts
    from the refined color classes, as search_color_preserving seeds its
    search, and each twin class, kept and seeded, is split by color.

    The cells are refined first; if that refinement is discrete, the
    chain has no level and every twin class is a singleton.
    """
    n = g.n
    adj = g.adjacency
    cells = [list(range(n))] if colors is None else _color_cells(g, colors)
    P = _refine_pair(adj, adj, cells, cells)[0] if n else []
    if len(P) == n:
        singles = tuple((v,) for v in range(n))
        return AutListing(n, (), singles)
    twins = twin_partition(g)
    if colors is not None:
        twins = _split_by_color(twins, colors)
    # most classes are singletons, which have no swap
    swaps = [cls for cls in twins if len(cls) > 1]
    seeds = _seeds(n, swaps)
    # the class in swaps of each vertex in one
    twin_of = {v: cls for cls in swaps for v in cls}
    cuts = []
    for b in range(n - 1, -1, -1):
        if len(P) == n:
            break
        ci = next(i for i, cell in enumerate(P) if b in cell)
        cell = P[ci]
        if len(cell) > 1:
            cut = P[:ci] + [[b], [x for x in cell if x != b]] + P[ci + 1:]
            cuts.append((b, P, ci, cut))
            cls = twin_of.get(b)
            if cls is not None and all(twin_of.get(x) is cls for x in cell):
                P = cut  # a cell of twins: the cut is already stable
            else:
                P, _ = _refine_pair(adj, adj, cut, cut, ci)
    gens: list[tuple[int, ...]] = []
    levels = []
    for b, P, ci, cut in reversed(cuts):
        start = len(gens)
        gens.extend(seeds.get(b, ()))
        trans = _orbit(adj, P, ci, cut, gens)
        levels.append((b, tuple(trans.values()), tuple(gens[start:])))
    return AutListing(n, tuple(levels), twins)


def _split_by_color(classes, colors) -> tuple[tuple[int, ...], ...]:
    """Each class split into its members of one color, the parts ordered
    by least member."""
    parts: dict = {}
    for cls in classes:
        for v in cls:
            parts.setdefault((cls[0], colors[v]), []).append(v)
    return tuple(sorted(map(tuple, parts.values())))


def _color_cells(g: Graph, colors: Sequence) -> list[list[int]]:
    """The color classes of colors, one color per vertex of g, in color
    order, each ascending."""
    if len(colors) != g.n:
        raise SizeMismatch(f"coloring length {len(colors)} != graph order {g.n}")
    by: dict = {}
    for v, c in enumerate(colors):
        by.setdefault(c, []).append(v)
    return [by[c] for c in sorted(by)]


def _seeds(n: int, classes) -> dict[int, list[tuple[int, ...]]]:
    """The swaps of consecutive members of each class in classes (the
    graph's twin classes of size >= 2), each under its larger point m, in
    order.

    A swap fixes m+1..n-1, so it lies in H_(m+1), moves m, and belongs
    with the generators of level m, which exists because H_(m+1) moves m.
    No two classes share a vertex, so no swap repeats.
    """
    by: dict[int, list[tuple[int, ...]]] = {}
    for cls in classes:
        for u, v in zip(cls, cls[1:]):
            img = list(range(n))
            img[u], img[v] = v, u
            by.setdefault(v, []).append(tuple(img))
    return by


def search_color_preserving(g: Graph, colors: Sequence[int]) -> tuple[int, ...] | None:
    """First nontrivial automorphism in DFS order that preserves every
    vertex's color, as an image vector; None if there is none.

    colors[v] is the color of v. The color classes, in color order, seed
    the search's initial partition; no listing is built.
    """
    cells = _color_cells(g, colors)
    adj = g.adjacency
    found = _search_pair(adj, adj, cells, cells)
    # a same pair never mismatches and its first child is a same pair, so
    # the first leaf in DFS order is the discrete same pair: the identity
    next(found)
    return next(found, None)


def _orbit(adj, P, ci: int, cut_p,
           gens: list[tuple[int, ...]]) -> dict[int, tuple[int, ...]]:
    """Orbit of v in P[ci] under the automorphisms that fix every cell of
    the stable pair (P, P), each orbit point mapped to one such
    automorphism taking v to it, where cut_p is P with v cut out of P[ci]
    as the singleton cell ci: P[:ci] + [[v], P[ci] minus v] + P[ci + 1:].

    gens holds automorphisms of that group, found or known before. The
    orbit is first closed under them; then one targeted search runs per
    member of the cell that the automorphisms so far do not reach, and
    each one it finds is appended to gens. Every member is reached or
    searched, so the orbit is exact whatever gens held.
    """
    trans = {cut_p[ci][0]: tuple(range(len(adj)))}
    _close(trans, gens)
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
                trans[y] = tuple(map(img.__getitem__, trans[x]))
                frontier.append(y)


def equitable_partition(g: Graph) -> list[list[int]]:
    """The stable equitable refinement of g's unit partition, its cells in
    order and each ascending. Every automorphism of g maps each cell onto
    itself, so a vertex alone in its cell is fixed by all of them."""
    P = [list(range(g.n))]
    return _refine_pair(g.adjacency, g.adjacency, P, P)[0]


def orbit_of(g: Graph, v: int) -> frozenset[int]:
    """Orbit of v under Aut(g), without listing the group.

    The orbit step of enumerate_automorphisms, run on v's cell of the
    stable equitable partition with no automorphisms known beforehand:
    at most one targeted search per member of that cell, on a graph of
    any order.
    """
    g._check(v)
    adj = g.adjacency
    P = equitable_partition(g)
    ci = next(i for i, cell in enumerate(P) if v in cell)
    cut = P[:ci] + [[v], [x for x in P[ci] if x != v]] + P[ci + 1:]
    return frozenset(_orbit(adj, P, ci, cut, []))


def find_isomorphism(g: Graph, h: Graph) -> tuple[int, ...] | None:
    """Color-free isomorphism g -> h, the first discrete leaf of the same
    refinement search, as the image vector of g's vertices in h."""
    if g.n != h.n or g.edge_count != h.edge_count:
        return None
    if g.n == 0:
        return ()
    P = [list(range(g.n))]
    Q = [list(range(h.n))]
    return next(_search_pair(g.adjacency, h.adjacency, P, Q), None)
