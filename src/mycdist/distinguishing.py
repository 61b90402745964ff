"""Distinguishing numbers of small graphs.

A coloring is distinguishing when no nontrivial automorphism preserves
all color classes. The exact search enumerates colorings in canonical
form (colors renumbered by first occurrence), so color permutations are
never revisited. Three prunes keep the tree small, all of them sound:

* twins (equal open neighborhoods) must receive distinct colors;
* if some nontrivial automorphism preserves the colors assigned so far
  while fixing every still-uncolored vertex, no extension can work;
* partial assignments equivalent to an already-explored sibling under an
  automorphism plus a color renaming are skipped. This prune consults the
  full listing, so it runs only when |Aut| <= ORBIT_LISTING_CAP, on a
  graph of any order; the group order is known before the listing is
  built, so a larger group costs no listing.
"""

from __future__ import annotations

from dataclasses import dataclass

from .automorphism import Budget, enumerate_automorphisms, first_preserving
from .errors import GroupTooLarge, MalformedColoring
from .graphs import Graph, twin_classes

DEFAULT_BUDGET = 10**8
# listings larger than this are not consulted for sibling-orbit pruning
ORBIT_LISTING_CAP = 960


@dataclass(frozen=True)
class Coloring:
    """Vertex coloring with palette 1..k; assign[v] is the color of v."""

    k: int
    assign: tuple[int, ...]

    def __post_init__(self):
        if self.assign:
            if self.k < 1:
                raise MalformedColoring(f"k={self.k} but {len(self.assign)} vertices")
            bad = [c for c in self.assign if not (1 <= c <= self.k)]
            if bad:
                raise MalformedColoring(f"colors {bad} outside 1..{self.k}")
        elif self.k < 0:
            raise MalformedColoring("negative k")

    @property
    def n(self) -> int:
        return len(self.assign)

    def used(self) -> int:
        return len(set(self.assign))

    def canonical(self) -> "Coloring":
        """Renumber colors by first occurrence; k becomes the used count."""
        seen: dict[int, int] = {}
        out = []
        for c in self.assign:
            if c not in seen:
                seen[c] = len(seen) + 1
            out.append(seen[c])
        return Coloring(len(seen), tuple(out))

    def classes(self) -> dict[int, list[int]]:
        by: dict[int, list[int]] = {}
        for v, c in enumerate(self.assign):
            by.setdefault(c, []).append(v)
        return by


@dataclass(frozen=True)
class DistResult:
    value: int
    certificate: Coloring
    lower_bound_witness: int | None = None  # twin class size, when it forced the value


@dataclass(frozen=True)
class ExceedsCap:
    """Returned when the distinguishing number is proven to exceed k_cap."""

    k_cap: int


def twin_lower_bound(g: Graph) -> int:
    """Largest twin class size: twins must all receive distinct colors."""
    if g.n == 0:
        return 0
    return max(len(c) for c in twin_classes(g))


def is_distinguishing(g: Graph, c: Coloring) -> bool:
    if c.n != g.n:
        raise MalformedColoring(f"coloring length {c.n} != graph order {g.n}")
    return first_preserving(g.adjacency, c.assign, g.n) is None


def _prefix_stabilizers(images: list[tuple[int, ...]], n: int) -> list[list[tuple[int, ...]]]:
    """stabs[d] = nontrivial listing elements mapping {0..d} onto itself."""
    stabs: list[list[tuple[int, ...]]] = [[] for _ in range(n)]
    ident = tuple(range(n))
    for img in images:
        if img == ident:
            continue
        hi = 0
        for d in range(n):
            hi = max(hi, img[d])
            if hi == d:
                stabs[d].append(img)
    return stabs


def _sibling_equivalent(stab, colors, d, c_old, c_new) -> bool:
    """True if the assignments differing only in colors[d] (c_old vs c_new)
    are related by a prefix automorphism plus a color bijection."""
    for img in stab:
        rho: dict[int, int] = {}
        used: set[int] = set()
        ok = True
        for v in range(d + 1):
            w = img[v]
            x = c_old if w == d else colors[w]
            y = c_new if v == d else colors[v]
            if x in rho:
                if rho[x] != y:
                    ok = False
                    break
            elif y in used:
                ok = False
                break
            else:
                rho[x] = y
                used.add(y)
        if ok:
            return True
    return False


def _search_k(g: Graph, k: int, twin_id, stabs, budget: Budget):
    """First canonical distinguishing coloring with exactly k colors, or None."""
    n = g.n
    adj = g.adjacency
    colors = [0] * n
    class_used: list[set[int]] = [set() for _ in range(max(twin_id) + 1)]

    def dfs(d: int, max_used: int):
        budget.spend(1)
        if d >= 2 and first_preserving(adj, colors, d, budget) is not None:
            return None
        if d == n:
            return tuple(colors)
        tried_old: list[int] = []
        stab = stabs[d] if stabs is not None else []
        cls = twin_id[d]
        for c in range(1, min(max_used + 1, k) + 1):
            if c in class_used[cls]:
                continue
            if max(max_used, c) + (n - d - 1) < k:
                continue  # can no longer introduce k distinct colors
            if c <= max_used and stab and any(
                    _sibling_equivalent(stab, colors, d, c_old, c) for c_old in tried_old):
                continue
            colors[d] = c
            class_used[cls].add(c)
            res = dfs(d + 1, max(max_used, c))
            colors[d] = 0
            class_used[cls].discard(c)
            if res is not None:
                return res
            if c <= max_used:
                tried_old.append(c)
        return None

    return dfs(0, 0)


def distinguishing_number(g: Graph, k_cap: int | None = None, *,
                          budget: int | Budget | None = None,
                          use_orbits: bool = True) -> DistResult | ExceedsCap:
    """Exact distinguishing number with a certificate coloring.

    The search starts at the twin lower bound and increments k after
    exhausting each level, so the returned value is minimal. Raises
    SearchBudgetExceeded when the step budget runs out; returns
    ExceedsCap once the value is proven to exceed k_cap.
    """
    n = g.n
    if n == 0:
        return DistResult(0, Coloring(0, ()))
    if isinstance(budget, Budget):
        bud = budget
    else:
        bud = Budget(DEFAULT_BUDGET if budget is None else budget)
    classes = twin_classes(g)
    twin_id = [0] * n
    for ci, cl in enumerate(classes):
        for v in cl:
            twin_id[v] = ci
    tb = max(len(cl) for cl in classes)

    stabs = None
    if use_orbits:
        try:
            listing = enumerate_automorphisms(g, max_elements=ORBIT_LISTING_CAP)
            stabs = _prefix_stabilizers([p.image for p in listing], n)
        except GroupTooLarge:
            stabs = None

    for k in range(max(tb, 1), n + 1):
        if k_cap is not None and k > k_cap:
            return ExceedsCap(k_cap)
        cert = _search_k(g, k, twin_id, stabs, bud)
        if cert is not None:
            witness = tb if (tb >= 2 and k == tb) else None
            return DistResult(k, Coloring(k, cert), witness)
    raise AssertionError("rainbow coloring is always distinguishing")
