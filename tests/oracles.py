"""Brute-force oracles for the automorphism engine and the dist search.

Test-only: they filter all n! permutations with numpy and share no code
with the refinement engine they check, so they stay out of the runtime
package and numpy stays out of its dependencies.
"""

import itertools

import numpy as np

from mycdist import Coloring, DistResult, Graph

NAIVE_MAX_VERTICES = 9


def enumerate_automorphisms_naive(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Oracle listing of image vectors, sorted: filter all n!
    permutations. Only for n <= 9."""
    if g.n > NAIVE_MAX_VERTICES:
        raise ValueError(f"n={g.n} exceeds naive cap {NAIVE_MAX_VERTICES}")
    n = g.n
    if n == 0:
        return ((),)
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.int8)
    a = np.zeros((n, n), dtype=bool)
    for u, v in g.edges():
        a[u, v] = a[v, u] = True
    mapped = a[perms[:, :, None], perms[:, None, :]]
    mask = (mapped == a).all(axis=(1, 2))
    # itertools.permutations yields lex order, so the listing is sorted
    return tuple(tuple(int(x) for x in p) for p in perms[mask])


def color_preserving_order_naive(g: Graph, colors) -> int:
    """Oracle count of the automorphisms of g that keep every vertex's
    color, colors[v] the color of v: the naive listing, filtered."""
    return sum(1 for img in enumerate_automorphisms_naive(g)
               if all(colors[img[v]] == colors[v] for v in range(g.n)))


def _canonical_colorings_exactly(n: int, k: int):
    """All canonical colorings of n vertices using exactly colors 1..k."""
    colors = [0] * n

    def rec(d: int, max_used: int):
        if d == n:
            if max_used == k:
                yield tuple(colors)
            return
        hi = min(max_used + 1, k)
        for c in range(1, hi + 1):
            if max(max_used, c) + (n - d - 1) < k:
                continue
            colors[d] = c
            yield from rec(d + 1, max(max_used, c))

    yield from rec(0, 0)


def distinguishing_number_bruteforce(g: Graph) -> DistResult:
    """Oracle: try every canonical coloring against the naive listing.

    Independent of the refinement engine; usable up to the naive
    enumeration cap (n <= 9).
    """
    n = g.n
    if n == 0:
        return DistResult(0, Coloring(0, ()))
    listing = enumerate_automorphisms_naive(g)
    nontrivial = listing[1:]  # sorted, so the identity comes first
    if not nontrivial:
        return DistResult(1, Coloring(1, (1,) * n))
    perms = np.array(nontrivial, dtype=np.int8)
    for k in range(1, n + 1):
        for assign in _canonical_colorings_exactly(n, k):
            c = np.array(assign, dtype=np.int16)
            if not (c[perms] == c).all(axis=1).any():
                return DistResult(k, Coloring(k, assign))
    raise AssertionError("rainbow coloring is always distinguishing")
