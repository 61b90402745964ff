"""Case analysis and constructive distinguishing colorings for mu_t(G).

The value of dist(mu_t(G)) in terms of dist(G) splits into cases:

* G = K_1: mu(K_1) = K_1 + K_2 has dist 2; for t > 1, dist(mu_t(K_1)) = t.
* G = K_2: mu_t(K_2) is the odd cycle C_{2t+3}, so dist is 3 at t = 1
  and 2 for t > 1.
* G has l isolated vertices with t*l > dist(G): the t*l isolated vertices
  of mu_t(G) are mutual twins, forcing dist(mu_t(G)) = t*l exactly.
* otherwise dist(mu_t(G)) <= dist(G).

Each constructive coloring below realizes the upper bound of its case.
Colorings are emitted against the arithmetic id scheme of MycLayout, so
no graph needs to be built here.
"""

from __future__ import annotations

from collections import namedtuple

from .distinguishing import Coloring
from .errors import (InvalidM, InvalidN, InvalidT, MalformedColoring,
                     PaletteExhausted, PreconditionViolated)
from .graphs import Graph, isolated_vertices
from .mycielskian import MycLayout

CASE_K1_T1 = "K1_t1"
CASE_K1_TGT1 = "K1_tgt1"
CASE_K2_T1 = "K2_t1"
CASE_K2_TGT1 = "K2_tgt1"
CASE_ISOLATE_DOMINATED = "ISOLATE_DOMINATED"
CASE_GENERIC = "GENERIC"

EXACT = "exact"
UPPER_BOUND = "upper_bound"


class DistPrediction(namedtuple("DistPrediction", "case_tag kind value")):
    """Predicted dist(mu_t(G)): kind is EXACT or UPPER_BOUND, value the
    exact value or the bound."""

    __slots__ = ()


def predict_dist(g: Graph, t: int, dist_g: int) -> DistPrediction:
    """Case analysis; dist_g must be the distinguishing number of g."""
    if t < 1:
        raise InvalidT(f"t must be >= 1, got {t}")
    if g.n == 0:
        raise PreconditionViolated("no prediction for the empty graph")
    if g.n == 1:
        if t == 1:
            return DistPrediction(CASE_K1_T1, EXACT, 2)
        return DistPrediction(CASE_K1_TGT1, EXACT, t)
    if g.n == 2 and g.edge_count == 1:
        if t == 1:
            return DistPrediction(CASE_K2_T1, EXACT, 3)
        return DistPrediction(CASE_K2_TGT1, EXACT, 2)
    ell = len(isolated_vertices(g))
    if t * ell > dist_g:
        return DistPrediction(CASE_ISOLATE_DOMINATED, EXACT, t * ell)
    return DistPrediction(CASE_GENERIC, UPPER_BOUND, dist_g)


def star_case_coloring(m: int, t: int) -> Coloring:
    """m-coloring of mu_t(K_{1,m}) for m >= 2 (leaves 0..m-1, center m).

    Copy i of leaf i carries color i+1 at every level; all copies of the
    center carry color 2; the root carries color 1.
    """
    if m < 2:
        raise InvalidM(f"star case needs m >= 2, got {m}")
    if t < 1:
        raise InvalidT(f"t must be >= 1, got {t}")
    n = m + 1
    layout = MycLayout(n, t)
    assign = [0] * layout.order
    for s in range(t + 1):
        for i in range(m):
            assign[s * n + i] = i + 1
        assign[s * n + m] = 2
    assign[layout.root] = 1
    return Coloring(m, tuple(assign))


def kn_base_coloring(n: int, t: int) -> tuple[int, Coloring]:
    """Optimal coloring of mu_t(K_n) for n >= 3: k least with k^(t+1) >= n.

    Vertex i (1-based) gets the base-k digits of i-1 spread over its
    levels, least significant digit at level 0; two vertices sharing all
    t+1 digits would admit a color-preserving swap, so all n digit
    vectors are distinct exactly when k^(t+1) >= n.
    """
    if n < 3:
        raise InvalidN(f"base coloring needs n >= 3, got {n}")
    if t < 1:
        raise InvalidT(f"t must be >= 1, got {t}")
    k = 2
    while k ** (t + 1) < n:
        k += 1
    layout = MycLayout(n, t)
    assign = [0] * layout.order
    for i in range(n):
        for s in range(t + 1):
            assign[s * n + i] = (i // k**s) % k + 1
    assign[layout.root] = 1
    return k, Coloring(k, tuple(assign))


def _check_source_coloring(g: Graph, c: Coloring):
    if c.n != g.n:
        raise MalformedColoring(f"coloring length {c.n} != source order {g.n}")


def isolate_case_coloring(g: Graph, t: int, dist_coloring_g: Coloring) -> Coloring:
    """t*l coloring of mu_t(g) when the isolated-vertex twins dominate.

    The t*l isolated vertices of mu_t(g) (levels 0..t-1 of the l isolates
    of g) get the distinct colors 1..t*l in (level, index) order; the
    level-t copy of each isolate repeats its level-0 color; non-isolates
    copy their given color to every level; the root avoids color 1.
    """
    if t < 1:
        raise InvalidT(f"t must be >= 1, got {t}")
    _check_source_coloring(g, dist_coloring_g)
    iso = isolated_vertices(g)
    ell = len(iso)
    if ell == 0:
        raise PreconditionViolated("source graph has no isolated vertices")
    if dist_coloring_g.k >= t * ell:
        # the case applies only when t*l strictly exceeds dist(g), and the
        # supplied coloring stands in for dist(g)
        raise PreconditionViolated(
            f"needs t*l > source colors, got t*l = {t * ell}, k = {dist_coloring_g.k}")
    n = g.n
    layout = MycLayout(n, t)
    assign = [0] * layout.order
    for s in range(t):
        for j, v in enumerate(iso):
            assign[s * n + v] = s * ell + j + 1
    for j, v in enumerate(iso):
        assign[t * n + v] = j + 1
    for v in range(n):
        if g.degree(v) > 0:
            for s in range(t + 1):
                assign[s * n + v] = dist_coloring_g.assign[v]
    assign[layout.root] = 2  # any color except that of the first isolate chain
    return Coloring(t * ell, tuple(assign))


def lift_coloring(g: Graph, t: int, dist_coloring_g: Coloring, w_color: int = 1) -> Coloring:
    """Lift a distinguishing k-coloring of g to mu_t(g), k unchanged.

    Valid whenever every automorphism of mu_t(g) fixes the root, which
    holds for any g other than K_1, K_2, and K_{1,m}: shadows repeat the
    color of their original, the isolated shadows (levels 1..t-1 of g's
    isolates) take distinct colors unused on the isolates themselves, and
    the root color is free.
    """
    if t < 1:
        raise InvalidT(f"t must be >= 1, got {t}")
    if g.n == 1 or (g.n == 2 and g.edge_count == 1):
        raise PreconditionViolated("lift does not apply to K_1 or K_2")
    _check_source_coloring(g, dist_coloring_g)
    k = dist_coloring_g.k
    iso = isolated_vertices(g)
    ell = len(iso)
    if t * ell > k:
        raise PreconditionViolated(f"t*l = {t * ell} exceeds palette k = {k}")
    if not (1 <= w_color <= k):
        raise PreconditionViolated(f"w_color {w_color} outside 1..{k}")
    n = g.n
    layout = MycLayout(n, t)
    assign = [0] * layout.order
    for v in range(n):
        for s in range(t + 1):
            assign[s * n + v] = dist_coloring_g.assign[v]
    # levels 1..t-1 of the isolates are isolated in mu_t(g): all of T
    # (that, plus the isolates themselves) must be rainbow
    taken = {dist_coloring_g.assign[v] for v in iso}
    fresh = (c for c in range(1, k + 1) if c not in taken)
    for s in range(1, t):
        for v in iso:
            c = next(fresh, None)
            if c is None:
                raise PaletteExhausted(f"no unused color left in 1..{k}")
            assign[s * n + v] = c
    assign[layout.root] = w_color
    return Coloring(k, tuple(assign))
