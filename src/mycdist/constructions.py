"""Case analysis and constructive distinguishing colorings for mu_t(G).

The value of dist(mu_t(G)) in terms of dist(G) splits into cases:

* G = K_1: mu(K_1) = K_1 + K_2 has dist 2; for t > 1, dist(mu_t(K_1)) = t.
* G = K_2: mu_t(K_2) is the odd cycle C_{2t+3}, so dist is 3 at t = 1
  and 2 for t > 1.
* G has l isolated vertices with t*l > dist(G): the t*l isolated vertices
  of mu_t(G) are mutual twins, forcing dist(mu_t(G)) = t*l exactly.
* otherwise dist(mu_t(G)) <= dist(G).

predict_dist names the case and DistPrediction.holds says whether a
measured value meets it; paper_coloring names the coloring below that
proves it.

Each constructive coloring below realizes the upper bound of its case.
Each is built as one row of colors per level, row s giving the level-s
copy of every source vertex, plus a root color, and MycLayout.lift lays
them out in mu_t(G)'s vertex ids, so no graph needs to be built here.
The lift and isolate colorings are lifts of a coloring of G: every
shadow repeats its original's color and the isolated shadows take fresh
colors, so _lift_rows is the one place that builds such rows.
kn_base_coloring instead spreads base-k digits over the levels.
"""

from __future__ import annotations

from collections import namedtuple

from .distinguishing import Coloring
from .errors import PreconditionViolated, SizeMismatch
from .graphs import Graph, classify_star, isolated_vertices
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

    def holds(self, measured: int) -> bool:
        """Does the measured dist(mu_t(G)) meet the prediction?"""
        if self.kind == EXACT:
            return measured == self.value
        return measured <= self.value


def predict_dist(g: Graph, t: int, dist_g: int) -> DistPrediction:
    """Case analysis; dist_g must be the distinguishing number of g."""
    MycLayout(g.n, t)  # checks t >= 1
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


def paper_coloring(g: Graph, t: int, case_tag: str,
                   certificate: Coloring) -> Coloring | None:
    """The coloring of mu_t(g) by which the paper proves the case of
    predict_dist, from certificate, a distinguishing coloring of g with
    dist(g) colors; None on the K1_t1, K2_t1 and K2_tgt1 cases, which
    have none here.

    On a GENERIC row it is kn_base_coloring when g is complete and the
    lift of the certificate otherwise, with root color 2 when g is a star
    whose center the certificate colors 1, and 1 on every other g; on an
    ISOLATE_DOMINATED or K1_tgt1 row, isolate_case_coloring. Each bounds
    dist(mu_t(g)) from above by its k once it is checked distinguishing.
    """
    if case_tag == CASE_GENERIC:
        if g.edge_count == g.n * (g.n - 1) // 2:
            return kn_base_coloring(g.n, t)
        # a star's root shares its orbit with the center's top copy, so
        # the lift distinguishes once the root avoids the center's color
        star = classify_star(g)
        w_color = 2 if star is not None and certificate.assign[star.center] == 1 else 1
        return lift_coloring(g, t, certificate, w_color)
    if case_tag in (CASE_ISOLATE_DOMINATED, CASE_K1_TGT1):
        return isolate_case_coloring(g, t, certificate)
    return None


def kn_base_coloring(n: int, t: int) -> Coloring:
    """Optimal coloring of mu_t(K_n) for n >= 3: k least with k^(t+1) >= n.

    Vertex i (1-based) gets the base-k digits of i-1 spread over its
    levels, least significant digit at level 0; two vertices sharing all
    t+1 digits would admit a color-preserving swap, so all n digit
    vectors are distinct exactly when k^(t+1) >= n.
    """
    if n < 3:
        raise PreconditionViolated(f"base coloring needs n >= 3, got {n}")
    # before the loop, which never ends for t <= -1
    layout = MycLayout(n, t)
    k = 2
    while k ** (t + 1) < n:
        k += 1
    rows = [[(i // k**s) % k + 1 for i in range(n)] for s in range(t + 1)]
    return Coloring(k, layout.lift(rows, 1))


def _check_source_coloring(g: Graph, c: Coloring):
    if g.n == 0:
        raise PreconditionViolated("source graph must have at least one vertex")
    if c.n != g.n:
        raise SizeMismatch(f"coloring length {c.n} != source order {g.n}")


def isolate_case_coloring(g: Graph, t: int, dist_coloring_g: Coloring) -> Coloring:
    """t*l coloring of mu_t(g) when the isolated-vertex twins dominate.

    The lift, with palette t*l, of the given coloring with g's isolates
    renumbered 1..l in index order: the t*l isolated vertices of mu_t(g)
    (levels 0..t-1 of the l isolates of g) get the distinct colors 1..t*l
    in (level, index) order, and the level-t copy of each isolate repeats
    its level-0 color; non-isolates copy their given color to every
    level; the root avoids color 1.
    """
    layout = MycLayout(g.n, t)
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
    colors = list(dist_coloring_g.assign)
    for j, v in enumerate(iso):
        colors[v] = j + 1
    # the root takes any color except that of the first isolate chain
    return _lift_rows(colors, layout, t * ell, iso, 2)


def lift_coloring(g: Graph, t: int, dist_coloring_g: Coloring, w_color: int = 1) -> Coloring:
    """Lift a distinguishing k-coloring of g to mu_t(g), k unchanged.

    Valid whenever every automorphism of mu_t(g) fixes the root, which
    holds for any g other than K_1, K_2, and K_{1,m}: shadows repeat the
    color of their original, the isolated shadows (levels 1..t-1 of g's
    isolates) take distinct colors unused on the isolates themselves, and
    the root color is free. On K_{1,m}, m >= 2, the root's orbit is
    {w, c^t}, w the root and c^t the top copy of the center c, and the
    lift distinguishes exactly when w_color differs from c's color.
    """
    layout = MycLayout(g.n, t)
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
    return _lift_rows(dist_coloring_g.assign, layout, k, iso, w_color)


def _lift_rows(colors, layout: MycLayout, k: int, iso: list[int],
               root: int) -> Coloring:
    """The k-coloring of mu_t(g), laid out by layout, for the source
    colors of g's vertices, whose every level repeats colors, except on
    levels 1..t-1 of g's isolates iso: those are isolated in mu_t(g) too,
    so they take the colors of 1..k unused on iso, in (level, vertex)
    order. Callers ensure t*len(iso) <= k, so at least
    k - len(iso) >= (t-1)*len(iso) colors are fresh."""
    t = layout.t
    rows = [list(colors) for _ in range(t + 1)]
    taken = {colors[v] for v in iso}
    fresh = (c for c in range(1, k + 1) if c not in taken)
    for s in range(1, t):
        for v in iso:
            rows[s][v] = next(fresh)
    return Coloring(k, layout.lift(rows, root))
