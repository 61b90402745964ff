"""Exact distinguishing search against the brute-force oracle."""

import itertools
import json
import pathlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mycdist import (Coloring, Graph, build_mycielskian, classify_star,
                     complete_graph, cycle_graph, distinguishing_number,
                     parse_graph6, path_graph, process_record, star_graph,
                     twin_lower_bound, write_graph6)
from mycdist import automorphism, distinguishing, verify
from mycdist.automorphism import Budget, enumerate_automorphisms, equitable_partition
from mycdist.distinguishing import (DEFAULT_BUDGET, _smaller_image, lower_bound,
                                    quotient_dist)
from mycdist.errors import MalformedColoring, SearchBudgetExceeded, SizeMismatch
from mycdist.graphs import twin_classes, twin_quotient
from mycdist.mycielskian import root_fixed_by_degrees

from .oracles import (_canonical_colorings_exactly,
                      distinguishing_number_bruteforce,
                      enumerate_automorphisms_naive)
from .support import (canonical, disjoint_union, distinguishes, graphs,
                      twin_rich_graphs, unpruned_distinguishing_number)

ROOT = pathlib.Path(__file__).resolve().parents[1]

# value pairs frozen from distinguishing_number_bruteforce runs
KNOWN = [
    (complete_graph(1), 1),
    (complete_graph(2), 2),
    (path_graph(3), 2),
    (path_graph(5), 2),
    (cycle_graph(3), 3),
    (cycle_graph(4), 3),
    (cycle_graph(5), 3),
    (cycle_graph(6), 2),
    (complete_graph(4), 4),
    (complete_graph(6), 6),
    (Graph(5), 5),
    (star_graph(4), 4),
    (disjoint_union(complete_graph(3), complete_graph(3)), 4),
    (build_mycielskian(complete_graph(2), 1)[0], 3),  # C_5 again
    (build_mycielskian(Graph(2), 2)[0], 4),
]


def test_coloring_validation():
    c = Coloring(2, (1, 2, 2, 1))
    assert c.n == 4 and len(set(c.assign)) == 2
    with pytest.raises(MalformedColoring):
        Coloring(2, (1, 3))
    with pytest.raises(MalformedColoring):
        Coloring(0, (1,))
    with pytest.raises(MalformedColoring):
        Coloring(-1, ())
    assert Coloring(0, ()).n == 0
    # namedtuple's own constructors run the same checks
    with pytest.raises(MalformedColoring):
        Coloring(2, (1, 2))._replace(k=0)
    with pytest.raises(MalformedColoring):
        Coloring._make((1, (5,)))
    assert Coloring(2, (1, 2))._replace(assign=(2, 1)) == Coloring(2, (2, 1))


def test_coloring_canonical():
    c = Coloring(5, (3, 3, 5, 1, 3))
    assert canonical(c) == Coloring(3, (1, 1, 2, 3, 1))
    assert canonical(canonical(c)) == canonical(c)


def test_known_values():
    for g, want in KNOWN:
        res = distinguishing_number(g)
        assert res.value == want, g.edges()
        assert distinguishes(g, res.certificate)
        assert len(set(res.certificate.assign)) == want
        assert res.certificate == canonical(res.certificate)


def test_known_values_match_oracle():
    for g, want in KNOWN:
        if g.n <= 9:
            assert distinguishing_number_bruteforce(g).value == want


def test_oracle_agreement_small_corpus(corpus_n6):
    for line, g in corpus_n6:
        if g.n > 5:
            continue
        res = distinguishing_number(g)
        brute = distinguishing_number_bruteforce(g)
        assert res.value == brute.value, line
        assert distinguishes(g, res.certificate), line
        assert distinguishes(g, brute.certificate), line


def test_value_one_means_rigid(corpus_n6):
    seen_rigid = 0
    for line, g in corpus_n6:
        if g.n != 6:
            continue
        rigid = len(enumerate_automorphisms_naive(g)) == 1
        if rigid:
            seen_rigid += 1
            assert distinguishing_number(g).value == 1, line
    assert seen_rigid > 0  # order 6 is the first with rigid graphs


def test_twin_lower_bound():
    assert twin_lower_bound(Graph(4)) == 4
    assert twin_lower_bound(star_graph(3)) == 3
    assert twin_lower_bound(cycle_graph(5)) == 1
    assert twin_lower_bound(Graph(0)) == 0
    mu, _ = build_mycielskian(Graph(2), 2)
    assert twin_lower_bound(mu) == 4


def test_twin_bound_reported_as_witness():
    res = distinguishing_number(Graph(5))
    assert res.value == 5 and res.lower_bound_witness == 5
    res = distinguishing_number(cycle_graph(5))
    assert res.lower_bound_witness is None


def test_is_distinguishing_examples():
    c5 = cycle_graph(5)
    assert distinguishes(c5, Coloring(3, (1, 1, 2, 2, 3)))
    assert not distinguishes(c5, Coloring(2, (1, 1, 2, 2, 2)))
    with pytest.raises(SizeMismatch):
        distinguishes(c5, Coloring(1, (1, 1)))


def test_budget_exhaustion():
    with pytest.raises(SearchBudgetExceeded):
        distinguishing_number(cycle_graph(6), budget=Budget(3))
    shared = Budget(10**6)
    distinguishing_number(cycle_graph(6), budget=shared)
    assert 0 < shared.used < 10**6


def test_zero_budget_is_zero():
    with pytest.raises(SearchBudgetExceeded):
        distinguishing_number(path_graph(3), budget=Budget(0))


# Budget.used of four searches on mu_t(G): one step per DFS node and one
# per transversal element the color-preserving walk composes. The counts
# moved by design: from 47096, 77461 and 62539 with the sibling prune, to
# 23514, 6231 and 3609 with the lex-leader prune and a refinement search
# for the color-preserving check, to 2604, 312 and 265 with the walk down
# the chain, to 206, 416 and 493 with the lex-leader prune read off the
# chain's generators instead of a listing capped at 960 elements. That
# prune no longer needs the listing, so it runs on the groups over the
# old cap: mu_3(K_{3,3}) (|Aut| = 3359232) went from 5582768 steps to
# 3326. The chain's generators now start with the twin swaps, which cut
# more prefixes of K_{3,3}'s Mycielskians: 206 -> 95 and 3326 -> 221.
# Each twin class now takes ascending colors instead of distinct ones,
# which leaves fewer children per node: 95 -> 75 and 221 -> 165.
# The k loop now starts at the chain's lower bound, 2 for a nontrivial
# group, so mu_2(K_5) and mu_1(K_6) no longer search the one-color level:
# 416 -> 402 and 493 -> 483.
@pytest.mark.parametrize("g6, t, steps", [("ElUg", 1, 75),
                                          ("D~{", 2, 402),
                                          ("E~~w", 1, 483),
                                          ("ElUg", 3, 165)])
def test_budget_steps_pinned(g6, t, steps):
    mu, _ = build_mycielskian(parse_graph6(g6), t)
    budget = Budget(10**8)
    distinguishing_number(mu, budget=budget)
    assert budget.used == steps


def test_one_stabilizer_chain_per_search(monkeypatch):
    # one _orbit call per chain level: a search that built its group twice
    # (once for the listing, once for the color-preserving walk) makes
    # twice as many
    mu, _ = build_mycielskian(parse_graph6("ElUg"), 1)
    levels = len(enumerate_automorphisms(mu).levels)
    calls = []
    orbit = automorphism._orbit

    def counted(*args):
        calls.append(args)
        return orbit(*args)

    monkeypatch.setattr(automorphism, "_orbit", counted)
    distinguishing_number(mu)
    assert len(calls) == levels > 0


def test_lex_leader_prune_runs_past_24_vertices():
    # mu_3 of an n = 6 graph has 25 vertices; with no vertex cap the
    # generators of its group (|Aut| = 720) drive the lex-leader prune,
    # which finds the same certificate in far fewer steps. Both counts
    # fell by design when the color-preserving check became a walk down
    # the chain (from 4830 and 53435); the pruned one rose from 151 when
    # the prune went from the whole listing to the generators, and fell
    # from 277 when the twin swaps joined the generators.
    mu, _ = build_mycielskian(parse_graph6("E~{?"), 3)
    assert mu.n == 25
    pruned, plain = Budget(10**8), Budget(10**8)
    res = distinguishing_number(mu, budget=pruned)
    assert res == unpruned_distinguishing_number(mu, budget=plain)
    assert pruned.used == 183
    assert plain.used == 1434


def test_search_makes_no_refinement_search_for_preserving_automorphisms(monkeypatch):
    # the DFS answers its color-preserving check from the chain it holds;
    # search_color_preserving stays for check-coloring and coloring
    mu, _ = build_mycielskian(parse_graph6("ElUg"), 1)
    calls = []
    search = automorphism.search_color_preserving

    def counted(*args):
        calls.append(args)
        return search(*args)

    monkeypatch.setattr(automorphism, "search_color_preserving", counted)
    res = distinguishing_number(mu)
    assert calls == []
    assert not hasattr(distinguishing, "search_color_preserving")
    assert automorphism.search_color_preserving(mu, res.certificate.assign) is None
    assert len(calls) == 1


def test_chain_walk_is_bounded_by_the_budget():
    # mu_2(K_{3,3}), |Aut| = 93312: the walk charges one step per
    # transversal element it composes, so a tiny budget stops the search,
    # and a single walk that composes one element per level stops one
    # step short of that
    mu, _ = build_mycielskian(parse_graph6("ElUg"), 2)
    with pytest.raises(SearchBudgetExceeded):
        distinguishing_number(mu, budget=Budget(50))
    group = enumerate_automorphisms(mu)
    colors = (1,) * mu.n
    top = group.levels[-1][0]  # the highest base point H_(b+1) moves
    walked = Budget(10**8)
    assert group.preserving_moves_last(colors, top + 1, walked)
    assert walked.used == len(group.levels)
    with pytest.raises(SearchBudgetExceeded):
        group.preserving_moves_last(colors, top + 1, Budget(walked.used - 1))


def test_orbit_pruning_is_transparent():
    for g, want in KNOWN:
        res = unpruned_distinguishing_number(g)
        assert res.value == want
        assert distinguishes(g, res.certificate)


@settings(max_examples=200, deadline=None)
@given(graphs(8))
def test_lex_leader_prune_keeps_certificates(g):
    pruned, plain = Budget(10**8), Budget(10**8)
    res = distinguishing_number(g, budget=pruned)
    assert res == unpruned_distinguishing_number(g, budget=plain)
    # the pruned tree is the unpruned one with subtrees cut
    assert pruned.used <= plain.used
    if g.n <= 6:
        assert res.value == distinguishing_number_bruteforce(g).value


def test_lex_leader_prune_keeps_corpus_certificates(corpus_n6):
    for line, g in corpus_n6:
        mu, _ = build_mycielskian(g, 1)
        for h in (g, mu):
            assert distinguishing_number(h) == unpruned_distinguishing_number(h), line


def _assert_twin_classes_ascend(g):
    # swapping twins u < v is an automorphism, so a coloring with
    # c(u) > c(v) has a smaller image that also distinguishes: the
    # lex-first certificate gives every twin class ascending colors, the
    # order the DFS imposes
    cert = distinguishing_number_bruteforce(g).certificate.assign
    for cl in twin_classes(g):
        colors = [cert[v] for v in cl]
        assert colors == sorted(set(colors)), (cl, cert)


def test_oracle_certificates_ascend_on_twin_classes(corpus_n6):
    for _, g in corpus_n6:
        _assert_twin_classes_ascend(g)


@settings(max_examples=60, deadline=None)
@given(twin_rich_graphs(7))
def test_oracle_certificates_ascend_on_twin_rich_graphs(g):
    _assert_twin_classes_ascend(g)


def _smaller_or_undecided(gens, colors, d):
    """_smaller_image with the prefix maxima that the DFS keeps."""
    prefix_max = [max(colors[:p], default=0) for p in range(len(colors) + 1)]
    return _smaller_image(gens, colors, d, prefix_max)


def _smaller(gens, colors, d):
    """Does _smaller_image cut the prefix?"""
    return _smaller_or_undecided(gens, colors, d) is None


def test_smaller_image_renumbers_colors():
    # h swaps 0 and 1 and fixes 2: (1, 2, 2) maps to (2, 1, 2), renumbered
    # (1, 2, 1), smaller; (1, 2, 1) maps to (2, 1, 1), renumbered
    # (1, 2, 2), larger
    swap = [(0, (1, 0, 2, 3))]
    assert _smaller(swap, [1, 2, 2, 0], 3)
    assert not _smaller(swap, [1, 2, 1, 0], 3)
    # positions before the first moved point are compared as they are:
    # h fixes 0 and swaps 1 and 2, (1, 1, 2) maps to (1, 2, 1)
    assert not _smaller([(1, (0, 2, 1, 3))], [1, 1, 2, 0], 3)
    assert _smaller([(1, (0, 2, 1, 3))], [1, 2, 1, 0], 3)


def test_smaller_image_stops_at_the_first_uncolored_image():
    # h = (0 1)(2 3) on the prefix (1, 2, 2) of d = 3: the images of 0 and
    # 1 read (2, 1), renumbered (1, 2), equal; the image of 2 is 3, not
    # colored yet, so there is no cut, whatever 3 gets later
    h = [(0, (1, 0, 3, 2))]
    assert not _smaller(h, [1, 2, 2, 0], 3)
    assert not _smaller(h, [1, 2, 2, 1], 3)
    # at d = 4, with 3 colored, the same h cuts (1, 2, 2, 1): (2, 1, 1, 2)
    # renumbered is (1, 2, 2, 1), equal, but (1, 2, 2, 2) maps to
    # (2, 1, 2, 2), renumbered (1, 2, 1, 1), smaller
    assert not _smaller(h, [1, 2, 2, 1], 4)
    assert _smaller(h, [1, 2, 2, 2], 4)
    # h need not map the prefix onto itself: the cycle 1 -> 2 -> 3 -> 1
    # maps 2 out of the prefix (1, 2, 1) of d = 3, but it reads
    # colors[2] = 1 < 2 at position 1 and cuts there
    assert _smaller([(1, (0, 2, 3, 1))], [1, 2, 1, 0], 3)


def test_smaller_image_cuts_with_an_inverse_where_the_generator_does_not():
    # h = 0 -> 1 -> 2 -> 3 -> 0 on (1, 2, 1, 1) at d = 4: h gives
    # (2, 1, 1, 1), renumbered (1, 2, 2, 2), larger; its inverse gives
    # (1, 1, 2, 1), already renumbered, smaller
    h = (1, 2, 3, 0)
    inv = (3, 0, 1, 2)
    assert not _smaller([(0, h)], [1, 2, 1, 1], 4)
    assert _smaller([(0, inv)], [1, 2, 1, 1], 4)
    assert _smaller([(0, h), (0, inv)], [1, 2, 1, 1], 4)


def test_smaller_image_passes_on_only_undecided_generators():
    # on the prefix (1, 2, 1) of d = 3: (0 1)(2 3) reads (1, 2) renumbered,
    # equal, and stops at 3, not colored yet; (0 1) reads (1, 2, 2)
    # renumbered, larger at position 2, which keeps its color in the whole
    # subtree; (2 3) moves nothing below 2 and is not walked yet
    both, swap, late = (1, 0, 3, 2), (1, 0, 2, 3), (0, 1, 3, 2)
    gens = [(0, both), (0, swap), (2, late)]
    assert _smaller_or_undecided(gens, [1, 2, 1, 0], 3) == [(0, both), (2, late)]


@settings(max_examples=60, deadline=None)
@given(graphs(5))
def test_matches_oracle(g):
    assert distinguishing_number(g).value == distinguishing_number_bruteforce(g).value


@settings(max_examples=60, deadline=None)
@given(graphs(5), st.randoms(use_true_random=False))
def test_renaming_invariance(g, rng):
    k = max(2, g.n // 2)
    assign = tuple(rng.randint(1, k) for _ in range(g.n))
    relabel = list(range(1, k + 1))
    rng.shuffle(relabel)
    permuted = tuple(relabel[c - 1] for c in assign)
    assert (distinguishes(g, Coloring(k, assign))
            == distinguishes(g, Coloring(k, permuted)))


def test_canonical_colorings_exactly():
    got = sorted(_canonical_colorings_exactly(4, 2))
    # restricted growth strings of length 4 on exactly 2 values
    want = sorted(
        assign for assign in itertools.product((1, 2), repeat=4)
        if assign[0] == 1 and max(assign) == 2
        and all(c <= max(assign[:i], default=0) + 1 for i, c in enumerate(assign))
    )
    assert got == want
    assert len(got) == 7  # partitions of 4 items into 2 blocks
    assert list(_canonical_colorings_exactly(3, 3)) == [(1, 2, 3)]


def test_order_zero_and_singleton():
    assert distinguishing_number(Graph(0)).value == 0
    res = distinguishing_number(Graph(1))
    assert res.value == 1 and res.certificate.assign == (1,)


def _root_fixed(g, t):
    """mu_t(g) when its root is alone in its refined cell, else None."""
    mu, layout = build_mycielskian(g, t)
    return mu if [layout.root] in equitable_partition(mu) else None


def _quotient_dist(g, t, budget=None):
    """quotient_dist on g's twin quotient and its chain colored by kind,
    as verify calls it."""
    q = twin_quotient(g)
    group = enumerate_automorphisms(q.graph, q.kinds)
    return quotient_dist(q, t, group, Budget(DEFAULT_BUDGET) if budget is None else budget)


def test_quotient_dist_at_t0_is_dist_on_the_corpus(corpus_n7):
    for line, g in corpus_n7:
        assert _quotient_dist(g, 0) == distinguishing_number(g).value, line


def test_quotient_dist_at_t0_matches_the_dist_golden():
    # every graph with n <= 7 and mu_1, mu_2 of every graph with n <= 5
    golden = ROOT / "tests" / "golden" / "dist.jsonl"
    records = [json.loads(ln) for ln in golden.read_text().splitlines()]
    assert len(records) == 1356
    for rec in records:
        assert _quotient_dist(parse_graph6(rec["graph6"]), 0) == rec["dist"], rec


def test_quotient_dist_matches_the_dfs_on_the_corpus(corpus_n6):
    # every row with n <= 6 at t <= 3 whose root is fixed: all but the 18
    # rows of the six stars K_1, ..., K_{1,5}
    rows = 0
    for line, g in corpus_n6:
        for t in (1, 2, 3):
            mu = _root_fixed(g, t)
            if mu is None:
                continue
            assert _quotient_dist(g, t) == distinguishing_number(mu).value, (line, t)
            rows += 1
    assert rows == 606


def test_quotient_dist_matches_the_dfs_on_random_n8_graphs():
    rng = random.Random(8)
    rows = symmetric = 0
    for _ in range(40):
        p = rng.choice((0.15, 0.3, 0.5))
        g = Graph(8, [(u, v) for u in range(8) for v in range(u + 1, 8)
                      if rng.random() < p])
        symmetric += enumerate_automorphisms(g).order > 1
        for t in (1, 2):
            mu = _root_fixed(g, t)
            if mu is None:
                continue
            assert _quotient_dist(g, t) == distinguishing_number(mu).value, (g.edges(), t)
            rows += 1
    assert rows == 80 and symmetric >= 10


@pytest.mark.parametrize("line, ts", [("EQKo", (1, 2, 3, 8)),
                                      ("Ih??c{?yG", (1, 2, 3, 8))])
def test_mycielskian_dist_matches_the_dfs_where_degrees_leave_the_root(line, ts):
    # the dist of mu_t(G), read off G's twin quotient. G's degrees do not
    # set these roots apart, so verify reads the root orbit with orbit_of;
    # it is the root alone, and verify measures the row with quotient_dist
    g = parse_graph6(line)
    for t in ts:
        mu, layout = build_mycielskian(g, t)
        assert not root_fixed_by_degrees(g, t)
        assert automorphism.orbit_of(mu, layout.root) == {layout.root}
        assert _quotient_dist(g, t) == distinguishing_number(mu).value, (line, t)


def test_two_point_root_orbit_adds_one_color_at_most(corpus_n7, monkeypatch):
    # README's two-point corollary: where the root orbit of mu_t(G) is
    # {w, x}, dist(mu_t(G)) = max(quotient_dist, 2). The DFS on mu_t(G)
    # is the reference, and verify runs none on these rows
    two_point = {}
    for line, g in corpus_n7:
        for t in (1, 2, 3, 8):
            if root_fixed_by_degrees(g, t):
                continue
            mu, layout = build_mycielskian(g, t)
            if len(automorphism.orbit_of(mu, layout.root)) == 2:
                two_point.setdefault((line, g), []).append(t)
                assert max(_quotient_dist(g, t), 2) == distinguishing_number(mu).value, (
                    line, t)
    # K_1 and the stars K_{1,m}, m = 2..6, at every t
    assert sorted(classify_star(g).m for _, g in two_point) == [0, 2, 3, 4, 5, 6]
    assert all(ts == [1, 2, 3, 8] for ts in two_point.values())

    def no_dfs(*args, **kwargs):
        raise AssertionError("verify ran the DFS on a two-point row")

    monkeypatch.setattr(verify, "distinguishing_number", no_dfs)
    for (line, _), ts in two_point.items():
        rows = process_record(line, ts, DEFAULT_BUDGET)
        assert all(r.method == "search" and r.passed for r in rows), line


@pytest.mark.parametrize("n", range(3, 13))
def test_complete_graph_rows_read_the_digit_law(n):
    # Aut(K_n) is S_n on one closed class of n vertices, whose labels all
    # differ: the value is the least k with k^(t+1) >= n, and the row is
    # measured on the twin quotient, with no chain or DFS of mu_t(K_n)
    g = complete_graph(n)
    rows = process_record(write_graph6(g), [1, 2, 3, 4], DEFAULT_BUDGET)
    for t, r in zip((1, 2, 3, 4), rows):
        k = next(k for k in itertools.count(1) if k ** (t + 1) >= n)
        assert _root_fixed(g, t) is not None
        assert _quotient_dist(g, t) == k
        assert (r.measured, r.method, r.root_orbit) == (k, "search", "fixed")


def test_complete_graphs_need_no_quotient_chain():
    # K_n's quotient is one vertex, so its chain has no level: n colors at
    # t = 0, and the least k with k^(t+1) >= n at t >= 1 (K_1's root moves
    # at t >= 1, so its rows are not asked)
    for n in range(1, 63):
        g = complete_graph(n)
        q = twin_quotient(g)
        assert q.kinds == ((n, n > 1, n == 1),)
        group = enumerate_automorphisms(q.graph, q.kinds)
        assert group.levels == ()
        assert quotient_dist(q, 0, group, Budget(DEFAULT_BUDGET)) == n
        for t in range(1, 5):
            k = next(k for k in itertools.count(1) if k ** (t + 1) >= n)
            if n > 1:
                assert quotient_dist(q, t, group, Budget(DEFAULT_BUDGET)) == k


def test_quotient_dist_spends_the_budget():
    # mu_1(C_5): C_5 has no twins, so its quotient is C_5 itself, and a
    # budget step is one node of the search or one transversal element
    # walked; Aut(C_5) is nontrivial, so the search starts at k = 2
    budget = Budget(DEFAULT_BUDGET)
    assert _quotient_dist(cycle_graph(5), 1, budget) == 2
    assert budget.used == 13
    with pytest.raises(SearchBudgetExceeded):
        _quotient_dist(cycle_graph(5), 1, Budget(budget.used - 1))


def test_closed_twins_bound_complete_graphs():
    # K_n is one class of closed twins: the k loop starts at n, and the
    # search walks one ascending path to the rainbow coloring, one step
    # per node; the witness reads the same classes as the bound, so the
    # closed class forced the value
    assert lower_bound(enumerate_automorphisms(complete_graph(5))) == 5
    budget = Budget(DEFAULT_BUDGET)
    res = distinguishing_number(complete_graph(62), budget=budget)
    assert res.value == 62 and res.certificate.assign == tuple(range(1, 63))
    assert res.lower_bound_witness == 62
    assert budget.used <= 63
