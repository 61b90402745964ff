"""Command line front end.

Exit codes: 0 success, 2 malformed input or bad parameters, 3 search
step budget exhausted.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import sys

from .automorphism import Budget, enumerate_automorphisms, search_color_preserving
from .constructions import paper_coloring, predict_dist
from .distinguishing import DEFAULT_BUDGET, Coloring, distinguishing_number
from .errors import (InvalidT, MycdistError, PreconditionViolated,
                     SearchBudgetExceeded, Unsupported)
from .graph6 import (_MAX_N, parse_edge_list, parse_graph6, write_edge_list,
                     write_graph6)
from .graphs import Graph
from .mycielskian import MycLayout, build_mycielskian
from .verify import _dumps, report_to_csv, report_to_json, run_verify

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_BUDGET = 3


def _read_text(path: str) -> str:
    # bytes that are not UTF-8 reach the parsers as lone surrogates, and
    # the parsers reject them, from stdin as from a file; a stream that is
    # not a TextIOWrapper holds text already
    if path == "-":
        if isinstance(sys.stdin, io.TextIOWrapper):
            sys.stdin.reconfigure(errors="surrogateescape")
        return sys.stdin.read()
    with open(path, errors="surrogateescape") as fh:
        return fh.read()


def _read_graph(path: str, fmt: str) -> Graph:
    text = _read_text(path)
    if fmt == "edges":
        return parse_edge_list(text)
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise MycdistError("no graph in input")
    return parse_graph6(lines[0])


def _parse_t_list(raw: str) -> list[int]:
    """The t values of a --t list, all checked before any is used, so a
    bad value prints nothing for the good ones before it."""
    try:
        ts = [int(x) for x in raw.split(",") if x.strip()]
    except ValueError:
        raise MycdistError(f"bad --t list {raw!r}") from None
    if not ts:
        raise MycdistError("empty --t list")
    for t in ts:
        if t < 1:
            raise InvalidT(f"t must be >= 1, got {t}")
    return ts


def _layout_json(layout: MycLayout) -> dict:
    out = {}
    for v in range(layout.order):
        role = layout.role(v)
        out[str(v)] = {"role": role.kind, "i": role.index, "level": role.level}
    return out


def _parse_coloring(raw: str) -> Coloring:
    """Coloring as a JSON array of 1-based colors, inline or @file."""
    if raw.startswith("@"):
        raw = _read_text(raw[1:])
    try:
        values = json.loads(raw)
    except (json.JSONDecodeError, RecursionError) as e:  # too deeply nested
        raise MycdistError(f"bad coloring JSON: {e}") from None
    # type(), not isinstance(): JSON true and false load as bool, an int
    if not isinstance(values, list) or not all(type(c) is int for c in values):
        raise MycdistError("coloring must be a JSON array of integers")
    return Coloring(max(values, default=0), tuple(values))


def _emit(doc):
    print(_dumps(doc))


def _check_graph6_order(n: int, ts: list[int]):
    """Reject a --t list with a mu_t over the graph6 order limit before
    anything is built or printed; the order grows with t."""
    order = MycLayout(n, max(ts)).order
    if order > _MAX_N:
        raise Unsupported(f"mu_{max(ts)} has {order} vertices, beyond the "
                          f"single-byte graph6 range (n <= {_MAX_N})")


def cmd_myc(args) -> int:
    g = _read_graph(args.input, args.format)
    ts = _parse_t_list(args.t)
    if args.format == "graph6":
        _check_graph6_order(g.n, ts)
    for t in ts:
        mu, layout = build_mycielskian(g, t)
        doc = {"t": t, "layout": _layout_json(layout)}
        if args.format == "edges":
            doc["edges"] = write_edge_list(mu)
        else:
            doc["graph6"] = write_graph6(mu)
        _emit(doc)
    return EXIT_OK


def cmd_aut(args) -> int:
    """Order, generators and orbits of Aut(g), read off one stabilizer
    chain; no element of the group is listed.

    The chain is built on g relabelled by v -> n-1-v, so its base is
    0, 1, ..., n-1 of g: level i holds, for each point j of the orbit of
    i under G_i (the automorphisms fixing 0..i-1), one element of G_i
    taking i to j. The generators are the greedy lex-first generating set
    of the group sorted by image vector: each element the earlier ones do
    not generate. The elements whose first moved point is i come after
    all of G_(i+1), grouped by their image of i, so the earlier
    generators give a group H with G_(i+1) <= H <= G_i, and a coset
    {h in G_i : h(i) = j} lies in H exactly when j is in the orbit of i
    under H. Deepest level first, each j outside that orbit adds the
    least element of its coset, built level by level below i. The orbits
    are the classes of the generators.
    """
    g = _read_graph(args.input, args.format)
    n = g.n
    last = n - 1
    # the chain's vertex x is g's vertex last - x: relabelling is an
    # isomorphism of the groups, so the work below is done in the chain's
    # labels, and only the generators printed are relabelled
    chain = enumerate_automorphisms(Graph(n, [
        (last - u, last - v) for u, nbhd in enumerate(g.adjacency) for v in nbhd if u < v]))
    # chain level b, g's level last - b: {t(b): t}, deepest level first
    levels = {b: {t[b]: t for t in images} for b, images, _ in chain.levels}
    orbit = list(range(n))  # orbit[x]: a name for the orbit of x under gens
    gens: list[list[int]] = []
    for b, level in levels.items():
        for k in sorted(level, reverse=True):  # g's j = last - k ascending
            if orbit[k] == orbit[b]:
                continue
            t = level[k]
            # at each level q below b, the element taking q where t maps
            # highest (lowest, in g's labels)
            for q in range(b - 1, -1, -1):
                if q in levels:
                    lq = levels[q]
                    t = tuple(map(t.__getitem__, lq[max(lq, key=t.__getitem__)]))
            gens.append([last - t[x] for x in range(last, -1, -1)])
            for x, y in enumerate(t):
                keep, gone = orbit[x], orbit[y]
                if keep != gone:  # the orbits of x and y merge
                    orbit = [keep if z == gone else z for z in orbit]
    orbit.reverse()  # orbit[v] for g's vertex v
    # names in order of first use: the orbits come ordered by least member
    orbits = [[v for v, x in enumerate(orbit) if x == name]
              for name in dict.fromkeys(orbit)]
    _emit({"order": chain.order,
           "generators": gens,
           "orbits": orbits})
    return EXIT_OK


def cmd_dist(args) -> int:
    g = _read_graph(args.input, args.format)
    res = distinguishing_number(g, budget=Budget(args.budget))
    _emit({"dist": res.value,
           "certificate": list(res.certificate.assign),
           "lower_bound_witness": res.lower_bound_witness})
    return EXIT_OK


def cmd_check_coloring(args) -> int:
    g = _read_graph(args.input, args.format)
    coloring = _parse_coloring(args.coloring)
    witness = search_color_preserving(g, coloring.assign)
    _emit({"distinguishing": witness is None,
           "witness": None if witness is None else list(witness)})
    return EXIT_OK


def cmd_coloring(args) -> int:
    """For each t, the coloring of mu_t(g) by which the paper proves the
    case of predict_dist: paper_coloring of g's certificate, checked by
    search_color_preserving on mu_t(g). Each t's document is printed
    before the next t is built; a case with no paper coloring (K1_t1,
    K2_t1, K2_tgt1) exits 2 there."""
    ts = _parse_t_list(args.t)
    g = _read_graph(args.input, args.format)
    _check_graph6_order(g.n, ts)
    res = distinguishing_number(g, budget=Budget(args.budget))
    for t in ts:
        # built first, so that an order-0 g fails as an empty source
        mu, _ = build_mycielskian(g, t)
        case = predict_dist(g, t, res.value).case_tag
        coloring = paper_coloring(g, t, case, res.certificate)
        if coloring is None:
            raise PreconditionViolated(f"case {case} has no paper coloring")
        _emit({"case": case, "t": t, "k": coloring.k,
               "graph6": write_graph6(mu),
               "colors": list(coloring.assign),
               "distinguishing": search_color_preserving(mu, coloring.assign) is None})
    return EXIT_OK


def cmd_verify(args) -> int:
    text = _read_text(args.input)
    lines = [ln for ln in text.splitlines() if ln.strip()]
    report = run_verify(lines, _parse_t_list(args.t), budget_steps=args.budget,
                        jobs=args.jobs)
    if args.out == "csv":
        sys.stdout.write(report_to_csv(report))
    else:
        sys.stdout.write(report_to_json(report))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mycdist",
        description="Generalized Mycielskian graphs and distinguishing numbers.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, *flags):
        """The input argument, and the named ones of --format, --t and
        --budget: each subcommand takes only the flags it reads."""
        p.add_argument("input", nargs="?", default="-",
                       help="graph file, or - for stdin (default)")
        if "format" in flags:
            p.add_argument("--format", choices=("graph6", "edges"), default="graph6")
        if "t" in flags:
            p.add_argument("--t", default="1", help="comma-separated t values")
        if "budget" in flags:
            p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                           help="search step budget")

    p = sub.add_parser("myc", help="build mu_t of the input graph")
    common(p, "format", "t")
    p.set_defaults(fn=cmd_myc)

    p = sub.add_parser("aut", help="automorphism group order, generators and orbits")
    common(p, "format")
    p.set_defaults(fn=cmd_aut)

    p = sub.add_parser("dist", help="exact distinguishing number")
    common(p, "format", "budget")
    p.set_defaults(fn=cmd_dist)

    p = sub.add_parser("check-coloring", help="is the coloring distinguishing?")
    common(p, "format")
    p.add_argument("--coloring", required=True,
                   help="JSON array of 1-based colors, or @file")
    p.set_defaults(fn=cmd_check_coloring)

    p = sub.add_parser("coloring", help="emit the paper's coloring of mu_t")
    common(p, "format", "t", "budget")
    p.set_defaults(fn=cmd_coloring)

    p = sub.add_parser("verify", help="sweep a corpus against the case analysis")
    common(p, "t", "budget")
    p.set_defaults(t="1,2")
    p.add_argument("--out", choices=("json", "csv"), default="json")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(fn=cmd_verify)

    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call: building it costs more than
    most commands, and parsing leaves it unchanged."""
    return build_parser()


@functools.cache
def _commands() -> dict[str, argparse.ArgumentParser]:
    """Each subcommand's own parser, by name."""
    (sub,) = [a for a in _parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # one level of parsing, by the subcommand's own parser; the whole
    # parser only when no known command is named or arguments are left
    # over, so that its usage and error messages are printed
    sub = _commands().get(argv[0]) if argv else None
    args, rest = sub.parse_known_args(argv[1:]) if sub else (None, None)
    if sub is None or rest:
        args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except SearchBudgetExceeded as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except (MycdistError, OSError, UnicodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
