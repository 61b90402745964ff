"""Workload inputs, passes and the output gate.

Every workload reads a fixed, exhaustive corpus from data/. The seed only
relabels: seed s draws one random vertex permutation per graph from
Random(s), and pass k of P rotates it by k * n // P places, so that over a
run every vertex takes evenly spread positions. Each pass alone is a
uniform random labelling; together they balance it, because search cost
depends on where a graph's special vertices sit in the vertex order. Seed 0
is the identity in every pass, i.e. the corpus as committed, and is the
seed the golden output was written at. Labels change how the searches
branch, not what they find, so at other seeds the gate compares only
label-free columns.
"""

from __future__ import annotations

import csv
import io
import json
import random
import sys
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "data"
GOLDEN = Path(__file__).resolve().parent / "golden"

# Columns of the verify CSV that do not depend on vertex labels.
GATED_COLUMNS = ("n", "ell", "dist_g", "t", "case", "predicted_kind",
                 "predicted_value", "measured", "method", "root_orbit", "pass")
FAILED_METHODS = ("budget_exceeded", "malformed")


@dataclass(frozen=True)
class Workload:
    name: str
    corpus: str
    max_n: int
    ts: tuple[int, ...]  # empty for the CLI workload
    seconds_per_pass: float  # run time budgeted per pass

    @property
    def is_sweep(self) -> bool:
        return bool(self.ts)

    def passes(self, seconds: float) -> int:
        """Whole passes per run. A constant, not a measurement, so every
        commit gets the same inputs."""
        return max(1, round(seconds / self.seconds_per_pass))


# A pass takes about 13, 5.5 and 8.5 s on a 2-vCPU Xeon VM. The budgets give
# the 52-graph sweep the most passes, since it has the fewest items to
# average, and the CLI's millisecond commands more than the broad sweep.
WORKLOADS = {w.name: w for w in (
    # broad: many medium searches on mu_1 of up to 13 vertices, every layer
    Workload("sweep_n6_t1", "graphs_n1_6.g6", 6, (1,), 15.0),
    # deep: few searches on mu_2 of up to 16 vertices with large groups. t = 3
    # is left out: mu_3 of the wheel W4 alone takes 3 to 23 s (2-vCPU Xeon VM)
    # depending on the labelling, so no affordable number of passes makes it
    # steady.
    Workload("sweep_n5_t2", "graphs_n1_6.g6", 5, (2,), 7.5),
    # one-shot aut and check-coloring commands; never enters the dist DFS
    Workload("cli_n7", "graphs_n7.g6", 7, (), 10.0),
)}


@dataclass(frozen=True)
class Item:
    """One unit of latency: a (graph, t) verify row or one CLI command."""

    index: int  # position in the corpus
    line: str  # graph6 as the program receives it
    t: int | None = None
    command: str | None = None
    coloring: tuple[int, ...] | None = None

    @property
    def key(self) -> str:
        return f"{self.index}:{self.t if self.command is None else self.command}"


# mycdist is imported inside functions: the caller puts src/ on sys.path.

def read_corpus(w: Workload):
    from mycdist import parse_graph6

    graphs = [parse_graph6(ln) for ln in (DATA / w.corpus).read_text().split()]
    return [g for g in graphs if g.n <= w.max_n]


def _colorings(graphs) -> list[tuple[int, ...]]:
    """Fixed 2-colorings on the committed labels, relabelled with the graph."""
    rng = random.Random("cli_n7 colorings")
    return [tuple(rng.randint(1, 2) for _ in range(g.n)) for g in graphs]


def pass_items(w: Workload, graphs, seed: int, k: int, passes: int) -> list[Item]:
    """The inputs of pass k of `passes`: every graph relabelled, in corpus order."""
    from mycdist import Graph, write_graph6

    rng = random.Random(seed)
    colorings = None if w.is_sweep else _colorings(graphs)
    items = []
    for i, g in enumerate(graphs):
        perm = list(range(g.n))
        if seed:
            rng.shuffle(perm)
            shift = k * g.n // passes
            perm = [(p + shift) % g.n for p in perm]
        line = write_graph6(Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()]))
        if w.is_sweep:
            items.extend(Item(i, line, t=t) for t in w.ts)
        else:
            col = [0] * g.n
            for v, c in enumerate(colorings[i]):
                col[perm[v]] = c
            items.append(Item(i, line, command="aut"))
            items.append(Item(i, line, command="check-coloring", coloring=tuple(col)))
    return items


@dataclass
class PassResult:
    latencies: list[float]
    outputs: list  # sweep: verify rows; cli: (exit code, stdout) per command
    report: str | None = None  # sweep CSV
    report_s: float = 0.0

    @property
    def wall_s(self) -> float:
        """Time in the program; reference-clock samples between items excluded."""
        return sum(self.latencies) + self.report_s


@contextmanager
def _stdio(text: str):
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(text), io.StringIO(), io.StringIO()
    try:
        yield
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved


def _cli_argv(item: Item) -> list[str]:
    if item.command == "aut":
        return ["aut"]
    return ["check-coloring", "--coloring", json.dumps(list(item.coloring))]


def run_pass(w: Workload, items: list[Item], tracer=None, clock=None) -> PassResult:
    """Feed every item to the program in order, timing each one.

    A reference clock, if given, samples between items, outside every timing.
    """
    from mycdist import cli, verify

    def span(name):
        return tracer.span(name) if tracer is not None else nullcontext()

    latencies, outputs = [], []
    for item in items:
        if tracer is not None:
            tracer.record_id = item.key
        if w.is_sweep:
            with span("verify.record"):
                t0 = time.perf_counter()
                rows = verify.process_record(item.line, [item.t], cli.DEFAULT_BUDGET)
                latencies.append(time.perf_counter() - t0)
            outputs.extend(rows)
        else:
            argv = _cli_argv(item)
            with _stdio(item.line + "\n"):
                t0 = time.perf_counter()
                try:
                    code = cli.main(argv)
                except SystemExit as e:
                    code = e.code
                latencies.append(time.perf_counter() - t0)
                out = sys.stdout.getvalue()
            outputs.append((code, out))
        if clock is not None:
            clock.tick()
    report, report_s = None, 0.0
    if w.is_sweep:
        if tracer is not None:
            tracer.record_id = None
        with span("verify.report"):
            t0 = time.perf_counter()
            report = verify.report_to_csv(verify.VerifyReport(tuple(outputs)))
            report_s = time.perf_counter() - t0
    return PassResult(latencies, outputs, report, report_s)


# --- output gate -----------------------------------------------------------

def golden_path(w: Workload) -> Path:
    return GOLDEN / (f"{w.name}.csv" if w.is_sweep else f"{w.name}.jsonl")


def golden_text(w: Workload, res: PassResult, items: list[Item]) -> str:
    """The golden file content for a seed-0 pass."""
    if w.is_sweep:
        return res.report
    return "".join(json.dumps({"key": it.key, "exit": code, "doc": json.loads(out)},
                              separators=(",", ":")) + "\n"
                   for it, (code, out) in zip(items, res.outputs))


def cli_bytes(doc) -> str:
    """What the CLI prints for one JSON document."""
    return json.dumps(doc, indent=2) + "\n"


def _label_free(doc):
    """aut: group order and orbit sizes; check-coloring: the verdict."""
    if "order" in doc:
        return doc["order"], sorted(len(o) for o in doc["orbits"])
    return doc["distinguishing"]


class Gate:
    """Golden output of one workload, compared per row or per command."""

    def __init__(self, w: Workload):
        self.w = w
        text = golden_path(w).read_text()
        if w.is_sweep:
            self.lines = text.splitlines()
            self.rows = list(csv.DictReader(io.StringIO(text)))
        else:
            self.records = [json.loads(ln) for ln in text.splitlines()]

    def failures(self, res: PassResult, exact: bool) -> list[int]:
        """Indices of failed items; exact compares bytes, else label-free columns."""
        if self.w.is_sweep:
            return self._sweep_failures(res.report, exact)
        return self._cli_failures(res.outputs, exact)

    def _sweep_failures(self, report: str, exact: bool) -> list[int]:
        lines = report.splitlines()
        rows = list(csv.DictReader(io.StringIO(report)))
        header_ok = lines[:1] == self.lines[:1]
        bad = []
        for i in range(max(len(rows), len(self.rows))):
            if i >= len(rows) or i >= len(self.rows):
                bad.append(i)
                continue
            row = rows[i]
            if exact:
                same = header_ok and lines[i + 1] == self.lines[i + 1]
            else:
                same = all(row.get(c) == self.rows[i][c] for c in GATED_COLUMNS)
            if not same or row["pass"] != "true" or row["method"] in FAILED_METHODS:
                bad.append(i)
        return bad

    def _cli_failures(self, outputs, exact: bool) -> list[int]:
        bad = []
        for i in range(max(len(outputs), len(self.records))):
            if i >= len(outputs) or i >= len(self.records):
                bad.append(i)
                continue
            code, out = outputs[i]
            gold = self.records[i]
            if code != 0 or code != gold["exit"]:
                bad.append(i)
            elif exact:
                if out != cli_bytes(gold["doc"]):
                    bad.append(i)
            else:
                try:
                    same = _label_free(json.loads(out)) == _label_free(gold["doc"])
                except (ValueError, KeyError, TypeError):
                    same = False
                if not same:
                    bad.append(i)
        return bad
