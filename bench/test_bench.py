"""Tests of the benchmark itself: span arithmetic, relabelling, the gate.

    PYTHONPATH=src python -m pytest -q bench
"""

from __future__ import annotations

import json
import sys
import types

import pytest

import workloads as wl
from spans import END, NAME, PARENT, RID, START, Tracer, self_times

sys.path.insert(0, str(wl.ROOT / "src"))
import mycdist  # noqa: E402


def _span(name, start, end, parent):
    return [name, start, end, parent, None, None]


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span("record", 0.0, 10.0, -1),
        _span("dist", 1.0, 4.0, 0),
        _span("listing", 2.0, 3.0, 1),
        _span("orbit", 5.0, 7.0, 0),
    ]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 1.0, 2.0])


def test_self_time_counts_overlapping_cover_once():
    spans = [_span("p", 0.0, 4.0, -1), _span("a", 1.0, 3.0, 0), _span("b", 2.0, 5.0, 0)]
    assert self_times(spans)[0] == pytest.approx(1.0)


def test_wrap_records_nesting_record_id_and_restores():
    mod = types.SimpleNamespace()
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) * 2
    original = mod.inner, mod.outer
    tracer = Tracer()
    seen = []
    tracer.wrap(mod, "inner", "layer.inner")
    tracer.wrap(mod, "outer", "layer.outer",
                after=lambda span, args, kwargs, result, error: seen.append(result))
    tracer.record_id = "7:1"
    assert mod.outer(1) == 4
    tracer.restore()
    assert (mod.inner, mod.outer) == original
    outer, inner = tracer.spans
    assert (outer[NAME], outer[PARENT], inner[NAME], inner[PARENT]) == \
        ("layer.outer", -1, "layer.inner", 0)
    assert outer[RID] == inner[RID] == "7:1"
    assert outer[START] <= inner[START] <= inner[END] <= outer[END]
    assert seen == [4]


def _graphs():
    """Small graphs covering the star, isolate and generic cases."""
    return [mycdist.path_graph(3), mycdist.cycle_graph(4), mycdist.star_graph(3),
            mycdist.Graph(3, [(0, 1)]), mycdist.Graph(4, [(0, 1), (1, 2), (2, 0), (2, 3)])]


@pytest.mark.parametrize("seed", [1, 2])
def test_gated_columns_do_not_depend_on_labels(seed):
    w = wl.Workload("tiny", "unused", 5, (1, 2), 1.0)
    base = wl.run_pass(w, wl.pass_items(w, _graphs(), 0, 0, 1))
    items = wl.pass_items(w, _graphs(), seed, 1, 2)
    assert [it.line for it in items] != [it.line for it in
                                         wl.pass_items(w, _graphs(), 0, 0, 1)]
    moved = wl.run_pass(w, items)
    cols = wl.GATED_COLUMNS
    rows = lambda res: [tuple(getattr(r, "passed" if c == "pass" else c) for c in cols)
                        for r in res.outputs]
    assert rows(moved) == rows(base)


def test_cli_label_free_output_does_not_depend_on_labels():
    w = wl.Workload("tiny_cli", "unused", 5, (), 1.0)
    base = wl.run_pass(w, wl.pass_items(w, _graphs(), 0, 0, 1))
    moved = wl.run_pass(w, wl.pass_items(w, _graphs(), 3, 0, 1))
    for (c0, out0), (c1, out1) in zip(base.outputs, moved.outputs):
        assert c0 == c1 == 0
        assert wl._label_free(json.loads(out0)) == wl._label_free(json.loads(out1))


def _golden_sweep_result(tamper=None):
    text = wl.golden_path(wl.WORKLOADS["sweep_n6_t1"]).read_text()
    lines = text.splitlines(keepends=True)
    if tamper is not None:
        row, col, value = tamper
        fields = lines[row + 1].rstrip("\n").split(",")
        fields[col] = value
        lines[row + 1] = ",".join(fields) + "\n"
    return wl.PassResult([], [], "".join(lines))


def test_gate_passes_golden_sweep_and_trips_on_tampered_row():
    gate = wl.Gate(wl.WORKLOADS["sweep_n6_t1"])
    assert gate.failures(_golden_sweep_result(), exact=True) == []
    measured = wl.GATED_COLUMNS.index("measured") + 1  # CSV column 0 is graph6
    wrong = _golden_sweep_result((5, measured, "99"))
    assert gate.failures(wrong, exact=True) == [5]
    assert gate.failures(wrong, exact=False) == [5]
    relabelled = _golden_sweep_result((5, 0, "Bw"))
    assert gate.failures(relabelled, exact=True) == [5]
    assert gate.failures(relabelled, exact=False) == []


def test_gate_trips_on_tampered_cli_output_and_nonzero_exit():
    w = wl.WORKLOADS["cli_n7"]
    gate = wl.Gate(w)
    outputs = [(r["exit"], wl.cli_bytes(r["doc"])) for r in gate.records]
    res = wl.PassResult([], outputs)
    assert gate.failures(res, exact=True) == []
    doc = dict(gate.records[0]["doc"], order=1)
    outputs[0] = (0, wl.cli_bytes(doc))
    outputs[1] = (2, "")
    assert gate.failures(res, exact=True) == [0, 1]
    assert gate.failures(res, exact=False) == [0, 1]


def test_relabelling_is_seeded_and_seed_zero_is_the_corpus():
    w = wl.WORKLOADS["sweep_n6_t1"]
    graphs = wl.read_corpus(w)
    committed = (wl.DATA / w.corpus).read_text().split()
    assert [it.line for it in wl.pass_items(w, graphs, 0, 1, 2)] == committed
    a = wl.pass_items(w, graphs, 5, 0, 2)
    assert a == wl.pass_items(w, graphs, 5, 0, 2)
    assert a != wl.pass_items(w, graphs, 5, 1, 2)
    assert a != wl.pass_items(w, graphs, 6, 0, 2)


def test_benchmark_json_matches_the_harness():
    import run

    spec = json.loads((wl.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [x["name"] for x in spec["workloads"]] == list(wl.WORKLOADS)


def test_percentile_is_a_smooth_quantile():
    import run

    grid = [float(x) for x in range(101)]
    assert run.percentile(grid, 0.5) == pytest.approx(50.0)
    assert run.percentile(grid, 0.8) == pytest.approx(80.0, abs=0.5)
    steps = sorted([1.0] * 40 + [2.0] * 12)  # a gap at the 80th percentile
    assert 1.0 < run.percentile(steps, 0.8) < 2.0
