"""One exception type per failed condition, and only package errors.

Each condition raises the same type from every entry point, and every
class the package raises is a MycdistError, so `mycdist` exits 2 on each
(3 on SearchBudgetExceeded) and never prints a traceback.
"""

import ast
import builtins
import importlib
import inspect
import io
import pathlib
import re

import pytest

from mycdist import (Coloring, Graph, MycLayout, build_mycielskian,
                     enumerate_automorphisms, isolate_case_coloring,
                     kn_base_coloring, lift_coloring, path_graph, predict_dist,
                     search_color_preserving)
from mycdist import cli, errors
from mycdist.errors import (MycdistError, PreconditionViolated, SizeMismatch,
                            VertexOutOfRange)

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "mycdist"
EMPTY = "source graph must have at least one vertex"

CONDITIONS = [
    ("order0-build", lambda: build_mycielskian(Graph(0), 1),
     PreconditionViolated, EMPTY),
    ("order0-lift", lambda: lift_coloring(Graph(0), 1, Coloring(0, ())),
     PreconditionViolated, EMPTY),
    ("order0-isolate", lambda: isolate_case_coloring(Graph(0), 1, Coloring(0, ())),
     PreconditionViolated, EMPTY),
    ("order0-predict", lambda: predict_dist(Graph(0), 1, 0),
     PreconditionViolated, "no prediction for the empty graph"),
    ("length-search", lambda: search_color_preserving(path_graph(3), (1, 2)),
     SizeMismatch, "coloring length 2 != graph order 3"),
    ("length-lift", lambda: lift_coloring(path_graph(3), 1, Coloring(2, (1, 2))),
     SizeMismatch, "coloring length 2 != source order 3"),
    ("length-isolate", lambda: isolate_case_coloring(Graph(3), 1, Coloring(2, (1, 2))),
     SizeMismatch, "coloring length 2 != source order 3"),
    ("length-layout", lambda: MycLayout(3, 1).lift([[1, 1, 1]], 1),
     SizeMismatch, "need 2 rows of 3 values"),
    ("length-colored-chain", lambda: enumerate_automorphisms(path_graph(3), (1, 2)),
     SizeMismatch, "coloring length 2 != graph order 3"),
    ("id-graph", lambda: path_graph(3).neighbors(3),
     VertexOutOfRange, "vertex 3 outside 0..2"),
    ("id-vertex_id", lambda: MycLayout(3, 1).vertex_id(3, 0),
     VertexOutOfRange, "no vertex (i=3, s=0) in this layout"),
    ("id-role", lambda: MycLayout(3, 1).role(7),
     VertexOutOfRange, "vertex 7 outside layout of order 7"),
    ("range-kn", lambda: kn_base_coloring(2, 1),
     PreconditionViolated, "base coloring needs n >= 3, got 2"),
    # a path on 3 vertices, read from stdin
    ("cli-check-coloring", ["check-coloring", "--coloring", "[1,2]"],
     SizeMismatch, "coloring length 2 != graph order 3"),
]


@pytest.mark.parametrize("call, error, fragment", [c[1:] for c in CONDITIONS],
                         ids=[c[0] for c in CONDITIONS])
def test_each_condition_raises_one_type(call, error, fragment, monkeypatch, capsys):
    if callable(call):
        with pytest.raises(error, match=re.escape(fragment)):
            call()
        return
    # the command's own function raises the type; main prints it, exit 2
    args = cli._commands()[call[0]].parse_args(call[1:])
    monkeypatch.setattr("sys.stdin", io.StringIO("Bw\n"))
    with pytest.raises(error, match=re.escape(fragment)):
        args.fn(args)
    monkeypatch.setattr("sys.stdin", io.StringIO("Bw\n"))
    assert cli.main(call) == 2
    assert capsys.readouterr() == ("", f"error: {fragment}\n")


def _raised_classes():
    """(module, enclosing function, class) for each `raise X` or
    `raise X(...)` in the package; a bare re-raise names no class."""
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(f"mycdist.{path.stem}")
        tree = ast.parse(path.read_text())
        parent = {child: node for node in ast.walk(tree)
                  for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            cls = getattr(module, exc.id, None) or getattr(builtins, exc.id)
            scope = node
            while scope in parent and not isinstance(scope, ast.FunctionDef):
                scope = parent[scope]
            yield path.stem, getattr(scope, "name", None), cls


def test_package_raises_only_its_own_errors():
    raised = list(_raised_classes())
    # the rainbow coloring always distinguishes, so the k loop never ends
    # without an answer; no input reaches this line
    unreachable = ("distinguishing", "distinguishing_number", AssertionError)
    foreign = [r for r in raised
               if r != unreachable and not issubclass(r[2], MycdistError)]
    assert foreign == []
    assert unreachable in raised
    declared = {cls for _, cls in inspect.getmembers(errors, inspect.isclass)
                if cls.__module__ == errors.__name__}
    assert declared - {cls for _, _, cls in raised} == set()
