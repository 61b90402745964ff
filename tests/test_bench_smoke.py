"""The bench's traced run, end to end on its smallest sweep and on the
CLI workload.

`bench/run.py --trace 1` wraps package attributes by name, so a renamed
or removed attribute, or a result that no longer answers len(), fails it
with an AttributeError or TypeError. The sweep wraps the distinguishing
search's listing; the CLI workload wraps `cli.enumerate_automorphisms`
and `cli.search_color_preserving`. The bench's own tests do not start a
traced run. `tools/ab_inprocess.py` reads `bench/workloads.py` and
`bench/run.py`'s `percentile`, so it is run here too, on one tree against
itself. `tools/code_lines.py` is checked on a module whose code lines are
known, and on the package.
"""

import json
import pathlib
import subprocess
import sys

import pytest

from .support import source_tree_env

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload, listings", [("sweep_n5_t2", 104),
                                                ("cli_n7", 1044)],
                         ids=["sweep_n5_t2", "cli_n7"])
def test_traced_bench_run_passes_its_gate(workload, listings):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, env=source_tree_env(),
        timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["metrics"]["automorphism.listing_calls"]["value"] == listings


def test_ab_inprocess_compares_a_tree_with_itself():
    proc = subprocess.run(
        [sys.executable, "tools/ab_inprocess.py", "src", "src",
         "--workload", "sweep_n5_t2", "--pairs", "2"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    printed = [line.split()[0] for line in proc.stdout.splitlines()[1:]]
    assert printed == ["throughput_per_s", "latency_p50_ms", "latency_p80_ms"]


def _code_lines(*args):
    proc = subprocess.run([sys.executable, "tools/code_lines.py", *map(str, args)],
                          cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return [tuple(line.split()) for line in proc.stdout.splitlines()]


def test_code_lines_skips_blanks_comments_and_docstrings(tmp_path):
    (tmp_path / "mod.py").write_text(
        '"""Module docstring\n\nover three lines."""\n'
        "\n"
        "# a comment\n"
        "import os  # a trailing comment leaves a code line\n"
        "\n"
        "\n"
        "def f(x):\n"
        '    """One line."""\n'
        "    # an indented comment\n"
        '    s = """a string, not a docstring,\n'
        '    over two lines"""\n'
        "    return s\n"
        "\n"
        "\n"
        "class C:\n"
        "    '''Class\n"
        "    docstring.'''\n"
        "    y = 1\n")
    (tmp_path / "empty.py").write_text("")
    assert _code_lines(tmp_path) == [("empty.py", "0"), ("mod.py", "7"),
                                     ("total", "7")]


def test_code_lines_total_is_the_sum_of_the_modules():
    rows = _code_lines()
    *modules, (label, total) = rows
    assert label == "total"
    assert [name for name, _ in modules] == sorted(
        p.name for p in (ROOT / "src" / "mycdist").glob("*.py"))
    assert int(total) == sum(int(count) for _, count in modules) > 0
