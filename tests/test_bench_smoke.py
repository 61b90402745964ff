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


# the sweep builds the chain of G's twin quotient for each of its 52
# records, and mu_2's chain for K_2 alone, whose root orbit has more than
# two points; the other stars read theirs with orbit_of, with no chain
@pytest.mark.parametrize("workload, listings", [("sweep_n5_t2", 53),
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


# every column of tools/verify_digest.py but wall_s: the sweep, t, rows,
# the CSV report's sha256, the summed budget steps, the DFS rows and the
# rows per method
DIGEST = [
    ("n<=6", "1", "208", "583d417eee79c9b40b466588c1b186ebd750246e1721a69b16ab7b2e12d20726",
     "1685", "1", "search=208"),
    ("n<=6", "2", "208", "98fb1152a97586da25c10876d0e40cdce1970f33ea644291f4e05ae32573a4f8",
     "1669", "1", "search=208"),
    ("n<=6", "3", "208", "dd6aade57bccd8babcf073ee1dcd30c26f09352dc752e7e040e9eb2bde5ec8b4",
     "1667", "1", "search=208"),
    ("n<=5", "2", "52", "39bc725f3a7d493685d321a5e1e68a54b40041d08b9bf8f4494615c5dc35b307",
     "363", "1", "search=52"),
    ("n=7", "1", "1044", "50373ac21fe07690d065fc99284dd69393d7302bc85ed7bdb4adfe0399e6ccc8",
     "7902", "0", "search=1044"),
    ("n=7", "2", "1044", "4a3785db0837e7cbf626057cbadf4ee1648f526333b3645f21e217a69b21e3a1",
     "7898", "0", "search=1044"),
    ("n=7", "3", "1044", "376178d4526c6a9cd90e99875e60954d16fc9fa49af6c76189f470c7ece0b623",
     "7875", "0", "search=1044"),
    ("n<=6", "20", "208", "20907d5d225e51edf6ae5d30ae18aa4b6ebffbae497a7742e03e0a299c175173",
     "1736", "1", "search=208"),
]


def test_verify_digest_is_pinned():
    """tools/verify_digest.py counts steps and DFS rows by wrapping
    verify.Budget and verify.distinguishing_number; if the sweep stopped
    looking either up, its counts would drop with no error."""
    proc = subprocess.run([sys.executable, "tools/verify_digest.py"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert header.split() == ["sweep", "t", "rows", "csv_sha256", "budget_used",
                              "dfs_rows", "wall_s", "methods"]
    assert [tuple(row.split()[:6] + row.split()[7:]) for row in rows] == DIGEST
