"""Write tests/golden/dist.jsonl: what `mycdist dist` prints for every
graph with n <= 7 and for mu_1 and mu_2 of every graph with n <= 5.

    PYTHONPATH=src python3 tools/make_dist_golden.py

Each line is the graph's graph6 string merged into the command's JSON
output. Run it only at a commit whose dist output is known good: the
test that reads the file treats it as correct.
"""

import contextlib
import io
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from mycdist import build_mycielskian, parse_graph6, write_graph6  # noqa: E402
from mycdist.cli import main as cli_main  # noqa: E402


def golden_graphs() -> list[str]:
    lines = []
    for name in ("graphs_n1_6.g6", "graphs_n7.g6"):
        lines += (ROOT / "data" / name).read_text().split()
    small = [g for g in map(parse_graph6, lines) if g.n <= 5]
    for t in (1, 2):
        lines += [write_graph6(build_mycielskian(g, t)[0]) for g in small]
    return lines


def dist_output(g6: str) -> dict:
    out = io.StringIO()
    stdin, sys.stdin = sys.stdin, io.StringIO(g6 + "\n")
    try:
        with contextlib.redirect_stdout(out):
            assert cli_main(["dist"]) == 0, g6
    finally:
        sys.stdin = stdin
    return json.loads(out.getvalue())


def main() -> int:
    path = ROOT / "tests" / "golden" / "dist.jsonl"
    path.parent.mkdir(exist_ok=True)
    records = [{"graph6": g6, **dist_output(g6)} for g6 in golden_graphs()]
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    print(f"wrote {len(records)} records to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
