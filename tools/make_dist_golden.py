"""Write the CLI goldens under tests/golden:

* dist.jsonl: what `mycdist dist` prints for every graph with n <= 7 and
  for mu_1 and mu_2 of every graph with n <= 5;
* coloring.jsonl: what `mycdist coloring --t 1,2,3` does on every graph
  with n <= 5, and `--t 2,3` on K_1, whose t = 1 case has no coloring;
* myc.jsonl: what `mycdist myc --t 1,2` does on every graph with n <= 5,
  read and written as graph6 and as an edge list;
* verify.csv: what `mycdist verify data/graphs_n1_6.g6 --t 1,2,3 --out csv`
  prints, byte for byte.

    PYTHONPATH=src python3 tools/make_dist_golden.py

Each dist.jsonl line is the graph's graph6 string merged into the
command's JSON output. Each coloring.jsonl and myc.jsonl line is one
command: its stdin, argv, exit code, the JSON documents it printed and
its stderr, so the cases with no paper coloring are pinned along with
the colorings. Run it only at a commit whose output is known good: the tests
that read the files treat them as correct.
"""

import contextlib
import io
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from mycdist import (build_mycielskian, parse_graph6, write_edge_list,  # noqa: E402
                     write_graph6)
from mycdist.cli import main as cli_main  # noqa: E402

T_LIST = ["--t", "1,2,3"]
VERIFY_ARGV = ["verify", str(ROOT / "data" / "graphs_n1_6.g6"), *T_LIST, "--out", "csv"]


def corpus(max_n: int) -> list[str]:
    lines = []
    for name in ("graphs_n1_6.g6", "graphs_n7.g6"):
        lines += (ROOT / "data" / name).read_text().split()
    return [ln for ln in lines if parse_graph6(ln).n <= max_n]


def golden_graphs() -> list[str]:
    lines = corpus(7)
    small = [parse_graph6(ln) for ln in corpus(5)]
    for t in (1, 2):
        lines += [write_graph6(build_mycielskian(g, t)[0]) for g in small]
    return lines


def run_cli(argv: list[str], stdin_text: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    stdin, sys.stdin = sys.stdin, io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(argv)
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


def json_docs(text: str) -> list:
    """The JSON documents printed one after another in text."""
    dec = json.JSONDecoder()
    docs, idx = [], 0
    while idx < len(text):
        if text[idx].isspace():
            idx += 1
            continue
        doc, idx = dec.raw_decode(text, idx)
        docs.append(doc)
    return docs


def dist_output(g6: str) -> dict:
    code, out, _ = run_cli(["dist"], g6 + "\n")
    assert code == 0, g6
    return json.loads(out)


def coloring_commands() -> list[tuple[str, list[str]]]:
    """(stdin, argv) of each pinned `coloring` command."""
    cmds = [(g6 + "\n", ["coloring", *T_LIST]) for g6 in corpus(5)]
    # K1_tgt1, past the K1_t1 case that stops --t 1,2,3
    return cmds + [("@\n", ["coloring", "--t", "2,3"])]


def myc_commands() -> list[tuple[str, list[str]]]:
    """(stdin, argv) of each pinned `myc` command."""
    cmds = []
    for g6 in corpus(5):
        cmds.append((g6 + "\n", ["myc", "--t", "1,2"]))
        cmds.append((write_edge_list(parse_graph6(g6)),
                     ["myc", "--format", "edges", "--t", "1,2"]))
    return cmds


def command_record(stdin_text: str, argv: list[str]) -> dict:
    code, out, err = run_cli(argv, stdin_text)
    return {"stdin": stdin_text, "argv": argv, "exit": code,
            "stdout": json_docs(out), "stderr": err}


def write_jsonl(path: pathlib.Path, records: list[dict], **dumps_kw):
    path.parent.mkdir(exist_ok=True)
    path.write_text("".join(json.dumps(r, **dumps_kw) + "\n" for r in records))
    print(f"wrote {len(records)} records to {path}")


def main() -> int:
    golden = ROOT / "tests" / "golden"
    write_jsonl(golden / "dist.jsonl",
                [{"graph6": g6, **dist_output(g6)} for g6 in golden_graphs()])
    write_jsonl(golden / "coloring.jsonl",
                [command_record(*cmd) for cmd in coloring_commands()],
                separators=(",", ":"))
    write_jsonl(golden / "myc.jsonl",
                [command_record(*cmd) for cmd in myc_commands()],
                separators=(",", ":"))
    code, out, _ = run_cli(VERIFY_ARGV, "")
    assert code == 0
    path = golden / "verify.csv"
    path.write_text(out)
    print(f"wrote {len(out.splitlines())} lines to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
