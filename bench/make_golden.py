"""Write the golden output of every workload at seed 0 into bench/golden/.

    python3 bench/make_golden.py [WORKLOAD ...]

Run it only at a commit whose output is known good: the benchmark's gate
treats whatever this writes as correct.
"""

from __future__ import annotations

import sys

import workloads as wl

sys.path.insert(0, str(wl.ROOT / "src"))


def main(names: list[str]) -> int:
    wl.GOLDEN.mkdir(exist_ok=True)
    for name in names or list(wl.WORKLOADS):
        w = wl.WORKLOADS[name]
        items = wl.pass_items(w, wl.read_corpus(w), 0, 0, 1)
        res = wl.run_pass(w, items)
        wl.golden_path(w).write_text(wl.golden_text(w, res, items))
        print(f"{name}: {len(items)} items, {res.wall_s:.1f} s -> {wl.golden_path(w)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
