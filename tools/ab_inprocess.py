"""Compare two source trees on one bench workload, in one process.

    python3 tools/ab_inprocess.py SRC_A SRC_B --workload W --pairs N [--seed S]

SRC_A and SRC_B are checkouts (or their src/ directories). Each tree is
imported as its own copy of the mycdist package, and the bench's items for
one pass (bench/workloads.py, read and not edited: seed S, default 1, pass
0 of a --seconds 30 run) are replayed through each in turn. Pair i runs A
first on even i and B first on odd i, so drift of the machine falls on both
sides alike. Every pass must print the same outputs on both sides (the CLI's
exit codes and bytes, or a sweep's CSV report); the tool stops on the first
difference. It prints, for throughput (items per second of program time)
and for the item latency's 50th and 80th percentiles (bench/run.py's
estimate, over the items of one pass), each side's median and
interquartile range, B's median gain over A and the pairs B won.

Running both sides in one process shares the interpreter, the allocator
and the machine's state between them, which the alternating bench runs
cannot; its numbers are raw seconds, with no reference clock.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH_SECONDS = 30


def _src_dir(path: str) -> Path:
    p = Path(path).resolve()
    for cand in (p / "src", p):
        if (cand / "mycdist" / "__init__.py").is_file():
            return cand
    raise SystemExit(f"error: no mycdist package under {p}")


def _unload() -> dict:
    """Remove the loaded mycdist modules from sys.modules; return them."""
    mods = {m: mod for m, mod in sys.modules.items()
            if m == "mycdist" or m.startswith("mycdist.")}
    for name in mods:
        del sys.modules[name]
    return mods


def _load(src: Path) -> dict:
    """Import the tree at src as mycdist, with the modules the bench
    imports at run time; return its modules, unloaded."""
    _unload()
    sys.path.insert(0, str(src))
    try:
        for name in ("mycdist", "mycdist.cli", "mycdist.verify"):
            importlib.import_module(name)
    finally:
        sys.path.remove(str(src))
    return _unload()


def _use(mods: dict):
    """Make `import mycdist` resolve to one loaded tree."""
    _unload()
    sys.modules.update(mods)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("src_a")
    ap.add_argument("src_b")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=20)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2")

    sys.path.insert(0, str(ROOT / "bench"))
    import workloads as wl
    from run import percentile

    w = wl.WORKLOADS.get(args.workload)
    if w is None:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(wl.WORKLOADS)}")
    sides = {"A": _load(_src_dir(args.src_a)), "B": _load(_src_dir(args.src_b))}
    _use(sides["A"])
    items = wl.pass_items(w, wl.read_corpus(w), args.seed, 0, w.passes(BENCH_SECONDS))

    def run(side: str):
        _use(sides[side])
        gc.collect()
        res = wl.run_pass(w, items)
        return res, (res.report if w.is_sweep else res.outputs)

    for side in sides:  # warm both sides; one pass each
        run(side)
    thr: dict[str, list[float]] = {"A": [], "B": []}
    p50: dict[str, list[float]] = {"A": [], "B": []}
    p80: dict[str, list[float]] = {"A": [], "B": []}
    for i in range(args.pairs):
        out = {}
        for side in ("AB" if i % 2 == 0 else "BA"):
            res, out[side] = run(side)
            thr[side].append(len(items) / res.wall_s)
            lat = sorted(res.latencies)
            p50[side].append(percentile(lat, 0.50) * 1e3)
            p80[side].append(percentile(lat, 0.80) * 1e3)
        if out["A"] != out["B"]:
            print(f"error: the trees print different outputs on pair {i}", file=sys.stderr)
            return 1

    print(f"workload {w.name} seed {args.seed} items/pass {len(items)} pairs {args.pairs}")
    for name, vals, higher in (("throughput_per_s", thr, True),
                               ("latency_p50_ms", p50, False),
                               ("latency_p80_ms", p80, False)):
        a1, a2, a3 = statistics.quantiles(vals["A"], n=4, method="inclusive")
        b1, b2, b3 = statistics.quantiles(vals["B"], n=4, method="inclusive")
        won = sum((b > a) == higher and b != a for a, b in zip(vals["A"], vals["B"]))
        gain = (b2 / a2 - 1) if higher else (1 - b2 / a2)
        print(f"  {name:<17} A median {a2:10.4f} iqr {a3 - a1:9.4f}   "
              f"B median {b2:10.4f} iqr {b3 - b1:9.4f}   "
              f"B better by {gain:+.1%}, won {won}/{args.pairs}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
