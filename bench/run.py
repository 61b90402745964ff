"""mycdist benchmark: run one workload in one process, print one JSON line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from src/ and the
corpora are read from data/. Workloads are defined in workloads.py.

--trace 0 runs round(S / pass time) whole passes, each under its own
labelling, with tracing off and reports the end-to-end metrics. Their
times are in reference seconds (see refclock.py); the raw seconds are
printed above the result. --trace 1 runs pass 0 untraced, then again
traced, and reports per-layer metrics from the traced pass, the tracing
overhead in reference seconds, and for sweeps the ten slowest records.
Every pass goes through the output gate.
The last line of stdout is {"correct", "attempted", "failed", "metrics"};
failed counts gated rows or commands, so failed / attempted is the failure
fraction. The exit code is 0 only when every output is correct.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_REPEATS = 7

END_TO_END = {
    "throughput_per_s": "1/s",
    "wall_s": "s",
    "latency_p50_ms": "ms",
    "latency_p80_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "distinguishing.search_self_s": "s",
    "distinguishing.calls": "count",
    "distinguishing.budget_steps": "count",
    "distinguishing.k_levels": "count",
    "automorphism.listing_s": "s",
    "automorphism.listing_calls": "count",
    "automorphism.listing_elements": "count",
    "automorphism.listing_aborted": "count",
    "automorphism.listing_wasted_s": "s",
    "automorphism.listing_kept_ratio": "ratio",
    "automorphism.orbit_s": "s",
    "automorphism.color_preserving_s": "s",
    "cli.aut_self_s": "s",
    "cli.check_coloring_self_s": "s",
    "graph6.parse_s": "s",
    "graph6.write_s": "s",
    "mycielskian.build_s": "s",
    "mycielskian.vertices": "count",
    "constructions.predict_s": "s",
    "verify.record_self_s": "s",
    "verify.report_s": "s",
    "latency.samples": "count",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


def percentile(sorted_values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile.

    A Beta((n+1)q, (n+1)(1-q))-weighted mean of all order statistics (weights
    by the midpoint rule). Where items are sparse, as near the top of a
    sweep, it moves smoothly instead of jumping from one item to the next.
    """
    n = len(sorted_values)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    logw = [(a - 1) * math.log((i + 0.5) / n) + (b - 1) * math.log(1 - (i + 0.5) / n)
            for i in range(n)]
    top = max(logw)
    weights = [math.exp(x - top) for x in logw]
    return sum(w * v for w, v in zip(weights, sorted_values)) / sum(weights)


def cold_import_s() -> float:
    """Import time of the package in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import mycdist.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout)


def install_tracing(tracer):
    """Wrap each layer at the module attribute its caller looks up."""
    from mycdist import cli, distinguishing, verify
    from mycdist.automorphism import Budget
    from spans import INFO, NAME

    def after_dist(span, args, kwargs, result, error):
        budget = kwargs.get("budget")
        span[INFO]["steps"] = budget.used if isinstance(budget, Budget) else 0
        if error is None and args[0].n:
            lowest = max(distinguishing.twin_lower_bound(args[0]), 1)
            span[INFO]["k_levels"] = result.value - lowest + 1

    def after_listing(span, args, kwargs, result, error):
        span[INFO]["n"] = args[0].n
        if error is None:
            span[INFO]["elements"] = len(result)
        else:
            span[INFO]["aborted"] = True

    def after_build(span, args, kwargs, result, error):
        if error is None:
            span[INFO]["vertices"] = result[0].n

    def after_main(span, args, kwargs, result, error):
        span[NAME] = "cli." + args[0][0].replace("-", "_")

    for module, attr, name, after in (
            (verify, "parse_graph6", "graph6.parse", None),
            (verify, "write_graph6", "graph6.write", None),
            (verify, "build_mycielskian", "mycielskian.build", after_build),
            (verify, "orbit_of", "automorphism.orbit", None),
            (verify, "distinguishing_number", "distinguishing.search", after_dist),
            (verify, "predict_dist", "constructions.predict", None),
            (distinguishing, "enumerate_automorphisms", "automorphism.listing",
             after_listing),
            (cli, "enumerate_automorphisms", "automorphism.listing", after_listing),
            (cli, "search_color_preserving", "automorphism.color_preserving", None),
            (cli, "main", "cli.main", after_main)):
        tracer.wrap(module, attr, name, after)


def layer_metrics(spans: list[list]) -> dict[str, float]:
    from spans import END, INFO, NAME, START, self_times

    dur: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    count: dict[str, float] = {}
    wasted = 0.0
    for s, self_s in zip(spans, self_times(spans)):
        name = s[NAME]
        dur[name] = dur.get(name, 0.0) + s[END] - s[START]
        own[name] = own.get(name, 0.0) + self_s
        calls[name] = calls.get(name, 0) + 1
        for key, val in (s[INFO] or {}).items():
            count[f"{name}.{key}"] = count.get(f"{name}.{key}", 0) + val
        if (s[INFO] or {}).get("aborted"):
            wasted += s[END] - s[START]
    listings = calls.get("automorphism.listing", 0)
    aborted = count.get("automorphism.listing.aborted", 0)
    return {
        "distinguishing.search_self_s": own.get("distinguishing.search", 0.0),
        "distinguishing.calls": calls.get("distinguishing.search", 0),
        "distinguishing.budget_steps": count.get("distinguishing.search.steps", 0),
        "distinguishing.k_levels": count.get("distinguishing.search.k_levels", 0),
        "automorphism.listing_s": dur.get("automorphism.listing", 0.0),
        "automorphism.listing_calls": listings,
        "automorphism.listing_elements": count.get("automorphism.listing.elements", 0),
        "automorphism.listing_aborted": aborted,
        "automorphism.listing_wasted_s": wasted,
        "automorphism.listing_kept_ratio": (listings - aborted) / listings if listings else 0.0,
        "automorphism.orbit_s": dur.get("automorphism.orbit", 0.0),
        "automorphism.color_preserving_s": dur.get("automorphism.color_preserving", 0.0),
        "cli.aut_self_s": own.get("cli.aut", 0.0),
        "cli.check_coloring_self_s": own.get("cli.check_coloring", 0.0),
        "graph6.parse_s": dur.get("graph6.parse", 0.0),
        "graph6.write_s": dur.get("graph6.write", 0.0),
        "mycielskian.build_s": dur.get("mycielskian.build", 0.0),
        "mycielskian.vertices": count.get("mycielskian.build.vertices", 0),
        "constructions.predict_s": dur.get("constructions.predict", 0.0),
        "verify.record_self_s": own.get("verify.record", 0.0),
        "verify.report_s": dur.get("verify.report", 0.0),
        "trace.spans": len(spans),
    }


def heavy_tail(spans, items, untraced_latencies) -> list[str]:
    """The slowest records of a sweep, with what their searches did."""
    from spans import END, INFO, NAME, RID, START

    per: dict[str, dict] = {}
    for s in spans:
        rec = per.setdefault(s[RID], {"steps": 0, "mu_n": None, "listings": []})
        info = s[INFO] or {}
        if s[NAME] == "verify.record":
            rec["traced_s"] = s[END] - s[START]
        elif s[NAME] == "distinguishing.search":
            rec["steps"] += info.get("steps", 0)
        elif s[NAME] == "mycielskian.build":
            rec["mu_n"] = info.get("vertices")
        elif s[NAME] == "automorphism.listing":
            rec["listings"].append(info)
    ranked = sorted(zip(untraced_latencies, items), key=lambda p: -p[0])[:10]
    lines = [f"{'#':>2} {'index':>5} {'graph6':<8} {'t':>1} {'wall_s':>8} {'traced_s':>8} "
             f"{'budget_steps':>12} {'mu_n':>4} {'|Aut(mu)|':>9} aborted"]
    for rank, (lat, item) in enumerate(ranked, 1):
        rec = per.get(item.key, {"steps": 0, "mu_n": None, "listings": []})
        mu = [x for x in rec["listings"] if x.get("n") == rec["mu_n"]]
        aborted = any(x.get("aborted") for x in mu)
        order = ">cap" if aborted else (str(mu[0]["elements"]) if mu else "-")
        lines.append(f"{rank:>2} {item.index:>5} {item.line:<8} {item.t:>1} {lat:>8.3f} "
                     f"{rec.get('traced_s', 0.0):>8.3f} {rec['steps']:>12} "
                     f"{rec['mu_n'] or '-':>4} {order:>9} {'yes' if aborted else 'no'}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if not (SRC / "mycdist" / "__init__.py").is_file() or not (ROOT / "data").is_dir():
        print(f"error: no src/mycdist or data/ under {ROOT}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads as wl
    from refclock import ReferenceClock
    from spans import Tracer

    w = wl.WORKLOADS.get(args.workload)
    if w is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(wl.WORKLOADS)}", file=sys.stderr)
        return 2

    passes = 1 if args.trace else w.passes(args.seconds)
    clock = ReferenceClock()
    setups = []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        imported = cold_import_s()
        t0 = time.perf_counter()
        graphs = wl.read_corpus(w)
        inputs = [wl.pass_items(w, graphs, args.seed, k, passes) for k in range(passes)]
        setups.append(imported + time.perf_counter() - t0)
        clock.sample()
    gate = wl.Gate(w)
    exact = args.seed == 0

    attempted = failed = 0
    results = []
    for items in inputs:
        gc.collect()
        res = wl.run_pass(w, items, clock=clock)
        attempted += len(items)
        failed += len(gate.failures(res, exact))
        results.append(res)

    items = inputs[0]
    print(f"workload {w.name} seed {args.seed} passes {passes} "
          f"items/pass {len(items)} trace {args.trace}")
    if args.trace:
        tracer, traced_clock = Tracer(), ReferenceClock()
        install_tracing(tracer)
        gc.collect()
        try:
            traced = wl.run_pass(w, items, tracer, traced_clock)
        finally:
            tracer.restore()
        attempted += len(items)
        failed += len(gate.failures(traced, exact))
        metrics = layer_metrics(tracer.spans)
        metrics["latency.samples"] = len(items)
        metrics["trace.overhead_s"] = (traced.wall_s * traced_clock.scale()
                                       - results[0].wall_s * clock.scale())
        units = PER_LAYER
        if w.is_sweep:
            print("ten slowest records (wall_s untraced, traced_s traced; "
                  "|Aut(mu)| is '>cap' when the capped listing aborted):")
            print("\n".join(heavy_tail(tracer.spans, items, results[0].latencies)))
    else:
        scale = clock.scale()
        lat = sorted(map(statistics.fmean, zip(*(r.latencies for r in results))))
        wall = statistics.fmean(r.wall_s for r in results)
        setup = statistics.median(setups)
        p50, p80 = percentile(lat, 0.50), percentile(lat, 0.80)
        metrics = {
            "throughput_per_s": len(items) / (wall * scale),
            "wall_s": wall * scale,
            "latency_p50_ms": p50 * scale * 1e3,
            "latency_p80_ms": p80 * scale * 1e3,
            "setup_s": setup * scale,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
        beyond = len(lat) - math.ceil(0.80 * len(lat))
        print(f"latency percentiles over {len(lat)} per-item means of {passes} passes; "
              f"{beyond} lie above p80")
        print(f"raw seconds: wall_s {wall:.6f} setup_s {setup:.6f} "
              f"latency_p50_ms {p50 * 1e3:.6f} latency_p80_ms {p80 * 1e3:.6f}")
        print(f"reference scale {scale:.6f} from {len(clock.samples)} kernel samples")

    for name, value in metrics.items():
        print(f"  {name:<36} {value:>16.6f} {units[name]}")
    print(f"  failed {failed} of {attempted} (failed_frac {failed / attempted:.6f})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
