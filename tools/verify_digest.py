"""Digest the standard verify sweeps: rows, report hash, search steps, wall time.

    PYTHONPATH=src python3 tools/verify_digest.py

Each sweep runs in process with one worker and the default budget: n <= 6
at t = 1, 2 and 3, n <= 5 at t = 2, n = 7 at t = 1, 2 and 3, and n <= 6
at t = 20. For each it prints the number of rows, the sha256 of the CSV
report, the summed Budget.used of every search the sweep ran (counted by
wrapping verify.Budget), the number of mu_t(G) rows that ran the
distinguishing DFS (the calls of verify.distinguishing_number: verify
answers dist(G) and every row whose root orbit has at most two points on
G's twin quotient, so only K_2's rows run it), the wall seconds and the
number of rows per method, so that a change of label shows even where
the values do not. Two commits whose sweeps print the same hashes wrote byte-identical
reports; the step sums and DFS rows compare the work their searches did.
"""

import hashlib
import pathlib
import sys
import time
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from mycdist import parse_graph6, verify  # noqa: E402

SWEEPS = [("n<=6", 6, 1), ("n<=6", 6, 2), ("n<=6", 6, 3), ("n<=5", 5, 2),
          ("n=7", 7, 1), ("n=7", 7, 2), ("n=7", 7, 3), ("n<=6", 6, 20)]


def corpus(name: str, max_n: int) -> list[str]:
    lines = (ROOT / "data" / name).read_text().split()
    return [ln for ln in lines if parse_graph6(ln).n <= max_n]


def main():
    budgets, searches = [], []
    plain, search = verify.Budget, verify.distinguishing_number

    def counted(limit):
        budget = plain(limit)
        budgets.append(budget)
        return budget

    def counted_search(*args, **kwargs):
        searches.append(1)
        return search(*args, **kwargs)

    verify.Budget, verify.distinguishing_number = counted, counted_search
    try:
        print(f"{'sweep':<6} {'t':>2} {'rows':>5} {'csv_sha256':<64} "
              f"{'budget_used':>11} {'dfs_rows':>8} {'wall_s':>7} methods")
        for label, max_n, t in SWEEPS:
            lines = corpus("graphs_n7.g6" if max_n == 7 else "graphs_n1_6.g6", max_n)
            budgets.clear()
            searches.clear()
            t0 = time.perf_counter()
            report = verify.run_verify(lines, [t])
            csv_text = verify.report_to_csv(report)
            wall = time.perf_counter() - t0
            digest = hashlib.sha256(csv_text.encode()).hexdigest()
            used = sum(b.used for b in budgets)
            methods = Counter(r.method for r in report.records)
            print(f"{label:<6} {t:>2} {len(report.records):>5} {digest} "
                  f"{used:>11} {len(searches):>8} {wall:>7.3f} "
                  + ",".join(f"{m}={c}" for m, c in sorted(methods.items())))
    finally:
        verify.Budget, verify.distinguishing_number = plain, search


if __name__ == "__main__":
    main()
