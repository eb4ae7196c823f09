#!/usr/bin/env python3
"""Compare two sets of campaign_bench runs.

    python3 benchmarks/campaign_bench/compare.py A.json B.json

``A.json`` and ``B.json`` are files ``run.py --out`` appended to: one
JSON line per (run, workload).  A is the base (the parent commit, or the
first of two sets of runs of one commit), B the candidate.  One row per
(workload, end-to-end metric): both medians over the runs, B as a ratio
of A with A's value beside it, the run-to-run spread of each side
(distance between the quartiles as a share of the median), and a verdict
against the bound ``BENCHMARK.json`` fixes for the metric:

* ``regressed``  — B's median is worse than A's by more than the bound;
* ``unresolved`` — it is not, but a side's spread is wider than the
  bound, so the runs cannot tell (unless every run of B reads better
  than every run of A);
* ``ok``         — otherwise.

Digests and exact counts that differ between the sets are listed below
the table.  Exit code 1 when any row regressed, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"

#: Per-layer counts that repeat exactly on one commit (ISSUE 11).
EXACT_COUNTS = (
    "sim.events", "sim.runs", "driver.runs_executed", "cache.hits", "cache.misses",
    "cache.stores", "beam.chains_explored", "beam.cycles_found",
)


def load_runs(path: str) -> Dict[str, List[Dict[str, Any]]]:
    """Workload name -> that workload's result objects, in file order."""
    runs: Dict[str, List[Dict[str, Any]]] = defaultdict(list)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                result = json.loads(line)
                runs[result["workload"]].append(result)
    return runs


def values(results: Sequence[Dict[str, Any]], section: str, metric: str) -> List[float]:
    out = []
    for result in results:
        entry = result.get(section, {}).get(metric)
        if entry is not None and entry["value"] is not None:
            out.append(entry["value"])
    return out


def spread(samples: Sequence[float]) -> Optional[float]:
    """Quartile distance as a share of the median; None below two samples."""
    if len(samples) < 2:
        return None
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return (q3 - q1) / statistics.median(samples)


def percent(share: Optional[float]) -> str:
    return "n/a" if share is None else "%.1f%%" % (100.0 * share)


def verdict(a: Sequence[float], b: Sequence[float], better: str, bound: float) -> str:
    base = statistics.median(a)
    worse = (statistics.median(b) - base) / base
    if better == "higher":
        worse = -worse
    if worse > bound:
        return "regressed"
    wide = any(s is not None and s > bound for s in (spread(a), spread(b)))
    b_always_better = max(b) < min(a) if better == "lower" else min(b) > max(a)
    if wide and not b_always_better:
        return "unresolved"
    return "ok"


def compare(
    a_runs: Dict[str, List[Dict[str, Any]]], b_runs: Dict[str, List[Dict[str, Any]]],
    declared: Sequence[Dict[str, Any]],
) -> Tuple[List[str], List[str], int]:
    """(table rows, exact-value differences, number of regressed rows)."""
    rows = [
        "%-18s %-20s %12s %12s  %-24s %8s %8s %6s  %s"
        % ("workload", "metric", "A median", "B median", "B / A (base A)",
           "spread A", "spread B", "bound", "verdict")
    ]
    regressed = 0
    differences: List[str] = []
    for workload in a_runs:
        if workload not in b_runs:
            differences.append("%s: only in A" % workload)
            continue
        for metric in declared:
            a = values(a_runs[workload], "end_to_end", metric["name"])
            b = values(b_runs[workload], "end_to_end", metric["name"])
            if not a or not b:
                continue
            word = verdict(a, b, metric["better"], metric["bound"])
            regressed += word == "regressed"
            base = statistics.median(a)
            rows.append(
                "%-18s %-20s %12.6g %12.6g  %-24s %8s %8s %5.0f%%  %s"
                % (workload, metric["name"], base, statistics.median(b),
                   "%.3fx of %.4g %s" % (statistics.median(b) / base, base, metric["unit"]),
                   percent(spread(a)), percent(spread(b)), 100.0 * metric["bound"], word)
            )
        digests = [{r["reference_digest"] for r in side[workload]} for side in (a_runs, b_runs)]
        if digests[0] != digests[1] or len(digests[0]) != 1:
            differences.append("%s: digests A %s, B %s" % (
                workload, *(",".join(sorted(d[:12] for d in ds)) for ds in digests)))
        for count in EXACT_COUNTS:
            seen = [set(values(side[workload], "per_layer", count)) for side in (a_runs, b_runs)]
            if seen[0] and seen[1] and (seen[0] != seen[1] or len(seen[0]) != 1):
                differences.append("%s: %s A %s, B %s" % (
                    workload, count, *(sorted(s) for s in seen)))
    differences.extend("%s: only in B" % w for w in b_runs if w not in a_runs)
    return rows, differences, regressed


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if len(args) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    declared = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))["end_to_end"]
    rows, differences, regressed = compare(load_runs(args[0]), load_runs(args[1]), declared)
    print("\n".join(rows))
    print("\nexact values (digests, counts): %s" % ("identical" if not differences else ""))
    for line in differences:
        print("  differs  " + line)
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
