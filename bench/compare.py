"""Diff two result documents: the perf trajectory is ``compare A B``.

Per workload x end-to-end metric: both medians, both spreads, the change
against the metric's bound, and a verdict by the choosing-metrics rules —

* ``regressed``: B's median is worse than A's by more than the bound, and
  the spread is inside the bound (or every B run is worse than every A run);
* ``improved``: at least ten paired repetitions, B wins nine tenths of them
  (ties count for neither) and the medians differ by more than A's own
  spread;
* ``unresolved``: the spread is wider than the bound and the runs overlap,
  so the data cannot tell unchanged from regressed;
* ``unchanged``: anything else.

The default three repetitions per document can show a regression but never
an improvement: on A/A runs three-for-three wins with a 0.2 % difference
happen.  A claim wants ``run --repetitions 10`` on both sides.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import List


MIN_PAIRS_FOR_A_GAIN = 10


@dataclass
class Row:
    workload: str
    metric: str
    unit: str
    median_a: float
    median_b: float
    spread_a: float  # share of the median
    spread_b: float
    worse_by: float  # share of A's median; positive = B worse
    bound: float
    n: int
    verdict: str


def spread(values: List[float]) -> float:
    """Interquartile distance (range below four values) as a share of the median."""
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return 0.0
    if len(values) < 4:
        return (max(values) - min(values)) / abs(median)
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(median)


def judge(a: List[float], b: List[float], better: str, bound: float) -> tuple:
    sign = 1.0 if better == "lower" else -1.0
    median_a, median_b = statistics.median(a), statistics.median(b)
    worse_by = sign * (median_b - median_a) / abs(median_a) if median_a else 0.0
    spread_a, spread_b = spread(a), spread(b)
    b_all_worse = min(sign * v for v in b) > max(sign * v for v in a)
    b_all_better = max(sign * v for v in b) < min(sign * v for v in a)
    wins = sum(1 for x, y in zip(a, b) if sign * y < sign * x)
    losses = sum(1 for x, y in zip(a, b) if sign * y > sign * x)
    wide = max(spread_a, spread_b) > bound
    if worse_by > bound:
        verdict = "unresolved" if wide and not b_all_worse else "regressed"
    elif (
        wins + losses >= MIN_PAIRS_FOR_A_GAIN
        and wins >= 0.9 * (wins + losses)
        and abs(median_b - median_a) > spread_a * abs(median_a)
    ):
        verdict = "improved"
    elif wide and not b_all_better:
        verdict = "unresolved"
    else:
        verdict = "unchanged"
    return worse_by, spread_a, spread_b, verdict


def compare(doc_a: dict, doc_b: dict) -> List[Row]:
    rows = []
    for workload, entry_a in doc_a["workloads"].items():
        entry_b = doc_b["workloads"].get(workload)
        if entry_b is None:
            continue
        for metric, a in entry_a["end_to_end"].items():
            b = entry_b["end_to_end"].get(metric)
            if b is None:
                continue
            worse_by, spread_a, spread_b, verdict = judge(
                a["values"], b["values"], a["better"], a["bound"]
            )
            rows.append(
                Row(workload, metric, a["unit"], a["median"], b["median"],
                    spread_a, spread_b, worse_by, a["bound"],
                    min(a["n"], b["n"]), verdict)
            )
        if entry_a["failed"] != entry_b["failed"]:
            rows.append(
                Row(workload, "failed", "count", entry_a["failed"], entry_b["failed"],
                    0.0, 0.0, 0.0, 0.0, 1,
                    "regressed" if entry_b["failed"] > entry_a["failed"] else "improved")
            )
    return rows


def render(rows: List[Row]) -> str:
    lines = [
        f"{'workload':15s} {'metric':18s} {'A median':>12s} {'B median':>12s} "
        f"{'unit':5s} {'spreadA':>8s} {'spreadB':>8s} {'B worse by':>10s} "
        f"{'bound':>6s} {'n':>3s}  verdict"
    ]
    for r in rows:
        lines.append(
            f"{r.workload:15s} {r.metric:18s} {r.median_a:12.4f} {r.median_b:12.4f} "
            f"{r.unit:5s} {r.spread_a:8.1%} {r.spread_b:8.1%} {r.worse_by:+10.1%} "
            f"{r.bound:6.0%} {r.n:3d}  {r.verdict}"
        )
    return "\n".join(lines)


def within_bounds(rows: List[Row]) -> bool:
    """A/A acceptance: no bounded metric moved by more than its bound in
    either direction (a bound of 0 marks an unbounded, report-only row)."""
    return all(abs(r.worse_by) <= r.bound for r in rows if r.bound > 0) and not any(
        r.metric == "failed" for r in rows
    )
