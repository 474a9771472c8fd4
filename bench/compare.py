"""Compare two records written by ``python3 -m bench --record``.

``python3 -m bench.compare A.json B.json`` prints, per workload and
metric, both medians with min/max, how much worse B is than A, the
metric's bound and a verdict: ``regression`` when B's median is worse
than A's by more than the bound, ``unresolved`` when it is not but either
side's run-to-run spread (interquartile range over median) is wider than
the bound, otherwise ``ok``.  Per-layer metrics have no bound and are
listed for information.  The exit status is non-zero on any regression.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Dict, List, Optional

from bench.run import load_spec


def spread(values: List[float]) -> float:
    """Interquartile range as a share of the median (0 for one value)."""
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / abs(median)


def worsening(before: float, after: float, better: str) -> float:
    """By what share of ``before`` the value got worse (negative: better)."""
    if before == 0:
        return 0.0
    change = (after - before) / abs(before)
    return change if better == "lower" else -change


def compare(record_a: dict, record_b: dict, spec: dict) -> List[dict]:
    """One row per workload and metric present in both records."""
    rows: List[dict] = []
    for workload, entry_a in record_a["workloads"].items():
        entry_b = record_b["workloads"].get(workload)
        if entry_b is None:
            continue
        for kind in ("end_to_end", "per_layer"):
            for metric in spec[kind]:
                name = metric["name"]
                if name not in entry_a[kind] or name not in entry_b[kind]:
                    continue
                a = entry_a[kind][name]["values"]
                b = entry_b[kind][name]["values"]
                worse = worsening(statistics.median(a), statistics.median(b),
                                  metric["better"])
                bound: Optional[float] = metric.get("bound")
                if bound is None:
                    verdict = "info"
                elif worse > bound:
                    verdict = "regression"
                elif max(spread(a), spread(b)) > bound:
                    verdict = "unresolved"
                else:
                    verdict = "ok"
                rows.append({"workload": workload, "metric": name,
                             "unit": metric["unit"], "a": a, "b": b,
                             "worse": worse, "bound": bound,
                             "verdict": verdict})
    return rows


def _side(values: List[float]) -> str:
    return (f"{statistics.median(values):>12.5g} "
            f"[{min(values):.5g}..{max(values):.5g}]")


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    records: List[Dict] = []
    for path in argv:
        with open(path, encoding="utf-8") as handle:
            records.append(json.load(handle))
    rows = compare(records[0], records[1], load_spec())
    workload = None
    for row in rows:
        if row["workload"] != workload:
            workload = row["workload"]
            print(f"== {workload}")
        bound = "" if row["bound"] is None else f"bound {row['bound']:.0%}"
        print(f"{row['metric']:36s} {row['unit']:6s} A {_side(row['a'])}  "
              f"B {_side(row['b'])}  worse {row['worse']:+8.2%} {bound:10s} "
              f"{row['verdict']}")
    regressions = [row for row in rows if row["verdict"] == "regression"]
    unresolved = [row for row in rows if row["verdict"] == "unresolved"]
    print(f"{len(regressions)} regression(s), {len(unresolved)} unresolved, "
          f"{sum(row['verdict'] == 'ok' for row in rows)} ok")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
