"""E9: advisor scalability with workload size and database size.

The paper's motivation ("increasingly complex queries over increasingly
large ... XML databases") implies the advisor itself must stay cheap.
This benchmark measures end-to-end recommendation time as (a) the number
of workload statements grows and (b) the database scale grows, and prints
the series.  Expected shape: time grows roughly linearly in the workload
size and sub-linearly-to-linearly in the database size (statistics are
collected once; candidate counts depend on the workload, not the data).
"""

from __future__ import annotations

import time

from conftest import BENCH_SMOKE, MIN_SUMMARY_SPEEDUP, print_section

from repro.advisor.advisor import XmlIndexAdvisor
from repro.advisor.config import AdvisorParameters
from repro.executor.measurement import measure_scan_modes
from repro.tools.report import render_table
from repro.workloads.synthetic import SyntheticWorkloadGenerator
from repro.workloads.xmark import XMarkConfig, generate_xmark_database

WORKLOAD_SIZES = (5, 10) if BENCH_SMOKE else (5, 10, 20, 40)
DATABASE_SCALES = (0.05, 0.1) if BENCH_SMOKE else (0.05, 0.1, 0.25)
BUDGET_BYTES = 128 * 1024.0


def _advise(database, workload):
    advisor = XmlIndexAdvisor(database,
                              AdvisorParameters(disk_budget_bytes=BUDGET_BYTES))
    return advisor.recommend(workload)


def test_e9_workload_size_scaling(benchmark, xmark_db):
    generator = SyntheticWorkloadGenerator(xmark_db, seed=17)
    workloads = {size: generator.generate(size, predicates_per_query=2,
                                          name=f"synthetic-{size}")
                 for size in WORKLOAD_SIZES}

    def _sweep():
        rows = []
        for size, workload in workloads.items():
            start = time.perf_counter()
            recommendation = _advise(xmark_db, workload)
            elapsed = time.perf_counter() - start
            rows.append({"queries": size, "seconds": elapsed,
                         "candidates": len(recommendation.candidates),
                         "indexes": len(recommendation.configuration)})
        return rows

    rows = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    table = render_table(
        ["workload queries", "advisor time (s)", "candidates", "recommended indexes"],
        [[r["queries"], f"{r['seconds']:.3f}", r["candidates"], r["indexes"]]
         for r in rows])
    print_section("E9a - advisor time vs. workload size", table)
    # Candidate count grows with the workload; runtime stays tractable.
    assert rows[-1]["candidates"] >= rows[0]["candidates"]
    assert all(r["seconds"] < 60.0 for r in rows)


def test_e9_database_scale_scaling(benchmark, xmark_train):
    databases = {scale: generate_xmark_database(XMarkConfig(scale=scale, seed=42))
                 for scale in DATABASE_SCALES}

    def _sweep():
        rows = []
        for scale, database in databases.items():
            start = time.perf_counter()
            recommendation = _advise(database, xmark_train)
            elapsed = time.perf_counter() - start
            rows.append({"scale": scale,
                         "documents": database.statistics.document_count,
                         "elements": database.statistics.total_element_count,
                         "seconds": elapsed,
                         "improvement_pct": recommendation.improvement_percent()})
        return rows

    rows = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    table = render_table(
        ["scale", "documents", "elements", "advisor time (s)", "improvement %"],
        [[f"{r['scale']:.2f}", r["documents"], r["elements"], f"{r['seconds']:.3f}",
          f"{r['improvement_pct']:.1f}"] for r in rows])
    print_section("E9b - advisor time vs. database scale", table)
    assert all(r["seconds"] < 60.0 for r in rows)
    # Bigger databases benefit at least as much from indexing (scans cost more).
    assert rows[-1]["improvement_pct"] >= rows[0]["improvement_pct"] - 5.0


def test_e9_summary_speedup_scaling(benchmark, xmark_train):
    """Columnar engine scan speedup as the database scale grows.

    The interpretive scan re-walks every node tree once per location
    step, so its cost grows with total nodes; the engine answers the
    same predicates set-at-a-time from per-path postings.  Expected
    shape: the speedup holds (or grows) as the database gets bigger.
    """
    databases = {scale: generate_xmark_database(XMarkConfig(scale=scale, seed=42))
                 for scale in DATABASE_SCALES}

    def _sweep():
        rows = []
        for scale, database in databases.items():
            measurements = measure_scan_modes(database, xmark_train)
            interpretive = measurements["scan-interpretive"]
            engine = measurements["scan-engine"]
            rows.append({
                "scale": scale,
                "documents": database.statistics.document_count,
                "interpretive_ms": interpretive.total_seconds * 1000,
                "engine_ms": engine.total_seconds * 1000,
                "speedup": (interpretive.total_seconds / engine.total_seconds
                            if engine.total_seconds > 0 else float("inf")),
                "equal": all(a.result_count == b.result_count
                             for a, b in zip(interpretive.per_query,
                                             engine.per_query)),
            })
        return rows

    rows = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    table = render_table(
        ["scale", "documents", "interpretive (ms)", "engine (ms)", "speedup"],
        [[f"{r['scale']:.2f}", r["documents"], f"{r['interpretive_ms']:.1f}",
          f"{r['engine_ms']:.1f}", f"{r['speedup']:.2f}x"] for r in rows])
    print_section("E9c - engine scan speedup vs. database scale", table)
    assert all(r["equal"] for r in rows)
    # At the largest scale the engine must be a clear win.
    assert rows[-1]["speedup"] >= MIN_SUMMARY_SPEEDUP
