"""E5 (demo final step): create the recommended indexes and execute.

"Finally, the tool allows the user to review the final recommended index
configuration and to create it.  The actual execution time taken by the
queries can then be displayed."  This benchmark creates the recommended
indexes as physical structures and runs the workload twice -- without and
with them -- reporting wall-clock time, documents examined, and index
entries touched.

Expected shape: the indexed run touches far fewer documents and is faster,
and both runs return identical results.
"""

from __future__ import annotations

from conftest import MIN_SUMMARY_SPEEDUP, print_section

from repro.advisor.advisor import XmlIndexAdvisor
from repro.advisor.config import AdvisorParameters
from repro.executor.measurement import measure_scan_modes, measure_workload
from repro.tools.report import render_table


def _recommend(database, workload):
    advisor = XmlIndexAdvisor(database,
                              AdvisorParameters(disk_budget_bytes=192 * 1024))
    return advisor.recommend(workload)


def test_e5_actual_execution(benchmark, xmark_db, xmark_train):
    recommendation = _recommend(xmark_db, xmark_train)

    def _run():
        return measure_workload(xmark_db, recommendation.queries,
                                recommendation.configuration)

    measurements = benchmark.pedantic(_run, rounds=3, iterations=1)
    baseline = measurements["no-indexes"]
    indexed = measurements["recommended"]
    speedup = (baseline.total_seconds / indexed.total_seconds
               if indexed.total_seconds > 0 else float("inf"))
    table = render_table(
        ["run", "wall time (ms)", "docs examined", "index entries", "queries using indexes"],
        [[baseline.label, f"{baseline.total_seconds * 1000:.1f}",
          baseline.documents_examined, baseline.index_entries_scanned,
          baseline.queries_using_indexes],
         [indexed.label, f"{indexed.total_seconds * 1000:.1f}",
          indexed.documents_examined, indexed.index_entries_scanned,
          indexed.queries_using_indexes]])
    per_query = render_table(
        ["query", "scan docs", "indexed docs", "results equal"],
        [[b.query_id, b.documents_examined, i.documents_examined,
          "yes" if b.result_count == i.result_count else "NO"]
         for b, i in zip(baseline.per_query, indexed.per_query)])
    print_section(
        "E5 - actual execution with the recommended indexes",
        recommendation.describe() + "\n\n" + table
        + f"\n\nactual wall-clock speedup: {speedup:.2f}x\n\n" + per_query)

    assert indexed.queries_using_indexes > 0
    assert indexed.documents_examined < baseline.documents_examined
    for base_row, indexed_row in zip(baseline.per_query, indexed.per_query):
        assert base_row.result_count == indexed_row.result_count


def test_e5_scan_vs_structural_summary(benchmark, xmark_db, xmark_train):
    """Document scans answered by the columnar engine vs. the
    per-document XPath interpreter (no indexes in either run)."""

    def _run():
        return measure_scan_modes(xmark_db, xmark_train)

    measurements = benchmark.pedantic(_run, rounds=3, iterations=1)
    interpretive = measurements["scan-interpretive"]
    engine = measurements["scan-engine"]
    speedup = (interpretive.total_seconds / engine.total_seconds
               if engine.total_seconds > 0 else float("inf"))
    table = render_table(
        ["scan engine", "wall time (ms)", "docs examined"],
        [[interpretive.label, f"{interpretive.total_seconds * 1000:.1f}",
          interpretive.documents_examined],
         [engine.label, f"{engine.total_seconds * 1000:.1f}",
          engine.documents_examined]])
    print_section(
        "E5b - document scan: interpreter vs columnar engine",
        table + f"\n\nengine scan speedup: {speedup:.2f}x")

    # Identical result counts query by query, and a large speedup: the
    # engine answers predicates set-at-a-time from the store's postings
    # instead of re-walking every node tree once per location step.
    for interp_row, engine_row in zip(interpretive.per_query, engine.per_query):
        assert interp_row.result_count == engine_row.result_count
    assert interpretive.documents_examined == engine.documents_examined
    assert speedup >= MIN_SUMMARY_SPEEDUP
