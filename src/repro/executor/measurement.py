"""Workload-level execution measurement (experiment E5).

Runs a normalized workload twice -- without indexes and with a given
index configuration materialized -- and reports the aggregate work done
in each case, so the "actual execution time" step of the demonstration
can be reproduced as a table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Union

from repro.executor.executor import ExecutionResult, QueryExecutor
from repro.index.definition import IndexConfiguration, IndexDefinition
from repro.storage.document_store import XmlDatabase
from repro.telemetry import wall_clock
from repro.xquery.model import NormalizedQuery, Workload
from repro.xquery.normalizer import normalize_workload


@dataclass
class WorkloadMeasurement:
    """Aggregate execution metrics for one workload run."""

    label: str
    total_seconds: float
    documents_examined: int
    index_entries_scanned: int
    queries_using_indexes: int
    per_query: List[ExecutionResult] = field(default_factory=list)

    @property
    def query_count(self) -> int:
        return len(self.per_query)

    def describe(self) -> str:
        return (f"{self.label}: {self.query_count} queries in "
                f"{self.total_seconds * 1000:.1f} ms, "
                f"{self.documents_examined} docs examined, "
                f"{self.index_entries_scanned} index entries, "
                f"{self.queries_using_indexes} queries used indexes")


def _run(executor: QueryExecutor, queries: Sequence[NormalizedQuery],
         label: str) -> WorkloadMeasurement:
    start = wall_clock()
    results = executor.execute_workload(queries)
    elapsed = wall_clock() - start
    return WorkloadMeasurement(
        label=label,
        total_seconds=elapsed,
        documents_examined=sum(r.documents_examined for r in results),
        index_entries_scanned=sum(r.index_entries_scanned for r in results),
        queries_using_indexes=sum(1 for r in results if r.used_index_plan),
        per_query=results,
    )


def measure_workload(database: XmlDatabase,
                     workload: Union[Workload, Sequence[NormalizedQuery]],
                     configuration: Union[IndexConfiguration,
                                          Iterable[IndexDefinition], None] = None
                     ) -> Dict[str, WorkloadMeasurement]:
    """Execute ``workload`` without indexes and (optionally) with
    ``configuration`` materialized; return both measurements.

    The returned dict has keys ``"no-indexes"`` and (when a configuration
    is given) ``"recommended"``.
    """
    if isinstance(workload, Workload):
        queries = normalize_workload(workload)
    else:
        queries = list(workload)
    queries = [q for q in queries if not q.is_update]

    results: Dict[str, WorkloadMeasurement] = {}
    baseline_executor = QueryExecutor(database)
    baseline_executor.drop_all_indexes()
    results["no-indexes"] = _run(baseline_executor, queries, "no-indexes")

    if configuration is not None:
        indexed_executor = QueryExecutor(database)
        indexed_executor.create_indexes(configuration)
        results["recommended"] = _run(indexed_executor, queries, "recommended")
        # Leave the catalog as we found it so repeated measurements and
        # later advisor runs start from a clean slate.
        indexed_executor.drop_all_indexes()
    return results


def measure_scan_modes(database: XmlDatabase,
                       workload: Union[Workload, Sequence[NormalizedQuery]]
                       ) -> Dict[str, WorkloadMeasurement]:
    """Execute ``workload`` as document scans under both scan engines.

    Returns measurements keyed ``"scan-interpretive"`` (the per-document
    XPath interpreter, the executor's reference) and ``"scan-engine"``
    (each collection answered set-at-a-time from its columnar store), so
    benchmarks can report the engine's speedup.  No indexes are used in
    either run.
    """
    if isinstance(workload, Workload):
        queries = normalize_workload(workload)
    else:
        queries = list(workload)
    queries = [q for q in queries if not q.is_update]

    results: Dict[str, WorkloadMeasurement] = {}
    for label, use_columnar in (("scan-interpretive", False),
                                ("scan-engine", True)):
        executor = QueryExecutor(database, use_columnar=use_columnar)
        executor.drop_all_indexes()
        executor.execute_workload(queries)  # warm caches and stores
        results[label] = _run(executor, queries, label)
    return results
