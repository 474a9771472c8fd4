"""Collection-scoped routing comparison (shared E7 protocol).

One implementation of the routing measurement used by three consumers
-- the E7 benchmark (``benchmarks/bench_e7_routing.py``), the tier-1
``bench_smoke`` guard (``tests/test_bench_smoke.py``), and the
perf-trajectory recorder (``tools/bench_record.py``) -- so the
measurement protocol cannot silently diverge between the guard, the
bench and the recorded numbers.

Protocol: XMark and TPoX are loaded *co-resident* into one database
(collections ``xmark`` + ``order``/``security``/``custacc``), with the
TPoX side scaled up as ballast.  Two comparisons run against it:

* **scan routing** -- the XMark query workload (every query
  single-collection-rooted at ``/site``) is executed as document scans
  by a routed executor (collection-scoped costing, the default) and by
  an unrouted one (``Optimizer(use_collection_costing=False)`` plans
  carry no routing set): documents examined and per-query result
  identity.  The routed scan visits only the ``xmark`` collection; the
  unrouted scan walks the ballast too.  Not timed: on the columnar
  engine an unrouted collection costs a handful of bisects.
* **what-if re-costing** -- a combined XMark+TPoX workload is evaluated
  against a fixed index configuration by a routed and an escape-hatch
  :class:`~repro.advisor.benefit.ConfigurationEvaluator`; one document
  is then added to a *single* collection (``custacc``) and both
  evaluators delta-update their benefits.  The escape hatch's global
  aggregates guard forces a full re-cost of every workload query; the
  routed evaluator re-costs only the queries whose routing set contains
  the changed collection -- queries routed only to other collections
  are re-costed **zero** times (``cross_recostings``), and the result
  is still byte-identical to a fresh evaluation.

The advisor's recommended configuration (greedy-heuristic under a disk
budget) is also computed twice under the collection-scoped model: once
by a long-lived advisor whose optimizer plan cache lived through the
single-collection add (and was invalidated routing-scoped), and once by
a fresh advisor on the changed database.  The caching layers must never
change outcomes: configuration key set and total benefit are compared
byte-exactly.  (The legacy escape hatch is intentionally a *different*
cost model on multi-collection databases -- it charges every query for
every collection's pages -- so recommendations are only required to
coincide with it on single-collection databases, which the randomized
equivalence suite asserts.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.advisor.advisor import XmlIndexAdvisor
from repro.advisor.benefit import ConfigurationEvaluator
from repro.advisor.config import AdvisorParameters
from repro.executor.executor import QueryExecutor
from repro.index.definition import IndexConfiguration, IndexDefinition
from repro.optimizer.optimizer import Optimizer
from repro.storage.document_store import XmlDatabase
from repro.workloads.tpox import (
    TpoxConfig,
    generate_tpox_database,
    tpox_query_workload,
)
from repro.workloads.xmark import (
    XMarkConfig,
    generate_xmark_database,
    xmark_query_workload,
)
from repro.xmldb.serializer import serialize
from repro.xquery.model import NormalizedQuery, Workload, WorkloadStatement
from repro.xquery.normalizer import normalize_workload

#: The TPoX ballast is this many times the XMark scale: the routed scan
#: only ever touches the XMark collection, the unrouted one walks the
#: ballast as well.
BALLAST_FACTOR = 4.0

#: The collection the single-document add targets in the re-costing
#: comparison: only three workload queries route to ``custacc``, so the
#: escape hatch's full re-cost is many times the routed one.
CHANGED_COLLECTION = "custacc"

#: The fixed index configuration the re-costing comparison evaluates
#: (both sides of the co-resident database are covered).
CONFIGURATION_PATTERNS: Tuple[Tuple[str, str], ...] = (
    ("/site/people/person/@id", "VARCHAR"),
    ("/site/regions/*/item/quantity", "DOUBLE"),
    ("/FIXML/Order/@ID", "VARCHAR"),
    ("/Security/Symbol", "VARCHAR"),
    ("/Customer/@id", "VARCHAR"),
)


@dataclass
class RoutingComparison:
    """Outcome of one routed-vs-unrouted comparison run."""

    xmark_documents: int
    ballast_documents: int
    routed_documents_examined: int
    unrouted_documents_examined: int
    #: Per-query result counts identical between the two scan modes.
    identical_results: bool
    queries_total: int
    #: Queries whose routing set contains the changed collection (plus
    #: any priced globally) -- the only ones the routed evaluator may
    #: re-cost after the add.
    queries_affected: int
    recostings_routed: int
    recostings_unrouted: int
    #: Re-costings of queries routed only to *other* collections after
    #: the single-collection add (the acceptance criterion: zero).
    cross_recostings: int
    #: Routed delta benefit across the change byte-identical to a fresh
    #: routed evaluation (total benefit and every per-query row).
    benefits_identical: bool
    #: Advisor recommendation (index key set + total benefit) identical
    #: between a long-lived advisor whose caches lived through the add
    #: and a fresh advisor on the changed database.
    configurations_identical: bool

    @property
    def recosting_ratio(self) -> float:
        """Escape-hatch re-costings per routed re-costing (deterministic:
        it counts work, not seconds)."""
        return self.recostings_unrouted / max(self.recostings_routed, 1)


def build_coresident_database(scale: float = 0.25, seed: int = 42,
                              ballast_factor: float = BALLAST_FACTOR,
                              name: str = "coresident") -> XmlDatabase:
    """One database hosting XMark and TPoX side by side.

    The XMark collection is generated at ``scale``; the three TPoX
    collections at ``scale * ballast_factor`` so queries rooted in one
    collection have substantial unrelated data to be routed past.
    """
    database = XmlDatabase(name)
    sources = (
        generate_xmark_database(XMarkConfig(scale=scale, seed=seed)),
        generate_tpox_database(
            TpoxConfig(scale=scale * ballast_factor, seed=seed + 1)),
    )
    for source in sources:
        for collection in source.collections:
            target = database.create_collection(collection.name)
            for document in collection:
                target.add_document(serialize(document))
    return database


def combined_workload(name: str = "coresident") -> Workload:
    """The XMark and TPoX query workloads merged (reads only)."""
    workload = Workload(name=name)
    for statement in list(xmark_query_workload()) + list(tpox_query_workload()):
        workload.add(WorkloadStatement(text=statement.text,
                                       frequency=statement.frequency))
    return workload


def _configuration() -> IndexConfiguration:
    from repro.xquery.model import ValueType

    return IndexConfiguration([
        IndexDefinition.create(pattern, ValueType[value_type])
        for pattern, value_type in CONFIGURATION_PATTERNS])


def _compare_scans(database: XmlDatabase, queries: Sequence[NormalizedQuery]
                   ) -> Tuple[int, int, bool]:
    """Documents examined by routed and unrouted scans, and whether the
    per-query result counts agree."""
    routed = QueryExecutor(database)
    unrouted = QueryExecutor(
        database, optimizer=Optimizer(database, use_collection_costing=False))
    routed_results = [routed.execute(query) for query in queries]
    unrouted_results = [unrouted.execute(query) for query in queries]
    return (sum(r.documents_examined for r in routed_results),
            sum(r.documents_examined for r in unrouted_results),
            all(a.result_count == b.result_count
                for a, b in zip(routed_results, unrouted_results)))


def compare_routing_modes(scale: float = 0.25, seed: int = 42,
                          ballast_factor: float = BALLAST_FACTOR,
                          disk_budget_bytes: Optional[float] = 96 * 1024.0
                          ) -> RoutingComparison:
    """Run the full routed-vs-unrouted comparison at ``scale``."""
    database = build_coresident_database(scale=scale, seed=seed,
                                         ballast_factor=ballast_factor)
    xmark_documents = len(database.collection("xmark"))
    ballast_documents = sum(
        len(collection) for collection in database.collections
        if collection.name != "xmark")

    # --- scan routing: single-collection-rooted XMark queries ---------
    xmark_queries = [query for query in
                     normalize_workload(xmark_query_workload())
                     if not query.is_update]
    routed_docs, unrouted_docs, identical_results = _compare_scans(
        database, xmark_queries)

    # --- what-if re-costing after a single-collection document add ----
    queries = [query for query in normalize_workload(combined_workload())
               if not query.is_update]
    configuration = _configuration()
    # Created before the add so its optimizer plan cache lives through
    # the change (invalidated routing-scoped) and must still recommend
    # byte-identically to a fresh advisor afterwards.
    long_lived_advisor = XmlIndexAdvisor(database, AdvisorParameters(
        disk_budget_bytes=disk_budget_bytes))
    long_lived_advisor.recommend(combined_workload())  # warm the caches
    routed_evaluator = ConfigurationEvaluator(database, queries)
    legacy_evaluator = ConfigurationEvaluator(
        database, queries, AdvisorParameters(use_collection_costing=False))
    routed_base = routed_evaluator.evaluate(configuration)
    legacy_base = legacy_evaluator.evaluate(configuration)

    model = routed_evaluator.optimizer.cost_model
    affected_ids = set()
    for query in queries:
        routing = model.routing_set(query)
        if not routing or CHANGED_COLLECTION in routing:
            affected_ids.add(query.query_id)

    donor = generate_tpox_database(
        TpoxConfig(scale=scale * ballast_factor, seed=seed + 2), "donor")
    document = serialize(donor.collection(CHANGED_COLLECTION).documents[0])
    database.collection(CHANGED_COLLECTION).add_document(document)

    before = routed_evaluator.query_costings
    routed_delta = routed_evaluator.update(routed_base)
    recostings_routed = routed_evaluator.query_costings - before
    before = legacy_evaluator.query_costings
    legacy_evaluator.update(legacy_base)
    recostings_unrouted = legacy_evaluator.query_costings - before
    # Exact membership check, not a count difference: a re-costed row is
    # a *new* QueryEvaluation object, a reused one is the base's object.
    base_rows = {row.query_id: row for row in routed_base.query_evaluations}
    recosted_ids = {row.query_id for row in routed_delta.query_evaluations
                    if base_rows.get(row.query_id) is not row}
    cross_recostings = len(recosted_ids - affected_ids)

    fresh = ConfigurationEvaluator(database, queries)
    reference = fresh.evaluate(configuration)
    reference_rows = {row.query_id: row for row in reference.query_evaluations}
    benefits_identical = (
        routed_delta.total_benefit == reference.total_benefit
        and all(row.cost_with_configuration
                == reference_rows[row.query_id].cost_with_configuration
                and row.cost_without_indexes
                == reference_rows[row.query_id].cost_without_indexes
                for row in routed_delta.query_evaluations))

    # --- advisor recommendation: cached stack vs fresh ----------------
    cached_recommendation = long_lived_advisor.recommend(combined_workload())
    fresh_advisor = XmlIndexAdvisor(database, AdvisorParameters(
        disk_budget_bytes=disk_budget_bytes))
    fresh_recommendation = fresh_advisor.recommend(combined_workload())
    configurations_identical = (
        frozenset(d.key for d in cached_recommendation.configuration)
        == frozenset(d.key for d in fresh_recommendation.configuration)
        and cached_recommendation.total_benefit
        == fresh_recommendation.total_benefit)

    return RoutingComparison(
        xmark_documents=xmark_documents,
        ballast_documents=ballast_documents,
        routed_documents_examined=routed_docs,
        unrouted_documents_examined=unrouted_docs,
        identical_results=identical_results,
        queries_total=len(queries),
        queries_affected=len(affected_ids),
        recostings_routed=recostings_routed,
        recostings_unrouted=recostings_unrouted,
        cross_recostings=cross_recostings,
        benefits_identical=benefits_identical,
        configurations_identical=configurations_identical,
    )
