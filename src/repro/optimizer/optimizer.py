"""Plan selection: choose between document scans and index plans.

The optimizer mirrors (at a much smaller scale) how DB2 plans XML
queries: for every indexable predicate it looks for applicable indexes
via index matching, builds index-scan legs, combines the selective legs
with index ANDing, adds fetch and residual-filter costs, and compares
the result against a full document scan.  Whatever is cheaper wins.

Because the catalog can contain *virtual* indexes, exactly the same code
path serves normal planning, the Enumerate Indexes mode (planning with a
universal virtual index), and the Evaluate Indexes mode (planning with a
hypothetical configuration).  That is the "tight coupling" of the paper:
the advisor gets index enumeration and configuration costing from the
optimizer for free.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.contracts import cache_contract
from repro.index.definition import IndexDefinition
from repro.index.matching import usable_indexes
from repro.optimizer.cost_model import CostModel, CostParameters, RoutingSet
from repro.optimizer.plans import (
    DocumentScan,
    Fetch,
    IndexAnding,
    IndexMaintenance,
    IndexScan,
    PlanOperator,
    QueryPlan,
    ResidualFilter,
    UpdatePlan,
)
from repro.storage.document_store import XmlDatabase
from repro.telemetry import MetricsRegistry, global_registry
from repro.storage.maintenance import DataChange, DataChangeTracker
from repro.xquery.model import NormalizedQuery, PathPredicate

#: Index legs whose document selectivity exceeds this fraction are not
#: worth ANDing in (they would barely reduce the fetch set but still pay
#: their scan cost).
_MAX_USEFUL_LEG_SELECTIVITY = 0.9


#: Cache key for one what-if planning call: (query id, query text,
#: the set of index keys visible to the planner).
_PlanKey = Tuple[str, str, FrozenSet[Tuple[str, str]]]

@cache_contract(memos={
    "_plan_cache": {"policy": "revalidate",
                    "revalidators": ("_plan_cache_key",
                                     "_revalidate_plan_cache",
                                     "clear_plan_cache")},
    "_update_plan_cache": {"policy": "revalidate",
                           "revalidators": ("_plan_cache_key",
                                            "_revalidate_plan_cache",
                                            "clear_plan_cache")},
    "_plan_cache_signature": {"policy": "revalidate",
                              "revalidators": ("_revalidate_plan_cache",
                                               "clear_plan_cache")},
    "_cost_model": {"policy": "revalidate", "revalidators": ("cost_model",)},
    "_statistics_token": {"policy": "revalidate",
                          "revalidators": ("cost_model",)},
})
class Optimizer:
    """Cost-based plan selection over a database's catalog and statistics.

    Planning calls made with an *explicit* candidate index list -- the
    what-if calls issued by the Evaluate Indexes mode and the advisor's
    benefit evaluator -- are memoized by ``(query_id, query text,
    relevant index keys)`` and revalidated against the database's
    :meth:`~repro.storage.document_store.XmlDatabase.data_signature`.
    Catalog-defaulted calls (``candidate_indexes=None``) are never cached,
    because catalog contents can change without the data signature moving.

    Invalidation is *collection-scoped*: a signature move is diffed by
    a :class:`~repro.storage.maintenance.DataChangeTracker`, and only the
    cached plans whose statistics inputs actually changed are evicted.
    Each plan is priced only against the synopses of the collections in
    its recorded routing set, so a change confined to *other*
    collections leaves it byte-exact and cached even when the
    whole-database aggregates moved.

    :attr:`plan_calls` counts plans actually computed and
    :attr:`plan_cache_hits` counts calls served from the cache; the
    advisor benchmarks use the two to report what-if evaluation savings.
    """

    def __init__(self, database: XmlDatabase,
                 parameters: Optional[CostParameters] = None,
                 registry: Optional[MetricsRegistry] = None) -> None:
        self.database = database
        self.parameters = parameters
        self._cost_model: Optional[CostModel] = None
        self._statistics_token: Optional[int] = None
        #: Instance-scoped metrics registry (telemetry plane); the
        #: legacy planning counters live here as registry metrics and
        #: are read back through the properties below.
        self.metrics = MetricsRegistry(
            parent=registry if registry is not None else global_registry())
        self._m_plan_calls = self.metrics.counter("optimizer.plan.calls")
        self._m_plan_cache_hits = self.metrics.counter(
            "optimizer.plan_cache.hits")
        self._m_plan_cache_misses = self.metrics.counter(
            "optimizer.plan_cache.misses")
        self._m_plan_cache_evictions = self.metrics.counter(
            "optimizer.plan_cache.evictions")
        self._m_plan_cache_flushes = self.metrics.counter(
            "optimizer.plan_cache.flushes")
        self._plan_cache: Dict[_PlanKey, QueryPlan] = {}
        self._update_plan_cache: Dict[_PlanKey, UpdatePlan] = {}
        self._plan_cache_signature: Optional[Tuple[Tuple[str, int], ...]] = None
        self._tracker: Optional[DataChangeTracker] = None

    # ------------------------------------------------------------------
    # Legacy counter attributes -- byte-equal views of registry metrics
    # ------------------------------------------------------------------
    @property
    def plan_calls(self) -> int:
        """Number of plans actually computed (query + update plans)."""
        return self._m_plan_calls.value

    @plan_calls.setter
    def plan_calls(self, value: int) -> None:
        self._m_plan_calls.reset(value)

    @property
    def plan_cache_hits(self) -> int:
        """Planning calls served from the what-if plan cache."""
        return self._m_plan_cache_hits.value

    @plan_cache_hits.setter
    def plan_cache_hits(self, value: int) -> None:
        self._m_plan_cache_hits.reset(value)

    @property
    def plan_cache_misses(self) -> int:
        """Cacheable planning calls that missed the plan cache (new in
        the telemetry plane: hits/misses together give the ratio the
        tuning controller surfaces per cycle)."""
        return self._m_plan_cache_misses.value

    @plan_cache_misses.setter
    def plan_cache_misses(self, value: int) -> None:
        self._m_plan_cache_misses.reset(value)

    @property
    def plan_cache_evictions(self) -> int:
        """Cached plans selectively evicted on data change (fine-grained
        path), for the benchmarks/tests."""
        return self._m_plan_cache_evictions.value

    @plan_cache_evictions.setter
    def plan_cache_evictions(self, value: int) -> None:
        self._m_plan_cache_evictions.reset(value)

    @property
    def plan_cache_flushes(self) -> int:
        """Wholesale plan-cache drops, for the benchmarks/tests."""
        return self._m_plan_cache_flushes.value

    @plan_cache_flushes.setter
    def plan_cache_flushes(self, value: int) -> None:
        self._m_plan_cache_flushes.reset(value)

    # ------------------------------------------------------------------
    # Plan cache plumbing
    # ------------------------------------------------------------------
    def _plan_cache_key(self, query: NormalizedQuery,
                        indexes: Sequence[IndexDefinition]
                        ) -> _PlanKey:
        """The cache key for this call.

        Also revalidates the cached entries against the database's data
        signature.
        """
        self._revalidate_plan_cache()
        return (query.query_id, query.text,
                frozenset(index.key for index in indexes))

    def _revalidate_plan_cache(self) -> None:
        signature = self.database.data_signature()
        if signature == self._plan_cache_signature:
            return
        change: Optional[DataChange] = None
        if self._tracker is not None \
                and self._plan_cache_signature is not None:
            change = self._tracker.poll()
        if change is not None:
            self._evict_affected_plans(change)
        else:
            if self._plan_cache or self._update_plan_cache:
                self._m_plan_cache_flushes.inc()
            self._plan_cache.clear()
            self._update_plan_cache.clear()
        if self._tracker is None:
            self._tracker = DataChangeTracker(self.database)
        self._plan_cache_signature = signature

    def _evict_affected_plans(self, change: DataChange) -> None:
        """Drop exactly the cached plans whose statistics inputs moved.

        A plan's cost is a function of its routing set's synopses only,
        so a plan survives whenever no routed collection changed, no
        changed path can alter the query's routing set, and -- for
        plans priced against the whole database -- no candidate index
        pattern in the cache key saw different statistics.  (Unused
        candidate indexes count too: one may become the winner once its
        statistics change.)
        """
        for cache in (self._plan_cache, self._update_plan_cache):
            stale = []
            for key, plan in cache.items():
                if change.stales_routed_query(plan.query, plan.routing):
                    stale.append(key)
                elif not plan.routing and any(
                        change.affects_index_key(index_key)
                        for index_key in key[2]):
                    # Unrouted plans are priced globally, so any
                    # candidate index whose statistics moved stales
                    # them; routed survivors already proved the
                    # changed collections disjoint from their routing
                    # set, which bounds the candidates too.
                    stale.append(key)
            for key in stale:
                del cache[key]
            self._m_plan_cache_evictions.inc(len(stale))

    def clear_plan_cache(self) -> None:
        """Drop all cached plans (statistics-signature checks do this
        automatically; exposed for tests and long-lived processes)."""
        self._plan_cache.clear()
        self._update_plan_cache.clear()
        self._plan_cache_signature = None
        self._tracker = None

    # ------------------------------------------------------------------
    @property
    def cost_model(self) -> CostModel:
        """The cost model over the database's current statistics."""
        statistics = self.database.statistics
        token = id(statistics)
        if self._cost_model is None or self._statistics_token != token:
            self._cost_model = CostModel(statistics, self.parameters)
            self._statistics_token = token
        return self._cost_model

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def optimize(self, query: NormalizedQuery,
                 candidate_indexes: Optional[Iterable[IndexDefinition]] = None
                 ) -> QueryPlan:
        """Choose the cheapest plan for ``query``.

        ``candidate_indexes`` defaults to everything in the catalog
        (physical and virtual); the explain modes pass an explicit list.
        """
        if query.is_update:
            update_plan = self.plan_update(query, candidate_indexes)
            scan = DocumentScan(collection="*", cost=update_plan.total_cost,
                                cardinality=0.0, pages_read=0.0)
            return QueryPlan(query=query, root=scan,
                             total_cost=update_plan.total_cost,
                             uses_indexes=False, routing=update_plan.routing)

        indexes = list(candidate_indexes) if candidate_indexes is not None \
            else self.database.catalog.all_indexes
        key = self._plan_cache_key(query, indexes) \
            if candidate_indexes is not None else None
        if key is not None:
            cached = self._plan_cache.get(key)
            if cached is not None:
                self._m_plan_cache_hits.inc()
                return cached
            self._m_plan_cache_misses.inc()
        self._m_plan_calls.inc()
        model, routing = self.cost_model.for_query(query)
        scan_plan = self._document_scan_plan(query, model, routing)
        index_plan = self._index_plan(query, indexes, model, routing)
        plan = index_plan if (index_plan is not None
                              and index_plan.total_cost < scan_plan.total_cost) \
            else scan_plan
        if key is not None:
            self._plan_cache[key] = plan
        return plan

    def plan_update(self, query: NormalizedQuery,
                    candidate_indexes: Optional[Iterable[IndexDefinition]] = None
                    ) -> UpdatePlan:
        """Cost an update statement, charging maintenance for affected indexes."""
        indexes = list(candidate_indexes) if candidate_indexes is not None \
            else self.database.catalog.all_indexes
        key = self._plan_cache_key(query, indexes) \
            if candidate_indexes is not None else None
        if key is not None:
            cached_update = self._update_plan_cache.get(key)
            if cached_update is not None:
                self._m_plan_cache_hits.inc()
                return cached_update
            self._m_plan_cache_misses.inc()
        self._m_plan_calls.inc()
        model, routing = self.cost_model.for_query(query)
        maintenance: List[IndexMaintenance] = []
        for index in indexes:
            cost, affected = model.maintenance_cost(index, query.touched_patterns)
            if cost > 0.0:
                maintenance.append(IndexMaintenance(index=index,
                                                    affected_entries=affected,
                                                    cost=cost))
        update_plan = UpdatePlan(query=query,
                                 base_cost=model.update_base_cost(query),
                                 maintenance_costs=maintenance,
                                 routing=routing)
        if key is not None:
            self._update_plan_cache[key] = update_plan
        return update_plan

    def estimate_workload_cost(self, queries: Sequence[NormalizedQuery],
                               candidate_indexes: Optional[Iterable[IndexDefinition]] = None
                               ) -> float:
        """Frequency-weighted total cost of a normalized workload."""
        indexes = list(candidate_indexes) if candidate_indexes is not None else None
        total = 0.0
        for query in queries:
            plan = self.optimize(query, indexes)
            total += plan.total_cost * query.frequency
        return total

    # ------------------------------------------------------------------
    # Scan plan
    # ------------------------------------------------------------------
    def _document_scan_plan(self, query: NormalizedQuery, model: CostModel,
                            routing: RoutingSet) -> QueryPlan:
        cost, cardinality = model.document_scan_cost(query)
        target = "*" if routing is None else (",".join(routing) or "*")
        scan = DocumentScan(collection=target, cost=cost, cardinality=cardinality,
                            pages_read=model.data_pages)
        return QueryPlan(query=query, root=scan, total_cost=cost,
                         uses_indexes=False, routing=routing)

    # ------------------------------------------------------------------
    # Index plan
    # ------------------------------------------------------------------
    def _index_plan(self, query: NormalizedQuery,
                    indexes: Sequence[IndexDefinition],
                    model: CostModel, routing: RoutingSet) -> Optional[QueryPlan]:
        if not query.predicates or not indexes:
            return None
        legs: List[Tuple[IndexScan, float]] = []  # (scan, document selectivity)
        matched_predicates: List[PathPredicate] = []
        for predicate in query.predicates:
            leg = self._best_leg_for_predicate(predicate, indexes, model)
            if leg is not None:
                legs.append(leg)
                matched_predicates.append(predicate)
        if not legs:
            return None

        # Most selective legs first; keep a leg only while it actually
        # narrows the candidate documents.
        legs.sort(key=lambda item: item[1])
        chosen: List[Tuple[IndexScan, float]] = []
        for leg, selectivity in legs:
            if not chosen or selectivity <= _MAX_USEFUL_LEG_SELECTIVITY:
                chosen.append((leg, selectivity))
        chosen_scans = [leg for leg, _ in chosen]
        chosen_predicates = [leg.predicate for leg in chosen_scans]

        document_count = float(model.document_count)
        doc_fraction = 1.0
        for _, selectivity in chosen:
            doc_fraction *= max(selectivity, 1.0 / max(document_count, 1.0))
        documents_fetched = max(0.0, min(document_count, document_count * doc_fraction))

        anding_cost = sum(scan.cost for scan in chosen_scans)
        anding_cardinality = min((scan.cardinality for scan in chosen_scans),
                                 default=0.0)
        access: PlanOperator
        if len(chosen_scans) == 1:
            access = chosen_scans[0]
        else:
            access = IndexAnding(inputs=chosen_scans, cost=anding_cost,
                                 cardinality=anding_cardinality)

        fetch_cost = model.fetch_cost(documents_fetched)
        fetch = Fetch(input_operator=access, documents_fetched=documents_fetched,
                      cost=access.cost + fetch_cost, cardinality=documents_fetched)

        residual_predicates = [p for p in query.predicates
                               if p not in chosen_predicates]
        residual_cost = model.residual_cost(documents_fetched,
                                            len(residual_predicates),
                                            len(query.extraction_paths))
        root = ResidualFilter(input_operator=fetch,
                              residual_predicates=residual_predicates,
                              cost=fetch.cost + residual_cost,
                              cardinality=fetch.cardinality)
        return QueryPlan(query=query, root=root, total_cost=root.cost,
                         uses_indexes=True, routing=routing)

    def _best_leg_for_predicate(self, predicate: PathPredicate,
                                indexes: Sequence[IndexDefinition],
                                model: CostModel
                                ) -> Optional[Tuple[IndexScan, float]]:
        """The cheapest index scan answering ``predicate``, with its
        document selectivity, or ``None`` if no index matches."""
        matches = usable_indexes(indexes, predicate)
        best: Optional[Tuple[IndexScan, float]] = None
        for match in matches:
            cost, qualifying_nodes, entries_scanned = model.index_scan_cost(
                match.index, predicate)
            documents = model.documents_for_nodes(qualifying_nodes, predicate.pattern)
            selectivity = documents / max(1.0, float(model.document_count))
            scan = IndexScan(index=match.index, predicate=predicate,
                             key_selectivity=model.statistics.predicate_selectivity(
                                 match.index.pattern, predicate.op, predicate.value),
                             entries_scanned=entries_scanned,
                             cost=cost, cardinality=qualifying_nodes)
            if best is None or scan.cost < best[0].cost:
                best = (scan, selectivity)
        return best
