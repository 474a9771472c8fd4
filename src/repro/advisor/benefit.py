"""Configuration benefit estimation (Section 2.3, "Evaluate Indexes" usage).

The benefit of an index configuration is the frequency-weighted drop in
estimated workload cost when the configuration is simulated as virtual
indexes, minus the maintenance cost it imposes on the workload's update
statements:

.. math::

    benefit(C) = \\sum_q f_q (cost_q(\\emptyset) - cost_q(C))
                 - \\sum_u f_u maintenance_u(C)

Because each query is costed against the *whole* configuration (not one
index at a time), index interaction is captured: an index that is
shadowed by a better one contributes nothing, exactly as in the paper
("the benefit of an index can change depending on which other indexes
are available").

Incremental what-if engine
--------------------------

The configuration search evaluates thousands of closely-related
configurations, so the evaluator is built around three incremental
structures:

* an **inverted relevance map** ``index key -> affected query ids``,
  computed once per (index pattern, value type) by a single
  pattern-containment pass over the workload's predicates and touched
  patterns -- ``evaluate`` and the searches never re-derive relevance
  per call;
* **delta evaluation**: :meth:`ConfigurationEvaluator.update` takes an
  already-evaluated base configuration plus the indexes added/removed,
  re-costs only the queries the relevance map says are affected, and
  reuses every other per-query evaluation verbatim.  The result is
  *exactly* what a full :meth:`evaluate` of the new configuration would
  return, because a query's cost depends only on the subset of the
  configuration relevant to it;
* per-query **memoization** keyed by ``(query id, relevant index
  keys)``.

Invalidation contract: every public entry point revalidates against the
database.  The evaluator polls a
:class:`~repro.storage.maintenance.DataChangeTracker` and invalidates
*fine-grained*: the pattern-relevance map always survives (it depends
only on workload and index patterns, never on data); per-query memo
rows and baseline costs are re-costed only for the queries whose
statistics inputs actually moved; and memoized index-size estimates
whose patterns were untouched are carried onto the rebuilt statistics
object.  Each query's cached costs are keyed to the per-collection data
versions of its *routing set*: a document add to one collection
re-costs only the queries routed there (plus any priced against the
whole database), and every other collection's rows stay valid and
byte-exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.advisor.config import AdvisorParameters
from repro.contracts import cache_contract, snapshot_contract
from repro.index.definition import IndexConfiguration, IndexDefinition
from repro.index.sizing import carry_over_size_estimates, estimate_index_size_bytes
from repro.optimizer.explain import evaluate_indexes
from repro.optimizer.optimizer import Optimizer
from repro.storage.document_store import XmlDatabase
from repro.storage.maintenance import DataChangeTracker
from repro.telemetry import MetricsRegistry, global_registry
from repro.xpath.patterns import pattern_contains
from repro.xquery.model import NormalizedQuery


@snapshot_contract()
@dataclass(frozen=True, slots=True)
class QueryEvaluation:
    """Per-query outcome of evaluating one configuration."""

    query_id: str
    frequency: float
    cost_without_indexes: float
    cost_with_configuration: float
    used_index_keys: Tuple[Tuple[str, str], ...] = ()

    @property
    def benefit(self) -> float:
        """Frequency-weighted cost reduction (negative for update overhead)."""
        return (self.cost_without_indexes - self.cost_with_configuration) * self.frequency


@snapshot_contract()
@dataclass(frozen=True)
class ConfigurationBenefit:
    """Benefit, size and per-query breakdown of one configuration."""

    configuration: IndexConfiguration
    total_benefit: float
    total_size_bytes: float
    query_evaluations: List[QueryEvaluation] = field(default_factory=list)
    index_sizes: Dict[Tuple[str, str], float] = field(default_factory=dict)
    #: The evaluator epoch the per-query rows were costed in; delta
    #: updates across data changes use it to decide which rows are still
    #: reusable.  Not part of value equality.
    evaluator_epoch: int = field(default=0, compare=False, repr=False)

    @property
    def used_index_keys(self) -> FrozenSet[Tuple[str, str]]:
        used: set = set()
        for evaluation in self.query_evaluations:
            used.update(evaluation.used_index_keys)
        return frozenset(used)

    @property
    def unused_indexes(self) -> List[IndexDefinition]:
        """Indexes in the configuration no query plan used."""
        used = self.used_index_keys
        return [index for index in self.configuration if index.key not in used]

    def describe(self) -> str:
        return (f"configuration of {len(self.configuration)} index(es): "
                f"benefit {self.total_benefit:.1f}, "
                f"size {self.total_size_bytes / 1024:.1f} KiB, "
                f"{len(self.unused_indexes)} unused")


@cache_contract(memos={
    "_baseline": {"policy": "revalidate", "revalidators": ("refresh",)},
    "_query_cache": {"policy": "revalidate", "revalidators": ("refresh",)},
    "_relevance": {"policy": "static"},
})
class ConfigurationEvaluator:
    """Costs configurations over a fixed normalized workload."""

    def __init__(self, database: XmlDatabase, queries: Sequence[NormalizedQuery],
                 parameters: Optional[AdvisorParameters] = None,
                 optimizer: Optional[Optimizer] = None,
                 registry: Optional[MetricsRegistry] = None) -> None:
        self.database = database
        self.queries = list(queries)
        self.parameters = parameters or AdvisorParameters()
        #: Per-evaluator metrics; recordings also roll up into
        #: ``registry`` (or the process-global registry).
        self.metrics = MetricsRegistry(
            parent=registry if registry is not None else global_registry())
        self.optimizer = optimizer or Optimizer(
            database, self.parameters.cost_parameters, registry=self.metrics)
        self._baseline: Dict[str, float] = {}
        self._query_cache: Dict[Tuple[str, FrozenSet[Tuple[str, str]]],
                                Tuple[float, Tuple[Tuple[str, str], ...]]] = {}
        #: Inverted relevance map: index key -> ids of affected queries.
        self._relevance: Dict[Tuple[str, str], FrozenSet[str]] = {}
        self._signature = database.data_signature()
        self._tracker = DataChangeTracker(database)
        #: Monotonic refresh epoch: bumped every time a data change is
        #: absorbed.  Benefits are stamped with the epoch they were
        #: costed in so delta updates know which rows are reusable.
        self._epoch = 0
        #: Query ids staled by the most recent absorbed change.
        self._last_stale: FrozenSet[str] = frozenset()
        #: Full-workload evaluations performed (evaluate() and updates
        #: whose base is too old to reuse any row).
        self._m_full_evaluations = self.metrics.counter(
            "evaluator.whatif.full_evaluations")
        #: Delta evaluations performed (incremental update()/extend()).
        self._m_delta_evaluations = self.metrics.counter(
            "evaluator.whatif.delta_evaluations")
        #: Per-query what-if cost requests issued (before the per-query
        #: memo): the unit of work the delta engine saves.  A full
        #: evaluation issues one per workload query; a delta evaluation
        #: one per affected query.
        self._m_query_costings = self.metrics.counter(
            "evaluator.whatif.costings")
        #: Baseline/query-memo rows preserved across data changes by the
        #: fine-grained invalidation path (for the tests/benchmarks).
        self._m_rows_preserved = self.metrics.counter(
            "evaluator.whatif.rows_preserved")
        #: Per-query memo outcomes (`_query_cache` lookups).
        self._m_memo_hits = self.metrics.counter("evaluator.memo.hits")
        self._m_memo_misses = self.metrics.counter("evaluator.memo.misses")
        self._compute_baseline()

    # ------------------------------------------------------------------
    # Legacy counter attributes -- byte-equal views of registry metrics
    # ------------------------------------------------------------------
    @property
    def full_evaluations(self) -> int:
        return self._m_full_evaluations.value

    @full_evaluations.setter
    def full_evaluations(self, value: int) -> None:
        self._m_full_evaluations.reset(value)

    @property
    def delta_evaluations(self) -> int:
        return self._m_delta_evaluations.value

    @delta_evaluations.setter
    def delta_evaluations(self, value: int) -> None:
        self._m_delta_evaluations.reset(value)

    @property
    def query_costings(self) -> int:
        return self._m_query_costings.value

    @query_costings.setter
    def query_costings(self, value: int) -> None:
        self._m_query_costings.reset(value)

    @property
    def rows_preserved_on_refresh(self) -> int:
        return self._m_rows_preserved.value

    @rows_preserved_on_refresh.setter
    def rows_preserved_on_refresh(self, value: int) -> None:
        self._m_rows_preserved.reset(value)

    @property
    def memo_hits(self) -> int:
        return self._m_memo_hits.value

    @property
    def memo_misses(self) -> int:
        return self._m_memo_misses.value

    # ------------------------------------------------------------------
    # Staleness / invalidation
    # ------------------------------------------------------------------
    @property
    def data_signature(self) -> Tuple[Tuple[str, int], ...]:
        """The database signature the cached state was derived from."""
        return self._signature

    def refresh(self) -> bool:
        """Revalidate against the database; invalidate stale state.

        Returns True when the database changed.  The invalidation is
        selective (see the module docstring).  Called automatically by
        every public evaluation entry point.
        """
        change = self._tracker.poll()
        if change is None:
            return False
        self._signature = self.database.data_signature()
        self._epoch += 1
        # Size estimates depend only on per-pattern statistics, so
        # untouched ones survive even aggregate-moving changes.
        if change.old_statistics is not None \
                and change.new_statistics is not None:
            carry_over_size_estimates(change.old_statistics,
                                      change.new_statistics,
                                      change.affects_index_key)
        # The relevance map is pattern-containment only -- data
        # changes can never stale it.
        stale_ids, unrouted_ids = self._staled_query_ids(change)
        evict = [key for key in self._query_cache
                 if key[0] in stale_ids
                 or (key[0] in unrouted_ids
                     and any(change.affects_index_key(index_key)
                             for index_key in key[1]))]
        for key in evict:
            del self._query_cache[key]
        self._m_rows_preserved.inc(len(self._query_cache))
        # Baselines are no-index costs: only the query's own patterns
        # and its routing set matter.
        for query in self.queries:
            if query.query_id in stale_ids:
                self._baseline[query.query_id] = self._baseline_cost(query)
        # The row-reuse gate for delta updates must be wider: a
        # configured row is also stale when a *relevant index*'s
        # statistics moved (entry counts / key selectivities are
        # computed over the index pattern, which may match changed
        # paths the query's own predicates do not).  Every index that
        # ever contributed to a row is in the relevance map, so the
        # union over affected known keys covers all reusable rows
        # exactly.  Routed queries whose collections the change did
        # not touch are exempt: their rows price index entries from
        # the routed synopses only, which the change provably left
        # alone.
        index_stale = set(stale_ids)
        for index_key, query_ids in self._relevance.items():
            if query_ids and change.affects_index_key(index_key):
                index_stale.update(query_id for query_id in query_ids
                                   if query_id in unrouted_ids)
        self._last_stale = frozenset(index_stale)
        return True

    def _staled_query_ids(self, change) -> Tuple[FrozenSet[str], FrozenSet[str]]:
        """``(stale ids, unrouted ids)`` for one absorbed data change.

        A query's cached costs are keyed to its routing set's
        collections: the query is stale only when a routed collection
        changed or a changed path could move its routing set.  Queries
        priced against the whole database (patterns that can match
        every collection, or empty routing sets) are reported in the
        second set; their rows additionally stale through
        relevant-index pattern changes.
        """
        model = self.optimizer.cost_model
        stale: set = set()
        unrouted: set = set()
        for query in self.queries:
            routing = model.routing_set(query)
            if not routing:
                unrouted.add(query.query_id)
            if change.stales_routed_query(query, routing):
                stale.add(query.query_id)
        return frozenset(stale), frozenset(unrouted)

    # ------------------------------------------------------------------
    # Baseline
    # ------------------------------------------------------------------
    def _baseline_cost(self, query: NormalizedQuery) -> float:
        if query.is_update:
            return self.optimizer.plan_update(query, candidate_indexes=[]).total_cost
        return self.optimizer.optimize(query, candidate_indexes=[]).total_cost

    def _compute_baseline(self) -> None:
        for query in self.queries:
            self._baseline[query.query_id] = self._baseline_cost(query)

    @property
    def baseline_costs(self) -> Dict[str, float]:
        """Per-query cost with no indexes at all."""
        self.refresh()
        return dict(self._baseline)

    @property
    def baseline_workload_cost(self) -> float:
        self.refresh()
        return sum(self._baseline[q.query_id] * q.frequency for q in self.queries)

    # ------------------------------------------------------------------
    # Relevance map
    # ------------------------------------------------------------------
    def relevant_queries(self, index: IndexDefinition) -> FrozenSet[str]:
        """Ids of the workload queries ``index`` could affect (memoized).

        For queries: the index pattern contains some predicate path of a
        compatible value type.  For updates: the index pattern shares
        data paths with the touched patterns.  Only these queries can
        change cost when ``index`` enters or leaves a configuration.
        """
        cached = self._relevance.get(index.key)
        if cached is None:
            cached = frozenset(
                query.query_id for query in self.queries
                if self._index_relevant_to_query(index, query))
            self._relevance[index.key] = cached
        return cached

    @property
    def relevance_map(self) -> Dict[Tuple[str, str], FrozenSet[str]]:
        """A copy of the inverted relevance map computed so far."""
        return dict(self._relevance)

    @staticmethod
    def _index_relevant_to_query(index: IndexDefinition,
                                 query: NormalizedQuery) -> bool:
        if query.is_update:
            for touched in query.touched_patterns:
                if (pattern_contains(touched, index.pattern)
                        or pattern_contains(index.pattern, touched)):
                    return True
            return False
        for predicate in query.predicates:
            if not predicate.is_existence and \
                    predicate.value_type is not index.value_type:
                continue
            if pattern_contains(index.pattern, predicate.pattern):
                return True
        return False

    # ------------------------------------------------------------------
    # Sizes
    # ------------------------------------------------------------------
    def index_size_bytes(self, index: IndexDefinition) -> float:
        """Estimated size of ``index`` (memoized on the statistics object,
        which is rebuilt -- invalidating the memo -- on data changes)."""
        return estimate_index_size_bytes(index, self.database.statistics)

    def configuration_size_bytes(self, configuration: Iterable[IndexDefinition]) -> float:
        return sum(self.index_size_bytes(index) for index in configuration)

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate(self, configuration: "IndexConfiguration | Iterable[IndexDefinition]"
                 ) -> ConfigurationBenefit:
        """Estimate the benefit of ``configuration`` over the workload."""
        self.refresh()
        if not isinstance(configuration, IndexConfiguration):
            configuration = IndexConfiguration(configuration)
        self._m_full_evaluations.inc()
        return self._evaluate_now(configuration)

    def _evaluate_now(self, configuration: IndexConfiguration) -> ConfigurationBenefit:
        evaluations: List[QueryEvaluation] = []
        for query in self.queries:
            cost, used = self._evaluate_query(query, configuration)
            evaluations.append(QueryEvaluation(
                query_id=query.query_id,
                frequency=query.frequency,
                cost_without_indexes=self._baseline[query.query_id],
                cost_with_configuration=cost,
                used_index_keys=used,
            ))
        return self._package(configuration, evaluations)

    def _package(self, configuration: IndexConfiguration,
                 evaluations: List[QueryEvaluation]) -> ConfigurationBenefit:
        total_benefit = sum(evaluation.benefit for evaluation in evaluations)
        sizes = {index.key: self.index_size_bytes(index) for index in configuration}
        return ConfigurationBenefit(configuration=configuration,
                                    total_benefit=total_benefit,
                                    total_size_bytes=sum(sizes.values()),
                                    query_evaluations=evaluations,
                                    index_sizes=sizes,
                                    evaluator_epoch=self._epoch)

    def update(self, base: ConfigurationBenefit,
               add: Sequence[IndexDefinition] = (),
               remove: Sequence[IndexDefinition] = ()) -> ConfigurationBenefit:
        """Delta evaluation: ``base``'s configuration with ``add`` added
        and ``remove`` removed.

        Only the queries the relevance map marks as affected by a
        changed index are re-costed; every other per-query evaluation is
        reused from ``base``.  The result equals a full
        :meth:`evaluate` of the new configuration exactly (a query's
        cost depends only on its relevant subset of the configuration).

        When the database changed since ``base`` was computed, the
        epoch stamp decides what survives: with a base from the
        immediately preceding epoch only the rows the change staled are
        re-costed on top of the configuration delta; with an older base
        every row is stale and the evaluation is full.
        """
        self.refresh()
        configuration = base.configuration.copy()
        changed: List[IndexDefinition] = []
        for definition in remove:
            if configuration.remove(definition):
                changed.append(definition)
        for definition in add:
            if configuration.add(definition):
                changed.append(definition)
        stale_rows: FrozenSet[str]
        if base.evaluator_epoch == self._epoch:
            stale_rows = frozenset()
        elif base.evaluator_epoch == self._epoch - 1:
            stale_rows = self._last_stale
        else:
            self._m_full_evaluations.inc()
            return self._evaluate_now(configuration)
        self._m_delta_evaluations.inc()
        affected: set = set(stale_rows)
        for definition in changed:
            affected.update(self.relevant_queries(definition))
        base_rows = {row.query_id: row for row in base.query_evaluations}
        evaluations: List[QueryEvaluation] = []
        for query in self.queries:
            row = base_rows.get(query.query_id)
            if row is None or query.query_id in affected:
                cost, used = self._evaluate_query(query, configuration)
                row = QueryEvaluation(
                    query_id=query.query_id,
                    frequency=query.frequency,
                    cost_without_indexes=self._baseline[query.query_id],
                    cost_with_configuration=cost,
                    used_index_keys=used,
                )
            evaluations.append(row)
        return self._package(configuration, evaluations)

    def extend(self, base: ConfigurationBenefit,
               index: IndexDefinition) -> ConfigurationBenefit:
        """Delta evaluation of ``base``'s configuration plus ``index``."""
        return self.update(base, add=[index])

    def marginal_benefit(self, base: ConfigurationBenefit,
                         index: IndexDefinition) -> float:
        """Benefit gained by adding ``index`` to an already-evaluated config."""
        return self.extend(base, index).total_benefit - base.total_benefit

    # ------------------------------------------------------------------
    def _evaluate_query(self, query: NormalizedQuery,
                        configuration: IndexConfiguration
                        ) -> Tuple[float, Tuple[Tuple[str, str], ...]]:
        self._m_query_costings.inc()
        relevant = self._relevant_indexes(query, configuration)
        cache_key = (query.query_id, frozenset(index.key for index in relevant))
        cached = self._query_cache.get(cache_key)
        if cached is not None:
            self._m_memo_hits.inc()
            return cached
        self._m_memo_misses.inc()
        if query.is_update:
            if self.parameters.account_for_updates:
                plan = self.optimizer.plan_update(query, candidate_indexes=relevant)
                cost = plan.total_cost
                used = tuple(m.index.key for m in plan.maintenance_costs)
            else:
                cost = self._baseline[query.query_id]
                used = ()
        else:
            if not relevant:
                cost, used = self._baseline[query.query_id], ()
            else:
                result = evaluate_indexes(query, self.database, relevant,
                                          optimizer=self.optimizer,
                                          include_physical=False)
                cost = result.estimated_cost
                used = tuple(index.key for index in result.used_indexes)
        self._query_cache[cache_key] = (cost, used)
        return cost, used

    def _relevant_indexes(self, query: NormalizedQuery,
                          configuration: IndexConfiguration) -> List[IndexDefinition]:
        """The subset of the configuration that could affect ``query``.

        Restricting evaluation to this subset makes caching effective
        without changing the result (other indexes cannot appear in the
        query's plan or maintenance list).  Answered from the inverted
        relevance map (two dict lookups per index).
        """
        query_id = query.query_id
        return [index for index in configuration
                if query_id in self.relevant_queries(index)]
