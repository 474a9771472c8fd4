"""The optimizer's cost model.

Costs are abstract units ("timerons"): a weighted sum of page I/O and
per-node/per-entry CPU work, derived entirely from the path statistics.
The absolute values are not meant to match DB2's; what matters for the
reproduction is that the *relative* behaviour is right:

* scanning the whole database costs proportionally to its size;
* probing an index costs a few random pages plus work proportional to
  the entries the predicate selects;
* a more general index (more entries) is somewhat more expensive to use
  for the same predicate than an exact index, but still far cheaper than
  a scan when the predicate is selective;
* fetching candidate documents costs random I/O per document, which is
  what makes unselective index plans lose to scans;
* maintaining an index on update costs work proportional to the entries
  the update touches.

All constants live in :class:`CostParameters` so ablation benchmarks and
tests can build variant models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional, Sequence, Tuple

from repro.contracts import cache_contract, snapshot_contract
from repro.index.definition import IndexDefinition
from repro.index.sizing import estimate_entry_count, estimate_key_width
from repro.storage import pages
from repro.storage.statistics import DatabaseStatistics
from repro.xpath.patterns import PathPattern
from repro.xquery.model import NormalizedQuery, PathPredicate

#: A routing set: the collections a query's structural patterns can
#: match, sorted.  ``None`` stands for "every collection" -- used when
#: the statistics carry no per-collection sub-synopses, or when a
#: query's patterns genuinely cover every collection.  Read patterns are matched with the
#: interpreter's descendant-or-self semantics
#: (:meth:`~repro.xpath.patterns.PathPattern.matches_evaluator`), so
#: ``//`` shapes never widen the set.
RoutingSet = Optional[Tuple[str, ...]]


@snapshot_contract()
@dataclass(frozen=True)
class CostParameters:
    """Tunable constants of the cost model."""

    #: Cost of reading one page sequentially.
    sequential_page_cost: float = 1.0
    #: Cost of reading one page at a random position.
    random_page_cost: float = 4.0
    #: CPU cost of visiting one XML node during navigation.
    cpu_node_cost: float = 0.01
    #: CPU cost of processing one index entry during a scan.
    cpu_index_entry_cost: float = 0.004
    #: CPU cost of inserting/removing one index entry (maintenance).
    cpu_index_maintenance_cost: float = 0.02
    #: Approximate B-tree fanout, used to derive the number of levels.
    btree_fanout: int = 128
    #: Fraction of a document that must be navigated to evaluate residual
    #: predicates and extraction paths once the document is fetched.
    residual_navigation_fraction: float = 0.25
    #: Base cost of applying one data modification (locating the target).
    update_base_cost: float = 2.0


@cache_contract(memos={
    "_scoped": {"policy": "object-keyed"},
    "_pattern_routes": {"policy": "object-keyed"},
})
class CostModel:
    """Statistics-driven cost estimation for plans and index maintenance.

    Every cost term of a query is computed against the merged synopsis
    of its *routing set* -- the collections whose path synopsis can
    match the query's patterns (:meth:`for_query`) -- instead of the
    whole-database aggregates: a query routed to collections *S* costs
    exactly what it costs on a database holding only *S*.  On a
    single-collection database (or when a query routes to every
    collection) the scoped synopsis *is* the whole-database synopsis.
    """

    def __init__(self, statistics: DatabaseStatistics,
                 parameters: Optional[CostParameters] = None) -> None:
        self.statistics = statistics
        self.parameters = parameters or CostParameters()
        #: Memo of routing set -> scoped CostModel (shares parameters).
        self._scoped: Dict[Tuple[str, ...], "CostModel"] = {}
        #: Memo of read pattern -> matching collections.
        self._pattern_routes: Dict[PathPattern, FrozenSet[str]] = {}

    # ------------------------------------------------------------------
    # Structural routing
    # ------------------------------------------------------------------
    def collections_for_pattern(self, pattern: PathPattern) -> FrozenSet[str]:
        """The collections whose synopsis read pattern ``pattern`` can
        match.

        Decided by the loose matcher
        (:meth:`~repro.storage.statistics.DatabaseStatistics.paths_matching_evaluator`),
        which implements the interpreter's (and the columnar store's)
        exact descendant-or-self semantics per simple path: a ``//``
        step that can match its own context routes exactly instead of
        widening to every collection.
        """
        cached = self._pattern_routes.get(pattern)
        if cached is None:
            cached = frozenset(
                name for name, stats in self.statistics.collection_stats.items()
                if stats.paths_matching_evaluator(pattern))
            self._pattern_routes[pattern] = cached
        return cached

    def routing_set(self, query: NormalizedQuery) -> RoutingSet:
        """The collections ``query`` can touch, or ``None`` for all.

        Read queries with predicates route to the collections where
        *every* predicate path can match (a document must satisfy all
        predicates); pure navigation queries and updates route to the
        *union* of their pattern matches.  An empty tuple means the
        query provably matches nothing anywhere.
        """
        names = self.statistics.collection_stats
        if not names:
            return None
        if not query.is_update and query.predicates:
            routed: Optional[FrozenSet[str]] = None  # None = universe
            for predicate in query.predicates:
                matched = self.collections_for_pattern(predicate.pattern)
                routed = matched if routed is None else (routed & matched)
                if not routed:
                    return ()
            if routed is None or len(routed) >= len(names):
                return None
            return tuple(sorted(routed))
        patterns = query.routing_patterns()
        if not patterns:
            return None
        union: set = set()
        for pattern in patterns:
            if query.is_update:
                # Updates are costed purely by index-pattern matching
                # over the synopsis (they never run through the
                # executor), so they route by the strict matcher.
                matched = frozenset(
                    name for name, stats in names.items()
                    if stats.paths_matching(pattern))
            else:
                matched = self.collections_for_pattern(pattern)
            union.update(matched)
        if len(union) >= len(names):
            return None
        return tuple(sorted(union))

    def scoped(self, routing: RoutingSet) -> "CostModel":
        """The cost model over the merged synopsis of ``routing``.

        ``None`` (all collections), full coverage, and the empty set all
        return ``self`` -- an empty routing set is priced against the
        whole database.  A scoped model is only ever asked for costs,
        never to route again.
        """
        if not routing:
            return self
        names = self.statistics.collection_stats
        if not names or len(routing) >= len(names):
            return self
        cached = self._scoped.get(routing)
        if cached is None:
            cached = CostModel(self.statistics.merged_over(routing),
                               self.parameters)
            self._scoped[routing] = cached
        return cached

    def for_query(self, query: NormalizedQuery) -> Tuple["CostModel", RoutingSet]:
        """Convenience: the routing set and the scoped model for ``query``."""
        routing = self.routing_set(query)
        return self.scoped(routing), routing

    # ------------------------------------------------------------------
    # Database-level quantities
    # ------------------------------------------------------------------
    @property
    def data_pages(self) -> float:
        return max(1.0, self.statistics.total_data_bytes / pages.PAGE_SIZE_BYTES)

    @property
    def document_count(self) -> int:
        return max(1, self.statistics.document_count)

    @property
    def average_document_nodes(self) -> float:
        return self.statistics.total_node_count / self.document_count

    @property
    def average_document_pages(self) -> float:
        return max(1.0, self.data_pages / self.document_count)

    # ------------------------------------------------------------------
    # Full document scan
    # ------------------------------------------------------------------
    def document_scan_cost(self, query: NormalizedQuery) -> Tuple[float, float]:
        """Cost and output cardinality of answering ``query`` by scanning.

        Every document is read sequentially and fully navigated to
        evaluate the query's paths and predicates.
        """
        io_cost = self.data_pages * self.parameters.sequential_page_cost
        cpu_cost = self.statistics.total_node_count * self.parameters.cpu_node_cost
        result_cardinality = self._result_cardinality(query)
        return io_cost + cpu_cost, result_cardinality

    # ------------------------------------------------------------------
    # Index access
    # ------------------------------------------------------------------
    def index_probe_cost(self, index: IndexDefinition) -> float:
        """Cost of descending the index B-tree to the first qualifying key."""
        entries = max(1, estimate_entry_count(index, self.statistics))
        levels = max(1.0, math.log(entries, self.parameters.btree_fanout))
        return levels * self.parameters.random_page_cost

    def index_scan_cost(self, index: IndexDefinition,
                        predicate: PathPredicate) -> Tuple[float, float, float]:
        """Cost of answering ``predicate`` with ``index``.

        Returns ``(cost, qualifying_nodes, entries_scanned)`` where
        ``qualifying_nodes`` is the number of nodes that satisfy both the
        predicate's path and its value condition (i.e. the cardinality
        flowing out of the index scan).
        """
        index_entries = estimate_entry_count(index, self.statistics)
        if index_entries <= 0:
            return self.index_probe_cost(index), 0.0, 0.0
        key_selectivity = self._key_selectivity(index, predicate)
        entries_scanned = max(1.0, index_entries * key_selectivity)
        # Path post-filtering: a more general index also returns entries
        # whose paths the predicate does not accept.
        predicate_nodes = self.statistics.cardinality(predicate.pattern)
        path_fraction = (predicate_nodes / index_entries) if index_entries else 0.0
        path_fraction = min(1.0, path_fraction) if predicate_nodes else 0.0
        value_selectivity = self.statistics.predicate_selectivity(
            predicate.pattern, predicate.op, predicate.value)
        qualifying_nodes = predicate_nodes * value_selectivity
        key_width = estimate_key_width(index, self.statistics)
        leaf_pages = (entries_scanned * pages.index_entry_bytes(key_width)
                      / pages.PAGE_SIZE_BYTES)
        cost = (self.index_probe_cost(index)
                + leaf_pages * self.parameters.sequential_page_cost
                + entries_scanned * self.parameters.cpu_index_entry_cost)
        return cost, qualifying_nodes, entries_scanned

    def _key_selectivity(self, index: IndexDefinition,
                         predicate: PathPredicate) -> float:
        """Fraction of the *index's* entries the key range covers."""
        if predicate.selectivity_hint is not None:
            return min(1.0, max(0.0, predicate.selectivity_hint))
        return self.statistics.predicate_selectivity(
            index.pattern, predicate.op, predicate.value)

    # ------------------------------------------------------------------
    # Fetch / residual work
    # ------------------------------------------------------------------
    def fetch_cost(self, documents_fetched: float) -> float:
        """Random I/O cost of retrieving ``documents_fetched`` documents."""
        return (documents_fetched * self.average_document_pages
                * self.parameters.random_page_cost)

    def residual_cost(self, documents_fetched: float,
                      residual_predicates: int, extraction_paths: int) -> float:
        """CPU cost of navigating fetched documents for residual work."""
        work_items = max(1, residual_predicates + extraction_paths)
        nodes_visited = (documents_fetched * self.average_document_nodes
                         * self.parameters.residual_navigation_fraction)
        return nodes_visited * self.parameters.cpu_node_cost * work_items

    def documents_for_nodes(self, qualifying_nodes: float,
                            pattern: PathPattern) -> float:
        """Estimate how many distinct documents contain ``qualifying_nodes``
        nodes matched by ``pattern`` (capped by the documents that contain
        the pattern at all)."""
        containing = self.statistics.documents_containing(pattern)
        if containing <= 0:
            return 0.0
        nodes_per_doc = max(1.0, self.statistics.cardinality(pattern) / containing)
        return min(float(containing), max(0.0, qualifying_nodes) / nodes_per_doc)

    # ------------------------------------------------------------------
    # Updates / index maintenance
    # ------------------------------------------------------------------
    def update_base_cost(self, query: NormalizedQuery) -> float:
        """Cost of the data modification itself (excluding index upkeep)."""
        locate_cost = (self.average_document_pages
                       * self.parameters.random_page_cost)
        return self.parameters.update_base_cost + locate_cost

    def maintenance_entries(self, index: IndexDefinition,
                            touched: Sequence[PathPattern]) -> float:
        """Entries of ``index`` affected by one execution of an update that
        touches the ``touched`` patterns.

        Computed against the actual path synopsis: paths matched by both
        the index pattern and any touched pattern contribute their
        per-document node counts.
        """
        affected_paths = set()
        for path in self.statistics.paths_matching(index.pattern):
            for touched_pattern in touched:
                if touched_pattern.matches(path):
                    affected_paths.add(path)
                    break
        if not affected_paths:
            return 0.0
        total_nodes = sum(self.statistics.path_stats[p].node_count
                          for p in affected_paths)
        # One update statement touches (roughly) one document's worth of
        # those nodes.
        return max(1.0, total_nodes / self.document_count)

    def maintenance_cost(self, index: IndexDefinition,
                         touched: Sequence[PathPattern]) -> Tuple[float, float]:
        """Cost and affected-entry count of maintaining ``index`` for one update."""
        affected = self.maintenance_entries(index, touched)
        if affected <= 0.0:
            return 0.0, 0.0
        cost = (self.index_probe_cost(index)
                + affected * self.parameters.cpu_index_maintenance_cost)
        return cost, affected

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _result_cardinality(self, query: NormalizedQuery) -> float:
        """Rough output cardinality: documents surviving all predicates."""
        doc_count = float(self.document_count)
        fraction = 1.0
        for predicate in query.predicates:
            containing = self.statistics.documents_containing(predicate.pattern)
            doc_fraction = containing / doc_count if doc_count else 0.0
            value_selectivity = self.statistics.predicate_selectivity(
                predicate.pattern, predicate.op, predicate.value)
            fraction *= min(1.0, doc_fraction) * max(value_selectivity, 1e-6) ** 0.5
        return max(0.0, doc_count * fraction)
