"""Delta-propagation maintenance: document change as a first-class delta.

Before this module existed, every document add/remove was a teardown:
the collection dropped its derived state and statistics, physical indexes
were rebuilt from scratch, and the optimizer plan cache and the
advisor's evaluator discarded all state whenever ``data_signature()``
moved.  The paper's advisor targets *evolving* databases, so data change
is now modelled as a delta that flows through the stack instead of a
global cache flush:

* :class:`DocumentDelta` -- one document's per-path node groups, computed
  in one O(document nodes) pass.  It is the unit every consumer
  understands: the columnar store splices or retracts the document's
  slab, the statistics accumulator adjusts its synopses from it, and
  physical indexes derive the entries to insert or delete from it.
* :class:`CollectionDelta` -- a :class:`DocumentDelta` plus the operation
  (add/remove) and the collection version it produced.  Removals imply a
  *document-key shift*: the store reassigns the ids of later documents,
  so consumers retract the removed document's groups and slide every key
  above it down by one.
* :class:`DeltaLog` -- a bounded per-collection journal so detached
  consumers (the executor's materialized indexes) can catch up from the
  version they last saw; when the log has been trimmed or broken by an
  in-place edit (:meth:`DeltaLog.mark_discontinuity`), ``since`` returns
  ``None`` and the consumer falls back to a full rebuild.
* :class:`DataChangeTracker` / :class:`DataChange` -- the
  database-level view used by the optimizer's plan cache and the
  advisor's :class:`~repro.advisor.benefit.ConfigurationEvaluator`: it
  diffs per-collection statistics snapshots between polls and reports
  *which collections and which distinct paths actually changed*, so
  cached plans and per-query costings are evicted selectively instead of
  wholesale.

Exactness contract: with the collection-scoped cost model (the
default) a cached plan or costing depends only on the synopses of its
*routing set* -- the collections the query's patterns can match -- so
it is stale exactly when a routed collection changed or a changed path
could move the routing set itself (:meth:`DataChange.stales_routed_query`);
a change confined to other collections leaves it byte-exact even when
the whole-database aggregates moved.  Under the legacy global model
(``use_collection_costing=False``) every query is priced against
whole-database aggregates, so whenever those move, every cached cost
is stale and :attr:`DataChange.aggregates_changed` forces a full
re-cost -- the fine-grained path then only retains state that is
provably unchanged (pattern-relevance maps, plans and costings whose
statistics inputs did not move: signature churn from RUNSTATS,
empty-collection DDL, or net-zero batches).  Derived state maintained
through deltas, by contrast, is byte-identical to a rebuild by
construction, which the randomized equivalence tests assert.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache
from typing import (
    TYPE_CHECKING,
    Deque,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Tuple,
)

from repro.contracts import cache_contract, snapshot_contract
from repro.xmldb.nodes import DocumentNode, XmlNode
from repro.xpath.patterns import PathPattern

if TYPE_CHECKING:  # pragma: no cover - import only for type checkers
    from repro.storage.document_store import XmlDatabase
    from repro.storage.statistics import DatabaseStatistics
    from repro.xquery.model import NormalizedQuery

#: Default number of deltas a collection journal retains.  Consumers
#: further behind than this rebuild instead of catching up; the cap
#: bounds the memory pinned by node references in retained deltas.
DELTA_LOG_CAPACITY = 64

ADD = "add"
REMOVE = "remove"


@snapshot_contract()
@dataclass(frozen=True)
class DocumentDelta:
    """One document's contribution to a collection's derived state.

    ``path_groups`` maps each distinct simple path in the document to
    its element/attribute nodes in document order, captured once and
    shared by every consumer (store splice, statistics adjustment,
    index maintenance).
    """

    doc_key: int
    path_groups: Mapping[str, Tuple[XmlNode, ...]]
    element_count: int
    attribute_count: int

    @property
    def node_count(self) -> int:
        return self.element_count + self.attribute_count


@snapshot_contract()
@dataclass(frozen=True)
class CollectionDelta:
    """One add/remove operation on a collection, as a propagatable delta.

    ``version`` is the collection's data version *after* the operation.
    For ``kind == REMOVE``, consumers must also shift every document key
    greater than ``document.doc_key`` down by one (the store reassigns
    the ids of later documents on removal).
    """

    collection: str
    kind: str
    version: int
    document: DocumentDelta

    @property
    def is_add(self) -> bool:
        return self.kind == ADD

    @property
    def is_remove(self) -> bool:
        return self.kind == REMOVE


def compute_document_delta(document: DocumentNode,
                           doc_key: Optional[int] = None) -> DocumentDelta:
    """Capture ``document``'s per-path node groups in one O(nodes) pass.

    Capturing it as a delta lets the columnar store, the statistics
    accumulator, and every physical index consume one pass instead of
    re-walking the tree each.
    """
    key = document.doc_id if doc_key is None else doc_key
    groups: Dict[str, List[XmlNode]] = {}
    elements = 0
    attributes = 0
    for element in document.descendant_elements():
        groups.setdefault(element.simple_path(), []).append(element)
        elements += 1
        for attribute in element.attributes:
            groups.setdefault(attribute.simple_path(), []).append(attribute)
            attributes += 1
    return DocumentDelta(
        doc_key=key,
        path_groups={path: tuple(nodes) for path, nodes in groups.items()},
        element_count=elements,
        attribute_count=attributes,
    )


class DeltaLog:
    """A bounded journal of :class:`CollectionDelta` for one collection.

    ``since(version)`` answers "what happened after ``version``?" for
    consumers holding derived state (the executor's materialized
    indexes).  The log is *continuous* from :attr:`floor`: requests
    below the floor (trimmed history, or an in-place edit recorded via
    :meth:`mark_discontinuity`) return ``None``, which consumers treat
    as "rebuild from scratch".
    """

    def __init__(self, capacity: int = DELTA_LOG_CAPACITY,
                 floor: int = 0) -> None:
        self._capacity = max(1, capacity)
        self._deltas: Deque[CollectionDelta] = deque()
        self._floor = floor

    @property
    def floor(self) -> int:
        """The earliest version catch-up can start from."""
        return self._floor

    def __len__(self) -> int:
        return len(self._deltas)

    def record(self, delta: CollectionDelta) -> None:
        self._deltas.append(delta)
        while len(self._deltas) > self._capacity:
            dropped = self._deltas.popleft()
            self._floor = dropped.version

    def mark_discontinuity(self, version: int) -> None:
        """Declare history before ``version`` unreplayable (in-place edits,
        bulk invalidation): catch-up is only possible from ``version`` on."""
        self._deltas.clear()
        self._floor = version

    def since(self, version: int) -> Optional[List[CollectionDelta]]:
        """The deltas to replay for a consumer that last saw ``version``,
        oldest first, or ``None`` when the journal cannot bridge the gap."""
        if version < self._floor:
            return None
        return [delta for delta in self._deltas if delta.version > version]


# ----------------------------------------------------------------------
# Database-level change tracking (optimizer / advisor invalidation)
# ----------------------------------------------------------------------

#: Whole-database aggregates every query cost depends on (the cost
#: model's data pages, node counts and document counts all derive from
#: these).  When they move, no cached cost is trustworthy.
_Aggregates = Tuple[int, int, int, int]


@lru_cache(maxsize=4096)
def pattern_for_key(pattern_text: str) -> PathPattern:
    """Parse an index key's pattern text back into a pattern (memoized).

    Index keys are ``(pattern text, value type)`` tuples; the fine-
    grained invalidation paths need the pattern objects back to test
    them against changed paths.
    """
    return PathPattern.parse(pattern_text)


@cache_contract(memos={"_pattern_memo": {"policy": "object-keyed"}})
@dataclass
class DataChange:
    """What actually changed between two :class:`DataChangeTracker` polls."""

    changed_collections: FrozenSet[str]
    #: Distinct simple paths whose per-path statistics changed in any
    #: changed collection (including paths that appeared or vanished).
    changed_paths: FrozenSet[str]
    #: True when the whole-database aggregates moved -- every cached
    #: cost is then stale (the cost model is global).
    aggregates_changed: bool
    #: Merged statistics before/after the change (for size-estimate
    #: carry-over); ``None`` when the tracker did not capture them.
    old_statistics: Optional["DatabaseStatistics"] = None
    new_statistics: Optional["DatabaseStatistics"] = None
    _pattern_memo: Dict[PathPattern, bool] = field(default_factory=dict,
                                                   repr=False, compare=False)

    def affects_pattern(self, pattern: PathPattern) -> bool:
        """Does ``pattern`` match any changed path?  (Memoized: the same
        predicate and index patterns are probed for many cache entries.)"""
        cached = self._pattern_memo.get(pattern)
        if cached is None:
            cached = any(pattern.matches(path) for path in self.changed_paths)
            self._pattern_memo[pattern] = cached
        return cached

    def affects_index_key(self, key: Tuple[str, str]) -> bool:
        """Does the index identified by ``key`` see different statistics?"""
        return self.affects_pattern(pattern_for_key(key[0]))

    def affects_query(self, query: "NormalizedQuery") -> bool:
        """Could ``query``'s cost have changed (aggregates aside)?

        True when any of its predicate patterns -- or, for updates, any
        touched pattern -- matches a changed path.  Extraction paths
        only enter costs as a count, so they cannot make a query stale.
        """
        if self.aggregates_changed:
            return True
        for predicate in query.predicates:
            if self.affects_pattern(predicate.pattern):
                return True
        if query.is_update:
            for touched in query.touched_patterns:
                if self.affects_pattern(touched):
                    return True
        return False

    def affects_routing(self, query: "NormalizedQuery") -> bool:
        """Could this change have moved ``query``'s structural routing
        set, or the per-path statistics its routed cost reads?

        Unlike :meth:`affects_query` there is no whole-database
        aggregates shortcut: with collection-scoped costing a query's
        cost depends only on the synopses of its routed collections.
        A collection *enters* a routing set only by gaining a path one
        of the query's routing patterns matches -- which is exactly a
        changed path this test sees.
        """
        return any(self.affects_pattern(pattern)
                   for pattern in query.routing_patterns())

    def stales_routed_query(self, query: "NormalizedQuery",
                            routing: Optional[Tuple[str, ...]]) -> bool:
        """Is a cached plan/costing for ``query``, computed over the
        routing set ``routing``, stale after this change?

        ``None`` and the empty set were priced against the whole
        database, so they fall back to the aggregates-guarded
        :meth:`affects_query` (plus the routing-membership check).  A
        genuinely routed entry is stale only when a routed collection
        changed, or a changed path could alter the routing set itself.
        """
        if not routing:
            return self.affects_query(query) or self.affects_routing(query)
        if self.changed_collections & frozenset(routing):
            return True
        return self.affects_routing(query)


class DataChangeTracker:
    """Diffs a database's per-collection statistics between polls.

    Consumers (the optimizer's plan cache, the advisor's evaluator) hold
    one tracker each; :meth:`poll` returns ``None`` when nothing moved,
    or a :class:`DataChange` describing exactly which collections,
    distinct paths and aggregates did.  Polling advances the tracker's
    snapshot, so each change is reported once per consumer.

    Statistics snapshots are immutable (collections rebuild them rather
    than mutating), so holding references across polls is safe.
    """

    def __init__(self, database: "XmlDatabase") -> None:
        self._database = database
        self._signature = database.data_signature()
        self._state = self._capture_state()
        self._merged = database.statistics

    def _capture_state(self) -> Dict[str, Tuple[int, "DatabaseStatistics"]]:
        return {collection.name: (collection.version, collection.statistics)
                for collection in self._database.collections}

    def poll(self) -> Optional[DataChange]:
        """Report (and absorb) everything that changed since the last poll."""
        signature = self._database.data_signature()
        if signature == self._signature:
            return None
        old_state = self._state
        old_merged = self._merged
        new_state = self._capture_state()

        changed: List[str] = []
        for name, (version, _stats) in new_state.items():
            old = old_state.get(name)
            if old is None or old[0] != version:
                changed.append(name)
        changed.extend(name for name in old_state if name not in new_state)

        changed_paths: set = set()
        for name in changed:
            old_stats = old_state.get(name)
            new_stats = new_state.get(name)
            changed_paths.update(_diff_paths(
                old_stats[1] if old_stats else None,
                new_stats[1] if new_stats else None))

        aggregates_changed = (self._aggregates(old_state)
                              != self._aggregates(new_state))

        self._signature = signature
        self._state = new_state
        self._merged = self._database.statistics
        return DataChange(changed_collections=frozenset(changed),
                          changed_paths=frozenset(changed_paths),
                          aggregates_changed=aggregates_changed,
                          old_statistics=old_merged,
                          new_statistics=self._merged)

    @staticmethod
    def _aggregates(state: Dict[str, Tuple[int, "DatabaseStatistics"]]
                    ) -> _Aggregates:
        documents = nodes = elements = text_bytes = 0
        for _version, stats in state.values():
            documents += stats.document_count
            nodes += stats.total_node_count
            elements += stats.total_element_count
            text_bytes += stats.total_text_bytes
        return documents, nodes, elements, text_bytes


def _diff_paths(old: Optional["DatabaseStatistics"],
                new: Optional["DatabaseStatistics"]) -> List[str]:
    """Paths whose statistics differ between two collection snapshots."""
    if old is None:
        return list(new.path_stats) if new is not None else []
    if new is None:
        return list(old.path_stats)
    changed = [path for path in old.path_stats if path not in new.path_stats]
    for path, stat in new.path_stats.items():
        if old.path_stats.get(path) != stat:
            changed.append(path)
    return changed
