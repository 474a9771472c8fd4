"""Path-level statistics (the RUNSTATS analogue for XML data).

The optimizer's cost model and the advisor's index-size estimation never
look at the documents directly -- they consult a *path synopsis*: for
every distinct simple path in the database, how many nodes have that
path, how many distinct values they carry, how wide the values are, and
the numeric range when values are numeric.  This mirrors the XML
statistics DB2 collects and the paper's cost estimation relies on
("Cost estimation using DB statistics" in Figure 1).

Statistics are collected once per collection and merged per database;
collection is O(total nodes).  The merged snapshot keeps each
collection's sub-synopsis addressable (:attr:`DatabaseStatistics.collection_stats`)
so the collection-scoped cost model can route queries to -- and merge
statistics over -- exactly the collections their patterns can match
(:meth:`DatabaseStatistics.merged_over`).  Collection does not walk the
node trees itself: it derives the synopsis from the collection's
:class:`~repro.storage.columnar.ColumnarStore` postings, so statistics,
index builds and query execution all share one traversal of the data.

Incremental maintenance: the traversal feeds a
:class:`StatisticsAccumulator` -- per-path value/numeric multisets plus
running counters -- which can *also* absorb one document's
:class:`~repro.storage.maintenance.DocumentDelta` (add or retract) in
O(document nodes) and emit a fresh :class:`DatabaseStatistics` snapshot
in O(distinct paths).  The full build and the delta path share the same
recording code over the same normalized values (the build reads them
from the store's values column, the delta path computes them with the
function that filled it), so an incrementally maintained synopsis is
byte-identical to a rebuild by construction.  Snapshots stay immutable:
the accumulator is mutable private state of the collection; every
``snapshot()`` call produces a new statistics object.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    List,
    Optional,
    Tuple,
    Union,
)

from repro.contracts import builder, cache_contract, snapshot_contract
from repro.storage.columnar import (
    COLUMNAR_NODE_BYTES,
    NUMERIC_PROJECTION_ENTRY_BYTES,
    ColumnarStore,
    build_columnar_store,
)
from repro.xmldb.nodes import (
    DocumentNode,
    NodeKind,
    XmlNode,
    normalized_node_value,
)
from repro.xpath.ast import BinaryOp
from repro.xpath.patterns import PathPattern

if TYPE_CHECKING:  # pragma: no cover - import only for type checkers
    from repro.storage.maintenance import CollectionDelta, DocumentDelta

#: Default assumed width (bytes) of a string value when a path carries no
#: values at all (pure structural elements).
_DEFAULT_KEY_WIDTH = 8.0


@snapshot_contract(builders=("merge",), mutators=("merge",))
@dataclass
class PathStatistics:
    """Statistics for one distinct simple path.

    Attributes
    ----------
    path:
        The rooted simple path, e.g. ``/site/regions/africa/item/quantity``.
    node_count:
        Number of nodes (across all documents) with this path.
    document_count:
        Number of documents containing at least one such node.
    distinct_values:
        Number of distinct typed (whitespace-normalized string) values.
    total_value_bytes:
        Sum of value lengths, used to derive the average key width.
    numeric_count:
        How many of the values cast to DOUBLE.
    min_value / max_value:
        Numeric range over the castable values (``None`` when none cast).
    """

    path: str
    node_count: int = 0
    document_count: int = 0
    distinct_values: int = 0
    total_value_bytes: int = 0
    numeric_count: int = 0
    min_value: Optional[float] = None
    max_value: Optional[float] = None

    @property
    def average_value_bytes(self) -> float:
        if self.node_count == 0 or self.total_value_bytes == 0:
            return _DEFAULT_KEY_WIDTH
        return self.total_value_bytes / self.node_count

    @property
    def mostly_numeric(self) -> bool:
        """True when most values on this path cast to DOUBLE."""
        return self.node_count > 0 and self.numeric_count >= 0.5 * self.node_count

    def merge(self, other: "PathStatistics") -> None:
        """Fold another collection's statistics for the same path into this one."""
        self.node_count += other.node_count
        self.document_count += other.document_count
        # Distinct values cannot be merged exactly without the value sets;
        # take the max as a lower bound and the sum as an upper bound, and
        # use the geometric-style compromise the DB2 literature uses.
        low = max(self.distinct_values, other.distinct_values)
        high = self.distinct_values + other.distinct_values
        self.distinct_values = int(round((low + high) / 2)) if high else 0
        self.total_value_bytes += other.total_value_bytes
        self.numeric_count += other.numeric_count
        for bound in (other.min_value,):
            if bound is not None:
                self.min_value = bound if self.min_value is None else min(self.min_value, bound)
        for bound in (other.max_value,):
            if bound is not None:
                self.max_value = bound if self.max_value is None else max(self.max_value, bound)


@snapshot_contract(builders=("merge", "copy", "merged_over"),
                   mutators=("merge",),
                   memo_attrs=("_match_cache", "_evaluator_match_cache",
                               "size_cache", "_routing_cache"))
@cache_contract(memos={
    "_match_cache": {"policy": "object-keyed"},
    "_evaluator_match_cache": {"policy": "object-keyed"},
    "size_cache": {"policy": "object-keyed"},
    "_routing_cache": {"policy": "object-keyed"},
})
@dataclass
class DatabaseStatistics:
    """The full path synopsis for a collection or a whole database."""

    path_stats: Dict[str, PathStatistics] = field(default_factory=dict)
    document_count: int = 0
    total_node_count: int = 0
    total_element_count: int = 0
    total_text_bytes: int = 0
    #: Memo of pattern -> matching paths (pattern matching is the hot loop
    #: of size estimation and cost modelling).  Not part of equality.
    _match_cache: Dict[PathPattern, List[str]] = field(default_factory=dict,
                                                       repr=False, compare=False)
    #: The same memo under the interpreter's descendant-or-self semantics
    #: (what read-query routing asks).  Not part of equality.
    _evaluator_match_cache: Dict[PathPattern, List[str]] = field(
        default_factory=dict, repr=False, compare=False)
    #: Memo of index key -> estimated size in bytes, maintained by
    #: :mod:`repro.index.sizing`.  Lives and dies with this statistics
    #: object (statistics are rebuilt, not mutated, on data changes) and
    #: is cleared defensively by :meth:`merge`.  Not part of equality.
    size_cache: Dict[Tuple[str, str], float] = field(default_factory=dict,
                                                     repr=False, compare=False)
    #: Addressable per-collection sub-synopses, populated (in collection
    #: insertion order) by :attr:`XmlDatabase.statistics` on the merged
    #: object.  The collection-scoped cost model routes queries by
    #: matching their patterns against these instead of the flattened
    #: whole-database synopsis.  Empty on leaf (single-collection)
    #: snapshots.  Not part of equality.
    collection_stats: Dict[str, "DatabaseStatistics"] = field(
        default_factory=dict, repr=False, compare=False)
    #: The data version each sub-synopsis was snapshotted at.  Staleness
    #: of routed plans/costings is decided by diffing these snapshots
    #: between polls (:class:`~repro.storage.maintenance.DataChangeTracker`
    #: + :meth:`DataChange.stales_routed_query`); the versions here
    #: document which state the merged view reflects.
    collection_versions: Dict[str, int] = field(default_factory=dict,
                                                repr=False, compare=False)
    #: Memo of routing set -> merged statistics over that subset of the
    #: sub-synopses.  Not part of equality.
    _routing_cache: Dict[Tuple[str, ...], "DatabaseStatistics"] = field(
        default_factory=dict, repr=False, compare=False)

    # ------------------------------------------------------------------
    # Lookup helpers
    # ------------------------------------------------------------------
    @property
    def distinct_paths(self) -> List[str]:
        return sorted(self.path_stats)

    def stats_for_path(self, path: str) -> Optional[PathStatistics]:
        return self.path_stats.get(path)

    def paths_matching(self, pattern: PathPattern) -> List[str]:
        """All distinct simple paths matched by ``pattern`` (memoized)."""
        cached = self._match_cache.get(pattern)
        if cached is None:
            cached = [path for path in self.path_stats if pattern.matches(path)]
            self._match_cache[pattern] = cached
        return cached

    def paths_matching_evaluator(self, pattern: PathPattern) -> List[str]:
        """The distinct paths ``pattern`` matches under the interpreter's
        descendant-or-self semantics
        (:meth:`~repro.xpath.patterns.PathPattern.matches_evaluator`;
        memoized)."""
        cached = self._evaluator_match_cache.get(pattern)
        if cached is None:
            cached = [path for path in self.path_stats
                      if pattern.matches_evaluator(path)]
            self._evaluator_match_cache[pattern] = cached
        return cached

    def cardinality(self, pattern: PathPattern) -> int:
        """Number of nodes in the database matched by ``pattern``."""
        return sum(self.path_stats[p].node_count for p in self.paths_matching(pattern))

    def distinct_values(self, pattern: PathPattern) -> int:
        """Approximate number of distinct values among nodes matched by ``pattern``."""
        return sum(self.path_stats[p].distinct_values
                   for p in self.paths_matching(pattern))

    def average_key_width(self, pattern: PathPattern) -> float:
        """Average value width (bytes) over nodes matched by ``pattern``."""
        matched = self.paths_matching(pattern)
        total_nodes = sum(self.path_stats[p].node_count for p in matched)
        if total_nodes == 0:
            return _DEFAULT_KEY_WIDTH
        total_bytes = sum(self.path_stats[p].total_value_bytes for p in matched)
        if total_bytes == 0:
            return _DEFAULT_KEY_WIDTH
        return total_bytes / total_nodes

    def documents_containing(self, pattern: PathPattern) -> int:
        """Upper-bound estimate of documents containing a node matched by
        ``pattern`` (capped at the document count)."""
        matched = self.paths_matching(pattern)
        if not matched:
            return 0
        upper = max(self.path_stats[p].document_count for p in matched)
        return min(self.document_count, max(upper, 1))

    def numeric_range(self, pattern: PathPattern) -> Optional[Tuple[float, float]]:
        """The [min, max] numeric range of values under ``pattern``."""
        lows: List[float] = []
        highs: List[float] = []
        for path in self.paths_matching(pattern):
            stat = self.path_stats[path]
            if stat.min_value is not None and stat.max_value is not None:
                lows.append(stat.min_value)
                highs.append(stat.max_value)
        if not lows:
            return None
        return min(lows), max(highs)

    # ------------------------------------------------------------------
    # Selectivity estimation
    # ------------------------------------------------------------------
    def predicate_selectivity(self, pattern: PathPattern, op: Optional[BinaryOp],
                              value: Optional[Union[str, float]]) -> float:
        """Fraction of the nodes matched by ``pattern`` that satisfy the
        comparison ``op value``.

        Uses the textbook uniformity assumptions: ``1/distinct`` for
        equality, a linear interpolation over the [min, max] range for
        inequalities, and 1.0 for pure existence predicates (every node
        with the path "satisfies" it).
        """
        if op is None or value is None:
            return 1.0
        cardinality = self.cardinality(pattern)
        if cardinality == 0:
            return 0.0
        distinct = max(1, self.distinct_values(pattern))
        if op is BinaryOp.EQ:
            return min(1.0, 1.0 / distinct)
        if op is BinaryOp.NE:
            return max(0.0, 1.0 - 1.0 / distinct)
        # Range predicate: interpolate when we know the numeric range.
        numeric_value = _as_float(value)
        bounds = self.numeric_range(pattern)
        if numeric_value is None or bounds is None or bounds[1] <= bounds[0]:
            return 1.0 / 3.0  # classical default for range predicates
        low, high = bounds
        fraction_below = (numeric_value - low) / (high - low)
        fraction_below = min(1.0, max(0.0, fraction_below))
        if op in (BinaryOp.LT, BinaryOp.LE):
            selectivity = fraction_below
        else:
            selectivity = 1.0 - fraction_below
        return min(1.0, max(1.0 / cardinality, selectivity))

    # ------------------------------------------------------------------
    # Sizes
    # ------------------------------------------------------------------
    @property
    def total_data_bytes(self) -> float:
        """Approximate on-disk size of the XML data itself."""
        from repro.storage.pages import XML_NODE_OVERHEAD_BYTES
        return (self.total_node_count * XML_NODE_OVERHEAD_BYTES
                + self.total_text_bytes)

    @property
    def columnar_bytes(self) -> int:
        """Footprint of the columnar pre/post encoding of this data.

        Derived from the synopsis alone: every stored node (element or
        attribute; document nodes are virtual in the columnar plane)
        costs :data:`~repro.storage.columnar.COLUMNAR_NODE_BYTES` of
        column/postings/value-projection storage plus its normalized
        typed-value text, and every numeric value additionally charges
        :data:`~repro.storage.columnar.NUMERIC_PROJECTION_ENTRY_BYTES`
        for its slot in the path's parsed DOUBLE column (the synopsis's
        ``numeric_count`` counts castable normalized values exactly as
        the values column does).  By construction this equals
        ``ColumnarStore.nbytes`` of the same data -- the advisor's size
        estimates and the tuning controller's ``build_budget_bytes``
        consult it so the encoding's real footprint is accounted for.
        """
        stored_nodes = self.total_node_count - self.document_count
        value_bytes = sum(stat.total_value_bytes
                          for stat in self.path_stats.values())
        numeric_values = sum(stat.numeric_count
                             for stat in self.path_stats.values())
        return (stored_nodes * COLUMNAR_NODE_BYTES + value_bytes
                + numeric_values * NUMERIC_PROJECTION_ENTRY_BYTES)

    # ------------------------------------------------------------------
    # Per-collection routing views
    # ------------------------------------------------------------------
    def merged_over(self, names: Iterable[str]) -> "DatabaseStatistics":
        """Merged statistics over the sub-synopses named by ``names``.

        This is the collection-scoped cost model's view of a routing
        set: the same merge the database performs over all collections,
        restricted to the routed subset (and performed in the same
        collection insertion order, so covering every collection
        reproduces the whole-database synopsis byte-identically --
        in fact that case returns ``self``).  Memoized per routing set;
        statistics objects are rebuilt, never mutated, on data change,
        so the memo cannot go stale.
        """
        if not self.collection_stats:
            return self
        requested = set(names) & set(self.collection_stats)
        if len(requested) >= len(self.collection_stats) or not requested:
            # Full coverage is exactly this object; an empty routing set
            # falls back to the unscoped synopsis (the legacy model).
            return self
        key = tuple(sorted(requested))
        cached = self._routing_cache.get(key)
        if cached is None:
            cached = DatabaseStatistics()
            for name, stats in self.collection_stats.items():
                if name in requested:
                    cached.merge(stats)
            self._routing_cache[key] = cached
        return cached

    # ------------------------------------------------------------------
    # Merging
    # ------------------------------------------------------------------
    def merge(self, other: "DatabaseStatistics") -> None:
        """Fold another statistics object (e.g. another collection) into this one."""
        self._match_cache.clear()
        self._evaluator_match_cache.clear()
        self.size_cache.clear()
        self.document_count += other.document_count
        self.total_node_count += other.total_node_count
        self.total_element_count += other.total_element_count
        self.total_text_bytes += other.total_text_bytes
        for path, stat in other.path_stats.items():
            if path in self.path_stats:
                self.path_stats[path].merge(stat)
            else:
                self.path_stats[path] = PathStatistics(
                    path=stat.path,
                    node_count=stat.node_count,
                    document_count=stat.document_count,
                    distinct_values=stat.distinct_values,
                    total_value_bytes=stat.total_value_bytes,
                    numeric_count=stat.numeric_count,
                    min_value=stat.min_value,
                    max_value=stat.max_value,
                )

    def copy(self) -> "DatabaseStatistics":
        fresh = DatabaseStatistics()
        fresh.merge(self)
        return fresh


def collect_statistics(documents: Iterable[DocumentNode]) -> DatabaseStatistics:
    """Scan ``documents`` and build the path synopsis.

    Element paths record the element's own text value (concatenated
    descendant text is *not* used: only direct text children count as the
    element's indexable value, matching how leaf-value indexes behave);
    attribute paths record the attribute value.

    The documents are encoded into a columnar store in one pass and the
    synopsis is derived from its postings
    (:meth:`StatisticsAccumulator.from_store`).
    """
    return StatisticsAccumulator.from_store(
        build_columnar_store(documents)).snapshot()


def _text_bytes(node: XmlNode) -> int:
    """A node's text-byte charge: attribute bytes are counted unstripped,
    element direct text stripped (but not whitespace-collapsed, so it
    can exceed the normalized value's length)."""
    if node.kind is NodeKind.ATTRIBUTE:
        return len(node.value)
    return len("".join([child.value for child in node.children
                        if child.kind is NodeKind.TEXT]).strip())


class _PathAccumulator:
    """Mutable per-path state: the multisets a retractable synopsis needs."""

    __slots__ = ("node_count", "document_count", "total_value_bytes",
                 "numeric_count", "values", "numeric_values",
                 "min_value", "max_value")

    def __init__(self) -> None:
        self.node_count = 0
        self.document_count = 0
        self.total_value_bytes = 0
        self.numeric_count = 0
        #: Multiset of normalized values (a plain distinct-value *set*
        #: cannot support retraction).
        self.values: Counter = Counter()
        #: Multiset of castable numeric values, for exact min/max under
        #: removal.
        self.numeric_values: Counter = Counter()
        self.min_value: Optional[float] = None
        self.max_value: Optional[float] = None

    def add_value(self, normalized: str, count: int = 1) -> None:
        """Record ``count`` nodes whose normalized value is ``normalized``."""
        self.node_count += count
        if normalized:
            self.values[normalized] += count
            self.total_value_bytes += count * len(normalized)
            number = _as_float(normalized)
            if number is not None:
                self.numeric_count += count
                self.numeric_values[number] += count
                if self.min_value is None or number < self.min_value:
                    self.min_value = number
                if self.max_value is None or number > self.max_value:
                    self.max_value = number

    def remove_value(self, normalized: str) -> None:
        """Retract one node recorded by :meth:`add_value`."""
        self.node_count -= 1
        if normalized:
            remaining = self.values[normalized] - 1
            if remaining:
                self.values[normalized] = remaining
            else:
                del self.values[normalized]
            self.total_value_bytes -= len(normalized)
            number = _as_float(normalized)
            if number is not None:
                self.numeric_count -= 1
                remaining = self.numeric_values[number] - 1
                if remaining:
                    self.numeric_values[number] = remaining
                else:
                    del self.numeric_values[number]
                    if number == self.min_value or number == self.max_value:
                        if self.numeric_values:
                            self.min_value = min(self.numeric_values)
                            self.max_value = max(self.numeric_values)
                        else:
                            self.min_value = None
                            self.max_value = None

    def to_statistics(self, path: str) -> PathStatistics:
        return PathStatistics(
            path=path,
            node_count=self.node_count,
            document_count=self.document_count,
            distinct_values=len(self.values),
            total_value_bytes=self.total_value_bytes,
            numeric_count=self.numeric_count,
            min_value=self.min_value,
            max_value=self.max_value,
        )


class StatisticsAccumulator:
    """Retractable synopsis state for one collection.

    Built once from a columnar store (or empty), then kept current by
    absorbing :class:`~repro.storage.maintenance.CollectionDelta`
    operations in O(changed-document nodes); :meth:`snapshot` emits an
    immutable :class:`DatabaseStatistics` in O(distinct paths).
    """

    def __init__(self) -> None:
        self._paths: Dict[str, _PathAccumulator] = {}
        self.document_count = 0
        self.total_text_bytes = 0

    # ------------------------------------------------------------------
    @classmethod
    def from_store(cls, store: ColumnarStore) -> "StatisticsAccumulator":
        """The accumulator of ``store``'s documents, read off its
        postings: per live path its document count, its nodes'
        normalized values from the values column (the same
        :func:`~repro.xmldb.nodes.normalized_node_value` the delta path
        applies), recorded once per distinct value with its multiplicity,
        and only the text-byte charge from the nodes themselves."""
        accumulator = cls()
        accumulator.document_count = store.document_count
        value_at = store.values.__getitem__
        node_at = store.node_at
        for path, postings, documents in store.path_postings():
            entry = accumulator._paths[path] = _PathAccumulator()
            entry.document_count = documents
            for value, count in Counter(map(value_at, postings)).items():
                entry.add_value(value, count)
            accumulator.total_text_bytes += sum(
                map(_text_bytes, map(node_at, postings)))
        return accumulator

    # ------------------------------------------------------------------
    # Delta maintenance
    # ------------------------------------------------------------------
    def apply_delta(self, delta: "CollectionDelta") -> None:
        if delta.is_add:
            self.add_document(delta.document)
        else:
            self.remove_document(delta.document)

    def add_document(self, document: "DocumentDelta") -> None:
        self.document_count += 1
        for path, nodes in document.path_groups.items():
            entry = self._paths.get(path)
            if entry is None:
                entry = self._paths[path] = _PathAccumulator()
            entry.document_count += 1
            for node in nodes:
                entry.add_value(normalized_node_value(node))
                self.total_text_bytes += _text_bytes(node)

    def remove_document(self, document: "DocumentDelta") -> None:
        self.document_count -= 1
        for path, nodes in document.path_groups.items():
            entry = self._paths[path]
            entry.document_count -= 1
            for node in nodes:
                entry.remove_value(normalized_node_value(node))
                self.total_text_bytes -= _text_bytes(node)
            if entry.node_count == 0:
                del self._paths[path]

    # ------------------------------------------------------------------
    @builder
    def snapshot(self) -> DatabaseStatistics:
        """Emit an immutable synopsis of the current state (O(paths))."""
        stats = DatabaseStatistics()
        stats.document_count = self.document_count
        stats.total_node_count = self.document_count  # the document nodes
        for path in sorted(self._paths):
            entry = self._paths[path]
            stats.path_stats[path] = entry.to_statistics(path)
            stats.total_node_count += entry.node_count
            if "/@" not in path:
                stats.total_element_count += entry.node_count
        stats.total_text_bytes = self.total_text_bytes
        return stats


def _as_float(value: Union[str, float, None]) -> Optional[float]:
    if value is None:
        return None
    if isinstance(value, float):
        return value
    try:
        return float(value)
    except (TypeError, ValueError):
        return None
