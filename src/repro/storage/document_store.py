"""Document store: named collections of XML documents.

An :class:`XmlCollection` is the analogue of a DB2 table with an XML
column: a bag of documents plus the statistics gathered over them.  An
:class:`XmlDatabase` groups collections and owns the system
:class:`~repro.storage.catalog.Catalog`; it is the object the optimizer,
the advisor, and the executor are handed.

Data change is propagated as a *delta*: every document add/remove
captures the document's per-path node groups once
(:func:`~repro.storage.maintenance.compute_document_delta`), folds them
into the cached path summary, columnar store and statistics accumulator
instead of dropping them for a rebuild, and journals the delta so
detached consumers (the executor's materialized indexes) can catch up.
In-place edits (:meth:`XmlCollection.invalidate_statistics`) cannot be
expressed as a delta: they drop the derived state and break the journal.
"""

from __future__ import annotations

import weakref
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
)

from repro.contracts import builder, cache_contract
from repro.faults import guarded_fault_point
from repro.storage.catalog import Catalog
from repro.storage.maintenance import (
    ADD,
    DELTA_LOG_CAPACITY,
    REMOVE,
    CollectionDelta,
    DeltaLog,
    compute_document_delta,
)
from repro.storage.columnar import ColumnarStore, build_columnar_store
from repro.storage.path_summary import PathSummary, build_path_summary
from repro.storage.statistics import (
    DatabaseStatistics,
    StatisticsAccumulator,
)
from repro.xmldb.nodes import DocumentNode
from repro.xmldb.parser import parse_document


class StorageError(Exception):
    """Raised on invalid document-store operations."""


@cache_contract(memos={
    "_summary": {"policy": "push", "readers": ("path_summary",),
                 "refreshers": ("_apply_delta", "_invalidate_derived")},
    "_statistics": {"policy": "push", "readers": ("statistics",),
                    "refreshers": ("_apply_delta", "_invalidate_derived")},
    "_accumulator": {"policy": "push", "readers": ("statistics",),
                     "refreshers": ("_apply_delta", "_invalidate_derived")},
    "_columnar": {"policy": "push", "readers": ("columnar_store",),
                  "refreshers": ("_apply_delta", "_invalidate_derived")},
})
class XmlCollection:
    """A named collection of XML documents (a table with an XML column)."""

    def __init__(self, name: str,
                 delta_log_capacity: int = DELTA_LOG_CAPACITY) -> None:
        if delta_log_capacity < 1:
            raise ValueError(
                f"delta_log_capacity must be positive, got {delta_log_capacity}")
        self.name = name
        #: How many deltas the journal retains before consumers further
        #: behind must rebuild (see :class:`~repro.storage.maintenance.DeltaLog`).
        self.delta_log_capacity = delta_log_capacity
        self._documents: List[DocumentNode] = []
        self._statistics: Optional[DatabaseStatistics] = None
        self._summary: Optional[PathSummary] = None
        self._accumulator: Optional[StatisticsAccumulator] = None
        self._columnar: Optional[ColumnarStore] = None
        self._delta_log = DeltaLog(capacity=delta_log_capacity)
        self._change_listeners: List[Callable[["XmlCollection"], None]] = []
        #: Monotonic data version, bumped on every document add/remove so
        #: consumers holding derived state (the executor's document
        #: lookup, merged database statistics) can detect staleness.
        self._version = 0

    # ------------------------------------------------------------------
    def add_document(self, document: Union[DocumentNode, str, bytes],
                     uri: str = "") -> DocumentNode:
        """Add a document (already-parsed node tree, or XML text) and return it."""
        if isinstance(document, (str, bytes)):
            document = parse_document(document, uri=uri)
        if not isinstance(document, DocumentNode):
            raise StorageError(
                f"expected a DocumentNode or XML text, got {type(document).__name__}")
        document.doc_id = len(self._documents)
        if document.node_id < 0:
            document.assign_node_ids()
        self._documents.append(document)
        self._apply_delta(CollectionDelta(
            collection=self.name, kind=ADD, version=self._version + 1,
            document=compute_document_delta(document)))
        return document

    def add_documents(self, documents: Iterable[Union[DocumentNode, str, bytes]]) -> None:
        for document in documents:
            self.add_document(document)

    def remove_document(self, doc_id: int) -> None:
        """Remove a document by id (ids of later documents are reassigned)."""
        if not 0 <= doc_id < len(self._documents):
            raise StorageError(f"no document with id {doc_id} in collection {self.name!r}")
        # Capture the groups before removal, while doc_id is intact.
        delta = CollectionDelta(
            collection=self.name, kind=REMOVE, version=self._version + 1,
            document=compute_document_delta(self._documents[doc_id]))
        del self._documents[doc_id]
        for index, document in enumerate(self._documents):
            document.doc_id = index
        self._apply_delta(delta)

    def _apply_delta(self, delta: CollectionDelta) -> None:
        """Fold one add/remove into the cached derived state and journal it."""
        if self._summary is not None:
            self._summary = self._summary.apply_delta(delta)
        if self._columnar is not None:
            self._columnar = self._columnar.apply_delta(delta)
        if self._accumulator is not None:
            self._accumulator.apply_delta(delta)
        self._statistics = None  # snapshot lazily from the accumulator
        self._version += 1
        self._delta_log.record(delta)
        self._notify_change()

    def _invalidate_derived(self) -> None:
        """Drop the cached statistics and path summary; bump the version.

        This is the full-rebuild path: it also breaks the delta journal,
        because in-place edits cannot be replayed -- consumers that ask
        for deltas across this point get ``None`` and rebuild.
        """
        self._statistics = None
        self._summary = None
        self._accumulator = None
        self._columnar = None
        self._version += 1
        self._delta_log.mark_discontinuity(self._version)
        self._notify_change()

    # ------------------------------------------------------------------
    # Change propagation
    # ------------------------------------------------------------------
    def subscribe(self, callback: Callable[["XmlCollection"], None],
                  weak: bool = False) -> None:
        """Register a callback fired after every data-version bump.

        With ``weak=True`` (bound methods only) the collection holds the
        callback's owner weakly and drops the listener automatically
        once the owner is garbage-collected -- for consumers with
        shorter lifetimes than the collection (e.g. per-request query
        executors), which would otherwise be pinned forever by the
        listener list.
        """
        if weak:
            self._change_listeners.append(weakref.WeakMethod(callback))
        else:
            self._change_listeners.append(callback)

    def _notify_change(self) -> None:
        dead: List[object] = []
        for listener in self._change_listeners:
            if isinstance(listener, weakref.WeakMethod):
                callback = listener()
                if callback is None:
                    dead.append(listener)
                    continue
            else:
                callback = listener
            callback(self)
        for listener in dead:
            self._change_listeners.remove(listener)

    def deltas_since(self, version: int) -> Optional[List[CollectionDelta]]:
        """The journal of changes after ``version`` (oldest first), or
        ``None`` when the journal cannot bridge the gap (history trimmed
        or in-place edits) -- the consumer must then rebuild its derived
        state."""
        return self._delta_log.since(version)

    @property
    def version(self) -> int:
        """Data version: increments whenever a document is added/removed."""
        return self._version

    # ------------------------------------------------------------------
    @property
    def documents(self) -> List[DocumentNode]:
        return list(self._documents)

    def __len__(self) -> int:
        return len(self._documents)

    def __iter__(self) -> Iterator[DocumentNode]:
        return iter(self._documents)

    def document(self, doc_id: int) -> DocumentNode:
        if not 0 <= doc_id < len(self._documents):
            raise StorageError(f"no document with id {doc_id} in collection {self.name!r}")
        return self._documents[doc_id]

    # ------------------------------------------------------------------
    @property
    def path_summary(self) -> PathSummary:
        """The structural path summary (built lazily in one O(nodes) pass).

        The cached summary is *replaced* -- not rebuilt -- on document
        add/remove via
        :meth:`~repro.storage.path_summary.PathSummary.apply_delta`, so
        consumers must re-fetch per use instead of holding one across
        updates.
        """
        if self._summary is None:
            summary = build_path_summary(self._documents)
            # Publication seam: a persistent injected fault raises here,
            # before the cache assignment, so a failed publish leaves the
            # memo empty (crash-safe) rather than half-published.
            guarded_fault_point("snapshot.publish")
            self._summary = summary
        return self._summary

    @property
    def columnar_store(self) -> ColumnarStore:
        """The columnar pre/post encoding of this collection (lazy).

        Maintained exactly like :attr:`path_summary`: the cached store
        is *replaced* on document add/remove via
        :meth:`~repro.storage.columnar.ColumnarStore.apply_delta`.
        Consumers must re-fetch per use instead of holding one across
        updates.
        """
        if self._columnar is None:
            store = build_columnar_store(self._documents)
            # Publication seam, as for the path summary: a persistent
            # injected fault raises before the cache assignment.
            guarded_fault_point("snapshot.publish")
            self._columnar = store
        return self._columnar

    @property
    def statistics(self) -> DatabaseStatistics:
        """The path synopsis for this collection (collected lazily, cached).

        Derived from :attr:`path_summary`, so statistics collection and
        structural lookups share a single traversal of the documents.
        The synopsis is snapshotted from a delta-maintained accumulator
        (O(distinct paths)) instead of recollected from all nodes.
        """
        if self._statistics is None:
            if self._accumulator is None:
                accumulator = StatisticsAccumulator.from_summary(
                    self.path_summary)
                guarded_fault_point("stats.rebuild")
                self._accumulator = accumulator
            self._statistics = self._accumulator.snapshot()
        return self._statistics

    def invalidate_statistics(self) -> None:
        """Force statistics and the path summary to be re-collected
        (after bulk in-place document edits)."""
        self._invalidate_derived()


@cache_contract(memos={
    "_signature_cache": {"policy": "push", "readers": ("data_signature",),
                         "refreshers": ("_on_collection_change",
                                        "create_collection")},
    "_merged_statistics": {"policy": "push", "readers": ("statistics",),
                           "refreshers": ("_on_collection_change",
                                          "create_collection",
                                          "invalidate_statistics")},
    "_merged_signature": {"policy": "push", "readers": ("statistics",),
                          "refreshers": ("invalidate_statistics",)},
})
class XmlDatabase:
    """A set of collections plus the system catalog.

    This is the "XML Database" box of Figure 1: the advisor receives it
    together with the workload, the optimizer consults its statistics and
    catalog, and the executor runs queries against its documents.
    """

    def __init__(self, name: str = "xmldb",
                 delta_log_capacity: int = DELTA_LOG_CAPACITY) -> None:
        if delta_log_capacity < 1:
            raise ValueError(
                f"delta_log_capacity must be positive, got {delta_log_capacity}")
        self.name = name
        #: Journal capacity handed to every collection this database
        #: creates (see :class:`~repro.storage.maintenance.DeltaLog`):
        #: consumers that fall further behind than this rebuild instead
        #: of catching up from deltas.
        self.delta_log_capacity = delta_log_capacity
        self._collections: Dict[str, XmlCollection] = {}
        self.catalog = Catalog()
        self._merged_statistics: Optional[DatabaseStatistics] = None
        self._merged_signature: Optional[Tuple[Tuple[str, int], ...]] = None
        self._signature_cache: Optional[Tuple[Tuple[str, int], ...]] = None

    # ------------------------------------------------------------------
    # Collections
    # ------------------------------------------------------------------
    def create_collection(self, name: str) -> XmlCollection:
        """Create (or return the existing) collection called ``name``."""
        if name in self._collections:
            return self._collections[name]
        collection = XmlCollection(
            name, delta_log_capacity=self.delta_log_capacity)
        collection.subscribe(self._on_collection_change)
        self._collections[name] = collection
        self._merged_statistics = None
        self._signature_cache = None
        return collection

    def _on_collection_change(self, _collection: XmlCollection) -> None:
        """Version-bump listener: memoized signature and merged
        statistics are stale the moment any collection changes."""
        self._signature_cache = None
        self._merged_statistics = None

    def collection(self, name: str) -> XmlCollection:
        if name not in self._collections:
            raise StorageError(f"unknown collection {name!r}")
        return self._collections[name]

    @property
    def collections(self) -> List[XmlCollection]:
        return list(self._collections.values())

    @property
    def collection_names(self) -> List[str]:
        return sorted(self._collections)

    def add_document(self, collection_name: str,
                     document: Union[DocumentNode, str, bytes]) -> DocumentNode:
        """Add a document to ``collection_name`` (creating it if needed)."""
        collection = self.create_collection(collection_name)
        return collection.add_document(document)

    def all_documents(self) -> List[DocumentNode]:
        documents: List[DocumentNode] = []
        for collection in self._collections.values():
            documents.extend(collection.documents)
        return documents

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def data_signature(self) -> Tuple[Tuple[str, int], ...]:
        """A cheap fingerprint of the database contents.

        Changes whenever a collection is created or any collection's
        documents change; consumers (merged statistics, the executor's
        document lookup) compare signatures to detect staleness.
        Memoized behind the per-collection version listeners, so the
        hot-path staleness checks (executor per query, optimizer per
        plan-cache probe, evaluator per entry point) stop re-deriving it
        from every collection on every call.
        """
        if self._signature_cache is None:
            self._signature_cache = tuple(
                sorted((collection.name, collection.version)
                       for collection in self._collections.values()))
        return self._signature_cache

    @property
    @builder
    def statistics(self) -> DatabaseStatistics:
        """Merged statistics over every collection (the optimizer's view).

        Recomputed automatically when any collection's documents change
        -- including documents added directly via
        ``collection.add_document`` -- so the optimizer never costs plans
        against a stale synopsis.
        """
        signature = self.data_signature()
        if self._merged_statistics is None or signature != self._merged_signature:
            merged = DatabaseStatistics()
            for collection in self._collections.values():
                stats = collection.statistics
                merged.merge(stats)
                # Keep the per-collection sub-synopses addressable on the
                # merged object: the collection-scoped cost model routes
                # queries against them, and cached plans/costings are
                # keyed to their data versions.
                merged.collection_stats[collection.name] = stats
                merged.collection_versions[collection.name] = collection.version
            # Publication seam: fails before the cache assignments, so
            # the merged snapshot is either fully published or not at all.
            guarded_fault_point("snapshot.publish")
            self._merged_statistics = merged
            self._merged_signature = signature
        return self._merged_statistics

    def invalidate_statistics(self) -> None:
        """Invalidate cached statistics (and path summaries) on the
        database and all collections."""
        self._merged_statistics = None
        self._merged_signature = None
        for collection in self._collections.values():
            collection.invalidate_statistics()

    def runstats(self) -> DatabaseStatistics:
        """Recollect statistics eagerly and return them (RUNSTATS analogue)."""
        self.invalidate_statistics()
        return self.statistics

    # ------------------------------------------------------------------
    def describe(self) -> str:
        """Readable one-paragraph summary used by the CLI and reports."""
        stats = self.statistics
        return (f"database {self.name!r}: {len(self._collections)} collection(s), "
                f"{stats.document_count} documents, "
                f"{stats.total_element_count} elements, "
                f"{len(stats.path_stats)} distinct paths, "
                f"~{stats.total_data_bytes / 1024:.0f} KiB of data")
