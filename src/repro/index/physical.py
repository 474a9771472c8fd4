"""Physical XML path indexes.

A physical index materializes the (key, document id, node id) entries
for every node matched by the index pattern, sorted by key, so the
executor can answer equality and range predicates with binary search
instead of scanning documents.  This is what the demo's last step does:
"review the final recommended index configuration and ... create it.
The actual execution time taken by the queries can then be displayed."
"""

from __future__ import annotations

import bisect
import heapq
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence, Tuple, Union

from repro.faults import guarded_fault_point
from repro.index.definition import IndexDefinition
from repro.storage import pages
from repro.storage.document_store import XmlDatabase
from repro.xmldb.nodes import NodeKind
from repro.xpath.ast import BinaryOp
from repro.xquery.model import ValueType

if TYPE_CHECKING:  # pragma: no cover - import only for type checkers
    from repro.storage.maintenance import CollectionDelta, DocumentDelta


@dataclass(frozen=True)
class IndexEntry:
    """One index entry: key value plus the node's address."""

    key: Union[str, float]
    collection: str
    doc_id: int
    node_id: int


class PhysicalPathIndex:
    """A sorted-array implementation of an XML path/value index.

    Keys are either normalized strings (VARCHAR indexes) or floats
    (DOUBLE indexes).  The structure supports point lookups, range scans
    and full scans, and reports its actual size in bytes and pages.
    """

    def __init__(self, definition: IndexDefinition) -> None:
        if definition.is_virtual:
            raise ValueError(
                f"cannot build a physical structure for virtual index {definition.name!r}")
        self.definition = definition
        self._entries: List[IndexEntry] = []
        self._keys: List[Union[str, float]] = []
        self._finalized = False

    # ------------------------------------------------------------------
    # Building
    # ------------------------------------------------------------------
    def insert(self, key: Union[str, float], collection: str, doc_id: int,
               node_id: int) -> None:
        if self._finalized:
            raise RuntimeError("index already finalized; rebuild to add entries")
        self._entries.append(IndexEntry(key=key, collection=collection,
                                        doc_id=doc_id, node_id=node_id))

    def finalize(self) -> "PhysicalPathIndex":
        """Sort entries by key (then document order) and freeze the index.

        The order is fully canonical -- the collection name breaks the
        (rare) ties between equal keys at the same document/node ids in
        different collections -- so a delta-maintained index and a fresh
        rebuild hold byte-identical entry lists.
        """
        self._entries.sort(key=_entry_order)
        self._keys = [_sort_key(e.key) for e in self._entries]
        self._finalized = True
        return self

    # ------------------------------------------------------------------
    # Incremental maintenance (against a finalized index)
    # ------------------------------------------------------------------
    def apply_collection_delta(self, delta: "CollectionDelta") -> int:
        """Maintain the finalized index for one document add/remove.

        Returns the number of entries inserted/deleted.  The resulting
        entry list is byte-identical to rebuilding the index over the
        post-change documents: insertions are merged into the canonical
        (key, doc, node) order, deletions also slide the document ids
        above the removed key down by one (the store reassigns them).
        """
        # Consulted before any mutation: a persistent fault leaves the
        # structure untouched, but the caller cannot know that and must
        # treat the index as unmaintained (rebuild or degrade).
        guarded_fault_point("index.delta_apply")
        if delta.is_add:
            return self.insert_document(delta.collection, delta.document)
        return self.delete_document(delta.collection, delta.document.doc_key)

    def insert_document(self, collection: str,
                        document: "DocumentDelta") -> int:
        """Merge one new document's entries into the finalized index."""
        self._require_finalized()
        if (self.definition.collection is not None
                and collection != self.definition.collection):
            return 0
        numeric = self.definition.value_type is ValueType.DOUBLE
        added: List[IndexEntry] = []
        for path, nodes in document.path_groups.items():
            if self.definition.pattern.matches(path):
                for node in nodes:
                    entry = _entry_for_node(collection, document.doc_key,
                                            node, numeric)
                    if entry is not None:
                        added.append(entry)
        if not added:
            return 0
        added.sort(key=_entry_order)
        self._entries = list(heapq.merge(self._entries, added, key=_entry_order))
        self._keys = [_sort_key(e.key) for e in self._entries]
        return len(added)

    def delete_document(self, collection: str, doc_key: int) -> int:
        """Delete one document's entries and shift later document ids."""
        self._require_finalized()
        if (self.definition.collection is not None
                and collection != self.definition.collection):
            return 0
        kept: List[IndexEntry] = []
        removed = 0
        changed = False
        for entry in self._entries:
            if entry.collection != collection or entry.doc_id < doc_key:
                kept.append(entry)
            elif entry.doc_id == doc_key:
                removed += 1
                changed = True
            else:
                kept.append(IndexEntry(key=entry.key, collection=collection,
                                       doc_id=entry.doc_id - 1,
                                       node_id=entry.node_id))
                changed = True
        if changed:
            # The shift can perturb tie order against entries of *other*
            # collections sharing a key; the list is near-sorted, so
            # restoring the canonical order is effectively linear.
            kept.sort(key=_entry_order)
            self._entries = kept
            self._keys = [_sort_key(e.key) for e in kept]
        return removed

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    @property
    def entry_count(self) -> int:
        return len(self._entries)

    @property
    def entries(self) -> List[IndexEntry]:
        return list(self._entries)

    def lookup_equal(self, value: Union[str, float]) -> List[IndexEntry]:
        """All entries whose key equals ``value``."""
        self._require_finalized()
        key = _sort_key(self._coerce(value))
        left = bisect.bisect_left(self._keys, key)
        right = bisect.bisect_right(self._keys, key)
        return self._entries[left:right]

    def lookup_range(self, op: BinaryOp, value: Union[str, float]) -> List[IndexEntry]:
        """All entries satisfying ``key <op> value`` for a range operator."""
        self._require_finalized()
        key = _sort_key(self._coerce(value))
        if op is BinaryOp.LT:
            return self._entries[:bisect.bisect_left(self._keys, key)]
        if op is BinaryOp.LE:
            return self._entries[:bisect.bisect_right(self._keys, key)]
        if op is BinaryOp.GT:
            return self._entries[bisect.bisect_right(self._keys, key):]
        if op is BinaryOp.GE:
            return self._entries[bisect.bisect_left(self._keys, key):]
        if op is BinaryOp.EQ:
            return self.lookup_equal(value)
        if op is BinaryOp.NE:
            return [e for e in self._entries if _sort_key(e.key) != key]
        raise ValueError(f"unsupported operator for index lookup: {op}")

    def scan(self) -> List[IndexEntry]:
        """All entries in key order (used for existence predicates)."""
        self._require_finalized()
        return list(self._entries)

    # ------------------------------------------------------------------
    # Sizing
    # ------------------------------------------------------------------
    @property
    def size_bytes(self) -> float:
        if self.definition.value_type is ValueType.DOUBLE:
            key_width = float(pages.DOUBLE_KEY_BYTES)
        else:
            total = sum(len(str(e.key)) for e in self._entries)
            key_width = (total / len(self._entries)) if self._entries else 8.0
        return pages.index_size_bytes(len(self._entries), key_width)

    @property
    def size_pages(self) -> int:
        return pages.bytes_to_pages(self.size_bytes)

    # ------------------------------------------------------------------
    def _coerce(self, value: Union[str, float]) -> Union[str, float]:
        if self.definition.value_type is ValueType.DOUBLE:
            return float(value)
        return str(value)

    def _require_finalized(self) -> None:
        if not self._finalized:
            raise RuntimeError("index must be finalized before lookups")


def _sort_key(key: Union[str, float]) -> Tuple[int, Union[str, float]]:
    """Keys of mixed types sort numerics before strings, consistently."""
    if isinstance(key, (int, float)) and not isinstance(key, bool):
        return (0, float(key))
    return (1, str(key))


def _entry_order(entry: IndexEntry):
    """The canonical total order of index entries."""
    return (_sort_key(entry.key), entry.doc_id, entry.node_id, entry.collection)


def build_physical_index(definition: IndexDefinition,
                         database: XmlDatabase) -> PhysicalPathIndex:
    """Materialize a physical index over the database's documents.

    Every element/attribute node whose simple path is matched by the
    index pattern contributes one entry keyed by its value (direct text
    for elements, attribute value for attributes).  DOUBLE indexes skip
    nodes whose value does not cast, matching DB2 semantics.

    The candidate nodes come from each collection's columnar store
    (:meth:`~repro.storage.columnar.ColumnarStore.iter_strict_pattern_nodes`):
    the pattern is matched once against the collection's distinct paths
    and only the postings of matching paths are walked, instead of
    re-walking every document tree per index build.  A store that cannot
    be published fails the build, like a fault at ``index.build``.
    """
    index = PhysicalPathIndex(definition.as_physical())
    collections = database.collections
    if definition.collection is not None:
        collections = [database.collection(definition.collection)]
    numeric = definition.value_type is ValueType.DOUBLE
    for collection in collections:
        store = collection.columnar_store
        for doc_id, node in store.iter_strict_pattern_nodes(definition.pattern):
            entry = _entry_for_node(collection.name, doc_id, node, numeric)
            if entry is not None:
                index.insert(entry.key, entry.collection,
                             entry.doc_id, entry.node_id)
    # Consulted before finalize: a persistent fault discards the
    # partially-built structure with the local variable, so a failed
    # build never publishes anything.
    guarded_fault_point("index.build")
    return index.finalize()


def _entry_for_node(collection_name: str, doc_id: int,
                    node, numeric: bool) -> Optional[IndexEntry]:
    """The entry ``node`` contributes, or ``None`` when it is not indexable
    (DOUBLE index and the value does not cast).  Shared by the full build
    and the per-document delta maintenance, so the two cannot diverge."""
    key: Union[str, float, None]
    if node.kind == NodeKind.ATTRIBUTE:
        key = node.double_value() if numeric else node.typed_value()
    else:
        value = _direct_text(node)
        if numeric:
            key = node.double_value() if value else None
        else:
            key = " ".join(value.split())
    if key is None:
        return None
    return IndexEntry(key=key, collection=collection_name, doc_id=doc_id,
                      node_id=node.node_id)


def _direct_text(element) -> str:
    return "".join(child.value for child in element.children
                   if child.kind == NodeKind.TEXT).strip()
