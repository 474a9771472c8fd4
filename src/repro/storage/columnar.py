"""Columnar pre/post node encoding: the XPath-accelerator backend.

A :class:`ColumnarStore` is a per-collection snapshot that re-encodes the
object trees as parallel ``array``-module columns in one pass:

* ``pre`` -- the node's pre-order position (collection-wide; by
  construction ``pre[i] == i``, so the columns are pre-sorted and a
  subtree is a contiguous slice),
* ``post`` -- the post-order position (the classic pre/post plane:
  ``u`` is a descendant of ``v`` iff ``pre(v) < pre(u)`` and
  ``post(u) < post(v)``),
* ``parent`` -- the parent element's pre (``-1`` for document roots),
* ``kind`` -- element vs. attribute,
* ``path_id`` -- index into the append-only distinct simple-path table,
* ``values`` -- the node's whitespace-normalized typed value (the same
  value the statistics synopsis records, so the store's byte footprint
  is derivable from :class:`~repro.storage.statistics.DatabaseStatistics`).

Only elements and attributes are materialized (text/comment/PI nodes
contribute values but no rows), and the slab walk order -- element, its
attributes, then child subtrees -- matches ``assign_node_ids``'s
numbering of stored nodes, so *position order is document order*.

On top of the columns sits a vectorized axis engine: ``descendants``
is interval containment answered by :func:`bisect.bisect_left` over the
pre-sorted per-path postings (``sub[pre]`` holds each subtree's
exclusive end), child/attribute axes are parent-pre runs, and
:meth:`select_positions` composes them into an exact step-wise
evaluation with the interpreter's descendant-or-self semantics.  The
hot lookup path, :meth:`nodes_for_pattern`, exploits path determinism
instead: for a linear pattern, a node's membership in the interpreter's
result depends only on its simple path, so the store matches the
pattern against the path table with
:meth:`~repro.xpath.patterns.PathPattern.matches_evaluator` (exact
``//`` descendant-or-self semantics) and unions pre-sorted postings.

On top of the values column sits the *set-at-a-time predicate engine*:
per path, a lazy snapshot-memoized value projection (the postings
re-sorted by value, plus the parsed DOUBLE column over the castable
subset) turns an ``EQ``/range comparison into two bisects returning
pre-position runs, and :meth:`ColumnarStore.matching_documents` maps
those straight to doc-key sets -- the executor intersects one set per
predicate instead of materializing ``XmlNode`` lists per document.
Value extraction for value-only consumers reads the flat values column
in document order (:meth:`ColumnarStore.values_for_documents`: one
call per collection, a forward cursor per postings array).

The store is the collection's one structural representation: besides
the executor, physical index builds read its strict-pattern postings
(:meth:`iter_strict_pattern_nodes`) and the statistics synopsis is
collected from its per-path document groups (:meth:`path_groups`).

Maintenance: the store is immutable once built and is replaced through
:meth:`apply_delta` under the
:class:`~repro.storage.maintenance.CollectionDelta` machinery -- an
insert renumbers one document's slab and splices it in, a delete is one
filtered pass -- the same contract as
``PhysicalPathIndex.apply_collection_delta``.  The distinct-path table
is append-only (so pattern memos survive removals); a path whose last
document is removed keeps its entry with empty postings, and every
path-level answer counts only paths with live postings.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.contracts import builder, cache_contract, snapshot_contract
from repro.telemetry import global_registry
from repro.xmldb.nodes import (
    DocumentNode,
    NodeKind,
    XmlNode,
    normalized_node_value,
)
from repro.xpath.ast import BinaryOp
from repro.xpath.patterns import PathPattern, PatternStep

if TYPE_CHECKING:  # pragma: no cover - import only for type checkers
    from repro.storage.maintenance import CollectionDelta, DocumentDelta

KIND_ELEMENT = 0
KIND_ATTRIBUTE = 1

#: Deterministic per-node footprint of the encoding: five 8-byte columns
#: (pre, post, parent, path-id, sub), the 1-byte kind column, the node's
#: slot in its path's postings array, and its slot in the path's
#: value-sorted permutation (the string half of the value projection).
#: Together with the synopsis's per-path ``total_value_bytes`` and
#: ``numeric_count`` this makes the store's :attr:`ColumnarStore.nbytes`
#: derivable from statistics alone (see
#: ``DatabaseStatistics.columnar_bytes``).
COLUMNAR_NODE_BYTES = 5 * array("q").itemsize + array("b").itemsize \
    + 2 * array("q").itemsize

#: Per-numeric-value charge of the parsed DOUBLE column of a path's
#: value projection.  The accounting counts castable entries of the
#: values column -- the same predicate the synopsis's ``numeric_count``
#: applies -- so the charge is deterministic regardless of which
#: projections happen to be built.
NUMERIC_PROJECTION_ENTRY_BYTES = array("d").itemsize

#: Shared empty results; callers must treat lookup results as read-only.
_NO_NODES: List[XmlNode] = []
_NO_POSITIONS = array("q")

#: The synopsis-shared value normalization (one definition in
#: :mod:`repro.xmldb.nodes`, so columns and synopsis can never disagree
#: on a value's bytes).
_normalized_value = normalized_node_value


def _castable(value: str) -> bool:
    """Whether a normalized value casts to DOUBLE -- the predicate the
    synopsis's ``numeric_count`` applies (the empty value never casts)."""
    if not value:
        return False
    try:
        float(value)
    except ValueError:
        return False
    return True


class _ValueProjection:
    """One path's postings re-ordered by value (lazy, snapshot-memoized).

    ``sorder`` permutes the path's postings by the node's normalized
    *typed* value -- the value the legacy comparison path
    (``executor._compare_node``) reads -- with ties in document order;
    ``svalues`` holds the sorted keys, so an EQ/range predicate over a
    string literal is two ``bisect`` calls returning a contiguous run of
    pre positions.  ``norder``/``nvalues`` are the same for the
    DOUBLE-castable subset under numeric order (non-castable nodes never
    satisfy a numeric comparison, not even ``!=``); NaN-valued nodes
    live in ``nanorder`` (they would break the sort order, and satisfy
    only ``!=``).
    """

    __slots__ = ("sorder", "svalues", "norder", "nvalues", "nanorder")

    def __init__(self, sorder: array, svalues: List[str], norder: array,
                 nvalues: array, nanorder: array) -> None:
        self.sorder = sorder
        self.svalues = svalues
        self.norder = norder
        self.nvalues = nvalues
        self.nanorder = nanorder

    def shifted(self, at: int, delta: int) -> "_ValueProjection":
        """The projection after every position ``>= at`` slides by
        ``delta`` (a monotone remap: values and tie order are untouched,
        so the key lists are structurally shared)."""
        def remap(arr: array) -> array:
            return array("q", (p + delta if p >= at else p for p in arr))
        return _ValueProjection(remap(self.sorder), self.svalues,
                                remap(self.norder), self.nvalues,
                                remap(self.nanorder))


def _build_projection(nodes: List[XmlNode], postings: array) -> _ValueProjection:
    """Sort one path's postings by value (stable over the ascending
    postings, so equal values stay in document order)."""
    sorder = array("q", sorted(postings, key=lambda p: nodes[p].typed_value()))
    svalues = [nodes[p].typed_value() for p in sorder]
    numeric: List[Tuple[float, int]] = []
    nans: List[int] = []
    for position in postings:
        value = nodes[position].double_value()
        if value is None:
            continue
        if value != value:  # NaN: totally unordered, keep apart
            nans.append(position)
        else:
            numeric.append((value, position))
    numeric.sort(key=lambda pair: pair[0])
    norder = array("q", (position for _, position in numeric))
    nvalues = array("d", (value for value, _ in numeric))
    return _ValueProjection(sorder, svalues, norder, nvalues, array("q", nans))


def _delta_document_node(document: "DocumentDelta") -> Optional[DocumentNode]:
    """Recover the :class:`DocumentNode` an add-delta describes (every
    delta node roots at it); ``None`` for an element-less document."""
    for nodes in document.path_groups.values():
        for node in nodes:
            current: XmlNode = node
            while current.parent is not None:
                current = current.parent
            if current.kind == NodeKind.DOCUMENT:
                return current  # type: ignore[return-value]
    return None


@snapshot_contract(builders=("add_document", "_encode_document", "_intern_path",
                             "_with_document_added", "_with_document_removed"),
                   mutators=("add_document", "_encode_document", "_intern_path"),
                   memo_attrs=("_pattern_paths", "_pattern_paths_strict",
                               "_label_positions", "_projections",
                               "_doc_starts"))
@cache_contract(memos={
    "_pattern_paths": {"policy": "object-keyed"},
    "_pattern_paths_strict": {"policy": "object-keyed"},
    "_label_positions": {"policy": "object-keyed"},
    "_projections": {"policy": "object-keyed"},
    "_doc_starts": {"policy": "object-keyed"},
})
class ColumnarStore:
    """Parallel pre/post columns over one collection's documents.

    Instances are built with :func:`build_columnar_store` (or repeated
    :meth:`add_document` calls) and are then treated as immutable; data
    changes produce a *new* store via :meth:`apply_delta`.
    """

    def __init__(self) -> None:
        self.pre = array("q")
        self.post = array("q")
        self.parent = array("q")
        self.kind = array("b")
        self.path_id = array("q")
        #: Exclusive end of each node's subtree slice: the descendants of
        #: the node at position ``p`` are exactly positions
        #: ``p+1 .. sub[p]-1``.
        self.sub = array("q")
        #: Whitespace-normalized typed value per position.
        self.values: List[str] = []
        #: Position -> the encoded node object (what lookups return).
        self._nodes: List[XmlNode] = []
        #: Append-only distinct simple-path table (paths are never
        #: retired, so pattern -> path-id memos survive removals).
        self._paths: List[str] = []
        self._path_index: Dict[str, int] = {}
        #: path id -> ascending positions of its nodes (the pre-sorted
        #: postings the axis engine bisects).
        self._postings: Dict[int, array] = {}
        #: doc key -> (start, end) slab bounds, in key order.
        self._doc_bounds: List[Tuple[int, int]] = []
        #: Memo: pattern -> path ids under evaluator (descendant-or-self)
        #: semantics -- the hot read-query matching.
        self._pattern_paths: Dict[PathPattern, Tuple[int, ...]] = {}
        #: Memo: pattern -> path ids under strict index-pattern
        #: semantics -- what physical index builds select.
        self._pattern_paths_strict: Dict[PathPattern, Tuple[int, ...]] = {}
        #: Memo: label -> ascending positions carrying it (axis engine).
        self._label_positions: Dict[str, array] = {}
        #: Memo: path id -> lazily built value projection (the path's
        #: postings re-sorted by value; see :class:`_ValueProjection`).
        #: Keyed to this immutable snapshot; apply_delta carries entries
        #: structurally for untouched paths and rebuilds only touched
        #: ones.
        self._projections: Dict[int, _ValueProjection] = {}
        #: Memo: ascending slab start offsets (position -> doc key is
        #: one bisect); derived from ``_doc_bounds`` on demand.
        self._doc_starts: Optional[array] = None

    # ------------------------------------------------------------------
    # Building
    # ------------------------------------------------------------------
    def add_document(self, document: Optional[DocumentNode],
                     doc_key: Optional[int] = None) -> None:
        """Encode one document's slab at the end of the columns.

        ``add_document`` always appends (the collection assigns document
        keys positionally); mid-sequence splices happen only through
        :meth:`apply_delta`.
        """
        if doc_key is not None and doc_key != len(self._doc_bounds):
            raise ValueError(
                f"columnar add_document appends (expected doc key "
                f"{len(self._doc_bounds)}, got {doc_key}); use apply_delta "
                f"to splice")
        self._label_positions.clear()
        self._projections.clear()
        self._doc_starts = None
        self._encode_document(document)

    def _encode_document(self, document: Optional[DocumentNode]) -> None:
        """One-pass slab encoding: element, its attributes, children."""
        start = len(self.pre)
        # Each stored node consumes exactly one post, so this slab's
        # posts occupy [start, start + slab length) like its pres.
        counter = [start]

        def walk(element: XmlNode, parent_pre: int) -> None:
            pos = len(self.pre)
            self.pre.append(pos)
            self.post.append(-1)  # patched when the subtree closes
            self.parent.append(parent_pre)
            self.kind.append(KIND_ELEMENT)
            pid = self._intern_path(element.simple_path())
            self.path_id.append(pid)
            self.sub.append(-1)
            self.values.append(_normalized_value(element))
            self._nodes.append(element)
            self._postings[pid].append(pos)
            for attribute in element.attributes:
                apos = len(self.pre)
                self.pre.append(apos)
                self.post.append(counter[0])  # attributes close immediately
                counter[0] += 1
                self.parent.append(pos)
                self.kind.append(KIND_ATTRIBUTE)
                apid = self._intern_path(attribute.simple_path())
                self.path_id.append(apid)
                self.sub.append(apos + 1)
                self.values.append(_normalized_value(attribute))
                self._nodes.append(attribute)
                self._postings[apid].append(apos)
            for child in element.children:
                if child.kind == NodeKind.ELEMENT:
                    walk(child, pos)
            self.post[pos] = counter[0]
            counter[0] += 1
            self.sub[pos] = len(self.pre)

        if document is not None:
            for child in document.children:
                if child.kind == NodeKind.ELEMENT:
                    walk(child, -1)
        self._doc_bounds.append((start, len(self.pre)))

    def _intern_path(self, path: str) -> int:
        pid = self._path_index.get(path)
        if pid is None:
            pid = len(self._paths)
            self._paths.append(path)
            self._path_index[path] = pid
            self._postings[pid] = array("q")
            # A genuinely new distinct path can change pattern -> paths
            # answers; memos keyed on the (append-only) table must go.
            if self._pattern_paths:
                self._pattern_paths.clear()
            if self._pattern_paths_strict:
                self._pattern_paths_strict.clear()
        return pid

    # ------------------------------------------------------------------
    # Incremental maintenance
    # ------------------------------------------------------------------
    def apply_delta(self, delta: "CollectionDelta") -> "ColumnarStore":
        """A new store with ``delta`` applied (this one is unchanged).

        Same contract as ``PhysicalPathIndex.apply_collection_delta``:
        the result is byte-identical to rebuilding from the post-change
        documents, and untouched postings arrays are structurally shared
        with the predecessor.
        """
        if delta.is_add:
            return self._with_document_added(delta.document)
        return self._with_document_removed(delta.document)

    def _with_document_added(self, document: "DocumentDelta") -> "ColumnarStore":
        """Splice one document's renumbered slab in at its doc key."""
        slab = ColumnarStore()
        slab._encode_document(_delta_document_node(document))
        key = document.doc_key
        size = len(self.pre)
        if not 0 <= key <= len(self._doc_bounds):
            raise ValueError(f"add delta doc key {key} out of range")
        start = size if key == len(self._doc_bounds) else self._doc_bounds[key][0]
        length = len(slab.pre)

        fresh = ColumnarStore()
        fresh._paths = list(self._paths)
        fresh._path_index = dict(self._path_index)
        # Remap the slab's local path ids onto the shared table.
        remap = array("q", (0 for _ in slab._paths))
        touched: Dict[int, array] = {}
        for slab_pid, path in enumerate(slab._paths):
            pid = fresh._path_index.get(path)
            if pid is None:
                pid = len(fresh._paths)
                fresh._paths.append(path)
                fresh._path_index[path] = pid
            remap[slab_pid] = pid
            merged = touched.get(pid)
            if merged is None:
                merged = touched[pid] = array("q")
            merged.extend(p + start for p in slab._postings[slab_pid])

        fresh.pre = array("q", range(size + length))
        fresh.post = (self.post[:start]
                      + array("q", (v + start for v in slab.post))
                      + array("q", (v + length for v in self.post[start:])))
        fresh.parent = (self.parent[:start]
                        + array("q", (v + start if v >= 0 else v
                                      for v in slab.parent))
                        + array("q", (v + length if v >= 0 else v
                                      for v in self.parent[start:])))
        fresh.kind = self.kind[:start] + slab.kind + self.kind[start:]
        fresh.path_id = (self.path_id[:start]
                         + array("q", (remap[p] for p in slab.path_id))
                         + self.path_id[start:])
        fresh.sub = (self.sub[:start]
                     + array("q", (v + start for v in slab.sub))
                     + array("q", (v + length for v in self.sub[start:])))
        fresh.values = self.values[:start] + slab.values + self.values[start:]
        fresh._nodes = self._nodes[:start] + slab._nodes + self._nodes[start:]
        for pid in range(len(fresh._paths)):
            arr = self._postings.get(pid, _NO_POSITIONS)
            merged = touched.get(pid)
            cut = bisect_left(arr, start)
            if merged is None and cut == len(arr):
                if pid < len(self._paths):
                    fresh._postings[pid] = arr  # untouched: share
                    projection = self._projections.get(pid)
                    if projection is not None:
                        fresh._projections[pid] = projection
                else:
                    fresh._postings[pid] = array("q")
                continue
            spliced = arr[:cut]
            if merged is not None:
                spliced += merged
            spliced += array("q", (p + length for p in arr[cut:]))
            fresh._postings[pid] = spliced
            if merged is None:
                # The path gained no postings; its projection only
                # slides (monotone remap keeps values and tie order).
                projection = self._projections.get(pid)
                if projection is not None:
                    fresh._projections[pid] = projection.shifted(start, length)
        fresh._doc_bounds = (self._doc_bounds[:key]
                             + [(start, start + length)]
                             + [(s + length, e + length)
                                for s, e in self._doc_bounds[key:]])
        if len(fresh._paths) == len(self._paths):
            # The distinct-path table is unchanged, so every memoized
            # pattern -> path-ids answer still holds.
            fresh._pattern_paths = dict(self._pattern_paths)
            fresh._pattern_paths_strict = dict(self._pattern_paths_strict)
        return fresh

    def _with_document_removed(self, document: "DocumentDelta") -> "ColumnarStore":
        """Retract one document's slab in a single filtered pass (later
        doc keys slide down by one, matching the store's renumbering)."""
        key = document.doc_key
        if not 0 <= key < len(self._doc_bounds):
            raise ValueError(f"remove delta doc key {key} out of range")
        start, end = self._doc_bounds[key]
        length = end - start

        fresh = ColumnarStore()
        fresh._paths = list(self._paths)
        fresh._path_index = dict(self._path_index)
        fresh.pre = array("q", range(len(self.pre) - length))
        fresh.post = (self.post[:start]
                      + array("q", (v - length for v in self.post[end:])))
        fresh.parent = (self.parent[:start]
                        + array("q", (v - length if v >= 0 else v
                                      for v in self.parent[end:])))
        fresh.kind = self.kind[:start] + self.kind[end:]
        fresh.path_id = self.path_id[:start] + self.path_id[end:]
        fresh.sub = (self.sub[:start]
                     + array("q", (v - length for v in self.sub[end:])))
        fresh.values = self.values[:start] + self.values[end:]
        fresh._nodes = self._nodes[:start] + self._nodes[end:]
        for pid, arr in self._postings.items():
            cut = bisect_left(arr, start)
            if cut == len(arr):
                fresh._postings[pid] = arr  # entirely before the slab: share
                projection = self._projections.get(pid)
                if projection is not None:
                    fresh._projections[pid] = projection
                continue
            tail = bisect_left(arr, end)
            fresh._postings[pid] = (arr[:cut]
                                    + array("q", (p - length
                                                  for p in arr[tail:])))
            if cut == tail:
                # No posting of this path was retracted; the projection
                # only slides (monotone remap keeps values and ties).
                projection = self._projections.get(pid)
                if projection is not None:
                    fresh._projections[pid] = projection.shifted(end, -length)
        fresh._doc_bounds = (self._doc_bounds[:key]
                             + [(s - length, e - length)
                                for s, e in self._doc_bounds[key + 1:]])
        # Paths are never retired from the table, so pattern memos
        # (which are derived from the table alone) always carry over.
        fresh._pattern_paths = dict(self._pattern_paths)
        fresh._pattern_paths_strict = dict(self._pattern_paths_strict)
        return fresh

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def node_count(self) -> int:
        return len(self.pre)

    @property
    def document_count(self) -> int:
        return len(self._doc_bounds)

    @property
    def distinct_paths(self) -> List[str]:
        """The distinct simple paths some document carries, sorted (table
        entries whose postings emptied on removal are not counted)."""
        return sorted(path for pid, path in enumerate(self._paths)
                      if self._postings[pid])

    @property
    def nbytes(self) -> float:
        """The encoding's byte footprint: columns + postings + values +
        value projections.

        Deterministically equal to ``DatabaseStatistics.columnar_bytes``
        for the same data -- Sigma(len) over the postings is exactly the
        node count, the values column stores the same normalized values
        the synopsis charges ``total_value_bytes`` for, and the
        projection charge is an accounting *model* independent of which
        projections are currently built: one permutation slot per node
        (the value-sorted order) plus one DOUBLE slot per castable entry
        of the values column (the synopsis's ``numeric_count``
        predicate), so lazy builds never make the reported size drift.
        """
        column_bytes = sum(column.itemsize * len(column) for column in
                           (self.pre, self.post, self.parent, self.kind,
                            self.path_id, self.sub))
        posting_bytes = sum(arr.itemsize * len(arr)
                            for arr in self._postings.values())
        value_bytes = sum(len(value) for value in self.values)
        projection_bytes = (array("q").itemsize * len(self.pre)
                            + NUMERIC_PROJECTION_ENTRY_BYTES
                            * sum(1 for value in self.values
                                  if _castable(value)))
        return float(column_bytes + posting_bytes + value_bytes
                     + projection_bytes)

    def node_at(self, position: int) -> XmlNode:
        return self._nodes[position]

    def canonical_state(self) -> Tuple:
        """A value-comparable snapshot for the maintenance-equivalence
        tests (delta-maintained stores vs. full rebuilds)."""
        return (
            tuple(self.pre), tuple(self.post), tuple(self.parent),
            tuple(self.kind), tuple(self.sub),
            tuple(self._paths[pid] for pid in self.path_id),
            tuple(self.values),
            tuple(node.node_id for node in self._nodes),
            tuple(self._doc_bounds),
            {self._paths[pid]: tuple(arr)
             for pid, arr in self._postings.items() if len(arr)},
        )

    def describe(self) -> str:
        return (f"columnar store: {self.document_count} document(s), "
                f"{self.node_count} nodes, {len(self.distinct_paths)} paths, "
                f"{self.nbytes:.0f} bytes")

    # ------------------------------------------------------------------
    # Pattern lookups (the executor's hot path)
    # ------------------------------------------------------------------
    def _paths_for(self, pattern: PathPattern, strict: bool) -> Tuple[int, ...]:
        memo = self._pattern_paths_strict if strict else self._pattern_paths
        ids = memo.get(pattern)
        if ids is None:
            match = pattern.matches if strict else pattern.matches_evaluator
            ids = tuple(pid for pid, path in enumerate(self._paths)
                        if match(path))
            memo[pattern] = ids
        return ids

    def _doc_slice(self, doc_id: Optional[int]) -> Optional[Tuple[int, int]]:
        if doc_id is None:
            return (0, len(self.pre))
        if not 0 <= doc_id < len(self._doc_bounds):
            return None
        return self._doc_bounds[doc_id]

    def _positions_in(self, pid: int, lo: int, hi: int) -> Sequence[int]:
        """A path's postings restricted to the pre interval [lo, hi)."""
        arr = self._postings[pid]
        if lo == 0 and hi == len(self.pre):
            return arr
        return arr[bisect_left(arr, lo):bisect_left(arr, hi)]

    def nodes_for_pattern(self, pattern: PathPattern,
                          doc_id: Optional[int] = None,
                          ordered: bool = False) -> List[XmlNode]:
        """Nodes matched by ``pattern`` under the interpreter's exact
        descendant-or-self semantics (in one document, or all).

        Position order is document order, so ``ordered=True`` is a merge
        of pre-sorted postings, never a tree walk.  The returned list
        must be treated as read-only.
        """
        ids = self._paths_for(pattern, strict=False)
        if not ids:
            return _NO_NODES
        bounds = self._doc_slice(doc_id)
        if bounds is None:
            return _NO_NODES
        lo, hi = bounds
        if lo == hi:
            return _NO_NODES
        nodes = self._nodes
        if len(ids) == 1:
            return [nodes[p] for p in self._positions_in(ids[0], lo, hi)]
        if ordered:
            positions: List[int] = []
            for pid in ids:
                positions.extend(self._positions_in(pid, lo, hi))
            positions.sort()
            return [nodes[p] for p in positions]
        merged: List[XmlNode] = []
        for pid in ids:
            segment = self._positions_in(pid, lo, hi)
            if segment:
                merged.extend(nodes[p] for p in segment)
        return merged

    def iter_strict_pattern_nodes(self, pattern: PathPattern
                                  ) -> Iterator[Tuple[int, XmlNode]]:
        """Yield ``(doc key, node)`` for every node whose path the
        pattern matches under *strict* index-pattern semantics, grouped
        per path in postings order -- what physical index builds consume
        (index content keeps the strict pattern language)."""
        bounds = self._doc_bounds
        for pid in self._paths_for(pattern, strict=True):
            doc = 0
            for position in self._postings[pid]:
                while position >= bounds[doc][1]:
                    doc += 1
                yield doc, self._nodes[position]

    def path_groups(self) -> Iterator[Tuple[str, List[List[XmlNode]]]]:
        """Every entry of the distinct-path table with its nodes grouped
        per document (documents in key order, nodes in document order);
        an entry whose postings emptied on removal has no groups.  What
        statistics collection reads."""
        starts = self._doc_start_index()
        bounds = self._doc_bounds
        nodes = self._nodes
        for pid, path in enumerate(self._paths):
            arr = self._postings[pid]
            groups: List[List[XmlNode]] = []
            index = 0
            total = len(arr)
            while index < total:
                doc = bisect_right(starts, arr[index]) - 1
                end = bisect_left(arr, bounds[doc][1], index + 1)
                groups.append([nodes[p] for p in arr[index:end]])
                index = end
            yield path, groups

    # ------------------------------------------------------------------
    # Vectorized value predicates (the set-at-a-time engine)
    # ------------------------------------------------------------------
    def _projection_for(self, pid: int) -> _ValueProjection:
        projection = self._projections.get(pid)
        if projection is None:
            projection = _build_projection(self._nodes, self._postings[pid])
            self._projections[pid] = projection
            global_registry().counter("columnar.projection.builds").inc()
        return projection

    def _matched_segments(self, pid: int, op: Optional[BinaryOp],
                          value: Optional[Union[str, float]]
                          ) -> Iterator[Sequence[int]]:
        """Position runs on path ``pid`` whose node satisfies
        ``op value`` -- two bisects over the value-sorted projection.

        The comparison semantics replicate the legacy per-node path
        (``executor._compare_node``) exactly: a float literal compares
        against the DOUBLE cast (non-castable nodes fail every operator,
        ``!=`` included), a string literal compares lexicographically
        against the normalized typed value.
        """
        if op is None or value is None:
            yield self._postings[pid]  # pure existence test
            return
        projection = self._projection_for(pid)
        if isinstance(value, float):
            order: Sequence[int] = projection.norder
            keys: Sequence = projection.nvalues
            if value != value:  # NaN literal: only != holds, castables only
                if op is BinaryOp.NE:
                    yield order
                    yield projection.nanorder
                return
        else:
            order = projection.sorder
            keys = projection.svalues
        if op is BinaryOp.EQ:
            yield order[bisect_left(keys, value):bisect_right(keys, value)]
        elif op is BinaryOp.NE:
            yield order[:bisect_left(keys, value)]
            yield order[bisect_right(keys, value):]
            if isinstance(value, float):
                yield projection.nanorder  # NaN != anything
        elif op is BinaryOp.LT:
            yield order[:bisect_left(keys, value)]
        elif op is BinaryOp.LE:
            yield order[:bisect_right(keys, value)]
        elif op is BinaryOp.GT:
            yield order[bisect_right(keys, value):]
        elif op is BinaryOp.GE:
            yield order[bisect_left(keys, value):]

    def _doc_start_index(self) -> array:
        starts = self._doc_starts
        if starts is None:
            starts = array("q", (start for start, _ in self._doc_bounds))
            self._doc_starts = starts
        return starts

    def match_positions(self, pattern: PathPattern, op: Optional[BinaryOp] = None,
                        value: Optional[Union[str, float]] = None,
                        doc_id: Optional[int] = None) -> List[int]:
        """Ascending pre positions whose node matches ``pattern`` (under
        the interpreter's exact descendant-or-self semantics) *and*
        satisfies the comparison ``op value`` -- no node objects are
        touched; only the sorted projections and two bisects per path.
        """
        bounds = self._doc_slice(doc_id)
        if bounds is None:
            return []
        lo, hi = bounds
        if lo == hi:
            return []
        unrestricted = lo == 0 and hi == len(self.pre)
        positions: List[int] = []
        for pid in self._paths_for(pattern, strict=False):
            for segment in self._matched_segments(pid, op, value):
                if unrestricted:
                    positions.extend(segment)
                else:
                    positions.extend(p for p in segment if lo <= p < hi)
        positions.sort()
        return positions

    def matching_documents(self, pattern: PathPattern,
                           op: Optional[BinaryOp] = None,
                           value: Optional[Union[str, float]] = None
                           ) -> Set[int]:
        """Doc keys of every document holding at least one node that
        matches ``pattern`` and satisfies ``op value``.

        O(matching postings): each matched position maps to its document
        by one bisect over the slab starts.  This is the executor's
        set-at-a-time scan primitive -- one call per predicate per
        collection, intersected across predicates.
        """
        docs: Set[int] = set()
        starts = self._doc_start_index()
        for pid in self._paths_for(pattern, strict=False):
            for segment in self._matched_segments(pid, op, value):
                for position in segment:
                    docs.add(bisect_right(starts, position) - 1)
        return docs

    def documents_with_match(self, pattern: PathPattern) -> Set[int]:
        """Doc keys of the documents where ``pattern`` matches at all
        (the navigation-only counterpart of :meth:`matching_documents`).

        Skip-scans each path's postings document by document -- after
        the first hit in a document the walk bisects straight past the
        rest of its slab -- so the cost is O(matching documents x log
        postings), not O(postings).
        """
        docs: Set[int] = set()
        starts = self._doc_start_index()
        bounds = self._doc_bounds
        for pid in self._paths_for(pattern, strict=False):
            arr = self._postings[pid]
            index = 0
            total = len(arr)
            while index < total:
                doc = bisect_right(starts, arr[index]) - 1
                docs.add(doc)
                index = bisect_left(arr, bounds[doc][1], index + 1)
        return docs

    def values_for_documents(self, patterns: Sequence[PathPattern],
                             doc_keys: Iterable[int]) -> List[str]:
        """The values-column entries of the nodes ``patterns`` match in
        the documents ``doc_keys`` (ascending; keys outside the store
        select nothing): document by document, pattern by pattern, in
        document order within each -- the executor's extraction stream,
        served straight from the flat column (zero node-object hops).
        Each entry is byte-identical to ``normalized_node_value()`` of
        the corresponding node by construction.

        Patterns resolve to their postings arrays once per call, and
        because the keys ascend each array is walked by a forward
        cursor: every bisect starts where the previous document ended.
        """
        plans = []
        for pattern in patterns:
            arrays = [self._postings[pid]
                      for pid in self._paths_for(pattern, strict=False)]
            if arrays:
                plans.append((arrays, [0] * len(arrays)))
        out: List[str] = []
        if not plans:
            return out
        value_at = self.values.__getitem__
        bounds = self._doc_bounds
        count = len(bounds)
        for doc_key in doc_keys:
            if not 0 <= doc_key < count:
                continue
            lo, hi = bounds[doc_key]
            for arrays, cursors in plans:
                positions: List[int] = []
                for slot, arr in enumerate(arrays):
                    start = bisect_left(arr, lo, cursors[slot])
                    end = cursors[slot] = bisect_left(arr, hi, start)
                    positions.extend(arr[start:end])
                if len(arrays) > 1:
                    positions.sort()
                out.extend(map(value_at, positions))
        return out

    # ------------------------------------------------------------------
    # The axis engine
    # ------------------------------------------------------------------
    def descendants(self, pre_lo: int, pre_hi: int,
                    pid: Optional[int] = None) -> Sequence[int]:
        """Positions inside the pre interval ``[pre_lo, pre_hi)`` -- the
        descendant axis as interval containment.  With ``pid`` the
        result is restricted to one path's postings via bisect."""
        if pid is not None:
            return self._positions_in(pid, pre_lo, pre_hi)
        return range(pre_lo, pre_hi)

    def descendant_interval(self, position: int) -> Tuple[int, int]:
        """The pre interval holding the subtree below ``position``."""
        return position + 1, self.sub[position]

    def attribute_positions(self, position: int) -> List[int]:
        """An element's attributes: the contiguous attribute run that
        directly follows it."""
        out: List[int] = []
        walk = position + 1
        end = self.sub[position]
        kind = self.kind
        while walk < end and kind[walk] == KIND_ATTRIBUTE:
            out.append(walk)
            walk += 1
        return out

    def child_element_positions(self, position: int) -> List[int]:
        """An element's child elements: hop sibling-to-sibling via
        ``sub`` after skipping the attribute run."""
        out: List[int] = []
        walk = position + 1
        end = self.sub[position]
        kind = self.kind
        sub = self.sub
        while walk < end and kind[walk] == KIND_ATTRIBUTE:
            walk += 1
        while walk < end:
            out.append(walk)
            walk = sub[walk]
        return out

    def _label_candidates(self, step: PatternStep, lo: int, hi: int
                          ) -> Sequence[int]:
        """Ascending positions whose node test matches ``step``'s label,
        restricted to [lo, hi) (memoized per label)."""
        label = step.label
        arr = self._label_positions.get(label)
        if arr is None:
            if label == "*":
                arr = array("q", (p for p in range(len(self.kind))
                                  if self.kind[p] == KIND_ELEMENT))
            elif label == "@*":
                arr = array("q", (p for p in range(len(self.kind))
                                  if self.kind[p] == KIND_ATTRIBUTE))
            else:
                merged: List[int] = []
                for pid, path in enumerate(self._paths):
                    if path.rsplit("/", 1)[-1] == label:
                        merged.extend(self._postings[pid])
                merged.sort()
                arr = array("q", merged)
            self._label_positions[label] = arr
        if lo == 0 and hi == len(self.pre):
            return arr
        return arr[bisect_left(arr, lo):bisect_left(arr, hi)]

    def _covered(self, candidates: Sequence[int],
                 contexts: Sequence[int]) -> List[int]:
        """Filter ascending ``candidates`` down to those inside the
        subtree interval ``[c, sub[c])`` of some ascending context --
        descendant-or-self containment by a single merge scan (the
        running prefix max of ``sub`` makes nested intervals cheap)."""
        out: List[int] = []
        sub = self.sub
        max_sub = 0
        index = 0
        total = len(contexts)
        for candidate in candidates:
            while index < total and contexts[index] <= candidate:
                context_sub = sub[contexts[index]]
                if context_sub > max_sub:
                    max_sub = context_sub
                index += 1
            if candidate < max_sub:
                out.append(candidate)
        return out

    def select_positions(self, pattern: PathPattern,
                         doc_id: Optional[int] = None) -> List[int]:
        """Step-wise exact evaluation of a linear pattern on the axis
        engine (descendant-or-self semantics, ascending positions).

        This is the structural counterpart of
        :meth:`nodes_for_pattern`'s path-determinism shortcut; the two
        must agree, which the byte-identity tests assert.
        """
        bounds = self._doc_slice(doc_id)
        if bounds is None:
            return []
        lo, hi = bounds
        if lo == hi:
            return []
        contexts: Optional[Sequence[int]] = None
        parent = self.parent
        for number, step in enumerate(pattern.steps):
            candidates = self._label_candidates(step, lo, hi)
            result: Sequence[int]
            if number == 0:
                if step.is_attribute and not step.descendant:
                    return []  # documents carry no attributes
                if step.descendant:
                    # Everything under the virtual document root(s); the
                    # document node itself is not an element, so there
                    # is no "self" at the first step.
                    result = candidates
                else:
                    result = [q for q in candidates if parent[q] == -1]
            elif step.descendant:
                result = self._covered(candidates, contexts)
            else:
                context_set = set(contexts)
                result = [q for q in candidates if parent[q] in context_set]
            if not result:
                return []
            contexts = result
        return list(contexts)


@builder
def build_columnar_store(documents: Iterable[DocumentNode]) -> "ColumnarStore":
    """Build a :class:`ColumnarStore` over ``documents`` in one pass
    (documents are keyed by their position, the collection's key)."""
    store = ColumnarStore()
    for position, document in enumerate(documents):
        store.add_document(document, doc_key=position)
    return store
