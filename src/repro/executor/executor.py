"""Query executor over the document store.

Execution follows the optimizer's plan choice:

* **Document scan plans** check the query's predicates and extraction
  paths against every document *of the plan's routing set* -- the
  collections whose path synopsis can match the query's patterns
  (structural routing; a query rooted in one collection does not walk
  the others).  Each routed collection is answered set-at-a-time from
  its columnar pre/post store
  (:class:`~repro.storage.columnar.ColumnarStore`): one
  :meth:`~repro.storage.columnar.ColumnarStore.matching_documents` call
  per predicate -- two bisects over the path's value-sorted posting
  permutation -- intersected, so a scan costs O(matching postings) and
  touches no ``XmlNode``.  A collection whose store cannot be published
  degrades to the interpreter: the
  :class:`~repro.xpath.evaluator.XPathEvaluator` per document, which is
  also the reference the engine is tested against.
* **Index plans** probe the physical indexes chosen by the optimizer to
  obtain candidate document ids, intersect them across predicates
  (index ANDing), and then evaluate the full query only on the
  candidates inside the routing set (residual filtering + extraction);
  entries a general index returns from unrouted collections are skipped
  without residual evaluation.

The executor reports what it did (documents examined, index entries
touched, result count, wall-clock time) so the E5 benchmark can compare
runs with and without the recommended indexes.

Maintenance: when the database's data signature moves between
executions, the executor catches its materialized indexes up from each
changed collection's delta journal
(:meth:`~repro.storage.document_store.XmlCollection.deltas_since`) --
one merge/retract per changed document -- instead of rebuilding every
index from scratch, and records the signature each structure now
reflects in the catalog (per-index staleness tracking).  A journal gap
(trimmed history, in-place edits) falls back to the full rebuild.

Extraction: ``execute(query, extract=True)`` additionally returns the
nodes selected by the query's extraction paths in document order --
``(collection, document, node id)`` -- served by the store's ordered
postings merges (``ColumnarStore.nodes_for_pattern(ordered=True)``).

Index-plan residual checks ride the same per-collection document sets,
and ``execute(extract_values=True)`` serves the extraction paths'
*normalized values* straight from the values column
(``ExecutionResult.extracted_values``) without materializing nodes.
The ``scan_node_materializations`` counter proves it: zero on the
columnar engine, positive in degraded mode and on the interpretive
reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.contracts import cache_contract, escape_hatch
from repro.faults import FaultError, guarded_fault_point
from repro.index.definition import IndexConfiguration, IndexDefinition
from repro.index.physical import PhysicalPathIndex, build_physical_index
from repro.optimizer.optimizer import Optimizer
from repro.optimizer.plans import IndexScan, QueryPlan
from repro.storage.columnar import ColumnarStore
from repro.storage.document_store import XmlDatabase
from repro.telemetry import (
    CostAccounting,
    MetricsRegistry,
    Span,
    global_registry,
    span,
    tracing_armed,
    wall_clock,
)
from repro.xmldb.nodes import DocumentNode, XmlNode, normalized_node_value
from repro.xpath.ast import BinaryOp, PathExpr
from repro.xpath.evaluator import XPathEvaluator
from repro.xpath.parser import parse_xpath
from repro.xpath.patterns import PathPattern
from repro.xquery.model import NormalizedQuery, PathPredicate
from repro.xquery.normalizer import normalize_statement

if TYPE_CHECKING:  # pragma: no cover - import only for type checkers
    from repro.tuning.monitor import WorkloadMonitor

escape_hatch("use_columnar",
             "evaluate per document with the interpreter instead of the "
             "columnar store's set-at-a-time engine")

#: Fixed bucket bounds (seconds) for the per-query wall-clock latency
#: histogram -- literal by the telemetry contract (no data-dependent
#: bucketing), so bucket layout never varies run to run.
_QUERY_SECONDS_BOUNDS = (0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05,
                         0.1, 0.5, 1.0, 5.0)
#: Fixed bucket bounds for the per-query documents-examined histogram.
_DOCS_EXAMINED_BOUNDS = (1, 10, 100, 1000, 10000, 100000)


@lru_cache(maxsize=2048)
def _pattern_expression(pattern: PathPattern) -> PathExpr:
    """The XPath AST of a pattern's text, parsed once per pattern (the
    interpreter evaluates the same few patterns against every document).
    Callers must treat the shared AST as immutable."""
    return parse_xpath(pattern.to_text())


def _plan_shape(plan: QueryPlan) -> str:
    """Cost-accounting key: one bucket per structural plan kind."""
    if not plan.uses_indexes:
        return "document-scan"
    return f"index-plan[{len(plan.used_indexes)}]"


@dataclass
class ExecutionResult:
    """Outcome of executing one query."""

    query_id: str
    result_count: int
    documents_examined: int
    index_entries_scanned: int
    used_indexes: List[str] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    used_index_plan: bool = False
    #: Nodes selected by the query's extraction paths, in document order
    #: per path per document; only populated by ``execute(extract=True)``.
    extracted_nodes: Optional[List[XmlNode]] = None
    #: Normalized string values of the nodes the extraction paths select,
    #: in the same order as ``extracted_nodes``; only populated by
    #: ``execute(extract_values=True)``.  On the columnar engine these
    #: come straight from the values column -- byte-identical
    #: to ``normalized_node_value`` over the extracted nodes.
    extracted_values: Optional[List[str]] = None
    #: Span tree recorded by ``execute(trace=True)`` (or with tracing
    #: armed executor/process-wide): parse/compile/plan/route/scan or
    #: index-probe/residual/extract, with plan shape, routing set,
    #: plan-cache attribution and wall/logical timings.  Observe-only
    #: data; ``None`` when tracing is off.
    trace: Optional[Span] = None

    @property
    def extracted_count(self) -> int:
        return len(self.extracted_nodes) if self.extracted_nodes else 0

    def describe(self) -> str:
        plan = "index plan" if self.used_index_plan else "document scan"
        return (f"{self.query_id}: {self.result_count} result doc(s) via {plan}, "
                f"{self.documents_examined} doc(s) examined, "
                f"{self.index_entries_scanned} index entries, "
                f"{self.elapsed_seconds * 1000:.1f} ms")


@dataclass(frozen=True)
class RemovedIndex:
    """Undo record for one dropped index (migration rollback)."""

    definition: IndexDefinition
    structure: Optional[PhysicalPathIndex]
    maintained_signature: Optional[Tuple[Tuple[str, int], ...]]
    unusable_reason: Optional[str]


class _IndexProbeError(Exception):
    """Internal: one index raised while being probed; carries the name
    so degraded-mode execution can mark exactly that index unusable."""

    def __init__(self, name: str, error: Exception) -> None:
        super().__init__(f"index {name!r} probe failed: {error}")
        self.name = name
        self.error = error


@cache_contract(memos={
    "_doc_lookup": {"policy": "revalidate",
                    "revalidators": ("_maintain_derived_state",
                                     "_refresh_document_lookup")},
    "_lookup_signature": {"policy": "revalidate",
                          "revalidators": ("_maintain_derived_state",
                                           "_refresh_document_lookup")},
    "_collection_rank": {"policy": "push",
                         "readers": ("_execute_index_plan",),
                         "refreshers": ("_refresh_document_lookup",)},
    "_columnars": {"policy": "push",
                   "readers": ("_columnar_for",),
                   "refreshers": ("_on_collection_change",)},
})
class QueryExecutor:
    """Executes normalized queries against a database's documents.

    The engine is each collection's
    :class:`~repro.storage.columnar.ColumnarStore`: predicates and value
    extraction run set-at-a-time over its columns.
    ``use_columnar=False`` builds the reference for it: the interpreter
    per document, which is also what a collection degrades to by itself
    when its store cannot be published.  ``use_path_summary`` is ANDed
    into ``use_columnar`` and kept only because the E0 benchmark's
    checker (``bench/check.py:134``) passes it; it goes with that call.
    """

    def __init__(self, database: XmlDatabase,
                 optimizer: Optional[Optimizer] = None,
                 use_path_summary: bool = True,
                 use_columnar: bool = True,
                 monitor: Optional["WorkloadMonitor"] = None,
                 registry: Optional[MetricsRegistry] = None,
                 trace: Optional[bool] = None) -> None:
        self.database = database
        self.optimizer = optimizer or Optimizer(database, registry=registry)
        #: Online-tuning capture hook: when attached, every executed
        #: query (and its measured work) is recorded into the monitor's
        #: decayed frequency store (see :mod:`repro.tuning.monitor`).
        self.monitor = monitor
        self.use_columnar = use_columnar and use_path_summary
        #: Physical index structures keyed by definition key.
        self._indexes: Dict[Tuple[str, str], PhysicalPathIndex] = {}
        self._doc_lookup: Dict[Tuple[str, int], DocumentNode] = {}
        self._lookup_signature: Optional[Tuple[Tuple[str, int], ...]] = None
        #: Memoized per-collection state: the collection insertion-order
        #: rank (for ordered extraction) and the current columnar
        #: stores.  Both are invalidated by the collections' own version
        #: listeners instead of being re-derived on every plan
        #: execution.
        self._collection_rank: Dict[str, int] = {}
        self._columnars: Dict[str, ColumnarStore] = {}
        self._subscribed: set = set()
        #: Instance-scoped metrics registry (the telemetry plane).  The
        #: legacy ad-hoc counters live here now as registry metrics --
        #: instance values keep their old per-executor semantics
        #: byte-for-byte (read them through the properties below) while
        #: every recording also aggregates into ``registry`` (the
        #: process-global registry by default).
        self.metrics = MetricsRegistry(
            parent=registry if registry is not None else global_registry())
        self._m_index_rebuilds = self.metrics.counter(
            "executor.index.rebuilds")
        self._m_index_delta_maintenances = self.metrics.counter(
            "executor.index.delta_maintenances")
        self._m_index_repairs = self.metrics.counter(
            "executor.index.repairs")
        self._m_documents_routed_out = self.metrics.counter(
            "executor.scan.documents_routed_out")
        self._m_scan_fallbacks = self.metrics.counter(
            "executor.scan.fallbacks")
        self._m_interpretive_spine_fallbacks = self.metrics.counter(
            "executor.scan.interpretive_spine_fallbacks")
        self._m_scan_node_materializations = self.metrics.counter(
            "executor.scan.node_materializations")
        self._m_queries_executed = self.metrics.counter(
            "executor.queries.executed")
        self._m_queries_traced = self.metrics.counter(
            "executor.queries.traced")
        self._m_query_seconds = self.metrics.histogram(
            "executor.query.seconds", _QUERY_SECONDS_BOUNDS, wall=True)
        self._m_documents_examined = self.metrics.histogram(
            "executor.query.documents_examined", _DOCS_EXAMINED_BOUNDS)
        #: Human-readable trail of every degraded-mode containment event.
        self.fallback_events: List[str] = []
        #: Default tracing state for :meth:`execute` calls that do not
        #: pass ``trace=``; seeded from the ``REPRO_TRACE`` environment
        #: switch when the constructor argument is ``None``.
        self.trace_by_default = tracing_armed() if trace is None else trace
        #: Predicted-vs-actual cost accounting over traced queries: each
        #: traced execution pairs the chosen plan's ``CostModel``
        #: estimate with the measured wall-clock time, per plan shape.
        self.cost_accounting = CostAccounting()
        self._refresh_document_lookup()

    # ------------------------------------------------------------------
    # Legacy counter attributes -- byte-equal views of registry metrics
    # ------------------------------------------------------------------
    # Each property reads the instance metric the old ad-hoc counter
    # migrated onto; the setters keep the historical reset idiom
    # (``executor.scan_node_materializations = 0``) working by resetting
    # the *instance* value only -- parent aggregates keep their totals.

    @property
    def index_rebuilds(self) -> int:
        """Indexes rebuilt from scratch since construction
        (observability for tests and benchmarks)."""
        return self._m_index_rebuilds.value

    @index_rebuilds.setter
    def index_rebuilds(self, value: int) -> None:
        self._m_index_rebuilds.reset(value)

    @property
    def index_delta_maintenances(self) -> int:
        """Indexes caught up via delta journals since construction."""
        return self._m_index_delta_maintenances.value

    @index_delta_maintenances.setter
    def index_delta_maintenances(self, value: int) -> None:
        self._m_index_delta_maintenances.reset(value)

    @property
    def index_repairs(self) -> int:
        """Unusable indexes successfully rebuilt by :meth:`repair_indexes`."""
        return self._m_index_repairs.value

    @index_repairs.setter
    def index_repairs(self, value: int) -> None:
        self._m_index_repairs.reset(value)

    @property
    def documents_routed_out(self) -> int:
        """Documents skipped by structural routing (scan path and
        index-plan residual checks), for the benchmarks/tests."""
        return self._m_documents_routed_out.value

    @documents_routed_out.setter
    def documents_routed_out(self, value: int) -> None:
        self._m_documents_routed_out.reset(value)

    @property
    def scan_fallbacks(self) -> int:
        """Queries answered by a fallback scan after an index or
        planner failure (degraded-mode observability)."""
        return self._m_scan_fallbacks.value

    @scan_fallbacks.setter
    def scan_fallbacks(self, value: int) -> None:
        self._m_scan_fallbacks.reset(value)

    @property
    def interpretive_spine_fallbacks(self) -> int:
        """Path spines answered by the interpretive evaluator (degraded
        mode and the reference; zero on the columnar engine)."""
        return self._m_interpretive_spine_fallbacks.value

    @interpretive_spine_fallbacks.setter
    def interpretive_spine_fallbacks(self, value: int) -> None:
        self._m_interpretive_spine_fallbacks.reset(value)

    @property
    def scan_node_materializations(self) -> int:
        """XmlNode list materializations performed while matching or
        extracting (every ``select_nodes`` call).  Zero on the columnar
        engine unless ``extract=True`` asks for nodes -- the proof that
        predicates and value extraction never left the columns."""
        return self._m_scan_node_materializations.value

    @scan_node_materializations.setter
    def scan_node_materializations(self, value: int) -> None:
        self._m_scan_node_materializations.reset(value)

    # ------------------------------------------------------------------
    # Index materialization
    # ------------------------------------------------------------------
    def create_indexes(self, definitions: Union[IndexConfiguration,
                                                Iterable[IndexDefinition]]) -> List[str]:
        """Register and build physical indexes for ``definitions``.

        Definitions are added to the catalog (if absent) and materialized;
        returns the names of the indexes built.
        """
        built: List[str] = []
        if self.database.data_signature() != self._lookup_signature:
            # Bring the already-materialized indexes current *before*
            # building new ones, so a later delta catch-up never replays
            # documents a fresh build already contains.
            self._maintain_derived_state()
        for definition in definitions:
            physical = definition.as_physical()
            structure = self._indexes.get(physical.key)
            if structure is None:
                # Build before touching the catalog: a failed build must
                # never strand a definition without a structure.
                structure = build_physical_index(physical, self.database)
                built.append(physical.name)
            self.install_index(physical, structure)
        return built

    def build_index_structure(self, definition: IndexDefinition) -> PhysicalPathIndex:
        """Materialize (but do not install) ``definition``'s structure.

        The staging half of a transactional migration: a failure here
        leaves the catalog and the executor completely untouched.
        """
        if self.database.data_signature() != self._lookup_signature:
            self._maintain_derived_state()
        return build_physical_index(definition.as_physical(), self.database)

    def install_index(self, definition: IndexDefinition,
                      structure: PhysicalPathIndex) -> None:
        """Publish a staged structure: catalog entry plus materialized map.

        The commit half of a migration: pure dict inserts, so a plan
        that reaches its commit point always completes.
        """
        physical = definition.as_physical()
        catalog = self.database.catalog
        if not catalog.has_index(physical.name):
            catalog.add_index(physical)  # contract: allow[fault-coverage] -- post-commit install; covered by migration.commit upstream
        self._indexes[physical.key] = structure
        catalog.clear_index_unusable(physical.name)
        self._mark_maintained(physical.name, self.database.data_signature())

    def remove_index(self, name: str) -> Optional[RemovedIndex]:
        """Drop one physical index, returning an undo record (or ``None``
        when no such physical index exists)."""
        catalog = self.database.catalog
        definition = next((candidate for candidate in catalog.physical_indexes
                           if candidate.name == name), None)
        if definition is None:
            return None
        # Consulted before any mutation: a persistent fault aborts the
        # drop with catalog and structures untouched.
        guarded_fault_point("index.drop")
        removed = RemovedIndex(
            definition=definition,
            structure=self._indexes.get(definition.key),
            maintained_signature=catalog.index_maintained_signature(name),
            unusable_reason=catalog.unusable_indexes.get(name))
        catalog.drop_index(name)
        self._indexes.pop(definition.key, None)
        return removed

    def restore_index(self, removed: RemovedIndex) -> None:
        """Undo one :meth:`remove_index` (the migration rollback path;
        pure dict inserts, infallible by design)."""
        catalog = self.database.catalog
        catalog.add_index(removed.definition)  # contract: allow[fault-coverage] -- rollback undo must not itself fault
        if removed.structure is not None:
            self._indexes[removed.definition.key] = removed.structure
        if removed.maintained_signature is not None:
            catalog.mark_index_maintained(removed.definition.name,
                                          removed.maintained_signature)
        if removed.unusable_reason is not None:
            catalog.mark_index_unusable(removed.definition.name,
                                        removed.unusable_reason)

    def repair_indexes(self) -> List[str]:
        """Try to rebuild every unusable index; returns the repaired names.

        A repair that fails leaves the index unusable (still served by
        the fallback scan path) to be retried on a later cycle.
        """
        repaired: List[str] = []
        catalog = self.database.catalog
        for name in sorted(catalog.unusable_indexes):
            definition = catalog.index(name)
            try:
                structure = self.build_index_structure(definition)
            except Exception:  # noqa: BLE001 -- containment: stay degraded
                continue
            self.install_index(definition, structure)
            self._m_index_repairs.inc()
            self._note_fallback(f"index {name!r} repaired (rebuilt)")
            repaired.append(name)
        return repaired

    def _degrade_index(self, name: str, reason: str) -> None:
        """Mark one physical index unusable and drop its structure; the
        optimizer plans around it until a repair succeeds."""
        catalog = self.database.catalog
        definition = next((candidate for candidate in catalog.physical_indexes
                           if candidate.name == name), None)
        if definition is not None:
            self._indexes.pop(definition.key, None)
            catalog.mark_index_unusable(name, reason)
        self._note_fallback(f"index {name!r} unusable: {reason}")

    def _note_fallback(self, event: str) -> None:
        self.fallback_events.append(event)

    def _rebuild_indexes(self) -> None:
        """Re-materialize every built index against the current documents.

        A structure whose rebuild fails is degraded (unusable, served by
        scans) instead of failing the maintenance pass: one broken index
        must not take the executor down."""
        signature = self.database.data_signature()
        for key, physical in list(self._indexes.items()):
            try:
                rebuilt = build_physical_index(physical.definition,
                                               self.database)
            except Exception as exc:  # noqa: BLE001 -- containment: degrade
                self._degrade_index(physical.definition.name,
                                    f"rebuild failed: {exc}")
                continue
            self._indexes[key] = rebuilt
            self._m_index_rebuilds.inc()
            self._mark_maintained(physical.definition.name, signature)

    def _mark_maintained(self, name: str,
                         signature: Tuple[Tuple[str, int], ...]) -> None:
        if self.database.catalog.has_index(name):
            self.database.catalog.mark_index_maintained(name, signature)

    def _maintain_derived_state(self) -> None:
        """Bring the document lookup and materialized indexes up to the
        current data signature -- via the collections' delta journals
        when possible, falling back to full rebuilds otherwise."""
        old_signature = self._lookup_signature
        self._refresh_document_lookup()  # O(documents): always cheap
        if not self._indexes:
            return
        if old_signature is None:
            self._rebuild_indexes()
            return
        old_versions = dict(old_signature)
        new_versions = dict(self._lookup_signature or ())
        if set(old_versions) - set(new_versions):
            # A collection disappeared: entries cannot be retracted
            # without its journal, rebuild.
            self._rebuild_indexes()
            return
        pending = []
        for name, version in new_versions.items():
            previous = old_versions.get(name, 0)
            if version == previous:
                continue
            deltas = self.database.collection(name).deltas_since(previous)
            if deltas is None:
                self._rebuild_indexes()
                return
            pending.extend(deltas)
        # Replay is order-insensitive across collections (each delta
        # only touches its own collection's keys) but must stay ordered
        # within one, which deltas_since guarantees.
        signature = self.database.data_signature()
        try:
            guarded_fault_point("journal.replay")
        except FaultError as exc:
            self._note_fallback(
                f"journal replay failed ({exc}); rebuilding indexes")
            self._rebuild_indexes()
            return
        for key, index in list(self._indexes.items()):
            name = index.definition.name
            try:
                for delta in pending:
                    index.apply_collection_delta(delta)
            except Exception as exc:  # noqa: BLE001 -- containment: rebuild
                # The structure may be half-maintained: rebuild just this
                # index, and degrade it only if the rebuild fails too.
                self._note_fallback(
                    f"delta maintenance of index {name!r} failed ({exc}); "
                    "rebuilding")
                try:
                    self._indexes[key] = build_physical_index(
                        index.definition, self.database)
                except Exception as rebuild_exc:  # noqa: BLE001
                    self._degrade_index(
                        name, "rebuild after failed delta maintenance "
                              f"failed: {rebuild_exc}")
                    continue
                self._m_index_rebuilds.inc()
            else:
                self._m_index_delta_maintenances.inc()
            self._mark_maintained(name, signature)

    def drop_indexes(self, names: Iterable[str]) -> List[str]:
        """Drop specific physical indexes (catalog entries and any
        materialized structures); returns the names actually dropped.

        This is the migration-plan primitive of the online tuning
        controller: after the drop, subsequent :meth:`execute` calls
        plan against the reduced catalog (the optimizer's plan cache is
        keyed to the visible index keys, so stale plans cannot be
        served).
        """
        dropped: List[str] = []
        for name in names:
            if self.remove_index(name) is not None:
                dropped.append(name)
        return dropped

    def drop_all_indexes(self) -> None:
        """Drop every physical index (catalog entries and structures)."""
        for definition in list(self.database.catalog.physical_indexes):
            self.remove_index(definition.name)
        self._indexes.clear()

    # ------------------------------------------------------------------
    # Workload capture (online tuning)
    # ------------------------------------------------------------------
    def attach_monitor(self, monitor: Optional["WorkloadMonitor"]) -> None:
        """Attach (or, with ``None``, detach) the workload capture hook."""
        self.monitor = monitor

    @property
    def materialized_index_count(self) -> int:
        return len(self._indexes)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute(self, query: Union[NormalizedQuery, str],
                extract: bool = False,
                extract_values: bool = False,
                trace: Optional[bool] = None) -> ExecutionResult:
        """Execute a query (normalized or raw statement text).

        With ``extract=True``, the result additionally carries the nodes
        selected by the query's extraction paths in every matching
        document, in document order (``ExecutionResult.extracted_nodes``).
        With ``extract_values=True``, it carries those nodes' normalized
        string values instead (``ExecutionResult.extracted_values``) --
        served straight from the columnar values column, with no node
        materialization at all.

        With ``trace=True`` (or tracing armed executor/process-wide,
        see ``REPRO_TRACE``), the result carries a span tree on
        ``ExecutionResult.trace`` and the execution feeds the
        predicted-vs-actual :attr:`cost_accounting` stream.  Tracing is
        observe-only: results are byte-identical either way.
        """
        traced = self.trace_by_default if trace is None else trace
        root: Optional[Span] = None
        if isinstance(query, str):
            parse_start = wall_clock()
            statement_chars = len(query)
            query = normalize_statement(query)
            if traced:
                root = Span("query", query_id=query.query_id)
                parse_span = root.child("parse",
                                        statement_chars=statement_chars)
                parse_span.elapsed_seconds = wall_clock() - parse_start
        elif traced:
            root = Span("query", query_id=query.query_id)
        if query.is_update:
            raise ValueError(
                "the executor runs read queries; updates are costed by the optimizer")
        if root is not None:
            # Pattern -> path matching is memoized per store and
            # interleaved with matching, so the compile span carries the
            # logical shape only (no separable wall time).
            root.child("compile", predicates=len(query.predicates),
                       extraction_paths=len(query.extraction_paths))
        start = wall_clock()
        if self._lookup_signature != self.database.data_signature():
            # Documents were added/removed since the executor's derived
            # state was built: refresh the document lookup and catch the
            # materialized indexes up (via the delta journals, or by
            # rebuilding), so index plans neither miss new documents nor
            # return entries with reassigned document ids.
            with span(root, "maintain"):
                self._maintain_derived_state()
        plan: Optional[QueryPlan] = None
        while True:
            cache_hits_before = self.optimizer.plan_cache_hits
            try:
                with span(root, "plan") as plan_span:
                    plan = self.optimizer.optimize(
                        query,
                        candidate_indexes=self.database.catalog.usable_physical_indexes)
                    if plan_span is not None:
                        plan_span.annotate(
                            plan_cache=("hit" if self.optimizer.plan_cache_hits
                                        > cache_hits_before else "miss"),
                            plan_shape=_plan_shape(plan),
                            predicted_cost=plan.total_cost,
                            routing=(sorted(plan.routing)
                                     if plan.routing is not None else None),
                            indexes=[index.name
                                     for index in plan.used_indexes])
            except FaultError as exc:
                # Infrastructure failure while planning (statistics or
                # synopsis publish): degrade to an unrouted document
                # scan -- results unchanged, just slower.
                plan = None
                self._note_fallback(
                    f"optimizer unavailable ({exc}); full document scan")
                self._m_scan_fallbacks.inc()
                if root is not None:
                    root.annotate(planner_fallback=True)
                result = self._execute_scan(query, extract, None,
                                            extract_values, trace=root)
                break
            if plan.uses_indexes and self._plan_indexes_materialized(plan):
                try:
                    result = self._execute_index_plan(query, plan, extract,
                                                      extract_values,
                                                      trace=root)
                    break
                except _IndexProbeError as failure:
                    # Degraded mode: a raising index must not fail the
                    # query.  Mark it unusable and re-plan without it;
                    # each pass removes one index, so this terminates.
                    self._degrade_index(failure.name,
                                        f"probe raised: {failure.error}")
                    self._m_scan_fallbacks.inc()
                    continue
            result = self._execute_scan(query, extract, plan.routing,
                                        extract_values, trace=root)
            break
        elapsed = wall_clock() - start
        result.elapsed_seconds = elapsed
        self._m_queries_executed.inc()
        self._m_query_seconds.observe(elapsed)
        self._m_documents_examined.observe(result.documents_examined)
        if root is not None:
            self._m_queries_traced.inc()
            root.elapsed_seconds = elapsed
            root.annotate(result_count=result.result_count,
                          documents_examined=result.documents_examined,
                          index_entries_scanned=result.index_entries_scanned,
                          used_index_plan=result.used_index_plan)
            result.trace = root
            if plan is not None:
                # Planner-fallback scans have no prediction to pair with,
                # so only planned executions feed the accounting stream.
                self.cost_accounting.record(
                    query_id=query.query_id,
                    plan_shape=_plan_shape(plan),
                    predicted_cost=plan.total_cost,
                    measured_seconds=elapsed,
                    documents_examined=result.documents_examined,
                    index_entries_scanned=result.index_entries_scanned)
        if self.monitor is not None:
            # Online-tuning capture: the monitor aggregates by query
            # template, so repeated executions of one statement fold
            # into a single decayed-weight entry.
            self.monitor.record(query, result)
        return result

    def execute_workload(self, queries: Sequence[NormalizedQuery],
                         extract: bool = False,
                         extract_values: bool = False) -> List[ExecutionResult]:
        """Execute every (non-update) query of a normalized workload."""
        return [self.execute(query, extract=extract,
                             extract_values=extract_values)
                for query in queries if not query.is_update]

    # ------------------------------------------------------------------
    # Scan execution
    # ------------------------------------------------------------------
    def _execute_scan(self, query: NormalizedQuery, extract: bool = False,
                      routing: Optional[Tuple[str, ...]] = None,
                      extract_values: bool = False,
                      trace: Optional[Span] = None) -> ExecutionResult:
        matching_docs = 0
        examined = 0
        extracted: Optional[List[XmlNode]] = [] if extract else None
        values: Optional[List[str]] = [] if extract_values else None
        collections = self.database.collections
        routed_out = 0
        if routing is not None:
            # Structural pruning: a collection outside the plan's
            # routing set provably contains no matching document (its
            # synopsis cannot satisfy the query's patterns), so the
            # scan does not visit it at all.
            routed = frozenset(routing)
            pruned = [c for c in collections if c.name in routed]
            routed_out = sum(
                len(c) for c in collections if c.name not in routed)
            self._m_documents_routed_out.inc(routed_out)
            collections = pruned
        if trace is not None:
            trace.child("route",
                        routing=(sorted(routing)
                                 if routing is not None else None),
                        collections=len(collections),
                        documents_routed_out=routed_out)
        scan_span: Optional[Span] = None
        scan_start = 0.0
        engines: Set[str] = set()
        if trace is not None:
            scan_span = trace.child("scan")
            scan_start = wall_clock()
        for collection in collections:
            columnar = self._columnar_for(collection.name)
            if scan_span is not None:
                engines.add(_engine(columnar))
            if columnar is not None:
                # Set-at-a-time: one document set per predicate (two
                # bisects over the path's value-sorted projection),
                # intersected -- no per-document loop, no XmlNode hop.
                doc_keys = self._vectorized_document_keys(columnar, query)
                examined += len(collection)
                matching_docs += len(doc_keys)
                if extracted is None and values is None:
                    continue
                # Collections iterate in ascending doc-id order, so the
                # sorted key walk is the per-document extraction stream.
                ordered_keys = sorted(doc_keys)
                if values is not None:
                    values.extend(columnar.values_for_documents(
                        query.extraction_paths, ordered_keys))
                if extracted is not None:
                    for doc_key in ordered_keys:
                        document = self._doc_lookup.get(
                            (collection.name, doc_key))
                        if document is not None:
                            extracted.extend(self._extract_nodes(
                                document, query, columnar))
                continue
            # Degraded mode (no store) and the reference: per document.
            for document in collection:
                examined += 1
                if self._document_matches(document, query):
                    matching_docs += 1
                    if extracted is not None:
                        extracted.extend(self._extract_nodes(document, query))
                    if values is not None:
                        values.extend(self._extract_values(document, query))
        if scan_span is not None:
            scan_span.elapsed_seconds = wall_clock() - scan_start
            scan_span.annotate(engines=sorted(engines),
                               documents_examined=examined,
                               matching_documents=matching_docs)
        if trace is not None and (extract or extract_values):
            trace.child(
                "extract",
                extracted_nodes=len(extracted) if extracted is not None else 0,
                extracted_values=len(values) if values is not None else 0)
        return ExecutionResult(query_id=query.query_id, result_count=matching_docs,
                               documents_examined=examined, index_entries_scanned=0,
                               used_index_plan=False, extracted_nodes=extracted,
                               extracted_values=values)

    def _vectorized_document_keys(self, columnar: ColumnarStore,
                                  query: NormalizedQuery) -> Set[int]:
        """Document keys of one collection matching every predicate.

        Each predicate costs two bisects over its paths' value-sorted
        projections plus one pass over the matching postings
        (:meth:`ColumnarStore.matching_documents`); the per-predicate
        sets are intersected with an empty-set early exit.  A pure
        navigation query matches where any extraction path has a
        posting (:meth:`ColumnarStore.documents_with_match` -- a
        skip-scan, one probe per distinct document).  Equal to
        `_document_matches` over every document: the projections sort
        the same ``typed_value``/``double_value`` results
        ``_compare_node`` reads.
        """
        docs: Optional[Set[int]] = None
        for predicate in query.predicates:
            matched = columnar.matching_documents(
                predicate.pattern, predicate.op, predicate.value)
            docs = matched if docs is None else docs & matched
            if not docs:
                return set()
        if docs is None:
            # Pure navigation query: a document qualifies when any
            # extraction path selects at least one node.
            docs = set()
            for pattern in query.extraction_paths:
                docs |= columnar.documents_with_match(pattern)
        return docs

    # ------------------------------------------------------------------
    # Index plan execution
    # ------------------------------------------------------------------
    def _plan_indexes_materialized(self, plan: QueryPlan) -> bool:
        return all(index.key in self._indexes for index in plan.used_indexes)

    def _execute_index_plan(self, query: NormalizedQuery, plan: QueryPlan,
                            extract: bool = False,
                            extract_values: bool = False,
                            trace: Optional[Span] = None) -> ExecutionResult:
        candidate_docs: Optional[Set[Tuple[str, int]]] = None
        entries_scanned = 0
        used_names: List[str] = []
        with span(trace, "index-probe") as probe_span:
            for operator in self._index_scans(plan):
                index = self._indexes[operator.index.key]
                used_names.append(operator.index.name)
                try:
                    entries = self._probe(index, operator.predicate)
                except Exception as exc:  # noqa: BLE001 -- attributed, contained by execute()
                    raise _IndexProbeError(operator.index.name, exc) from exc
                entries_scanned += len(entries)
                docs = {(entry.collection, entry.doc_id) for entry in entries}
                candidate_docs = docs if candidate_docs is None else candidate_docs & docs
                if not candidate_docs:
                    break
            candidate_docs = candidate_docs or set()
            if probe_span is not None:
                probe_span.annotate(indexes=list(used_names),
                                    entries_scanned=entries_scanned,
                                    candidate_documents=len(candidate_docs))
        routed_out = 0
        if plan.routing is not None:
            # The index may be more general than the query's patterns
            # and return entries from collections the query cannot
            # match; routing skips their residual checks entirely.
            routed = frozenset(plan.routing)
            before = len(candidate_docs)
            candidate_docs = {key for key in candidate_docs
                              if key[0] in routed}
            routed_out = before - len(candidate_docs)
            self._m_documents_routed_out.inc(routed_out)
        if trace is not None:
            trace.child("route",
                        routing=(sorted(plan.routing)
                                 if plan.routing is not None else None),
                        documents_routed_out=routed_out)
        matching = 0
        examined = 0
        extracted: Optional[List[XmlNode]] = [] if extract else None
        values: Optional[List[str]] = [] if extract_values else None
        # Candidate sets are unordered; extraction iterates them in
        # (collection insertion order, doc id) order -- the same order
        # the scan path visits documents -- so plan choice never changes
        # the extraction stream.  The rank map is memoized behind the
        # per-collection version listeners (`_refresh_document_lookup`).
        if extract or extract_values:
            rank = self._collection_rank
            ordered_docs: Iterable[Tuple[str, int]] = sorted(
                candidate_docs,
                key=lambda key: (rank.get(key[0], len(rank)), key[1]))
        else:
            ordered_docs = candidate_docs
        # Residual checks: the full matching-key set is computed once
        # per collection (the same intersected bisect sets the scan path
        # uses) and each candidate becomes a set-membership probe.
        vectorized_keys: Dict[str, Set[int]] = {}
        # Values are extracted with one store call per run of matched
        # documents of one store (the visiting order above makes that a
        # collection's matches, keys ascending), flushed in stream order.
        run_store: Optional[ColumnarStore] = None
        run_keys: List[int] = []

        def flush_run() -> None:
            if run_keys:
                values.extend(run_store.values_for_documents(
                    query.extraction_paths, run_keys))
                run_keys.clear()

        residual_span: Optional[Span] = None
        residual_start = 0.0
        engines: Set[str] = set()
        if trace is not None:
            residual_span = trace.child("residual")
            residual_start = wall_clock()
        for key in ordered_docs:
            document = self._doc_lookup.get(key)
            if document is None:
                continue
            columnar = self._columnar_for(key[0])
            examined += 1
            if residual_span is not None:
                engines.add(_engine(columnar))
            if columnar is not None:
                matched_keys = vectorized_keys.get(key[0])
                if matched_keys is None:
                    matched_keys = self._vectorized_document_keys(
                        columnar, query)
                    vectorized_keys[key[0]] = matched_keys
                matched = key[1] in matched_keys
            else:
                matched = self._document_matches(document, query)
            if matched:
                matching += 1
                if extracted is not None:
                    extracted.extend(self._extract_nodes(
                        document, query, columnar))
                if values is not None:
                    if columnar is not None:
                        if columnar is not run_store:
                            flush_run()
                            run_store = columnar
                        run_keys.append(key[1])
                    else:
                        flush_run()
                        values.extend(self._extract_values(document, query))
        flush_run()
        if residual_span is not None:
            residual_span.elapsed_seconds = wall_clock() - residual_start
            residual_span.annotate(engines=sorted(engines),
                                   documents_examined=examined,
                                   matching_documents=matching)
        if trace is not None and (extract or extract_values):
            trace.child(
                "extract",
                extracted_nodes=len(extracted) if extracted is not None else 0,
                extracted_values=len(values) if values is not None else 0)
        return ExecutionResult(query_id=query.query_id, result_count=matching,
                               documents_examined=examined,
                               index_entries_scanned=entries_scanned,
                               used_indexes=used_names, used_index_plan=True,
                               extracted_nodes=extracted,
                               extracted_values=values)

    def _index_scans(self, plan: QueryPlan) -> List[IndexScan]:
        scans: List[IndexScan] = []
        stack = [plan.root]
        while stack:
            operator = stack.pop()
            if isinstance(operator, IndexScan):
                scans.append(operator)
            stack.extend(operator.children())
        return scans

    def _probe(self, index: PhysicalPathIndex, predicate: PathPredicate):
        if predicate is None or predicate.op is None or predicate.value is None:
            entries = index.scan()
        elif predicate.op is BinaryOp.EQ:
            entries = index.lookup_equal(predicate.value)
        else:
            entries = index.lookup_range(predicate.op, predicate.value)
        # The index may be more general than the predicate: post-filter on
        # the node's path by re-checking the predicate pattern against the
        # entry's document when patterns differ.  Entries do not carry the
        # path, so the residual document check below handles it; here we
        # only prune by key.
        return entries

    # ------------------------------------------------------------------
    # Residual evaluation
    # ------------------------------------------------------------------
    def _document_matches(self, document: DocumentNode,
                          query: NormalizedQuery) -> bool:
        """Per-document matching without a store: degraded mode and the
        reference."""
        evaluator = XPathEvaluator(document)
        for predicate in query.predicates:
            if not self._predicate_holds(
                    self._interpreted(evaluator, predicate.pattern), predicate):
                return False
        if not query.predicates:
            # Pure navigation query: the document qualifies when any
            # extraction path is non-empty.
            return any(self._interpreted(evaluator, pattern)
                       for pattern in query.extraction_paths)
        return True

    def _extract_nodes(self, document: DocumentNode, query: NormalizedQuery,
                       columnar: Optional[ColumnarStore] = None
                       ) -> List[XmlNode]:
        """The nodes the query's extraction paths select in ``document``,
        per path in document order.

        A multi-path pattern (``/site/regions/*/item/name``) comes back
        from the store as one document-ordered postings merge instead of
        grouped by distinct path; the interpreter's step expansion is
        document order already for these linear paths.
        """
        evaluator = XPathEvaluator(document) if columnar is None else None
        nodes: List[XmlNode] = []
        for pattern in query.extraction_paths:
            if evaluator is not None:
                nodes.extend(self._interpreted(evaluator, pattern))
            else:
                self._m_scan_node_materializations.inc()
                nodes.extend(columnar.nodes_for_pattern(
                    pattern, document.doc_id, ordered=True))
        return nodes

    def _extract_values(self, document: DocumentNode,
                        query: NormalizedQuery) -> List[str]:
        """Normalized values of the extraction-path nodes -- the
        per-document counterpart of reading the columnar values column,
        which stores exactly ``normalized_node_value`` per node."""
        return [normalized_node_value(node) for node in
                self._extract_nodes(document, query)]

    def _interpreted(self, evaluator: XPathEvaluator,
                     pattern: PathPattern) -> List[XmlNode]:
        """One path spine answered by the interpreter."""
        self._m_interpretive_spine_fallbacks.inc()
        self._m_scan_node_materializations.inc()
        return evaluator.select_nodes(_pattern_expression(pattern))

    @staticmethod
    def _predicate_holds(nodes: List[XmlNode],
                         predicate: PathPredicate) -> bool:
        if predicate.op is None or predicate.value is None:
            return bool(nodes)
        for node in nodes:
            if _compare_node(node, predicate):
                return True
        return False

    def _refresh_document_lookup(self) -> None:
        self._doc_lookup.clear()
        self._collection_rank.clear()
        for position, collection in enumerate(self.database.collections):
            self._collection_rank[collection.name] = position
            if collection.name not in self._subscribed:
                # Per-collection version listener: drop the memoized
                # store the moment the collection's data changes, so
                # `_columnar_for` can hold snapshots across executions
                # without ever serving a stale one.  Subscribed weakly:
                # executors are often shorter-lived than the database,
                # and must not be pinned by the listener list.
                self._subscribed.add(collection.name)
                collection.subscribe(self._on_collection_change, weak=True)
            for document in collection:
                self._doc_lookup[(collection.name, document.doc_id)] = document
        self._lookup_signature = self.database.data_signature()

    def _on_collection_change(self, collection) -> None:
        self._columnars.pop(collection.name, None)

    def _columnar_for(self, collection_name: str) -> Optional[ColumnarStore]:
        """The collection's current columnar store (memoized behind the
        per-collection version listeners), or ``None`` on the reference
        (``use_columnar=False``) or when the store cannot be (re)built.
        """
        if not self.use_columnar:
            return None
        columnar = self._columnars.get(collection_name)
        if columnar is None:
            try:
                columnar = self.database.collection(collection_name).columnar_store
            except FaultError as exc:
                # Degraded mode: when the columnar snapshot cannot be
                # (re)built, fall back to the interpreter -- provably the
                # same results, without the store.
                self._note_fallback(
                    f"columnar store for {collection_name!r} unavailable "
                    f"({exc}); interpretive evaluation")
                return None
            self._columnars[collection_name] = columnar
        return columnar


def _engine(columnar: Optional[ColumnarStore]) -> str:
    """What answered one collection visit (span annotation)."""
    return "columnar" if columnar is not None else "interpreter"


def _compare_node(node, predicate: PathPredicate) -> bool:
    value = predicate.value
    if isinstance(value, float):
        node_value = node.double_value()
        if node_value is None:
            return False
    else:
        node_value = node.typed_value()
    op = predicate.op
    if op is BinaryOp.EQ:
        return node_value == value
    if op is BinaryOp.NE:
        return node_value != value
    if op is BinaryOp.LT:
        return node_value < value
    if op is BinaryOp.LE:
        return node_value <= value
    if op is BinaryOp.GT:
        return node_value > value
    if op is BinaryOp.GE:
        return node_value >= value
    return False
