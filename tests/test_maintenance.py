"""Delta-propagation maintenance: equivalence and invalidation tests.

The core contract of :mod:`repro.storage.maintenance` is *byte
identity*: a collection whose derived state (columnar store,
statistics synopsis, physical index entries) is maintained
through per-document deltas must be indistinguishable from a database
built from scratch out of its current documents, for any interleaving
of document adds and removes.  The randomized tests drive seeded op
sequences on XMark/TPoX fragments and rebuild after every operation.

The second half covers the invalidation layers above storage: the
executor's delta catch-up of materialized indexes (with the catalog's
per-index staleness marks and the journal-gap rebuild fallback), and
the optimizer's/evaluator's collection-scoped fine-grained invalidation
(state survives signature churn that leaves the synopsis intact).
"""

from __future__ import annotations

import random

import pytest

from _support import (
    EXECUTOR_COUNTERS,
    TINY_SITE_XML,
    assert_counter_parity,
    build_varied_database,
)
from reference.advisor_reference import ReferenceEvaluator
from repro.advisor.advisor import XmlIndexAdvisor
from repro.advisor.benefit import ConfigurationEvaluator
from repro.advisor.config import AdvisorParameters
from repro.executor.executor import QueryExecutor
from repro.index.definition import IndexConfiguration, IndexDefinition
from repro.index.physical import build_physical_index
from repro.storage.document_store import XmlCollection, XmlDatabase
from repro.storage.maintenance import (
    DataChangeTracker,
    DeltaLog,
    compute_document_delta,
)
from repro.storage.statistics import StatisticsAccumulator
from repro.workloads.tpox import TpoxConfig, generate_tpox_database
from repro.workloads.xmark import (
    XMarkConfig,
    generate_xmark_database,
    xmark_query_workload,
)
from repro.xmldb.parser import parse_document
from repro.xpath.patterns import PathPattern
from repro.xquery.model import ValueType, Workload
from repro.xquery.normalizer import normalize_workload


def _rebuilt(database: XmlDatabase) -> XmlDatabase:
    """The oracle: a database built from scratch out of ``database``'s
    current documents (re-parsed from their serialized text).  Nothing
    in it has ever seen a delta -- its derived state is built lazily
    after the last add."""
    from repro.xmldb.serializer import serialize

    fresh = XmlDatabase(database.name + "-rebuilt")
    for collection in database.collections:
        fresh.create_collection(collection.name).add_documents(
            serialize(document) for document in collection)
    return fresh


def _assert_equivalent(maintained: XmlCollection,
                       rebuilt: XmlCollection) -> None:
    assert maintained.columnar_store.canonical_state() \
        == rebuilt.columnar_store.canonical_state()
    assert maintained.statistics == rebuilt.statistics


class TestDocumentDelta:
    def test_groups_match_summary_build(self):
        document = parse_document(TINY_SITE_XML)
        document.doc_id = 0
        document.assign_node_ids()
        delta = compute_document_delta(document)
        assert delta.doc_key == 0
        assert "/site/regions/africa/item" in delta.path_groups
        assert "/site/regions/africa/item/@id" in delta.path_groups
        # One pass captures every element and attribute exactly once.
        assert delta.element_count == sum(
            len(nodes) for path, nodes in delta.path_groups.items()
            if "/@" not in path)
        assert delta.attribute_count == sum(
            len(nodes) for path, nodes in delta.path_groups.items()
            if "/@" in path)

    def test_delta_log_since_and_trim(self):
        collection = XmlCollection("c")
        for i in range(3):
            collection.add_document(f"<a><b>{i}</b></a>")
        assert collection.deltas_since(collection.version) == []
        deltas = collection.deltas_since(0)
        assert [d.version for d in deltas] == [1, 2, 3]
        assert all(d.is_add for d in deltas)

        log = DeltaLog(capacity=2)
        for delta in deltas:
            log.record(delta)
        assert log.since(0) is None  # trimmed past version 1
        assert [d.version for d in log.since(1)] == [2, 3]

    def test_discontinuity_breaks_catchup(self):
        collection = XmlCollection("c")
        collection.add_document("<a><b>1</b></a>")
        version = collection.version
        collection.invalidate_statistics()  # in-place-edit barrier
        assert collection.deltas_since(version) is None
        collection.add_document("<a><b>2</b></a>")
        assert collection.deltas_since(version) is None  # still bridged by the gap
        assert len(collection.deltas_since(collection.version - 1)) == 1


class TestSummaryDelta:
    def test_apply_delta_shares_untouched_paths(self):
        collection = XmlCollection("c")
        collection.add_document("<r><a>1</a></r>")
        collection.add_document("<r><b>2</b></r>")
        before = collection.columnar_store
        collection.add_document("<r><a>3</a></r>")  # touches /r and /r/a only
        after = collection.columnar_store
        assert after is not before  # snapshot replaced, not mutated

        def postings(store, path):
            return store._postings[store._path_index[path]]

        assert postings(after, "/r/b") is postings(before, "/r/b")
        assert postings(after, "/r/a") is not postings(before, "/r/a")
        # The old snapshot still answers with its pre-change view.
        pattern = PathPattern.parse("/r/a")
        assert len(before.nodes_for_pattern(pattern)) == 1
        assert len(after.nodes_for_pattern(pattern)) == 2

    def test_remove_drops_emptied_paths(self):
        """A path whose last document is removed disappears from the
        store's path-level answers and from statistics collected from
        the maintained store."""
        collection = XmlCollection("c")
        collection.add_document('<r><only x="1">2</only></r>')
        collection.add_document("<r><a>1</a></r>")
        assert "/r/only/@x" in collection.columnar_store.distinct_paths
        collection.remove_document(0)
        store = collection.columnar_store
        assert store.distinct_paths == ["/r", "/r/a"]
        assert "2 paths" in store.describe()
        # Statistics are first collected now, from the maintained store
        # whose path table still holds the emptied entries.
        assert sorted(collection.statistics.path_stats) == ["/r", "/r/a"]
        # Keys above the removed document slid down.
        assert store.documents_with_match(PathPattern.parse("/r/a")) == {0}

    def test_statistics_min_max_retraction(self):
        collection = XmlCollection("c")
        collection.add_document("<r><v>5</v></r>")
        collection.add_document("<r><v>100</v></r>")
        collection.add_document("<r><v>40</v></r>")
        stat = collection.statistics.path_stats["/r/v"]
        assert (stat.min_value, stat.max_value) == (5.0, 100.0)
        collection.remove_document(1)  # retract the max
        stat = collection.statistics.path_stats["/r/v"]
        assert (stat.min_value, stat.max_value) == (5.0, 40.0)
        collection.remove_document(0)  # retract the min
        stat = collection.statistics.path_stats["/r/v"]
        assert (stat.min_value, stat.max_value) == (40.0, 40.0)

    def test_accumulator_from_store_roundtrip(self):
        collection = XmlCollection("c")
        collection.add_document(TINY_SITE_XML)
        assert collection.statistics.document_count == 1  # prime the accumulator
        collection.add_document("<site><people><person id='p9'/></people></site>")
        collection.add_document("<site><gone>1</gone></site>")
        collection.remove_document(2)  # leaves an emptied path in the store
        accumulator = StatisticsAccumulator.from_store(collection.columnar_store)
        assert accumulator.snapshot() == collection.statistics


@pytest.mark.parametrize("workload_kind", ["xmark", "tpox"])
def test_randomized_interleaved_equivalence(workload_kind):
    """Interleaved add/remove sequences must keep the delta-maintained
    store, statistics and index entries byte-identical to a
    database rebuilt from the live documents, checked after *every*
    operation."""
    if workload_kind == "xmark":
        base = generate_xmark_database(XMarkConfig(scale=0.02, seed=11), "maint")
        donor = generate_xmark_database(XMarkConfig(scale=0.03, seed=77), "donor")
        collection_name = "xmark"
        index_defs = [
            IndexDefinition.create("/site/people/person/@id", ValueType.VARCHAR),
            IndexDefinition.create("/site/regions/*/item/quantity", ValueType.DOUBLE),
        ]
    else:
        base = generate_tpox_database(TpoxConfig(scale=0.02, seed=11), "maint")
        donor = generate_tpox_database(TpoxConfig(scale=0.03, seed=77), "donor")
        collection_name = "order"
        index_defs = [
            IndexDefinition.create("//Order/@ID", ValueType.VARCHAR),
        ]
    reserve = donor.collection(collection_name).documents

    from repro.xmldb.serializer import serialize

    maintained = base.collection(collection_name)
    # Prime derived state so adds/removes go through the delta path.
    _assert_equivalent(maintained, _rebuilt(base).collection(collection_name))
    indexes = [build_physical_index(d, base) for d in index_defs]

    rng = random.Random(1234)
    for step in range(14):
        if reserve and (len(maintained) < 2 or rng.random() < 0.6):
            maintained.add_document(serialize(reserve.pop()))
        else:
            maintained.remove_document(rng.randrange(len(maintained)))
        for delta in maintained.deltas_since(maintained.version - 1):
            for index in indexes:
                index.apply_collection_delta(delta)
        fresh = _rebuilt(base)
        _assert_equivalent(maintained, fresh.collection(collection_name))
        for definition, index in zip(index_defs, indexes):
            assert index.entries == build_physical_index(definition, fresh).entries, \
                f"index diverged at step {step}"
        assert base.statistics == fresh.statistics


def test_randomized_advisor_equivalence_across_changes():
    """Through a random change sequence, a long-lived evaluator and a
    long-lived advisor must produce, after every step, byte-identical
    benefits to the memo-free reference and recommendations identical
    to a fresh advisor's, both over a database rebuilt from the live
    documents."""
    base = generate_xmark_database(XMarkConfig(scale=0.02, seed=5), "adv")
    donor = generate_xmark_database(XMarkConfig(scale=0.03, seed=55), "adv-donor")
    workload = xmark_query_workload(name="maint-adv")
    queries = normalize_workload(workload)
    evaluator = ConfigurationEvaluator(base, queries)
    budget = AdvisorParameters(disk_budget_bytes=48 * 1024.0)
    advisor = XmlIndexAdvisor(base, budget)
    assert advisor.recommend(workload).configuration.definitions
    configuration = IndexConfiguration([
        IndexDefinition.create("/site/people/person/@id", ValueType.VARCHAR),
        IndexDefinition.create("/site/regions/*/item/quantity", ValueType.DOUBLE),
        IndexDefinition.create("//item/payment", ValueType.VARCHAR),
    ])
    before = evaluator.evaluate(configuration)
    assert before.query_evaluations

    from repro.xmldb.serializer import serialize

    collection = base.collection("xmark")
    rng = random.Random(99)
    for document in donor.collection("xmark").documents[:5]:
        collection.add_document(serialize(document))
        if len(collection) > 3 and rng.random() < 0.4:
            collection.remove_document(rng.randrange(len(collection)))

        rebuilt = _rebuilt(base)
        maintained = evaluator.evaluate(configuration)  # auto-refreshes
        reference = ReferenceEvaluator(rebuilt, queries).evaluate(configuration)
        assert maintained.total_benefit == reference.total_benefit
        assert maintained.total_size_bytes == reference.total_size_bytes
        by_id = {row.query_id: row for row in reference.rows}
        for row in maintained.query_evaluations:
            assert row.cost_without_indexes == by_id[row.query_id].cost_without_indexes
            assert row.cost_with_configuration == by_id[row.query_id].cost_with_configuration
            assert row.used_index_keys == by_id[row.query_id].used_index_keys

        cached = advisor.recommend(workload)
        scratch = XmlIndexAdvisor(rebuilt, budget).recommend(workload)
        assert [d.key for d in cached.configuration] \
            == [d.key for d in scratch.configuration]
        assert cached.total_benefit == scratch.total_benefit
        assert cached.total_size_bytes == scratch.total_size_bytes


class TestExecutorMaintenance:
    def _database_with_executor(self):
        database = build_varied_database(documents=24, name="exec-maint")
        executor = QueryExecutor(database)
        definition = IndexDefinition.create("/site/regions/*/item/quantity",
                                            ValueType.DOUBLE)
        executor.create_indexes([definition])
        return database, executor, definition

    def test_catchup_uses_deltas_not_rebuilds(self):
        database, executor, definition = self._database_with_executor()
        query = "/site/regions/*/item[quantity > 90]"
        executor.execute(query)
        database.collection("site").add_document(TINY_SITE_XML)
        database.collection("site").remove_document(2)
        result = executor.execute(query, extract_values=True)
        assert executor.index_rebuilds == 0
        assert executor.index_delta_maintenances == 1
        # The maintained structure equals a from-scratch build.
        maintained = executor._indexes[definition.key]
        assert maintained.entries == build_physical_index(definition, database).entries
        # And the long-lived executor agrees with one constructed after
        # the writes (its index is a from-scratch build).
        fresh = QueryExecutor(database)
        fresh.create_indexes([definition])
        reference = fresh.execute(query, extract_values=True)
        assert reference.used_index_plan and result.used_index_plan
        assert (fresh.index_rebuilds, fresh.index_delta_maintenances) == (0, 0)
        assert (result.result_count, result.extracted_values) \
            == (reference.result_count, reference.extracted_values)
        # PR 10: maintenance counters are registry-backed views now.
        assert_counter_parity(executor, EXECUTOR_COUNTERS)
        assert_counter_parity(fresh, EXECUTOR_COUNTERS)

    def test_catalog_tracks_staleness(self):
        database, executor, definition = self._database_with_executor()
        name = definition.as_physical().name
        signature = database.data_signature()
        assert database.catalog.index_maintained_signature(name) == signature
        assert database.catalog.stale_physical_indexes(signature) == []
        database.collection("site").add_document(TINY_SITE_XML)
        current = database.data_signature()
        assert database.catalog.stale_physical_indexes(current) == [name]
        executor.execute("/site/regions/*/item[quantity > 90]")
        assert database.catalog.stale_physical_indexes(current) == []

    def test_journal_gap_falls_back_to_rebuild(self):
        database, executor, definition = self._database_with_executor()
        executor.execute("/site/regions/*/item[quantity > 90]")
        database.collection("site").invalidate_statistics()  # breaks the journal
        executor.execute("/site/regions/*/item[quantity > 90]")
        assert executor.index_rebuilds == 1
        assert executor.index_delta_maintenances == 0


class TestDeltaLogCapacity:
    def test_capacity_parameter_flows_to_collections(self):
        database = XmlDatabase("cap", delta_log_capacity=4)
        collection = database.create_collection("c")
        assert collection.delta_log_capacity == 4
        for i in range(6):
            collection.add_document(f"<a><b>{i}</b></a>")
        # Only the last 4 deltas are retained: a consumer at version 1
        # hits the trimmed history, a consumer at version 2 does not.
        assert collection.deltas_since(1) is None
        assert [d.version for d in collection.deltas_since(2)] == [3, 4, 5, 6]

    def test_standalone_collection_capacity(self):
        collection = XmlCollection("c", delta_log_capacity=2)
        for i in range(5):
            collection.add_document(f"<a><b>{i}</b></a>")
        assert collection.deltas_since(2) is None
        assert [d.version for d in collection.deltas_since(3)] == [4, 5]

    def test_larger_capacity_avoids_journal_gap_rebuild(self):
        """A consumer that falls behind by more deltas than the journal
        retains must rebuild; a larger configured capacity bridges the
        same gap through delta catch-up instead."""
        outcomes = {}
        for label, capacity in (("small", 8), ("large", 128)):
            database = XmlDatabase(f"cap-{label}", delta_log_capacity=capacity)
            collection = database.create_collection("site")
            collection.add_document(TINY_SITE_XML)
            executor = QueryExecutor(database)
            definition = IndexDefinition.create(
                "/site/regions/*/item/quantity", ValueType.DOUBLE)
            executor.create_indexes([definition])
            for _ in range(20):  # beyond the small journal's capacity
                collection.add_document(TINY_SITE_XML)
            executor.execute("/site/regions/*/item[quantity > 5]")
            outcomes[label] = (executor.index_rebuilds,
                               executor.index_delta_maintenances)
        assert outcomes["small"] == (1, 0)  # gap -> rebuild
        assert outcomes["large"] == (0, 1)  # journal bridged the gap


class TestSignatureMemoization:
    def test_signature_cached_until_change(self):
        database = build_varied_database(documents=6, name="sig")
        first = database.data_signature()
        assert database.data_signature() is first  # memoized object
        database.collection("site").add_document(TINY_SITE_XML)
        second = database.data_signature()
        assert second != first
        assert database.data_signature() is second

    def test_create_collection_invalidates(self):
        database = XmlDatabase("sig2")
        first = database.data_signature()
        database.create_collection("fresh")
        assert database.data_signature() != first

    def test_direct_collection_mutation_detected(self):
        database = XmlDatabase("sig3")
        collection = database.create_collection("c")
        before = database.data_signature()
        collection.add_document("<a/>")  # not via database.add_document
        assert database.data_signature() != before


class TestDataChangeTracker:
    def test_poll_reports_nothing_without_change(self):
        database = build_varied_database(documents=6, name="tracker-idle")
        tracker = DataChangeTracker(database)
        assert tracker.poll() is None

    def test_net_zero_batch_has_no_changed_paths(self):
        """Add-then-remove of the same document moves the signature but
        leaves the synopsis identical: the tracker must report the
        churn with an empty changed-path set and stable aggregates."""
        database = build_varied_database(documents=6, name="tracker-zero")
        tracker = DataChangeTracker(database)
        collection = database.collection("site")
        document = collection.add_document(TINY_SITE_XML)
        collection.remove_document(document.doc_id)
        change = tracker.poll()
        assert change is not None
        assert change.changed_collections == {"site"}
        assert change.changed_paths == frozenset()
        assert not change.aggregates_changed

    def test_document_add_changes_aggregates_and_paths(self):
        database = build_varied_database(documents=6, name="tracker-add")
        tracker = DataChangeTracker(database)
        database.collection("site").add_document("<site><zzz>1</zzz></site>")
        change = tracker.poll()
        assert change.aggregates_changed
        assert "/site/zzz" in change.changed_paths
        assert tracker.poll() is None  # absorbed


class TestFineGrainedInvalidation:
    def _workload(self):
        workload = Workload(name="fg")
        workload.add("/site/regions/africa/item[quantity > 5]", frequency=2.0)
        workload.add("/site/people/person[name = 'Alice']")
        return normalize_workload(workload)

    def test_runstats_churn_preserves_evaluator_state(self):
        """invalidate_statistics bumps every version but recollects an
        identical synopsis: fine-grained invalidation must keep every
        cached row."""
        database = build_varied_database(documents=12, name="fg-runstats")
        queries = self._workload()
        evaluator = ConfigurationEvaluator(database, queries)
        index = IndexDefinition.create("/site/regions/africa/item/quantity",
                                       ValueType.DOUBLE)
        evaluator.evaluate(IndexConfiguration([index]))
        cached_rows = len(evaluator._query_cache)
        assert cached_rows
        database.runstats()  # signature moves, synopsis does not
        assert evaluator.refresh()  # change detected...
        assert len(evaluator._query_cache) == cached_rows  # ...nothing evicted
        assert evaluator.rows_preserved_on_refresh == cached_rows

    def test_runstats_churn_preserves_plan_cache(self):
        database = build_varied_database(documents=12, name="fg-plans")
        queries = self._workload()
        evaluator = ConfigurationEvaluator(database, queries)
        index = IndexDefinition.create("/site/regions/africa/item/quantity",
                                       ValueType.DOUBLE)
        evaluator.evaluate(IndexConfiguration([index]))
        optimizer = evaluator.optimizer
        plans_before = optimizer.plan_calls
        database.runstats()
        evaluator.evaluate(IndexConfiguration([index]))
        # Every what-if plan came from the preserved cache.
        assert optimizer.plan_calls == plans_before
        assert optimizer.plan_cache_evictions == 0

    def test_document_add_recosts_everything_exactly(self):
        """Aggregates moved: the guard must re-cost all queries -- and
        the result must equal a freshly constructed evaluator's."""
        database = build_varied_database(documents=12, name="fg-add")
        queries = self._workload()
        evaluator = ConfigurationEvaluator(database, queries)
        index = IndexDefinition.create("/site/regions/africa/item/quantity",
                                       ValueType.DOUBLE)
        configuration = IndexConfiguration([index])
        evaluator.evaluate(configuration)
        database.collection("site").add_document(TINY_SITE_XML)
        maintained = evaluator.evaluate(configuration)
        reference = ConfigurationEvaluator(
            database, queries).evaluate(configuration)
        assert maintained.total_benefit == reference.total_benefit
        rows = {r.query_id: r for r in reference.query_evaluations}
        for row in maintained.query_evaluations:
            assert row.cost_with_configuration == \
                rows[row.query_id].cost_with_configuration

    def test_update_recosts_rows_staled_via_index_pattern_only(self):
        """Regression: an aggregate-neutral change can move the
        statistics of paths an index pattern matches without touching
        the query's own predicate pattern (here: byte-identical swaps
        widen the numeric range under ``//item/*`` through the *price*
        leaves while the quantity predicate's path is untouched).  The
        delta-update row-reuse gate must widen through the relevance
        map, or update() reuses a stale row and diverges from
        evaluate()."""
        def make_doc(d, price=None):
            items = "".join(
                f"<item><quantity>{(d * 13 + k * 7) % 100 + 10:03d}</quantity>"
                f"<price>{price or f'{(d * 17 + k * 29) % 90 + 10:02d}'}</price>"
                f"</item>" for k in range(5))
            return f"<site><region>{items}</region></site>"

        database = XmlDatabase("fg-idx-stale")
        collection = database.create_collection("c")
        for d in range(120):
            collection.add_document(make_doc(d))
        workload = Workload(name="w")
        workload.add("/site/region/item[quantity > 105]")
        queries = normalize_workload(workload)
        evaluator = ConfigurationEvaluator(database, queries)
        index = IndexDefinition.create("//item/*", ValueType.DOUBLE)
        base = evaluator.evaluate(IndexConfiguration([index]))

        # Byte-neutral swaps: every doc keeps its quantities, prices
        # collapse to '05' (same width, new global //item/* minimum).
        quantity = PathPattern.parse("/site/region/item/quantity")
        for _ in range(len(collection)):
            quantities = [node.typed_value() for node in
                          collection.columnar_store.nodes_for_pattern(
                              quantity, 0)]
            collection.remove_document(0)
            items = "".join(
                f"<item><quantity>{q}</quantity><price>05</price></item>"
                for q in quantities)
            collection.add_document(f"<site><region>{items}</region></site>")

        delta = evaluator.update(base)
        assert evaluator._last_stale == frozenset({"w-q1"})
        reference = ReferenceEvaluator(database, queries).evaluate(
            base.configuration)
        # The scenario is meaningful: the pre-change row is wrong now.
        assert base.query_evaluations[0].cost_with_configuration \
            != reference.rows[0].cost_with_configuration
        assert delta.total_benefit == reference.total_benefit
        assert delta.query_evaluations[0].cost_with_configuration \
            == reference.rows[0].cost_with_configuration

    def test_delta_update_across_change_matches_full(self):
        """update() against a base from the immediately preceding epoch
        re-costs only the staled rows -- and still matches evaluate()."""
        database = build_varied_database(documents=12, name="fg-update")
        queries = self._workload()
        evaluator = ConfigurationEvaluator(database, queries)
        index = IndexDefinition.create("/site/regions/africa/item/quantity",
                                       ValueType.DOUBLE)
        base = evaluator.evaluate(IndexConfiguration())
        database.runstats()  # epoch bump with an empty stale set
        delta = evaluator.update(base, add=[index])
        assert evaluator.delta_evaluations == 1  # not forced to full
        full = ConfigurationEvaluator(
            database, queries).evaluate(IndexConfiguration([index]))
        assert delta.total_benefit == pytest.approx(full.total_benefit)


class TestOrderedExtraction:
    def _database(self):
        return build_varied_database(documents=30, name="extract")

    def test_scan_extraction_is_document_ordered(self):
        database = self._database()
        executor = QueryExecutor(database)
        # Multi-path pattern: regions/*/item/name spans several distinct
        # paths, which the store merges into document order.
        result = executor.execute("/site/regions/*/item/name", extract=True)
        assert result.extracted_count > 0
        nodes = result.extracted_nodes
        doc_of = {}
        for collection in database.collections:
            for document in collection:
                for node in document.descendants():
                    doc_of[id(node)] = document.doc_id
        last = (-1, -1)
        for node in nodes:
            key = (doc_of[id(node)], node.node_id)
            assert key > last, "extraction not in document order"
            last = key

    def test_extraction_matches_interpretive_order(self):
        database = self._database()
        engine_results = QueryExecutor(database).execute(
            "/site/regions/*/item/name", extract=True)
        interpreter_results = QueryExecutor(database, use_columnar=False).execute(
            "/site/regions/*/item/name", extract=True)
        assert [n.node_id for n in engine_results.extracted_nodes] \
            == [n.node_id for n in interpreter_results.extracted_nodes]

    def test_index_plan_extraction_ordered(self):
        database = self._database()
        executor = QueryExecutor(database)
        definition = IndexDefinition.create("/site/regions/*/item/quantity",
                                            ValueType.DOUBLE)
        executor.create_indexes([definition])
        result = executor.execute("/site/regions/*/item[quantity > 90]",
                                  extract=True)
        assert result.used_index_plan
        assert result.extracted_count >= result.result_count
        scan = QueryExecutor(database)
        scan.drop_all_indexes()
        reference = scan.execute("/site/regions/*/item[quantity > 90]",
                                 extract=True)
        assert not reference.used_index_plan
        assert [n.node_id for n in result.extracted_nodes] \
            == [n.node_id for n in reference.extracted_nodes]

    def test_execute_without_extract_keeps_result_lean(self):
        executor = QueryExecutor(self._database())
        result = executor.execute("/site/regions/*/item/name")
        assert result.extracted_nodes is None
        assert result.extracted_count == 0

    def test_index_plan_extraction_follows_collection_insertion_order(self):
        """Regression: with collections created in non-alphabetical
        order, index-plan extraction must emit documents in the same
        (collection insertion, doc id) order the scan path visits, not
        sorted by collection name."""
        def load(collection, seed):
            for d in range(30):
                items = "".join(
                    f"<item><quantity>{(seed + d * 13 + k * 7) % 100 + 1}"
                    f"</quantity><name>thing {d} {k}</name>"
                    f"<payment>Cash</payment><location>Egypt</location>"
                    f"</item>" for k in range(5))
                collection.add_document(f"<site><region>{items}</region></site>")

        database = XmlDatabase("order-extract")
        load(database.create_collection("zeta"), 3)
        load(database.create_collection("alpha"), 5)
        executor = QueryExecutor(database)
        definition = IndexDefinition.create("/site/region/item/quantity",
                                            ValueType.DOUBLE)
        executor.create_indexes([definition])
        query = "/site/region/item[quantity > 92]"
        indexed = executor.execute(query, extract=True)
        assert indexed.used_index_plan
        scan = QueryExecutor(database)
        scan.drop_all_indexes()
        reference = scan.execute(query, extract=True)
        assert not reference.used_index_plan
        assert indexed.extracted_nodes == reference.extracted_nodes
