"""Tests for a collection's structural store as a path summary.

Each collection keeps one structural representation, its
:class:`~repro.storage.columnar.ColumnarStore` (still reachable as
``XmlCollection.path_summary``).  Covers:

* the store as a path-to-nodes lookup: construction, pattern lookups,
  document-ordered results and the collection-level invalidation
  contract;
* node-set equivalence between
  :meth:`~repro.storage.columnar.ColumnarStore.nodes_for_pattern` and
  the interpretive :class:`~repro.xpath.evaluator.XPathEvaluator` per
  document, across hand-written, XMark and synthetic workload paths
  (the property the executor's engine relies on);
* statistics collected from the store matching the delta-maintained
  synopsis;
* executor behaviour: engine scans vs. interpretive scans, and physical
  index builds sourced from the store.
"""

from __future__ import annotations

from _support import TINY_SITE_XML, build_varied_database
from repro.executor.executor import QueryExecutor
from repro.index.definition import IndexDefinition
from repro.storage import XmlDatabase
from repro.storage.columnar import build_columnar_store
from repro.storage.statistics import collect_statistics
from repro.workloads.synthetic import SyntheticWorkloadGenerator
from repro.xmldb import parse_document
from repro.xpath.errors import XPathParseError
from repro.xpath.evaluator import XPathEvaluator
from repro.xpath.patterns import PathPattern
from repro.xquery.model import ValueType
from repro.xquery.normalizer import normalize_workload


# ----------------------------------------------------------------------
# The store as a path summary
# ----------------------------------------------------------------------
class TestPathSummary:
    def test_build_counts_and_paths(self, tiny_document):
        store = build_columnar_store([tiny_document])
        assert store.document_count == 1
        assert "/site/regions/africa/item" in store.distinct_paths
        assert "/site/people/person/@id" in store.distinct_paths
        assert "/site/nowhere" not in store.distinct_paths
        # 3 items, 2 of them in africa.
        assert len(store.nodes_for_pattern(
            PathPattern.parse("/site/regions/africa/item"))) == 2
        assert store.node_count == sum(
            1 + len(element.attributes)
            for element in tiny_document.descendant_elements())

    def test_pattern_lookup_with_wildcards_and_descendants(self, tiny_document):
        store = build_columnar_store([tiny_document])
        items = store.nodes_for_pattern(PathPattern.parse("/site/regions/*/item"))
        assert len(items) == 3
        ids = store.nodes_for_pattern(PathPattern.parse("//@id"))
        assert sorted(n.value for n in ids) == ["i1", "i2", "i3", "p1", "p2"]
        assert len(store.nodes_for_pattern(PathPattern.parse("//item"))) == 3

    def test_per_document_lookup_and_document_ids(self):
        database = XmlDatabase("t")
        collection = database.create_collection("site")
        collection.add_document(parse_document(TINY_SITE_XML))
        collection.add_document(parse_document("<site><people/></site>"))
        store = collection.columnar_store
        pattern = PathPattern.parse("//item")
        assert store.documents_with_match(pattern) == {0}
        assert store.nodes_for_pattern(pattern, doc_id=1) == []
        assert store.nodes_for_pattern(pattern, doc_id=0)

    def test_collection_invalidates_summary_on_add_and_remove(self):
        database = XmlDatabase("t")
        collection = database.create_collection("site")
        collection.add_document(parse_document(TINY_SITE_XML))
        first = collection.columnar_store
        assert collection.columnar_store is first  # cached
        # The old name is the same object, not a second structure.
        assert collection.path_summary is collection.columnar_store
        version = collection.version
        collection.add_document(parse_document(TINY_SITE_XML))
        assert collection.version > version
        second = collection.columnar_store
        assert second is not first
        assert second.document_count == 2
        collection.remove_document(0)
        assert collection.columnar_store.document_count == 1

    def test_invalidate_statistics_also_drops_summary(self):
        database = XmlDatabase("t")
        collection = database.create_collection("site")
        collection.add_document(parse_document(TINY_SITE_XML))
        first = collection.columnar_store
        collection.invalidate_statistics()
        assert collection.columnar_store is not first

    def test_describe_mentions_counts(self, tiny_document):
        store = build_columnar_store([tiny_document])
        text = store.describe()
        assert f"{len(store.distinct_paths)} paths" in text
        assert "1 document(s)" in text

    def test_ordered_pattern_lookup_is_in_document_order(self):
        """Multi-path pattern lookups with ordered=True merge the per-path
        postings: the result is exactly document order, per document,
        across every distinct path the pattern matches."""
        database = XmlDatabase("t")
        collection = database.create_collection("site")
        collection.add_document(parse_document(TINY_SITE_XML))
        collection.add_document(parse_document(TINY_SITE_XML))
        store = collection.columnar_store
        # '//@id' matches both item/@id and person/@id -- two distinct
        # paths whose nodes interleave in document order.
        pattern = PathPattern.parse("//@id")
        assert sum(1 for path in store.distinct_paths
                   if pattern.matches_evaluator(path)) > 1
        def doc_of(node):
            return list(node.ancestors(include_self=True))[-1].doc_id

        ordered = store.nodes_for_pattern(pattern, ordered=True)
        keys = [(doc_of(node), node.node_id) for node in ordered]
        assert keys == sorted(keys)
        # Same node set as the unordered (grouped-by-path) lookup.
        unordered = store.nodes_for_pattern(pattern)
        assert {id(n) for n in ordered} == {id(n) for n in unordered}
        # Per-document lookup is ordered too.
        for doc_id in (0, 1):
            per_doc = store.nodes_for_pattern(pattern, doc_id=doc_id,
                                              ordered=True)
            ids = [node.node_id for node in per_doc]
            assert ids == sorted(ids) and ids

    def test_ordered_lookup_single_path_unchanged(self, tiny_document):
        store = build_columnar_store([tiny_document])
        pattern = PathPattern.parse("/site/regions/africa/item")
        assert store.nodes_for_pattern(pattern, ordered=True) == \
            store.nodes_for_pattern(pattern)

    def test_compiled_lookup_serves_ordered_extraction(self):
        """nodes_for_pattern(ordered=True) returns one document's
        matches in document order, matching the interpreter's order."""
        database = XmlDatabase("t")
        collection = database.create_collection("site")
        document = collection.add_document(parse_document(TINY_SITE_XML))
        nodes = collection.columnar_store.nodes_for_pattern(
            PathPattern.parse("//@id"), document.doc_id, ordered=True)
        interpreted = XPathEvaluator(document).select_nodes("//@id")
        assert [n.node_id for n in nodes] == [n.node_id for n in interpreted]


# ----------------------------------------------------------------------
# Statistics share the store's traversal
# ----------------------------------------------------------------------
class TestStatisticsFromSummary:
    def test_summary_statistics_match_direct_collection(self):
        """Statistics collected from a store equal the synopsis a
        collection maintains document by document through deltas."""
        texts = [TINY_SITE_XML,
                 "<site><people><person id='x'>"
                 "<name>Zoe</name></person></people></site>"]
        direct = collect_statistics(parse_document(text) for text in texts)
        database = XmlDatabase("t")
        collection = database.create_collection("site")
        collection.add_document(texts[0])
        assert collection.statistics.document_count == 1  # prime the deltas
        collection.add_document(texts[1])
        via_deltas = collection.statistics
        assert direct.document_count == via_deltas.document_count
        assert direct.total_node_count == via_deltas.total_node_count
        assert direct.total_element_count == via_deltas.total_element_count
        assert direct.total_text_bytes == via_deltas.total_text_bytes
        assert direct.path_stats == via_deltas.path_stats

    def test_collection_statistics_derived_from_store(self, xmark_database):
        for collection in xmark_database.collections:
            stats = collection.statistics
            store = collection.columnar_store
            assert stats.document_count == store.document_count
            assert stats.total_node_count == \
                store.node_count + store.document_count
            assert set(stats.path_stats) == set(store.distinct_paths)


# ----------------------------------------------------------------------
# Store-vs-interpreter node-set equivalence (the core property)
# ----------------------------------------------------------------------
def _assert_equivalent(database, expressions):
    """Every linear expression (one that parses as an index pattern)
    selects the same nodes from the store as from the interpreter, per
    document; non-linear ones (predicates, ``text()``) have no store
    answer and are skipped."""
    patterns = {}
    for text in expressions:
        try:
            patterns[text] = PathPattern.parse(text)
        except XPathParseError:
            continue
    checked = 0
    for collection in database.collections:
        store = collection.columnar_store
        for document in collection:
            evaluator = XPathEvaluator(document)
            for text, pattern in patterns.items():
                got = {id(n) for n in store.nodes_for_pattern(
                    pattern, document.doc_id)}
                want = {id(n) for n in evaluator.select_nodes(text)}
                assert got == want, (text, document.doc_id)
                checked += 1
    assert checked > 0


HAND_EXPRESSIONS = [
    "/site/people/person/@id",
    "/site/regions/*/item",
    "/site/regions/africa/item[quantity > 5]",
    "//keyword",
    "//@id",
    "//item/name/text()",
    "/site//item/payment",
    "//regions//item",
    "/site/people/person[profile/@income >= 42000]",
    "/a//a",                      # step matching its own context
    "//person[@id = \"p1\"]/name",  # inner predicate: no store answer
]


def test_compiled_equivalence_tiny(tiny_database):
    _assert_equivalent(tiny_database, HAND_EXPRESSIONS)


def test_compiled_equivalence_xmark_workload(xmark_database, xmark_workload):
    expressions = set(HAND_EXPRESSIONS)
    for query in normalize_workload(xmark_workload):
        for predicate in query.predicates:
            expressions.add(predicate.pattern.to_text())
        for pattern in query.extraction_paths:
            expressions.add(pattern.to_text())
    _assert_equivalent(xmark_database, sorted(expressions))


def test_compiled_equivalence_synthetic_workload():
    database = build_varied_database(documents=20, name="synth-equiv")
    workload = SyntheticWorkloadGenerator(database, seed=5).generate(
        12, predicates_per_query=2, name="synthetic-equivalence")
    expressions = set()
    for query in normalize_workload(workload):
        for predicate in query.predicates:
            expressions.add(predicate.pattern.to_text())
        for pattern in query.extraction_paths:
            expressions.add(pattern.to_text())
    assert expressions
    _assert_equivalent(database, sorted(expressions))


# ----------------------------------------------------------------------
# Executor integration
# ----------------------------------------------------------------------
class TestExecutorSummaryEngine:
    QUERY = ('for $i in doc("x")/site/regions/africa/item '
             'where $i/quantity > 90 return $i/name')

    def test_summary_and_legacy_scans_agree(self, xmark_database, xmark_workload):
        queries = [q for q in normalize_workload(xmark_workload)
                   if not q.is_update]
        engine_results = QueryExecutor(xmark_database).execute_workload(queries)
        interpreter_results = QueryExecutor(
            xmark_database, use_columnar=False).execute_workload(queries)
        for engine, interpreter in zip(engine_results, interpreter_results):
            assert engine.result_count == interpreter.result_count
            assert engine.documents_examined == interpreter.documents_examined

    def test_summary_index_build_matches_legacy_entries(self):
        from repro.index.physical import build_physical_index

        database = build_varied_database(documents=15, name="idx-equiv")
        definition = IndexDefinition.create("/site/regions/*/item/quantity",
                                            ValueType.DOUBLE)
        index = build_physical_index(definition, database)
        # Reference: brute-force walk of every document.
        expected = []
        for collection in database.collections:
            for document in collection:
                for element in document.descendant_elements():
                    if definition.pattern.matches(element.simple_path()):
                        key = element.double_value()
                        if key is not None:
                            expected.append((key, collection.name,
                                             document.doc_id, element.node_id))
        got = [(e.key, e.collection, e.doc_id, e.node_id)
               for e in index.entries]
        assert sorted(got) == sorted(expected)

    def test_index_plan_sees_documents_added_after_construction(self):
        database = build_varied_database(documents=10, name="stale-lookup")
        executor = QueryExecutor(database)
        # A document added *after* the executor was constructed...
        late = parse_document(TINY_SITE_XML.replace('id="p1"', 'id="p777"'))
        database.collection("site").add_document(late)
        executor.create_indexes([
            IndexDefinition.create("/site/people/person/@id", ValueType.VARCHAR)])
        query = ('for $p in doc("x")/site/people/person '
                 'where $p/@id = "p777" return $p/name')
        result = executor.execute(query)
        # ...must be found by the index plan (the lookup refreshes itself).
        assert result.used_index_plan
        assert result.result_count == 1

    def test_index_built_before_add_is_rebuilt_on_execute(self):
        # Regression: a physical index materialized *before* a document
        # was added must be rebuilt, not just the doc lookup refreshed —
        # otherwise the index plan silently misses the new document.
        database = build_varied_database(documents=10, name="stale-index")
        executor = QueryExecutor(database)
        executor.create_indexes([
            IndexDefinition.create("/site/people/person/@id", ValueType.VARCHAR)])
        late = parse_document(TINY_SITE_XML.replace('id="p1"', 'id="p888"'))
        database.collection("site").add_document(late)
        query = ('for $p in doc("x")/site/people/person '
                 'where $p/@id = "p888" return $p/name')
        result = executor.execute(query)
        assert result.used_index_plan
        assert result.result_count == 1

    def test_scan_sees_documents_added_after_construction(self):
        database = build_varied_database(documents=5, name="stale-scan")
        executor = QueryExecutor(database)
        before = executor.execute(self.QUERY).documents_examined
        database.collection("site").add_document(parse_document(TINY_SITE_XML))
        after = executor.execute(self.QUERY).documents_examined
        assert after == before + 1
