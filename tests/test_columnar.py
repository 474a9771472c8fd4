"""Columnar pre/post encoding (PR 8): the XPath-accelerator backend.

Four contracts are covered:

* **encoding** -- the pre/post plane invariant (descendant iff interval
  containment), document-order positions, and the axis engine's
  step-wise evaluation agreeing with the path-determinism shortcut;
* **maintenance** -- delta-maintained stores byte-identical to full
  rebuilds across randomized interleaved adds/removes (the
  ``PhysicalPathIndex.apply_collection_delta`` contract);
* **equivalence** -- identical results and extraction streams from the
  columnar engine and the per-document interpreter a degraded store
  falls back to (``use_columnar=False``), index structures equal to an
  interpreter walk of the documents, with zero interpretive spine
  fallbacks on the columnar path (descendant-heavy ``//`` queries
  included), and the PR 8 routing-shrink regression on a co-resident
  XMark+TPoX database;
* **sizing** -- ``ColumnarStore.nbytes`` equal to the statistics-derived
  ``DatabaseStatistics.columnar_bytes`` (what the advisor's size
  reports and the tuning controller's build budget consult).

The runtime-freeze and fault-smoke coverage runs the same protocol in a
subprocess with ``REPRO_FREEZE_SNAPSHOTS=1`` / ``REPRO_FAULTS=smoke``.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from _support import (
    EXECUTOR_COUNTERS,
    assert_counter_parity,
    build_varied_database,
)
from repro.advisor.advisor import XmlIndexAdvisor
from repro.advisor.config import AdvisorParameters
from repro.executor.executor import QueryExecutor
from repro.faults import FaultPlan, FaultRule, inject
from repro.index.definition import IndexDefinition
from repro.index.physical import build_physical_index
from repro.optimizer.optimizer import Optimizer
from repro.storage.columnar import (
    COLUMNAR_NODE_BYTES,
    KIND_ATTRIBUTE,
    build_columnar_store,
)
from repro.storage.document_store import XmlDatabase
from repro.workloads.tpox import (
    TpoxConfig,
    generate_tpox_database,
    tpox_query_workload,
)
from repro.workloads.xmark import (
    XMarkConfig,
    generate_xmark_database,
    xmark_query_workload,
)
from repro.xmldb.nodes import normalized_node_value
from repro.xmldb.serializer import serialize
from repro.xpath.evaluator import XPathEvaluator
from repro.xpath.parser import parse_xpath
from repro.xpath.patterns import PathPattern
from repro.xquery.model import ValueType, Workload
from repro.xquery.normalizer import normalize_statement, normalize_workload

TESTS = str(Path(__file__).parent)
SRC = str(Path(__file__).parent.parent / "src")

#: Linear spines exercised against the store -- plain shapes and the
#: ``//`` shapes whose step can match its own context (``/site//*``
#: selects ``/site`` under descendant-or-self semantics).
SPINES = [
    "/site/regions/africa/item",
    "/site/regions/*/item/name",
    "/site/people/person/@id",
    "//item/payment",
    "//name",
    "/site//*",
    "/site/regions//*",
    "//site//*",
    "/site//item//name",
    "//*/@id",
]

#: Descendant-heavy navigation statements for executor equivalence.
UNSAFE_QUERIES = ["/site//*", "/site/regions//*", "/site//item//name",
                  "/FIXML//*", "//Order//*"]


def _coresident_database(xmark_scale: float = 0.03, tpox_scale: float = 0.05,
                         seed: int = 42, name: str = "col-co") -> XmlDatabase:
    database = XmlDatabase(name)
    sources = (generate_xmark_database(XMarkConfig(scale=xmark_scale, seed=seed)),
               generate_tpox_database(TpoxConfig(scale=tpox_scale, seed=seed + 1)))
    for source in sources:
        for collection in source.collections:
            target = database.create_collection(collection.name)
            for document in collection:
                target.add_document(serialize(document))
    return database


def _interpreter_nodes(document, text: str):
    return XPathEvaluator(document).select_nodes(parse_xpath(text))


class TestEncoding:
    def test_columns_are_pre_sorted_and_document_ordered(self):
        database = build_varied_database(documents=8, name="col-enc")
        store = database.collection("site").columnar_store
        assert list(store.pre) == list(range(store.node_count))
        node_ids = [store.node_at(p).node_id for p in range(store.node_count)]
        for start, end in store._doc_bounds:
            slab = node_ids[start:end]
            assert slab == sorted(slab)  # position order is document order
        # Every stored node consumes one pre and one post.
        assert sorted(store.post) == list(range(store.node_count))

    def test_pre_post_plane_invariant(self):
        database = build_varied_database(documents=4, name="col-plane")
        store = database.collection("site").columnar_store

        def is_ancestor(v, u):
            node = store.node_at(u).parent
            target = store.node_at(v)
            while node is not None:
                if node is target:
                    return True
                node = node.parent
            return False

        for v in range(store.node_count):
            for u in range(store.node_count):
                if u == v:
                    continue
                plane = store.pre[v] < store.pre[u] and \
                    store.post[u] < store.post[v]
                interval = v < u < store.sub[v]
                assert plane == interval == is_ancestor(v, u), (v, u)

    def test_select_positions_agrees_with_pattern_lookup(self):
        database = build_varied_database(documents=6, name="col-axis")
        store = database.collection("site").columnar_store
        for text in SPINES:
            pattern = PathPattern.parse(text)
            positions = list(store.select_positions(pattern))
            assert positions == sorted(positions), text  # document order
            structural = [store.node_at(p).node_id for p in positions]
            shortcut = sorted(node.node_id for node in
                              store.nodes_for_pattern(pattern))
            assert sorted(structural) == shortcut, text

    def test_lookup_matches_interpreter_per_document(self):
        database = build_varied_database(documents=6, name="col-interp")
        collection = database.collection("site")
        store = collection.columnar_store
        for text in SPINES:
            pattern = PathPattern.parse(text)
            for doc_id, document in enumerate(collection):
                expected = sorted(node.node_id for node in
                                  _interpreter_nodes(document, text))
                got = [node.node_id for node in
                       store.nodes_for_pattern(pattern, doc_id, ordered=True)]
                assert got == sorted(got), text
                assert sorted(got) == expected, (text, doc_id)

    def test_axis_primitives(self):
        database = build_varied_database(documents=2, name="col-prim")
        store = database.collection("site").columnar_store
        for position in range(store.node_count):
            if store.kind[position] == KIND_ATTRIBUTE:
                continue
            node = store.node_at(position)
            lo, hi = store.descendant_interval(position)
            assert (lo, hi) == (position + 1, store.sub[position])
            attrs = [store.node_at(p).node_id
                     for p in store.attribute_positions(position)]
            assert attrs == [a.node_id for a in node.attributes]
            children = [store.node_at(p).node_id
                        for p in store.child_element_positions(position)]
            assert children == [c.node_id for c in node.children
                                if c.kind.name == "ELEMENT"]


class TestMaintenance:
    @pytest.mark.parametrize("seed", [3, 17])
    def test_randomized_delta_maintenance_byte_identical(self, seed):
        database = build_varied_database(documents=6, name=f"col-delta-{seed}")
        collection = database.collection("site")
        donor = build_varied_database(documents=10, name="col-donor")
        reserve = [serialize(d) for d in donor.collection("site").documents]
        assert collection.columnar_store is not None  # force + maintain
        rng = random.Random(seed * 7)
        patterns = [PathPattern.parse(text) for text in SPINES]
        for step in range(14):
            if reserve and (len(collection) < 2 or rng.random() < 0.6):
                collection.add_document(reserve.pop())
            else:
                collection.remove_document(rng.randrange(len(collection)))
            maintained = collection.columnar_store
            rebuilt = build_columnar_store(collection.documents)
            assert maintained.canonical_state() == rebuilt.canonical_state(), step
            pattern = rng.choice(patterns)
            assert [n.node_id for n in
                    maintained.nodes_for_pattern(pattern, ordered=True)] == \
                [n.node_id for n in rebuilt.nodes_for_pattern(pattern,
                                                              ordered=True)]

    def test_append_only_contract(self):
        store = build_columnar_store([])
        with pytest.raises(ValueError, match="appends"):
            store.add_document(None, doc_key=5)


class TestSizing:
    def test_nbytes_matches_statistics(self):
        database = _coresident_database()
        merged = database.statistics
        total = 0.0
        for collection in database.collections:
            store = collection.columnar_store
            stats = merged.collection_stats[collection.name]
            assert store.nbytes == stats.columnar_bytes, collection.name
            total += store.nbytes
        assert merged.columnar_bytes == total
        assert merged.columnar_bytes > 0
        # 5 x 8-byte columns + 1-byte kind + postings slot + the value
        # projection's permutation slot.
        assert COLUMNAR_NODE_BYTES == 57

    def test_recommendation_reports_base_footprint(self):
        database = build_varied_database(documents=20, name="col-size")
        workload = Workload(name="col-size")
        workload.add("/site/regions/africa/item[quantity > 5]")
        advisor = XmlIndexAdvisor(
            database, AdvisorParameters(disk_budget_bytes=64 * 1024.0))
        recommendation = advisor.recommend(workload)
        assert recommendation.base_columnar_bytes == \
            database.statistics.columnar_bytes
        assert "columnar base storage" in recommendation.describe()


class TestExecutorEquivalence:
    def test_unsafe_spines_run_columnar_without_fallback(self):
        database = build_varied_database(documents=10, name="col-exec")
        columnar = QueryExecutor(database, use_columnar=True)
        legacy = QueryExecutor(database, use_columnar=False)
        for text in ["/site//*", "/site/regions//*", "/site//item//name"]:
            query = normalize_statement(text)
            a = columnar.execute(query, extract=True)
            b = legacy.execute(query, extract=True)
            assert a.result_count == b.result_count, text
            assert sorted(n.node_id for n in a.extracted_nodes) == \
                sorted(n.node_id for n in b.extracted_nodes), text
        assert columnar.interpretive_spine_fallbacks == 0
        assert legacy.interpretive_spine_fallbacks > 0
        assert columnar.use_columnar and not legacy.use_columnar
        # PR 10: spine-fallback accounting survives the counter migration.
        assert_counter_parity(columnar, EXECUTOR_COUNTERS)
        assert_counter_parity(legacy, EXECUTOR_COUNTERS)

    def test_legacy_interpretive_mode_stays_interpretive(self):
        # ``use_path_summary=False`` (what the E0 checker passes)
        # selects the interpreter: the columnar engine must not
        # silently activate under it.
        database = build_varied_database(documents=4, name="col-legacy")
        executor = QueryExecutor(database, use_path_summary=False)
        assert executor._columnar_for("site") is None
        result = executor.execute("/site/people/person[name = 'Person 1 0']")
        assert result.result_count == 1

    def test_index_builds_byte_identical(self):
        # Oracle: the interpreter's node set per document (no step of
        # these patterns can match its own context, so evaluator and
        # strict index semantics coincide), keyed by the node's
        # normalized value.
        database = _coresident_database()
        for text, value_type in [("//item/payment", ValueType.VARCHAR),
                                 ("/site/regions/*/item/quantity",
                                  ValueType.DOUBLE),
                                 ("/site/people/person/@id", ValueType.VARCHAR),
                                 ("/FIXML/Order/@ID", ValueType.VARCHAR)]:
            definition = IndexDefinition.create(text, value_type).as_physical()
            built = build_physical_index(definition, database)
            expected = []
            for collection in database.collections:
                for document in collection:
                    for node in _interpreter_nodes(document, text):
                        key = normalized_node_value(node)
                        if value_type is ValueType.DOUBLE:
                            try:
                                key = float(key)
                            except ValueError:
                                continue
                        expected.append((key, collection.name,
                                         document.doc_id, node.node_id))
            assert expected, text
            assert sorted((e.key, e.collection, e.doc_id, e.node_id)
                          for e in built.scan()) == sorted(expected), text
            keys = [e.key for e in built.scan()]
            assert keys == sorted(keys)

    def test_routing_shrinks_for_unsafe_queries(self):
        # The routing regression: ``//`` reads whose step can match its own
        # context used to route to *all* collections; with exact
        # descendant-or-self matching the scan only visits the matching
        # ones.
        database = _coresident_database()
        executor = QueryExecutor(database, use_columnar=True)
        query = normalize_statement("/site//*")
        pattern = PathPattern.parse("/site//*")
        assert pattern.matches_evaluator("/site") and not pattern.matches("/site")
        plan = executor.optimizer.optimize(query, candidate_indexes=[])
        assert plan.routing == ("xmark",)
        result = executor.execute(query)
        assert result.documents_examined == len(database.collection("xmark"))
        assert executor.documents_routed_out == sum(
            len(c) for c in database.collections
            if c.name != "xmark")
        assert executor.interpretive_spine_fallbacks == 0

    def test_advisor_pipeline_identical_across_hatch(self):
        database = build_varied_database(documents=40, name="col-adv")
        workload = Workload(name="col-adv")
        workload.add("/site/regions/africa/item[quantity > 5]", frequency=2.0)
        workload.add("/site/people/person[name = 'Person 3 0']")
        workload.add("/site/regions/*/item[price > 400]")
        workload.add("/site//item[payment = 'Cash']")
        advisor = XmlIndexAdvisor(
            database, AdvisorParameters(disk_budget_bytes=64 * 1024.0))
        recommendation = advisor.recommend(workload)
        assert recommendation.configuration.definitions

        outcomes = []
        for use_columnar in (True, False):
            executor = QueryExecutor(database, use_columnar=use_columnar)
            executor.create_indexes(recommendation.configuration)
            rows = []
            for query in normalize_workload(workload):
                result = executor.execute(query, extract=True)
                rows.append((query.query_id, result.result_count,
                             result.used_index_plan,
                             tuple(sorted(n.node_id
                                          for n in result.extracted_nodes))))
            entries = {definition.name:
                       executor._indexes[definition.key].scan()
                       for definition in
                       database.catalog.physical_indexes}
            outcomes.append((rows, entries))
            executor.drop_all_indexes()
        assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize("seed", [11, 29])
    def test_randomized_equivalence_under_change(self, seed):
        database = _coresident_database(xmark_scale=0.02, tpox_scale=0.03,
                                        seed=seed, name=f"col-rand-{seed}")
        donors = {
            "xmark": generate_xmark_database(
                XMarkConfig(scale=0.03, seed=seed + 50)).collection("xmark"),
            "order": generate_tpox_database(
                TpoxConfig(scale=0.04, seed=seed + 60)).collection("order"),
        }
        reserve = {name: [serialize(d) for d in collection.documents]
                   for name, collection in donors.items()}
        statements = [s.text for s in list(xmark_query_workload())
                      + list(tpox_query_workload())]
        queries = [normalize_statement(text)
                   for text in statements + UNSAFE_QUERIES]
        queries = [q for q in queries if not q.is_update]
        columnar = QueryExecutor(database, use_columnar=True)
        legacy = QueryExecutor(database, use_columnar=False)
        rng = random.Random(seed * 13)
        for step in range(8):
            name = rng.choice(list(reserve))
            collection = database.collection(name)
            if reserve[name] and (len(collection) < 2 or rng.random() < 0.65):
                collection.add_document(reserve[name].pop())
            else:
                collection.remove_document(rng.randrange(len(collection)))
            for query in rng.sample(queries, 6):
                a = columnar.execute(query, extract=True)
                b = legacy.execute(query, extract=True)
                assert a.result_count == b.result_count, (step, query.query_id)
                assert a.documents_examined == b.documents_examined
                assert sorted(n.node_id for n in a.extracted_nodes) == \
                    sorted(n.node_id for n in b.extracted_nodes)
        assert columnar.interpretive_spine_fallbacks == 0


class TestDegradedMode:
    def test_persistent_publish_fault_degrades_to_interpreter(self):
        database = build_varied_database(documents=6, name="col-fault")
        executor = QueryExecutor(database)
        # Statistics are collected from the store, so the first
        # ``snapshot.publish`` hit is the planner's statistics build (the
        # executor falls back to an unplanned full scan) and the second
        # is the scan's own store fetch.
        plan = FaultPlan(rules=(FaultRule(site="snapshot.publish",
                                          hits=(1, 2), transient=False),))
        with inject(plan):
            degraded = executor.execute("/site//*", extract_values=True,
                                        trace=True)
        clean = QueryExecutor(database, use_columnar=False).execute(
            "/site//*", extract_values=True)
        assert degraded.result_count == clean.result_count
        assert degraded.extracted_values == clean.extracted_values
        assert any("columnar store" in event
                   for event in executor.fallback_events)
        assert executor.interpretive_spine_fallbacks > 0
        # The span says what ran: the interpreter, not the store.
        assert degraded.trace.find("scan").attrs["engines"] == ["interpreter"]
        # The fault was not published into the cache: the next execution
        # rebuilds the store and runs columnar again.
        after = executor.execute("/site//*", extract_values=True, trace=True)
        assert after.result_count == clean.result_count
        assert after.extracted_values == clean.extracted_values
        assert after.trace.find("scan").attrs["engines"] == ["columnar"]

    def test_smoke_plan_is_invisible(self):
        # Two deterministic clones: the reference run would otherwise
        # publish every snapshot, leaving the smoke plan nothing to hit.
        reference = QueryExecutor(
            build_varied_database(documents=6, name="col-smoke-a"))
        expected = [(reference.execute(text).result_count)
                    for text in SPINES[:6]]
        noisy = QueryExecutor(
            build_varied_database(documents=6, name="col-smoke-b"))
        # Period 2 so the plan fires: only a handful of publications
        # consult the seam before the queries run.
        with inject(FaultPlan.smoke(period=2)) as injector:
            got = [(noisy.execute(text).result_count) for text in SPINES[:6]]
        assert got == expected
        assert injector.injected, "the smoke plan never fired"


class TestFrozenSubprocess:
    def _run(self, extra_env):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([SRC, TESTS])
        env.update(extra_env)
        snippet = """
            from _support import build_varied_database
            from repro.executor.executor import QueryExecutor
            from repro.storage.columnar import build_columnar_store

            database = build_varied_database(documents=5, name="frozen")
            collection = database.collection("site")
            store = collection.columnar_store
            collection.add_document("<site><people><person id='p9'>"
                                    "<name>Zed</name></person></people></site>")
            collection.remove_document(0)
            maintained = collection.columnar_store
            rebuilt = build_columnar_store(collection.documents)
            assert maintained.canonical_state() == rebuilt.canonical_state()
            executor = QueryExecutor(database)
            result = executor.execute("/site//*", extract=True)
            assert result.result_count == len(collection)
            assert executor.interpretive_spine_fallbacks == 0
            print("COLUMNAR-OK", result.extracted_count)
        """
        return subprocess.run([sys.executable, "-c",
                               textwrap.dedent(snippet)],
                              capture_output=True, text=True, env=env)

    def test_runs_under_snapshot_freeze(self):
        completed = self._run({"REPRO_FREEZE_SNAPSHOTS": "1"})
        assert completed.returncode == 0, completed.stderr
        assert "COLUMNAR-OK" in completed.stdout

    def test_runs_under_fault_smoke(self):
        completed = self._run({"REPRO_FAULTS": "smoke",
                               "REPRO_FREEZE_SNAPSHOTS": "1"})
        assert completed.returncode == 0, completed.stderr
        assert "COLUMNAR-OK" in completed.stdout
