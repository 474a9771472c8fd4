"""Collection-scoped cost model + structural routing.

Three contracts are covered:

* **routing sets** -- which collections a query's patterns can match,
  including exact loose-matched routing for ``//`` shapes and empty
  matches;
* **reduction** -- a query routed to collections *S* costs and answers
  exactly as it does on a database that holds only *S* (plans, per-query
  costings, recommendations and result counts), and its answers equal
  the interpreter's (``use_columnar=False``);
* **invalidation** -- cached plans and per-query costings are keyed to
  the routing set's collections: a document add to one collection
  re-costs exactly the queries routed there and **zero** queries routed
  only to the others, byte-identically to a fresh evaluation.

The randomized suite extends the ``tests/test_maintenance.py`` harness
pattern: seeded interleaved change sequences on XMark/TPoX fragments,
checked after every operation against restricted databases and the
interpreter.
"""

from __future__ import annotations

import random

import pytest

from _support import (
    EVALUATOR_COUNTERS,
    EXECUTOR_COUNTERS,
    assert_counter_parity,
    build_varied_database,
)
from reference.advisor_reference import ReferenceEvaluator
from repro.advisor.advisor import XmlIndexAdvisor
from repro.advisor.benefit import ConfigurationEvaluator
from repro.advisor.config import AdvisorParameters
from repro.executor.executor import QueryExecutor
from repro.index.definition import IndexConfiguration, IndexDefinition
from repro.optimizer.optimizer import Optimizer
from repro.storage.document_store import XmlDatabase
from repro.workloads.coresident import build_coresident_database, combined_workload
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
from repro.xmldb.serializer import serialize
from repro.xquery.model import ValueType, Workload, WorkloadStatement
from repro.xquery.normalizer import normalize_statement, normalize_workload


def _coresident_database(xmark_scale: float = 0.03, tpox_scale: float = 0.05,
                         seed: int = 42, name: str = "co") -> XmlDatabase:
    database = XmlDatabase(name)
    sources = (generate_xmark_database(XMarkConfig(scale=xmark_scale, seed=seed)),
               generate_tpox_database(TpoxConfig(scale=tpox_scale, seed=seed + 1)))
    for source in sources:
        for collection in source.collections:
            target = database.create_collection(collection.name)
            for document in collection:
                target.add_document(serialize(document))
    return database


def _restricted(database: XmlDatabase, routing) -> XmlDatabase:
    """A database holding only the collections of ``routing`` (all of
    them for ``None`` or the empty set), documents in the same order."""
    names = set(routing or [collection.name for collection in database.collections])
    restricted = XmlDatabase(f"{database.name}-restricted")
    for collection in database.collections:
        if collection.name in names:
            target = restricted.create_collection(collection.name)
            for document in collection:
                target.add_document(serialize(document))
    return restricted


def _by_routing(database, queries):
    """The queries grouped by their routing set on ``database``."""
    model = Optimizer(database).cost_model
    groups = {}
    for query in queries:
        groups.setdefault(model.routing_set(query), []).append(query)
    return groups


#: Five indexes covering both sides of the co-resident database.
_FIVE_INDEXES = (
    ("/site/people/person/@id", ValueType.VARCHAR),
    ("/site/regions/*/item/quantity", ValueType.DOUBLE),
    ("/FIXML/Order/@ID", ValueType.VARCHAR),
    ("/Security/Symbol", ValueType.VARCHAR),
    ("/Customer/@id", ValueType.VARCHAR),
)


def _five_indexes():
    return IndexConfiguration([IndexDefinition.create(pattern, value_type)
                               for pattern, value_type in _FIVE_INDEXES])


def _combined_queries():
    workload = Workload(name="combined")
    for statement in list(xmark_query_workload()) + list(tpox_query_workload()):
        workload.add(WorkloadStatement(text=statement.text,
                                       frequency=statement.frequency))
    return [query for query in normalize_workload(workload)
            if not query.is_update]


class TestRoutingSets:
    def test_predicate_query_routes_to_its_collection(self):
        database = _coresident_database()
        model = Optimizer(database).cost_model
        query = normalize_statement(
            "/site/regions/africa/item[quantity > 5]")
        assert model.routing_set(query) == ("xmark",)
        query = normalize_statement('/FIXML/Order[@ID = "103000042"]')
        assert model.routing_set(query) == ("order",)

    def test_unmatched_predicate_routes_nowhere(self):
        database = _coresident_database()
        model = Optimizer(database).cost_model
        query = normalize_statement("/no/such/path[thing = 'x']")
        assert model.routing_set(query) == ()

    def test_summary_unsafe_pattern_routes_exactly(self):
        # ``/site//*``-shaped patterns (a descendant step that can match
        # its own context) used to widen routing to every collection
        # (None); the loose per-path matcher now decides their
        # descendant-or-self semantics exactly against each synopsis,
        # so the routing set shrinks to the matching collections.
        database = _coresident_database()
        model = Optimizer(database).cost_model
        assert model.routing_set(normalize_statement("/site//*")) \
            == ("xmark",)
        # Descendant-or-self: the context node itself satisfies
        # ``//site``, so the shape still routes (exactly) to xmark.
        assert model.routing_set(normalize_statement("/site//site")) \
            == ("xmark",)
        # An unsafe shape no collection can satisfy routes nowhere
        # instead of everywhere.
        assert model.routing_set(normalize_statement("/FIXML//site")) == ()

    def test_single_collection_routing_covers_everything(self):
        database = build_varied_database(documents=10, name="route-single")
        model = Optimizer(database).cost_model
        query = normalize_statement("/site/regions/africa/item[quantity > 5]")
        # Full coverage is normalized to None (= all collections), and
        # the scoped model is the unscoped one.
        routing = model.routing_set(query)
        assert routing is None
        assert model.scoped(routing) is model

    def test_plans_record_routing(self):
        database = _coresident_database()
        optimizer = Optimizer(database)
        plan = optimizer.optimize(
            normalize_statement("/site/people/person[name = 'Alice']"),
            candidate_indexes=[])
        assert plan.routing == ("xmark",)
        assert "routed to xmark" in plan.render()
        update = optimizer.plan_update(
            normalize_statement('delete node /FIXML/Order[@ID = "1"]'),
            candidate_indexes=[])
        assert update.routing == ("order",)

    def test_merged_statistics_keep_subsynopses(self):
        database = _coresident_database()
        merged = database.statistics
        assert set(merged.collection_stats) == \
            {"xmark", "order", "security", "custacc"}
        routed = merged.merged_over(("xmark",))
        assert routed is not merged
        assert routed.document_count == len(database.collection("xmark"))
        assert merged.merged_over(tuple(merged.collection_stats)) is merged
        # Versions recorded per collection (the cache-key signatures).
        for collection in database.collections:
            assert merged.collection_versions[collection.name] \
                == collection.version


class TestSingleCollectionReduction:
    """A query routed to collections *S* reduces to a database holding
    only *S*: the cost model prices it against exactly that synopsis."""

    @pytest.fixture(scope="class")
    def coresident(self):
        database = build_coresident_database(scale=0.05, name="reduce")
        queries = [query for query in normalize_workload(combined_workload())
                   if not query.is_update]
        assert len(queries) == 30
        groups = _by_routing(database, queries)
        assert set(groups) == {("xmark",), ("order",), ("security",),
                               ("custacc",)}
        return database, groups, {routing: _restricted(database, routing)
                                  for routing in groups}

    def test_plan_costs_byte_identical(self, coresident):
        database, groups, restricted = coresident
        candidates = list(_five_indexes())
        routed = Optimizer(database)
        for routing, queries in groups.items():
            alone = Optimizer(restricted[routing])
            for query in queries:
                for visible in ([], candidates):
                    a = routed.optimize(query, candidate_indexes=visible)
                    b = alone.optimize(query, candidate_indexes=visible)
                    assert a.total_cost == b.total_cost, query.query_id
                    assert a.used_index_names == b.used_index_names
                    assert a.routing == routing

    def test_benefits_and_recommendation_byte_identical(self, coresident):
        database, groups, restricted = coresident
        configuration = _five_indexes()
        for routing, queries in groups.items():
            routed = ConfigurationEvaluator(database, queries).evaluate(configuration)
            alone = ConfigurationEvaluator(
                restricted[routing], queries).evaluate(configuration)
            assert routed.query_evaluations == alone.query_evaluations
            assert routed.total_benefit == alone.total_benefit
        workload = xmark_query_workload()
        for budget in (16 * 1024.0, 64 * 1024.0):
            parameters = AdvisorParameters(disk_budget_bytes=budget)
            a = XmlIndexAdvisor(database, parameters).recommend(workload)
            b = XmlIndexAdvisor(restricted[("xmark",)], parameters).recommend(workload)
            assert [d.key for d in a.configuration] == [d.key for d in b.configuration]
            assert a.total_benefit == b.total_benefit
            assert a.total_size_bytes == b.total_size_bytes

    def test_routed_answers_equal_restricted_and_interpreter(self, coresident):
        database, groups, restricted = coresident
        configuration = list(_five_indexes())
        engine = QueryExecutor(database)
        interpreter = QueryExecutor(database, use_columnar=False)
        for executor in (engine, interpreter):
            executor.create_indexes(configuration)
        for routing, queries in groups.items():
            alone = QueryExecutor(restricted[routing])
            alone.create_indexes(configuration)
            for query in queries:
                expected = alone.execute(query, extract_values=True)
                for executor in (engine, interpreter):
                    result = executor.execute(query, extract_values=True)
                    assert result.result_count == expected.result_count, \
                        query.query_id
                    assert result.extracted_values == expected.extracted_values


class TestExecutorRouting:
    def test_scan_prunes_unrouted_collections(self):
        database = _coresident_database()
        executor = QueryExecutor(database)
        result = executor.execute("/site/people/person[name = 'Alice']")
        assert result.documents_examined == len(database.collection("xmark"))
        assert executor.documents_routed_out > 0
        # Every scan examines exactly the documents of its routing set.
        for routing, queries in _by_routing(database, _combined_queries()).items():
            routed_documents = sum(len(database.collection(name))
                                   for name in routing)
            for query in queries:
                result = executor.execute(query)
                assert not result.used_index_plan
                assert result.documents_examined == routed_documents

    def test_index_plan_residual_checks_respect_routing(self):
        # A //-general index covers paths in several collections; the
        # candidate documents outside the query's routing set must be
        # skipped without residual evaluation.
        database = _coresident_database(xmark_scale=0.05, tpox_scale=0.08)
        executor = QueryExecutor(database)
        definition = IndexDefinition.create("//Symbol", ValueType.VARCHAR)
        executor.create_indexes([definition])
        query = normalize_statement('/Security[Symbol = "SYM0005"]')
        plan = executor.optimizer.optimize(
            query, candidate_indexes=database.catalog.physical_indexes)
        result = executor.execute(query)
        assert plan.routing == ("security",)
        references = [QueryExecutor(database, use_columnar=False),
                      QueryExecutor(_restricted(database, plan.routing))]
        for reference in references:
            reference.create_indexes([definition])
            assert result.result_count == reference.execute(query).result_count

    def test_dead_executor_listener_is_dropped(self):
        """Executors subscribe to collections weakly: a collected
        executor must not be pinned by the listener list, and its dead
        listener must be pruned on the next change notification."""
        import gc

        database = build_varied_database(documents=4, name="route-weak")
        collection = database.collection("site")
        listeners_before = len(collection._change_listeners)
        executor = QueryExecutor(database)
        executor.execute("/site/people/person[name = 'Person 1 0']")
        assert len(collection._change_listeners) == listeners_before + 1
        del executor
        gc.collect()
        collection.add_document("<site><people/></site>")  # prunes dead refs
        assert len(collection._change_listeners) == listeners_before

    def test_summary_cache_invalidated_by_version_listener(self):
        database = build_varied_database(documents=8, name="route-sum")
        executor = QueryExecutor(database)
        executor.execute("/site/people/person[name = 'Person 1 0']")
        cached = executor._columnars.get("site")
        assert cached is not None
        assert executor._columnar_for("site") is cached  # served from memo
        database.collection("site").add_document("<site><people/></site>")
        assert "site" not in executor._columnars  # listener evicted it
        executor.execute("/site/people/person[name = 'Person 1 0']")
        assert executor._columnars["site"] is not cached


class TestRoutedInvalidation:
    """Single-collection change: exactly the routed queries re-costed,
    zero cross-collection re-costings, byte-exact results."""

    def _configuration(self):
        return IndexConfiguration([
            IndexDefinition.create("/site/people/person/@id", ValueType.VARCHAR),
            IndexDefinition.create("/site/regions/*/item/quantity",
                                   ValueType.DOUBLE),
            IndexDefinition.create("/FIXML/Order/@ID", ValueType.VARCHAR),
            IndexDefinition.create("/Security/Symbol", ValueType.VARCHAR),
        ])

    def test_single_collection_add_recosts_zero_cross_collection(self):
        self._check_single_collection_add("xmark")

    def test_tpox_collection_add_recosts_zero_cross_collection(self):
        self._check_single_collection_add("custacc")

    def _check_single_collection_add(self, changed):
        database = _coresident_database()
        queries = _combined_queries()
        routed = ConfigurationEvaluator(database, queries)
        configuration = self._configuration()
        routed_base = routed.evaluate(configuration)

        model = routed.optimizer.cost_model
        affected_ids = {query.query_id for query in queries
                        if (lambda r: not r or changed in r)
                        (model.routing_set(query))}
        cross_ids = {query.query_id for query in queries} - affected_ids
        assert affected_ids and cross_ids

        if changed == "xmark":
            donor = generate_xmark_database(XMarkConfig(scale=0.03, seed=99))
        else:
            donor = generate_tpox_database(TpoxConfig(scale=0.05, seed=99))
        database.collection(changed).add_document(
            serialize(donor.collection(changed).documents[0]))

        before = routed.query_costings
        routed_delta = routed.update(routed_base)
        assert routed.query_costings - before == len(affected_ids)
        # A re-costed row is a new object, a reused one the base's.
        base_rows = {row.query_id: row for row in routed_base.query_evaluations}
        recosted = {row.query_id for row in routed_delta.query_evaluations
                    if base_rows[row.query_id] is not row}
        assert recosted == affected_ids

        # Byte-exactness of the preserved rows.
        reference = ReferenceEvaluator(database, queries).evaluate(configuration)
        assert routed_delta.total_benefit == reference.total_benefit
        rows = {row.query_id: row for row in reference.rows}
        for row in routed_delta.query_evaluations:
            assert row.cost_with_configuration == \
                rows[row.query_id].cost_with_configuration
            assert row.cost_without_indexes == \
                rows[row.query_id].cost_without_indexes

    def test_add_outside_the_query_paths_restales_routed_rows(self):
        """A document that carries none of a query's paths still moves its
        routed collection's counts, so the query's rows are re-costed:
        staleness follows the routed collections, not only the paths."""
        database = _coresident_database()
        queries = _combined_queries()
        evaluator = ConfigurationEvaluator(database, queries)
        configuration = self._configuration()
        base = evaluator.evaluate(configuration)
        database.collection("custacc").add_document("<Customer/>")
        delta = evaluator.update(base)
        reference = ReferenceEvaluator(database, queries).evaluate(configuration)
        rows = {row.query_id: row for row in reference.rows}
        before = {row.query_id: row for row in base.query_evaluations}
        moved = [row.query_id for row in delta.query_evaluations
                 if row.cost_without_indexes
                 != before[row.query_id].cost_without_indexes]
        assert moved  # the scenario is meaningful
        for row in delta.query_evaluations:
            assert row.cost_without_indexes == rows[row.query_id].cost_without_indexes
            assert row.cost_with_configuration == \
                rows[row.query_id].cost_with_configuration
        assert delta.total_benefit == reference.total_benefit

    def test_plan_cache_survives_other_collection_change(self):
        database = _coresident_database()
        queries = _combined_queries()
        optimizer = Optimizer(database)
        order_queries = [query for query in queries
                         if optimizer.cost_model.routing_set(query)
                         == ("order",)]
        assert order_queries
        candidates = [IndexDefinition.create("/FIXML/Order/@ID",
                                             ValueType.VARCHAR)]
        for query in order_queries:
            optimizer.optimize(query, candidate_indexes=candidates)
        plans_before = optimizer.plan_calls
        donor = generate_xmark_database(XMarkConfig(scale=0.03, seed=99))
        database.collection("xmark").add_document(
            serialize(donor.collection("xmark").documents[0]))
        for query in order_queries:
            optimizer.optimize(query, candidate_indexes=candidates)
        assert optimizer.plan_calls == plans_before  # all served cached
        assert optimizer.plan_cache_flushes == 0

    def test_long_lived_advisor_recommends_like_a_fresh_one(self):
        database = _coresident_database()
        parameters = AdvisorParameters(disk_budget_bytes=96 * 1024.0)
        long_lived = XmlIndexAdvisor(database, parameters)
        long_lived.recommend(combined_workload())  # warm the plan cache
        donor = generate_tpox_database(TpoxConfig(scale=0.05, seed=99))
        database.collection("custacc").add_document(
            serialize(donor.collection("custacc").documents[0]))
        cached = long_lived.recommend(combined_workload())
        fresh = XmlIndexAdvisor(database, parameters).recommend(combined_workload())
        assert cached.configuration.definitions
        assert [d.key for d in cached.configuration] \
            == [d.key for d in fresh.configuration]
        assert cached.total_benefit == fresh.total_benefit


@pytest.mark.parametrize("seed", [7, 21])
def test_randomized_multi_collection_equivalence(seed):
    """Randomized interleaved adds/removes across co-resident
    collections: after every operation each sampled query answers as
    the interpreter does and as it does on a database holding only its
    routing set, and its scans examine exactly that set's documents;
    at the end the long-lived evaluator is byte-identical to a fresh
    one."""
    database = _coresident_database(xmark_scale=0.02, tpox_scale=0.03,
                                    seed=seed, name=f"rand-{seed}")
    donors = {
        "xmark": generate_xmark_database(
            XMarkConfig(scale=0.03, seed=seed + 50)).collection("xmark"),
        "order": generate_tpox_database(
            TpoxConfig(scale=0.04, seed=seed + 60)).collection("order"),
        "custacc": generate_tpox_database(
            TpoxConfig(scale=0.04, seed=seed + 70)).collection("custacc"),
    }
    reserve = {name: [serialize(d) for d in collection.documents]
               for name, collection in donors.items()}

    queries = _combined_queries()
    routed_executor = QueryExecutor(database)
    interpreter = QueryExecutor(database, use_columnar=False)
    evaluator = ConfigurationEvaluator(database, queries)
    configuration = IndexConfiguration([
        IndexDefinition.create("/site/people/person/@id", ValueType.VARCHAR),
        IndexDefinition.create("/FIXML/Order/@ID", ValueType.VARCHAR),
        IndexDefinition.create("/Customer/@id", ValueType.VARCHAR),
    ])
    evaluator.evaluate(configuration)

    rng = random.Random(seed * 101)
    check_queries = [query for query in queries]
    for step in range(10):
        name = rng.choice(list(reserve))
        collection = database.collection(name)
        if reserve[name] and (len(collection) < 2 or rng.random() < 0.65):
            collection.add_document(reserve[name].pop())
        else:
            collection.remove_document(rng.randrange(len(collection)))
        sample = rng.sample(check_queries, 6)
        restricted = {}
        model = routed_executor.optimizer.cost_model
        for query in sample:
            a = routed_executor.execute(query)
            routing = model.routing_set(query)
            if routing not in restricted:
                restricted[routing] = QueryExecutor(_restricted(database, routing))
            b = restricted[routing].execute(query)
            assert a.result_count == b.result_count, (step, query.query_id)
            assert a.result_count == interpreter.execute(query).result_count
            assert a.documents_examined == b.documents_examined == sum(
                len(database.collection(name)) for name in
                (routing or [c.name for c in database.collections]))
    assert routed_executor.documents_routed_out > 0

    maintained = evaluator.evaluate(configuration)
    reference = ConfigurationEvaluator(database, queries).evaluate(configuration)
    assert maintained.total_benefit == reference.total_benefit
    rows = {row.query_id: row for row in reference.query_evaluations}
    for row in maintained.query_evaluations:
        assert row.cost_with_configuration == \
            rows[row.query_id].cost_with_configuration
        assert row.used_index_keys == rows[row.query_id].used_index_keys
    # Legacy counters stayed byte-equal to their registry metrics
    # across the randomized interleaved run.
    assert_counter_parity(routed_executor, EXECUTOR_COUNTERS)
    assert_counter_parity(interpreter, EXECUTOR_COUNTERS)
    assert_counter_parity(evaluator, EVALUATOR_COUNTERS)
