"""Collection-scoped cost model + structural routing (PR 4).

Three contracts are covered:

* **routing sets** -- which collections a query's patterns can match,
  including exact loose-matched routing for summary-unsafe ``//``
  shapes (PR 8), empty matches, and the ``use_collection_costing``
  escape hatch;
* **reduction** -- on a single-collection database the collection-
  scoped model must be byte-identical to the legacy whole-database
  model (costs, plans, benefits, recommendations), and on any database
  routing must never change *results*;
* **invalidation** -- cached plans and per-query costings are keyed to
  the routing set's collections: a document add to one collection
  triggers **zero** re-costings of queries routed only to the others
  (the acceptance criterion), byte-identically to a fresh evaluation.

The randomized suites extend the ``tests/test_maintenance.py`` harness
pattern: seeded interleaved change sequences on XMark/TPoX fragments,
checked against an escape-hatch twin after every operation.
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
from repro.advisor.advisor import XmlIndexAdvisor
from repro.advisor.benefit import ConfigurationEvaluator
from repro.advisor.config import AdvisorParameters
from repro.executor.executor import QueryExecutor
from repro.index.definition import IndexConfiguration, IndexDefinition
from repro.optimizer.optimizer import Optimizer
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

    def test_escape_hatch_disables_routing(self):
        database = _coresident_database()
        model = Optimizer(database, use_collection_costing=False).cost_model
        query = normalize_statement("/site/regions/africa/item[quantity > 5]")
        assert model.routing_set(query) is None

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
    """On single-collection databases the collection-scoped model must
    reduce to the legacy one byte-identically."""

    def test_plan_costs_byte_identical(self):
        database = build_varied_database(documents=60, name="reduce")
        queries = [query for query in
                   normalize_workload(xmark_query_workload())
                   if not query.is_update]
        candidates = [
            IndexDefinition.create("/site/people/person/@id", ValueType.VARCHAR),
            IndexDefinition.create("/site/regions/*/item/quantity",
                                   ValueType.DOUBLE),
            IndexDefinition.create("//item/payment", ValueType.VARCHAR),
        ]
        routed = Optimizer(database)
        legacy = Optimizer(database, use_collection_costing=False)
        for query in queries:
            for visible in ([], candidates):
                a = routed.optimize(query, candidate_indexes=visible)
                b = legacy.optimize(query, candidate_indexes=visible)
                assert a.total_cost == b.total_cost, query.query_id
                assert a.used_index_names == b.used_index_names

    def test_benefits_and_recommendation_byte_identical(self):
        database = build_varied_database(documents=60, name="reduce-adv")
        workload = Workload(name="reduce")
        workload.add("/site/regions/africa/item[quantity > 5]", frequency=2.0)
        workload.add("/site/people/person[name = 'Person 3 0']")
        workload.add("/site/regions/*/item[price > 400]")
        queries = normalize_workload(workload)
        configuration = IndexConfiguration([
            IndexDefinition.create("/site/regions/*/item/quantity",
                                   ValueType.DOUBLE),
            IndexDefinition.create("/site/people/person/name", ValueType.VARCHAR),
        ])
        routed = ConfigurationEvaluator(database, queries).evaluate(configuration)
        legacy = ConfigurationEvaluator(
            database, queries,
            AdvisorParameters(use_collection_costing=False)).evaluate(configuration)
        assert routed.total_benefit == legacy.total_benefit
        assert routed.total_size_bytes == legacy.total_size_bytes
        rows = {row.query_id: row for row in legacy.query_evaluations}
        for row in routed.query_evaluations:
            assert row.cost_with_configuration == \
                rows[row.query_id].cost_with_configuration
        recommendations = []
        for costing in (True, False):
            advisor = XmlIndexAdvisor(database, AdvisorParameters(
                disk_budget_bytes=64 * 1024.0, use_collection_costing=costing))
            recommendation = advisor.recommend(
                Workload(statements=list(workload)))
            recommendations.append(
                (frozenset(d.key for d in recommendation.configuration),
                 recommendation.total_benefit))
        assert recommendations[0] == recommendations[1]


class TestExecutorRouting:
    def test_scan_prunes_unrouted_collections(self):
        database = _coresident_database()
        executor = QueryExecutor(database)
        result = executor.execute("/site/people/person[name = 'Alice']")
        assert result.documents_examined == len(database.collection("xmark"))
        assert executor.documents_routed_out > 0

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
        legacy = QueryExecutor(
            database,
            optimizer=Optimizer(database, use_collection_costing=False))
        legacy.create_indexes([definition])
        assert result.result_count == legacy.execute(query).result_count
        if plan.uses_indexes:
            assert plan.routing == ("security",)

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
    """The acceptance criterion: single-collection change, zero cross-
    collection re-costings, byte-exact results."""

    def _evaluators(self, database, queries):
        routed = ConfigurationEvaluator(database, queries)
        legacy = ConfigurationEvaluator(
            database, queries,
            AdvisorParameters(use_collection_costing=False))
        return routed, legacy

    def _configuration(self):
        return IndexConfiguration([
            IndexDefinition.create("/site/people/person/@id", ValueType.VARCHAR),
            IndexDefinition.create("/site/regions/*/item/quantity",
                                   ValueType.DOUBLE),
            IndexDefinition.create("/FIXML/Order/@ID", ValueType.VARCHAR),
            IndexDefinition.create("/Security/Symbol", ValueType.VARCHAR),
        ])

    def test_single_collection_add_recosts_zero_cross_collection(self):
        database = _coresident_database()
        queries = _combined_queries()
        routed, legacy = self._evaluators(database, queries)
        configuration = self._configuration()
        routed_base = routed.evaluate(configuration)
        legacy_base = legacy.evaluate(configuration)

        model = routed.optimizer.cost_model
        affected_ids = {query.query_id for query in queries
                        if (lambda r: not r or "xmark" in r)
                        (model.routing_set(query))}
        cross_ids = {query.query_id for query in queries} - affected_ids
        assert cross_ids, "need queries routed only to other collections"

        donor = generate_xmark_database(XMarkConfig(scale=0.03, seed=99))
        database.collection("xmark").add_document(
            serialize(donor.collection("xmark").documents[0]))

        before = routed.query_costings
        routed_delta = routed.update(routed_base)
        assert routed.query_costings - before == len(affected_ids)
        # The escape hatch's aggregates guard re-costs everything.
        before = legacy.query_costings
        legacy.update(legacy_base)
        assert legacy.query_costings - before == len(queries)

        # Byte-exactness of the preserved rows.
        fresh = ConfigurationEvaluator(database, queries)
        reference = fresh.evaluate(configuration)
        assert routed_delta.total_benefit == reference.total_benefit
        rows = {row.query_id: row for row in reference.query_evaluations}
        for row in routed_delta.query_evaluations:
            assert row.cost_with_configuration == \
                rows[row.query_id].cost_with_configuration
            assert row.cost_without_indexes == \
                rows[row.query_id].cost_without_indexes

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

    def test_legacy_model_still_flushes_on_aggregates(self):
        database = _coresident_database()
        optimizer = Optimizer(database, use_collection_costing=False)
        query = normalize_statement('/FIXML/Order[@ID = "103000042"]')
        candidates = [IndexDefinition.create("/FIXML/Order/@ID",
                                             ValueType.VARCHAR)]
        optimizer.optimize(query, candidate_indexes=candidates)
        plans_before = optimizer.plan_calls
        donor = generate_xmark_database(XMarkConfig(scale=0.03, seed=99))
        database.collection("xmark").add_document(
            serialize(donor.collection("xmark").documents[0]))
        optimizer.optimize(query, candidate_indexes=candidates)
        assert optimizer.plan_calls == plans_before + 1  # re-planned


@pytest.mark.parametrize("seed", [7, 21])
def test_randomized_multi_collection_equivalence(seed):
    """Randomized interleaved adds/removes across co-resident
    collections: routed plans and the unrouted plans of the global cost
    model (``routing=None``: every collection is walked) must return
    identical results after every operation, and the long-lived routed
    evaluator must stay byte-identical to a fresh one at the end."""
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
    unrouted_executor = QueryExecutor(
        database, optimizer=Optimizer(database, use_collection_costing=False))
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
        for query in sample:
            a = routed_executor.execute(query)
            b = unrouted_executor.execute(query)
            assert a.result_count == b.result_count, (step, query.query_id)
            assert b.documents_examined == sum(
                len(c) for c in database.collections)
    assert unrouted_executor.documents_routed_out == 0
    assert routed_executor.documents_routed_out > 0

    maintained = evaluator.evaluate(configuration)
    reference = ConfigurationEvaluator(database, queries).evaluate(configuration)
    assert maintained.total_benefit == reference.total_benefit
    rows = {row.query_id: row for row in reference.query_evaluations}
    for row in maintained.query_evaluations:
        assert row.cost_with_configuration == \
            rows[row.query_id].cost_with_configuration
        assert row.used_index_keys == rows[row.query_id].used_index_keys
    # PR 10: legacy counters stayed byte-equal to their registry
    # metrics across the randomized interleaved run.
    assert_counter_parity(routed_executor, EXECUTOR_COUNTERS)
    assert_counter_parity(unrouted_executor, EXECUTOR_COUNTERS)
    assert_counter_parity(evaluator, EVALUATOR_COUNTERS)
