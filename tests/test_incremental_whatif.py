"""Tests of the incremental what-if evaluation engine.

The incremental engine (inverted relevance map + delta evaluation +
lazy-greedy search) must agree with the memo-free reference in
``tests/reference/advisor_reference.py`` (full re-evaluation on a fresh
optimizer per configuration, exhaustive search loops): same
configurations in the same order, same benefits, same per-query
breakdowns.  The randomized test sweeps random candidate subsets,
budgets, and all three search algorithms to guard that equivalence; the
remaining tests pin down the invalidation contract (relevance map and
plan cache keyed to the database's ``data_signature()``).
"""

from __future__ import annotations

import random

import pytest

from _support import TINY_SITE_XML, build_varied_database
from reference.advisor_reference import ReferenceEvaluator, reference_search
from repro.advisor.benefit import ConfigurationEvaluator
from repro.advisor.candidates import CandidateSet, enumerate_basic_candidates
from repro.advisor.config import AdvisorParameters, SearchAlgorithm
from repro.advisor.enumeration import create_search
from repro.advisor.generalization import generalize_candidates
from repro.index.definition import IndexConfiguration, IndexDefinition
from repro.optimizer.explain import evaluate_indexes
from repro.optimizer.optimizer import Optimizer
from repro.xquery.model import ValueType, Workload
from repro.xquery.normalizer import normalize_workload


def _mixed_workload() -> Workload:
    workload = Workload(name="whatif")
    workload.add('for $i in doc("x")/site/regions/africa/item '
                 'where $i/quantity > 90 return $i/name', frequency=3.0)
    workload.add('for $i in doc("x")/site/regions/namerica/item '
                 'where $i/quantity > 95 return $i/name', frequency=2.0)
    workload.add('for $i in doc("x")/site/regions/asia/item '
                 'where $i/price > 480 return $i/name', frequency=2.0)
    # Multi-predicate query: exercises index-ANDing (the "volatile"
    # path of the lazy-greedy queue).
    workload.add('for $i in doc("x")/site/regions/europe/item '
                 'where $i/quantity > 90 and $i/price > 450 '
                 'return $i/name', frequency=2.0)
    workload.add('for $p in doc("x")/site/people/person '
                 'where $p/@id = "p5" return $p/name', frequency=4.0)
    workload.add('for $p in doc("x")/site/people/person '
                 'where $p/profile/@income > 200000 return $p/name', frequency=1.0)
    workload.add('replace value of node /site/regions/africa/item/quantity '
                 'with "5"', frequency=5.0)
    return workload


@pytest.fixture(scope="module")
def whatif_setup(varied_database):
    queries = normalize_workload(_mixed_workload())
    basic = enumerate_basic_candidates(queries, varied_database)
    generalization = generalize_candidates(basic)
    return varied_database, queries, generalization


def _run_search(database, queries, candidates, algorithm, budget):
    parameters = AdvisorParameters(disk_budget_bytes=budget,
                                   search_algorithm=algorithm)
    evaluator = ConfigurationEvaluator(database, queries, parameters)
    search = create_search(algorithm, evaluator, parameters)
    return search.search(candidates, None)


class TestRandomizedEquivalence:
    def test_incremental_matches_legacy_across_algorithms(self, whatif_setup):
        """Identical configurations and benefits for random candidate
        subsets, random budgets, and all three algorithms, against the
        legacy exhaustive loops kept as the reference."""
        database, queries, generalization = whatif_setup
        pool = list(generalization.candidates)
        evaluator = ConfigurationEvaluator(database, queries)
        full_size = evaluator.configuration_size_bytes(
            c.to_definition() for c in pool)
        rng = random.Random(20260729)
        for trial in range(8):
            count = rng.randint(3, len(pool))
            subset = CandidateSet(rng.sample(pool, count))
            budget = rng.choice([None, full_size * rng.uniform(0.05, 0.9)])
            for algorithm in SearchAlgorithm:
                legacy = reference_search(algorithm.value,
                                          ReferenceEvaluator(database, queries),
                                          subset, budget)
                incremental = _run_search(database, queries, subset, algorithm,
                                          budget)
                context = (f"trial {trial}, {algorithm.value}, "
                           f"budget {budget}, {count} candidates")
                assert [d.key for d in legacy.configuration] == \
                    [d.key for d in incremental.configuration], context
                assert incremental.benefit.total_benefit == pytest.approx(
                    legacy.benefit.total_benefit), context
                assert incremental.benefit.total_size_bytes == pytest.approx(
                    legacy.benefit.total_size_bytes), context

    def test_delta_update_equals_full_evaluation(self, whatif_setup):
        """update() must return exactly what a from-scratch evaluation of
        the new configuration returns."""
        database, queries, generalization = whatif_setup
        definitions = [c.to_definition() for c in generalization.candidates]
        evaluator = ConfigurationEvaluator(database, queries)
        reference = ReferenceEvaluator(database, queries)
        rng = random.Random(7)
        base = evaluator.evaluate(IndexConfiguration())
        chosen: list = []
        for _ in range(min(6, len(definitions))):
            definition = rng.choice(definitions)
            base = evaluator.update(base, add=[definition])
            chosen.append(definition)
            full = reference.evaluate(IndexConfiguration(chosen))
            assert base.total_benefit == pytest.approx(full.total_benefit)
            assert base.total_size_bytes == pytest.approx(full.total_size_bytes)
            by_id = {row.query_id: row for row in full.rows}
            for row in base.query_evaluations:
                assert row.cost_with_configuration == pytest.approx(
                    by_id[row.query_id].cost_with_configuration)
                assert row.used_index_keys == by_id[row.query_id].used_index_keys
        # And removal deltas walk back to the same states.
        while chosen:
            removed = chosen.pop()
            base = evaluator.update(base, remove=[removed])
            full = reference.evaluate(IndexConfiguration(chosen))
            assert base.total_benefit == pytest.approx(full.total_benefit)

    def test_marginal_benefit_matches_legacy(self, whatif_setup):
        """The delta gain equals the legacy full re-evaluation of the
        extended configuration (the reference evaluator)."""
        database, queries, generalization = whatif_setup
        definitions = [c.to_definition() for c in generalization.candidates]
        fast = ConfigurationEvaluator(database, queries)
        slow = ReferenceEvaluator(database, queries)
        base_fast = fast.evaluate(IndexConfiguration(definitions[:2]))
        base_slow = slow.evaluate(IndexConfiguration(definitions[:2]))
        for definition in definitions[2:8]:
            extended = slow.evaluate(IndexConfiguration(definitions[:2] + [definition]))
            assert fast.marginal_benefit(base_fast, definition) == pytest.approx(
                extended.total_benefit - base_slow.total_benefit)


class TestRelevanceMap:
    def test_relevance_marks_only_affected_queries(self, whatif_setup):
        database, queries, _ = whatif_setup
        evaluator = ConfigurationEvaluator(database, queries)
        quantity = IndexDefinition.create("/site/regions/africa/item/quantity",
                                          ValueType.DOUBLE)
        affected = evaluator.relevant_queries(quantity)
        assert affected  # the africa quantity query and the update at least
        unrelated = IndexDefinition.create("/site/categories/category/name",
                                           ValueType.VARCHAR)
        assert evaluator.relevant_queries(unrelated) == frozenset()

    def test_relevance_map_survives_data_signature_change(self):
        """Relevance is pattern containment only -- data changes must not
        drop it."""
        database = build_varied_database(documents=12, name="invalidate")
        queries = normalize_workload(_mixed_workload())
        evaluator = ConfigurationEvaluator(database, queries)
        index = IndexDefinition.create("/site/regions/africa/item/quantity",
                                       ValueType.DOUBLE)
        evaluator.relevant_queries(index)
        old_signature = evaluator.data_signature
        relevance_before = evaluator.relevance_map
        assert relevance_before
        assert not evaluator.refresh()  # nothing changed yet

        database.collection("site").add_document(TINY_SITE_XML)
        assert database.data_signature() != old_signature
        assert evaluator.refresh()  # detects the change
        assert evaluator.data_signature == database.data_signature()
        assert evaluator.relevance_map == relevance_before  # data-independent
        # Evaluation after the change works against the new statistics
        # (the net benefit may be negative: the workload's update charges
        # maintenance against the tiny post-change database).
        result = evaluator.evaluate([index])
        assert len(result.query_evaluations) == len(queries)

    def test_update_discards_stale_base_rows_after_data_change(self):
        """A delta update against a base computed before a data change
        must not reuse any of the base's per-query rows."""
        database = build_varied_database(documents=12, name="staledelta")
        queries = normalize_workload(_mixed_workload())
        evaluator = ConfigurationEvaluator(database, queries)
        index = IndexDefinition.create("/site/regions/africa/item/quantity",
                                       ValueType.DOUBLE)
        base = evaluator.evaluate(IndexConfiguration())
        for _ in range(4):
            database.collection("site").add_document(TINY_SITE_XML)
        delta = evaluator.update(base, add=[index])
        full = evaluator.evaluate(IndexConfiguration([index]))
        assert delta.total_benefit == pytest.approx(full.total_benefit)
        by_id = {e.query_id: e for e in full.query_evaluations}
        for row in delta.query_evaluations:
            assert row.cost_without_indexes == pytest.approx(
                by_id[row.query_id].cost_without_indexes)
            assert row.cost_with_configuration == pytest.approx(
                by_id[row.query_id].cost_with_configuration)

    def test_evaluate_refreshes_automatically(self):
        database = build_varied_database(documents=12, name="autorefresh")
        queries = normalize_workload(_mixed_workload())
        evaluator = ConfigurationEvaluator(database, queries)
        index = IndexDefinition.create("/site/regions/africa/item/quantity",
                                       ValueType.DOUBLE)
        evaluator.evaluate([index])
        old_signature = evaluator.data_signature
        database.collection("site").add_document(TINY_SITE_XML)
        evaluator.evaluate([index])  # public entry point refreshes
        assert evaluator.data_signature != old_signature
        assert evaluator.data_signature == database.data_signature()


class TestPlanCache:
    def test_repeated_whatif_calls_served_from_cache(self, whatif_setup):
        database, queries, generalization = whatif_setup
        definitions = [c.to_definition() for c in generalization.candidates][:3]
        optimizer = Optimizer(database)
        query = next(q for q in queries if not q.is_update)
        first = evaluate_indexes(query, database, definitions, optimizer=optimizer)
        calls_after_first = optimizer.plan_calls
        second = evaluate_indexes(query, database, definitions, optimizer=optimizer)
        assert optimizer.plan_calls == calls_after_first
        assert optimizer.plan_cache_hits >= 1
        assert second.estimated_cost == pytest.approx(first.estimated_cost)
        assert second.used_index_keys == first.used_index_keys

    def test_plan_cache_invalidates_on_data_change(self):
        database = build_varied_database(documents=12, name="plancache")
        queries = normalize_workload(_mixed_workload())
        definitions = [IndexDefinition.create(
            "/site/regions/africa/item/quantity", ValueType.DOUBLE)]
        optimizer = Optimizer(database)
        query = next(q for q in queries if not q.is_update)
        evaluate_indexes(query, database, definitions, optimizer=optimizer)
        calls = optimizer.plan_calls
        database.collection("site").add_document(TINY_SITE_XML)
        evaluate_indexes(query, database, definitions, optimizer=optimizer)
        assert optimizer.plan_calls > calls  # re-planned, not served stale


class TestCostingCounters:
    def test_delta_evaluation_costs_fewer_queries(self, whatif_setup):
        """The headline claim: the incremental engine issues far fewer
        per-query what-if costings than full re-evaluation per step."""
        database, queries, generalization = whatif_setup
        evaluator = ConfigurationEvaluator(database, queries)
        search = create_search(SearchAlgorithm.GREEDY_HEURISTIC, evaluator)
        search.search(generalization.candidates, None)
        reference = ReferenceEvaluator(database, queries)
        reference_search("greedy-heuristic", reference,
                         generalization.candidates, None)
        assert reference.costings / max(evaluator.query_costings, 1) >= 3.0
