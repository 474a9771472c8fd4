"""Unit tests for basic candidate enumeration and the CandidateSet container."""

from __future__ import annotations

import pytest

from repro.advisor.candidates import (
    CandidateIndex,
    CandidateSet,
    enumerate_basic_candidates,
    extend_unique,
)
from repro.xpath.ast import BinaryOp
from repro.xpath.patterns import PathPattern
from repro.xquery.model import PathPredicate, ValueType, Workload
from repro.xquery.normalizer import normalize_workload


def _candidate(pattern, value_type=ValueType.VARCHAR, source="basic", queries=()):
    return CandidateIndex(pattern=PathPattern.parse(pattern), value_type=value_type,
                          source=source, benefiting_queries=set(queries))


def _predicate(pattern, value):
    return PathPredicate(pattern=PathPattern.parse(pattern), op=BinaryOp.GT,
                         value=value, value_type=ValueType.DOUBLE)


class TestCandidateIndex:
    def test_key_identity(self):
        assert _candidate("/a/b").key == ("/a/b", "VARCHAR")
        assert _candidate("/a/b", ValueType.DOUBLE).key == ("/a/b", "DOUBLE")

    def test_to_definition_is_virtual(self):
        definition = _candidate("/a/b").to_definition()
        assert definition.is_virtual
        assert definition.pattern.to_text() == "/a/b"

    def test_covers_predicate_respects_type(self):
        candidate = _candidate("/a/*", ValueType.DOUBLE)
        numeric = PathPredicate(pattern=PathPattern.parse("/a/b"), op=BinaryOp.GT,
                                value=1.0, value_type=ValueType.DOUBLE)
        textual = PathPredicate(pattern=PathPattern.parse("/a/b"), op=BinaryOp.EQ,
                                value="x", value_type=ValueType.VARCHAR)
        existence = PathPredicate(pattern=PathPattern.parse("/a/b"))
        assert candidate.covers(numeric)
        assert not candidate.covers(textual)
        assert candidate.covers(existence)

    def test_covers_candidate(self):
        general = _candidate("/a/*")
        specific = _candidate("/a/b")
        other_type = _candidate("/a/b", ValueType.DOUBLE)
        assert general.covers_candidate(specific)
        assert not specific.covers_candidate(general)
        assert not general.covers_candidate(other_type)


class TestCandidateSet:
    def test_add_deduplicates_and_merges_queries(self):
        candidates = CandidateSet()
        candidates.add(_candidate("/a/b", queries={"q1"}))
        candidates.add(_candidate("/a/b", queries={"q2"}))
        assert len(candidates) == 1
        merged = candidates.get(("/a/b", "VARCHAR"))
        assert merged.benefiting_queries == {"q1", "q2"}

    def test_basic_wins_over_generalized_source(self):
        candidates = CandidateSet()
        candidates.add(_candidate("/a/b", source="generalized"))
        candidates.add(_candidate("/a/b", source="basic"))
        assert candidates.get(("/a/b", "VARCHAR")).source == "basic"

    def test_partition_by_source_and_type(self):
        candidates = CandidateSet([
            _candidate("/a/b"),
            _candidate("/a/c", ValueType.DOUBLE),
            _candidate("/a/*", source="generalized"),
        ])
        assert len(candidates.basic_candidates) == 2
        assert len(candidates.generalized_candidates) == 1
        assert len(candidates.by_value_type(ValueType.DOUBLE)) == 1

    def test_copy_is_deep_for_query_sets(self):
        original = CandidateSet([_candidate("/a/b", queries={"q1"})])
        copy = original.copy()
        copy.get(("/a/b", "VARCHAR")).benefiting_queries.add("q2")
        assert original.get(("/a/b", "VARCHAR")).benefiting_queries == {"q1"}

    def test_copy_clones_entries_without_replaying_add(self):
        first, second = _predicate("/a/b", 1.0), _predicate("/a/b", 2.0)
        original = CandidateSet([
            _candidate("/a/*", source="generalized"),
            CandidateIndex(PathPattern.parse("/a/b"), ValueType.DOUBLE,
                           benefiting_queries={"q1"},
                           covered_predicates=[second, first, second]),
        ])
        copy = original.copy()
        assert [c.key for c in copy] == [c.key for c in original]
        assert [c.source for c in copy] == ["generalized", "basic"]
        cloned = copy.get(("/a/b", "DOUBLE"))
        assert cloned is not original.get(("/a/b", "DOUBLE"))
        # A clone, not a merge: the list arrives as it is, and is its own.
        assert cloned.covered_predicates == [second, first, second]
        cloned.covered_predicates.append(_predicate("/a/b", 3.0))
        assert len(original.get(("/a/b", "DOUBLE")).covered_predicates) == 3

    def test_add_collapses_equal_predicates_and_keeps_order(self):
        candidates = CandidateSet()
        candidates.add(CandidateIndex(
            PathPattern.parse("/a/b"), ValueType.DOUBLE, benefiting_queries={"q1"},
            covered_predicates=[_predicate("/a/b", 2.0), _predicate("/a/b", 1.0)]))
        # Equal predicates from another query are other objects.
        candidates.add(CandidateIndex(
            PathPattern.parse("/a/b"), ValueType.DOUBLE, benefiting_queries={"q2"},
            covered_predicates=[_predicate("/a/b", 3.0), _predicate("/a/b", 1.0),
                                _predicate("/a/b", 3.0), _predicate("/a/b", 0.5)]))
        merged = candidates.get(("/a/b", "DOUBLE"))
        assert [p.value for p in merged.covered_predicates] == [2.0, 1.0, 3.0, 0.5]
        assert merged.benefiting_queries == {"q1", "q2"}

    def test_extend_unique(self):
        target = ["b", "a"]
        extend_unique(target, iter(["a", "c", "b", "c", "d"]))
        assert target == ["b", "a", "c", "d"]

    def test_describe_lists_candidates(self):
        candidates = CandidateSet([_candidate("/a/b")])
        assert "/a/b" in candidates.describe()


class TestEnumerateBasicCandidates:
    def test_candidates_pooled_across_queries(self, varied_database, tiny_workload):
        queries = normalize_workload(tiny_workload)
        candidates = enumerate_basic_candidates(queries, varied_database)
        patterns = {c.pattern.to_text() for c in candidates}
        assert "/site/regions/africa/item/quantity" in patterns
        assert "/site/people/person/profile/age" in patterns
        assert "/site/people/person/profile/@income" in patterns
        assert all(c.source == "basic" for c in candidates)

    def test_query_attribution_recorded(self, varied_database, tiny_workload):
        queries = normalize_workload(tiny_workload)
        candidates = enumerate_basic_candidates(queries, varied_database)
        quantity = candidates.get(("/site/regions/africa/item/quantity", "DOUBLE"))
        assert quantity is not None
        assert any(q.endswith("q1") for q in quantity.benefiting_queries)

    def test_shared_pattern_attributed_to_multiple_queries(self, varied_database):
        workload = Workload(name="dup")
        workload.add('for $i in doc("x")/site/regions/africa/item '
                     'where $i/quantity > 90 return $i/name')
        workload.add('for $i in doc("x")/site/regions/africa/item '
                     'where $i/quantity < 5 return $i/name')
        queries = normalize_workload(workload)
        candidates = enumerate_basic_candidates(queries, varied_database)
        quantity = candidates.get(("/site/regions/africa/item/quantity", "DOUBLE"))
        assert len(quantity.benefiting_queries) == 2

    def test_update_statements_contribute_nothing(self, varied_database):
        workload = Workload(name="u")
        workload.add("delete node /site/regions/africa/item")
        queries = normalize_workload(workload)
        candidates = enumerate_basic_candidates(queries, varied_database)
        assert len(candidates) == 0

    def test_catalog_untouched(self, varied_database, tiny_workload):
        queries = normalize_workload(tiny_workload)
        enumerate_basic_candidates(queries, varied_database)
        assert varied_database.catalog.virtual_indexes == []
        assert varied_database.catalog.physical_indexes == []
