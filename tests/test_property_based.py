"""Property-based tests (hypothesis) for the core data structures and invariants.

Covered invariants:

* XML parser / serializer round-trips arbitrary generated documents.
* Pattern matching agrees with pattern containment (if P contains Q, then
  every concrete path matched by Q is matched by P).
* Strict index-pattern matching implies matching under the
  interpreter's descendant-or-self semantics.
* Generalization produces patterns that contain their sources.
* The physical index returns exactly the entries a naive scan would.
* The greedy searches never exceed the disk budget and never return a
  negative-benefit configuration.
"""

from __future__ import annotations

import string

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.index.definition import IndexDefinition
from repro.index.physical import build_physical_index
from repro.storage.document_store import XmlDatabase
from repro.storage.statistics import collect_statistics
from repro.xmldb.nodes import DocumentNode, ElementNode, build_document
from repro.xmldb.parser import parse_document
from repro.xmldb.serializer import serialize
from repro.xpath.ast import BinaryOp
from repro.xpath.patterns import (
    PathPattern,
    PatternStep,
    generalize_pair,
    pattern_contains,
)
from repro.xquery.model import ValueType

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
_LABELS = ["a", "b", "c", "item", "name", "quantity"]
_label = st.sampled_from(_LABELS)

_pattern_step = st.builds(
    PatternStep,
    label=st.one_of(_label, st.just("*"),
                    st.sampled_from(["@id", "@key", "@*"])),
    descendant=st.booleans(),
)


def _fix_steps(steps):
    """Attribute steps may only appear last; wildcards stay as generated."""
    cleaned = []
    for index, step in enumerate(steps):
        label = step.label
        if label.startswith("@") and index != len(steps) - 1:
            label = label.lstrip("@") or "a"
            if label == "*":
                label = "a"
        cleaned.append(PatternStep(label=label, descendant=step.descendant))
    return tuple(cleaned)


_pattern = st.lists(_pattern_step, min_size=1, max_size=4).map(
    lambda steps: PathPattern(steps=_fix_steps(steps)))

#: A small alphabet (``a``, ``b``, ``*``, ``@x``, ``/``, ``//``) on which
#: self-matching ``//`` steps (``/a//a``, ``//*``) are frequent.
_small_pattern = st.lists(
    st.builds(PatternStep, label=st.sampled_from(["a", "b", "*", "@x"]),
              descendant=st.booleans()),
    min_size=1, max_size=4).map(lambda steps: PathPattern(steps=tuple(steps)))
_small_path = st.tuples(
    st.lists(st.sampled_from(["a", "b"]), min_size=1, max_size=5),
    st.booleans()).map(
        lambda parts: "/" + "/".join(parts[0]) + ("/@x" if parts[1] else ""))

_element_text = st.text(alphabet=string.ascii_letters + string.digits + " .-",
                        max_size=12)
_attr_value = st.text(alphabet=string.ascii_letters + string.digits + " ",
                      max_size=8)


@st.composite
def _documents(draw, max_depth=3, max_children=3):
    """Generate small random documents over a fixed label alphabet."""
    def build(element: ElementNode, depth: int) -> None:
        for _ in range(draw(st.integers(0, max_children))):
            child = element.add_element(draw(_label))
            if draw(st.booleans()):
                child.set_attribute(draw(st.sampled_from(["id", "key"])),
                                    draw(_attr_value))
            if depth < max_depth and draw(st.booleans()):
                build(child, depth + 1)
            else:
                text = draw(st.one_of(_element_text,
                                      st.integers(0, 999).map(str)))
                if text:
                    child.add_text(text)

    doc, root = build_document(draw(_label))
    build(root, 1)
    doc.assign_node_ids()
    return doc


# ----------------------------------------------------------------------
# Parser / serializer round trip
# ----------------------------------------------------------------------
class TestRoundTripProperties:
    @given(_documents())
    @settings(max_examples=40, deadline=None)
    def test_serialize_parse_round_trip(self, document):
        serialized = serialize(document)
        reparsed = parse_document(serialized)
        assert serialize(reparsed) == serialized
        original_paths = sorted(e.simple_path() for e in document.descendant_elements())
        reparsed_paths = sorted(e.simple_path() for e in reparsed.descendant_elements())
        assert original_paths == reparsed_paths


# ----------------------------------------------------------------------
# Pattern algebra properties
# ----------------------------------------------------------------------
class TestPatternProperties:
    @given(_pattern)
    @settings(max_examples=80, deadline=None)
    def test_parse_render_round_trip(self, pattern):
        assert PathPattern.parse(pattern.to_text()) == pattern

    @given(_pattern)
    @settings(max_examples=80, deadline=None)
    def test_containment_reflexive(self, pattern):
        assert pattern_contains(pattern, pattern)

    @given(_pattern, _pattern, _pattern)
    @settings(max_examples=60, deadline=None)
    def test_containment_transitive(self, a, b, c):
        if pattern_contains(a, b) and pattern_contains(b, c):
            assert pattern_contains(a, c)

    @given(_pattern, _documents())
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_containment_consistent_with_matching(self, pattern, document):
        """If the universal pattern //* contains P... more usefully: for any
        concrete path in the document matched by P, any pattern that contains
        P must also match that path."""
        general = PathPattern(steps=tuple(
            PatternStep(label="*" if not s.is_attribute else "@*",
                        descendant=True) for s in pattern.steps[-1:])) \
            if pattern.steps else pattern
        paths = [e.simple_path() for e in document.descendant_elements()]
        paths += [a.simple_path() for e in document.descendant_elements()
                  for a in e.attributes]
        if pattern_contains(general, pattern):
            for path in paths:
                if pattern.matches(path):
                    assert general.matches(path)

    @given(_pattern, _pattern)
    @settings(max_examples=80, deadline=None)
    def test_generalize_pair_contains_both_sources(self, first, second):
        result = generalize_pair(first, second)
        if result is not None:
            assert pattern_contains(result, first)
            assert pattern_contains(result, second)
            assert result != first and result != second

    @given(_small_pattern, _small_path)
    @settings(max_examples=200, deadline=None)
    def test_strict_match_implies_evaluator_match(self, pattern, path):
        """Index-pattern matching is a restriction of the interpreter's
        descendant-or-self semantics, which is what lets routing and the
        store use the evaluator matcher for every read pattern."""
        if pattern.matches(path):
            assert pattern.matches_evaluator(path)

    @given(_pattern)
    @settings(max_examples=60, deadline=None)
    def test_universal_contains_every_element_pattern(self, pattern):
        universal = PathPattern.parse("//*")
        if not pattern.indexes_attribute and not any(
                s.is_attribute for s in pattern.steps):
            assert pattern_contains(universal, pattern)


# ----------------------------------------------------------------------
# Physical index correctness vs. naive evaluation
# ----------------------------------------------------------------------
class TestPhysicalIndexProperties:
    @given(st.lists(_documents(), min_size=1, max_size=4),
           st.sampled_from(_LABELS))
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_index_entries_match_naive_scan(self, documents, label):
        database = XmlDatabase("prop")
        collection = database.create_collection("c")
        for document in documents:
            collection.add_document(document)
        pattern_text = "//" + label
        definition = IndexDefinition.create(pattern_text, ValueType.VARCHAR)
        index = build_physical_index(definition, database)
        pattern = PathPattern.parse(pattern_text)
        expected = 0
        for document in collection:
            for element in document.descendant_elements():
                if pattern.matches(element.simple_path()):
                    expected += 1
        assert index.entry_count == expected

    @given(st.lists(st.integers(-1000, 1000), min_size=1, max_size=40),
           st.integers(-1000, 1000))
    @settings(max_examples=60, deadline=None)
    def test_range_lookup_matches_filter(self, values, threshold):
        database = XmlDatabase("nums")
        collection = database.create_collection("c")
        for index, value in enumerate(values):
            collection.add_document(f"<row><v>{value}</v></row>")
        definition = IndexDefinition.create("/row/v", ValueType.DOUBLE)
        physical = build_physical_index(definition, database)
        hits = physical.lookup_range(BinaryOp.GT, float(threshold))
        assert len(hits) == sum(1 for v in values if v > threshold)
        equal_hits = physical.lookup_equal(float(values[0]))
        assert len(equal_hits) == values.count(values[0])


# ----------------------------------------------------------------------
# Statistics invariants
# ----------------------------------------------------------------------
class TestStatisticsProperties:
    @given(st.lists(_documents(), min_size=1, max_size=4))
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_cardinalities_sum_to_element_count(self, documents):
        stats = collect_statistics(documents)
        element_paths = {p: s for p, s in stats.path_stats.items() if "/@" not in p}
        assert sum(s.node_count for s in element_paths.values()) == \
            stats.total_element_count
        universal = PathPattern.parse("//*")
        assert stats.cardinality(universal) == stats.total_element_count

    @given(st.lists(_documents(), min_size=2, max_size=4))
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_merge_equals_bulk_collection(self, documents):
        bulk = collect_statistics(documents)
        merged = collect_statistics(documents[:1])
        merged.merge(collect_statistics(documents[1:]))
        assert merged.document_count == bulk.document_count
        assert merged.total_element_count == bulk.total_element_count
        assert set(merged.path_stats) == set(bulk.path_stats)
        for path, stat in bulk.path_stats.items():
            assert merged.path_stats[path].node_count == stat.node_count
