"""Unit tests for statistics collection and selectivity estimation."""

from __future__ import annotations

import pytest

from repro.storage.statistics import DatabaseStatistics, PathStatistics, collect_statistics
from repro.xmldb.parser import parse_document
from repro.xpath.ast import BinaryOp
from repro.xpath.patterns import PathPattern


@pytest.fixture
def stats(tiny_document):
    return collect_statistics([tiny_document])


class TestCollection:
    def test_document_and_node_counts(self, stats):
        assert stats.document_count == 1
        assert stats.total_element_count > 0
        assert stats.total_node_count > stats.total_element_count

    def test_per_path_cardinalities(self, stats):
        item = stats.stats_for_path("/site/regions/africa/item")
        assert item is not None
        assert item.node_count == 2
        quantity = stats.stats_for_path("/site/regions/africa/item/quantity")
        assert quantity.node_count == 2

    def test_attribute_paths_collected(self, stats):
        income = stats.stats_for_path("/site/people/person/profile/@income")
        assert income is not None
        assert income.node_count == 2
        assert income.mostly_numeric

    def test_numeric_ranges(self, stats):
        quantity = stats.stats_for_path("/site/regions/africa/item/quantity")
        assert quantity.min_value == pytest.approx(2.0)
        assert quantity.max_value == pytest.approx(7.0)

    def test_distinct_values(self, stats):
        payment = stats.stats_for_path("/site/regions/africa/item/payment")
        assert payment.distinct_values == 2

    def test_structural_elements_have_default_width(self, stats):
        regions = stats.stats_for_path("/site/regions")
        assert regions.average_value_bytes > 0

    def test_document_count_per_path(self):
        doc_a = parse_document("<a><b>1</b></a>")
        doc_b = parse_document("<a><c>2</c></a>")
        stats = collect_statistics([doc_a, doc_b])
        assert stats.stats_for_path("/a").document_count == 2
        assert stats.stats_for_path("/a/b").document_count == 1

    def test_only_direct_text_counts_as_value(self):
        doc = parse_document("<a><b><c>inner</c></b></a>")
        stats = collect_statistics([doc])
        b_stat = stats.stats_for_path("/a/b")
        assert b_stat.total_value_bytes == 0
        c_stat = stats.stats_for_path("/a/b/c")
        assert c_stat.total_value_bytes == len("inner")


#: Documents whose text-byte charge (element direct text stripped,
#: attribute values as written) differs from the normalized value
#: lengths: blank and newline runs inside values, padded attribute
#: values, mixed content with several text children, CDATA next to
#: text, and empty elements.  Charges: 8, 17, 18 and 7 bytes.
_UNEVEN_TEXT = [
    "<r><v>a  \n  b</v><v>  7 </v><e/><e></e></r>",
    '<r><v k="  7  ">x\n\n y</v><v k=" a  b ">8</v></r>',
    "<r><m>one <b>1</b> two <b>2</b>  three </m><e/></r>",
    "<r><c>a<![CDATA[ b ]]> c</c><c><![CDATA[]]>  </c><v>9</v></r>",
]


def _fields(stats):
    return stats.total_text_bytes, {
        path: (stat.node_count, stat.document_count, stat.total_value_bytes,
               stat.distinct_values, stat.numeric_count, stat.min_value,
               stat.max_value)
        for path, stat in stats.path_stats.items()}


class TestTextByteCharge:
    def test_store_build_equals_delta_path_and_collection(self):
        from repro.storage.columnar import build_columnar_store
        from repro.storage.document_store import XmlCollection
        from repro.storage.statistics import StatisticsAccumulator

        collection = XmlCollection("c")
        collection.add_document(_UNEVEN_TEXT[0])
        assert collection.statistics.total_text_bytes == 8  # primes the delta path
        steps = [("add", 1), ("add", 2), ("remove", 0), ("add", 3),
                 ("remove", 1), ("add", 0), ("add", 2)]
        for operation, which in steps:
            if operation == "add":
                collection.add_document(_UNEVEN_TEXT[which])
            else:
                collection.remove_document(which)
            documents = collection.documents
            maintained = _fields(collection.statistics)
            assert maintained == _fields(StatisticsAccumulator.from_store(
                build_columnar_store(documents)).snapshot())
            assert maintained == _fields(collect_statistics(documents))
        assert len(collection) == 4
        assert collection.statistics.total_text_bytes == 8 + 17 + 18 + 7
        assert collection.statistics.path_stats["/r/m"].total_value_bytes \
            == len("one two three")


class TestPatternAggregation:
    def test_cardinality_over_wildcard_pattern(self, stats):
        pattern = PathPattern.parse("/site/regions/*/item")
        assert stats.cardinality(pattern) == 3

    def test_cardinality_universal(self, stats):
        assert stats.cardinality(PathPattern.parse("//*")) == stats.total_element_count

    def test_paths_matching_memoized(self, stats):
        pattern = PathPattern.parse("/site/regions/*/item")
        first = stats.paths_matching(pattern)
        second = stats.paths_matching(pattern)
        assert first is second

    def test_documents_containing(self, stats):
        assert stats.documents_containing(PathPattern.parse("/site/people/person")) == 1
        assert stats.documents_containing(PathPattern.parse("/nothing/here")) == 0

    def test_numeric_range_over_pattern(self, stats):
        bounds = stats.numeric_range(PathPattern.parse("/site/regions/*/item/quantity"))
        assert bounds == (pytest.approx(2.0), pytest.approx(9.0))

    def test_average_key_width(self, stats):
        width = stats.average_key_width(PathPattern.parse("/site/people/person/name"))
        assert 3.0 <= width <= 10.0


class TestSelectivity:
    def test_existence_has_selectivity_one(self, stats):
        pattern = PathPattern.parse("/site/regions/africa/item/quantity")
        assert stats.predicate_selectivity(pattern, None, None) == pytest.approx(1.0)

    def test_equality_uses_distinct_values(self, stats):
        pattern = PathPattern.parse("/site/regions/*/item/payment")
        selectivity = stats.predicate_selectivity(pattern, BinaryOp.EQ, "Creditcard")
        assert 0.0 < selectivity <= 0.5

    def test_range_interpolation(self, stats):
        pattern = PathPattern.parse("/site/regions/*/item/quantity")
        high = stats.predicate_selectivity(pattern, BinaryOp.GT, 8.0)
        low = stats.predicate_selectivity(pattern, BinaryOp.GT, 3.0)
        assert high < low
        assert 0.0 < high < 1.0

    def test_range_on_unknown_values_uses_default(self, stats):
        pattern = PathPattern.parse("/site/people/person/name")
        selectivity = stats.predicate_selectivity(pattern, BinaryOp.GT, "M")
        assert selectivity == pytest.approx(1.0 / 3.0)

    def test_zero_cardinality_pattern(self, stats):
        pattern = PathPattern.parse("/does/not/exist")
        assert stats.predicate_selectivity(pattern, BinaryOp.EQ, "x") == 0.0

    def test_not_equal_complements_equality(self, stats):
        pattern = PathPattern.parse("/site/regions/*/item/payment")
        eq = stats.predicate_selectivity(pattern, BinaryOp.EQ, "Creditcard")
        ne = stats.predicate_selectivity(pattern, BinaryOp.NE, "Creditcard")
        assert eq + ne == pytest.approx(1.0)


class TestMerging:
    def test_merge_adds_counts(self, tiny_document):
        first = collect_statistics([tiny_document])
        second = collect_statistics([parse_document("<site><regions/></site>")])
        before = first.total_node_count
        first.merge(second)
        assert first.document_count == 2
        assert first.total_node_count > before

    def test_merge_combines_ranges(self):
        low = collect_statistics([parse_document("<a><v>1</v></a>")])
        high = collect_statistics([parse_document("<a><v>100</v></a>")])
        low.merge(high)
        stat = low.stats_for_path("/a/v")
        assert stat.min_value == pytest.approx(1.0)
        assert stat.max_value == pytest.approx(100.0)

    def test_copy_is_independent(self, stats):
        # Grow the copy through the sanctioned builder (merge) -- direct
        # attribute writes are a contract violation under
        # REPRO_FREEZE_SNAPSHOTS -- and check the original is untouched.
        copy = stats.copy()
        copy.merge(collect_statistics([parse_document("<a><v>7</v></a>")]))
        assert copy.document_count == 2
        assert stats.document_count == 1
        assert stats.stats_for_path("/a/v") is None

    def test_total_data_bytes_positive(self, stats):
        assert stats.total_data_bytes > 0
