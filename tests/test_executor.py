"""Tests for the query executor and workload measurement (actual execution)."""

from __future__ import annotations

import pytest

from repro.executor.executor import QueryExecutor
from repro.executor.measurement import measure_workload
from repro.index.definition import IndexConfiguration, IndexDefinition
from repro.xquery.model import ValueType, Workload
from repro.xquery.normalizer import normalize_statement, normalize_workload


SELECTIVE = ('for $p in doc("x")/site/people/person '
             'where $p/@id = "p7" return $p/name')
RANGE = ('for $i in doc("x")/site/regions/africa/item '
         'where $i/quantity > 90 return $i/name')
ID_INDEX = IndexDefinition.create("/site/people/person/@id", ValueType.VARCHAR)
QUANTITY_INDEX = IndexDefinition.create("/site/regions/*/item/quantity",
                                        ValueType.DOUBLE)


@pytest.fixture
def executor(varied_database):
    executor = QueryExecutor(varied_database)
    yield executor
    executor.drop_all_indexes()


class TestScanExecution:
    def test_scan_examines_every_document(self, executor, varied_database):
        result = executor.execute(SELECTIVE)
        assert not result.used_index_plan
        assert result.documents_examined == varied_database.statistics.document_count
        assert result.result_count == 1  # exactly one document holds p7

    def test_range_query_result_count(self, executor, varied_database):
        result = executor.execute(RANGE)
        # Verify against a direct evaluation over all documents.
        from repro.xpath.evaluator import XPathEvaluator

        expected = 0
        for document in varied_database.collection("site"):
            evaluator = XPathEvaluator(document)
            if evaluator.evaluate_boolean("/site/regions/africa/item/quantity > 90"):
                expected += 1
        assert result.result_count == expected

    def test_update_statements_rejected(self, executor):
        with pytest.raises(ValueError):
            executor.execute("delete node /site/people/person")

    @pytest.mark.parametrize("text", [
        "/site/people/person[@id = 1.2.3]",
        'for $i in doc("x")/site/regions/africa/item '
        'where $i/quantity > 1.2.3 return $i/name'])
    def test_malformed_number_is_a_query_parse_error(self, executor, text):
        from repro.xquery.errors import QueryParseError

        with pytest.raises(QueryParseError, match="malformed number '1.2.3'"):
            executor.execute(text)


class TestIndexExecution:
    def test_index_plan_used_and_results_identical_to_scan(self, executor):
        scan_result = executor.execute(SELECTIVE)
        executor.create_indexes([ID_INDEX])
        indexed_result = executor.execute(SELECTIVE)
        assert indexed_result.used_index_plan
        assert indexed_result.result_count == scan_result.result_count
        assert indexed_result.documents_examined < scan_result.documents_examined
        assert indexed_result.index_entries_scanned > 0

    def test_general_index_also_produces_correct_results(self, executor):
        scan_result = executor.execute(RANGE)
        executor.create_indexes([QUANTITY_INDEX])
        indexed_result = executor.execute(RANGE)
        assert indexed_result.result_count == scan_result.result_count

    def test_conjunctive_query_intersects_indexes(self, executor):
        query = ('for $i in doc("x")/site/regions/africa/item '
                 'where $i/quantity > 90 and $i/payment = "Creditcard" return $i/name')
        scan_result = executor.execute(query)
        executor.create_indexes([
            QUANTITY_INDEX,
            IndexDefinition.create("/site/regions/*/item/payment", ValueType.VARCHAR),
        ])
        indexed_result = executor.execute(query)
        assert indexed_result.result_count == scan_result.result_count

    def test_create_indexes_idempotent(self, executor):
        built_first = executor.create_indexes([ID_INDEX])
        built_again = executor.create_indexes([ID_INDEX])
        assert built_first and not built_again
        assert executor.materialized_index_count == 1

    def test_drop_all_indexes(self, executor, varied_database):
        executor.create_indexes([ID_INDEX])
        executor.drop_all_indexes()
        assert executor.materialized_index_count == 0
        assert varied_database.catalog.physical_indexes == []

    def test_execution_result_describe(self, executor):
        result = executor.execute(SELECTIVE)
        text = result.describe()
        assert "doc(s) examined" in text


class TestWorkloadMeasurement:
    def test_measure_with_and_without_configuration(self, varied_database):
        workload = Workload(name="m")
        workload.add(SELECTIVE, frequency=2.0)
        workload.add(RANGE, frequency=1.0)
        configuration = IndexConfiguration([ID_INDEX, QUANTITY_INDEX])
        measurements = measure_workload(varied_database, workload, configuration)
        assert set(measurements) == {"no-indexes", "recommended"}
        baseline = measurements["no-indexes"]
        indexed = measurements["recommended"]
        assert baseline.queries_using_indexes == 0
        assert indexed.queries_using_indexes >= 1
        assert indexed.documents_examined < baseline.documents_examined
        # Result counts must agree query by query.
        for base_row, indexed_row in zip(baseline.per_query, indexed.per_query):
            assert base_row.result_count == indexed_row.result_count
        # Catalog left clean.
        assert varied_database.catalog.physical_indexes == []

    def test_measure_without_configuration(self, varied_database):
        workload = Workload(name="m2")
        workload.add(SELECTIVE)
        measurements = measure_workload(varied_database, workload)
        assert set(measurements) == {"no-indexes"}

    def test_updates_skipped_in_measurement(self, varied_database):
        workload = Workload(name="m3")
        workload.add(SELECTIVE)
        workload.add("delete node /site/people/person")
        measurements = measure_workload(varied_database, workload)
        assert measurements["no-indexes"].query_count == 1

    def test_measurement_describe(self, varied_database):
        workload = Workload(name="m4")
        workload.add(SELECTIVE)
        measurement = measure_workload(varied_database, workload)["no-indexes"]
        assert "queries" in measurement.describe()

    def test_accepts_normalized_queries(self, varied_database):
        queries = [normalize_statement(SELECTIVE, query_id="nq1")]
        measurements = measure_workload(varied_database, queries)
        assert measurements["no-indexes"].query_count == 1
