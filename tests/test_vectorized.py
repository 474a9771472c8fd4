"""Equivalence tests for the set-at-a-time predicate engine (PR 9).

The engine answers value predicates with two bisects over each path's
value-sorted projection (`ColumnarStore.match_positions` /
`matching_documents`) and serves extraction values straight from the
values column.  Every test here pins the same property: the engine
returns the matching documents, extracted node ids and extracted values
of the interpretive reference (``use_columnar=False``, also what a
degraded store falls back to), **byte for byte** -- across randomized
mixed-type data (numeric-looking strings like ``"010"``, negatives,
floats, empty values), every comparison operator, interleaved
add/remove deltas, and under ``REPRO_FREEZE_SNAPSHOTS=1``.

The ``scan_node_materializations`` counter is the structural guarantee:
zero on the engine's scan path (predicates and value extraction never
left the columns), positive on the per-document interpreter.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import textwrap

from _support import (
    EXECUTOR_COUNTERS,
    TINY_SITE_XML,
    assert_counter_parity,
    build_varied_database,
)
from repro.executor.executor import QueryExecutor
from repro.storage import XmlDatabase
from repro.xmldb.nodes import build_document, normalized_node_value
from repro.xquery.normalizer import normalize_statement

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")
TESTS = os.path.dirname(os.path.abspath(__file__))

#: Mixed value pool: plain numerics, a numeric-looking string whose
#: lexicographic and numeric orders disagree ("010" < "9" numerically
#: but not as strings), negatives, floats, empty, and non-castable text.
VALUE_POOL = ["7", "010", "10", "9", "-3.5", "0", "", "drum", "7.0",
              "12abc", "100", "-41", "3.25", "carved mask"]

OPS = ["=", "!=", "<", "<=", ">", ">="]

#: String literals exercise the lexicographic compare; float literals
#: the parsed-double compare (including values no node carries).
STR_LITERALS = ["010", "7", "drum", "", "-3.5", "zzz"]
FLOAT_LITERALS = ["7.0", "0.5", "0.0", "10.0", "3.2", "1000.0"]


def _mixed_database(documents: int = 30, seed: int = 9,
                    name: str = "vec-mixed") -> XmlDatabase:
    """Randomized documents over the tiny <site> schema with values
    drawn from the mixed pool (so every operator hits genuine type
    boundaries: castable vs not, empty, negative, float)."""
    rng = random.Random(seed)
    database = XmlDatabase(name)
    collection = database.create_collection("site")
    for d in range(documents):
        doc, site = build_document("site")
        region = site.add_element("regions").add_element(
            rng.choice(["africa", "namerica"]))
        for k in range(rng.randint(1, 4)):
            item = region.add_element("item",
                                      attributes={"id": f"i{d}_{k}"})
            item.add_element("quantity", rng.choice(VALUE_POOL))
            item.add_element("price", rng.choice(VALUE_POOL))
            item.add_element("name", rng.choice(VALUE_POOL))
        collection.add_document(doc)
    return database


def _predicate_statements() -> list:
    statements = []
    for op in OPS:
        for literal in STR_LITERALS:
            statements.append(
                'for $i in doc("x")/site/regions/africa/item '
                f'where $i/quantity {op} "{literal}" return $i/name')
        for literal in FLOAT_LITERALS:
            statements.append(
                'for $i in doc("x")/site/regions/africa/item '
                f'where $i/quantity {op} {literal} return $i/name')
    # Conjunctions (set intersection) and attribute predicates.
    statements.append(
        'for $i in doc("x")/site/regions/africa/item '
        'where $i/quantity > 3.0 and $i/price < "7" return $i/name')
    statements.append(
        'for $i in doc("x")/site/regions/africa/item '
        'where $i/@id != "i0_0" return $i/quantity')
    # Conjunctions whose *later* predicates do the filtering: dropping
    # one from the intersection changes the answer.
    statements.append(
        'for $i in doc("x")/site/regions/africa/item '
        'where $i/quantity >= 0.0 and $i/price = "drum" return $i/name')
    statements.append(
        'for $i in doc("x")/site/regions/africa/item '
        'where $i/name != "" and $i/quantity >= 0.0 and $i/price < 5.0 '
        'return $i/@id')
    return statements


def _signature(executor: QueryExecutor, statement: str):
    query = normalize_statement(statement)
    result = executor.execute(query, extract=True, extract_values=True)
    return (result.result_count,
            result.documents_examined,
            tuple(node.node_id for node in result.extracted_nodes),
            tuple(result.extracted_values))


def _engine_and_interpreter(database: XmlDatabase):
    """The engine and the interpretive oracle."""
    return (QueryExecutor(database),
            QueryExecutor(database, use_columnar=False))


class TestEquivalence:
    def test_randomized_predicates_byte_identical(self):
        database = _mixed_database()
        engine, interpretive = _engine_and_interpreter(database)
        for statement in _predicate_statements():
            expected = _signature(interpretive, statement)
            assert _signature(engine, statement) == expected, statement
        # PR 10: the legacy counters became registry metrics -- parity
        # must hold after a randomized workload on every path.
        for executor in (engine, interpretive):
            assert_counter_parity(executor, EXECUTOR_COUNTERS)

    def test_navigation_only_queries(self):
        database = _mixed_database(seed=11, name="vec-nav")
        engine, interpretive = _engine_and_interpreter(database)
        for statement in ("/site/regions/africa/item/name",
                          "/site//quantity",
                          "/site/regions/*/item/@id"):
            expected = _signature(interpretive, statement)
            assert _signature(engine, statement) == expected, statement

    def test_equivalence_across_interleaved_deltas(self):
        database = _mixed_database(seed=13, name="vec-delta")
        collection = database.collection("site")
        engine, interpretive = _engine_and_interpreter(database)
        statements = _predicate_statements()[::7]
        rng = random.Random(29)
        for round_number in range(4):
            for statement in statements:
                expected = _signature(interpretive, statement)
                assert _signature(engine, statement) == expected, statement
            # Interleave an add and a remove (delta-maintained snapshots
            # carry untouched projections, rebuild touched ones).
            value = rng.choice(VALUE_POOL)
            collection.add_document(
                "<site><regions><africa><item id='d%d'>"
                "<quantity>%s</quantity><name>added</name>"
                "</item></africa></regions></site>" % (round_number, value))
            collection.remove_document(rng.randrange(len(collection)))


class TestNoMaterialization:
    def test_vectorized_value_scan_touches_no_nodes(self):
        database = build_varied_database(documents=20, name="vec-zero")
        engine = QueryExecutor(database)
        interpreter = QueryExecutor(database, use_columnar=False)
        statement = ('for $i in doc("x")/site/regions/africa/item '
                     'where $i/quantity > 50.0 return $i/name')
        result = engine.execute(statement, extract_values=True)
        expected = interpreter.execute(statement, extract_values=True)
        assert result.result_count == expected.result_count
        assert result.extracted_values == expected.extracted_values
        assert result.extracted_values  # non-degenerate workload
        assert engine.scan_node_materializations == 0, (
            "the columnar scan path materialized XmlNode lists")
        assert interpreter.scan_node_materializations > 0

    def test_index_plan_residuals_use_the_set_engine(self):
        from repro.index.definition import IndexDefinition
        from repro.xquery.model import ValueType

        database = build_varied_database(documents=40, name="vec-index")
        engine = QueryExecutor(database)
        interpreter = QueryExecutor(database, use_columnar=False)
        statement = ('for $i in doc("x")/site/regions/africa/item '
                     'where $i/quantity > 90.0 return $i/name')
        scan_expected = interpreter.execute(statement, extract_values=True)
        for executor in (engine, interpreter):
            executor.create_indexes([IndexDefinition.create(
                "/site/regions/*/item/quantity", ValueType.DOUBLE)])
        engine.scan_node_materializations = 0
        result = engine.execute(statement, extract_values=True)
        expected = interpreter.execute(statement, extract_values=True)
        assert result.used_index_plan and expected.used_index_plan
        assert result.result_count == scan_expected.result_count
        assert result.extracted_values == expected.extracted_values
        assert result.extracted_values == scan_expected.extracted_values
        assert engine.scan_node_materializations == 0
        engine.drop_all_indexes()
        interpreter.drop_all_indexes()


def _reference_values_for_pattern(store, pattern, doc_id):
    """``ColumnarStore.values_for_pattern(pattern, doc_id, ordered=True)``
    as it stood before PR 14 (one call per document per pattern, bisects
    from zero) -- the oracle for :meth:`values_for_documents`."""
    ids = store._paths_for(pattern, strict=False)
    if not ids:
        return []
    bounds = store._doc_slice(doc_id)
    if bounds is None:
        return []
    lo, hi = bounds
    if lo == hi:
        return []
    values = store.values
    if len(ids) == 1:
        return [values[p] for p in store._positions_in(ids[0], lo, hi)]
    positions = []
    for pid in ids:
        positions.extend(store._positions_in(pid, lo, hi))
    positions.sort()
    return [values[p] for p in positions]


class TestBatchedExtractionMatchesReference:
    """One ``values_for_documents`` call equals the concatenation of the
    per-document, per-pattern calls it replaced."""

    PATTERNS = ["//a", "/site/a", "/site/b/a", "//b//a", "/site/*", "//@id",
                "/site/b/@id", "//missing", "/site//*"]

    @staticmethod
    def _random_document(rng):
        from repro.xmldb.nodes import DocumentNode

        if rng.random() < 0.15:
            return DocumentNode()  # element-less: an empty slab
        doc, site = build_document("site")

        def fill(parent, depth):
            for _ in range(rng.randint(0, 3)):
                if depth < 3 and rng.random() < 0.4:
                    fill(parent.add_element(
                        "b", attributes={"id": rng.choice(VALUE_POOL)}), depth + 1)
                else:
                    parent.add_element("a", rng.choice(VALUE_POOL))

        fill(site, 0)
        return doc

    def _check(self, store, rng):
        from repro.xpath.patterns import PathPattern

        count = store.document_count
        for _ in range(25):
            patterns = [PathPattern.parse(text) for text in rng.sample(
                self.PATTERNS, rng.randint(0, 3))]
            # Ascending keys, some of them outside the store.
            keys = sorted(rng.sample(range(-2, count + 3),
                                     rng.randint(0, count + 5)))
            expected = [value for key in keys for pattern in patterns
                        for value in _reference_values_for_pattern(
                            store, pattern, key)]
            assert store.values_for_documents(patterns, keys) == expected
            assert store.values_for_documents(patterns, iter(keys)) == expected

    def test_randomized_stores(self):
        from repro.storage.columnar import build_columnar_store

        for seed in range(12):
            rng = random.Random(seed)
            store = build_columnar_store(
                self._random_document(rng) for _ in range(rng.randint(0, 12)))
            self._check(store, rng)

    def test_after_interleaved_deltas(self):
        rng = random.Random(41)
        collection = XmlDatabase("vec-batch").create_collection("site")
        for _ in range(6):
            collection.add_document(self._random_document(rng))
        for _ in range(20):
            if len(collection) > 2 and rng.random() < 0.45:
                collection.remove_document(rng.randrange(len(collection)))
            else:
                collection.add_document(self._random_document(rng))
            self._check(collection.columnar_store, rng)


class TestColumnsAndSynopsisAgree:
    """Satellite: the values column and the statistics synopsis are fed
    by one shared normalizer (`normalized_node_value`), so their
    per-path value views can never disagree."""

    def test_values_column_matches_synopsis_per_path(self):
        database = _mixed_database(seed=17, name="vec-synopsis")
        collection = database.collection("site")
        store = collection.columnar_store
        stats = database.statistics.collection_stats["site"]
        for path, stat in stats.path_stats.items():
            pid = store._path_index.get(path)
            assert pid is not None, path
            positions = store._postings[pid]
            column = [store.values[p] for p in positions]
            assert stat.node_count == len(column)
            # The synopsis records only value-bearing nodes; the column
            # stores "" for structural ones.
            assert stat.distinct_values == len(
                {value for value in column if value})
            castable = []
            for value in column:
                if not value:
                    continue
                try:
                    castable.append(float(value))
                except ValueError:
                    pass
            assert stat.numeric_count == len(castable)
            if castable:
                assert stat.min_value == min(castable)
                assert stat.max_value == max(castable)

    def test_values_column_is_normalized_node_value(self):
        database = XmlDatabase("vec-norm")
        collection = database.create_collection("site")
        collection.add_document(TINY_SITE_XML)
        store = collection.columnar_store
        for position, node in enumerate(store._nodes):
            assert store.values[position] == normalized_node_value(node)


class TestFrozenSubprocess:
    def _run(self, extra_env):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([SRC, TESTS])
        env.update(extra_env)
        snippet = """
            from test_vectorized import (_mixed_database, _signature,
                                         _predicate_statements)
            from repro.executor.executor import QueryExecutor

            database = _mixed_database(documents=8, name="vec-frozen")
            collection = database.collection("site")
            engine = QueryExecutor(database)
            interpreter = QueryExecutor(database, use_columnar=False)
            statements = _predicate_statements()[::9]
            for statement in statements:
                assert _signature(engine, statement) == \\
                    _signature(interpreter, statement), statement
            collection.add_document("<site><regions><africa><item id='z'>"
                                    "<quantity>010</quantity>"
                                    "<name>frozen</name>"
                                    "</item></africa></regions></site>")
            collection.remove_document(0)
            for statement in statements:
                assert _signature(engine, statement) == \\
                    _signature(interpreter, statement), statement
            print("VECTORIZED-OK", engine.scan_node_materializations)
        """
        return subprocess.run([sys.executable, "-c",
                               textwrap.dedent(snippet)],
                              capture_output=True, text=True, env=env)

    def test_runs_under_snapshot_freeze(self):
        completed = self._run({"REPRO_FREEZE_SNAPSHOTS": "1"})
        assert completed.returncode == 0, completed.stderr
        assert "VECTORIZED-OK" in completed.stdout

    def test_runs_under_fault_smoke(self):
        completed = self._run({"REPRO_FAULTS": "smoke",
                               "REPRO_FREEZE_SNAPSHOTS": "1"})
        assert completed.returncode == 0, completed.stderr
        assert "VECTORIZED-OK" in completed.stdout
