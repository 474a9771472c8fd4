"""Tests for the unified telemetry plane (PR 10).

Three coordinated properties are pinned here:

* **Registry semantics** -- counters/gauges/fixed-bound histograms,
  instance -> parent -> global chaining (recordings propagate up,
  ``reset`` stays local), deterministic JSON/Prometheus exports with
  wall-derived metrics excluded by default.
* **Tracing is observe-only** -- results with and without a span tree
  are byte-identical (counts, documents examined, extracted values),
  the tree carries the documented span names, and tracing arms per
  call, per executor, or process-wide via ``REPRO_TRACE``.
* **Counter migration equivalence** -- every legacy ad-hoc counter
  attribute (``scan_fallbacks``, ``plan_calls``, ...) stays byte-equal
  to its registry metric across real workloads, including the legacy
  ``executor.counter = 0`` reset idiom.
"""

from __future__ import annotations

import json

import pytest

from _support import (
    EVALUATOR_COUNTERS,
    EXECUTOR_COUNTERS,
    OPTIMIZER_COUNTERS,
    assert_counter_parity,
)
from repro.advisor.advisor import XmlIndexAdvisor
from repro.advisor.benefit import ConfigurationEvaluator
from repro.executor.executor import QueryExecutor
from repro.index.definition import IndexConfiguration, IndexDefinition
from repro.telemetry import (
    CacheStatistics,
    CostAccounting,
    MetricsRegistry,
    Span,
    global_registry,
    reset_global_registry,
    span,
    tracing_armed,
)
from repro.xquery.model import ValueType, Workload
from repro.xquery.normalizer import normalize_workload

SELECTIVE = ('for $p in doc("x")/site/people/person '
             'where $p/@id = "p7" return $p/name')
RANGE = ('for $i in doc("x")/site/regions/africa/item '
         'where $i/quantity > 90 return $i/name')
EXTRACTING = ('for $i in doc("x")/site/regions/africa/item '
              'where $i/payment = "Creditcard" return $i/name')
ID_INDEX = IndexDefinition.create("/site/people/person/@id", ValueType.VARCHAR)


@pytest.fixture
def executor(varied_database):
    executor = QueryExecutor(varied_database)
    yield executor
    executor.drop_all_indexes()


# ----------------------------------------------------------------------
# Registry primitives
# ----------------------------------------------------------------------
class TestCounter:
    def test_inc_accumulates(self):
        counter = MetricsRegistry().counter("a.b")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_negative_increment_rejected(self):
        counter = MetricsRegistry().counter("a.b")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_reset_sets_local_value(self):
        counter = MetricsRegistry().counter("a.b")
        counter.inc(7)
        counter.reset()
        assert counter.value == 0
        counter.reset(3)
        assert counter.value == 3


class TestGauge:
    def test_last_write_wins(self):
        gauge = MetricsRegistry().gauge("g.x")
        gauge.set(2)
        gauge.set(1.5)
        assert gauge.value == 1.5


class TestHistogram:
    def test_upper_edges_are_inclusive(self):
        # Prometheus `le` semantics: observe(bound) lands in the bucket
        # whose edge it names, not the next one.
        histogram = MetricsRegistry().histogram("h.x", [1, 10])
        for value in (0.5, 1, 1.5, 10, 11):
            histogram.observe(value)
        assert histogram.bucket_counts == [2, 2, 1]
        assert histogram.count == 5
        assert histogram.total == pytest.approx(24.0)

    def test_bounds_must_be_increasing_and_nonempty(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.histogram("h.empty", [])
        with pytest.raises(ValueError):
            registry.histogram("h.bad", [5, 5])


class TestRegistry:
    def test_get_or_create_returns_same_object(self):
        registry = MetricsRegistry()
        assert registry.counter("a.b") is registry.counter("a.b")

    def test_type_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("a.b")
        with pytest.raises(ValueError):
            registry.gauge("a.b")
        with pytest.raises(ValueError):
            registry.histogram("a.b", [1, 2])

    def test_histogram_rebinding_bounds_rejected(self):
        registry = MetricsRegistry()
        registry.histogram("h.x", [1, 2])
        with pytest.raises(ValueError):
            registry.histogram("h.x", [1, 3])
        # Same bounds: the existing metric comes back.
        assert registry.histogram("h.x", [1, 2]).bounds == (1.0, 2.0)

    @pytest.mark.parametrize("name", ["", "a..b", "a b", "a.b!", ".a"])
    def test_invalid_names_rejected(self, name):
        with pytest.raises(ValueError):
            MetricsRegistry().counter(name)

    def test_value_defaults_to_zero_and_rejects_histograms(self):
        registry = MetricsRegistry()
        assert registry.value("never.registered") == 0
        registry.histogram("h.x", [1])
        with pytest.raises(ValueError):
            registry.value("h.x")

    def test_recordings_propagate_to_parent(self):
        parent = MetricsRegistry()
        child = MetricsRegistry(parent=parent)
        child.counter("c.x").inc(2)
        child.gauge("g.x").set(4)
        child.histogram("h.x", [1, 2]).observe(1.5)
        assert parent.value("c.x") == 2
        assert parent.value("g.x") == 4.0
        assert parent.get("h.x").count == 1

    def test_reset_is_local_parent_keeps_totals(self):
        parent = MetricsRegistry()
        child = MetricsRegistry(parent=parent)
        child.counter("c.x").inc(5)
        child.counter("c.x").reset()
        assert child.value("c.x") == 0
        assert parent.value("c.x") == 5

    def test_wall_metrics_excluded_from_default_exports(self):
        registry = MetricsRegistry()
        registry.counter("logical.count").inc()
        registry.histogram("wall.seconds", [0.1], wall=True).observe(0.05)
        assert set(registry.snapshot()) == {"logical.count"}
        assert set(registry.snapshot(include_wall=True)) == {
            "logical.count", "wall.seconds"}
        assert "wall_seconds" not in registry.to_prometheus()
        assert "wall_seconds" in registry.to_prometheus(include_wall=True)

    def test_to_json_is_deterministic_and_sorted(self):
        def build():
            registry = MetricsRegistry()
            registry.counter("z.last").inc(3)
            registry.counter("a.first").inc(1)
            registry.histogram("m.middle", [1, 2]).observe(1)
            return registry.to_json()

        first, second = build(), build()
        assert first == second
        payload = json.loads(first)
        assert list(payload) == sorted(payload)
        assert payload["m.middle"]["buckets"] == [1, 0, 0]

    def test_prometheus_rendering(self):
        registry = MetricsRegistry()
        registry.counter("executor.queries.executed").inc(3)
        registry.histogram("h.x", [1, 10]).observe(1)
        text = registry.to_prometheus()
        assert "# TYPE executor_queries_executed counter" in text
        assert "executor_queries_executed 3" in text
        # Cumulative bucket counts with an explicit +Inf bucket.
        assert 'h_x_bucket{le="1.0"} 1' in text
        assert 'h_x_bucket{le="10.0"} 1' in text
        assert 'h_x_bucket{le="+Inf"} 1' in text
        assert "h_x_count 1" in text

    def test_global_registry_is_process_wide_root(self):
        reset_global_registry()
        child = MetricsRegistry(parent=global_registry())
        child.counter("test.global.chain").inc(2)
        assert global_registry().value("test.global.chain") == 2
        reset_global_registry()
        assert global_registry().value("test.global.chain") == 0


class TestCacheStatistics:
    def test_ratios(self):
        stats = CacheStatistics(plan_cache_hits=3, plan_cache_misses=1,
                                memo_hits=10, memo_misses=5)
        assert stats.plan_cache_ratio == pytest.approx(0.75)
        assert stats.memo_ratio == pytest.approx(10 / 15)

    def test_zero_totals_do_not_divide(self):
        assert CacheStatistics().plan_cache_ratio == 0.0
        assert CacheStatistics().memo_ratio == 0.0

    def test_describe(self):
        stats = CacheStatistics(plan_cache_hits=3, plan_cache_misses=1,
                                memo_hits=10, memo_misses=5)
        assert stats.describe() == (
            "plan cache 3/4 hits (75.0%), evaluator memo 10/15 hits (66.7%)")


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class TestSpan:
    def test_tree_building_and_walk(self):
        root = Span("query", query_id="q1")
        plan = root.child("plan", plan_shape="document-scan")
        root.child("scan")
        plan.annotate(plan_cache="miss")
        assert [node.name for node in root.walk()] == ["query", "plan", "scan"]
        assert root.find("plan") is plan
        assert root.find("missing") is None
        assert plan.attrs == {"plan_shape": "document-scan",
                              "plan_cache": "miss"}

    def test_find_all(self):
        root = Span("query")
        root.child("route")
        root.child("route")
        assert len(root.find_all("route")) == 2

    def test_render_indents_and_sorts_attrs(self):
        root = Span("query", query_id="q1")
        root.child("scan", b=2, a=1)
        rendered = root.render(include_wall=False)
        assert rendered.splitlines() == [
            "query  query_id='q1'",
            "  scan  a=1  b=2",
        ]

    def test_to_dict_can_drop_wall_times(self):
        root = Span("query")
        root.elapsed_seconds = 0.25
        as_dict = root.to_dict()
        assert as_dict["elapsed_seconds"] == 0.25
        assert "elapsed_seconds" not in root.to_dict(include_wall=False)

    def test_span_contextmanager_noops_without_parent(self):
        with span(None, "plan") as node:
            assert node is None

    def test_span_contextmanager_records_duration_on_raise(self):
        root = Span("query")
        with pytest.raises(RuntimeError):
            with span(root, "plan") as node:
                raise RuntimeError("replanned")
        assert root.children == [node]
        assert node.elapsed_seconds >= 0.0


class TestTracingArmed:
    def test_env_arms_and_disarms(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        assert not tracing_armed()
        monkeypatch.setenv("REPRO_TRACE", "0")
        assert not tracing_armed()
        monkeypatch.setenv("REPRO_TRACE", "")
        assert not tracing_armed()
        monkeypatch.setenv("REPRO_TRACE", "1")
        assert tracing_armed()


# ----------------------------------------------------------------------
# Cost accounting
# ----------------------------------------------------------------------
def _sample(i: int, shape: str = "document-scan") -> dict:
    return dict(query_id=f"q{i}", plan_shape=shape, predicted_cost=10.0,
                measured_seconds=0.002, documents_examined=120,
                index_entries_scanned=0)


class TestCostAccounting:
    def test_capacity_keeps_oldest_and_counts_dropped(self):
        accounting = CostAccounting(capacity=2)
        for i in range(4):
            accounting.record(**_sample(i))
        assert len(accounting) == 2
        assert [s.query_id for s in accounting.samples] == ["q0", "q1"]
        assert accounting.dropped == 2

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            CostAccounting(capacity=0)

    def test_by_plan_shape_aggregates(self):
        accounting = CostAccounting()
        accounting.record(**_sample(0))
        accounting.record(**_sample(1))
        accounting.record(**_sample(2, shape="index-plan[1]"))
        shapes = accounting.by_plan_shape()
        assert shapes["document-scan"]["samples"] == 2
        assert shapes["document-scan"]["predicted_cost_total"] == pytest.approx(20.0)
        assert shapes["document-scan"]["seconds_per_cost_unit"] == \
            pytest.approx(0.004 / 20.0)
        assert shapes["index-plan[1]"]["samples"] == 1

    def test_snapshot_drops_wall_times_by_default(self):
        accounting = CostAccounting()
        accounting.record(**_sample(0))
        deterministic = accounting.snapshot()
        assert deterministic["samples"] == 1
        entry = deterministic["by_plan_shape"]["document-scan"]
        assert "measured_seconds_total" not in entry
        wall = accounting.snapshot(include_wall=True)
        assert wall["by_plan_shape"]["document-scan"][
            "measured_seconds_total"] == pytest.approx(0.002)

    def test_error_series_pairs_predicted_and_measured(self):
        accounting = CostAccounting()
        accounting.record(**_sample(0))
        assert accounting.error_series() == [
            ("q0", "document-scan", 10.0, 0.002)]


# ----------------------------------------------------------------------
# Executor tracing: observe-only span trees and cost pairing
# ----------------------------------------------------------------------
class TestExecutorTracing:
    def test_untraced_by_default(self, monkeypatch, varied_database):
        # Build a fresh executor with the arming variable absent so the
        # genuine default is exercised even when the whole suite runs
        # under REPRO_TRACE=1 (as CI's telemetry job does).
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        executor = QueryExecutor(varied_database)
        assert executor.execute(SELECTIVE).trace is None
        assert len(executor.cost_accounting.samples) == 0

    def test_traced_scan_has_documented_span_names(self, executor):
        result = executor.execute(SELECTIVE, trace=True)
        trace = result.trace
        assert trace is not None and trace.name == "query"
        names = [node.name for node in trace.walk()]
        for expected in ("parse", "compile", "plan", "route", "scan"):
            assert expected in names
        assert trace.attrs["result_count"] == result.result_count
        assert trace.attrs["documents_examined"] == result.documents_examined
        scan = trace.find("scan")
        assert scan.attrs["documents_examined"] == result.documents_examined

    def test_plan_span_attribution(self, executor):
        first = executor.execute(SELECTIVE, trace=True).trace.find("plan")
        assert first.attrs["plan_cache"] == "miss"
        assert first.attrs["plan_shape"] == "document-scan"
        assert first.attrs["predicted_cost"] > 0
        second = executor.execute(SELECTIVE, trace=True).trace.find("plan")
        assert second.attrs["plan_cache"] == "hit"

    def test_traced_index_plan_has_probe_and_residual_spans(self, executor):
        executor.create_indexes([ID_INDEX])
        result = executor.execute(SELECTIVE, trace=True)
        assert result.used_index_plan
        probe = result.trace.find("index-probe")
        assert probe is not None
        assert probe.attrs["indexes"] == [ID_INDEX.name]
        assert probe.attrs["entries_scanned"] == result.index_entries_scanned
        assert result.trace.find("residual") is not None

    @pytest.mark.parametrize("keywords, engine, materializes", [
        ({}, "columnar", False),
        ({"use_columnar": False}, "summary", True),
        ({"use_path_summary": False}, "interpreter", True),
    ])
    def test_spans_report_the_engine_that_ran(self, varied_database, keywords,
                                              engine, materializes):
        executor = QueryExecutor(varied_database, **keywords)
        scan = executor.execute(SELECTIVE, trace=True).trace.find("scan")
        assert scan.attrs["engines"] == [engine]
        assert "vectorized" not in scan.attrs
        assert (executor.scan_node_materializations > 0) == materializes
        executor.create_indexes([ID_INDEX])
        try:
            result = executor.execute(SELECTIVE, trace=True)
            assert result.used_index_plan
            assert result.trace.find("residual").attrs["engines"] == [engine]
        finally:
            executor.drop_all_indexes()

    def test_extract_span_counts_value_stream(self, executor):
        result = executor.execute(EXTRACTING, trace=True, extract_values=True)
        extract = result.trace.find("extract")
        assert extract.attrs["extracted_values"] == len(result.extracted_values)

    def test_executor_default_and_per_call_override(self, varied_database):
        executor = QueryExecutor(varied_database, trace=True)
        assert executor.execute(SELECTIVE).trace is not None
        assert executor.execute(SELECTIVE, trace=False).trace is None

    def test_env_arms_executor_default(self, varied_database, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "1")
        armed = QueryExecutor(varied_database)
        assert armed.trace_by_default
        monkeypatch.setenv("REPRO_TRACE", "0")
        disarmed = QueryExecutor(varied_database)
        assert not disarmed.trace_by_default

    def test_traced_results_byte_identical_to_untraced(self, varied_database):
        untraced = QueryExecutor(varied_database, trace=False)
        traced = QueryExecutor(varied_database, trace=True)
        for statement in (SELECTIVE, RANGE, EXTRACTING):
            plain = untraced.execute(statement, extract_values=True)
            spanned = traced.execute(statement, extract_values=True)
            assert plain.result_count == spanned.result_count
            assert plain.documents_examined == spanned.documents_examined
            assert plain.extracted_values == spanned.extracted_values

    def test_cost_accounting_pairs_only_traced_planned_queries(self, executor):
        executor.execute(SELECTIVE, trace=False)
        assert len(executor.cost_accounting.samples) == 0
        result = executor.execute(SELECTIVE, trace=True)
        samples = executor.cost_accounting.samples
        assert len(samples) == 1
        sample = samples[0]
        assert sample.plan_shape == "document-scan"
        assert sample.predicted_cost == \
            result.trace.find("plan").attrs["predicted_cost"]
        assert sample.documents_examined == result.documents_examined
        assert sample.measured_seconds > 0

    def test_queries_traced_counter(self, executor):
        executor.execute(SELECTIVE, trace=False)
        executor.execute(SELECTIVE, trace=True)
        assert executor.metrics.value("executor.queries.executed") == 2
        assert executor.metrics.value("executor.queries.traced") == 1


# ----------------------------------------------------------------------
# Counter-migration equivalence (legacy attrs == registry metrics)
# ----------------------------------------------------------------------
class TestCounterMigration:
    def test_executor_parity_across_workload(self, executor):
        executor.create_indexes([ID_INDEX])
        for statement in (SELECTIVE, RANGE, EXTRACTING):
            executor.execute(statement, extract_values=True)
        assert_counter_parity(executor, EXECUTOR_COUNTERS)
        assert_counter_parity(executor.optimizer, OPTIMIZER_COUNTERS)

    def test_legacy_reset_idiom_stays_byte_equal(self, executor):
        executor.execute(RANGE)
        assert executor.scan_node_materializations >= 0
        executor.scan_node_materializations = 0
        executor.scan_fallbacks = 0
        assert executor.metrics.value("executor.scan.node_materializations") == 0
        assert executor.metrics.value("executor.scan.fallbacks") == 0
        assert_counter_parity(executor, EXECUTOR_COUNTERS)

    def test_instance_reset_preserves_parent_totals(self, varied_database):
        reset_global_registry()
        executor = QueryExecutor(varied_database)
        executor.execute(SELECTIVE)
        executed = global_registry().value("executor.queries.executed")
        assert executed == 1
        # The legacy zeroing idiom resets the instance window only.
        executor._m_queries_executed.reset()
        assert executor.metrics.value("executor.queries.executed") == 0
        assert global_registry().value("executor.queries.executed") == executed

    def test_evaluator_parity(self, varied_database):
        workload = Workload(name="telemetry-parity")
        workload.add(RANGE, frequency=2.0)
        workload.add(SELECTIVE, frequency=1.0)
        queries = normalize_workload(workload)
        evaluator = ConfigurationEvaluator(varied_database, queries)
        index = IndexDefinition.create("/site/regions/africa/item/quantity",
                                       ValueType.DOUBLE)
        evaluator.evaluate(IndexConfiguration())
        evaluator.evaluate(IndexConfiguration((index,)))
        evaluator.evaluate(IndexConfiguration((index,)))  # memo hits
        assert evaluator.memo_hits > 0
        assert_counter_parity(evaluator, EVALUATOR_COUNTERS)
        assert_counter_parity(evaluator.optimizer, OPTIMIZER_COUNTERS)

    def test_component_chain_rolls_up_to_caller_registry(self, varied_database):
        hub = MetricsRegistry()
        executor = QueryExecutor(varied_database, registry=hub)
        executor.execute(SELECTIVE)
        assert hub.value("executor.queries.executed") == 1
        assert hub.value("optimizer.plan.calls") == \
            executor.optimizer.plan_calls


class TestGeneralizationCounters:
    NAMES = ("advisor.generalize.pairs_examined",
             "advisor.generalize.patterns_produced",
             "advisor.generalize.containment_tests")

    def _advise(self, database):
        workload = Workload(name="telemetry-generalize")
        for region in ("africa", "namerica", "asia"):
            workload.add(f'for $i in doc("x")/site/regions/{region}/item '
                         f'where $i/quantity > 90 return $i/name')
        hub = MetricsRegistry()
        advisor = XmlIndexAdvisor(database, registry=hub)
        queries = advisor.normalize(workload)
        result = advisor.generalize(advisor.enumerate_candidates(queries))
        return hub, result

    def test_work_counts_land_on_the_registry(self, varied_database):
        hub, result = self._advise(varied_database)
        assert result.generalized_count > 0
        assert [hub.value(name) for name in self.NAMES] == [
            result.pairs_examined, result.patterns_produced,
            result.containment_tests]
        assert all(hub.value(name) > 0 for name in self.NAMES)
        for name in self.NAMES:
            assert name.rsplit(".", 1)[1].replace("_", " ") in result.describe()

    def test_counts_repeat_exactly_across_runs(self, varied_database):
        first, _ = self._advise(varied_database)
        second, _ = self._advise(varied_database)
        assert first.to_json() == second.to_json()
        assert set(self.NAMES) <= set(first.names())
