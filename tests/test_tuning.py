"""Tests for the online tuning subsystem (PR 5).

Covers the four layers -- monitor, compressor, drift detector, and the
controller loop -- plus the acceptance criteria: on a stationary
workload the online loop's configuration is byte-identical to the
offline advisor run on the same queries; after an injected workload
shift the controller detects drift and migrates; and the compressed
advisor input stays at or below the cluster cap as captured volume
grows 10x.
"""

from __future__ import annotations

import pytest

from repro.advisor.advisor import XmlIndexAdvisor
from repro.advisor.candidates import CandidateSet
from repro.advisor.config import AdvisorParameters
from repro.advisor.dag import GeneralizationDag
from repro.executor.executor import QueryExecutor
from repro.index.definition import IndexDefinition
from repro.storage.catalog import ConfigurationProvenance
from repro.tuning import (
    TuningController,
    TuningPolicy,
    WorkloadMonitor,
    compress_snapshot,
)
from repro.tuning.drift import DriftDetector, workload_distance
from repro.tuning.monitor import template_key
from repro.workloads.xmark import (
    XMarkConfig,
    generate_xmark_database,
    xmark_query_workload,
    xmark_unseen_queries,
)
from repro.xmldb import parse_document
from repro.xquery.model import ValueType
from repro.xquery.normalizer import normalize_statement, normalize_workload

from _support import TINY_SITE_XML


SCALE = 0.04
BUDGET = 96 * 1024.0


@pytest.fixture(scope="module")
def online_database():
    return generate_xmark_database(XMarkConfig(scale=SCALE, seed=11))


@pytest.fixture(scope="module")
def train_queries():
    return normalize_workload(xmark_query_workload(name="tune-train"))


@pytest.fixture(scope="module")
def shift_queries():
    return normalize_workload(xmark_unseen_queries(name="tune-shift"))


def _query(text: str, query_id: str = "q"):
    return normalize_statement(text, query_id=query_id)


def _adhoc(region: str, field: str, literal: int, query_id: str):
    return _query(
        f'for $i in doc("x.xml")/site/regions/{region}/item '
        f'where $i/{field} > {literal} return $i/name', query_id)


# ======================================================================
# Monitor
# ======================================================================
class TestWorkloadMonitor:
    def test_template_aggregation_ignores_query_ids(self):
        monitor = WorkloadMonitor()
        text = ('for $i in doc("x.xml")/site/regions/africa/item '
                'where $i/quantity > 5 return $i/name')
        first = monitor.record(_query(text, "a"))
        second = monitor.record(_query(text, "b"))
        # Entries are immutable: both arrivals land on one template key,
        # and the second record returns the accumulated entry.
        assert first.key == second.key
        assert len(monitor) == 1
        assert second.weight == pytest.approx(2.0)
        assert second.arrivals == 2

    def test_template_key_distinguishes_literals_and_paths(self):
        q1 = _adhoc("africa", "quantity", 5, "a")
        q2 = _adhoc("africa", "quantity", 6, "b")
        q3 = _adhoc("asia", "quantity", 5, "c")
        keys = {template_key(q) for q in (q1, q2, q3)}
        assert len(keys) == 3

    def test_decay_is_step_based_and_deterministic(self):
        monitor = WorkloadMonitor(decay=0.5)
        query = _adhoc("africa", "quantity", 5, "a")
        monitor.record(query)
        monitor.tick(2)
        entry = monitor.record(query)
        # 1.0 decayed over two steps (0.25) plus the fresh arrival.
        assert entry.weight == pytest.approx(1.25)
        # Snapshot decays forward without mutating the store.
        monitor.tick()
        snapshot = monitor.snapshot()
        assert snapshot.entries[0].weight == pytest.approx(0.625)
        assert monitor.snapshot().entries[0].weight == pytest.approx(0.625)

    def test_frequency_weighted_increments(self):
        from dataclasses import replace

        monitor = WorkloadMonitor()
        weighted = replace(_adhoc("africa", "quantity", 5, "a"),
                           frequency=4.0)
        monitor.record(weighted)
        assert monitor.snapshot().entries[0].weight == pytest.approx(4.0)

    def test_capacity_bound_evicts_lowest_weight(self):
        monitor = WorkloadMonitor(capacity=2)
        heavy = _adhoc("africa", "quantity", 1, "a")
        monitor.record(heavy)
        monitor.record(heavy)
        monitor.record(_adhoc("asia", "quantity", 2, "b"))
        monitor.record(_adhoc("europe", "quantity", 3, "c"))
        assert len(monitor) == 2
        assert monitor.shed_weight == pytest.approx(1.0)
        keys = {entry.key for entry in monitor.snapshot().entries}
        assert template_key(heavy) in keys

    def test_newly_hot_template_survives_a_full_store(self):
        """A template arriving into a full store must be able to
        accumulate weight (the eviction picks a resident, not the
        newcomer), or a complete workload shift would stay invisible."""
        monitor = WorkloadMonitor(capacity=2, decay=1.0)
        for _ in range(3):
            monitor.record(_adhoc("africa", "quantity", 1, "a"))
            monitor.record(_adhoc("asia", "quantity", 2, "b"))
        newcomer = _adhoc("europe", "quantity", 3, "c")
        for _ in range(4):
            monitor.record(newcomer)
        entry = next(e for e in monitor.snapshot().entries
                     if e.key == template_key(newcomer))
        assert entry.weight == pytest.approx(4.0)

    def test_snapshot_prunes_below_weight_floor(self):
        monitor = WorkloadMonitor(decay=0.5)
        stale = _adhoc("africa", "quantity", 1, "a")
        monitor.record(stale)
        monitor.tick(10)  # decays to ~0.001
        fresh = _adhoc("asia", "quantity", 2, "b")
        for _ in range(5):
            monitor.record(fresh)
        snapshot = monitor.snapshot(min_weight_fraction=0.01)
        assert [entry.key for entry in snapshot.entries] == \
            [template_key(fresh)]
        assert snapshot.shed_weight > 0
        # Pruning is per snapshot, not a store mutation: repeated
        # snapshots report the same shed weight (no double counting)
        # and the store still holds both templates.
        again = monitor.snapshot(min_weight_fraction=0.01)
        assert again.shed_weight == pytest.approx(snapshot.shed_weight)
        assert monitor.shed_weight == 0.0
        assert len(monitor) == 2

    def test_snapshot_orders_by_weight_then_key(self):
        monitor = WorkloadMonitor()
        a, b = _adhoc("africa", "quantity", 1, "a"), \
            _adhoc("asia", "quantity", 2, "b")
        monitor.record(b)
        monitor.record(a)
        monitor.record(a)
        snapshot = monitor.snapshot()
        assert [e.key for e in snapshot.entries] == \
            [template_key(a), template_key(b)]

    @pytest.mark.parametrize("decay", [1.0, 0.5, 0.9])
    def test_eviction_victim_matches_the_min_with_callbacks(self, decay):
        """The inline eviction pass picks the victim the pre-PR-14
        ``min(..., key=lambda ...)`` picked (same decayed weight, key
        tie-break) and sheds the same weight, bit for bit."""
        import random

        class ReferenceMonitor(WorkloadMonitor):
            def _evict_one(self, protect=None):
                victim = min(
                    (e for e in self._entries.values() if e.key != protect),
                    key=lambda e: (e.weight_at(self.step, self.decay), e.key))
                self._shed_weight += victim.weight_at(self.step, self.decay)
                self._m_shed_weight.set(self._shed_weight)
                del self._entries[victim.key]

        queries = [_adhoc(region, "quantity", literal, "q")
                   for region in ("africa", "asia", "europe")
                   for literal in range(8)]
        rng = random.Random(int(decay * 10))
        ours = WorkloadMonitor(capacity=6, decay=decay)
        reference = ReferenceMonitor(capacity=6, decay=decay)
        evictions = 0
        for _ in range(600):
            if rng.random() < 0.2:
                steps = rng.randint(0, 3)
                ours.tick(steps)
                reference.tick(steps)
            # Mostly single arrivals of many templates: weights tie.
            query = rng.choice(queries)
            evictions += (len(ours) == ours.capacity
                          and template_key(query) not in ours._entries)
            ours.record(query)
            reference.record(query)
            assert list(ours._entries.items()) == list(reference._entries.items())
            assert ours.shed_weight == reference.shed_weight
        assert evictions > 100

    def test_executor_capture_hook_records_cost_proxy(self, online_database,
                                                      train_queries):
        monitor = WorkloadMonitor()
        executor = QueryExecutor(online_database, monitor=monitor)
        executor.execute(train_queries[0])
        assert monitor.recorded == 1
        entry = monitor.snapshot().entries[0]
        assert entry.cost_proxy is not None and entry.cost_proxy > 0
        executor.attach_monitor(None)
        executor.execute(train_queries[0])
        assert monitor.recorded == 1  # detached


# ======================================================================
# Compressor
# ======================================================================
class TestCompressor:
    def test_identity_at_or_below_cap(self):
        monitor = WorkloadMonitor()
        for i, region in enumerate(("africa", "asia", "europe")):
            monitor.record(_adhoc(region, "quantity", 5, f"q{i}"))
        compressed = compress_snapshot(monitor.snapshot(), cluster_cap=3)
        assert len(compressed.clusters) == 3
        assert all(cluster.member_count == 1
                   for cluster in compressed.clusters)
        assert compressed.truncated_weight == 0.0
        # Weights become the representative queries' frequencies.
        assert all(cluster.query.frequency == pytest.approx(cluster.weight)
                   for cluster in compressed.clusters)

    def test_literal_folding_above_cap(self):
        monitor = WorkloadMonitor()
        for literal in range(10):
            monitor.record(_adhoc("africa", "quantity", literal, f"q{literal}"))
        monitor.record(_adhoc("asia", "price", 3, "other"))
        compressed = compress_snapshot(monitor.snapshot(), cluster_cap=4)
        assert len(compressed.clusters) == 2
        folded = max(compressed.clusters, key=lambda c: c.weight)
        assert folded.member_count == 10
        assert folded.weight == pytest.approx(10.0)

    def test_containment_clustering_reaches_cap(self):
        monitor = WorkloadMonitor()
        regions = ("africa", "asia", "australia", "europe", "namerica",
                   "samerica")
        for i, region in enumerate(regions):
            for field in ("quantity", "price"):
                monitor.record(_adhoc(region, field, i, f"{region}-{field}"))
        snapshot = monitor.snapshot()
        assert len(snapshot.entries) == 12
        compressed = compress_snapshot(snapshot, cluster_cap=4)
        assert len(compressed.clusters) == 4
        assert compressed.truncated_weight == 0.0
        # No captured weight was lost: the clusters partition it.
        assert compressed.total_weight == pytest.approx(
            snapshot.total_weight)
        assert sum(c.member_count for c in compressed.clusters) == 12

    def test_unmergeable_shapes_truncate_with_accounting(self):
        monitor = WorkloadMonitor()
        # Different operators and value types cannot align, so these
        # three shapes are provably uncluster-able.
        texts = [
            'for $p in doc("x")/site/people/person '
            'where $p/@id = "person0" return $p/name',
            'for $a in doc("x")/site/open_auctions/open_auction '
            'where $a/current > 10 return $a/itemref',
            'for $p in doc("x")/site/people/person '
            'where $p/profile/age >= 30 return $p/name',
        ]
        for i, text in enumerate(texts):
            for _ in range(3 - i):
                monitor.record(_query(text, f"q{i}"))
        compressed = compress_snapshot(monitor.snapshot(), cluster_cap=2)
        assert len(compressed.clusters) == 2
        assert compressed.truncated_weight == pytest.approx(1.0)
        # Highest-weight shapes survive.
        assert [c.weight for c in compressed.clusters] == [3.0, 2.0]

    def test_bounded_as_volume_grows_10x(self):
        """Acceptance: the compressed advisor input stays at or below
        the cluster cap while captured volume grows 10x."""
        cap = 8

        def flood(volume: int):
            monitor = WorkloadMonitor()
            regions = ("africa", "asia", "australia", "europe",
                       "namerica", "samerica")
            for i in range(volume):
                monitor.record(_adhoc(regions[i % 6],
                                      ("quantity", "price")[(i // 6) % 2],
                                      i % 89, f"q{i}"))
            snapshot = monitor.snapshot()
            return snapshot, compress_snapshot(snapshot, cap)

        snapshot_1x, compressed_1x = flood(50)
        snapshot_10x, compressed_10x = flood(500)
        assert len(snapshot_10x.entries) > len(snapshot_1x.entries)
        assert len(compressed_1x.clusters) <= cap
        assert len(compressed_10x.clusters) <= cap


# ======================================================================
# Drift
# ======================================================================
class TestDrift:
    def test_workload_distance_extremes(self):
        monitor = WorkloadMonitor()
        empty = monitor.snapshot()
        assert workload_distance(empty, None) == 0.0
        monitor.record(_adhoc("africa", "quantity", 1, "a"))
        snapshot = monitor.snapshot()
        assert workload_distance(snapshot, None) == 1.0
        assert workload_distance(snapshot, snapshot) == 0.0
        other = WorkloadMonitor()
        other.record(_adhoc("asia", "price", 2, "b"))
        assert workload_distance(snapshot, other.snapshot()) == \
            pytest.approx(1.0)

    def test_workload_distance_is_distribution_based(self):
        """Uniformly scaled traffic (more volume, same mix) is zero
        drift -- only the mix matters."""
        base = WorkloadMonitor()
        scaled = WorkloadMonitor()
        for count, monitor in ((1, base), (5, scaled)):
            for _ in range(count):
                monitor.record(_adhoc("africa", "quantity", 1, "a"))
                monitor.record(_adhoc("asia", "price", 2, "b"))
        assert workload_distance(scaled.snapshot(), base.snapshot()) == \
            pytest.approx(0.0)

    def test_data_drift_accumulates_and_rebases(self, tiny_database):
        detector = DriftDetector(tiny_database)
        assert detector.data_drift() == 0.0
        tiny_database.collection("site").add_document(
            parse_document(TINY_SITE_XML))
        drift = detector.data_drift()
        assert 0.0 < drift <= 1.0
        detector.rebase()
        assert detector.data_drift() == 0.0

    def test_assess_combines_weighted_components(self, tiny_database):
        detector = DriftDetector(tiny_database, threshold=0.4,
                                 workload_weight=1.0, data_weight=1.0)
        monitor = WorkloadMonitor()
        monitor.record(_adhoc("africa", "quantity", 1, "a"))
        report = detector.assess(monitor.snapshot(), baseline=None)
        assert report.workload_drift == 1.0
        assert report.data_drift == 0.0
        assert report.score == pytest.approx(0.5)
        assert report.exceeded
        stable = detector.assess(monitor.snapshot(), monitor.snapshot())
        assert stable.score == 0.0 and not stable.exceeded


# ======================================================================
# Controller
# ======================================================================
class TestPolicyValidation:
    @pytest.mark.parametrize("overrides, message", [
        ({"drift_threshold": -0.1}, "drift threshold must be non-negative"),
        ({"workload_weight": -1.0}, "drift weights must be non-negative"),
        ({"data_weight": -1.0}, "drift weights must be non-negative"),
        ({"workload_weight": 0.0, "data_weight": 0.0},
         "at least one drift weight must be positive"),
        ({"cluster_cap": 0}, "cluster_cap must be at least 1"),
        ({"min_weight_fraction": 1.0},
         "min_weight_fraction must be in [0, 1)"),
        ({"min_captured_weight": -1.0},
         "min_captured_weight must be non-negative"),
        ({"disk_budget_bytes": 0.0},
         "disk budget must be positive when set"),
        ({"build_budget_bytes": -5.0},
         "build budget must be positive when set"),
        ({"monitor_capacity": 0}, "monitor_capacity must be at least 1"),
        ({"decay": 0.0}, "decay must be in (0, 1]"),
        ({"decay": 1.5}, "decay must be in (0, 1]"),
        ({"max_build_attempts": 0},
         "max_build_attempts must be at least 1"),
        ({"retry_backoff_steps": 0},
         "retry_backoff_steps must be at least 1"),
        ({"retry_backoff_cap": 0},
         "retry_backoff_cap must be at least 1"),
    ])
    def test_rejects_non_positive_numeric_fields(self, overrides, message):
        policy = TuningPolicy(**overrides)
        with pytest.raises(ValueError) as excinfo:
            policy.validate()
        assert str(excinfo.value) == message

    def test_defaults_validate(self):
        TuningPolicy().validate()


class TestController:
    def _controller(self, database, **policy_overrides):
        policy = TuningPolicy(disk_budget_bytes=BUDGET, decay=0.5,
                              min_weight_fraction=0.02, **policy_overrides)
        return TuningController(database, policy=policy)

    def test_idle_without_traffic(self, online_database):
        controller = self._controller(online_database)
        event = controller.run_cycle()
        assert event.action == "idle"
        assert controller.live_configuration_keys == frozenset()
        controller.executor.drop_all_indexes()

    def test_dry_run_plans_without_applying(self, online_database,
                                            train_queries):
        controller = self._controller(online_database, dry_run=True)
        controller.observe(train_queries, rounds=2)
        event = controller.run_cycle()
        assert event.action == "planned" and not event.applied
        assert event.plan is not None and len(event.plan.builds) > 0
        assert controller.live_configuration_keys == frozenset()
        assert online_database.catalog.configuration_provenance is None

    def test_stationary_convergence_byte_identical(self, online_database,
                                                   train_queries):
        """Acceptance: the online loop's final configuration equals the
        offline advisor's on the same queries, and a further stationary
        cycle does not oscillate."""
        offline = XmlIndexAdvisor(
            online_database, AdvisorParameters(disk_budget_bytes=BUDGET))
        offline_keys = frozenset(
            d.key for d in offline.recommend(
                xmark_query_workload(name="tune-offline")).configuration)

        controller = self._controller(online_database)
        try:
            controller.observe(train_queries, rounds=3)
            event = controller.run_cycle()
            assert event.action == "migrated" and event.applied
            assert controller.live_configuration_keys == offline_keys

            # Provenance: the advised-on snapshot and signature landed
            # in the catalog.
            provenance = online_database.catalog.configuration_provenance
            assert provenance is not None
            assert frozenset(provenance.index_keys) == offline_keys
            assert provenance.data_signature == \
                online_database.data_signature()
            assert provenance.advised_step == controller.monitor.step

            # Post-migration plan-cache coherence: the same executor now
            # serves the workload through the new indexes.
            plans_used = sum(
                1 for query in train_queries
                if controller.executor.execute(query).used_index_plan)
            assert plans_used > 0

            # Stationary stability: same mix, no re-tuning.
            controller.observe(train_queries, rounds=2)
            assert controller.run_cycle().action == "idle"
        finally:
            controller.executor.drop_all_indexes()
            online_database.catalog.record_configuration_provenance(None)

    def test_shift_detection_and_migration(self, online_database,
                                           train_queries, shift_queries):
        """Acceptance: an injected workload shift is detected and the
        controller migrates (drops stale indexes, builds new ones)."""
        controller = self._controller(online_database)
        try:
            controller.observe(train_queries, rounds=3)
            controller.run_cycle()
            before = controller.live_configuration_keys

            controller.observe(shift_queries, rounds=10)
            event = controller.run_cycle()
            assert event.report is not None and event.report.exceeded
            assert event.action == "migrated"
            assert len(event.plan.drops) > 0
            after = controller.live_configuration_keys
            assert after != before

            offline = XmlIndexAdvisor(
                online_database, AdvisorParameters(disk_budget_bytes=BUDGET))
            offline_keys = frozenset(
                d.key for d in offline.recommend(
                    xmark_unseen_queries(name="tune-offline-shift")
                ).configuration)
            assert after == offline_keys

            # Audit trail captured every cycle.
            assert [e.action for e in controller.events] == \
                ["migrated", "migrated"]
            assert "DRIFTED" in controller.audit_trail()
        finally:
            controller.executor.drop_all_indexes()
            online_database.catalog.record_configuration_provenance(None)

    def test_build_budget_defers_and_resumes(self, online_database,
                                             train_queries):
        controller = self._controller(online_database,
                                      build_budget_bytes=2048.0)
        try:
            controller.observe(train_queries, rounds=2)
            event = controller.run_cycle()
            assert event.action == "migrated"
            assert len(event.plan.deferred) > 0
            target = event.plan.target_keys
            assert controller.live_configuration_keys < target

            # Later cycles resume the deferred builds before anything
            # else, until the target configuration stands.
            for _ in range(50):
                if controller.live_configuration_keys == target:
                    break
                assert controller.run_cycle().action == "resumed"
            assert controller.live_configuration_keys == target
            assert controller.executor.materialized_index_count == len(target)
        finally:
            controller.executor.drop_all_indexes()
            online_database.catalog.record_configuration_provenance(None)

    def test_dry_run_with_pending_builds_still_assesses_drift(
            self, online_database, train_queries):
        """Deferred builds left by an out-of-band apply() must not wedge
        a dry-run controller in a resume loop: dry-run cycles park them
        and keep assessing drift."""
        controller = self._controller(online_database, dry_run=True,
                                      build_budget_bytes=2048.0)
        try:
            controller.observe(train_queries, rounds=2)
            event = controller.run_cycle()
            assert event.action == "planned"
            assert len(event.plan.deferred) > 0
            # The operator reviews the plan and applies it directly.
            controller.apply(event.plan,
                             controller.monitor.snapshot(
                                 controller.policy.min_weight_fraction))
            assert controller._pending
            # Further dry-run cycles assess drift instead of returning
            # 'resumed' forever without draining anything.
            follow_up = controller.run_cycle()
            assert follow_up.action != "resumed"
            assert follow_up.report is not None
            # Clearing dry-run lets the pending builds drain normally.
            controller.policy.dry_run = False
            assert controller.run_cycle().action == "resumed"
        finally:
            controller.executor.drop_all_indexes()
            online_database.catalog.record_configuration_provenance(None)
            # Pending builds are durable catalog state now; clear them so
            # the shared module-scope database starts the next test clean.
            online_database.catalog.record_pending_builds(())

    def test_no_change_rebases_provenance(self, online_database,
                                          train_queries):
        controller = self._controller(online_database)
        try:
            controller.observe(train_queries, rounds=3)
            first = controller.run_cycle()
            assert first.action == "migrated"
            advised_step = online_database.catalog \
                .configuration_provenance.advised_step
            # Force a re-advise despite zero drift: the recommendation
            # matches the live configuration, so the plan is empty and
            # only the provenance moves forward.  The policy is the
            # single source of truth for the threshold, so a runtime
            # change takes effect on the next cycle.
            controller.policy.drift_threshold = 0.0
            controller.observe(train_queries, rounds=1)
            second = controller.run_cycle()
            assert second.action == "no-change"
            assert second.plan.is_empty
            assert online_database.catalog.configuration_provenance \
                .advised_step > advised_step
        finally:
            controller.executor.drop_all_indexes()
            online_database.catalog.record_configuration_provenance(None)


# ======================================================================
# Executor / catalog / advisor wiring
# ======================================================================
class TestWiring:
    def test_executor_drop_indexes_is_selective(self, online_database):
        executor = QueryExecutor(online_database)
        keep = IndexDefinition.create("/site/people/person/@id",
                                      ValueType.VARCHAR)
        drop = IndexDefinition.create("/site/regions/africa/item/quantity",
                                      ValueType.DOUBLE)
        executor.create_indexes([keep, drop])
        assert executor.materialized_index_count == 2
        dropped = executor.drop_indexes(
            [drop.as_physical().name, "no-such-index"])
        assert dropped == [drop.as_physical().name]
        assert executor.materialized_index_count == 1
        names = {d.name for d in online_database.catalog.physical_indexes}
        assert names == {keep.as_physical().name}
        executor.drop_all_indexes()

    def test_catalog_provenance_roundtrip(self, tiny_database):
        provenance = ConfigurationProvenance(
            index_keys=(("/a/b", "VARCHAR"),),
            data_signature=tiny_database.data_signature(),
            advised_step=7,
            workload_snapshot="opaque")
        tiny_database.catalog.record_configuration_provenance(provenance)
        assert tiny_database.catalog.configuration_provenance is provenance

    def test_controller_copies_advisor_parameters(self, online_database):
        """A caller-set disk budget survives a policy without one, and
        the caller's parameter object is never mutated."""
        parameters = AdvisorParameters(disk_budget_bytes=BUDGET)
        controller = TuningController(online_database,
                                      advisor_parameters=parameters)
        assert parameters.disk_budget_bytes == BUDGET
        assert controller.advisor.parameters is not parameters
        assert controller.advisor.parameters.disk_budget_bytes == BUDGET
        # A budget set on the policy wins over the parameters' one.
        override = TuningController(
            online_database, advisor_parameters=parameters,
            policy=TuningPolicy(disk_budget_bytes=32 * 1024.0))
        assert override.advisor.parameters.disk_budget_bytes == 32 * 1024.0
        assert parameters.disk_budget_bytes == BUDGET

    def test_advisor_accepts_normalized_and_compressed(self, online_database,
                                                       train_queries):
        advisor = XmlIndexAdvisor(
            online_database, AdvisorParameters(disk_budget_bytes=BUDGET))
        from_workload = advisor.recommend(
            xmark_query_workload(name="entry-workload"))
        from_queries = advisor.recommend(list(train_queries))
        monitor = WorkloadMonitor()
        for query in train_queries:
            monitor.record(query)
        compressed = compress_snapshot(monitor.snapshot(), cluster_cap=64)
        from_compressed = advisor.recommend(compressed)
        # One-shot iterables must not be half-consumed by type probing.
        from_generator = advisor.recommend(q for q in train_queries)
        keys = frozenset(d.key for d in from_workload.configuration)
        assert frozenset(d.key for d in from_queries.configuration) == keys
        assert frozenset(d.key for d in from_compressed.configuration) == keys
        assert frozenset(d.key for d in from_generator.configuration) == keys

    def test_quarantined_keys_are_filtered_before_the_one_dag_build(
            self, online_database, train_queries, monkeypatch):
        advisor = XmlIndexAdvisor(
            online_database, AdvisorParameters(disk_budget_bytes=BUDGET))
        baseline = advisor.recommend(list(train_queries))
        quarantined = frozenset(
            sorted(d.key for d in baseline.configuration)[:2])
        assert quarantined

        builds = []
        build = GeneralizationDag.__init__

        def counting(self, *args, **kwargs):
            builds.append(self)
            build(self, *args, **kwargs)

        monkeypatch.setattr(GeneralizationDag, "__init__", counting)
        recommendation = advisor.recommend(list(train_queries),
                                           excluded_keys=quarantined)
        monkeypatch.undo()
        assert len(builds) == 1
        assert builds[0] is recommendation.dag

        # Unchanged against the two-build flow: generalize everything,
        # filter, rebuild the DAG over the survivors, search.
        queries = advisor.normalize(list(train_queries))
        full = advisor.generalize(advisor.enumerate_candidates(queries))
        survivors = CandidateSet(c for c in full.candidates
                                 if c.key not in quarantined)
        expected = advisor.search(survivors, GeneralizationDag(survivors),
                                  advisor.build_evaluator(queries))
        assert [c.key for c in recommendation.candidates] == \
            [c.key for c in survivors]
        assert [d.key for d in recommendation.configuration] == \
            [d.key for d in expected.configuration]
        assert recommendation.total_benefit == expected.benefit.total_benefit
        assert not {d.key for d in recommendation.configuration} & quarantined
