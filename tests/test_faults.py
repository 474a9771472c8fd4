"""Failure containment (PR 7): the deterministic fault-injection
harness, crash-safe migrations, degraded-mode execution, and the chaos
equivalence keystone.

The harness tests exercise :mod:`repro.faults` in isolation; the
containment tests drive the real tuning/executor/index/storage seams
under scripted fault plans and assert that every failure is contained
-- rolled back, retried, degraded or quarantined -- without ever
changing query results or leaving the catalog inconsistent.
"""

from __future__ import annotations

import random

import pytest

from _support import (
    EXECUTOR_COUNTERS,
    assert_counter_parity,
    build_varied_database,
)

from repro.executor.executor import QueryExecutor
from repro.faults import (
    INDEX_BUILD,
    INDEX_DELTA_APPLY,
    INDEX_DROP,
    JOURNAL_REPLAY,
    MIGRATION_COMMIT,
    SNAPSHOT_PUBLISH,
    STATS_REBUILD,
    FaultError,
    FaultInjector,
    FaultPlan,
    FaultRule,
    TransientFaultError,
    active_injector,
    fault_point,
    guarded_fault_point,
    inject,
    plan_from_env,
    registered_sites,
)
from repro.index.definition import IndexDefinition
from repro.tuning.controller import TuningController, TuningPolicy
from repro.workloads.xmark import (
    XMarkConfig,
    generate_xmark_database,
    xmark_query_workload,
)
from repro.xquery.model import ValueType
from repro.xquery.normalizer import normalize_statement, normalize_workload

SCALE = 0.04
BUDGET = 96 * 1024.0

ALL_SITES = (INDEX_BUILD, INDEX_DROP, INDEX_DELTA_APPLY, JOURNAL_REPLAY,
             STATS_REBUILD, SNAPSHOT_PUBLISH, MIGRATION_COMMIT)


@pytest.fixture(scope="module")
def train_queries():
    return normalize_workload(xmark_query_workload(name="faults-train"))


def _fresh_xmark():
    return generate_xmark_database(XMarkConfig(scale=SCALE, seed=11))


def _controller(database, **policy_overrides):
    defaults = dict(disk_budget_bytes=BUDGET, decay=0.5,
                    min_weight_fraction=0.02,
                    retry_backoff_steps=1, retry_backoff_cap=2,
                    max_build_attempts=5)
    defaults.update(policy_overrides)
    executor = QueryExecutor(database)
    return TuningController(database, executor=executor,
                            policy=TuningPolicy(**defaults))


# ----------------------------------------------------------------------
# Harness units
# ----------------------------------------------------------------------
class TestHarness:
    def test_every_seam_site_is_registered(self):
        assert set(ALL_SITES) <= set(registered_sites())

    def test_plan_rejects_unregistered_site(self):
        with pytest.raises(ValueError, match="unregistered site"):
            FaultPlan(rules=(FaultRule(site="no.such.site", hits=(1,)),))

    def test_rule_rejects_bad_hits(self):
        with pytest.raises(ValueError):
            FaultRule(site=INDEX_BUILD, hits=(0,))
        with pytest.raises(ValueError):
            FaultRule(site=INDEX_BUILD, every=-1)

    def test_smoke_plan_rejects_degenerate_period(self):
        with pytest.raises(ValueError, match="period"):
            FaultPlan.smoke(period=1)

    def test_injector_counts_hits_and_fires_on_schedule(self):
        injector = FaultInjector(
            FaultPlan.fail_hit(INDEX_BUILD, hit=2, transient=True))
        injector.consult(INDEX_BUILD)  # hit 1: passes
        with pytest.raises(FaultError) as excinfo:
            injector.consult(INDEX_BUILD)  # hit 2: fires (transient)
        assert isinstance(excinfo.value, TransientFaultError)
        injector.consult(INDEX_BUILD)  # hit 3: passes again
        assert injector.hit_count(INDEX_BUILD) == 3
        assert [f.describe() for f in injector.injected] \
            == ["index.build@2 (transient)"]

    def test_fail_hit_defaults_to_persistent(self):
        injector = FaultInjector(FaultPlan.fail_hit(INDEX_DROP))
        with pytest.raises(FaultError) as excinfo:
            injector.consult(INDEX_DROP)
        assert not isinstance(excinfo.value, TransientFaultError)

    def test_fault_point_is_noop_when_disarmed(self, monkeypatch):
        # Force the disarmed state even when the suite itself runs under
        # an ambient REPRO_FAULTS plan (the CI fault-smoke job).
        import repro.faults as faults_module
        monkeypatch.setattr(faults_module, "_ACTIVE", None)
        assert active_injector() is None
        fault_point(INDEX_BUILD)  # must not raise, must not count

    def test_inject_nests_and_restores(self):
        ambient = active_injector()  # smoke injector under REPRO_FAULTS
        outer = FaultPlan.fail_hit(INDEX_BUILD, hit=99)
        inner = FaultPlan.fail_hit(INDEX_DROP, hit=99)
        with inject(outer) as first:
            assert active_injector() is first
            with inject(inner) as second:
                assert active_injector() is second
            assert active_injector() is first
        assert active_injector() is ambient

    def test_guarded_absorbs_transient_and_counts_it(self):
        plan = FaultPlan.fail_hit(STATS_REBUILD, hit=1, transient=True)
        with inject(plan) as injector:
            guarded_fault_point(STATS_REBUILD)  # retry lands on hit 2
        assert injector.absorbed == {STATS_REBUILD: 1}
        assert injector.absorbed_total == 1

    def test_guarded_propagates_persistent(self):
        with inject(FaultPlan.fail_hit(STATS_REBUILD, hit=1)):
            with pytest.raises(FaultError):
                guarded_fault_point(STATS_REBUILD)

    def test_guarded_gives_up_on_sustained_transients(self):
        plan = FaultPlan(rules=(FaultRule(site=STATS_REBUILD, every=1),))
        with inject(plan):
            with pytest.raises(TransientFaultError):
                guarded_fault_point(STATS_REBUILD, max_retries=2)

    def test_plan_from_env_parsing(self):
        assert plan_from_env("") is None
        assert plan_from_env("0") is None
        smoke = plan_from_env("smoke")
        assert {rule.site for rule in smoke.rules} == set(registered_sites())
        plan = plan_from_env("index.build:2:persistent,stats.rebuild:1")
        assert plan.rules[0].site == INDEX_BUILD
        assert plan.rules[0].hits == (2,)
        assert not plan.rules[0].transient
        assert plan.rules[1].transient
        with pytest.raises(ValueError, match="expected"):
            plan_from_env("index.build")

    def test_smoke_plan_is_invisible_to_a_full_protocol(self, train_queries):
        """The keystone property of ``REPRO_FAULTS=smoke``: every seam
        absorbs the transient faults, so a complete observe/advise/
        migrate protocol behaves exactly as without them."""
        clean = _controller(_fresh_xmark())
        clean.observe(train_queries, rounds=3)
        clean_event = clean.run_cycle()

        noisy = _controller(_fresh_xmark())
        with inject(FaultPlan.smoke(period=7)) as injector:
            noisy.observe(train_queries, rounds=3)
            noisy_event = noisy.run_cycle()
        assert injector.injected, "the smoke plan never fired"
        assert all(f.transient for f in injector.injected)
        assert noisy_event.action == clean_event.action == "migrated"
        assert noisy.live_configuration_keys == clean.live_configuration_keys


# ----------------------------------------------------------------------
# Crash-safe migrations
# ----------------------------------------------------------------------
class TestCrashSafeMigration:
    def test_persistent_build_fault_rolls_back_whole_plan(self,
                                                          train_queries):
        controller = _controller(_fresh_xmark())
        catalog = controller.database.catalog
        controller.observe(train_queries, rounds=3)
        with inject(FaultPlan.fail_hit(INDEX_BUILD, hit=1,
                                       transient=False)):
            event = controller.run_cycle()
        assert event.action == "rolled-back"
        assert not event.applied
        assert event.error and "injected fault" in event.error
        # The catalog holds the pre-plan configuration: nothing built,
        # nothing dropped, every owed build parked durably.
        assert catalog.physical_indexes == []
        assert catalog.pending_builds
        assert catalog.consistency_errors() == []
        assert controller.rollbacks == 1
        assert controller.build_failures == 1
        report = event.robustness
        assert report is not None and report.rollbacks == 1

    def test_rolled_back_plan_retries_after_backoff_and_converges(
            self, train_queries):
        clean = _controller(_fresh_xmark())
        clean.observe(train_queries, rounds=3)
        assert clean.run_cycle().action == "migrated"

        controller = _controller(_fresh_xmark())
        catalog = controller.database.catalog
        with inject(FaultPlan.fail_hit(INDEX_BUILD, hit=1,
                                       transient=False)):
            controller.observe(train_queries, rounds=3)
            assert controller.run_cycle().action == "rolled-back"
            for _ in range(6):
                controller.observe(train_queries, rounds=1)
                event = controller.run_cycle()
                if event.applied and not catalog.pending_builds:
                    break
        assert controller.live_configuration_keys \
            == clean.live_configuration_keys
        assert catalog.pending_builds == []
        assert catalog.quarantined_keys == []
        assert catalog.consistency_errors() == []

    def test_backoff_defers_retry_until_steps_pass(self, train_queries):
        controller = _controller(_fresh_xmark(), retry_backoff_steps=4,
                                 retry_backoff_cap=32)
        with inject(FaultPlan.fail_hit(INDEX_BUILD, hit=1,
                                       transient=False)):
            controller.observe(train_queries, rounds=3)
            assert controller.run_cycle().action == "rolled-back"
        catalog = controller.database.catalog
        records = [catalog.build_failure(pending.key)
                   for pending in catalog.pending_builds]
        records = [record for record in records if record is not None]
        assert len(records) == 1
        record = records[0]
        assert record.attempts == 1
        assert record.next_retry_step > controller.monitor.step
        # The immediately-following resume defers the failed key.
        controller.observe(train_queries, rounds=1)
        event = controller.run_cycle()
        assert event.action == "resumed"
        deferred_keys = {step.definition.key for step in event.plan.deferred}
        assert record.key in deferred_keys

    def test_repeated_failures_quarantine_and_advise_excludes(
            self, train_queries):
        controller = _controller(_fresh_xmark(), max_build_attempts=1)
        catalog = controller.database.catalog
        with inject(FaultPlan.fail_hit(INDEX_BUILD, hit=1,
                                       transient=False)):
            controller.observe(train_queries, rounds=3)
            event = controller.run_cycle()
        assert event.action == "rolled-back"
        assert catalog.quarantined_keys, "first failure must quarantine " \
            "under max_build_attempts=1"
        poisoned = set(catalog.quarantined_keys)
        # Re-advising never recommends a quarantined definition again...
        recommendation = controller.advise()
        advised = {d.key for d in recommendation.configuration}
        assert not advised & poisoned
        # ...and the migration planner would skip it even if it did.
        plan = controller.plan_migration(recommendation)
        planned = {step.definition.key
                   for step in plan.builds + plan.deferred}
        assert not planned & poisoned
        assert catalog.consistency_errors() == []
        # The quarantine shows up in the robustness report.
        assert controller.robustness_report().quarantined

    def test_commit_fault_restores_dropped_indexes(self, train_queries):
        database = _fresh_xmark()
        controller = _controller(database)
        catalog = database.catalog
        controller.observe(train_queries, rounds=3)
        assert controller.run_cycle().action == "migrated"
        before = controller.live_configuration_keys
        assert before

        # Force a plan with drops: an obsolete index over a subtree the
        # training workload never queries, so re-advising drops it.
        stale = IndexDefinition.create("/site/categories/category/name",
                                       ValueType.VARCHAR)
        structure = controller.executor.build_index_structure(stale)
        controller.executor.install_index(stale, structure)
        controller.observe(train_queries, rounds=2)
        controller.policy.drift_threshold = 0.0
        with inject(FaultPlan.fail_hit(MIGRATION_COMMIT, hit=1,
                                       transient=False)):
            event = controller.run_cycle()
        assert event.action == "rolled-back"
        # The stale index survived: the commit fault hit before any
        # drop, and whatever was removed was restored.
        assert catalog.has_index(stale.name)
        assert controller.live_configuration_keys == before | {stale.key}
        assert catalog.consistency_errors() == []

    def test_resume_pending_survives_controller_restart(self,
                                                        train_queries):
        database = _fresh_xmark()
        first = _controller(database, build_budget_bytes=2048.0)
        catalog = database.catalog
        first.observe(train_queries, rounds=3)
        event = first.run_cycle()
        assert event.action == "migrated"
        assert event.plan.deferred
        target = event.plan.target_keys
        assert catalog.pending_builds

        # A brand-new controller (fresh executor, fresh monitor -- a
        # restarted process) picks the owed builds up from the catalog.
        second = _controller(database, build_budget_bytes=2048.0)
        assert second._pending  # read from the catalog, not memory
        for _ in range(50):
            if second.live_configuration_keys == target:
                break
            second.observe(train_queries, rounds=1)
            event = second.run_cycle()
            assert event.action == "resumed"
            assert catalog.consistency_errors() == []
        assert second.live_configuration_keys == target
        assert catalog.pending_builds == []

    def test_resume_is_idempotent_when_builds_already_stand(self,
                                                            train_queries):
        """Restart idempotency: pending records whose definitions are
        already physical are cleared, not re-built."""
        database = _fresh_xmark()
        controller = _controller(database)
        controller.observe(train_queries, rounds=3)
        assert controller.run_cycle().action == "migrated"
        # Simulate a crash after install but before the pending-set
        # cleanup: re-record every live definition as owed.
        from repro.storage.catalog import PendingBuild
        database.catalog.record_pending_builds(
            PendingBuild(definition=d, size_bytes=1.0, reason="crash")
            for d in database.catalog.physical_indexes)
        restarted = _controller(database)
        restarted.observe(train_queries, rounds=1)
        event = restarted.run_cycle()
        assert event.action != "rolled-back"
        assert database.catalog.pending_builds == []
        assert database.catalog.consistency_errors() == []


# ----------------------------------------------------------------------
# Degraded-mode execution
# ----------------------------------------------------------------------
class _PoisonIndex:
    """Stands in for a physical index whose probes raise."""

    def __init__(self, definition):
        self.definition = definition

    def lookup_equal(self, value):
        raise RuntimeError("poisoned probe")

    def lookup_range(self, op, value):
        raise RuntimeError("poisoned probe")

    def scan(self):
        raise RuntimeError("poisoned probe")


#: A document whose person id matches ``_SELECTIVE``'s predicate: adding
#: it to the degraded-mode database raises the query's count by one.
_EXTRA_MATCH_XML = ('<site><people><person id="p7"><name>Late Arrival</name>'
                    '</person></people></site>')


class TestDegradedMode:
    def _indexed_database(self):
        database = build_varied_database(documents=40, name="degraded")
        executor = QueryExecutor(database)
        definition = IndexDefinition.create("/site/people/person/@id",
                                            ValueType.VARCHAR)
        executor.create_indexes([definition])
        query = normalize_statement(
            'for $p in doc("x")/site/people/person '
            'where $p/@id = "p7" return $p/name', query_id="degraded-q1")
        return database, executor, definition, query

    def test_raising_probe_degrades_index_and_falls_back_to_scan(self):
        database, executor, definition, query = self._indexed_database()
        baseline = executor.execute(query)
        assert baseline.used_index_plan

        key = definition.as_physical().key
        name = definition.as_physical().name
        executor._indexes[key] = _PoisonIndex(executor._indexes[key].definition)
        degraded = executor.execute(query)
        # Results provably unchanged, served by a document scan.
        assert degraded.result_count == baseline.result_count
        assert not degraded.used_index_plan
        assert not database.catalog.index_usable(name)
        assert executor.scan_fallbacks == 1
        assert any("unusable" in event for event in executor.fallback_events)
        # Subsequent queries plan without the unusable index (no repeat
        # probe-and-fail loop).
        again = executor.execute(query)
        assert again.result_count == baseline.result_count
        assert executor.scan_fallbacks == 1

    def test_repair_rebuilds_unusable_index(self):
        database, executor, definition, query = self._indexed_database()
        baseline = executor.execute(query)
        key = definition.as_physical().key
        name = definition.as_physical().name
        executor._indexes[key] = _PoisonIndex(executor._indexes[key].definition)
        executor.execute(query)
        assert not database.catalog.index_usable(name)

        repaired = executor.repair_indexes()
        assert name in repaired
        assert database.catalog.index_usable(name)
        assert executor.index_repairs == 1
        healed = executor.execute(query)
        assert healed.used_index_plan
        assert healed.result_count == baseline.result_count
        assert database.catalog.consistency_errors() == []

    def test_journal_replay_fault_falls_back_to_rebuild(self):
        database, executor, definition, query = self._indexed_database()
        baseline = executor.execute(query)
        database.collection("site").add_document(_EXTRA_MATCH_XML)
        with inject(FaultPlan.fail_hit(JOURNAL_REPLAY, hit=1,
                                       transient=False)):
            result = executor.execute(query)
        # One more match than baseline (the added doc), served by a
        # freshly rebuilt index -- never a stale or broken structure.
        assert result.result_count == baseline.result_count + 1
        assert result.used_index_plan
        assert any("journal replay failed" in event
                   for event in executor.fallback_events)
        name = definition.as_physical().name
        assert database.catalog.index_usable(name)

    def test_delta_apply_fault_rebuilds_that_index(self):
        database, executor, definition, query = self._indexed_database()
        baseline = executor.execute(query)
        database.collection("site").add_document(_EXTRA_MATCH_XML)
        plan = FaultPlan(rules=(FaultRule(site=INDEX_DELTA_APPLY, every=1,
                                          transient=False),))
        with inject(plan):
            result = executor.execute(query)
        assert result.result_count == baseline.result_count + 1
        assert result.used_index_plan
        assert executor.index_rebuilds >= 1
        assert any("delta maintenance" in event
                   for event in executor.fallback_events)

    def test_optimizer_fault_falls_back_to_full_scan(self):
        database, executor, definition, query = self._indexed_database()
        baseline = executor.execute(query)
        plan = FaultPlan(rules=(FaultRule(site=STATS_REBUILD, every=1,
                                          transient=False),))
        database.collection("site").invalidate_statistics()
        with inject(plan):
            result = executor.execute(query)
        assert result.result_count == baseline.result_count
        assert not result.used_index_plan
        assert executor.scan_fallbacks >= 1
        # PR 10: fallback accounting survives the counter migration.
        assert_counter_parity(executor, EXECUTOR_COUNTERS)


# ----------------------------------------------------------------------
# Chaos equivalence keystone
# ----------------------------------------------------------------------
EXTRA_XMARK_DOC = (
    "<site><regions><asia><item id='chaos1'>"
    "<location>Japan</location><quantity>3</quantity>"
    "<price>77.0</price><name>chaos teapot</name>"
    "<payment>Creditcard</payment></item></asia></regions>"
    "<people><person id='chaosp'><name>Chaos Person</name>"
    "<creditcard>9999 9999</creditcard>"
    "<address><city>Kyoto</city><country>Japan</country></address>"
    "<profile income='51000.0'><age>41</age></profile></person>"
    "</people></site>")

CYCLES = 6
ADD_AT_CYCLE = 2


def _chaos_plan(seed: int) -> FaultPlan:
    """Randomized-but-deterministic: transient noise at every site plus
    one single-shot persistent fault per site, hits drawn from the
    seeded generator."""
    rng = random.Random(seed)
    rules = []
    for site in sorted(ALL_SITES):
        rules.append(FaultRule(site=site, every=rng.randint(5, 9)))
        rules.append(FaultRule(site=site, hits=(rng.randint(1, 4),),
                               transient=False,
                               message=f"chaos[{seed}] {site}"))
    return FaultPlan(rules=tuple(rules))


def _run_protocol(plan, train_queries):
    """The shared workload+migration protocol: observe, cycle, add a
    document mid-stream, settle; returns the controller (converged)."""
    database = _fresh_xmark()
    controller = _controller(database)
    catalog = database.catalog

    class _Disarmed:
        def __enter__(self):
            return None

        def __exit__(self, *exc):
            return None

    with (inject(plan) if plan is not None else _Disarmed()) as injector:
        controller.observe(train_queries, rounds=2)
        for cycle in range(CYCLES):
            if cycle == ADD_AT_CYCLE:
                database.collection("xmark").add_document(EXTRA_XMARK_DOC)
            controller.observe(train_queries, rounds=1)
            controller.run_cycle()
            # The invariant that must hold after EVERY step, mid-fault
            # included: the catalog is never in an inconsistent state.
            assert catalog.consistency_errors() == []
        # Settle: drain pending builds, heal degraded indexes, and keep
        # cycling until drift is quiescent (a chaos run that lost cycles
        # to aborts/rollbacks may still owe the final migration).
        for _ in range(12):
            event = controller.events[-1] if controller.events else None
            if not catalog.pending_builds and not catalog.unusable_indexes \
                    and not catalog.quarantined_keys and event is not None \
                    and event.action in ("idle", "no-change"):
                break
            controller.observe(train_queries, rounds=1)
            controller.run_cycle()
            assert catalog.consistency_errors() == []
    assert catalog.pending_builds == []
    assert catalog.unusable_indexes == {}
    assert catalog.quarantined_keys == []
    return controller, injector


def _final_state(controller, train_queries):
    """Everything that must be byte-identical across runs: the applied
    configuration, each index's full entry list, and query results."""
    executor = controller.executor
    keys = tuple(sorted(controller.live_configuration_keys))
    entries = {}
    for definition in controller.database.catalog.physical_indexes:
        structure = executor._indexes.get(definition.key)
        assert structure is not None, \
            f"index {definition.name!r} not materialized after settle"
        entries[definition.key] = tuple(
            (e.key, e.collection, e.doc_id, e.node_id)
            for e in structure.entries)
    results = {q.query_id: executor.execute(q).result_count
               for q in train_queries if not q.is_update}
    return keys, entries, results


@pytest.mark.parametrize("seed", [3, 17])
def test_chaos_equivalence_converges_byte_identically(seed, train_queries):
    """Keystone: randomized fault plans covering every site -- transient
    noise everywhere plus one persistent fault per site -- must leave
    the system byte-identical to the fault-free run: same applied
    configuration, same index entry lists, same query results, and a
    consistent catalog after every single step."""
    clean, _ = _run_protocol(None, train_queries)
    chaos, injector = _run_protocol(_chaos_plan(seed), train_queries)

    clean_keys, clean_entries, clean_results = _final_state(clean,
                                                            train_queries)
    chaos_keys, chaos_entries, chaos_results = _final_state(chaos,
                                                            train_queries)
    assert chaos_keys == clean_keys
    assert chaos_entries == clean_entries
    assert chaos_results == clean_results
    # The chaos run actually went through fire: faults were injected
    # and contained, not silently skipped.
    assert injector is not None and injector.injected
