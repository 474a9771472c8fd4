"""Recovery-overhead comparison (shared E12 protocol).

One implementation of the fault-recovery measurement used by the E12
benchmark (``benchmarks/bench_e12_recovery.py``) and the
perf-trajectory recorder (``tools/bench_record.py``), so the guard,
the bench and the recorded numbers cannot silently diverge.

Protocol (two identical databases, same tuning policy):

* **clean run** -- a :class:`~repro.tuning.controller.TuningController`
  observes the XMark training workload and cycles until the advised
  configuration stands; the whole tuning phase is wall-timed and every
  read query's result count recorded.
* **faulted run** -- the same protocol on the second database, under a
  deterministic :class:`~repro.faults.FaultPlan`: background transient
  faults at every seam (absorbed by seam-local retries) plus one
  persistent failure of the first physical index build (forcing a full
  rollback, a backed-off retry and re-convergence).  The loop runs
  until the catalog holds the same configuration with nothing pending.
* **degraded-mode check** -- with the faulted database converged, one
  live index is marked unusable and every query re-executed: the
  document-scan fallback must return result counts identical to the
  clean run (provably unchanged results), after which the repair path
  rebuilds the index and the final configurations are compared.

The headline number is ``overhead_ratio`` -- faulted tuning wall time
over clean tuning wall time, i.e. the price of riding through every
injected fault -- gated in CI by ``REPRO_SMOKE_MAX_RECOVERY_OVERHEAD``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Tuple

from repro.executor.executor import QueryExecutor
from repro.faults import INDEX_BUILD, FaultPlan, FaultRule, inject
from repro.storage.document_store import XmlDatabase
from repro.telemetry import wall_clock
from repro.tuning.controller import TuningController, TuningPolicy
from repro.workloads.xmark import (
    XMarkConfig,
    generate_xmark_database,
    xmark_query_workload,
)
from repro.xquery.model import NormalizedQuery
from repro.xquery.normalizer import normalize_workload

#: Policy shape shared by both runs: fast backoff so the faulted run's
#: deferred retry lands within a handful of observation ticks, and an
#: attempt budget the single-shot persistent fault cannot exhaust.
TRAIN_ROUNDS = 3
MAX_RECOVERY_CYCLES = 8
SMOKE_PERIOD = 5


@dataclass(frozen=True)
class RecoveryComparison:
    """Outcome of one clean-vs-faulted recovery comparison."""

    clean_seconds: float
    faulted_seconds: float
    #: Faulted tuning wall time over clean (>= ~1; the recovery price).
    overhead_ratio: float
    #: Both runs converged to the same applied configuration with no
    #: pending builds, no quarantines and a consistent catalog.
    converged: bool
    #: Per-query result counts identical, clean vs faulted.
    results_identical: bool
    #: Degraded-mode (document-scan fallback) result counts identical to
    #: the clean run while one index was unusable.
    fallback_identical: bool
    #: The repair path rebuilt the degraded index afterwards.
    repaired: bool
    cycles_clean: int
    cycles_faulted: int
    faults_injected: int
    transients_absorbed: int
    rollbacks: int
    build_failures: int
    scan_fallbacks: int

    def describe(self) -> str:
        return (
            f"recovery: clean {self.clean_seconds:.4f}s -> faulted "
            f"{self.faulted_seconds:.4f}s ({self.overhead_ratio:.2f}x) "
            f"over {self.faults_injected} injected fault(s) "
            f"({self.transients_absorbed} absorbed, "
            f"{self.rollbacks} rollback(s)); "
            f"converged={self.converged} results={self.results_identical} "
            f"fallback={self.fallback_identical} repaired={self.repaired}")


def _recovery_policy() -> TuningPolicy:
    return TuningPolicy(retry_backoff_steps=1, retry_backoff_cap=2,
                        max_build_attempts=5)


def _recovery_plan() -> FaultPlan:
    """Transient noise at every seam plus one persistent build failure."""
    smoke = FaultPlan.smoke(period=SMOKE_PERIOD)
    return FaultPlan(rules=smoke.rules + (
        FaultRule(site=INDEX_BUILD, hits=(1,), transient=False,
                  message="E12: first physical build dies"),))


def _tune_to_convergence(controller: TuningController,
                         queries: List[NormalizedQuery]) -> Tuple[float, int]:
    """Observe + cycle until the advised configuration stands (nothing
    pending); returns (tuning wall seconds, cycles run)."""
    catalog = controller.database.catalog
    start = wall_clock()
    controller.observe(queries, rounds=TRAIN_ROUNDS)
    cycles = 0
    for _ in range(MAX_RECOVERY_CYCLES):
        event = controller.run_cycle()
        cycles += 1
        if event.applied and not catalog.pending_builds \
                and not catalog.unusable_indexes:
            break
        controller.observe(queries, rounds=1)
    return wall_clock() - start, cycles


def _result_counts(executor: QueryExecutor,
                   queries: List[NormalizedQuery]) -> Dict[str, int]:
    return {query.query_id: executor.execute(query).result_count
            for query in queries if not query.is_update}


def _live_keys(controller: TuningController) -> FrozenSet[Tuple[str, str]]:
    return controller.live_configuration_keys


def compare_recovery_modes(scale: float = 0.1, seed: int = 42,
                           disk_budget_bytes: float = 96 * 1024.0
                           ) -> RecoveryComparison:
    """Run the full clean-vs-faulted recovery protocol at ``scale``."""
    queries = normalize_workload(xmark_query_workload(name="e12"))

    def _controller() -> Tuple[XmlDatabase, QueryExecutor, TuningController]:
        database = generate_xmark_database(XMarkConfig(scale=scale, seed=seed))
        executor = QueryExecutor(database)
        policy = _recovery_policy()
        policy.disk_budget_bytes = disk_budget_bytes
        return database, executor, TuningController(
            database, executor=executor, policy=policy)

    # --- clean run ----------------------------------------------------
    _, clean_executor, clean_controller = _controller()
    clean_seconds, cycles_clean = _tune_to_convergence(clean_controller,
                                                       queries)
    clean_counts = _result_counts(clean_executor, queries)
    clean_keys = _live_keys(clean_controller)

    # --- faulted run --------------------------------------------------
    database, executor, controller = _controller()
    with inject(_recovery_plan()) as injector:
        faulted_seconds, cycles_faulted = _tune_to_convergence(controller,
                                                               queries)
        faulted_counts = _result_counts(executor, queries)
        faults_injected = len(injector.injected)
        transients_absorbed = injector.absorbed_total

    catalog = database.catalog
    converged = (_live_keys(controller) == clean_keys
                 and not catalog.pending_builds
                 and not catalog.quarantined_keys
                 and not catalog.consistency_errors())
    results_identical = faulted_counts == clean_counts

    # --- degraded-mode check ------------------------------------------
    fallback_identical = False
    repaired = False
    physical = sorted(catalog.physical_indexes, key=lambda d: d.name)
    if physical:
        victim = physical[0].name
        catalog.mark_index_unusable(victim, "E12: simulated probe failure")
        fallback_counts = _result_counts(executor, queries)
        fallback_identical = fallback_counts == clean_counts
        repaired = bool(executor.repair_indexes()) \
            and catalog.index_usable(victim)

    return RecoveryComparison(
        clean_seconds=clean_seconds,
        faulted_seconds=faulted_seconds,
        overhead_ratio=faulted_seconds / max(clean_seconds, 1e-9),
        converged=converged,
        results_identical=results_identical,
        fallback_identical=fallback_identical,
        repaired=repaired,
        cycles_clean=cycles_clean,
        cycles_faulted=cycles_faulted,
        faults_injected=faults_injected,
        transients_absorbed=transients_absorbed,
        rollbacks=controller.rollbacks,
        build_failures=controller.build_failures,
        scan_fallbacks=executor.scan_fallbacks)
