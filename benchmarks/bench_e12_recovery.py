"""E12 (fault recovery): tuning through injected faults vs fault-free.

The PR 7 failure-containment layer is exercised end to end on an XMark
database (``repro.tools.recovery_compare.compare_recovery_modes``,
shared with the perf recorder):

* **clean run** -- the tuning controller converges on the training
  workload with the fault harness disarmed; the tuning phase is
  wall-timed and every query's result count recorded.
* **faulted run** -- the same protocol under a deterministic fault
  plan: transient faults at every seam plus one persistent failure of
  the first physical index build.  The staged build dies, the plan
  rolls back, the parked builds resume after a bounded backoff, and
  the loop must converge to the *same* configuration with identical
  query results.
* **degraded mode** -- one live index is marked unusable; the
  document-scan fallback must return result counts identical to the
  clean run, and the repair path must rebuild the index afterwards.

The headline number is the recovery overhead ratio (faulted tuning
wall time over clean), asserted below ``MAX_RECOVERY_OVERHEAD``.
"""

from __future__ import annotations

from conftest import BENCH_SMOKE, XMARK_SCALE, print_section

from repro.tools.recovery_compare import compare_recovery_modes
from repro.tools.report import render_table

#: Maximum accepted faulted-over-clean tuning wall-time ratio.  Roomy
#: on purpose: the faulted run re-stages every rolled-back build, so a
#: small multiple is expected; an order of magnitude is a regression.
MAX_RECOVERY_OVERHEAD = 10.0 if BENCH_SMOKE else 6.0


def test_e12_recovery_overhead_and_fallback_correctness(benchmark):
    comparison = benchmark.pedantic(
        compare_recovery_modes, kwargs={"scale": XMARK_SCALE},
        rounds=1, iterations=1)

    table = render_table(
        ["clean s", "faulted s", "overhead", "faults", "absorbed",
         "rollbacks", "converged", "results", "fallback", "repaired"],
        [[f"{comparison.clean_seconds:.4f}",
          f"{comparison.faulted_seconds:.4f}",
          f"{comparison.overhead_ratio:.2f}x",
          comparison.faults_injected,
          comparison.transients_absorbed,
          comparison.rollbacks,
          "ok" if comparison.converged else "FAIL",
          "ok" if comparison.results_identical else "FAIL",
          "ok" if comparison.fallback_identical else "FAIL",
          "ok" if comparison.repaired else "FAIL"]])
    print_section(
        f"E12 fault recovery - containment overhead (XMark scale "
        f"{XMARK_SCALE})", table)

    assert comparison.faults_injected > 0, (
        "the fault plan injected nothing; the harness is not wired")
    assert comparison.rollbacks >= 1, (
        "the persistent build fault did not force a migration rollback")
    assert comparison.converged, (
        "the faulted run did not converge to the clean configuration "
        "with a consistent catalog")
    assert comparison.results_identical, (
        "query results diverged between the clean and faulted runs")
    assert comparison.fallback_identical, (
        "the degraded-mode document-scan fallback changed query results")
    assert comparison.repaired, (
        "the repair path failed to rebuild the degraded index")
    assert comparison.overhead_ratio <= MAX_RECOVERY_OVERHEAD, (
        f"recovery overhead {comparison.overhead_ratio:.2f}x exceeds the "
        f"ceiling {MAX_RECOVERY_OVERHEAD}x")
