#!/usr/bin/env python
"""Record the advisor perf trajectory into a JSON file, one entry per PR.

Runs deterministic-workload comparisons at env-capped sizes and dumps
the numbers to ``BENCH_advisor.json`` (override with ``--output``):

* **E3 (advisor search)** -- the budget-sweep configuration search on
  the XMark training workload, legacy full re-evaluation vs the
  incremental what-if engine: wall time, per-query what-if costings,
  optimizer plan calls, and an equivalence flag.
* **E5 (execution)** -- interpretive document scan vs the columnar
  engine's scan over the XMark query workload: wall time per mode and
  the speedup (the engine's time keeps the ``summary_seconds`` field
  name, so the series stays comparable across records).
* **E7 (routing)** -- collection-scoped costing on the co-resident
  XMark+TPoX database vs the whole-database cost model: what-if
  re-costings after a single-collection document add (deterministic
  count), documents examined by routed and unrouted scans, and the
  exactness flags (results, delta benefits, cached recommendations).
* **E10 (online tuning)** -- the autonomous loop vs the offline
  advisor: stationary byte-identity, drift detection + re-convergence
  after an injected workload shift, and the bounded-compression counts
  (captured templates vs compressed clusters at 1x and 10x volume).
* **E12 (fault recovery)** -- tuning through a deterministic fault plan
  (transient faults at every seam plus one persistent build failure)
  vs fault-free: recovery wall-time overhead, convergence to the same
  configuration, and degraded-mode (document-scan fallback) result
  identity.
* **E15 (telemetry)** -- execution with per-query span-tree tracing and
  cost accounting armed (``trace=True``) vs untraced: wall time per
  mode, the overhead ratio, span/cost-sample counts, and result
  byte-identity (the observe-only gate).

Sizes are controlled by ``REPRO_SMOKE_XMARK_SCALE`` (default ``0.1``)
so CI stays fast; run with a larger scale locally for headline numbers.

The exit status doubles as a CI gate: non-zero when a comparison lost
equivalence, the routing re-costing ratio fell below
``REPRO_SMOKE_MIN_ROUTING_RATIO`` (default ``2``), the
online loop lost convergence/boundedness, its compression ratio
fell below ``REPRO_SMOKE_MIN_ONLINE_COMPRESSION`` (default ``2``), the
recovery run lost convergence/result identity, its overhead ratio
exceeded ``REPRO_SMOKE_MAX_RECOVERY_OVERHEAD`` (default ``10``), the
telemetry comparison lost result identity, or its tracing overhead
exceeded ``REPRO_SMOKE_MAX_TELEMETRY_OVERHEAD`` (default ``1.15``).

Usage::

    PYTHONPATH=src python tools/bench_record.py [--output BENCH_advisor.json]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from datetime import datetime, timezone

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro.executor.measurement import measure_scan_modes
from repro.tools.whatif_compare import compare_search_modes
from repro.workloads.xmark import (
    XMarkConfig,
    generate_xmark_database,
    xmark_query_workload,
)


def _env_float(name: str, default: float) -> float:
    """Float-valued env override (unset or unparsable falls back)."""
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return float(raw)
    except ValueError:
        return default


def _scale(default: float = 0.1) -> float:
    """``REPRO_SMOKE_XMARK_SCALE`` override (same semantics as the
    benchmark/test conftests)."""
    return _env_float("REPRO_SMOKE_XMARK_SCALE", default)


def record_e3_search(database, workload) -> dict:
    """Legacy-vs-incremental budget sweep (greedy-heuristic + top-down)."""
    sweep = compare_search_modes(database, workload)
    legacy, incr = sweep.totals["legacy"], sweep.totals["incremental"]
    return {
        "candidates": sweep.candidate_count,
        "queries": sweep.query_count,
        "legacy": {"seconds": round(legacy["seconds"], 4),
                   "query_costings": legacy["costings"],
                   "plan_calls": legacy["plan_calls"]},
        "incremental": {"seconds": round(incr["seconds"], 4),
                        "query_costings": incr["costings"],
                        "plan_calls": incr["plan_calls"]},
        "identical_configurations": sweep.identical,
        "costings_ratio": round(sweep.costings_ratio, 2),
        "time_speedup": round(sweep.time_speedup, 2),
    }


def record_e5_execution(database, workload) -> dict:
    """Interpretive scan vs columnar engine scan wall times."""
    measurements = measure_scan_modes(database, workload)
    interpretive = measurements["scan-interpretive"]
    engine = measurements["scan-engine"]
    return {
        "interpretive_seconds": round(interpretive.total_seconds, 4),
        "summary_seconds": round(engine.total_seconds, 4),
        "speedup": round(interpretive.total_seconds
                         / max(engine.total_seconds, 1e-9), 2),
    }


def record_e7_routing(scale: float) -> dict:
    """Routed vs unrouted scans + what-if re-costing (every number is a
    deterministic count or flag)."""
    from repro.tools.routing_compare import compare_routing_modes

    comparison = compare_routing_modes(scale=scale)
    return {
        "xmark_documents": comparison.xmark_documents,
        "ballast_documents": comparison.ballast_documents,
        "routed_documents_examined": comparison.routed_documents_examined,
        "unrouted_documents_examined": comparison.unrouted_documents_examined,
        "recostings_routed": comparison.recostings_routed,
        "recostings_unrouted": comparison.recostings_unrouted,
        "recosting_ratio": round(comparison.recosting_ratio, 2),
        "cross_recostings": comparison.cross_recostings,
        "identical_results": comparison.identical_results,
        "benefits_identical": comparison.benefits_identical,
        "configurations_identical": comparison.configurations_identical,
    }


def record_e15_telemetry(scale: float) -> dict:
    """Traced vs untraced execution (best of 3 comparisons by overhead
    ratio; span and cost-sample counts and the identity flag are
    deterministic)."""
    from repro.tools.telemetry_compare import compare_telemetry_modes

    best = None
    for _ in range(3):
        comparison = compare_telemetry_modes(scale=scale, repeats=5)
        if not comparison.identical_results:
            best = comparison
            break
        if best is None or comparison.overhead_ratio < best.overhead_ratio:
            best = comparison
    return {
        "documents": best.documents,
        "untraced_seconds": round(best.untraced_seconds, 4),
        "traced_seconds": round(best.traced_seconds, 4),
        "overhead_ratio": round(best.overhead_ratio, 3),
        "spans_recorded": best.spans_recorded,
        "cost_samples": best.cost_samples,
        "result_rows": best.result_rows,
        "identical_results": best.identical_results,
    }


def record_e10_online(scale: float) -> dict:
    """Online loop vs offline advisor (every flag/count deterministic:
    logical steps and template counts, no wall clock)."""
    from repro.tools.online_compare import compare_online_offline

    comparison = compare_online_offline(scale=scale)
    return {
        "stationary_identical": comparison.stationary_identical,
        "stationary_stable": comparison.stationary_stable,
        "index_plans_after_migration": comparison.index_plans_after_migration,
        "drift_detected": comparison.drift_detected,
        "drift_score": round(comparison.drift_score, 3),
        "migrated_with_drops": comparison.migrated_with_drops,
        "reconverged_identical": comparison.reconverged_identical,
        "captured_templates_1x": comparison.captured_templates_1x,
        "compressed_size_1x": comparison.compressed_size_1x,
        "captured_templates_10x": comparison.captured_templates_10x,
        "compressed_size_10x": comparison.compressed_size_10x,
        "cluster_cap": comparison.flood_cluster_cap,
        "compression_bounded": comparison.compression_bounded,
        "compression_ratio": round(comparison.compression_ratio, 2),
        # The one pass/fail predicate shared with the E10 bench and the
        # tier-1 smoke guard (OnlineComparison.converged).
        "converged": comparison.converged,
    }


def record_e12_recovery(scale: float) -> dict:
    """Clean-vs-faulted tuning recovery (counters and equivalence flags
    deterministic; the overhead ratio is the one wall-clock number)."""
    from repro.tools.recovery_compare import compare_recovery_modes

    comparison = compare_recovery_modes(scale=scale)
    return {
        "clean_seconds": round(comparison.clean_seconds, 4),
        "faulted_seconds": round(comparison.faulted_seconds, 4),
        "overhead_ratio": round(comparison.overhead_ratio, 2),
        "faults_injected": comparison.faults_injected,
        "transients_absorbed": comparison.transients_absorbed,
        "rollbacks": comparison.rollbacks,
        "build_failures": comparison.build_failures,
        "cycles_clean": comparison.cycles_clean,
        "cycles_faulted": comparison.cycles_faulted,
        "converged": comparison.converged,
        "results_identical": comparison.results_identical,
        "fallback_identical": comparison.fallback_identical,
        "repaired": comparison.repaired,
    }


def _load_history(output: str) -> list:
    """The existing trajectory at ``output``, tolerating absence.

    A missing or empty file starts a fresh series; a corrupt file is
    backed up to ``<output>.corrupt`` (so the bytes survive for
    inspection) with a warning to stderr, and the series restarts.
    """
    if not os.path.exists(output):
        return []
    try:
        with open(output, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        print(f"warning: could not read {output} ({exc}); "
              f"starting a fresh series", file=sys.stderr)
        return []
    if not text.strip():
        return []
    try:
        loaded = json.loads(text)
    except json.JSONDecodeError as exc:
        backup = output + ".corrupt"
        try:
            with open(backup, "w", encoding="utf-8") as handle:
                handle.write(text)
            where = f"backed up to {backup}"
        except OSError:
            where = "backup failed"
        print(f"warning: {output} holds invalid JSON ({exc}); {where}; "
              f"starting a fresh series", file=sys.stderr)
        return []
    return loaded if isinstance(loaded, list) else [loaded]


def _write_history(output: str, entries: list) -> None:
    with open(output, "w", encoding="utf-8") as handle:
        json.dump(entries, handle, indent=2, sort_keys=True)
        handle.write("\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default="BENCH_advisor.json",
                        help="path of the JSON file to write")
    args = parser.parse_args()

    scale = _scale()
    database = generate_xmark_database(XMarkConfig(scale=scale, seed=42))
    workload = xmark_query_workload(name="bench-record")

    entry = {
        "recorded_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "python": platform.python_version(),
        "xmark_scale": scale,
        "e3_search": record_e3_search(database, workload),
        "e5_execution": record_e5_execution(database, workload),
        "e7_routing": record_e7_routing(scale),
        "e15_telemetry": record_e15_telemetry(scale),
        "e10_online": record_e10_online(scale),
        "e12_recovery": record_e12_recovery(scale),
    }

    # Append to the trajectory (a JSON list, one entry per recording) so
    # successive PRs accumulate instead of overwriting each other.
    entries = _load_history(args.output)
    entries.append(entry)
    _write_history(args.output, entries)

    e3, e5 = entry["e3_search"], entry["e5_execution"]
    e7 = entry["e7_routing"]
    e10, e12 = entry["e10_online"], entry["e12_recovery"]
    e15 = entry["e15_telemetry"]
    print(f"wrote {args.output} (xmark scale {scale})")
    print(f"  E3: identical={e3['identical_configurations']} "
          f"costings {e3['legacy']['query_costings']}"
          f"->{e3['incremental']['query_costings']} "
          f"({e3['costings_ratio']}x), "
          f"time {e3['legacy']['seconds']}s->{e3['incremental']['seconds']}s "
          f"({e3['time_speedup']}x)")
    print(f"  E5: scan {e5['interpretive_seconds']}s -> engine "
          f"{e5['summary_seconds']}s ({e5['speedup']}x)")
    print(f"  E7: scans examine {e7['unrouted_documents_examined']}"
          f"->{e7['routed_documents_examined']} document(s), "
          f"re-costings {e7['recostings_unrouted']}"
          f"->{e7['recostings_routed']} ({e7['recosting_ratio']}x), "
          f"cross={e7['cross_recostings']}")
    print(f"  E15: identical={e15['identical_results']} "
          f"untraced {e15['untraced_seconds']}s -> traced "
          f"{e15['traced_seconds']}s ({e15['overhead_ratio']}x), "
          f"{e15['spans_recorded']} span(s), "
          f"{e15['cost_samples']} cost sample(s)")
    print(f"  E10: stationary={e10['stationary_identical']} "
          f"stable={e10['stationary_stable']} "
          f"drift={e10['drift_detected']} "
          f"reconverged={e10['reconverged_identical']} "
          f"compression {e10['captured_templates_10x']}"
          f"->{e10['compressed_size_10x']} "
          f"({e10['compression_ratio']}x, cap {e10['cluster_cap']})")
    print(f"  E12: converged={e12['converged']} "
          f"results={e12['results_identical']} "
          f"fallback={e12['fallback_identical']} "
          f"repaired={e12['repaired']} "
          f"recovery {e12['clean_seconds']}s->{e12['faulted_seconds']}s "
          f"({e12['overhead_ratio']}x over {e12['faults_injected']} "
          f"fault(s), {e12['rollbacks']} rollback(s))")

    min_routing_ratio = _env_float("REPRO_SMOKE_MIN_ROUTING_RATIO", 2.0)
    min_online_compression = _env_float(
        "REPRO_SMOKE_MIN_ONLINE_COMPRESSION", 2.0)
    if not e3["identical_configurations"]:
        return 1
    if not (e7["identical_results"] and e7["benefits_identical"]
            and e7["configurations_identical"]) or e7["cross_recostings"]:
        print("  FAIL: routing comparison lost equivalence")
        return 1
    if e7["recosting_ratio"] < min_routing_ratio:
        print(f"  FAIL: routing re-costing ratio {e7['recosting_ratio']}x "
              f"below the floor {min_routing_ratio}x")
        return 1
    if not e10["converged"]:
        print("  FAIL: online tuning loop lost convergence/boundedness")
        return 1
    if e10["compression_ratio"] < min_online_compression:
        print(f"  FAIL: online compression ratio {e10['compression_ratio']}x "
              f"below the floor {min_online_compression}x")
        return 1
    max_recovery_overhead = _env_float(
        "REPRO_SMOKE_MAX_RECOVERY_OVERHEAD", 10.0)
    if not (e12["converged"] and e12["results_identical"]
            and e12["fallback_identical"] and e12["repaired"]):
        print("  FAIL: fault recovery lost convergence or result identity")
        return 1
    if e12["overhead_ratio"] > max_recovery_overhead:
        print(f"  FAIL: recovery overhead {e12['overhead_ratio']}x exceeds "
              f"the ceiling {max_recovery_overhead}x")
        return 1
    max_telemetry_overhead = _env_float(
        "REPRO_SMOKE_MAX_TELEMETRY_OVERHEAD", 1.15)
    if not e15["identical_results"]:
        print("  FAIL: telemetry comparison lost result identity")
        return 1
    if e15["overhead_ratio"] > max_telemetry_overhead:
        print(f"  FAIL: tracing overhead {e15['overhead_ratio']}x exceeds "
              f"the ceiling {max_telemetry_overhead}x")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
