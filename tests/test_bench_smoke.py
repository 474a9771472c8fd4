"""Benchmark smoke checks: env-capped perf regression guards for tier 1.

The real experiment benchmarks (``benchmarks/bench_e*.py``) run at
scales that take tens of seconds.  These smoke checks exercise the same
measurement paths at tiny, environment-overridable sizes so a perf
regression in the columnar scan engine fails the ordinary test run
within a couple of seconds.

Sizes are capped by environment variables:

``REPRO_SMOKE_XMARK_SCALE``
    XMark database scale for the smoke run (default ``0.05``).
``REPRO_SMOKE_MIN_SPEEDUP``
    Minimum accepted interpreter-vs-engine scan speedup (default ``1.5``; the full
    benchmarks assert >= 5x at their larger scales, the smoke floor is
    deliberately conservative because tiny runs on loaded or
    instrumented CI are noisy -- a genuine subsystem regression drops
    the ratio to ~1x or below, which even the soft floor catches).
``REPRO_SMOKE_MIN_ONLINE_COMPRESSION``
    Minimum accepted captured-templates-per-compressed-cluster ratio in
    the online tuning loop's flood phase at 10x volume (default ``2``;
    the E10 benchmark asserts >= 4x at its larger shapes).  Unlike the
    timing floors this one is deterministic -- it counts templates, not
    seconds -- so a drop means the workload compressor stopped bounding
    the advisor input.

Deselect with ``-m "not bench_smoke"`` if an environment is too noisy
for any timing assertion.
"""

from __future__ import annotations

import os

import pytest

from repro.executor.measurement import measure_scan_modes, measure_workload
from repro.workloads.xmark import (
    XMarkConfig,
    generate_xmark_database,
    xmark_query_workload,
)

pytestmark = pytest.mark.bench_smoke


def _env_float(name: str, default: float) -> float:
    try:
        return float(os.environ.get(name, ""))
    except ValueError:
        return default


SMOKE_SCALE = _env_float("REPRO_SMOKE_XMARK_SCALE", 0.05)
MIN_SPEEDUP = _env_float("REPRO_SMOKE_MIN_SPEEDUP", 1.5)
MIN_ONLINE_COMPRESSION = _env_float("REPRO_SMOKE_MIN_ONLINE_COMPRESSION", 2.0)


@pytest.fixture(scope="module")
def smoke_db():
    return generate_xmark_database(XMarkConfig(scale=SMOKE_SCALE, seed=42))


@pytest.fixture(scope="module")
def smoke_workload():
    return xmark_query_workload(name="smoke-train")


def test_smoke_summary_scan_faster_and_equivalent(smoke_db, smoke_workload):
    """The columnar engine's scan must beat the interpretive scan and
    return identical per-query result counts (E5b at smoke scale)."""
    best_speedup = 0.0
    for _ in range(3):  # best-of-3 damps scheduler noise on tiny runs
        measurements = measure_scan_modes(smoke_db, smoke_workload)
        interpretive = measurements["scan-interpretive"]
        engine = measurements["scan-engine"]
        for interp_row, engine_row in zip(interpretive.per_query,
                                          engine.per_query):
            assert interp_row.result_count == engine_row.result_count
        if engine.total_seconds > 0:
            best_speedup = max(best_speedup,
                               interpretive.total_seconds / engine.total_seconds)
        else:
            best_speedup = float("inf")
    assert best_speedup >= MIN_SPEEDUP, (
        f"engine scan speedup regressed: best-of-3 "
        f"{best_speedup:.2f}x < {MIN_SPEEDUP:.1f}x at scale {SMOKE_SCALE}")


def test_smoke_index_measurement_consistent(smoke_db, smoke_workload):
    """measure_workload still agrees between scan and index-plan
    residual evaluation at smoke scale (E5 shape, no recommendation)."""
    from repro.index.definition import IndexConfiguration, IndexDefinition
    from repro.xquery.model import ValueType

    configuration = IndexConfiguration([
        IndexDefinition.create("/site/people/person/@id", ValueType.VARCHAR),
        IndexDefinition.create("/site/regions/*/item/quantity", ValueType.DOUBLE),
    ])
    measurements = measure_workload(smoke_db, smoke_workload, configuration)
    baseline = measurements["no-indexes"]
    indexed = measurements["recommended"]
    assert indexed.queries_using_indexes >= 1
    for base_row, indexed_row in zip(baseline.per_query, indexed.per_query):
        assert base_row.result_count == indexed_row.result_count
    assert smoke_db.catalog.physical_indexes == []


def test_smoke_online_loop_converges_and_bounded():
    """The online tuning loop must converge byte-identically to the
    offline advisor on a stationary workload, detect and migrate
    through an injected shift, and keep the compressed advisor input
    at or below the cluster cap as captured volume grows 10x (E10 at
    smoke scale; every flag and count is deterministic)."""
    from repro.tools.online_compare import compare_online_offline

    comparison = compare_online_offline(scale=SMOKE_SCALE)
    assert comparison.stationary_identical, (
        "online loop configuration diverged from the offline advisor "
        f"on a stationary workload: online {sorted(comparison.online_keys)} "
        f"vs offline {sorted(comparison.offline_keys)}")
    assert comparison.stationary_stable, (
        "the loop re-tuned on a stationary workload (oscillation)")
    assert comparison.index_plans_after_migration > 0, (
        "no query used an index plan after the online migration")
    assert comparison.drift_detected and comparison.migrated_with_drops, (
        "the injected workload shift was not detected/migrated "
        f"(drift score {comparison.drift_score:.3f})")
    assert comparison.reconverged_identical, (
        "the loop did not re-converge to the offline advisor's "
        "configuration after the shift")
    assert comparison.compression_bounded, (
        f"compressed advisor input exceeded the cluster cap: "
        f"{comparison.compressed_size_1x}/{comparison.compressed_size_10x} "
        f"clusters vs cap {comparison.flood_cluster_cap}")
    assert comparison.compression_ratio >= MIN_ONLINE_COMPRESSION, (
        f"online compression regressed: {comparison.captured_templates_10x} "
        f"captured templates -> {comparison.compressed_size_10x} clusters "
        f"({comparison.compression_ratio:.1f}x < {MIN_ONLINE_COMPRESSION}x)")
    # The shared aggregate predicate: catches any flag added to the
    # protocol that the per-flag asserts above do not know about yet.
    assert comparison.converged
