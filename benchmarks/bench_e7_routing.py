"""E7 (routing): collection-scoped costing + structural routing vs. the
whole-database cost model.

XMark and TPoX live co-resident in one database (the TPoX side scaled
up as ballast) and two effects of PR 4's collection-scoped layer are
checked, both deterministically:

* **scan routing** -- the XMark query workload is single-collection-
  rooted, so the routed executor's scan path visits only the ``xmark``
  collection while plans from ``Optimizer(use_collection_costing=False)``
  carry no routing set and walk the TPoX ballast for every query.
  Results must be identical; the documents examined differ by the
  ballast.
* **what-if re-costing** -- after a document add to a *single*
  collection, the global model's aggregates guard forces the advisor's
  evaluator to re-cost every workload query, while the routed evaluator
  re-costs only the queries whose routing set contains the changed
  collection.  Queries routed only to other collections are re-costed
  **zero** times, and the delta result stays byte-identical to a fresh
  evaluation.  The ratio counts work, not seconds; asserted floor 5x.

Shape: ``repro.tools.routing_compare.compare_routing_modes`` (shared
with the tier-1 ``bench_smoke`` guard and the perf recorder), run at
the benchmark scale.
"""

from __future__ import annotations

from conftest import BENCH_SMOKE, XMARK_SCALE, print_section

from repro.tools.routing_compare import compare_routing_modes
from repro.tools.report import render_table

#: Minimum accepted global-over-routed what-if re-costing count ratio.
MIN_ROUTING_RATIO = 2.0 if BENCH_SMOKE else 5.0


def test_e7_routing_recosting_and_exactness(benchmark):
    comparison = benchmark.pedantic(
        compare_routing_modes, kwargs={"scale": XMARK_SCALE},
        rounds=1, iterations=1)

    table = render_table(
        ["xmark docs", "ballast docs", "routed docs", "unrouted docs",
         "recost routed", "recost global", "recost x", "cross"],
        [[comparison.xmark_documents, comparison.ballast_documents,
          comparison.routed_documents_examined,
          comparison.unrouted_documents_examined,
          comparison.recostings_routed, comparison.recostings_unrouted,
          f"{comparison.recosting_ratio:.1f}x", comparison.cross_recostings]])
    print_section(
        "E7 routing - collection-scoped scan + what-if re-costing "
        f"(XMark scale {XMARK_SCALE})", table)

    assert comparison.identical_results, (
        "structural routing changed scan results")
    assert comparison.routed_documents_examined \
        < comparison.unrouted_documents_examined
    assert comparison.benefits_identical, (
        "routed delta benefits diverged from a fresh evaluation")
    assert comparison.configurations_identical, (
        "cached advisor stack recommended differently than a fresh one")
    # The acceptance criterion: a single-collection add re-costs zero
    # queries routed only to the other collections.
    assert comparison.cross_recostings == 0
    assert comparison.recosting_ratio >= MIN_ROUTING_RATIO, (
        f"routed re-costing savings regressed: "
        f"{comparison.recosting_ratio:.2f}x < {MIN_ROUTING_RATIO:.1f}x")
