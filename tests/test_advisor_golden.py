"""Pinned advisor outputs for the paper's budget sweep.

For the XMark training workload and the TPoX mixed workload (the
suite's session databases), every search algorithm at budgets of 10 %,
25 %, 50 % and 100 % of the overtrained size (all basic candidates)
must recommend exactly the configuration recorded in
``fixtures/advisor_sweep_golden.json``: the sorted index keys, the
estimated size, the total benefit (``repr`` of the float, so bit for
bit) and the number of recommended indexes no plan uses.

The rows were recorded from the advisor before its legacy search and
costing paths were deleted; regenerate them only for a deliberate
behaviour change, by calling :func:`sweep_rows` and writing the JSON.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.advisor.advisor import XmlIndexAdvisor
from repro.advisor.config import AdvisorParameters, SearchAlgorithm
from repro.index.sizing import estimate_index_size_bytes

GOLDEN_PATH = Path(__file__).parent / "fixtures" / "advisor_sweep_golden.json"

#: Budgets as fractions of the overtrained configuration's size.
BUDGET_FRACTIONS = (0.1, 0.25, 0.5, 1.0)


def sweep_rows(database, workload):
    """One row per (budget fraction, algorithm), each from a fresh advisor."""
    probe = XmlIndexAdvisor(database)
    basic = probe.enumerate_candidates(probe.normalize(workload))
    overtrained = sum(
        estimate_index_size_bytes(candidate.to_definition(), database.statistics)
        for candidate in basic)
    rows = []
    for fraction in BUDGET_FRACTIONS:
        for algorithm in SearchAlgorithm:
            advisor = XmlIndexAdvisor(database, AdvisorParameters(
                disk_budget_bytes=overtrained * fraction,
                search_algorithm=algorithm))
            recommendation = advisor.recommend(workload)
            rows.append({
                "budget_fraction": fraction,
                "algorithm": algorithm.value,
                "keys": sorted([list(index.key)
                                for index in recommendation.configuration]),
                "size_bytes": repr(recommendation.total_size_bytes),
                "total_benefit": repr(recommendation.total_benefit),
                "unused": len(recommendation.benefit.unused_indexes),
            })
    return rows


@pytest.mark.parametrize("name, database_fixture, workload_fixture", [
    ("xmark", "xmark_database", "xmark_workload"),
    ("tpox", "tpox_database", "tpox_mixed_workload"),
])
def test_budget_sweep_matches_golden(name, database_fixture, workload_fixture,
                                     request):
    database = request.getfixturevalue(database_fixture)
    workload = request.getfixturevalue(workload_fixture)
    golden = json.loads(GOLDEN_PATH.read_text())[name]
    assert sweep_rows(database, workload) == golden
