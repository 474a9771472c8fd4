"""E3 (Figure 4): searching the space of candidate indexes.

Reproduces the third demo panel: the generalization DAG built from the
workload's basic candidates, and how the three search algorithms traverse
it under different disk budgets.  The printed series is, per budget (as a
fraction of the overtrained configuration's size), the estimated benefit
and configuration size chosen by plain greedy, greedy with heuristics,
and top-down search, plus an ablation that disables index-interaction-
aware (whole-configuration) evaluation.

Expected shape (per the paper): greedy-with-heuristics dominates plain
greedy at tight budgets; top-down produces the most general
configurations; benefit grows with budget and saturates at the
overtrained bound.
"""

from __future__ import annotations

from conftest import print_section

from repro.advisor.advisor import XmlIndexAdvisor
from repro.advisor.benefit import ConfigurationEvaluator
from repro.advisor.config import AdvisorParameters, SearchAlgorithm
from repro.advisor.enumeration import create_search
from repro.index.definition import IndexConfiguration
from repro.tools.report import render_table
from repro.xquery.normalizer import normalize_workload

BUDGET_FRACTIONS = (0.1, 0.25, 0.5, 1.0)


def _prepare(database, workload):
    advisor = XmlIndexAdvisor(database, AdvisorParameters())
    queries = advisor.normalize(workload)
    basic = advisor.enumerate_candidates(queries)
    generalization = advisor.generalize(basic)
    evaluator = ConfigurationEvaluator(database, queries)
    overtrained = IndexConfiguration(
        [c.to_definition() for c in basic], name="overtrained")
    overtrained_size = evaluator.configuration_size_bytes(overtrained)
    return generalization, evaluator, overtrained_size


def _run_searches(generalization, evaluator, overtrained_size):
    rows = []
    for fraction in BUDGET_FRACTIONS:
        budget = overtrained_size * fraction
        for algorithm in SearchAlgorithm:
            parameters = AdvisorParameters(disk_budget_bytes=budget,
                                           search_algorithm=algorithm)
            search = create_search(algorithm, evaluator, parameters)
            result = search.search(generalization.candidates, generalization.dag)
            rows.append({
                "budget_fraction": fraction,
                "algorithm": algorithm.value,
                "indexes": len(result.configuration),
                "size_kb": result.size_bytes / 1024.0,
                "benefit": result.benefit.total_benefit,
                "unused": len(result.benefit.unused_indexes),
            })
    return rows


def test_e3_generalization_dag_and_search(benchmark, xmark_db, xmark_train):
    generalization, evaluator, overtrained_size = _prepare(xmark_db, xmark_train)
    rows = benchmark.pedantic(_run_searches,
                              args=(generalization, evaluator, overtrained_size),
                              rounds=1, iterations=1)
    dag = generalization.dag
    header = (f"basic candidates: {generalization.basic_count}, "
              f"expanded candidates: {len(generalization.candidates)}, "
              f"DAG nodes: {dag.node_count}, edges: {dag.edge_count}, "
              f"depth: {dag.depth()}, roots: {len(dag.roots)}\n"
              f"overtrained configuration size: {overtrained_size / 1024:.1f} KiB\n")
    table = render_table(
        ["budget (xovertrained)", "algorithm", "#indexes", "size KiB", "benefit", "unused"],
        [[f"{r['budget_fraction']:.2f}", r["algorithm"], r["indexes"],
          f"{r['size_kb']:.1f}", f"{r['benefit']:.1f}", r["unused"]] for r in rows])
    print_section("E3 / Figure 4 - generalization DAG and configuration search",
                  header + table)

    # Shape checks.
    assert generalization.generalized_count > 0
    assert dag.depth() >= 2
    by_key = {(r["budget_fraction"], r["algorithm"]): r for r in rows}
    for fraction in BUDGET_FRACTIONS:
        greedy = by_key[(fraction, "greedy")]
        heuristic = by_key[(fraction, "greedy-heuristic")]
        assert heuristic["benefit"] >= greedy["benefit"] - 1e-6
        assert heuristic["unused"] == 0
    # Benefit grows (weakly) with budget for every algorithm.
    for algorithm in SearchAlgorithm:
        benefits = [by_key[(f, algorithm.value)]["benefit"] for f in BUDGET_FRACTIONS]
        assert all(b2 >= b1 - 1e-6 for b1, b2 in zip(benefits, benefits[1:]))


def test_e3_ablation_index_interaction(benchmark, xmark_db, xmark_train):
    """Ablation: evaluate configurations as a whole (index interaction) vs.
    summing single-index benefits.  Summing over-estimates the benefit of
    redundant configurations."""
    generalization, evaluator, overtrained_size = _prepare(xmark_db, xmark_train)
    candidates = list(generalization.candidates)

    def _compare():
        definitions = [c.to_definition() for c in candidates]
        whole = evaluator.evaluate(definitions).total_benefit
        summed = sum(evaluator.evaluate([d]).total_benefit for d in definitions)
        return whole, summed

    whole, summed = benchmark.pedantic(_compare, rounds=1, iterations=1)
    print_section(
        "E3 ablation - index interaction",
        f"benefit of full candidate set evaluated as one configuration: {whole:.1f}\n"
        f"sum of single-index benefits (no interaction modelling):      {summed:.1f}\n"
        f"over-estimate factor without interaction: {summed / max(whole, 1e-9):.2f}x")
    assert summed > whole
