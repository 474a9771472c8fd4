"""Recommendation analysis (Section 3, Figure 5).

The demonstration lets the user analyze a recommendation by comparing,
for every workload query, three estimated costs:

1. the original cost with **no indexes**,
2. the cost with the **recommended** configuration,
3. the cost with the **overtrained** configuration consisting of *all*
   basic candidate indexes enumerated for the workload (maximum possible
   benefit for the training workload, usually far over budget).

It also lets the user add queries beyond the input workload to see how
the recommended (generalized) configuration serves unseen queries, and
to edit the configuration (add/remove indexes) and see the effect.  This
module provides all of that programmatically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Union

from repro.advisor.advisor import Recommendation
from repro.advisor.benefit import ConfigurationBenefit, ConfigurationEvaluator
from repro.advisor.config import AdvisorParameters
from repro.index.definition import IndexConfiguration, IndexDefinition
from repro.optimizer.explain import evaluate_indexes
from repro.optimizer.optimizer import Optimizer
from repro.storage.document_store import XmlDatabase
from repro.xquery.model import NormalizedQuery, Workload
from repro.xquery.normalizer import normalize_statement, normalize_workload


@dataclass
class QueryCostComparison:
    """Per-query cost triple shown by the analysis tool (Figure 5)."""

    query_id: str
    cost_no_indexes: float
    cost_recommended: float
    cost_overtrained: float
    recommended_uses_indexes: bool

    @property
    def speedup_recommended(self) -> float:
        """Estimated cost ratio no-indexes / recommended (>= 1 is good)."""
        if self.cost_recommended <= 0:
            return float("inf")
        return self.cost_no_indexes / self.cost_recommended

    @property
    def benefit_captured(self) -> float:
        """Fraction of the overtrained configuration's cost reduction that
        the recommended configuration achieves for this query (1.0 when the
        recommendation is as good as overtraining)."""
        max_gain = self.cost_no_indexes - self.cost_overtrained
        if max_gain <= 1e-9:
            return 1.0
        actual_gain = self.cost_no_indexes - self.cost_recommended
        return max(0.0, min(1.0, actual_gain / max_gain))


class RecommendationAnalysis:
    """Analysis and what-if tooling over one recommendation."""

    def __init__(self, database: XmlDatabase, recommendation: Recommendation,
                 parameters: Optional[AdvisorParameters] = None) -> None:
        self.database = database
        self.recommendation = recommendation
        self.parameters = parameters or recommendation.parameters
        self.optimizer = Optimizer(database, self.parameters.cost_parameters)
        self._overtrained = self._build_overtrained_configuration()

    # ------------------------------------------------------------------
    # Configurations under comparison
    # ------------------------------------------------------------------
    @property
    def recommended_configuration(self) -> IndexConfiguration:
        return self.recommendation.configuration

    @property
    def overtrained_configuration(self) -> IndexConfiguration:
        """All basic candidates enumerated for the workload."""
        return self._overtrained

    def _build_overtrained_configuration(self) -> IndexConfiguration:
        configuration = IndexConfiguration(name="overtrained")
        for candidate in self.recommendation.candidates.basic_candidates:
            configuration.add(candidate.to_definition())
        return configuration

    # ------------------------------------------------------------------
    # Figure 5: per-query cost comparison
    # ------------------------------------------------------------------
    def compare_query_costs(self,
                            queries: Optional[Sequence[NormalizedQuery]] = None
                            ) -> List[QueryCostComparison]:
        """The no-index / recommended / overtrained cost triple per query."""
        queries = list(queries) if queries is not None else [
            q for q in self.recommendation.queries if not q.is_update]
        comparisons: List[QueryCostComparison] = []
        for query in queries:
            if query.is_update:
                continue
            no_index = self.optimizer.optimize(query, candidate_indexes=[]).total_cost
            recommended = evaluate_indexes(query, self.database,
                                           self.recommended_configuration,
                                           optimizer=self.optimizer)
            overtrained = evaluate_indexes(query, self.database,
                                           self.overtrained_configuration,
                                           optimizer=self.optimizer)
            comparisons.append(QueryCostComparison(
                query_id=query.query_id,
                cost_no_indexes=no_index,
                cost_recommended=recommended.estimated_cost,
                cost_overtrained=overtrained.estimated_cost,
                recommended_uses_indexes=bool(recommended.used_indexes),
            ))
        return comparisons

    # ------------------------------------------------------------------
    # Unseen queries ("add more queries beyond the input workload")
    # ------------------------------------------------------------------
    def evaluate_additional_queries(self,
                                    statements: Union[Workload, Sequence[str]]
                                    ) -> List[QueryCostComparison]:
        """Evaluate queries that were not part of the training workload.

        The benefit they get from the recommended configuration
        demonstrates the value of recommending *generalized* index
        configurations.
        """
        if isinstance(statements, Workload):
            queries = normalize_workload(statements)
        else:
            queries = [normalize_statement(text, query_id=f"extra-q{i + 1}")
                       for i, text in enumerate(statements)]
        return self.compare_query_costs(queries)

    # ------------------------------------------------------------------
    # What-if editing ("modify the recommended configuration")
    # ------------------------------------------------------------------
    def what_if(self, add: Optional[Iterable[IndexDefinition]] = None,
                remove: Optional[Iterable[IndexDefinition]] = None
                ) -> ConfigurationBenefit:
        """Benefit of the recommendation with some indexes added/removed."""
        modified = self.recommended_configuration.copy(name="what-if")
        for index in (remove or []):
            modified.remove(index)
        for index in (add or []):
            modified.add(index)
        evaluator = ConfigurationEvaluator(self.database, self.recommendation.queries,
                                           self.parameters, self.optimizer)
        return evaluator.evaluate(modified)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, float]:
        """Workload-level summary of the three configurations."""
        comparisons = self.compare_query_costs()
        total_none = sum(c.cost_no_indexes for c in comparisons)
        total_recommended = sum(c.cost_recommended for c in comparisons)
        total_overtrained = sum(c.cost_overtrained for c in comparisons)
        evaluator = ConfigurationEvaluator(self.database, self.recommendation.queries,
                                           self.parameters, self.optimizer)
        return {
            "queries": float(len(comparisons)),
            "cost_no_indexes": total_none,
            "cost_recommended": total_recommended,
            "cost_overtrained": total_overtrained,
            "recommended_size_bytes": self.recommendation.total_size_bytes,
            "overtrained_size_bytes": evaluator.configuration_size_bytes(
                self.overtrained_configuration),
            "improvement_recommended_pct": (
                100.0 * (total_none - total_recommended) / total_none
                if total_none > 0 else 0.0),
            "improvement_overtrained_pct": (
                100.0 * (total_none - total_overtrained) / total_none
                if total_none > 0 else 0.0),
        }

    def render_table(self, comparisons: Optional[List[QueryCostComparison]] = None) -> str:
        """Text table of per-query costs (the Figure 5 bar chart as rows)."""
        comparisons = comparisons if comparisons is not None else self.compare_query_costs()
        header = (f"{'query':<16}{'no indexes':>14}{'recommended':>14}"
                  f"{'overtrained':>14}{'speedup':>10}")
        lines = [header, "-" * len(header)]
        for row in comparisons:
            lines.append(f"{row.query_id:<16}{row.cost_no_indexes:>14.1f}"
                         f"{row.cost_recommended:>14.1f}{row.cost_overtrained:>14.1f}"
                         f"{row.speedup_recommended:>10.2f}")
        return "\n".join(lines)
