"""Reference oracle for the advisor's what-if evaluator and searches.

A deliberately naive copy of the paper's Evaluate Indexes loop:

* :class:`ReferenceEvaluator` costs a configuration from scratch every
  time.  Per query it finds the indexes that could matter by
  ``pattern_contains`` (value type and pattern for predicates, overlap
  for the patterns an update touches) and prices the query under them
  through ``evaluate_indexes`` / ``plan_update`` on a *fresh*
  :class:`~repro.optimizer.optimizer.Optimizer`.  No relevance map, no
  per-query memo, no delta re-costing, no row reuse, nothing carried
  across data changes.
* :func:`reference_search` runs the three budgeted searches as
  exhaustive loops on that evaluator: plain greedy ranks every candidate
  once; greedy-with-heuristics rescans every remaining candidate per
  step (first maximum benefit/size ratio wins, redundancy bitmap,
  eviction of indexes no plan uses); top-down replaces the largest
  member by its DAG children, re-costing the whole configuration per
  step, then trims.

``repro.advisor.benefit`` and ``repro.advisor.enumeration`` must agree
with it (``tests/test_incremental_whatif.py``, ``tests/test_maintenance.py``).
It is slow on purpose.  Nothing under ``src/`` may import this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.advisor.candidates import CandidateIndex, CandidateSet
from repro.advisor.dag import GeneralizationDag
from repro.index.definition import IndexConfiguration, IndexDefinition
from repro.index.sizing import estimate_index_size_bytes
from repro.optimizer.cost_model import CostParameters
from repro.optimizer.explain import evaluate_indexes
from repro.optimizer.optimizer import Optimizer
from repro.xpath.patterns import pattern_contains
from repro.xquery.model import NormalizedQuery

IndexKey = Tuple[str, str]

#: Marginal gains at or below this are "no benefit".
MIN_GAIN = 1e-9
#: Benefit/size ratios must exceed this to be selected.
MIN_RATIO = 1e-12


@dataclass(frozen=True)
class ReferenceRow:
    query_id: str
    frequency: float
    cost_without_indexes: float
    cost_with_configuration: float
    used_index_keys: Tuple[IndexKey, ...] = ()

    @property
    def benefit(self) -> float:
        return (self.cost_without_indexes - self.cost_with_configuration) * self.frequency


@dataclass
class ReferenceBenefit:
    configuration: IndexConfiguration
    total_benefit: float
    total_size_bytes: float
    rows: List[ReferenceRow]
    index_sizes: Dict[IndexKey, float]

    @property
    def used_index_keys(self) -> Set[IndexKey]:
        return {key for row in self.rows for key in row.used_index_keys}

    @property
    def unused_indexes(self) -> List[IndexDefinition]:
        used = self.used_index_keys
        return [index for index in self.configuration if index.key not in used]


@dataclass
class ReferenceSearchResult:
    configuration: IndexConfiguration
    benefit: ReferenceBenefit


def relevant_indexes(query: NormalizedQuery,
                     configuration: Sequence[IndexDefinition]) -> List[IndexDefinition]:
    """The members of ``configuration`` that can change ``query``'s cost."""
    relevant: List[IndexDefinition] = []
    for index in configuration:
        if query.is_update:
            if any(pattern_contains(touched, index.pattern)
                   or pattern_contains(index.pattern, touched)
                   for touched in query.touched_patterns):
                relevant.append(index)
            continue
        for predicate in query.predicates:
            if not predicate.is_existence and \
                    predicate.value_type is not index.value_type:
                continue
            if pattern_contains(index.pattern, predicate.pattern):
                relevant.append(index)
                break
    return relevant


class ReferenceEvaluator:
    """Costs whole configurations from scratch, one fresh optimizer each."""

    def __init__(self, database, queries: Sequence[NormalizedQuery],
                 cost_parameters: Optional[CostParameters] = None,
                 account_for_updates: bool = True) -> None:
        self.database = database
        self.queries = list(queries)
        self.cost_parameters = cost_parameters
        self.account_for_updates = account_for_updates
        #: Per-query what-if costings issued (one per query per evaluation).
        self.costings = 0

    def index_size_bytes(self, index: IndexDefinition) -> float:
        return estimate_index_size_bytes(index, self.database.statistics)

    def evaluate(self, configuration) -> ReferenceBenefit:
        if not isinstance(configuration, IndexConfiguration):
            configuration = IndexConfiguration(configuration)
        optimizer = Optimizer(self.database, self.cost_parameters)
        rows: List[ReferenceRow] = []
        for query in self.queries:
            self.costings += 1
            relevant = relevant_indexes(query, list(configuration))
            if query.is_update:
                baseline = optimizer.plan_update(query, candidate_indexes=[]).total_cost
                if self.account_for_updates:
                    plan = optimizer.plan_update(query, candidate_indexes=relevant)
                    cost = plan.total_cost
                    used = tuple(m.index.key for m in plan.maintenance_costs)
                else:
                    cost, used = baseline, ()
            else:
                baseline = optimizer.optimize(query, candidate_indexes=[]).total_cost
                result = evaluate_indexes(query, self.database, relevant,
                                          optimizer=optimizer,
                                          include_physical=False)
                cost = result.estimated_cost
                used = tuple(index.key for index in result.used_indexes)
            rows.append(ReferenceRow(query.query_id, query.frequency,
                                     baseline, cost, used))
        sizes = {index.key: self.index_size_bytes(index) for index in configuration}
        return ReferenceBenefit(configuration=configuration,
                                total_benefit=sum(row.benefit for row in rows),
                                total_size_bytes=sum(sizes.values()),
                                rows=rows, index_sizes=sizes)


# ----------------------------------------------------------------------
# Searches
# ----------------------------------------------------------------------
def _definition(candidate: CandidateIndex) -> IndexDefinition:
    return candidate.to_definition(is_virtual=True)


def _fits(size: float, budget: Optional[float]) -> bool:
    return budget is None or size <= budget + 1e-6


def _covered_patterns(candidate: CandidateIndex) -> Set[str]:
    return {predicate.pattern.to_text() for predicate in candidate.covered_predicates}


def reference_greedy(evaluator: ReferenceEvaluator, candidates: CandidateSet,
                     budget: Optional[float]) -> ReferenceSearchResult:
    scored = []
    for candidate in candidates:
        definition = _definition(candidate)
        benefit = evaluator.evaluate([definition]).total_benefit
        if benefit <= 0:
            continue
        size = evaluator.index_size_bytes(definition)
        scored.append((benefit / max(size, 1.0), size, definition))
    scored.sort(key=lambda item: item[0], reverse=True)
    configuration = IndexConfiguration(name="greedy")
    used_bytes = 0.0
    for _, size, definition in scored:
        if _fits(used_bytes + size, budget):
            configuration.add(definition)
            used_bytes += size
    return ReferenceSearchResult(configuration, evaluator.evaluate(configuration))


def reference_greedy_heuristic(evaluator: ReferenceEvaluator,
                               candidates: CandidateSet,
                               budget: Optional[float]) -> ReferenceSearchResult:
    remaining: Dict[IndexKey, CandidateIndex] = {c.key: c for c in candidates}
    configuration = IndexConfiguration(name="greedy-heuristic")
    current = evaluator.evaluate(configuration)
    covered: Set[str] = set()
    while remaining:
        best: Optional[Tuple[IndexKey, IndexDefinition]] = None
        best_ratio = 0.0
        for key, candidate in remaining.items():
            definition = _definition(candidate)
            size = evaluator.index_size_bytes(definition)
            if not _fits(current.total_size_bytes + size, budget):
                continue
            if not _covered_patterns(candidate) - covered:
                continue  # redundant: covers no new workload pattern
            extended = configuration.copy()
            extended.add(definition)
            gain = evaluator.evaluate(extended).total_benefit - current.total_benefit
            if gain <= MIN_GAIN:
                continue
            ratio = gain / max(size, 1.0)
            if ratio > best_ratio and ratio > MIN_RATIO:
                best_ratio = ratio
                best = (key, definition)
        if best is None:
            break
        candidate = remaining.pop(best[0])
        configuration.add(best[1])
        covered.update(_covered_patterns(candidate))
        current = evaluator.evaluate(configuration)
        evicted = current.unused_indexes
        for index in evicted:
            configuration.remove(index)
        if evicted:
            current = evaluator.evaluate(configuration)
    return ReferenceSearchResult(configuration, evaluator.evaluate(configuration))


def reference_top_down(evaluator: ReferenceEvaluator, candidates: CandidateSet,
                       dag: Optional[GeneralizationDag],
                       budget: Optional[float]) -> ReferenceSearchResult:
    if dag is None:
        dag = GeneralizationDag(candidates)
    configuration = IndexConfiguration(name="top-down")
    members: Dict[IndexKey, CandidateIndex] = {}
    for root in dag.roots:
        members[root.key] = root
        configuration.add(_definition(root))
    current = evaluator.evaluate(configuration)
    guard = 0
    while not _fits(current.total_size_bytes, budget) \
            and guard < 4 * max(1, len(candidates)):
        guard += 1
        # The largest member; the first admitted wins a tie.
        victim = None
        victim_size = -1.0
        for candidate in members.values():
            size = evaluator.index_size_bytes(_definition(candidate))
            if size > victim_size:
                victim, victim_size = candidate, size
        if victim is None:
            break
        del members[victim.key]
        configuration.remove(_definition(victim))
        for child in dag.children_of(victim):
            if child.key in members or any(
                    member.covers_candidate(child) for member in members.values()):
                continue
            members[child.key] = child
            configuration.add(_definition(child))
        current = evaluator.evaluate(configuration)
    while not _fits(current.total_size_bytes, budget) and len(configuration) > 0:
        used = current.used_index_keys
        pool = [index for index in configuration if index.key not in used] \
            or configuration.definitions
        worst = max(pool, key=lambda index: current.index_sizes[index.key])
        members.pop(worst.key, None)
        configuration.remove(worst)
        current = evaluator.evaluate(configuration)
    return ReferenceSearchResult(configuration, current)


def reference_search(algorithm: str, evaluator: ReferenceEvaluator,
                     candidates: CandidateSet, budget: Optional[float],
                     dag: Optional[GeneralizationDag] = None) -> ReferenceSearchResult:
    """Run the search named by a ``SearchAlgorithm`` value."""
    if algorithm == "greedy":
        return reference_greedy(evaluator, candidates, budget)
    if algorithm == "greedy-heuristic":
        return reference_greedy_heuristic(evaluator, candidates, budget)
    if algorithm == "top-down":
        return reference_top_down(evaluator, candidates, dag, budget)
    raise ValueError(f"unknown search algorithm: {algorithm!r}")
