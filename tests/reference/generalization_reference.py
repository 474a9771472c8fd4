"""Reference oracle for the generalization phase (Section 2.2).

This is the pre-PR-12 implementation of
``repro.advisor.generalization.generalize_candidates`` and
``GeneralizationDag._build``, moved here verbatim: one ``CandidateIndex``
per produced pattern, list-membership merges, a full n^2
``pattern_contains`` sweep for the attribution and two more for the DAG.
It is slow on purpose.  The key-first kernel in ``src/`` must reproduce
its output exactly -- candidate keys in insertion order, ``source``,
``benefiting_queries``, ``covered_predicates`` including order, DAG
parents/children, ``rounds_used`` and the ``max_candidates`` cut-off --
and ``tests/test_generalization_dag.py`` checks that it does.

Nothing under ``src/`` may import this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Set

from repro.advisor.candidates import CandidateIndex, CandidateKey, CandidateSet
from repro.advisor.config import AdvisorParameters
from repro.xpath.patterns import (
    PathPattern,
    generalize_pair,
    generalize_prefix,
    generalize_tail,
    pattern_contains,
)
from repro.xquery.model import ValueType


@dataclass
class ReferenceResult:
    candidates: CandidateSet
    dag: "ReferenceDag"
    basic_count: int
    generalized_count: int
    rounds_used: int


def _copy(candidates: CandidateSet) -> CandidateSet:
    fresh = CandidateSet()
    for candidate in candidates:
        fresh.add(CandidateIndex(pattern=candidate.pattern,
                                 value_type=candidate.value_type,
                                 source=candidate.source,
                                 benefiting_queries=set(candidate.benefiting_queries),
                                 covered_predicates=list(candidate.covered_predicates)))
    return fresh


def _add(candidates: CandidateSet, candidate: CandidateIndex) -> None:
    """``CandidateSet.add`` as it was: merge by list membership."""
    existing = candidates.get(candidate.key)
    if existing is None:
        candidates.add(candidate)
        return
    existing.benefiting_queries.update(candidate.benefiting_queries)
    for predicate in candidate.covered_predicates:
        if predicate not in existing.covered_predicates:
            existing.covered_predicates.append(predicate)
    if candidate.source == "basic":
        existing.source = "basic"


def _new_candidate(pattern: PathPattern, value_type: ValueType,
                   sources: Sequence[CandidateIndex]) -> CandidateIndex:
    benefiting: Set[str] = set()
    predicates = []
    for source in sources:
        benefiting.update(source.benefiting_queries)
        for predicate in source.covered_predicates:
            if predicate not in predicates:
                predicates.append(predicate)
    return CandidateIndex(pattern=pattern, value_type=value_type,
                          source="generalized",
                          benefiting_queries=benefiting,
                          covered_predicates=predicates)


def _apply_pairwise_rules(candidates: List[CandidateIndex],
                          parameters: AdvisorParameters) -> List[CandidateIndex]:
    """One round of pairwise generalization over same-type candidates."""
    produced: List[CandidateIndex] = []
    for first, second in combinations(candidates, 2):
        generalized = generalize_pair(first.pattern, second.pattern)
        if generalized is not None:
            produced.append(_new_candidate(generalized, first.value_type,
                                           [first, second]))
        if parameters.enable_prefix_generalization:
            prefixed = generalize_prefix(first.pattern, second.pattern)
            if prefixed is not None:
                produced.append(_new_candidate(prefixed, first.value_type,
                                               [first, second]))
    return produced


def _apply_tail_rule(candidates: List[CandidateIndex]) -> List[CandidateIndex]:
    """Tail generalization of already-generalized candidates."""
    produced: List[CandidateIndex] = []
    for candidate in candidates:
        if not candidate.is_generalized:
            continue
        generalized = generalize_tail(candidate.pattern)
        if generalized is not None:
            produced.append(_new_candidate(generalized, candidate.value_type,
                                           [candidate]))
    return produced


def generalize_candidates(basic: CandidateSet,
                          parameters: Optional[AdvisorParameters] = None
                          ) -> ReferenceResult:
    """Expand ``basic`` with generalized candidates and build the DAG."""
    parameters = parameters or AdvisorParameters()
    expanded = _copy(basic)
    basic_count = len(expanded)
    rounds_used = 0

    for _ in range(parameters.generalization_rounds):
        if len(expanded) >= parameters.max_candidates:
            break
        rounds_used += 1
        added_this_round = 0
        for value_type in ValueType:
            group = expanded.by_value_type(value_type)
            if len(group) < 1:
                continue
            produced = _apply_pairwise_rules(group, parameters)
            produced.extend(_apply_tail_rule(group))
            for candidate in produced:
                if len(expanded) >= parameters.max_candidates:
                    break
                if expanded.get(candidate.key) is None:
                    _add(expanded, candidate)
                    added_this_round += 1
                else:
                    # Merge query attribution into the existing entry.
                    _add(expanded, candidate)
        if added_this_round == 0:
            break

    _propagate_query_attribution(expanded)
    dag = ReferenceDag(expanded)
    return ReferenceResult(candidates=expanded, dag=dag,
                           basic_count=basic_count,
                           generalized_count=len(expanded) - basic_count,
                           rounds_used=rounds_used)


def _propagate_query_attribution(candidates: CandidateSet) -> None:
    """Make every candidate claim the queries of all candidates it contains."""
    all_candidates = candidates.candidates
    for general in all_candidates:
        for specific in all_candidates:
            if general is specific:
                continue
            if general.value_type is not specific.value_type:
                continue
            if general.covers_candidate(specific):
                general.benefiting_queries.update(specific.benefiting_queries)
                for predicate in specific.covered_predicates:
                    if predicate not in general.covered_predicates:
                        general.covered_predicates.append(predicate)


class ReferenceDag:
    """``GeneralizationDag._build`` as it was: the edge sets only."""

    def __init__(self, candidates: CandidateSet) -> None:
        self._candidates = candidates
        self.parents: Dict[CandidateKey, Set[CandidateKey]] = {}
        self.children: Dict[CandidateKey, Set[CandidateKey]] = {}
        self._build()

    def _build(self) -> None:
        candidates = self._candidates.candidates
        for candidate in candidates:
            self.parents.setdefault(candidate.key, set())
            self.children.setdefault(candidate.key, set())

        # All strict generalization relations (ancestor map).
        ancestors: Dict[CandidateKey, Set[CandidateKey]] = {
            c.key: set() for c in candidates}
        for child in candidates:
            for parent in candidates:
                if parent.key == child.key:
                    continue
                if parent.value_type is not child.value_type:
                    continue
                if (pattern_contains(parent.pattern, child.pattern)
                        and not pattern_contains(child.pattern, parent.pattern)):
                    ancestors[child.key].add(parent.key)

        # Transitive reduction: a parent is direct if no other ancestor of
        # the child is a descendant of that parent.
        for child_key, child_ancestors in ancestors.items():
            for parent_key in child_ancestors:
                direct = True
                for other_key in child_ancestors:
                    if other_key == parent_key:
                        continue
                    if parent_key in ancestors[other_key]:
                        direct = False
                        break
                if direct:
                    self.parents[child_key].add(parent_key)
                    self.children[parent_key].add(child_key)
