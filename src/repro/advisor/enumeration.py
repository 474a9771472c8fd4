"""Configuration enumeration: searching for the best index configuration.

Three strategies are provided (Section 2.3):

:class:`GreedySearch`
    The relational-advisor baseline [8]: rank candidates once by
    benefit-per-byte and add them while the disk budget allows.  No
    redundancy detection -- a general index can be picked even though
    the patterns it covers are already covered, wasting budget.

:class:`GreedyWithHeuristicsSearch`
    The paper's first algorithm: greedy search augmented with heuristics
    that (a) maintain a bitmap of workload path expressions already
    covered by the chosen configuration and never admit an index that
    covers nothing new, (b) re-evaluate marginal benefits as the
    configuration grows (capturing index interaction), and (c) evict
    indexes that end up unused by every query plan, reclaiming their
    space for more useful indexes.

:class:`TopDownSearch`
    The paper's second algorithm: start from the roots of the
    generalization DAG (the most general candidates -- maximum benefit,
    usually over budget) and repeatedly replace the index with the worst
    size-to-benefit contribution by its more specific DAG children until
    the configuration fits in the budget.  The goal is the most general
    configuration that fits, which is the right choice when the training
    workload is only representative of the real one.

Lazy-greedy evaluation
----------------------

The two iterative strategies run on the evaluator's incremental what-if
engine:

* :class:`GreedyWithHeuristicsSearch` keeps candidates in a CELF-style
  priority queue ordered by their last-computed benefit/size ratio.
  A cached marginal benefit only becomes stale when an index whose
  affected queries overlap the candidate's affected queries enters the
  configuration (evicted indexes are unused by every plan, so removing
  them never changes a query's cost); stale heap heads are re-evaluated
  and re-inserted, and a head that is still fresh when popped is
  selected without touching the other candidates.  Marginal benefits
  are non-increasing as the configuration grows for workload shapes
  without cross-index plan synergy, which makes stale entries upper
  bounds and the lazy selection identical to an exhaustive rescan of
  every candidate per step (first maximum ratio wins) -- the
  randomized tests against ``tests/reference/advisor_reference.py``
  guard this.
* :class:`TopDownSearch` keeps replacement victims in a size-ordered
  heap (sizes are immutable per index) and re-costs each
  replace/trim step through the evaluator's delta
  :meth:`~repro.advisor.benefit.ConfigurationEvaluator.update` instead
  of a full workload pass.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.advisor.benefit import ConfigurationBenefit, ConfigurationEvaluator
from repro.advisor.candidates import CandidateIndex, CandidateSet
from repro.advisor.config import AdvisorParameters, SearchAlgorithm
from repro.advisor.dag import GeneralizationDag
from repro.index.definition import IndexConfiguration, IndexDefinition

#: Marginal gains at or below this are treated as "no benefit".
_MIN_GAIN = 1e-9
#: Benefit/size ratios at or below this floor are never selected.
_MIN_RATIO = 1e-12


@dataclass
class SearchStep:
    """One step of a search trace (for the Figure 4 style walkthrough)."""

    action: str
    index_pattern: str
    detail: str = ""

    def describe(self) -> str:
        suffix = f" ({self.detail})" if self.detail else ""
        return f"{self.action}: {self.index_pattern}{suffix}"


@dataclass
class SearchResult:
    """Outcome of one configuration search."""

    algorithm: SearchAlgorithm
    configuration: IndexConfiguration
    benefit: ConfigurationBenefit
    budget_bytes: Optional[float]
    trace: List[SearchStep] = field(default_factory=list)
    evaluations_performed: int = 0

    @property
    def size_bytes(self) -> float:
        return self.benefit.total_size_bytes

    @property
    def fits_budget(self) -> bool:
        if self.budget_bytes is None:
            return True
        return self.size_bytes <= self.budget_bytes + 1e-6

    def describe(self) -> str:
        budget = ("unlimited" if self.budget_bytes is None
                  else f"{self.budget_bytes / 1024:.0f} KiB")
        return (f"{self.algorithm.value} search: {len(self.configuration)} index(es), "
                f"benefit {self.benefit.total_benefit:.1f}, "
                f"size {self.size_bytes / 1024:.1f} KiB (budget {budget}), "
                f"{self.evaluations_performed} configuration evaluations")


class _SearchBase:
    """Shared plumbing for the three search strategies."""

    algorithm: SearchAlgorithm

    def __init__(self, evaluator: ConfigurationEvaluator,
                 parameters: Optional[AdvisorParameters] = None) -> None:
        self.evaluator = evaluator
        self.parameters = parameters or AdvisorParameters()
        self._evaluations = 0

    # -- helpers ---------------------------------------------------------
    def _evaluate(self, configuration: IndexConfiguration) -> ConfigurationBenefit:
        self._evaluations += 1
        return self.evaluator.evaluate(configuration)

    def _update(self, base: ConfigurationBenefit,
                add: Sequence[IndexDefinition] = (),
                remove: Sequence[IndexDefinition] = ()) -> ConfigurationBenefit:
        """Delta re-cost of ``base`` after adding/removing definitions."""
        self._evaluations += 1
        return self.evaluator.update(base, add=add, remove=remove)

    def _definition_for(self, candidate: CandidateIndex) -> IndexDefinition:
        return candidate.to_definition(is_virtual=True)  # memoized by candidate

    def _budget(self) -> Optional[float]:
        return self.parameters.disk_budget_bytes

    def _fits(self, size_bytes: float) -> bool:
        budget = self._budget()
        return budget is None or size_bytes <= budget + 1e-6

    def _result(self, configuration: IndexConfiguration,
                trace: List[SearchStep]) -> SearchResult:
        benefit = self._evaluate(configuration)
        return SearchResult(algorithm=self.algorithm, configuration=configuration,
                            benefit=benefit, budget_bytes=self._budget(),
                            trace=trace, evaluations_performed=self._evaluations)

    # -- interface --------------------------------------------------------
    def search(self, candidates: CandidateSet,
               dag: Optional[GeneralizationDag] = None) -> SearchResult:
        raise NotImplementedError


class GreedySearch(_SearchBase):
    """Plain greedy 0/1-knapsack approximation (no redundancy handling)."""

    algorithm = SearchAlgorithm.GREEDY

    def search(self, candidates: CandidateSet,
               dag: Optional[GeneralizationDag] = None) -> SearchResult:
        trace: List[SearchStep] = []
        scored: List[Tuple[float, float, float, CandidateIndex, IndexDefinition]] = []
        for candidate in candidates:
            definition = self._definition_for(candidate)
            size = self.evaluator.index_size_bytes(definition)
            benefit = self._evaluate(IndexConfiguration([definition])).total_benefit
            if benefit <= 0:
                trace.append(SearchStep("skip (no benefit)", candidate.pattern.to_text()))
                continue
            ratio = benefit / max(size, 1.0)
            scored.append((ratio, benefit, size, candidate, definition))
        scored.sort(key=lambda item: item[0], reverse=True)

        configuration = IndexConfiguration(name="greedy")
        used_bytes = 0.0
        for ratio, benefit, size, candidate, definition in scored:
            if not self._fits(used_bytes + size):
                trace.append(SearchStep("skip (budget)", candidate.pattern.to_text(),
                                        f"size {size / 1024:.1f} KiB"))
                continue
            configuration.add(definition)
            used_bytes += size
            trace.append(SearchStep("add", candidate.pattern.to_text(),
                                    f"benefit/size ratio {ratio:.3f}"))
        return self._result(configuration, trace)


class GreedyWithHeuristicsSearch(_SearchBase):
    """Greedy search with the paper's redundancy heuristics."""

    algorithm = SearchAlgorithm.GREEDY_HEURISTIC

    def search(self, candidates: CandidateSet,
               dag: Optional[GeneralizationDag] = None) -> SearchResult:
        trace: List[SearchStep] = []
        configuration = IndexConfiguration(name="greedy-heuristic")
        current = self._evaluate(configuration)
        covered_predicates: Set[str] = set()
        budget = self._budget()

        #: Queries whose cost under a growing configuration is *not*
        #: guaranteed to make cached marginal gains upper bounds: a
        #: multi-predicate query's index-ANDing plan can make an index
        #: *more* attractive once a partner index is present.  Gains of
        #: candidates overlapping a dirtied volatile query are
        #: re-evaluated eagerly; single-predicate queries (best single
        #: leg, monotone) and updates (additive maintenance) stay lazy.
        volatile_ids = frozenset(
            query.query_id for query in self.evaluator.queries
            if not query.is_update and len(query.predicates) >= 2)

        by_key: Dict[Tuple[str, str], CandidateIndex] = {}
        definitions: Dict[Tuple[str, str], IndexDefinition] = {}
        sizes: Dict[Tuple[str, str], float] = {}
        seqs: Dict[Tuple[str, str], int] = {}
        relevance: Dict[Tuple[str, str], FrozenSet[str]] = {}
        #: key -> (gain, config version the gain was computed at).  A
        #: gain stays a valid upper bound until an addition touches one
        #: of the candidate's affected queries.
        gains: Dict[Tuple[str, str], Tuple[float, int]] = {}
        #: Monotonic count of configuration additions; per-query version
        #: of the last addition that affected the query.
        change_version = 0
        query_version: Dict[str, int] = {}
        #: Heap entries: (-ratio, insertion seq, key, gain version).
        #: Insertion order breaks ties exactly like a first-max scan
        #: over the candidates; the version lets superseded duplicates (left
        #: behind by eager re-evaluation) be discarded on pop.
        heap: List[Tuple[float, int, Tuple[str, str], int]] = []
        #: Entries that did not fit the budget when popped; re-inserted
        #: only after an eviction frees space (the configuration never
        #: shrinks otherwise).
        parked: List[Tuple[float, int, Tuple[str, str], int]] = []

        def compute_gain(key: Tuple[str, str]) -> float:
            extended = self._update(current, add=[definitions[key]])
            return extended.total_benefit - current.total_benefit

        def push(key: Tuple[str, str], gain: float) -> None:
            gains[key] = (gain, change_version)
            heapq.heappush(heap, (-(gain / max(sizes[key], 1.0)),
                                  seqs[key], key, change_version))

        def is_stale(key: Tuple[str, str], version: int) -> bool:
            for query_id in relevance[key]:
                if query_version.get(query_id, 0) > version:
                    return True
            return False

        for seq, candidate in enumerate(candidates):
            key = candidate.key
            definition = self._definition_for(candidate)
            size = self.evaluator.index_size_bytes(definition)
            if budget is not None and size > budget + 1e-6:
                continue  # can never fit, even into an empty configuration
            if not self._covered_patterns(candidate):
                continue  # covers no workload pattern: redundant forever
            by_key[key] = candidate
            definitions[key] = definition
            sizes[key] = size
            seqs[key] = seq
            relevance[key] = self.evaluator.relevant_queries(definition)
            push(key, compute_gain(key))

        while heap:
            neg_ratio, seq, key, entry_version = heapq.heappop(heap)
            candidate = by_key.get(key)
            if candidate is None:
                continue  # already selected or dropped
            if entry_version != gains[key][1]:
                continue  # superseded by an eager re-evaluation
            if not self._newly_covered(candidate, covered_predicates):
                # Redundant: every workload pattern it would serve is
                # already covered.  The covered set only grows, so the
                # candidate can be dropped for good.
                del by_key[key]
                continue
            size = sizes[key]
            if not self._fits(current.total_size_bytes + size):
                parked.append((neg_ratio, seq, key, entry_version))
                continue
            gain, version = gains[key]
            if is_stale(key, version):
                push(key, compute_gain(key))
                continue
            if gain / max(size, 1.0) <= _MIN_RATIO:
                # The fresh head's ratio is below the selection floor,
                # and it bounds every remaining entry's ratio: nothing
                # left is selectable.
                break
            if gain <= _MIN_GAIN:
                # Ineligible now; only an eager volatile re-evaluation
                # can revive it, so drop this entry (not the candidate).
                continue
            # Select the head: its gain is current, and every other
            # entry's (upper-bound) ratio is at most this one's.  The
            # delta update re-costs only the affected queries, all of
            # which are already in the per-query cache from the gain
            # computation when nothing changed in between.  It must run
            # before ``configuration`` is mutated: the update is applied
            # against ``current.configuration``, which aliases
            # ``configuration`` until the first delta de-aliases it.
            del by_key[key]
            definition = definitions[key]
            current = self._update(current, add=[definition])
            configuration.add(definition)
            covered_predicates.update(self._covered_patterns(candidate))
            trace.append(SearchStep("add", candidate.pattern.to_text(),
                                    f"marginal benefit {gain:.1f}, "
                                    f"ratio {gain / max(size, 1.0):.4f}"))
            affected = relevance[key]
            change_version += 1
            for query_id in affected:
                query_version[query_id] = change_version
            volatile_dirty = affected & volatile_ids
            if volatile_dirty:
                # Gains touching a dirtied multi-predicate query may have
                # *risen* (ANDing synergy), so their stale heap entries
                # are not upper bounds; re-evaluate them eagerly and let
                # the version check discard the superseded entries.
                for other_key in list(by_key):
                    if not relevance[other_key] & volatile_dirty:
                        continue
                    other = by_key[other_key]
                    if not self._newly_covered(other, covered_predicates):
                        del by_key[other_key]
                        continue
                    push(other_key, compute_gain(other_key))
            evicted = current.unused_indexes
            if evicted:
                # Evicted indexes were used by no plan, so current costs
                # are unchanged and size shrinks, which can let parked
                # candidates back in.  Cached gains overlapping a
                # volatile query may still have priced an ANDing plan
                # with the evicted index, so mark those queries dirty --
                # losing a partner can only *lower* such gains, so the
                # stale values stay upper bounds and lazy re-evaluation
                # at the heap head remains exact.
                evicted_volatile: Set[str] = set()
                for index in evicted:
                    evicted_volatile |= (
                        self.evaluator.relevant_queries(index) & volatile_ids)
                if evicted_volatile:
                    change_version += 1
                    for query_id in evicted_volatile:
                        query_version[query_id] = change_version
                current = self._update(current, remove=evicted)
                for index in evicted:
                    configuration.remove(index)
                    trace.append(SearchStep("evict (unused)",
                                            index.pattern.to_text()))
                if parked:
                    for entry in parked:
                        heapq.heappush(heap, entry)
                    parked = []
        return self._result(configuration, trace)

    # -- heuristics -------------------------------------------------------
    def _covered_patterns(self, candidate: CandidateIndex) -> Set[str]:
        return {predicate.pattern.to_text()
                for predicate in candidate.covered_predicates}

    def _newly_covered(self, candidate: CandidateIndex,
                       covered: Set[str]) -> Set[str]:
        return self._covered_patterns(candidate) - covered


class TopDownSearch(_SearchBase):
    """Root-to-leaf search through the generalization DAG."""

    algorithm = SearchAlgorithm.TOP_DOWN

    def search(self, candidates: CandidateSet,
               dag: Optional[GeneralizationDag] = None) -> SearchResult:
        if dag is None:
            dag = GeneralizationDag(candidates)
        trace: List[SearchStep] = []

        configuration = IndexConfiguration(name="top-down")
        members: Dict[Tuple[str, str], CandidateIndex] = {}
        #: Victim queue: (-size, insertion seq, key).  Index sizes never
        #: change, so the heap never goes stale; popped keys that left
        #: ``members`` are skipped.
        victim_heap: List[Tuple[float, int, Tuple[str, str]]] = []
        insertion_seq = 0

        def admit(candidate: CandidateIndex) -> IndexDefinition:
            nonlocal insertion_seq
            definition = self._definition_for(candidate)
            members[candidate.key] = candidate
            heapq.heappush(victim_heap,
                           (-self.evaluator.index_size_bytes(definition),
                            insertion_seq, candidate.key))
            insertion_seq += 1
            return definition

        for root in dag.roots:
            configuration.add(admit(root))
            trace.append(SearchStep("start from root", root.pattern.to_text()))

        current = self._evaluate(configuration)
        # Progressively replace general indexes by their children until the
        # configuration fits the budget.  Delta updates are applied
        # against ``current.configuration`` *before* the local
        # ``configuration`` mirror is mutated (the two alias each other
        # until the first delta de-aliases them).
        guard = 0
        max_iterations = 4 * max(1, len(candidates))
        while not self._fits(current.total_size_bytes) and guard < max_iterations:
            guard += 1
            victim = self._pick_victim(members, victim_heap)
            if victim is None:
                break
            victim_definition = self._definition_for(victim)
            del members[victim.key]
            children = dag.children_of(victim)
            added_definitions: List[IndexDefinition] = []
            if children:
                for child in children:
                    if child.key in members:
                        continue
                    # Do not add a child that is already covered by a more
                    # general member still in the configuration: the goal is
                    # the most general set, not a redundant one.
                    if any(member.covers_candidate(child)
                           for member in members.values()):
                        continue
                    added_definitions.append(admit(child))
                trace.append(SearchStep(
                    "replace by children", victim.pattern.to_text(),
                    f"{len(added_definitions)} child(ren) added"))
            else:
                trace.append(SearchStep("drop (leaf over budget)",
                                        victim.pattern.to_text()))
            current = self._update(current, add=added_definitions,
                                   remove=[victim_definition])
            configuration.remove(victim_definition)
            for definition in added_definitions:
                configuration.add(definition)

        # Final trim: if still over budget (e.g. even leaves do not fit),
        # drop the smallest-benefit members until it fits.
        while not self._fits(current.total_size_bytes) and len(configuration) > 0:
            worst = self._least_valuable(configuration, current)
            if worst is None:
                break
            members.pop(worst.key, None)
            trace.append(SearchStep("drop (budget trim)", worst.pattern.to_text()))
            current = self._update(current, remove=[worst])
            configuration.remove(worst)
        return self._result(configuration, trace)

    # -- victim selection ---------------------------------------------------
    @staticmethod
    def _pick_victim(members: Dict[Tuple[str, str], CandidateIndex],
                     victim_heap: List[Tuple[float, int, Tuple[str, str]]]
                     ) -> Optional[CandidateIndex]:
        """The member whose replacement frees the most space: the largest
        index, ties to the earliest admitted."""
        while victim_heap:
            _, _, key = heapq.heappop(victim_heap)
            candidate = members.get(key)
            if candidate is not None:
                return candidate
        return None

    def _least_valuable(self, configuration: IndexConfiguration,
                        current: ConfigurationBenefit) -> Optional[IndexDefinition]:
        used = current.used_index_keys
        # Prefer dropping unused indexes, then the largest one.
        unused = [index for index in configuration if index.key not in used]
        pool = unused or configuration.definitions
        if not pool:
            return None
        return max(pool, key=lambda index: current.index_sizes.get(
            index.key, self.evaluator.index_size_bytes(index)))


def create_search(algorithm: SearchAlgorithm, evaluator: ConfigurationEvaluator,
                  parameters: Optional[AdvisorParameters] = None) -> _SearchBase:
    """Factory mapping a :class:`SearchAlgorithm` to its implementation."""
    if algorithm is SearchAlgorithm.GREEDY:
        return GreedySearch(evaluator, parameters)
    if algorithm is SearchAlgorithm.GREEDY_HEURISTIC:
        return GreedyWithHeuristicsSearch(evaluator, parameters)
    if algorithm is SearchAlgorithm.TOP_DOWN:
        return TopDownSearch(evaluator, parameters)
    raise ValueError(f"unknown search algorithm: {algorithm!r}")
