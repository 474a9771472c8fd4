"""Candidate generalization rules (Section 2.2 of the paper).

The optimizer enumerates patterns that are specific to individual
queries.  To obtain indexes that can serve several queries -- and
queries the training workload has not seen -- the advisor expands the
candidate set with generalized patterns:

* **pairwise label generalization** -- two candidates of the same length
  whose labels differ in some steps produce the pattern with wildcards
  in the differing steps (``/regions/namerica/item/quantity`` +
  ``/regions/africa/item/quantity`` -> ``/regions/*/item/quantity``;
  repeating the rule produces ``/regions/*/item/*``);
* **tail generalization** -- a generalized candidate additionally spawns
  the version of itself with a wildcard last step, indexing all children
  of the shared parent path;
* **prefix generalization** (optional) -- candidates sharing a proper
  prefix but diverging afterwards produce ``<prefix>//*``, an index over
  the whole subtree below the shared prefix.

Rules are applied per value type, to fixpoint or a configured number of
rounds, and every generalized candidate records which workload queries
it (transitively) covers.  The result also carries the
:class:`~repro.advisor.dag.GeneralizationDag` over the expanded set.

The kernel is *key-first* (invariants: ROADMAP.md, "Generalization
kernel"); its output equals that of the naive oracle in
``tests/reference/generalization_reference.py``.

Known quirk, pinned by ``test_prefix_candidate_inherits_uncontained_sources``:
a ``prefix//*`` candidate inherits the queries and predicates of both
sources even when one is an attribute path it does not contain.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, FrozenSet, List, Optional

from repro.advisor.candidates import (
    CandidateIndex,
    CandidateKey,
    CandidateSet,
    extend_unique,
)
from repro.advisor.config import AdvisorParameters
from repro.advisor.dag import GeneralizationDag, containment_relation
from repro.xpath.patterns import (
    PathPattern,
    generalize_pair,
    generalize_prefix,
    generalize_tail,
)
from repro.xquery.model import PathPredicate, ValueType


@dataclass
class GeneralizationResult:
    """Output of the generalization phase."""

    candidates: CandidateSet
    dag: GeneralizationDag
    #: Sizes of the input and of the expansion, before excluded keys go.
    basic_count: int
    generalized_count: int
    rounds_used: int
    #: Deterministic work counts: pairs visited over all rounds, patterns
    #: emitted before the by-key deduplication, ``pattern_contains`` calls.
    pairs_examined: int = 0
    patterns_produced: int = 0
    containment_tests: int = 0

    def describe(self) -> str:
        total = self.basic_count + self.generalized_count
        return (f"generalization: {self.basic_count} basic candidates expanded to "
                f"{total} ({self.generalized_count} generalized, "
                f"{total - len(self.candidates)} excluded) "
                f"in {self.rounds_used} round(s); DAG depth {self.dag.depth()}; "
                f"{self.pairs_examined} pairs examined, "
                f"{self.patterns_produced} patterns produced, "
                f"{self.containment_tests} containment tests")


class _Entry:
    """Kernel state of one candidate key."""

    __slots__ = ("pattern", "value_type", "source", "key",
                 "queries", "predicates", "order")

    def __init__(self, pattern: PathPattern, value_type: ValueType, source: str) -> None:
        self.pattern, self.value_type, self.source = pattern, value_type, source
        self.key: CandidateKey = (pattern.to_text(), value_type.value)
        #: Bitmasks over the interned query / predicate ids, and the
        #: predicate ids in first-discovery order.
        self.queries = self.predicates = 0
        self.order: List[int] = []

    def absorb(self, queries: int, predicates: int, order: List[int]) -> None:
        self.queries |= queries
        if predicates & ~self.predicates:
            self.predicates |= predicates
            extend_unique(self.order, order)


def generalize_candidates(basic: CandidateSet,
                          parameters: Optional[AdvisorParameters] = None,
                          excluded_keys: Optional[FrozenSet[CandidateKey]] = None
                          ) -> GeneralizationResult:
    """Expand ``basic`` with generalized candidates and build the DAG.

    ``excluded_keys`` are dropped from the result after the expansion
    (the rules can re-create an excluded pattern from a surviving one,
    and an excluded candidate still passes its attribution upwards); the
    DAG is built once, over the survivors.
    """
    parameters = parameters or AdvisorParameters()
    cap = parameters.max_candidates
    with_prefix = parameters.enable_prefix_generalization
    rounds_used = pairs_examined = patterns_produced = 0

    query_ids: Dict[str, int] = {}
    predicate_ids: Dict[PathPredicate, int] = {}
    entries: Dict[CandidateKey, _Entry] = {}
    groups: Dict[ValueType, List[_Entry]] = {value_type: [] for value_type in ValueType}
    for candidate in basic:
        entry = _Entry(candidate.pattern, candidate.value_type, candidate.source)
        for query_id in candidate.benefiting_queries:
            entry.queries |= 1 << query_ids.setdefault(query_id, len(query_ids))
        for predicate in candidate.covered_predicates:
            entry.order.append(predicate_ids.setdefault(predicate, len(predicate_ids)))
            entry.predicates |= 1 << entry.order[-1]
        entries[entry.key] = entry
        groups[entry.value_type].append(entry)

    def emissions(members: List[_Entry], size: int):
        """``(pattern or None, source positions)`` for every rule
        application of one round over a group, in emission order."""
        nonlocal pairs_examined
        for i, j in combinations(range(size), 2):
            pairs_examined += 1
            first, second = members[i].pattern, members[j].pattern
            yield generalize_pair(first, second), (i, j)
            if with_prefix:
                yield generalize_prefix(first, second), (i, j)
        # Tails of generalized members only: the paper's example, without
        # turning every single-query candidate into a wildcard.
        for i in range(size):
            if members[i].source == "generalized":
                yield generalize_tail(members[i].pattern), (i,)

    for _ in range(parameters.generalization_rounds):
        if len(entries) >= cap:
            break
        rounds_used += 1
        before = len(entries)
        for value_type, members in groups.items():
            if len(entries) >= cap:
                break
            # Attribution as of now: merges below must not feed patterns
            # emitted later in this pass.
            sources = [(member.queries, member.predicates, list(member.order))
                       for member in members]
            for pattern, positions in emissions(members, len(sources)):
                if pattern is None:
                    continue
                if len(entries) >= cap:
                    break
                patterns_produced += 1
                key = (pattern.to_text(), value_type.value)
                entry = entries.get(key)
                if entry is None:
                    entry = entries[key] = _Entry(pattern, value_type, "generalized")
                    members.append(entry)
                for position in positions:
                    entry.absorb(*sources[position])
        if len(entries) == before:
            break

    # A candidate claims what every candidate it contains claims -- read
    # live, in insertion order, as the reference's sweep does.
    containment, containment_tests = containment_relation(entries.values())
    for general in entries.values():
        for specific in containment[general.key].values():
            general.absorb(specific.queries, specific.predicates, specific.order)

    predicates = list(predicate_ids)
    expanded = CandidateSet(
        CandidateIndex(pattern=entry.pattern, value_type=entry.value_type,
                       source=entry.source,
                       benefiting_queries={query_id for query_id, i in query_ids.items()
                                           if entry.queries >> i & 1},
                       covered_predicates=[predicates[i] for i in entry.order])
        for entry in entries.values() if entry.key not in (excluded_keys or ()))
    return GeneralizationResult(
        candidates=expanded, dag=GeneralizationDag(expanded, containment),
        basic_count=len(basic), generalized_count=len(entries) - len(basic),
        rounds_used=rounds_used, pairs_examined=pairs_examined,
        patterns_produced=patterns_produced, containment_tests=containment_tests)
