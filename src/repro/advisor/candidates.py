"""Basic candidate enumeration (Section 2.1 of the paper).

For every query in the workload we invoke the optimizer in Enumerate
Indexes mode; the patterns it reports become
:class:`CandidateIndex` objects.  A candidate remembers which workload
queries it came from, which is later used by the redundancy heuristics
("a bitmap of XPath patterns in the workload queries that have indexes
on them") and by the reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.index.definition import IndexDefinition
from repro.optimizer.explain import enumerate_indexes
from repro.optimizer.optimizer import Optimizer
from repro.storage.document_store import XmlDatabase
from repro.xpath.patterns import PathPattern, pattern_contains
from repro.xquery.model import NormalizedQuery, PathPredicate, ValueType

#: Identity of a candidate: (pattern text, value type name).
CandidateKey = Tuple[str, str]


def extend_unique(target: list, items: Iterable[Hashable]) -> None:
    """Append the ``items`` not yet in ``target``, keeping first-seen
    order; membership is by hash."""
    seen = set(target)
    for item in items:
        if item not in seen:
            seen.add(item)
            target.append(item)


@dataclass
class CandidateIndex:
    """One candidate index (basic or generalized)."""

    pattern: PathPattern
    value_type: ValueType
    #: "basic" for optimizer-enumerated candidates, "generalized" for
    #: candidates produced by the generalization rules.
    source: str = "basic"
    #: Ids of the workload queries whose predicates this candidate covers.
    benefiting_queries: Set[str] = field(default_factory=set)
    #: The concrete workload predicates this candidate covers.
    covered_predicates: List[PathPredicate] = field(default_factory=list)
    #: Memo of (is_virtual, collection) -> built definition; the search
    #: loops call :meth:`to_definition` once per candidate per round and
    #: the definition is immutable, so one build suffices.
    _definitions: Dict[Tuple[bool, Optional[str]], IndexDefinition] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    @property
    def key(self) -> CandidateKey:
        return (self.pattern.to_text(), self.value_type.value)

    @property
    def is_generalized(self) -> bool:
        return self.source == "generalized"

    def to_definition(self, is_virtual: bool = True,
                      collection: Optional[str] = None) -> IndexDefinition:
        """The index definition this candidate corresponds to (memoized)."""
        cache_key = (is_virtual, collection)
        definition = self._definitions.get(cache_key)
        if definition is None:
            definition = IndexDefinition.create(self.pattern, self.value_type,
                                                collection=collection,
                                                is_virtual=is_virtual)
            self._definitions[cache_key] = definition
        return definition

    def covers(self, predicate: PathPredicate) -> bool:
        """Would an index with this pattern/type be usable for ``predicate``?"""
        if not predicate.is_existence and predicate.value_type is not self.value_type:
            return False
        return pattern_contains(self.pattern, predicate.pattern)

    def covers_candidate(self, other: "CandidateIndex") -> bool:
        """True when this candidate's pattern contains ``other``'s pattern
        (same value type), i.e. this index could replace the other."""
        if self.value_type is not other.value_type:
            return False
        return pattern_contains(self.pattern, other.pattern)

    def describe(self) -> str:
        queries = ",".join(sorted(self.benefiting_queries)) or "-"
        return (f"{self.pattern.to_text()} [{self.value_type.value}] "
                f"({self.source}; queries: {queries})")


class CandidateSet:
    """A duplicate-free, insertion-ordered collection of candidates."""

    def __init__(self, candidates: Optional[Iterable[CandidateIndex]] = None) -> None:
        self._by_key: Dict[CandidateKey, CandidateIndex] = {}
        if candidates:
            for candidate in candidates:
                self.add(candidate)

    # ------------------------------------------------------------------
    def add(self, candidate: CandidateIndex) -> CandidateIndex:
        """Add a candidate, merging query attribution if it already exists."""
        existing = self._by_key.get(candidate.key)
        if existing is None:
            self._by_key[candidate.key] = candidate
            return candidate
        existing.benefiting_queries.update(candidate.benefiting_queries)
        extend_unique(existing.covered_predicates, candidate.covered_predicates)
        # A candidate that is both basic and generalized stays basic (it
        # was explicitly requested by some query).
        if candidate.source == "basic":
            existing.source = "basic"
        return existing

    def get(self, key: CandidateKey) -> Optional[CandidateIndex]:
        return self._by_key.get(key)

    def __contains__(self, candidate: CandidateIndex) -> bool:
        return candidate.key in self._by_key

    def __len__(self) -> int:
        return len(self._by_key)

    def __iter__(self) -> Iterator[CandidateIndex]:
        return iter(self._by_key.values())

    # ------------------------------------------------------------------
    @property
    def candidates(self) -> List[CandidateIndex]:
        return list(self._by_key.values())

    @property
    def basic_candidates(self) -> List[CandidateIndex]:
        return [c for c in self._by_key.values() if not c.is_generalized]

    @property
    def generalized_candidates(self) -> List[CandidateIndex]:
        return [c for c in self._by_key.values() if c.is_generalized]

    def by_value_type(self, value_type: ValueType) -> List[CandidateIndex]:
        return [c for c in self._by_key.values() if c.value_type is value_type]

    def copy(self) -> "CandidateSet":
        fresh = CandidateSet()
        fresh._by_key = {
            key: replace(candidate, benefiting_queries=set(candidate.benefiting_queries),
                         covered_predicates=list(candidate.covered_predicates))
            for key, candidate in self._by_key.items()}
        return fresh

    def describe(self) -> str:
        lines = [f"{len(self._by_key)} candidate(s): "
                 f"{len(self.basic_candidates)} basic, "
                 f"{len(self.generalized_candidates)} generalized"]
        for candidate in self._by_key.values():
            lines.append("  " + candidate.describe())
        return "\n".join(lines)


def enumerate_basic_candidates(queries: Sequence[NormalizedQuery],
                               database: XmlDatabase,
                               optimizer: Optional[Optimizer] = None
                               ) -> CandidateSet:
    """Run Enumerate Indexes mode over every query and pool the results.

    Update statements contribute no candidates (they only contribute
    maintenance cost later), mirroring the paper's pipeline where
    candidates come from query patterns.
    """
    optimizer = optimizer or Optimizer(database)
    candidates = CandidateSet()
    for query in queries:
        if query.is_update:
            continue
        result = enumerate_indexes(query, database, optimizer)
        for spec in result.candidates:
            candidates.add(CandidateIndex(
                pattern=spec.pattern,
                value_type=spec.value_type,
                source="basic",
                benefiting_queries={query.query_id},
                covered_predicates=[spec.predicate],
            ))
    return candidates
