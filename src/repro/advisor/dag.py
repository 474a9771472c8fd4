"""The generalization DAG (Section 2.2, Figure 4).

Nodes are candidate indexes; there is an edge from a candidate to each
of its *direct* generalizations ("each node ... has as its parents the
possible generalizations of this pattern").  The DAG's roots are the
most general candidates obtainable from the workload; the top-down
search walks it root-to-leaf.

Edges come from exact pattern containment restricted to
same-value-type candidates (:func:`containment_relation`, computed once
and shared with the generalization kernel), transitively reduced so
that parents are immediate generalizations only.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple

from repro.advisor.candidates import CandidateIndex, CandidateKey, CandidateSet
from repro.xpath.patterns import pattern_contains

#: Candidate key -> the same-value-type candidates it contains, by key.
Containment = Mapping[CandidateKey, Mapping[CandidateKey, CandidateIndex]]


def containment_relation(candidates: Iterable[CandidateIndex]) -> Tuple[Containment, int]:
    """The containment relation and the number of :func:`pattern_contains`
    calls made: one per ordered same-type pair.  Items only need ``key``,
    ``pattern`` and ``value_type`` attributes."""
    groups: Dict[object, List[CandidateIndex]] = {}
    for candidate in candidates:
        groups.setdefault(candidate.value_type, []).append(candidate)
    relation: Dict[CandidateKey, Dict[CandidateKey, CandidateIndex]] = {}
    tests = 0
    for group in groups.values():
        for general in group:
            others = [specific for specific in group if specific is not general]
            tests += len(others)
            relation[general.key] = {
                specific.key: specific for specific in others
                if pattern_contains(general.pattern, specific.pattern)}
    return relation, tests


class GeneralizationDag:
    """Parent/child structure over a candidate set.

    ``containment`` is the relation the edges are reduced from; it may
    cover more candidates than the set and is computed when not supplied.
    """

    def __init__(self, candidates: CandidateSet,
                 containment: Optional[Containment] = None) -> None:
        self._candidates = candidates
        if containment is None:
            containment, _ = containment_relation(candidates)
        # Strict generalizations (ancestors) of every candidate in the set.
        ancestors: Dict[CandidateKey, Set[CandidateKey]] = {
            candidate.key: set() for candidate in candidates}
        for parent in ancestors:
            for child in containment[parent]:
                if child in ancestors and parent not in containment[child]:
                    ancestors[child].add(parent)
        #: child key -> set of parent keys (direct generalizations): an
        #: ancestor is direct if no other ancestor of the child is a
        #: descendant of it (transitive reduction).
        self._parents: Dict[CandidateKey, Set[CandidateKey]] = {
            child: above - set().union(*(ancestors[other] for other in above))
            for child, above in ancestors.items()}
        #: parent key -> set of child keys (direct specializations).
        self._children: Dict[CandidateKey, Set[CandidateKey]] = {
            key: set() for key in ancestors}
        for child, parents in self._parents.items():
            for parent in parents:
                self._children[parent].add(child)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def candidates(self) -> CandidateSet:
        return self._candidates

    @property
    def node_count(self) -> int:
        return len(self._parents)

    @property
    def edge_count(self) -> int:
        return sum(len(parents) for parents in self._parents.values())

    def parents_of(self, candidate: CandidateIndex) -> List[CandidateIndex]:
        """Direct generalizations of ``candidate``."""
        return [self._candidates.get(key) for key in sorted(self._parents.get(candidate.key, set()))]

    def children_of(self, candidate: CandidateIndex) -> List[CandidateIndex]:
        """Direct specializations of ``candidate``."""
        return [self._candidates.get(key) for key in sorted(self._children.get(candidate.key, set()))]

    @property
    def roots(self) -> List[CandidateIndex]:
        """Candidates with no generalization above them (most general)."""
        return [self._candidates.get(key)
                for key, parents in self._parents.items() if not parents]

    @property
    def leaves(self) -> List[CandidateIndex]:
        """Candidates with no specialization below them (most specific)."""
        return [self._candidates.get(key)
                for key, children in self._children.items() if not children]

    def descendants_of(self, candidate: CandidateIndex) -> List[CandidateIndex]:
        """All (transitive) specializations of ``candidate``."""
        seen: Set[CandidateKey] = set()
        frontier = [candidate.key]
        while frontier:
            key = frontier.pop()
            for child_key in self._children.get(key, set()):
                if child_key not in seen:
                    seen.add(child_key)
                    frontier.append(child_key)
        return [self._candidates.get(key) for key in sorted(seen)]

    def depth(self) -> int:
        """Length of the longest root-to-leaf chain (1 for a flat DAG)."""
        memo: Dict[CandidateKey, int] = {}

        def walk(key: CandidateKey) -> int:
            if key in memo:
                return memo[key]
            children = self._children.get(key, set())
            result = 1 + (max((walk(child) for child in children), default=0))
            memo[key] = result
            return result

        return max((walk(root.key) for root in self.roots), default=0)

    # ------------------------------------------------------------------
    def render(self) -> str:
        """Indented text rendering of the DAG (the Figure 4 view)."""
        lines: List[str] = [f"generalization DAG: {self.node_count} nodes, "
                            f"{self.edge_count} edges, depth {self.depth()}"]
        visited: Set[CandidateKey] = set()

        def emit(candidate: CandidateIndex, indent: int) -> None:
            marker = "*" if candidate.is_generalized else "-"
            lines.append("  " * indent + f"{marker} {candidate.pattern.to_text()} "
                         f"[{candidate.value_type.value}]")
            if candidate.key in visited:
                return
            visited.add(candidate.key)
            for child in self.children_of(candidate):
                emit(child, indent + 1)

        for root in sorted(self.roots, key=lambda c: c.pattern.to_text()):
            emit(root, 1)
        return "\n".join(lines)
