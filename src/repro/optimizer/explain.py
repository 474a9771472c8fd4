"""The two EXPLAIN modes the paper adds to the optimizer.

Enumerate Indexes mode
    "Our Enumerate Indexes optimizer mode creates a virtual index with
    index pattern ``//*``.  This ``//*`` virtual index hypothetically
    indexes all elements in an XML document and hence can be matched
    with any XPath pattern in the query that can be answered using an
    index.  The process of index matching in the optimizer determines
    the XML patterns in the query that match this ``//*`` virtual index,
    and we use these patterns as the basic set of candidate indexes."

    :func:`enumerate_indexes` does exactly that: it installs universal
    virtual indexes (``//*`` and ``//@*``, in both value types), runs the
    optimizer's index matching over the query's predicates, and reports
    the predicate patterns that matched, each tagged with the value type
    the predicate wants.

Evaluate Indexes mode
    "The optimizer simulates an index configuration and estimates the
    cost of a query under this configuration."  :func:`evaluate_indexes`
    installs the given configuration as virtual indexes, plans the query
    and reports the estimated cost, the plan, and which of the virtual
    indexes the plan actually used.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Tuple

from repro.index.definition import IndexConfiguration, IndexDefinition
from repro.index.matching import index_matches_predicate
from repro.optimizer.optimizer import Optimizer
from repro.optimizer.plans import QueryPlan
from repro.storage.document_store import XmlDatabase
from repro.xpath.patterns import (
    UNIVERSAL_ATTRIBUTE_PATTERN,
    UNIVERSAL_ELEMENT_PATTERN,
    PathPattern,
)
from repro.xquery.model import NormalizedQuery, PathPredicate, ValueType


class ExplainMode(enum.Enum):
    """Optimizer invocation modes (normal planning plus the two new ones)."""

    NORMAL = "normal"
    ENUMERATE_INDEXES = "enumerate indexes"
    EVALUATE_INDEXES = "evaluate indexes"


@dataclass(frozen=True)
class CandidateIndexSpec:
    """One basic candidate surfaced by the Enumerate Indexes mode."""

    pattern: PathPattern
    value_type: ValueType
    predicate: PathPredicate

    def to_definition(self, collection: Optional[str] = None) -> IndexDefinition:
        return IndexDefinition.create(self.pattern, self.value_type,
                                      collection=collection, is_virtual=True)

    def describe(self) -> str:
        return f"{self.pattern.to_text()} [{self.value_type.value}] for {self.predicate.describe()}"


@dataclass
class EnumerateIndexesResult:
    """Output of one Enumerate Indexes call for one query."""

    query: NormalizedQuery
    candidates: List[CandidateIndexSpec] = field(default_factory=list)
    #: Cost of the query if every enumerated candidate existed (i.e. the
    #: plan found while matching against the universal virtual indexes).
    cost_with_universal_indexes: float = 0.0
    #: Cost of the query with no indexes at all (document scan).
    cost_without_indexes: float = 0.0

    def render(self) -> str:
        lines = [f"ENUMERATE INDEXES for {self.query.query_id}:",
                 f"  cost without indexes: {self.cost_without_indexes:.1f}",
                 f"  cost with universal virtual index: {self.cost_with_universal_indexes:.1f}"]
        if not self.candidates:
            lines.append("  (no indexable patterns found)")
        for candidate in self.candidates:
            lines.append(f"  candidate: {candidate.describe()}")
        return "\n".join(lines)


@dataclass
class EvaluateIndexesResult:
    """Output of one Evaluate Indexes call for one query."""

    query: NormalizedQuery
    configuration: IndexConfiguration
    plan: QueryPlan
    estimated_cost: float
    used_indexes: List[IndexDefinition] = field(default_factory=list)

    @property
    def used_index_keys(self) -> List[Tuple[str, str]]:
        return [index.key for index in self.used_indexes]

    def render(self) -> str:
        lines = [f"EVALUATE INDEXES for {self.query.query_id}: "
                 f"estimated cost {self.estimated_cost:.1f}"]
        if self.used_indexes:
            for index in self.used_indexes:
                lines.append(f"  uses {index.pattern.to_text()} [{index.value_type.value}]")
        else:
            lines.append("  (configuration not used; document scan chosen)")
        return "\n".join(lines)


def _universal_virtual_indexes() -> List[IndexDefinition]:
    """The universal virtual indexes installed by Enumerate Indexes mode."""
    return [
        IndexDefinition.create(UNIVERSAL_ELEMENT_PATTERN, ValueType.VARCHAR,
                               name="virtual_universal_elem_varchar", is_virtual=True),
        IndexDefinition.create(UNIVERSAL_ELEMENT_PATTERN, ValueType.DOUBLE,
                               name="virtual_universal_elem_double", is_virtual=True),
        IndexDefinition.create(UNIVERSAL_ATTRIBUTE_PATTERN, ValueType.VARCHAR,
                               name="virtual_universal_attr_varchar", is_virtual=True),
        IndexDefinition.create(UNIVERSAL_ATTRIBUTE_PATTERN, ValueType.DOUBLE,
                               name="virtual_universal_attr_double", is_virtual=True),
    ]


def enumerate_indexes(query: NormalizedQuery, database: XmlDatabase,
                      optimizer: Optional[Optimizer] = None) -> EnumerateIndexesResult:
    """Run the Enumerate Indexes mode for one query.

    Returns the basic candidate indexes: one per query predicate that
    index matching bound to the universal virtual index.
    """
    optimizer = optimizer or Optimizer(database)
    universal = _universal_virtual_indexes()
    result = EnumerateIndexesResult(query=query)

    scan_plan = optimizer.optimize(query, candidate_indexes=[])
    result.cost_without_indexes = scan_plan.total_cost

    with database.catalog.virtual_configuration(universal, include_physical=False):
        candidates: List[CandidateIndexSpec] = []
        seen: set = set()
        for predicate in query.predicates:
            for virtual_index in database.catalog.virtual_indexes:
                match = index_matches_predicate(virtual_index, predicate)
                if match is None:
                    continue
                key = (predicate.pattern.to_text(), predicate.value_type.value)
                if key in seen:
                    continue
                seen.add(key)
                candidates.append(CandidateIndexSpec(pattern=predicate.pattern,
                                                     value_type=predicate.value_type,
                                                     predicate=predicate))
                break
        result.candidates = candidates
        universal_plan = optimizer.optimize(
            query, candidate_indexes=database.catalog.virtual_indexes)
        result.cost_with_universal_indexes = universal_plan.total_cost
    return result


def evaluate_indexes(query: NormalizedQuery, database: XmlDatabase,
                     configuration: "IndexConfiguration | Iterable[IndexDefinition]",
                     optimizer: Optional[Optimizer] = None,
                     include_physical: bool = False) -> EvaluateIndexesResult:
    """Run the Evaluate Indexes mode: cost ``query`` under ``configuration``.

    ``include_physical`` controls whether indexes that already physically
    exist stay visible during the simulation; the advisor evaluates
    candidate configurations from a clean slate (False), while what-if
    analysis on top of an existing design passes True.

    The simulation passes the hypothetical configuration to the optimizer
    as an explicit candidate list (physical indexes first, mirroring the
    catalog's visibility order) instead of installing it in the catalog,
    so the hot what-if path neither mutates shared catalog state nor
    defeats the optimizer's statistics-signature-keyed plan cache.
    """
    optimizer = optimizer or Optimizer(database)
    if not isinstance(configuration, IndexConfiguration):
        configuration = IndexConfiguration(configuration)
    visible: List[IndexDefinition] = []
    if include_physical:
        visible.extend(database.catalog.physical_indexes)
    visible.extend(configuration)
    plan = optimizer.optimize(query, candidate_indexes=visible)
    # Report the used indexes in terms of the caller's definitions.
    used: List[IndexDefinition] = []
    used_keys = {index.key for index in plan.used_indexes}
    for definition in configuration:
        if definition.key in used_keys:
            used.append(definition)
    return EvaluateIndexesResult(query=query, configuration=configuration,
                                 plan=plan, estimated_cost=plan.total_cost,
                                 used_indexes=used)
