"""The workload model and the normalized query form.

A *workload* is a weighted list of statements (queries and updates), as
the DBA would hand to the advisor.  Each statement is lowered by the
front ends to a :class:`NormalizedQuery`:

* ``predicates`` -- the indexable path predicates, each an absolute
  simple path spine plus an optional comparison.  These are exactly the
  things an XML pattern index can help with, so they are what the
  optimizer's index matching and the advisor's candidate enumeration
  consume.
* ``extraction_paths`` -- paths that are navigated only to construct the
  result.  They contribute navigation cost but no index opportunity.
* update statements carry the paths they touch so the advisor can charge
  index maintenance cost for indexes whose patterns overlap them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Optional, Union

from repro.xpath.ast import BinaryOp
from repro.xpath.patterns import PathPattern
from repro.xquery.errors import WorkloadError


class QueryLanguage(enum.Enum):
    """The surface language of a workload statement."""

    XQUERY = "xquery"
    SQLXML = "sql/xml"
    XPATH = "xpath"


class ValueType(enum.Enum):
    """SQL type an XML pattern index is declared over.

    Mirrors DB2's ``GENERATE KEY USING XMLPATTERN ... AS SQL <type>``.
    The advisor picks the type from the literals the workload compares
    against: numeric comparisons want a DOUBLE index, everything else a
    VARCHAR index.
    """

    VARCHAR = "VARCHAR"
    DOUBLE = "DOUBLE"


class UpdateKind(enum.Enum):
    """Kinds of data-modification statements the workload can contain."""

    INSERT = "insert"
    DELETE = "delete"
    UPDATE = "update"


@dataclass(frozen=True)
class PathPredicate:
    """An indexable predicate: an absolute path plus an optional comparison.

    Attributes
    ----------
    pattern:
        The predicate's path spine as an index pattern (absolute, linear,
        predicate-free), e.g. ``/site/regions/africa/item/quantity``.
    op:
        Comparison operator, or ``None`` for a pure existence test.
    value:
        The literal compared against (string or float), when ``op`` is set.
    value_type:
        The index value type this predicate wants (DOUBLE for numeric
        comparisons, VARCHAR otherwise).
    selectivity_hint:
        Optional externally supplied selectivity (used by synthetic
        workloads); ``None`` means "estimate from statistics".
    """

    pattern: PathPattern
    op: Optional[BinaryOp] = None
    value: Optional[Union[str, float]] = None
    value_type: ValueType = ValueType.VARCHAR
    selectivity_hint: Optional[float] = None

    @property
    def is_equality(self) -> bool:
        return self.op is BinaryOp.EQ

    @property
    def is_range(self) -> bool:
        return self.op is not None and self.op.is_range

    @property
    def is_existence(self) -> bool:
        return self.op is None

    def describe(self) -> str:
        """Readable one-line rendering used in explain output and reports."""
        text = self.pattern.to_text()
        if self.op is None:
            return text
        value = self.value
        if isinstance(value, float) and value == int(value):
            value = int(value)
        return f"{text} {self.op.value} {value!r}"


@dataclass
class NormalizedQuery:
    """A workload statement lowered to the internal form."""

    query_id: str
    text: str
    language: QueryLanguage
    predicates: List[PathPredicate] = field(default_factory=list)
    extraction_paths: List[PathPattern] = field(default_factory=list)
    frequency: float = 1.0
    is_update: bool = False
    update_kind: Optional[UpdateKind] = None
    #: For updates: the simple-path subtrees touched by the modification.
    touched_patterns: List[PathPattern] = field(default_factory=list)

    def all_patterns(self) -> List[PathPattern]:
        """Every pattern the statement mentions (predicates + extraction)."""
        return [p.pattern for p in self.predicates] + list(self.extraction_paths)

    def routing_patterns(self) -> List[PathPattern]:
        """The patterns that decide which collections this statement can
        touch (the structural routing set).

        A read query with predicates only matches documents where *every*
        predicate path exists, so its predicates route it; a pure
        navigation query routes by its extraction paths; an update routes
        by the subtrees it touches (plus any predicates).
        """
        if self.is_update:
            return list(self.touched_patterns) + [p.pattern for p in self.predicates]
        if self.predicates:
            return [p.pattern for p in self.predicates]
        return list(self.extraction_paths)


@dataclass
class WorkloadStatement:
    """A raw workload entry as supplied by the user/DBA."""

    text: str
    frequency: float = 1.0
    language: Optional[QueryLanguage] = None
    statement_id: Optional[str] = None

    def __post_init__(self) -> None:
        if self.frequency <= 0:
            raise WorkloadError(
                f"statement frequency must be positive, got {self.frequency}")


class Workload:
    """An ordered collection of workload statements with frequencies.

    The workload is what the advisor tunes for: query frequencies weight
    estimated benefits, and update frequencies weight index maintenance
    costs.
    """

    def __init__(self, statements: Optional[Iterable[WorkloadStatement]] = None,
                 name: str = "workload") -> None:
        self.name = name
        self._statements: List[WorkloadStatement] = []
        if statements:
            for statement in statements:
                self.add(statement)

    # ------------------------------------------------------------------
    def add(self, statement: Union[WorkloadStatement, str],
            frequency: float = 1.0,
            language: Optional[QueryLanguage] = None) -> WorkloadStatement:
        """Add a statement (object or raw text) and return the stored entry."""
        if isinstance(statement, str):
            statement = WorkloadStatement(text=statement, frequency=frequency,
                                          language=language)
        if statement.statement_id is None:
            statement.statement_id = f"{self.name}-q{len(self._statements) + 1}"
        self._statements.append(statement)
        return statement

    def extend(self, statements: Iterable[Union[WorkloadStatement, str]]) -> None:
        for statement in statements:
            self.add(statement)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._statements)

    def __iter__(self) -> Iterator[WorkloadStatement]:
        return iter(self._statements)

    def __getitem__(self, index: int) -> WorkloadStatement:
        return self._statements[index]

    @property
    def statements(self) -> List[WorkloadStatement]:
        return list(self._statements)

    @property
    def total_frequency(self) -> float:
        return sum(s.frequency for s in self._statements)

    def scaled(self, factor: float) -> "Workload":
        """Return a copy with every frequency multiplied by ``factor``."""
        copy = Workload(name=self.name)
        for statement in self._statements:
            copy.add(WorkloadStatement(text=statement.text,
                                       frequency=statement.frequency * factor,
                                       language=statement.language,
                                       statement_id=statement.statement_id))
        return copy

    def merged_with(self, other: "Workload", name: Optional[str] = None) -> "Workload":
        """Return a new workload containing the statements of both."""
        merged = Workload(name=name or f"{self.name}+{other.name}")
        for statement in list(self._statements) + list(other.statements):
            merged.add(WorkloadStatement(text=statement.text,
                                         frequency=statement.frequency,
                                         language=statement.language))
        return merged

    def describe(self) -> str:
        """A short human-readable summary of the workload composition."""
        queries = sum(1 for s in self._statements
                      if not s.text.strip().lower().startswith(("insert", "delete", "update")))
        updates = len(self._statements) - queries
        return (f"workload {self.name!r}: {len(self._statements)} statements "
                f"({queries} queries, {updates} updates), "
                f"total frequency {self.total_frequency:g}")
