"""Lower workload statements to the internal normalized form.

The normalizer is the bridge between the surface languages (XQuery,
SQL/XML, raw XPath, and the XQuery Update Facility subset used for
update workloads) and the optimizer/advisor, which only understand
:class:`~repro.xquery.model.NormalizedQuery` objects: absolute path
predicates, extraction paths, and touched patterns for updates.

Responsibilities:

* language sniffing when the workload does not label statements;
* resolving XQuery variables (``$i/quantity``) against their ``for`` /
  ``let`` bindings to obtain absolute paths;
* flattening step predicates (``item[quantity > 5]``) and where-clause
  comparisons into :class:`~repro.xquery.model.PathPredicate` objects;
* choosing the index value type (VARCHAR vs DOUBLE) from the literal a
  predicate compares against;
* recognizing update statements and recording which patterns they touch
  so index maintenance cost can be charged.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple, Union

from repro.xpath.ast import (
    Axis,
    BinaryOp,
    ComparisonExpr,
    FunctionCall,
    Literal,
    LocationPath,
    PathExpr,
    Step,
)
from repro.xpath.errors import XPathParseError
from repro.xpath.parser import parse_xpath
from repro.xpath.patterns import PathPattern, PatternStep
from repro.xquery.errors import QueryParseError
from repro.xquery.model import (
    NormalizedQuery,
    PathPredicate,
    QueryLanguage,
    UpdateKind,
    ValueType,
    Workload,
    WorkloadStatement,
)
from repro.xquery.sqlxml_parser import looks_like_sqlxml, parse_sqlxml
from repro.xquery.xquery_parser import parse_xquery, strip_doc_function

_UPDATE_INSERT_RE = re.compile(
    r"^\s*insert\s+nodes?\s+(.+?)\s+(?:into|as\s+(?:first|last)\s+into)\s+(.+?)\s*$",
    re.IGNORECASE | re.DOTALL)
_UPDATE_DELETE_RE = re.compile(
    r"^\s*delete\s+nodes?\s+(.+?)\s*$", re.IGNORECASE | re.DOTALL)
_UPDATE_REPLACE_RE = re.compile(
    r"^\s*replace\s+value\s+of\s+node\s+(.+?)\s+with\s+(.+?)\s*$",
    re.IGNORECASE | re.DOTALL)


# ----------------------------------------------------------------------
# Location path -> index pattern conversion
# ----------------------------------------------------------------------
def location_path_to_pattern(path: LocationPath) -> PathPattern:
    """Convert a resolved (absolute, variable-free) location path into an
    index pattern.

    ``text()`` steps are dropped: an index on an element path indexes the
    element's text value, so ``/a/b/text()`` and ``/a/b`` want the same
    index pattern.
    """
    steps: List[PatternStep] = []
    for step in path.steps:
        if step.is_text:
            continue
        descendant = step.axis is Axis.DESCENDANT_OR_SELF
        if step.axis is Axis.ATTRIBUTE:
            label = "@*" if step.node_test == "*" else "@" + step.node_test
        else:
            label = step.node_test
        steps.append(PatternStep(label=label, descendant=descendant))
    if not steps:
        # The document root itself: represent as the universal pattern so
        # downstream code never sees an empty pattern.
        return PathPattern.parse("//*")
    return PathPattern(steps=tuple(steps))


def _resolve(path: LocationPath, bindings: Dict[str, LocationPath],
             statement: str) -> LocationPath:
    """Resolve a (possibly variable-relative) path to an absolute path."""
    if path.variable is None:
        if path.absolute:
            return path
        # A bare relative path with no variable: treat as document-rooted
        # descendant path (e.g. ``item/name`` written loosely).
        return LocationPath(steps=list(path.steps), absolute=True)
    if path.variable not in bindings:
        raise QueryParseError(
            f"reference to unbound variable ${path.variable}", statement)
    base = bindings[path.variable]
    return LocationPath(steps=list(base.steps) + list(path.steps),
                        absolute=True)


def _literal_value_type(value: Union[str, float]) -> ValueType:
    return ValueType.DOUBLE if isinstance(value, float) else ValueType.VARCHAR


class _PredicateCollector:
    """Accumulates PathPredicates and extraction patterns for one statement."""

    def __init__(self, statement: str) -> None:
        self.statement = statement
        self.predicates: List[PathPredicate] = []
        self.extraction: List[PathPattern] = []
        self._seen_predicates: set = set()
        self._seen_extraction: set = set()

    # -- recording -----------------------------------------------------
    def add_predicate(self, pattern: PathPattern, op: Optional[BinaryOp],
                      value: Optional[Union[str, float]]) -> None:
        value_type = (_literal_value_type(value) if op is not None and value is not None
                      else ValueType.VARCHAR)
        if op is not None and op.is_range and isinstance(value, str):
            # Range comparisons against strings still use VARCHAR indexes.
            value_type = ValueType.VARCHAR
        key = (pattern, op, value, value_type)
        if key in self._seen_predicates:
            return
        self._seen_predicates.add(key)
        self.predicates.append(PathPredicate(pattern=pattern, op=op, value=value,
                                             value_type=value_type))

    def add_extraction(self, pattern: PathPattern) -> None:
        if pattern in self._seen_extraction:
            return
        self._seen_extraction.add(pattern)
        self.extraction.append(pattern)

    # -- walking -------------------------------------------------------
    def collect_path(self, path: LocationPath, bindings: Dict[str, LocationPath],
                     as_predicate: bool) -> PathPattern:
        """Process an absolute-or-resolvable path: flatten its step
        predicates into PathPredicates and record its spine.

        Returns the spine pattern of the full path.
        """
        resolved = _resolve(path, bindings, self.statement)
        spine_steps: List[Step] = []
        for step in resolved.steps:
            spine_steps.append(Step(step.axis, step.node_test))
            if step.predicates:
                context = LocationPath(steps=[Step(s.axis, s.node_test)
                                              for s in spine_steps], absolute=True)
                for predicate in step.predicates:
                    self._collect_expression(predicate.expression, context, bindings)
        spine = LocationPath(steps=spine_steps, absolute=True)
        pattern = location_path_to_pattern(spine)
        if as_predicate:
            self.add_predicate(pattern, None, None)
        else:
            self.add_extraction(pattern)
        return pattern

    def collect_where(self, expression: PathExpr,
                      bindings: Dict[str, LocationPath]) -> None:
        root = LocationPath(steps=[], absolute=True)
        self._collect_expression(expression, root, bindings)

    def _collect_expression(self, expression: PathExpr, context: LocationPath,
                            bindings: Dict[str, LocationPath]) -> None:
        if isinstance(expression, ComparisonExpr):
            if expression.op in (BinaryOp.AND, BinaryOp.OR):
                self._collect_expression(expression.left, context, bindings)
                self._collect_expression(expression.right, context, bindings)
                return
            self._collect_comparison(expression, context, bindings)
            return
        if isinstance(expression, LocationPath):
            pattern = self._pattern_for(expression, context, bindings)
            if pattern is not None:
                self.add_predicate(pattern, None, None)
            return
        if isinstance(expression, FunctionCall):
            # contains()/starts-with() etc.: the path argument is still a
            # structural index opportunity even though the value condition
            # cannot be answered from a value index.
            for argument in expression.arguments:
                if isinstance(argument, LocationPath):
                    pattern = self._pattern_for(argument, context, bindings)
                    if pattern is not None:
                        self.add_predicate(pattern, None, None)
                elif isinstance(argument, (ComparisonExpr, FunctionCall)):
                    self._collect_expression(argument, context, bindings)
            return
        if isinstance(expression, Literal):
            return

    def _collect_comparison(self, expression: ComparisonExpr, context: LocationPath,
                            bindings: Dict[str, LocationPath]) -> None:
        left, right = expression.left, expression.right
        op = expression.op
        path_side: Optional[LocationPath] = None
        literal_side: Optional[Literal] = None
        if isinstance(left, LocationPath) and isinstance(right, Literal):
            path_side, literal_side = left, right
        elif isinstance(right, LocationPath) and isinstance(left, Literal):
            path_side, literal_side = right, left
            op = _flip_operator(op)
        if path_side is not None and literal_side is not None:
            pattern = self._pattern_for(path_side, context, bindings)
            if pattern is not None:
                self.add_predicate(pattern, op, literal_side.value)
            return
        # Path-to-path comparisons (joins) or nested expressions: record
        # both sides as structural predicates.
        for side in (left, right):
            self._collect_expression(side, context, bindings)

    def _pattern_for(self, path: LocationPath, context: LocationPath,
                     bindings: Dict[str, LocationPath]) -> Optional[PathPattern]:
        if path.variable is not None:
            resolved = _resolve(path, bindings, self.statement)
        elif path.absolute:
            resolved = path
        else:
            resolved = context.append(path)
        resolved = resolved.without_predicates()
        if not resolved.steps:
            return None
        return location_path_to_pattern(resolved)


def _flip_operator(op: BinaryOp) -> BinaryOp:
    flips = {BinaryOp.LT: BinaryOp.GT, BinaryOp.LE: BinaryOp.GE,
             BinaryOp.GT: BinaryOp.LT, BinaryOp.GE: BinaryOp.LE}
    return flips.get(op, op)


# ----------------------------------------------------------------------
# Language detection
# ----------------------------------------------------------------------
def detect_language(statement: str) -> QueryLanguage:
    """Best-effort language sniffing for unlabeled workload statements."""
    text = statement.strip()
    lowered = text.lower()
    if looks_like_sqlxml(text):
        return QueryLanguage.SQLXML
    if (lowered.startswith(("for ", "let ", "for$", "let$"))
            or re.match(r"^\s*for\s+\$", lowered)
            or lowered.startswith(("insert node", "delete node", "replace value"))):
        return QueryLanguage.XQUERY
    if lowered.startswith(("doc(", "collection(", "fn:doc(", "db2-fn:")):
        return QueryLanguage.XQUERY
    return QueryLanguage.XPATH


def _is_update_statement(statement: str) -> Optional[UpdateKind]:
    lowered = statement.strip().lower()
    if lowered.startswith("insert node") or lowered.startswith("insert nodes"):
        return UpdateKind.INSERT
    if lowered.startswith("delete node") or lowered.startswith("delete nodes"):
        return UpdateKind.DELETE
    if lowered.startswith("replace value of node"):
        return UpdateKind.UPDATE
    if lowered.startswith(("insert into", "delete from", "update ")):
        return (UpdateKind.INSERT if lowered.startswith("insert")
                else UpdateKind.DELETE if lowered.startswith("delete")
                else UpdateKind.UPDATE)
    return None


# ----------------------------------------------------------------------
# Per-language normalization
# ----------------------------------------------------------------------
def _normalize_update(statement: WorkloadStatement, query_id: str,
                      kind: UpdateKind) -> NormalizedQuery:
    text = statement.text.strip()
    touched: List[PathPattern] = []
    target_text: Optional[str] = None
    match = _UPDATE_INSERT_RE.match(text)
    if match:
        target_text = match.group(2)
    else:
        match = _UPDATE_REPLACE_RE.match(text)
        if match:
            target_text = match.group(1)
        else:
            match = _UPDATE_DELETE_RE.match(text)
            if match:
                target_text = match.group(1)
    if target_text:
        stripped = strip_doc_function(target_text.strip())
        try:
            parsed = parse_xpath(stripped)
        except Exception:
            parsed = None
        if isinstance(parsed, LocationPath):
            spine = parsed.without_predicates()
            pattern = location_path_to_pattern(spine)
            touched.append(pattern)
            if kind in (UpdateKind.INSERT, UpdateKind.DELETE):
                # Inserting or deleting a subtree touches every index whose
                # pattern lies underneath the target.
                touched.append(pattern.append_step("*", descendant=True))
    if not touched:
        # SQL-level inserts of whole documents: every index is affected.
        touched.append(PathPattern.parse("//*"))
        touched.append(PathPattern.parse("//@*"))
    return NormalizedQuery(query_id=query_id, text=statement.text,
                           language=QueryLanguage.XQUERY,
                           frequency=statement.frequency,
                           is_update=True, update_kind=kind,
                           touched_patterns=touched)


def _normalize_xquery(statement: WorkloadStatement, query_id: str) -> NormalizedQuery:
    ast = parse_xquery(statement.text)
    collector = _PredicateCollector(statement.text)
    bindings: Dict[str, LocationPath] = {}
    for binding in ast.bindings:
        resolved = _resolve(binding.source, bindings, statement.text)
        bindings[binding.variable] = resolved.without_predicates()
        collector.collect_path(resolved, bindings, as_predicate=False)
    if ast.body_path is not None:
        collector.collect_path(ast.body_path, bindings, as_predicate=False)
    if ast.where is not None:
        collector.collect_where(ast.where, bindings)
    for path in ast.order_by + ast.return_paths:
        try:
            collector.collect_path(path, bindings, as_predicate=False)
        except QueryParseError:
            continue
    return NormalizedQuery(query_id=query_id, text=statement.text,
                           language=QueryLanguage.XQUERY,
                           predicates=collector.predicates,
                           extraction_paths=collector.extraction,
                           frequency=statement.frequency)


def _normalize_sqlxml(statement: WorkloadStatement, query_id: str) -> NormalizedQuery:
    ast = parse_sqlxml(statement.text)
    collector = _PredicateCollector(statement.text)
    for expression in ast.expressions:
        bindings: Dict[str, LocationPath] = {}
        if expression.passing_variable:
            bindings[expression.passing_variable] = LocationPath(steps=[], absolute=True)
        try:
            parsed = parse_xpath(expression.xpath_text)
        except Exception as exc:
            raise QueryParseError(
                f"cannot parse embedded XPath ({exc})", statement.text) from exc
        root = LocationPath(steps=[], absolute=True)
        if isinstance(parsed, LocationPath):
            collector.collect_path(parsed, bindings,
                                   as_predicate=expression.is_predicate)
        else:
            collector._collect_expression(parsed, root, bindings)
    return NormalizedQuery(query_id=query_id, text=statement.text,
                           language=QueryLanguage.SQLXML,
                           predicates=collector.predicates,
                           extraction_paths=collector.extraction,
                           frequency=statement.frequency,
                           is_update=ast.is_update,
                           update_kind=UpdateKind.INSERT if ast.is_update else None,
                           touched_patterns=[PathPattern.parse("//*"),
                                             PathPattern.parse("//@*")]
                           if ast.is_update else [])


def _normalize_xpath(statement: WorkloadStatement, query_id: str) -> NormalizedQuery:
    collector = _PredicateCollector(statement.text)
    stripped = strip_doc_function(statement.text)
    try:
        parsed = parse_xpath(stripped)
    except XPathParseError as exc:
        raise QueryParseError(
            f"cannot parse XPath statement ({exc})", statement.text) from exc
    root = LocationPath(steps=[], absolute=True)
    if isinstance(parsed, LocationPath):
        collector.collect_path(parsed, {}, as_predicate=False)
    else:
        collector._collect_expression(parsed, root, {})
    return NormalizedQuery(query_id=query_id, text=statement.text,
                           language=QueryLanguage.XPATH,
                           predicates=collector.predicates,
                           extraction_paths=collector.extraction,
                           frequency=statement.frequency)


# ----------------------------------------------------------------------
# Public API
# ----------------------------------------------------------------------
def normalize_statement(statement: Union[WorkloadStatement, str],
                        query_id: Optional[str] = None) -> NormalizedQuery:
    """Normalize one workload statement into the internal form.

    Raises :class:`QueryParseError` when the statement cannot be parsed
    by any front end.
    """
    if isinstance(statement, str):
        statement = WorkloadStatement(text=statement)
    query_id = query_id or statement.statement_id or "q"
    update_kind = _is_update_statement(statement.text)
    if update_kind is not None and not looks_like_sqlxml(statement.text):
        return _normalize_update(statement, query_id, update_kind)
    language = statement.language or detect_language(statement.text)
    if language is QueryLanguage.SQLXML:
        return _normalize_sqlxml(statement, query_id)
    if language is QueryLanguage.XQUERY:
        return _normalize_xquery(statement, query_id)
    return _normalize_xpath(statement, query_id)


def normalize_workload(workload: Workload) -> List[NormalizedQuery]:
    """Normalize every statement of a workload, preserving order."""
    normalized: List[NormalizedQuery] = []
    for index, statement in enumerate(workload, start=1):
        query_id = statement.statement_id or f"{workload.name}-q{index}"
        normalized.append(normalize_statement(statement, query_id=query_id))
    return normalized
