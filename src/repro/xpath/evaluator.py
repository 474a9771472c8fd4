"""Evaluate XPath subset expressions against XML node trees.

The evaluator implements the navigational semantics the executor needs:
node-set results for location paths, existential semantics for
comparisons over node sets (as in XPath 1.0), and a small library of
functions (``contains``, ``starts-with``, ``not``, ``count``,
``string``, ``number``, ``exists``).

It is intentionally a straightforward interpreter: the executor's
engine answers queries from each collection's columnar store, and this
evaluator is the reference it is tested against and the per-document
mode a collection degrades to when its store cannot be published.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Union

from repro.xmldb.nodes import DocumentNode, NodeKind, XmlNode
from repro.xpath.ast import (
    Axis,
    BinaryOp,
    ComparisonExpr,
    FunctionCall,
    Literal,
    LocationPath,
    PathExpr,
    Predicate,
    Step,
)
from repro.xpath.errors import XPathTypeError
from repro.xpath.parser import parse_xpath

#: The value types an expression can produce.
XPathValue = Union[List[XmlNode], str, float, bool]


class XPathEvaluator:
    """Evaluates parsed XPath expressions against a document.

    Parameters
    ----------
    document:
        The document that absolute paths are resolved against.
    """

    def __init__(self, document: DocumentNode) -> None:
        self._document = document

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def evaluate(self, expr: Union[PathExpr, str],
                 context: Optional[XmlNode] = None) -> XPathValue:
        """Evaluate ``expr`` (AST or source text) and return its value.

        ``context`` is the context node for relative paths; it defaults
        to the document node.
        """
        if isinstance(expr, str):
            expr = parse_xpath(expr)
        context_node = context if context is not None else self._document
        return self._evaluate(expr, context_node)

    def select_nodes(self, expr: Union[PathExpr, str],
                     context: Optional[XmlNode] = None) -> List[XmlNode]:
        """Evaluate ``expr`` and coerce the result to a node list."""
        value = self.evaluate(expr, context)
        if isinstance(value, list):
            return value
        raise XPathTypeError(
            f"expression does not produce a node set (got {type(value).__name__})")

    def evaluate_boolean(self, expr: Union[PathExpr, str],
                         context: Optional[XmlNode] = None) -> bool:
        """Evaluate ``expr`` and coerce the result to a boolean."""
        return _to_boolean(self.evaluate(expr, context))

    # ------------------------------------------------------------------
    # Expression dispatch
    # ------------------------------------------------------------------
    def _evaluate(self, expr: PathExpr, context: XmlNode) -> XPathValue:
        if isinstance(expr, LocationPath):
            return self._evaluate_path(expr, context)
        if isinstance(expr, Literal):
            return expr.value
        if isinstance(expr, ComparisonExpr):
            return self._evaluate_comparison(expr, context)
        if isinstance(expr, FunctionCall):
            return self._evaluate_function(expr, context)
        if isinstance(expr, Predicate):
            return self._evaluate(expr.expression, context)
        raise XPathTypeError(f"cannot evaluate expression of type {type(expr).__name__}")

    # ------------------------------------------------------------------
    # Location paths
    # ------------------------------------------------------------------
    def _evaluate_path(self, path: LocationPath, context: XmlNode) -> List[XmlNode]:
        if path.absolute:
            current: List[XmlNode] = [self._document]
        else:
            current = [context]
        for step in path.steps:
            next_nodes: List[XmlNode] = []
            seen_ids = set()
            for node in current:
                for candidate in self._step_candidates(node, step):
                    marker = id(candidate)
                    if marker in seen_ids:
                        continue
                    if self._passes_predicates(candidate, step.predicates):
                        seen_ids.add(marker)
                        next_nodes.append(candidate)
            current = next_nodes
            if not current:
                break
        return current

    def _step_candidates(self, node: XmlNode, step: Step) -> Iterable[XmlNode]:
        if step.axis is Axis.ATTRIBUTE or step.node_test.startswith("@"):
            yield from self._attribute_candidates(node, step)
            return
        if step.axis is Axis.DESCENDANT_OR_SELF:
            elements: Iterable[XmlNode] = node.descendant_elements(
                include_self=node.kind == NodeKind.ELEMENT)
        else:
            elements = node.element_children()
        if step.is_text:
            sources = [node] if step.axis is Axis.CHILD else list(elements)
            for source in sources:
                for child in source.children:
                    if child.kind == NodeKind.TEXT:
                        yield child
            return
        for element in elements:
            if step.is_wildcard or element.name == step.node_test:
                yield element

    def _attribute_candidates(self, node: XmlNode, step: Step) -> Iterable[XmlNode]:
        # ``//@id`` and ``/a/@id`` both funnel through here.  The parser
        # normalizes descendant attribute steps into ``//*`` + ``@x``, so
        # a plain attribute step only inspects the context node's own
        # attributes -- but directly-constructed ASTs may carry a
        # descendant-or-self attribute step, which must enumerate the
        # attributes of the context node *and* all descendant elements.
        name_test = step.node_test
        if name_test.startswith("@"):
            name_test = name_test[1:]
        wildcard = name_test == "*"
        owners: Iterable[XmlNode]
        if step.axis is Axis.DESCENDANT_OR_SELF:
            owners = node.descendant_elements(
                include_self=node.kind == NodeKind.ELEMENT)
        else:
            owners = (node,)
        for owner in owners:
            for attr in owner.attributes:
                if wildcard or attr.name == name_test:
                    yield attr

    def _passes_predicates(self, node: XmlNode,
                           predicates: Sequence[Predicate]) -> bool:
        """Does ``node`` satisfy every predicate (with itself as context)?"""
        for predicate in predicates:
            value = self._evaluate(predicate.expression, node)
            if not _to_boolean(value):
                return False
        return True

    # ------------------------------------------------------------------
    # Comparisons
    # ------------------------------------------------------------------
    def _evaluate_comparison(self, expr: ComparisonExpr, context: XmlNode) -> bool:
        if expr.op is BinaryOp.AND:
            return (_to_boolean(self._evaluate(expr.left, context))
                    and _to_boolean(self._evaluate(expr.right, context)))
        if expr.op is BinaryOp.OR:
            return (_to_boolean(self._evaluate(expr.left, context))
                    or _to_boolean(self._evaluate(expr.right, context)))
        left = self._evaluate(expr.left, context)
        right = self._evaluate(expr.right, context)
        return _compare(expr.op, left, right)

    # ------------------------------------------------------------------
    # Functions
    # ------------------------------------------------------------------
    def _evaluate_function(self, call: FunctionCall, context: XmlNode) -> XPathValue:
        name = call.name.lower()
        args = [self._evaluate(arg, context) for arg in call.arguments]
        if name in ("contains", "fn:contains"):
            _require_arity(name, args, 2)
            return _to_string(args[1]) in _to_string(args[0])
        if name in ("starts-with", "fn:starts-with"):
            _require_arity(name, args, 2)
            return _to_string(args[0]).startswith(_to_string(args[1]))
        if name in ("not", "fn:not"):
            _require_arity(name, args, 1)
            return not _to_boolean(args[0])
        if name in ("count", "fn:count"):
            _require_arity(name, args, 1)
            value = args[0]
            if not isinstance(value, list):
                raise XPathTypeError("count() requires a node set")
            return float(len(value))
        if name in ("exists", "fn:exists"):
            _require_arity(name, args, 1)
            return _to_boolean(args[0])
        if name in ("string", "fn:string"):
            _require_arity(name, args, 1)
            return _to_string(args[0])
        if name in ("number", "fn:number", "xs:double", "xs:decimal", "xs:integer"):
            _require_arity(name, args, 1)
            return _to_number(args[0])
        raise XPathTypeError(f"unsupported function {call.name}()")


def _require_arity(name: str, args: Sequence[XPathValue], expected: int) -> None:
    if len(args) != expected:
        raise XPathTypeError(f"{name}() expects {expected} argument(s), got {len(args)}")


# ----------------------------------------------------------------------
# Value coercions (XPath 1.0 style)
# ----------------------------------------------------------------------
def _to_boolean(value: XPathValue) -> bool:
    if isinstance(value, list):
        return bool(value)
    if isinstance(value, bool):
        return value
    if isinstance(value, float):
        return value != 0.0
    return bool(value)


def _to_string(value: XPathValue) -> str:
    if isinstance(value, list):
        return value[0].typed_value() if value else ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        # Guard non-finite floats: int(inf) raises OverflowError and
        # int(nan) raises ValueError.  XPath 1.0 renders them as
        # Infinity / -Infinity / NaN.
        if value != value:  # NaN compares unequal to itself
            return "NaN"
        if value == float("inf"):
            return "Infinity"
        if value == float("-inf"):
            return "-Infinity"
        if value == int(value):
            return str(int(value))
        return str(value)
    return str(value)


def _to_number(value: XPathValue) -> float:
    if isinstance(value, list):
        if not value:
            return float("nan")
        value = value[0].typed_value()
    if isinstance(value, bool):
        return 1.0 if value else 0.0
    try:
        return float(value)
    except (TypeError, ValueError):
        return float("nan")


def _compare(op: BinaryOp, left: XPathValue, right: XPathValue) -> bool:
    """Existential comparison semantics over node sets."""
    left_values = _comparison_values(left)
    right_values = _comparison_values(right)
    numeric = _prefer_numeric(left, right)
    for lval in left_values:
        for rval in right_values:
            if _compare_scalar(op, lval, rval, numeric):
                return True
    return False


def _comparison_values(value: XPathValue) -> List[Union[str, float, bool]]:
    if isinstance(value, list):
        return [node.typed_value() for node in value]
    return [value]


def _prefer_numeric(left: XPathValue, right: XPathValue) -> bool:
    for side in (left, right):
        if isinstance(side, float) and not isinstance(side, bool):
            return True
    return False


def _compare_scalar(op: BinaryOp, left: Union[str, float, bool],
                    right: Union[str, float, bool], numeric: bool) -> bool:
    if numeric or op.is_range:
        try:
            lnum = float(left) if not isinstance(left, bool) else (1.0 if left else 0.0)
            rnum = float(right) if not isinstance(right, bool) else (1.0 if right else 0.0)
        except (TypeError, ValueError):
            return False
        left_cmp: Union[str, float] = lnum
        right_cmp: Union[str, float] = rnum
    else:
        left_cmp = _to_string(left)
        right_cmp = _to_string(right)
    if op is BinaryOp.EQ:
        return left_cmp == right_cmp
    if op is BinaryOp.NE:
        return left_cmp != right_cmp
    if op is BinaryOp.LT:
        return left_cmp < right_cmp
    if op is BinaryOp.LE:
        return left_cmp <= right_cmp
    if op is BinaryOp.GT:
        return left_cmp > right_cmp
    if op is BinaryOp.GE:
        return left_cmp >= right_cmp
    raise XPathTypeError(f"unsupported comparison operator {op}")


def evaluate_path(document: DocumentNode, expression: str) -> XPathValue:
    """Convenience wrapper: evaluate ``expression`` against ``document``."""
    return XPathEvaluator(document).evaluate(expression)
