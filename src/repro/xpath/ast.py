"""Abstract syntax tree for the XPath subset.

The grammar covered (sufficient for XMark / TPoX style workload queries
and for the path expressions SQL/XML predicates embed):

.. code-block:: text

    path        := '/'? step ('/' step | '//' step)*
                 | '//' step ('/' step | '//' step)*
    step        := axis? nodetest predicate*
    axis        := '@'                       (attribute axis)
    nodetest    := NAME | '*' | 'text()'
    predicate   := '[' expr ']'
    expr        := or_expr
    or_expr     := and_expr ('or' and_expr)*
    and_expr    := cmp_expr ('and' cmp_expr)*
    cmp_expr    := value_expr (('='|'!='|'<'|'<='|'>'|'>=') value_expr)?
    value_expr  := literal | number | path | function_call
    function_call := NAME '(' (expr (',' expr)*)? ')'

Every AST node knows how to render itself back to XPath text
(``to_xpath``), which the explain output and reports use.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional, Union


class Axis(enum.Enum):
    """Navigation axes supported by the subset."""

    CHILD = "child"
    DESCENDANT_OR_SELF = "descendant-or-self"
    ATTRIBUTE = "attribute"

    def separator(self) -> str:
        """The textual separator that introduces a step on this axis."""
        if self is Axis.DESCENDANT_OR_SELF:
            return "//"
        return "/"


class BinaryOp(enum.Enum):
    """Comparison and boolean operators."""

    EQ = "="
    NE = "!="
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    AND = "and"
    OR = "or"

    @property
    def is_range(self) -> bool:
        """True for operators that need a range scan rather than a point probe."""
        return self in (BinaryOp.LT, BinaryOp.LE, BinaryOp.GT, BinaryOp.GE)


class PathExpr:
    """Marker base class for all XPath AST nodes."""

    def to_xpath(self) -> str:
        """Render the node back to XPath text."""
        raise NotImplementedError


@dataclass
class Literal(PathExpr):
    """A string or numeric literal."""

    value: Union[str, float]

    def to_xpath(self) -> str:
        if isinstance(self.value, float):
            # int(inf)/int(nan) raise; render non-finite literals the way
            # XPath 1.0 strings them.
            if self.value != self.value:
                return "NaN"
            if self.value in (float("inf"), float("-inf")):
                return "Infinity" if self.value > 0 else "-Infinity"
            if self.value == int(self.value):
                return str(int(self.value))
            return repr(self.value)
        return '"' + str(self.value).replace('"', '""') + '"'


@dataclass
class FunctionCall(PathExpr):
    """A call to a built-in function (``contains``, ``starts-with``, ...)."""

    name: str
    arguments: List[PathExpr] = field(default_factory=list)

    def to_xpath(self) -> str:
        args = ", ".join(a.to_xpath() for a in self.arguments)
        return f"{self.name}({args})"


@dataclass
class Predicate(PathExpr):
    """A ``[...]`` predicate attached to a step."""

    expression: PathExpr

    def to_xpath(self) -> str:
        return f"[{self.expression.to_xpath()}]"


@dataclass
class Step(PathExpr):
    """One location step: axis, node test, and predicates."""

    axis: Axis
    node_test: str
    predicates: List[Predicate] = field(default_factory=list)

    @property
    def is_wildcard(self) -> bool:
        return self.node_test == "*"

    @property
    def is_text(self) -> bool:
        return self.node_test == "text()"

    def to_xpath(self) -> str:
        prefix = "@" if self.axis is Axis.ATTRIBUTE else ""
        preds = "".join(p.to_xpath() for p in self.predicates)
        return f"{prefix}{self.node_test}{preds}"


@dataclass
class LocationPath(PathExpr):
    """A (possibly relative) location path: a sequence of steps.

    ``variable`` is set for XQuery variable-relative paths such as
    ``$i/quantity``; the normalizer substitutes the variable's binding
    to obtain an absolute path.
    """

    steps: List[Step] = field(default_factory=list)
    absolute: bool = True
    variable: Optional[str] = None

    def to_xpath(self) -> str:
        prefix = f"${self.variable}" if self.variable else ""
        if not self.steps:
            if prefix:
                return prefix
            return "/" if self.absolute else "."
        parts: List[str] = [prefix]
        for index, step in enumerate(self.steps):
            sep = step.axis.separator()
            if index == 0:
                if prefix:
                    parts.append(sep)
                elif self.absolute:
                    parts.append(sep if sep == "//" else "/")
                elif sep == "//":
                    parts.append(".//")
            else:
                parts.append(sep)
            parts.append(step.to_xpath())
        return "".join(parts)

    def has_predicates(self) -> bool:
        """True if any step carries a predicate."""
        return any(step.predicates for step in self.steps)

    def without_predicates(self) -> "LocationPath":
        """A copy of this path with all predicates stripped (the 'spine')."""
        return LocationPath(
            steps=[Step(s.axis, s.node_test) for s in self.steps],
            absolute=self.absolute,
            variable=self.variable,
        )

    def spine_string(self) -> str:
        """The predicate-free path rendered as text (used as index pattern)."""
        return self.without_predicates().to_xpath()

    def append(self, other: "LocationPath") -> "LocationPath":
        """Concatenate a relative path onto this one (used when resolving
        predicate-relative paths against their context step)."""
        return LocationPath(steps=list(self.steps) + list(other.steps),
                            absolute=self.absolute, variable=self.variable)


@dataclass
class ComparisonExpr(PathExpr):
    """A binary expression (comparison or boolean connective)."""

    op: BinaryOp
    left: PathExpr
    right: PathExpr

    def to_xpath(self) -> str:
        if self.op in (BinaryOp.AND, BinaryOp.OR):
            return f"({self.left.to_xpath()} {self.op.value} {self.right.to_xpath()})"
        return f"{self.left.to_xpath()} {self.op.value} {self.right.to_xpath()}"


def iter_location_paths(expr: PathExpr) -> List[LocationPath]:
    """Collect every :class:`LocationPath` appearing in ``expr`` (recursively).

    Used by the query normalizer to find all path expressions inside a
    predicate tree.
    """
    found: List[LocationPath] = []

    def walk(node: PathExpr) -> None:
        if isinstance(node, LocationPath):
            found.append(node)
            for step in node.steps:
                for pred in step.predicates:
                    walk(pred.expression)
        elif isinstance(node, ComparisonExpr):
            walk(node.left)
            walk(node.right)
        elif isinstance(node, FunctionCall):
            for arg in node.arguments:
                walk(arg)
        elif isinstance(node, Predicate):
            walk(node.expression)

    walk(expr)
    return found
