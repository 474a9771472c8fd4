"""Lexer and recursive-descent parser for the XPath subset.

The entry point is :func:`parse_xpath`, which returns either a
:class:`~repro.xpath.ast.LocationPath` (for plain paths) or a
:class:`~repro.xpath.ast.ComparisonExpr` (for top-level comparisons like
``/site/people/person/@id = "person0"``).
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import List, Optional, Union

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
from repro.xpath.errors import XPathParseError

#: Deepest nesting of parentheses, function-call argument lists and
#: predicates the parser accepts.  The grammar recurses a few frames per
#: level, so without a limit a deep statement ends in a bare
#: ``RecursionError`` instead of a parse error with an offset.
MAX_NESTING = 64


class _TokenKind(enum.Enum):
    SLASH = "/"
    DOUBLE_SLASH = "//"
    AT = "@"
    STAR = "*"
    NAME = "name"
    STRING = "string"
    NUMBER = "number"
    LBRACKET = "["
    RBRACKET = "]"
    LPAREN = "("
    RPAREN = ")"
    COMMA = ","
    OPERATOR = "op"
    DOT = "."
    DOTDOT = ".."
    VARIABLE = "$"
    END = "end"


@dataclass
class _Token:
    kind: _TokenKind
    text: str
    position: int


#: One alternative per token kind, named after its ``_TokenKind`` member;
#: whitespace is the unnamed alternative and ``BAD`` is any character no
#: token starts with.  ``..`` is tried before ``.``, and a ``.`` that a
#: digit follows starts a NUMBER (which, as ever, is a run of digits and
#: dots: ``1.2.3`` is one token and fails in the parser).
_TOKEN_RE = re.compile(r"""
    \s+
  | (?P<NAME>[A-Za-z_][A-Za-z0-9_.:-]*)
  | (?P<DOUBLE_SLASH>//) | (?P<SLASH>/) | (?P<AT>@) | (?P<STAR>\*)
  | (?P<LBRACKET>\[) | (?P<RBRACKET>\]) | (?P<LPAREN>\() | (?P<RPAREN>\))
  | (?P<COMMA>,)
  | (?P<VARIABLE>\$[A-Za-z0-9_.:-]*)
  | (?P<DOTDOT>\.\.) | (?P<DOT>\.(?!\d))
  | (?P<OPERATOR>!=|<=|>=|=|<|>)
  | (?P<STRING>'[^']*'|"[^"]*")
  | (?P<NUMBER>[\d.]+)
  | (?P<BAD>.)
""", re.VERBOSE)
_KINDS = dict(_TokenKind.__members__)


def _tokenize(expression: str) -> List[_Token]:
    tokens: List[_Token] = []
    for match in _TOKEN_RE.finditer(expression):
        group = match.lastgroup
        if group is None:
            continue
        kind = _KINDS.get(group)
        text = match.group()
        if kind is _TokenKind.STRING:
            text = text[1:-1]
        elif kind is _TokenKind.VARIABLE:
            text = text[1:]
            if not text:
                raise XPathParseError("expected variable name after '$'",
                                      expression, match.start())
        elif kind is None:
            if text in ("'", '"'):
                raise XPathParseError("unterminated string literal",
                                      expression, match.start())
            raise XPathParseError(f"unexpected character {text!r}",
                                  expression, match.start())
        tokens.append(_Token(kind, text, match.start()))
    tokens.append(_Token(_TokenKind.END, "", len(expression)))
    return tokens


class _Parser:
    def __init__(self, expression: str) -> None:
        self._expression = expression
        self._tokens = _tokenize(expression)
        self._index = 0
        self._depth = 0

    # -- token helpers -------------------------------------------------
    def _peek(self, offset: int = 0) -> _Token:
        # Only a NAME is ever looked past, and END follows every token.
        return self._tokens[self._index + offset]

    def _next(self) -> _Token:
        token = self._tokens[self._index]
        if token.kind is not _TokenKind.END:
            self._index += 1
        return token

    def _expect(self, kind: _TokenKind) -> _Token:
        token = self._next()
        if token.kind is not kind:
            raise XPathParseError(
                f"expected {kind.value!r}, found {token.text!r}",
                self._expression, token.position)
        return token

    def _open(self, kind: _TokenKind) -> None:
        """Consume an opening bracket, one nesting level deeper."""
        token = self._expect(kind)
        self._depth += 1
        if self._depth > MAX_NESTING:
            raise XPathParseError(
                f"nesting deeper than {MAX_NESTING} levels of parentheses, "
                "calls and predicates; flatten the expression",
                self._expression, token.position)

    def _close(self, kind: _TokenKind) -> None:
        self._expect(kind)
        self._depth -= 1

    def _error(self, message: str) -> XPathParseError:
        token = self._peek()
        return XPathParseError(message, self._expression, token.position)

    # -- grammar -------------------------------------------------------
    def parse(self) -> PathExpr:
        expr = self._parse_or_expr()
        if self._peek().kind is not _TokenKind.END:
            raise self._error(f"unexpected trailing token {self._peek().text!r}")
        return expr

    def _parse_or_expr(self) -> PathExpr:
        left = self._parse_and_expr()
        while (self._peek().kind is _TokenKind.NAME and self._peek().text == "or"):
            self._next()
            right = self._parse_and_expr()
            left = ComparisonExpr(BinaryOp.OR, left, right)
        return left

    def _parse_and_expr(self) -> PathExpr:
        left = self._parse_comparison()
        while (self._peek().kind is _TokenKind.NAME and self._peek().text == "and"):
            self._next()
            right = self._parse_comparison()
            left = ComparisonExpr(BinaryOp.AND, left, right)
        return left

    def _parse_comparison(self) -> PathExpr:
        left = self._parse_value()
        if self._peek().kind is _TokenKind.OPERATOR:
            op_token = self._next()
            op = BinaryOp(op_token.text)
            right = self._parse_value()
            return ComparisonExpr(op, left, right)
        return left

    def _parse_value(self) -> PathExpr:
        token = self._peek()
        if token.kind is _TokenKind.STRING:
            self._next()
            return Literal(token.text)
        if token.kind is _TokenKind.NUMBER:
            self._next()
            try:
                return Literal(float(token.text))
            except ValueError:
                raise XPathParseError(f"malformed number {token.text!r}",
                                      self._expression, token.position) from None
        if token.kind is _TokenKind.LPAREN:
            self._open(_TokenKind.LPAREN)
            inner = self._parse_or_expr()
            self._close(_TokenKind.RPAREN)
            return inner
        if (token.kind is _TokenKind.NAME
                and self._peek(1).kind is _TokenKind.LPAREN
                and token.text not in ("text",)):
            return self._parse_function_call()
        if token.kind in (_TokenKind.SLASH, _TokenKind.DOUBLE_SLASH,
                          _TokenKind.NAME, _TokenKind.AT, _TokenKind.STAR,
                          _TokenKind.DOT, _TokenKind.DOTDOT,
                          _TokenKind.VARIABLE):
            return self._parse_location_path()
        raise self._error(f"unexpected token {token.text!r}")

    def _parse_function_call(self) -> FunctionCall:
        name = self._expect(_TokenKind.NAME).text
        self._open(_TokenKind.LPAREN)
        arguments: List[PathExpr] = []
        if self._peek().kind is not _TokenKind.RPAREN:
            arguments.append(self._parse_or_expr())
            while self._peek().kind is _TokenKind.COMMA:
                self._next()
                arguments.append(self._parse_or_expr())
        self._close(_TokenKind.RPAREN)
        return FunctionCall(name=name, arguments=arguments)

    def _parse_location_path(self) -> LocationPath:
        token = self._peek()
        absolute = False
        variable: Optional[str] = None
        steps: List[Step] = []
        pending_axis = Axis.CHILD

        if token.kind is _TokenKind.VARIABLE:
            variable = token.text
            self._next()
            next_token = self._peek()
            if next_token.kind is _TokenKind.SLASH:
                self._next()
            elif next_token.kind is _TokenKind.DOUBLE_SLASH:
                self._next()
                pending_axis = Axis.DESCENDANT_OR_SELF
            else:
                return LocationPath(steps=[], absolute=False, variable=variable)
        elif token.kind is _TokenKind.SLASH:
            absolute = True
            self._next()
            if self._peek().kind is _TokenKind.END:
                # The bare document-root path "/".
                return LocationPath(steps=[], absolute=True)
        elif token.kind is _TokenKind.DOUBLE_SLASH:
            absolute = True
            pending_axis = Axis.DESCENDANT_OR_SELF
            self._next()
        elif token.kind in (_TokenKind.DOT, _TokenKind.DOTDOT):
            # ``.`` and ``./path`` : current-node relative path.
            self._next()
            if self._peek().kind is _TokenKind.SLASH:
                self._next()
            elif self._peek().kind is _TokenKind.DOUBLE_SLASH:
                self._next()
                pending_axis = Axis.DESCENDANT_OR_SELF
            else:
                return LocationPath(steps=[], absolute=False)

        while True:
            if (pending_axis is Axis.DESCENDANT_OR_SELF
                    and self._peek().kind is _TokenKind.AT):
                # ``//@id`` means "the @id attribute of any element"; model
                # it as a descendant wildcard element step followed by a
                # plain attribute step so the evaluator stays simple.
                steps.append(Step(axis=Axis.DESCENDANT_OR_SELF, node_test="*"))
                pending_axis = Axis.CHILD
            steps.append(self._parse_step(pending_axis))
            token = self._peek()
            if token.kind is _TokenKind.SLASH:
                self._next()
                pending_axis = Axis.CHILD
            elif token.kind is _TokenKind.DOUBLE_SLASH:
                self._next()
                pending_axis = Axis.DESCENDANT_OR_SELF
            else:
                break
        return LocationPath(steps=steps, absolute=absolute, variable=variable)

    def _parse_step(self, axis: Axis) -> Step:
        token = self._peek()
        if token.kind is _TokenKind.AT:
            self._next()
            axis = Axis.ATTRIBUTE
            token = self._peek()
        if token.kind is _TokenKind.STAR:
            self._next()
            node_test = "*"
        elif token.kind is _TokenKind.NAME:
            self._next()
            node_test = token.text
            if node_test == "text" and self._peek().kind is _TokenKind.LPAREN:
                self._next()
                self._expect(_TokenKind.RPAREN)
                node_test = "text()"
        else:
            raise self._error("expected a step name, '*' or '@'")
        predicates: List[Predicate] = []
        while self._peek().kind is _TokenKind.LBRACKET:
            self._open(_TokenKind.LBRACKET)
            inner = self._parse_or_expr()
            self._close(_TokenKind.RBRACKET)
            predicates.append(Predicate(inner))
        return Step(axis=axis, node_test=node_test, predicates=predicates)


def parse_xpath(expression: str) -> PathExpr:
    """Parse an XPath expression from the supported subset.

    Returns a :class:`LocationPath` for plain paths, or a
    :class:`ComparisonExpr` / :class:`FunctionCall` for expressions.
    Raises :class:`XPathParseError` for anything outside the subset.
    """
    if not expression or not expression.strip():
        raise XPathParseError("empty XPath expression", expression, 0)
    return _Parser(expression.strip()).parse()


def parse_location_path(expression: str) -> LocationPath:
    """Parse ``expression`` and require that it is a plain location path."""
    result = parse_xpath(expression)
    if not isinstance(result, LocationPath):
        raise XPathParseError("expected a location path", expression, 0)
    return result
