"""Parser for the FLWOR XQuery subset used by the benchmark workloads.

The subset covers the style of queries XMark and TPoX use (and that the
paper's demonstration issues against DB2):

.. code-block:: text

    for $i in doc("xmark.xml")/site/regions/africa/item
    let $d = $i/description
    where $i/quantity > 5 and $i/payment = "Creditcard"
    order by $i/name
    return <result>{$i/name}{$d}</result>

Supported clauses: any interleaving of ``for`` / ``let`` bindings, an
optional ``where`` clause, an optional ``order by`` clause (parsed but
only its paths are retained), and a mandatory ``return`` clause.  Plain
path expressions (optionally wrapped in ``doc(...)``) are also accepted
and represented as a degenerate FLWOR with no bindings.

The parser performs *syntactic* analysis only; resolving variables to
absolute paths happens in :mod:`repro.xquery.normalizer`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.xpath.ast import LocationPath, PathExpr
from repro.xpath.parser import parse_xpath
from repro.xquery.errors import QueryParseError

#: Everything the clause splitter must see, in one scan: string literals
#: (skipped; an unterminated one runs to the end), brackets (nesting
#: depth) and the clause keywords, ASCII-case-insensitive and word-bounded
#: (``$`` also counts as a word character before a keyword: ``$for``).
_CLAUSE_SCAN_RE = re.compile(r"""
    '[^']*(?:'|\Z) | "[^"]*(?:"|\Z)
  | (?P<open>[(\[{]) | (?P<close>[)\]}])
  | (?P<keyword>(?<![\w$])(?ai:for|let|where|order\ by|stable\ order\ by|return)(?!\w))
""", re.VERBOSE)

_DOC_PREFIX_RE = re.compile(
    r"""^\s*(?:fn:)?(?:doc|collection)\(\s*['"][^'"]*['"]\s*\)|"""
    r"""^\s*db2-fn:(?:xmlcolumn|sqlquery)\(\s*['"][^'"]*['"]\s*\)""",
    re.IGNORECASE,
)

_VARIABLE_PATH_RE = re.compile(r"\$[A-Za-z_][\w\-]*(?:/{1,2}[@\w\*][\w\-\.:\(\)@]*)*")


@dataclass
class Binding:
    """A ``for`` or ``let`` binding: variable name plus its source expression."""

    variable: str
    source: LocationPath
    kind: str = "for"  # "for" or "let"


@dataclass
class XQueryAst:
    """Result of parsing an XQuery statement."""

    bindings: List[Binding] = field(default_factory=list)
    where: Optional[PathExpr] = None
    order_by: List[LocationPath] = field(default_factory=list)
    return_paths: List[LocationPath] = field(default_factory=list)
    #: Set for degenerate "just a path" queries.
    body_path: Optional[LocationPath] = None


def strip_doc_function(expression: str) -> str:
    """Remove a leading ``doc("...")`` / ``collection("...")`` wrapper.

    ``doc("xmark.xml")/site/regions`` becomes ``/site/regions``.  If no
    wrapper is present, the text is returned unchanged.
    """
    match = _DOC_PREFIX_RE.match(expression)
    if not match:
        return expression.strip()
    rest = expression[match.end():].strip()
    if not rest:
        return "/"
    if not rest.startswith("/"):
        rest = "/" + rest
    return rest


def _split_clauses(text: str) -> List[Tuple[str, str]]:
    """Split a FLWOR body into ``(keyword, clause_text)`` pairs.

    Splitting only happens at nesting depth zero (outside parentheses,
    brackets, braces, and string literals), so paths with predicates and
    element constructors in the return clause do not confuse it.
    """
    positions: List[Tuple[int, int, str]] = []
    depth = 0
    for match in _CLAUSE_SCAN_RE.finditer(text):
        group = match.lastgroup
        if group == "open":
            depth += 1
        elif group == "close":
            depth -= 1
        elif group == "keyword" and depth == 0:
            positions.append((match.start(), match.end(), match.group().lower()))
    clauses: List[Tuple[str, str]] = []
    for index, (_, start, keyword) in enumerate(positions):
        end = positions[index + 1][0] if index + 1 < len(positions) else len(text)
        clauses.append((keyword, text[start:end].strip()))
    return clauses


def _parse_path_expression(text: str, statement: str) -> LocationPath:
    """Parse a source expression (possibly doc()-wrapped) as a location path."""
    stripped = strip_doc_function(text)
    try:
        parsed = parse_xpath(stripped)
    except Exception as exc:
        raise QueryParseError(f"cannot parse path expression ({exc})", statement) from exc
    if not isinstance(parsed, LocationPath):
        raise QueryParseError("binding source must be a path expression", statement)
    return parsed


def _parse_bindings(keyword: str, clause: str, statement: str) -> List[Binding]:
    bindings: List[Binding] = []
    for part in _split_top_level(clause, ","):
        part = part.strip()
        if not part:
            continue
        if keyword == "for":
            match = re.match(r"^\$([\w\-]+)\s+in\s+(.+)$", part, re.DOTALL)
            if not match:
                raise QueryParseError("malformed for clause", statement)
        else:
            match = re.match(r"^\$([\w\-]+)\s*:=\s*(.+)$", part, re.DOTALL)
            if not match:
                raise QueryParseError("malformed let clause", statement)
        variable, source_text = match.group(1), match.group(2)
        bindings.append(Binding(variable=variable,
                                source=_parse_path_expression(source_text, statement),
                                kind=keyword))
    return bindings


def _split_top_level(text: str, separator: str) -> List[str]:
    parts: List[str] = []
    depth = 0
    in_string: Optional[str] = None
    current: List[str] = []
    for ch in text:
        if in_string:
            current.append(ch)
            if ch == in_string:
                in_string = None
            continue
        if ch in ("'", '"'):
            in_string = ch
            current.append(ch)
            continue
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
        if ch == separator and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    parts.append("".join(current))
    return parts


def _extract_return_paths(clause: str, statement: str) -> List[LocationPath]:
    """Pull the variable-relative paths out of a return clause.

    Element constructors and commas are ignored; only ``$var/...``
    references matter for costing (they are navigation, not predicates).
    """
    paths: List[LocationPath] = []
    for match in _VARIABLE_PATH_RE.finditer(clause):
        text = match.group(0)
        try:
            parsed = parse_xpath(text)
        except Exception:
            continue
        if isinstance(parsed, LocationPath):
            paths.append(parsed)
    return paths


def parse_xquery(statement: str) -> XQueryAst:
    """Parse an XQuery statement from the supported FLWOR subset.

    Raises :class:`QueryParseError` when the statement cannot be
    understood.
    """
    if not statement or not statement.strip():
        raise QueryParseError("empty XQuery statement")
    text = statement.strip()
    clauses = _split_clauses(text)
    if not clauses:
        # Degenerate case: a plain (possibly doc()-wrapped) path expression.
        path = _parse_path_expression(text, statement)
        return XQueryAst(body_path=path, return_paths=[path])

    ast = XQueryAst()
    saw_return = False
    for keyword, clause in clauses:
        if keyword == "for" or keyword == "let":
            ast.bindings.extend(_parse_bindings(keyword, clause, statement))
        elif keyword == "where":
            try:
                ast.where = parse_xpath(clause)
            except Exception as exc:
                raise QueryParseError(f"cannot parse where clause ({exc})",
                                      statement) from exc
        elif keyword in ("order by", "stable order by"):
            for part in _split_top_level(clause, ","):
                part = part.strip()
                # Strip trailing direction modifiers.
                part = re.sub(r"\s+(ascending|descending)$", "", part, flags=re.IGNORECASE)
                if not part:
                    continue
                try:
                    parsed = parse_xpath(part)
                except Exception:
                    continue
                if isinstance(parsed, LocationPath):
                    ast.order_by.append(parsed)
        elif keyword == "return":
            saw_return = True
            ast.return_paths.extend(_extract_return_paths(clause, statement))
    if ast.bindings and not saw_return:
        raise QueryParseError("FLWOR expression is missing its return clause", statement)
    return ast
