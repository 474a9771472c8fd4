"""Reference oracle for the statement front end (replaced in PR 14).

``_tokenize`` and ``_split_clauses`` are the character-loop lexer of
``repro.xpath.parser`` and clause splitter of
``repro.xquery.xquery_parser`` as they stood before PR 14, moved here
verbatim.  The regex versions in ``src/`` must reproduce their output
exactly -- ``(kind, text, position)`` token lists, ``(keyword, clause)``
lists, and on failure the exception type, message and offset -- with two
deliberate deviations, each pinned by a named test in
``tests/test_xpath_parser.py``:

* a NUMBER token records its *start* offset like every other token (the
  loop below records the offset just past it);
* a malformed number (``1.2.3``) is an ``XPathParseError``, not the bare
  ``ValueError`` ``float()`` raised from the parser.

(The loop below also never terminates on a non-ASCII letter -- it emits
empty NAME tokens for ever; ``src/`` reports an unexpected character.
The differential test draws ASCII only.)

Nothing under ``src/`` may import this module.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.xpath.errors import XPathParseError
from repro.xpath.parser import _Token, _TokenKind

_OPERATORS = ("!=", "<=", ">=", "=", "<", ">")
_NAME_CHARS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-.:")


def _tokenize(expression: str) -> List[_Token]:
    tokens: List[_Token] = []
    i = 0
    length = len(expression)
    while i < length:
        ch = expression[i]
        if ch.isspace():
            i += 1
            continue
        if expression.startswith("//", i):
            tokens.append(_Token(_TokenKind.DOUBLE_SLASH, "//", i))
            i += 2
            continue
        if ch == "/":
            tokens.append(_Token(_TokenKind.SLASH, "/", i))
            i += 1
            continue
        if ch == "@":
            tokens.append(_Token(_TokenKind.AT, "@", i))
            i += 1
            continue
        if ch == "*":
            tokens.append(_Token(_TokenKind.STAR, "*", i))
            i += 1
            continue
        if ch == "[":
            tokens.append(_Token(_TokenKind.LBRACKET, "[", i))
            i += 1
            continue
        if ch == "]":
            tokens.append(_Token(_TokenKind.RBRACKET, "]", i))
            i += 1
            continue
        if ch == "(":
            tokens.append(_Token(_TokenKind.LPAREN, "(", i))
            i += 1
            continue
        if ch == ")":
            tokens.append(_Token(_TokenKind.RPAREN, ")", i))
            i += 1
            continue
        if ch == ",":
            tokens.append(_Token(_TokenKind.COMMA, ",", i))
            i += 1
            continue
        if ch == "$":
            start = i
            i += 1
            while i < length and expression[i] in _NAME_CHARS:
                i += 1
            if i == start + 1:
                raise XPathParseError("expected variable name after '$'",
                                      expression, start)
            tokens.append(_Token(_TokenKind.VARIABLE, expression[start + 1:i], start))
            continue
        if expression.startswith("..", i):
            tokens.append(_Token(_TokenKind.DOTDOT, "..", i))
            i += 2
            continue
        if ch == "." and (i + 1 >= length or not expression[i + 1].isdigit()):
            tokens.append(_Token(_TokenKind.DOT, ".", i))
            i += 1
            continue
        matched_op = None
        for op in _OPERATORS:
            if expression.startswith(op, i):
                matched_op = op
                break
        if matched_op:
            tokens.append(_Token(_TokenKind.OPERATOR, matched_op, i))
            i += len(matched_op)
            continue
        if ch in ("'", '"'):
            end = expression.find(ch, i + 1)
            if end == -1:
                raise XPathParseError("unterminated string literal", expression, i)
            tokens.append(_Token(_TokenKind.STRING, expression[i + 1:end], i))
            i = end + 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < length and expression[i + 1].isdigit()):
            start = i
            i += 1
            while i < length and (expression[i].isdigit() or expression[i] == "."):
                i += 1
            tokens.append(_Token(_TokenKind.NUMBER, expression[start:i], i))
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < length and expression[i] in _NAME_CHARS:
                i += 1
            name = expression[start:i]
            # ``text()`` is lexed as a NAME followed by parens and folded
            # back together by the parser.
            tokens.append(_Token(_TokenKind.NAME, name, start))
            continue
        raise XPathParseError(f"unexpected character {ch!r}", expression, i)
    tokens.append(_Token(_TokenKind.END, "", length))
    return tokens


#: Clause keywords recognized at nesting depth zero.
_CLAUSE_KEYWORDS = ("for", "let", "where", "order by", "stable order by", "return")


def _split_clauses(text: str) -> List[Tuple[str, str]]:
    """Split a FLWOR body into ``(keyword, clause_text)`` pairs.

    Splitting only happens at nesting depth zero (outside parentheses,
    brackets, braces, and string literals), so paths with predicates and
    element constructors in the return clause do not confuse it.
    """
    lowered = text.lower()
    positions: List[Tuple[int, str]] = []
    depth = 0
    in_string: Optional[str] = None
    i = 0
    while i < len(text):
        ch = text[i]
        if in_string:
            if ch == in_string:
                in_string = None
            i += 1
            continue
        if ch in ("'", '"'):
            in_string = ch
            i += 1
            continue
        if ch in "([{":
            depth += 1
            i += 1
            continue
        if ch in ")]}":
            depth -= 1
            i += 1
            continue
        if depth == 0:
            for keyword in _CLAUSE_KEYWORDS:
                if lowered.startswith(keyword, i):
                    before_ok = i == 0 or not (text[i - 1].isalnum() or text[i - 1] in "_$")
                    after_index = i + len(keyword)
                    after_ok = (after_index >= len(text)
                                or not (text[after_index].isalnum() or text[after_index] == "_"))
                    if before_ok and after_ok:
                        positions.append((i, keyword))
                        i = after_index
                        break
            else:
                i += 1
                continue
            continue
        i += 1
    if not positions:
        return []
    clauses: List[Tuple[str, str]] = []
    for index, (pos, keyword) in enumerate(positions):
        start = pos + len(keyword)
        end = positions[index + 1][0] if index + 1 < len(positions) else len(text)
        clauses.append((keyword, text[start:end].strip()))
    return clauses
