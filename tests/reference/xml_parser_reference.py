"""Reference oracle for the XML parser: the recursive-descent character
loop ``repro.xmldb.parser`` used to be, moved here verbatim below this
docstring.

The expat event builder in ``src/`` must give the same trees -- kinds,
names, values, attribute order, node ids, parent links, ``uri`` -- or
raise :class:`~repro.xmldb.errors.XmlParseError` where this one does
(``tests/test_xml_parser_differential.py``).  The inputs on which the
two may differ are pinned there as ``CENSUS``: this loop does not
normalize line ends or attribute whitespace, accepts ``<`` in attribute
values, lets the last of two duplicate attributes win, skips entity
declarations, and accepts several other inputs that are not well-formed
XML.

Nothing under ``src/`` may import this module
(``tests/test_oracle_isolation.py``).

Original module docstring:

A small, safe, non-validating XML parser.

The parser builds :class:`repro.xmldb.nodes.DocumentNode` trees directly,
assigning document-order node ids as it goes.  It supports the XML
features the XMark / TPoX style documents exercise:

* elements with attributes (single or double quoted),
* text content with the five predefined entities and numeric character
  references,
* comments, CDATA sections, processing instructions,
* an XML declaration and an (ignored) internal DTD subset.

It deliberately does **not** resolve external entities or fetch DTDs, so
it is safe to run on untrusted workload documents.  Namespace prefixes
are preserved as part of the node name (``ns:tag``) which is all the
index advisor needs.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

from repro.xmldb.errors import XmlParseError
from repro.xmldb.nodes import (
    CommentNode,
    DocumentNode,
    ElementNode,
    ProcessingInstructionNode,
    TextNode,
    XmlNode,
)

_PREDEFINED_ENTITIES = {
    "lt": "<",
    "gt": ">",
    "amp": "&",
    "apos": "'",
    "quot": '"',
}

_NAME_START_EXTRA = set("_:")
_NAME_EXTRA = set("_:-.")


def _is_name_start(ch: str) -> bool:
    return ch.isalpha() or ch in _NAME_START_EXTRA


def _is_name_char(ch: str) -> bool:
    return ch.isalnum() or ch in _NAME_EXTRA


class XmlParser:
    """Recursive-descent XML parser producing node trees.

    A parser instance is single-use: create one per document (or use the
    module-level :func:`parse_document` helper).
    """

    def __init__(self, text: Union[str, bytes], uri: str = "") -> None:
        if isinstance(text, bytes):
            text = text.decode("utf-8")
        self._text = text
        self._pos = 0
        self._uri = uri

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def parse(self) -> DocumentNode:
        """Parse the input and return the document node."""
        doc = DocumentNode(uri=self._uri)
        self._skip_prolog(doc)
        self._skip_whitespace_and_misc(doc)
        if self._peek() != "<":
            raise self._error("expected root element")
        root = self._parse_element()
        doc.append_child(root)
        self._skip_whitespace_and_misc(doc)
        if self._pos != len(self._text):
            raise self._error("unexpected content after root element")
        doc.assign_node_ids()
        return doc

    def parse_fragment(self) -> List[XmlNode]:
        """Parse a sequence of top-level nodes (no single-root requirement)."""
        nodes: List[XmlNode] = []
        while self._pos < len(self._text):
            if self._peek() == "<":
                if self._lookahead("<!--"):
                    nodes.append(self._parse_comment())
                elif self._lookahead("<?"):
                    nodes.append(self._parse_pi())
                else:
                    nodes.append(self._parse_element())
            else:
                text = self._parse_text()
                if text.value.strip():
                    nodes.append(text)
        return nodes

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _peek(self, offset: int = 0) -> str:
        pos = self._pos + offset
        return self._text[pos] if pos < len(self._text) else ""

    def _lookahead(self, token: str) -> bool:
        return self._text.startswith(token, self._pos)

    def _advance(self, count: int = 1) -> None:
        self._pos += count

    def _expect(self, token: str) -> None:
        if not self._lookahead(token):
            raise self._error(f"expected {token!r}")
        self._advance(len(token))

    def _position(self) -> Tuple[int, int]:
        consumed = self._text[: self._pos]
        line = consumed.count("\n") + 1
        column = self._pos - (consumed.rfind("\n") + 1) + 1
        return line, column

    def _error(self, message: str) -> XmlParseError:
        line, column = self._position()
        return XmlParseError(message, line=line, column=column)

    def _skip_whitespace(self) -> None:
        while self._pos < len(self._text) and self._text[self._pos].isspace():
            self._pos += 1

    def _skip_prolog(self, doc: DocumentNode) -> None:
        self._skip_whitespace()
        if self._lookahead("<?xml"):
            end = self._text.find("?>", self._pos)
            if end == -1:
                raise self._error("unterminated XML declaration")
            self._pos = end + 2

    def _skip_whitespace_and_misc(self, doc: DocumentNode) -> None:
        """Skip whitespace, comments, PIs and DOCTYPE between prolog and root."""
        while True:
            self._skip_whitespace()
            if self._lookahead("<!--"):
                doc.append_child(self._parse_comment())
            elif self._lookahead("<!DOCTYPE"):
                self._skip_doctype()
            elif self._lookahead("<?"):
                doc.append_child(self._parse_pi())
            else:
                return

    def _skip_doctype(self) -> None:
        # Skip the DOCTYPE declaration, including an internal subset in [...].
        depth = 0
        while self._pos < len(self._text):
            ch = self._text[self._pos]
            if ch == "[":
                depth += 1
            elif ch == "]":
                depth -= 1
            elif ch == ">" and depth <= 0:
                self._pos += 1
                return
            self._pos += 1
        raise self._error("unterminated DOCTYPE declaration")

    def _parse_name(self) -> str:
        start = self._pos
        if self._pos >= len(self._text) or not _is_name_start(self._text[self._pos]):
            raise self._error("expected a name")
        self._pos += 1
        while self._pos < len(self._text) and _is_name_char(self._text[self._pos]):
            self._pos += 1
        return self._text[start:self._pos]

    def _parse_attribute_value(self) -> str:
        quote = self._peek()
        if quote not in ("'", '"'):
            raise self._error("expected quoted attribute value")
        self._advance()
        end = self._text.find(quote, self._pos)
        if end == -1:
            raise self._error("unterminated attribute value")
        raw = self._text[self._pos:end]
        self._pos = end + 1
        return self._expand_entities(raw)

    def _expand_entities(self, raw: str) -> str:
        if "&" not in raw:
            return raw
        out: List[str] = []
        i = 0
        while i < len(raw):
            ch = raw[i]
            if ch != "&":
                out.append(ch)
                i += 1
                continue
            end = raw.find(";", i)
            if end == -1:
                raise self._error("unterminated entity reference")
            entity = raw[i + 1:end]
            if entity.startswith("#x") or entity.startswith("#X"):
                out.append(chr(int(entity[2:], 16)))
            elif entity.startswith("#"):
                out.append(chr(int(entity[1:])))
            elif entity in _PREDEFINED_ENTITIES:
                out.append(_PREDEFINED_ENTITIES[entity])
            else:
                raise self._error(f"unknown entity &{entity};")
            i = end + 1
        return "".join(out)

    def _parse_element(self) -> ElementNode:
        self._expect("<")
        name = self._parse_name()
        element = ElementNode(name)
        # Attributes
        while True:
            self._skip_whitespace()
            ch = self._peek()
            if ch == "/":
                self._expect("/>")
                return element
            if ch == ">":
                self._advance()
                break
            attr_name = self._parse_name()
            self._skip_whitespace()
            self._expect("=")
            self._skip_whitespace()
            element.set_attribute(attr_name, self._parse_attribute_value())
        # Content
        while True:
            if self._pos >= len(self._text):
                raise self._error(f"unterminated element <{name}>")
            if self._lookahead("</"):
                self._advance(2)
                close_name = self._parse_name()
                if close_name != name:
                    raise self._error(
                        f"mismatched closing tag </{close_name}> for <{name}>")
                self._skip_whitespace()
                self._expect(">")
                return element
            if self._lookahead("<!--"):
                element.append_child(self._parse_comment())
            elif self._lookahead("<![CDATA["):
                element.append_child(self._parse_cdata())
            elif self._lookahead("<?"):
                element.append_child(self._parse_pi())
            elif self._peek() == "<":
                element.append_child(self._parse_element())
            else:
                text = self._parse_text()
                if text.value:
                    element.append_child(text)

    def _parse_text(self) -> TextNode:
        end = self._text.find("<", self._pos)
        if end == -1:
            end = len(self._text)
        raw = self._text[self._pos:end]
        self._pos = end
        return TextNode(self._expand_entities(raw))

    def _parse_cdata(self) -> TextNode:
        self._expect("<![CDATA[")
        end = self._text.find("]]>", self._pos)
        if end == -1:
            raise self._error("unterminated CDATA section")
        value = self._text[self._pos:end]
        self._pos = end + 3
        return TextNode(value)

    def _parse_comment(self) -> CommentNode:
        self._expect("<!--")
        end = self._text.find("-->", self._pos)
        if end == -1:
            raise self._error("unterminated comment")
        value = self._text[self._pos:end]
        self._pos = end + 3
        return CommentNode(value)

    def _parse_pi(self) -> ProcessingInstructionNode:
        self._expect("<?")
        target = self._parse_name()
        end = self._text.find("?>", self._pos)
        if end == -1:
            raise self._error("unterminated processing instruction")
        value = self._text[self._pos:end].strip()
        self._pos = end + 2
        return ProcessingInstructionNode(target, value)


def parse_document(text: Union[str, bytes], uri: str = "") -> DocumentNode:
    """Parse ``text`` into a :class:`DocumentNode`.

    Raises :class:`repro.xmldb.errors.XmlParseError` on malformed input.
    """
    return XmlParser(text, uri=uri).parse()


def parse_fragment(text: Union[str, bytes]) -> List[XmlNode]:
    """Parse an XML fragment (zero or more top-level nodes)."""
    return XmlParser(text).parse_fragment()
