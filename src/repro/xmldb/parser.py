"""A safe, non-validating XML parser driven by expat events.

One :func:`xml.parsers.expat.ParserCreate` parser streams start-tag,
end-tag, character-data, comment, processing-instruction and
CDATA-boundary events into a builder that links
:class:`repro.xmldb.nodes.DocumentNode` trees directly:

* a run of character data is buffered and becomes one text node at the
  next element, comment, PI or CDATA boundary, and every CDATA section is
  a text node of its own (an empty section included);
* nodes are numbered as they are created -- the element, then its
  attributes, then its children -- which is exactly
  :meth:`~repro.xmldb.nodes.DocumentNode.assign_node_ids`'s document
  order, so no numbering pass follows;
* comments and PIs outside the root element belong to the document;
  whitespace outside it is dropped; a PI's data is stripped.

Safety: no DTD or external entity is ever loaded (no external-entity
handler is installed and parameter-entity parsing stays off); an entity
*declaration* is an error, so nothing can expand; a reference to an
undeclared entity is an error even when the DOCTYPE names an external
subset (where expat would otherwise skip it silently); attributes
defaulted by an ``ATTLIST`` are not reported.  Element nesting deeper
than :data:`MAX_DEPTH` is an error, so the recursive tree walks
downstream (delta capture, store encoding, serialization) stay within
the interpreter's recursion limit.  Every failure is an
:class:`~repro.xmldb.errors.XmlParseError` with a 1-based line and
column.  Namespace prefixes are kept as part of the node name
(``ns:tag``), which is all the index advisor needs.

Bytes are decoded as UTF-8 (whatever the XML declaration says), and
whitespace before the XML declaration is accepted.  Where the previous
hand-written parser (kept as the oracle in
``tests/reference/xml_parser_reference.py``) was more lenient than
XML 1.0, this one follows the spec:

* CR LF and lone CR in text become LF (XML 1.0 section 2.11);
* TAB, LF and CR in an attribute value become spaces (section 3.3.3),
  and a value declared with a tokenized type in the internal subset is
  further collapsed;
* ``<`` inside an attribute value, a duplicate attribute, and an entity
  declaration are errors.

:func:`repro.xmldb.serializer.serialize` escapes those characters as
character references, so serialize-then-parse is the identity.
"""

from __future__ import annotations

import itertools
from typing import Callable, List, Union
from xml.parsers import expat

from repro.xmldb.errors import XmlParseError
from repro.xmldb.nodes import (
    AttributeNode,
    CommentNode,
    DocumentNode,
    ElementNode,
    ProcessingInstructionNode,
    TextNode,
    XmlNode,
)

#: Deepest element nesting accepted; a deeper start tag is a parse error.
MAX_DEPTH = 512

#: The element that wraps a fragment so expat sees a single root.
_FRAGMENT_OPEN = "<fragment>"
_FRAGMENT_CLOSE = "</fragment>"


class XmlParser:
    """Expat-driven XML parser producing node trees.

    A parser instance is single-use: create one per document (or use the
    module-level :func:`parse_document` helper).
    """

    def __init__(self, text: Union[str, bytes], uri: str = "") -> None:
        if isinstance(text, bytes):
            text = text.decode("utf-8")
        self._text = text
        self._uri = uri

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def parse(self) -> DocumentNode:
        """Parse the input and return the document node."""
        text = self._text
        body = text.lstrip()  # expat rejects whitespace before <?xml
        skipped = text[:len(text) - len(body)]
        doc = DocumentNode(uri=self._uri)
        _build(doc, body, itertools.count().__next__, MAX_DEPTH,
               line_shift=skipped.count("\n"),
               column_shift=len(skipped) - (skipped.rfind("\n") + 1))
        return doc

    def parse_fragment(self) -> List[XmlNode]:
        """Parse a sequence of top-level nodes (no single-root requirement).

        Whitespace-only text between them is dropped; the nodes come back
        detached and unnumbered (``node_id`` -1).
        """
        holder = DocumentNode()
        _build(holder, _FRAGMENT_OPEN + self._text + _FRAGMENT_CLOSE,
               itertools.repeat(-1).__next__, MAX_DEPTH + 1,
               line_shift=0, column_shift=-len(_FRAGMENT_OPEN))
        nodes = [node for node in holder.children[0].children
                 if not isinstance(node, TextNode) or node.value.strip()]
        for node in nodes:
            node.parent = None
        return nodes


def _build(holder: XmlNode, text: str, next_id: Callable[[], int],
           depth_limit: int, line_shift: int, column_shift: int) -> None:
    """Run one expat parse of ``text``, linking the nodes under
    ``holder`` and numbering them with ``next_id`` in creation order.

    ``line_shift`` / ``column_shift`` map expat's positions in ``text``
    back to the caller's input (the column shift applies on line 1).
    """
    parser = expat.ParserCreate()
    parser.ordered_attributes = True
    parser.specified_attributes = True
    parser.buffer_text = True
    holder.node_id = next_id()
    stack: List[XmlNode] = [holder]  # stack[-1] is the open parent
    pending: List[str] = []  # the character data of the current text run

    def error(message: str, line: int, column: int) -> XmlParseError:
        """An error at expat's (1-based line, 0-based column)."""
        if line == 1:
            column += column_shift
        return XmlParseError(message, line=line + line_shift, column=column + 1)

    def here(message: str) -> XmlParseError:
        return error(message, parser.CurrentLineNumber, parser.CurrentColumnNumber)

    def link(node: XmlNode) -> None:
        """Attach ``node`` as the open parent's last child, numbered next."""
        parent = stack[-1]
        node.parent = parent
        node.node_id = next_id()
        parent.children.append(node)

    def flush_text() -> None:
        link(TextNode("".join(pending)))
        pending.clear()

    def start_element(name: str, attributes: List[str]) -> None:
        if pending:
            flush_text()
        if len(stack) > depth_limit:
            raise here(f"element nesting deeper than {MAX_DEPTH}")
        element = ElementNode(name)
        link(element)
        if attributes:
            owned = element.attributes
            for index in range(0, len(attributes), 2):
                attribute = AttributeNode(attributes[index], attributes[index + 1])
                attribute.parent = element
                attribute.node_id = next_id()
                owned.append(attribute)
        stack.append(element)

    def end_element(_name: str) -> None:
        if pending:
            flush_text()
        stack.pop()

    def leaf(node: XmlNode) -> None:
        if pending:
            flush_text()
        link(node)

    def start_cdata() -> None:
        if pending:
            flush_text()

    def refuse_entity_declaration(name: str, *_details: object) -> None:
        raise here(f"entity declaration <!ENTITY {name}> is not supported")

    def refuse_skipped_entity(name: str, _is_parameter_entity: bool) -> None:
        raise here(f"unknown entity &{name};")

    parser.StartElementHandler = start_element
    parser.EndElementHandler = end_element
    parser.CharacterDataHandler = pending.append
    parser.CommentHandler = lambda data: leaf(CommentNode(data))
    parser.ProcessingInstructionHandler = \
        lambda target, data: leaf(ProcessingInstructionNode(target, data.strip()))
    parser.StartCdataSectionHandler = start_cdata
    parser.EndCdataSectionHandler = flush_text  # even an empty section
    parser.EntityDeclHandler = refuse_entity_declaration
    parser.SkippedEntityHandler = refuse_skipped_entity
    try:
        parser.Parse(text, True)
    except expat.ExpatError as failure:
        raise error(expat.ErrorString(failure.code), failure.lineno,
                    failure.offset) from None


def parse_document(text: Union[str, bytes], uri: str = "") -> DocumentNode:
    """Parse ``text`` into a :class:`DocumentNode`.

    Raises :class:`repro.xmldb.errors.XmlParseError` on malformed input.
    """
    return XmlParser(text, uri=uri).parse()


def parse_fragment(text: Union[str, bytes]) -> List[XmlNode]:
    """Parse an XML fragment (zero or more top-level nodes)."""
    return XmlParser(text).parse_fragment()
