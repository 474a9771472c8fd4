"""XML document substrate: node model, parser, and serializer.

This package provides the in-memory XML document representation used by
the storage engine, the XPath engine, the optimizer, and the executor.
It plays the role DB2's pureXML native storage plays in the paper: a
typed tree of nodes with stable node identifiers, parent/child links, and
simple-path information that the statistics collector and the path
indexes rely on.

The parser is a non-validating builder over stdlib expat events: it
handles elements, attributes, text, comments, processing instructions,
CDATA, character and predefined entity references, and both UTF-8
strings and bytes.  It loads no DTD, refuses entity declarations and
undeclared entities (deliberately, for safety), and handles namespaces
only by preserving prefixed names verbatim.
That subset covers everything the XMark and TPoX style documents used in
the paper's demonstration need.
"""

from repro.xmldb.errors import XmlError, XmlParseError, XmlSerializeError
from repro.xmldb.nodes import (
    AttributeNode,
    CommentNode,
    DocumentNode,
    ElementNode,
    NodeKind,
    ProcessingInstructionNode,
    TextNode,
    XmlNode,
)
from repro.xmldb.parser import XmlParser, parse_document, parse_fragment
from repro.xmldb.serializer import serialize

__all__ = [
    "AttributeNode",
    "CommentNode",
    "DocumentNode",
    "ElementNode",
    "NodeKind",
    "ProcessingInstructionNode",
    "TextNode",
    "XmlError",
    "XmlNode",
    "XmlParseError",
    "XmlParser",
    "XmlSerializeError",
    "parse_document",
    "parse_fragment",
    "serialize",
]
