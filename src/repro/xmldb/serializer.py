"""Serialize node trees back to XML text.

Round-tripping is used by the document store when exporting generated
workload documents and by tests that check parser/serializer symmetry:
``parse_document(serialize(doc))`` reproduces every text and attribute
value, because the characters a parser normalizes are written as
character references.
"""

from __future__ import annotations

from typing import List

from repro.xmldb.errors import XmlSerializeError
from repro.xmldb.nodes import NodeKind, XmlNode


def _escape_text(value: str) -> str:
    # CR as a character reference: a parser turns a literal CR into LF
    # (XML 1.0 section 2.11).
    return (
        value.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace("\r", "&#13;")
    )


def _escape_attribute(value: str) -> str:
    # TAB / LF / CR as character references: a parser turns them into
    # spaces in attribute values (XML 1.0 section 3.3.3).
    return (
        _escape_text(value)
        .replace('"', "&quot;")
        .replace("\t", "&#9;")
        .replace("\n", "&#10;")
    )


def serialize(node: XmlNode, indent: bool = False) -> str:
    """Serialize ``node`` (document, element, or leaf) to an XML string.

    Parameters
    ----------
    node:
        The node to serialize.  Document nodes emit an XML declaration.
    indent:
        When true, elements are pretty-printed with two-space indents.
        Text content is emitted verbatim either way, so indentation only
        changes whitespace *between* elements that have no text children.
    """
    parts: List[str] = []
    if node.kind == NodeKind.DOCUMENT:
        parts.append('<?xml version="1.0" encoding="UTF-8"?>')
        if indent:
            parts.append("\n")
        for child in node.children:
            _serialize_node(child, parts, indent, 0)
        return "".join(parts)
    _serialize_node(node, parts, indent, 0)
    return "".join(parts)


def _serialize_node(node: XmlNode, parts: List[str], indent: bool, depth: int) -> None:
    pad = "  " * depth if indent else ""
    if node.kind == NodeKind.TEXT:
        parts.append(_escape_text(node.value))
        return
    if node.kind == NodeKind.COMMENT:
        parts.append(f"{pad}<!--{node.value}-->")
        if indent:
            parts.append("\n")
        return
    if node.kind == NodeKind.PROCESSING_INSTRUCTION:
        parts.append(f"{pad}<?{node.name} {node.value}?>")
        if indent:
            parts.append("\n")
        return
    if node.kind == NodeKind.ATTRIBUTE:
        raise XmlSerializeError("attribute nodes cannot be serialized standalone")
    if node.kind != NodeKind.ELEMENT:
        raise XmlSerializeError(f"cannot serialize node of kind {node.kind}")

    attrs = "".join(
        f' {attr.name}="{_escape_attribute(attr.value)}"' for attr in node.attributes
    )
    if not node.children:
        parts.append(f"{pad}<{node.name}{attrs}/>")
        if indent:
            parts.append("\n")
        return

    has_element_children = any(c.kind == NodeKind.ELEMENT for c in node.children)
    has_text = any(c.kind == NodeKind.TEXT and c.value.strip() for c in node.children)
    mixed = has_text or not has_element_children

    parts.append(f"{pad}<{node.name}{attrs}>")
    if indent and not mixed:
        parts.append("\n")
    for child in node.children:
        if mixed:
            _serialize_node(child, parts, indent=False, depth=0)
        else:
            _serialize_node(child, parts, indent=indent, depth=depth + 1)
    if indent and not mixed:
        parts.append(pad)
    parts.append(f"</{node.name}>")
    if indent:
        parts.append("\n")
