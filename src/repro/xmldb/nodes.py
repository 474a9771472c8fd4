"""Typed XML node tree with stable node identifiers.

The node model is deliberately close to the XQuery/XPath data model
subset that an XML path index needs:

* every node has a *node id* that is unique within its document and
  encodes document order (pre-order numbering), which is what a path
  index stores as its "row id";
* every node knows its *simple path* -- the ``/a/b/c`` chain of element
  names from the document root down to the node (attributes contribute a
  trailing ``@name`` step).  Simple paths are what DB2's XML statistics
  and XMLPATTERN indexes are keyed on, and they are the unit the advisor
  reasons about;
* element and attribute nodes expose typed value accessors
  (:meth:`XmlNode.typed_value`, :meth:`XmlNode.double_value`) because XML
  pattern indexes are declared ``AS SQL VARCHAR(n)`` / ``AS SQL DOUBLE``
  and only index nodes whose value can be cast to the declared type.

Node trees are built either by :mod:`repro.xmldb.parser` (which links
and numbers nodes directly as they are created) or programmatically by
the workload generators.
"""

from __future__ import annotations

import enum
from typing import Dict, Iterator, List, Optional, Sequence

from repro.xmldb.errors import XmlNodeError

#: Sentinel marking an unparsed DOUBLE cast (``None`` is a valid cached
#: result: it means "does not cast").
_DOUBLE_UNSET: object = object()


class NodeKind(enum.Enum):
    """Kinds of nodes in the XML data model subset we support."""

    DOCUMENT = "document"
    ELEMENT = "element"
    ATTRIBUTE = "attribute"
    TEXT = "text"
    COMMENT = "comment"
    PROCESSING_INSTRUCTION = "processing-instruction"


class XmlNode:
    """Base class of all nodes.

    Parameters
    ----------
    kind:
        The :class:`NodeKind` of this node.
    name:
        Node name (element tag or attribute name); empty for text,
        comment and document nodes.
    value:
        String value for attribute / text / comment / PI nodes.
    """

    __slots__ = (
        "kind",
        "name",
        "value",
        "parent",
        "children",
        "attributes",
        "node_id",
        "_simple_path",
        "_typed_value",
        "_double_value",
    )

    def __init__(self, kind: NodeKind, name: str = "", value: str = "") -> None:
        self.kind = kind
        self.name = name
        self.value = value
        self.parent: Optional[XmlNode] = None
        self.children: List[XmlNode] = []
        self.attributes: List[AttributeNode] = []
        self.node_id: int = -1
        self._simple_path: Optional[str] = None
        self._typed_value: Optional[str] = None
        self._double_value: object = _DOUBLE_UNSET

    # ------------------------------------------------------------------
    # Tree construction
    # ------------------------------------------------------------------
    def append_child(self, child: "XmlNode") -> "XmlNode":
        """Attach ``child`` as the last child of this node and return it."""
        if child is self:
            raise XmlNodeError("a node cannot be its own child")
        if child.kind == NodeKind.ATTRIBUTE:
            raise XmlNodeError("attributes must be added with set_attribute()")
        child.parent = self
        self.children.append(child)
        self._invalidate_cached_values()
        return child

    def _invalidate_cached_values(self) -> None:
        """Drop the cached typed value of this node and its ancestors.

        Called on every structural mutation; an element's typed value
        concatenates descendant text, so appending a child can change
        the value of every ancestor.
        """
        node: Optional[XmlNode] = self
        while node is not None:
            node._typed_value = None
            node._double_value = _DOUBLE_UNSET
            node = node.parent

    def set_attribute(self, name: str, value: str) -> "AttributeNode":
        """Add (or replace) an attribute and return its node."""
        for existing in self.attributes:
            if existing.name == name:
                existing.value = value
                existing._typed_value = None
                existing._double_value = _DOUBLE_UNSET
                return existing
        attr = AttributeNode(name, value)
        attr.parent = self
        self.attributes.append(attr)
        return attr

    def get_attribute(self, name: str) -> Optional[str]:
        """Return the value of attribute ``name`` or ``None``."""
        for attr in self.attributes:
            if attr.name == name:
                return attr.value
        return None

    # ------------------------------------------------------------------
    # Navigation
    # ------------------------------------------------------------------
    def element_children(self) -> Iterator["ElementNode"]:
        """Iterate over child nodes that are elements."""
        for child in self.children:
            if child.kind == NodeKind.ELEMENT:
                yield child  # type: ignore[misc]

    def child_elements(self, name: str) -> List["ElementNode"]:
        """Return child elements with the given tag name."""
        return [c for c in self.element_children() if c.name == name]

    def first_child_element(self, name: str) -> Optional["ElementNode"]:
        """Return the first child element named ``name`` or ``None``."""
        for child in self.element_children():
            if child.name == name:
                return child
        return None

    def descendants(self, include_self: bool = False) -> Iterator["XmlNode"]:
        """Yield descendant nodes in document order (elements, text, etc.)."""
        if include_self:
            yield self
        for child in self.children:
            yield child
            yield from child.descendants(include_self=False)

    def descendant_elements(self, include_self: bool = False) -> Iterator["ElementNode"]:
        """Yield descendant element nodes in document order."""
        if include_self and self.kind == NodeKind.ELEMENT:
            yield self  # type: ignore[misc]
        for child in self.children:
            if child.kind == NodeKind.ELEMENT:
                yield from child.descendant_elements(include_self=True)

    def ancestors(self, include_self: bool = False) -> Iterator["XmlNode"]:
        """Yield ancestors from the parent up to the document node."""
        node: Optional[XmlNode] = self if include_self else self.parent
        while node is not None:
            yield node
            node = node.parent

    # ------------------------------------------------------------------
    # Values and paths
    # ------------------------------------------------------------------
    def string_value(self) -> str:
        """The XPath string value of this node.

        For elements this is the concatenation of all descendant text
        nodes; for other kinds it is the node's own value.
        """
        if self.kind in (NodeKind.TEXT, NodeKind.ATTRIBUTE, NodeKind.COMMENT,
                         NodeKind.PROCESSING_INSTRUCTION):
            return self.value
        parts: List[str] = []
        for node in self.descendants():
            if node.kind == NodeKind.TEXT:
                parts.append(node.value)
        return "".join(parts)

    def typed_value(self) -> str:
        """Whitespace-normalized string value used as index key.

        Cached: scan predicates, index builds and statistics all read
        the same values repeatedly.  The cache is invalidated by
        :meth:`append_child` / :meth:`set_attribute` (structural
        mutations walk the ancestor chain, since an element's value
        concatenates descendant text).
        """
        cached = self._typed_value
        if cached is None:
            cached = self._typed_value = " ".join(self.string_value().split())
        return cached

    def double_value(self) -> Optional[float]:
        """The value cast to DOUBLE, or ``None`` if it is not numeric.

        This mirrors DB2's behaviour for ``AS SQL DOUBLE`` pattern
        indexes: nodes whose value does not cast are simply not indexed.
        Cached alongside :meth:`typed_value` (same invalidation points):
        predicate scans and index builds cast the same nodes repeatedly,
        and ``None`` -- "does not cast" -- is itself a valid cached
        answer, hence the private sentinel.
        """
        cached = self._double_value
        if cached is not _DOUBLE_UNSET:
            return cached  # type: ignore[return-value]
        text = self.typed_value()
        if not text:
            result: Optional[float] = None
        else:
            try:
                result = float(text)
            except ValueError:
                result = None
        self._double_value = result
        return result

    def simple_path(self) -> str:
        """Return the rooted simple path of this node, e.g. ``/site/regions/africa/item``.

        Attribute nodes get a trailing ``@name`` step
        (``/site/regions/africa/item/@id``).  Text nodes share the path
        of their parent element.  The result is cached, and the parent's
        cached path is reused, so computing the paths of a whole document
        (as columnar encoding, delta capture and index building do) is O(nodes) rather than O(nodes x depth).
        """
        if self._simple_path is not None:
            return self._simple_path
        if self.kind == NodeKind.DOCUMENT:
            self._simple_path = "/"
            return self._simple_path
        if self.kind == NodeKind.ELEMENT:
            own: Optional[str] = self.name
        elif self.kind == NodeKind.ATTRIBUTE:
            own = "@" + self.name
        else:
            # text/comment/PI nodes contribute no step of their own
            own = None
        parent = self.parent
        if parent is None:
            parent_path = "/"
        else:
            parent_path = parent.simple_path()
        if own is None:
            path = parent_path
        elif parent_path == "/":
            path = "/" + own
        else:
            path = parent_path + "/" + own
        self._simple_path = path
        return path

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.kind == NodeKind.ELEMENT:
            return f"<ElementNode {self.name!r} id={self.node_id}>"
        if self.kind == NodeKind.ATTRIBUTE:
            return f"<AttributeNode {self.name!r}={self.value!r}>"
        return f"<{self.kind.value} {self.value[:20]!r}>"


class DocumentNode(XmlNode):
    """The document root.  Has exactly one element child in well-formed docs."""

    __slots__ = ("doc_id", "uri")

    def __init__(self, uri: str = "") -> None:
        super().__init__(NodeKind.DOCUMENT)
        self.doc_id: int = -1
        self.uri = uri

    @property
    def root_element(self) -> Optional["ElementNode"]:
        """The single top-level element of the document, if present."""
        for child in self.children:
            if child.kind == NodeKind.ELEMENT:
                return child  # type: ignore[return-value]
        return None

    def assign_node_ids(self) -> int:
        """(Re)number all nodes in document order; return the node count.

        Node ids are pre-order positions, so ``a.node_id < b.node_id``
        iff ``a`` precedes ``b`` in document order.  Attributes are
        numbered right after their owning element.  One iterative pass,
        so any depth the parser accepts is numbered without recursion.
        """
        counter = 0
        stack: List[XmlNode] = [self]
        while stack:
            node = stack.pop()
            node.node_id = counter
            counter += 1
            for attr in node.attributes:
                attr.node_id = counter
                counter += 1
            stack.extend(reversed(node.children))
        return counter

    def total_nodes(self) -> int:
        """Count all nodes (document, elements, attributes, text, ...)."""
        total = 1
        for node in self.descendants():
            total += 1 + len(node.attributes)
        return total


class ElementNode(XmlNode):
    """An element node."""

    __slots__ = ()

    def __init__(self, name: str) -> None:
        super().__init__(NodeKind.ELEMENT, name=name)

    def add_element(self, name: str, text: Optional[str] = None,
                    attributes: Optional[Dict[str, str]] = None) -> "ElementNode":
        """Convenience builder: append a child element, optionally with text/attrs."""
        child = ElementNode(name)
        self.append_child(child)
        if attributes:
            for key, value in attributes.items():
                child.set_attribute(key, value)
        if text is not None:
            child.append_child(TextNode(text))
        return child

    def add_text(self, text: str) -> "TextNode":
        """Append a text child."""
        node = TextNode(text)
        self.append_child(node)
        return node


class AttributeNode(XmlNode):
    """An attribute node (owned by an element, not part of ``children``)."""

    __slots__ = ()

    def __init__(self, name: str, value: str) -> None:
        super().__init__(NodeKind.ATTRIBUTE, name=name, value=value)


class TextNode(XmlNode):
    """A text node."""

    __slots__ = ()

    def __init__(self, value: str) -> None:
        super().__init__(NodeKind.TEXT, value=value)


class CommentNode(XmlNode):
    """A comment node (kept so round-tripping documents is lossless)."""

    __slots__ = ()

    def __init__(self, value: str) -> None:
        super().__init__(NodeKind.COMMENT, value=value)


class ProcessingInstructionNode(XmlNode):
    """A processing-instruction node."""

    __slots__ = ()

    def __init__(self, target: str, value: str) -> None:
        super().__init__(NodeKind.PROCESSING_INSTRUCTION, name=target, value=value)


def normalized_node_value(node: XmlNode) -> str:
    """The whitespace-normalized *direct* value of a node: an attribute's
    value, or an element's direct text children (descendant text is not
    concatenated -- only direct text counts as the element's indexable
    value).

    This is the single definition of "a node's recorded value" shared by
    the columnar store's values column and the statistics synopsis, so
    the two can never disagree on a value's bytes.
    """
    if node.kind == NodeKind.ATTRIBUTE:
        return " ".join(node.value.split())
    direct_text = "".join(child.value for child in node.children
                          if child.kind == NodeKind.TEXT)
    return " ".join(direct_text.split())


def build_document(root_name: str, uri: str = "") -> "tuple[DocumentNode, ElementNode]":
    """Create an empty document with a root element; return ``(doc, root)``.

    This is the entry point the synthetic data generators use.
    """
    doc = DocumentNode(uri=uri)
    root = ElementNode(root_name)
    doc.append_child(root)
    return doc, root


def iter_paths(doc: DocumentNode) -> Iterator[str]:
    """Yield the simple path of every element and attribute node in ``doc``."""
    for node in doc.descendant_elements():
        yield node.simple_path()
        for attr in node.attributes:
            yield attr.simple_path()


def distinct_paths(docs: Sequence[DocumentNode]) -> List[str]:
    """Return the sorted list of distinct simple paths over ``docs``."""
    seen = set()
    for doc in docs:
        for path in iter_paths(doc):
            seen.add(path)
    return sorted(seen)
