"""Unit tests for the XML node model."""

from __future__ import annotations

import pytest

from repro.xmldb.errors import XmlNodeError
from repro.xmldb.nodes import (
    AttributeNode,
    CommentNode,
    DocumentNode,
    ElementNode,
    NodeKind,
    TextNode,
    build_document,
    distinct_paths,
    iter_paths,
)


class TestTreeConstruction:
    def test_build_document_returns_doc_and_root(self):
        doc, root = build_document("site")
        assert doc.kind is NodeKind.DOCUMENT
        assert root.kind is NodeKind.ELEMENT
        assert doc.root_element is root
        assert root.parent is doc

    def test_append_child_sets_parent(self):
        root = ElementNode("a")
        child = root.append_child(ElementNode("b"))
        assert child.parent is root
        assert root.children == [child]

    def test_add_element_with_text_and_attributes(self):
        root = ElementNode("item")
        child = root.add_element("quantity", text="5", attributes={"unit": "kg"})
        assert child.name == "quantity"
        assert child.string_value() == "5"
        assert child.get_attribute("unit") == "kg"

    def test_append_child_rejects_self(self):
        node = ElementNode("a")
        with pytest.raises(XmlNodeError):
            node.append_child(node)

    def test_append_child_rejects_attribute_node(self):
        node = ElementNode("a")
        with pytest.raises(XmlNodeError):
            node.append_child(AttributeNode("id", "1"))

    def test_set_attribute_replaces_existing(self):
        node = ElementNode("a")
        node.set_attribute("id", "1")
        node.set_attribute("id", "2")
        assert node.get_attribute("id") == "2"
        assert len(node.attributes) == 1

    def test_get_missing_attribute_returns_none(self):
        assert ElementNode("a").get_attribute("nope") is None


class TestNavigation:
    def _sample(self):
        doc, root = build_document("site")
        regions = root.add_element("regions")
        africa = regions.add_element("africa")
        africa.add_element("item", text="x", attributes={"id": "i1"})
        africa.add_element("item", text="y", attributes={"id": "i2"})
        regions.add_element("asia")
        return doc, root, regions, africa

    def test_element_children_skips_text(self):
        _, root, regions, _ = self._sample()
        root.add_text("stray text")
        names = [c.name for c in root.element_children()]
        assert names == ["regions"]

    def test_child_elements_filters_by_name(self):
        _, _, _, africa = self._sample()
        assert len(africa.child_elements("item")) == 2
        assert africa.child_elements("missing") == []

    def test_first_child_element(self):
        _, _, regions, _ = self._sample()
        assert regions.first_child_element("asia").name == "asia"
        assert regions.first_child_element("europe") is None

    def test_descendant_elements_in_document_order(self):
        doc, *_ = self._sample()
        names = [e.name for e in doc.descendant_elements()]
        assert names == ["site", "regions", "africa", "item", "item", "asia"]

    def test_ancestors(self):
        _, root, regions, africa = self._sample()
        item = africa.child_elements("item")[0]
        ancestor_names = [a.name for a in item.ancestors() if a.kind is NodeKind.ELEMENT]
        assert ancestor_names == ["africa", "regions", "site"]

    def test_ancestors_include_self(self):
        _, _, _, africa = self._sample()
        chain = list(africa.ancestors(include_self=True))
        assert chain[0] is africa


class TestValuesAndPaths:
    def test_string_value_concatenates_descendant_text(self):
        root = ElementNode("a")
        root.add_element("b", text="hello ")
        root.add_element("c", text="world")
        assert root.string_value() == "hello world"

    def test_typed_value_normalizes_whitespace(self):
        node = ElementNode("a")
        node.add_text("  5  \n  apples ")
        assert node.typed_value() == "5 apples"

    def test_double_value_casts_or_none(self):
        numeric = ElementNode("n")
        numeric.add_text(" 42.5 ")
        assert numeric.double_value() == pytest.approx(42.5)
        textual = ElementNode("t")
        textual.add_text("hello")
        assert textual.double_value() is None
        empty = ElementNode("e")
        assert empty.double_value() is None

    def test_simple_path_for_elements_and_attributes(self):
        doc, root = build_document("site")
        item = root.add_element("regions").add_element("africa").add_element("item")
        attr = item.set_attribute("id", "i1")
        assert item.simple_path() == "/site/regions/africa/item"
        assert attr.simple_path() == "/site/regions/africa/item/@id"
        assert doc.simple_path() == "/"

    def test_simple_path_is_cached(self):
        doc, root = build_document("site")
        first = root.simple_path()
        assert root.simple_path() is first

    def test_text_node_shares_parent_path(self):
        doc, root = build_document("site")
        child = root.add_element("name", text="x")
        text = child.children[0]
        assert text.simple_path() == "/site/name"


class TestDocumentNode:
    def test_assign_node_ids_document_order(self):
        doc, root = build_document("site")
        a = root.add_element("a", text="1")
        b = root.add_element("b")
        b.set_attribute("id", "x")
        doc.assign_node_ids()
        assert doc.node_id == 0
        assert root.node_id < a.node_id < b.node_id
        assert b.attributes[0].node_id > b.node_id

    def test_assign_node_ids_on_generated_documents(self, xmark_database,
                                                    tpox_database):
        """The one-pass numbering equals the pre-order definition (each
        node from ``descendants()``, its attributes right after it), and
        its return value is ``total_nodes()``."""
        for database in (xmark_database, tpox_database):
            for document in database.all_documents():
                expected = [document]
                for node in document.descendants():
                    expected.append(node)
                    expected.extend(node.attributes)
                for node in expected:
                    node.node_id = -1
                assert document.assign_node_ids() == document.total_nodes()
                assert [node.node_id for node in expected] \
                    == list(range(len(expected)))

    def test_total_nodes_counts_everything(self):
        doc, root = build_document("site")
        child = root.add_element("a", text="1", attributes={"id": "x"})
        # document + site + a + text + attribute
        assert doc.total_nodes() == 5

    def test_root_element_none_for_empty_document(self):
        assert DocumentNode().root_element is None


class TestPathHelpers:
    def test_iter_paths_yields_elements_and_attributes(self, tiny_document):
        paths = set(iter_paths(tiny_document))
        assert "/site/regions/africa/item" in paths
        assert "/site/regions/africa/item/@id" in paths
        assert "/site/people/person/profile/@income" in paths

    def test_distinct_paths_sorted_unique(self, tiny_document):
        paths = distinct_paths([tiny_document, tiny_document])
        assert paths == sorted(set(paths))
        assert "/site/people/person/name" in paths
