"""Unit tests for the XML parser."""

from __future__ import annotations

import pytest

from repro.xmldb.errors import XmlParseError
from repro.xmldb.nodes import NodeKind
from repro.xmldb.parser import MAX_DEPTH, parse_document, parse_fragment


class TestBasicParsing:
    def test_single_element(self):
        doc = parse_document("<a/>")
        assert doc.root_element.name == "a"
        assert doc.root_element.children == []

    def test_nested_elements_and_text(self):
        doc = parse_document("<a><b>hello</b><c>world</c></a>")
        root = doc.root_element
        assert [c.name for c in root.element_children()] == ["b", "c"]
        assert root.string_value() == "helloworld"

    def test_attributes_single_and_double_quotes(self):
        doc = parse_document("""<a x="1" y='two'/>""")
        root = doc.root_element
        assert root.get_attribute("x") == "1"
        assert root.get_attribute("y") == "two"

    def test_xml_declaration_and_whitespace(self):
        doc = parse_document('<?xml version="1.0" encoding="UTF-8"?>\n  <a/>\n')
        assert doc.root_element.name == "a"

    def test_doctype_is_skipped(self):
        doc = parse_document('<!DOCTYPE site SYSTEM "auction.dtd"><site/>')
        assert doc.root_element.name == "site"

    def test_doctype_with_internal_subset(self):
        doc = parse_document('<!DOCTYPE a [<!ELEMENT a (#PCDATA)>]><a>x</a>')
        assert doc.root_element.string_value() == "x"

    def test_bytes_input_utf8(self):
        doc = parse_document("<a>é</a>".encode("utf-8"))
        assert doc.root_element.string_value() == "é"

    def test_node_ids_assigned(self):
        doc = parse_document("<a><b/><c/></a>")
        ids = [e.node_id for e in doc.descendant_elements()]
        assert ids == sorted(ids)
        assert len(set(ids)) == len(ids)

    def test_namespace_prefixes_preserved(self):
        doc = parse_document('<ns:a xmlns:ns="urn:x"><ns:b/></ns:a>')
        assert doc.root_element.name == "ns:a"
        assert doc.root_element.get_attribute("xmlns:ns") == "urn:x"


class TestEntitiesAndSpecialContent:
    def test_predefined_entities_in_text(self):
        doc = parse_document("<a>&lt;x&gt; &amp; &quot;y&quot; &apos;z&apos;</a>")
        assert doc.root_element.string_value() == "<x> & \"y\" 'z'"

    def test_numeric_character_references(self):
        doc = parse_document("<a>&#65;&#x42;</a>")
        assert doc.root_element.string_value() == "AB"

    def test_entities_in_attributes(self):
        doc = parse_document('<a title="Tom &amp; Jerry"/>')
        assert doc.root_element.get_attribute("title") == "Tom & Jerry"

    def test_cdata_section(self):
        doc = parse_document("<a><![CDATA[<not><parsed>&amp;]]></a>")
        assert doc.root_element.string_value() == "<not><parsed>&amp;"

    def test_cdata_sections_are_text_nodes_of_their_own(self):
        doc = parse_document("<a>x<![CDATA[y]]>z<![CDATA[]]></a>")
        assert [c.value for c in doc.root_element.children] == ["x", "y", "z", ""]

    def test_ids_follow_element_then_attributes_then_children(self):
        doc = parse_document('<!--c--><a p="1" q="2"><b r="3"/>t</a>')
        root = doc.root_element
        b = root.children[0]
        assert [doc.node_id, doc.children[0].node_id, root.node_id] == [0, 1, 2]
        assert [a.node_id for a in root.attributes] == [3, 4]
        assert [b.node_id, b.attributes[0].node_id, root.children[1].node_id] \
            == [5, 6, 7]
        assert doc.total_nodes() == 8

    def test_comments_are_kept(self):
        doc = parse_document("<a><!-- note --><b/></a>")
        kinds = [c.kind for c in doc.root_element.children]
        assert NodeKind.COMMENT in kinds

    def test_processing_instruction(self):
        doc = parse_document('<a><?style type="css"?></a>')
        pi = [c for c in doc.root_element.children
              if c.kind is NodeKind.PROCESSING_INSTRUCTION][0]
        assert pi.name == "style"
        assert "css" in pi.value


#: Inputs both this parser and the reference it replaced must reject
#: (``test_xml_parser_differential.py`` runs them through both).
MALFORMED_DOCUMENTS = [
    "",
    "   ",
    "<a>",                      # unterminated
    "<a></b>",                  # mismatched close
    "<a><b></a></b>",           # interleaved
    "<a attr></a>",             # attribute without value
    "<a attr=value/>",          # unquoted attribute
    "<a>&unknown;</a>",         # unknown entity
    "<a/><b/>",                 # two roots
    "text only",                # no element
    "<a><!-- unterminated </a>",
    "<1abc/>",                  # invalid name start
]


class TestErrors:
    @pytest.mark.parametrize("text", MALFORMED_DOCUMENTS)
    def test_malformed_documents_raise(self, text):
        with pytest.raises(XmlParseError):
            parse_document(text)

    def test_error_reports_line_and_column(self):
        with pytest.raises(XmlParseError) as excinfo:
            parse_document("<a>\n  <b></c>\n</a>")
        assert excinfo.value.line == 2
        assert excinfo.value.column > 0

    def test_position_counts_whitespace_before_the_declaration(self):
        # The whitespace is skipped before expat sees the declaration;
        # positions still refer to the caller's text.
        with pytest.raises(XmlParseError) as excinfo:
            parse_document('\n\n  <?xml version="1.0"?>\n<a></b>')
        assert (excinfo.value.line, excinfo.value.column) == (4, 6)
        with pytest.raises(XmlParseError) as excinfo:
            parse_document("   <a></b>")
        assert (excinfo.value.line, excinfo.value.column) == (1, 9)

    def test_fragment_position_ignores_the_wrapper(self):
        with pytest.raises(XmlParseError) as excinfo:
            parse_fragment("<a></b>")
        assert (excinfo.value.line, excinfo.value.column) == (1, 6)


class TestSafety:
    def test_entity_declaration_is_an_error(self):
        # Nothing can expand: a billion-laughs prologue fails on its first
        # declaration (the reference parser skipped the subset).
        with pytest.raises(XmlParseError, match="entity declaration") as excinfo:
            parse_document('<!DOCTYPE a [\n <!ENTITY l "lol">\n'
                           ' <!ENTITY l2 "&l;&l;&l;">]><a>&l2;</a>')
        assert excinfo.value.line == 2

    def test_unknown_entity_with_external_subset_is_an_error(self):
        # expat would skip the reference silently when the DOCTYPE names
        # an external subset; the DTD is never loaded.
        with pytest.raises(XmlParseError, match="unknown entity &u;"):
            parse_document('<!DOCTYPE a SYSTEM "a.dtd"><a>&u;</a>')

    def test_attlist_defaults_are_not_reported(self):
        doc = parse_document('<!DOCTYPE a [<!ATTLIST a d CDATA "x">]><a/>')
        assert doc.root_element.attributes == []


class TestSpecNormalization:
    """Where XML 1.0 says the parser normalizes, it does (the
    hand-written parser it replaced kept the raw characters)."""

    def test_line_ends_in_text_become_line_feeds(self):
        doc = parse_document("<a>x\r\ny\rz<![CDATA[\r\n]]></a>")
        assert [t.value for t in doc.root_element.children] == ["x\ny\nz", "\n"]

    def test_attribute_whitespace_becomes_spaces(self):
        doc = parse_document('<a v="1\t2\n3\r\n4\r5"/>')
        assert doc.root_element.get_attribute("v") == "1 2 3 4 5"

    def test_character_references_are_not_normalized(self):
        doc = parse_document('<a v="1&#9;2&#10;3&#13;">x&#13;</a>')
        assert doc.root_element.get_attribute("v") == "1\t2\n3\r"
        assert doc.root_element.string_value() == "x\r"

    def test_lt_in_attribute_value_is_an_error(self):
        with pytest.raises(XmlParseError):
            parse_document('<a v="1<2"/>')

    def test_duplicate_attribute_is_an_error(self):
        with pytest.raises(XmlParseError, match="duplicate attribute"):
            parse_document('<a v="1" v="2"/>')


class TestDepthLimit:
    @staticmethod
    def _nested(depth):
        return "<n>" * (depth - 1) + '<n k="v">x</n>' + "</n>" * (depth - 1)

    def test_max_depth_goes_end_to_end(self):
        from repro.executor.executor import QueryExecutor
        from repro.storage import XmlDatabase
        from repro.xmldb.serializer import serialize

        text = self._nested(MAX_DEPTH)
        database = XmlDatabase("deep")
        collection = database.create_collection("c")
        document = collection.add_document(text)
        assert collection.columnar_store.node_count == MAX_DEPTH + 1
        assert len(collection.statistics.path_stats) == MAX_DEPTH + 1
        assert database.statistics.total_element_count == MAX_DEPTH
        query = '//n[@k = "v"]'
        engine = QueryExecutor(database).execute(query, extract_values=True)
        interpreter = QueryExecutor(database, use_columnar=False).execute(
            query, extract_values=True)
        assert engine.result_count == 1
        assert (engine.result_count, engine.extracted_values) \
            == (interpreter.result_count, interpreter.extracted_values)
        serialized = serialize(document)
        assert serialize(parse_document(serialized)) == serialized

    def test_deeper_nesting_is_a_parse_error_at_the_tag(self):
        with pytest.raises(XmlParseError,
                           match=f"element nesting deeper than {MAX_DEPTH}") as excinfo:
            parse_document(self._nested(MAX_DEPTH + 1))
        assert (excinfo.value.line, excinfo.value.column) == (1, 3 * MAX_DEPTH + 1)

    def test_far_deeper_nesting_is_not_a_recursion_error(self):
        with pytest.raises(XmlParseError):
            parse_document(self._nested(1500))

    def test_fragments_get_the_same_limit(self):
        assert len(parse_fragment(self._nested(MAX_DEPTH))) == 1
        with pytest.raises(XmlParseError):
            parse_fragment(self._nested(MAX_DEPTH + 1))


class TestFragmentParsing:
    def test_fragment_with_multiple_roots(self):
        nodes = parse_fragment("<a/><b>x</b>")
        assert [n.name for n in nodes] == ["a", "b"]

    def test_fragment_ignores_pure_whitespace_text(self):
        nodes = parse_fragment("  <a/>   <b/>  ")
        assert [n.name for n in nodes] == ["a", "b"]


class TestRealisticDocuments:
    def test_tiny_site_structure(self, tiny_document):
        root = tiny_document.root_element
        assert root.name == "site"
        items = [e for e in tiny_document.descendant_elements() if e.name == "item"]
        assert len(items) == 3
        assert items[0].get_attribute("id") == "i1"

    def test_deeply_nested_document(self):
        depth = 60
        text = "".join(f"<n{i}>" for i in range(depth)) + "x" + \
               "".join(f"</n{i}>" for i in reversed(range(depth)))
        doc = parse_document(text)
        leaf_path = doc.root_element.simple_path()
        assert leaf_path == "/n0"
        assert sum(1 for _ in doc.descendant_elements()) == depth
