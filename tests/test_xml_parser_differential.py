"""The expat event builder against the hand-written parser it replaced
(``tests/reference/xml_parser_reference.py``): identical trees -- kind,
name, value, attribute order, node ids, parent links and ``uri`` -- or
an :class:`XmlParseError` from both.

Corpora: every document of the four E0 profiles at seeds 42 and 7, the
XMark / TPoX generators at the suite's scales, hypothesis documents and
fragments, and the malformed inputs of ``test_xmldb_parser.py``.  The
generated inputs stay inside what both parsers must agree on; the
input classes on which they are known to differ are pinned in
:data:`CENSUS` with the new behaviour, and the deliberate deviations
also have their own tests in ``test_xmldb_parser.py``.
"""

from __future__ import annotations

import string

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from bench.inputs import PROFILES, generate
from reference import xml_parser_reference as reference
from repro.xmldb.errors import XmlParseError
from repro.xmldb.parser import parse_document, parse_fragment
from repro.xmldb.serializer import serialize
from test_xmldb_parser import MALFORMED_DOCUMENTS


def _rows(nodes):
    """Pre-order rows of the trees under ``nodes``, attributes inline."""
    rows = []
    stack = list(reversed(nodes))
    while stack:
        node = stack.pop()
        parent = None if node.parent is None else node.parent.node_id
        rows.append((node.kind, node.name, node.value, node.node_id, parent,
                     getattr(node, "uri", None),
                     [(a.kind, a.name, a.value, a.node_id, a.parent is node)
                      for a in node.attributes],
                     [child.parent is node for child in node.children]))
        stack.extend(reversed(node.children))
    return rows


def _outcome(parse, text, *args):
    try:
        result = parse(text, *args)
    except Exception as error:  # noqa: BLE001 -- the failure is the result
        return type(error)
    return _rows(result if isinstance(result, list) else [result])


def assert_same_document(text, uri="doc.xml"):
    expected = _outcome(reference.parse_document, text, uri)
    assert _outcome(parse_document, text, uri) == expected


def assert_same_fragment(text):
    assert _outcome(parse_fragment, text) == _outcome(reference.parse_fragment, text)


# ----------------------------------------------------------------------
# Generated document text
# ----------------------------------------------------------------------
_NAMES = ["a", "b", "item", "ns:x", "_u", "x-y", "x.y", "a1"]
_name = st.sampled_from(_NAMES)
_SAFE = string.ascii_letters + string.digits + " .-/:;=?!#()[{}*+,~^%$@"
_REFERENCES = ["&amp;", "&lt;", "&gt;", "&quot;", "&apos;", "&#65;", "&#x42;",
               "&#233;", "&#9;", "&#10;", "&#13;"]
_chunk = st.text(alphabet=_SAFE, min_size=1, max_size=6)
_text = st.lists(st.one_of(_chunk, st.sampled_from(_REFERENCES + ["\n", "\t", "  ", ">"])),
                 min_size=1, max_size=5).map("".join)
_cdata = st.text(alphabet=_SAFE + "<>&\n\t", max_size=8).map(
    lambda body: f"<![CDATA[{body}]]>")
_comment = st.text(alphabet=_SAFE.replace("-", "") + "<>&\n", max_size=8).map(
    lambda body: f"<!--{body}-->")
_pi = st.tuples(st.sampled_from(["pi", "style", "x-y"]),
                st.text(alphabet=string.ascii_letters + " =\"'", max_size=8)).map(
    lambda pair: f"<?{pair[0]}{' ' + pair[1] if pair[1] else ''}?>")
_leaf = st.one_of(_text, _text, _cdata, _comment, _pi, st.just("&u;"))
_attribute_value = st.lists(
    st.one_of(_chunk, st.sampled_from(_REFERENCES + [">", "'"])), max_size=4).map("".join)


@st.composite
def _attributes(draw):
    names = draw(st.lists(st.sampled_from(["id", "k", "ns:v", "x-y"]),
                          unique=True, max_size=3))
    rendered = []
    for name in names:
        value = draw(_attribute_value)
        quote = draw(st.sampled_from(['"', "'"]))
        value = value.replace(quote, "&quot;" if quote == '"' else "&apos;")
        spacing = draw(st.sampled_from(["=", " = ", "=\n"]))
        rendered.append(f"{draw(st.sampled_from([' ', '  ', chr(10)]))}"
                        f"{name}{spacing}{quote}{value}{quote}")
    return "".join(rendered) + draw(st.sampled_from(["", " "]))


def _element(depth):
    @st.composite
    def build(draw):
        name = draw(_name)
        attributes = draw(_attributes())
        if depth == 0 or draw(st.integers(0, 4)) == 0:
            return f"<{name}{attributes}/>"
        content = draw(st.lists(st.one_of(_leaf, _element(depth - 1)), max_size=4))
        close = draw(st.sampled_from(["", " "]))
        return f"<{name}{attributes}>{''.join(content)}</{name}{close}>"
    return build()


_misc = st.lists(st.one_of(_comment, _pi, st.sampled_from([" ", "\n"])),
                 max_size=3).map("".join)
_prolog = st.tuples(
    st.sampled_from(["", " ", "\n  "]),
    st.sampled_from(["", '<?xml version="1.0"?>',
                     "<?xml version='1.0' encoding='UTF-8'?>\n"]),
    _misc,
    st.sampled_from(["", "<!DOCTYPE a>", '<!DOCTYPE a SYSTEM "a.dtd">\n',
                     "<!DOCTYPE a [<!ELEMENT a (#PCDATA)>]>"]),
    _misc).map("".join)
_documents = st.tuples(_prolog, _element(3), _misc).map("".join)
_fragments = st.lists(st.one_of(_text, _comment, _pi, _element(2), st.just("  ")),
                      max_size=4).map("".join)


class TestSameTreesAsReference:
    @settings(max_examples=250, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(text=_documents)
    def test_hypothesis_documents(self, text):
        assert_same_document(text)

    @settings(max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(text=_fragments)
    def test_hypothesis_fragments(self, text):
        assert_same_fragment(text)

    @pytest.mark.parametrize("text", MALFORMED_DOCUMENTS)
    def test_malformed_documents(self, text):
        assert _outcome(reference.parse_document, text, "") is XmlParseError
        assert_same_document(text)

    @pytest.mark.parametrize("seed", [42, 7])
    def test_e0_profile_documents(self, seed):
        texts = {}
        for profile in PROFILES.values():
            inputs = generate(profile, seed)
            for collection in inputs.collections.values():
                texts.update(dict.fromkeys(collection))
            for write_round in inputs.rounds:
                texts.update(dict.fromkeys(write_round.adds))
        for text in texts:
            assert_same_document(text)

    def test_generated_databases(self, xmark_database, tpox_database):
        for database in (xmark_database, tpox_database):
            for document in database.all_documents():
                text = serialize(document)
                assert_same_document(text, document.uri)
                # The generator numbered its tree with assign_node_ids;
                # the builder numbers as it creates: the same ids.
                assert _rows(parse_document(text, document.uri).children) \
                    == _rows(document.children)


# ----------------------------------------------------------------------
# The census: the input classes on which the two parsers are known to differ
# ----------------------------------------------------------------------
#: deviation -> (input, what the expat builder gives: the root's text or
#: attribute value, or ``XmlParseError``).  The first six are
#: deliberate -- XML 1.0's normalization rules, two well-formedness
#: rules and the refusal of entity declarations -- and all but the
#: tokenized-type one have their own tests in ``test_xmldb_parser.py``;
#: the rest are inputs the reference accepted although they are not
#: well-formed, or rejected although they are.
CENSUS = {
    "CR LF / CR -> LF in text (section 2.11)":
        ("<a>x\r\ny\rz</a>", "x\ny\nz"),
    "TAB / LF / CR -> space in attribute values (section 3.3.3)":
        ('<a v="1\t2\n3\r\n4"/>', "1 2 3 4"),
    "value of an attribute declared with a tokenized type is collapsed "
    "(section 3.3.3)":
        ('<!DOCTYPE a [<!ATTLIST a v ID #IMPLIED>]><a v=" x "/>', "x"),
    "'<' inside an attribute value":
        ('<a v="1<2"/>', XmlParseError),
    "duplicate attribute":
        ('<a v="1" v="2"/>', XmlParseError),
    "entity declaration":
        ('<!DOCTYPE a [<!ENTITY e "x">]><a/>', XmlParseError),
    "']]>' in text":
        ("<a>x]]>y</a>", XmlParseError),
    "'--' inside a comment":
        ("<a><!-- x -- y --></a>", XmlParseError),
    "no whitespace between attributes":
        ('<a v="1"w="2"/>', XmlParseError),
    "character not allowed in XML":
        ("<a>&#1;</a>", XmlParseError),
    "malformed character reference (the reference leaked a ValueError)":
        ("<a>&#xZZ;</a>", XmlParseError),
    "second DOCTYPE":
        ("<!DOCTYPE a><!DOCTYPE a><a/>", XmlParseError),
    "XML declaration not at the start":
        ('<a><?xml version="1.0"?></a>', XmlParseError),
    "PI target starting with 'xml' before the root (the reference took it "
    "for the XML declaration)":
        ('<?xml-stylesheet href="s"?><a>x</a>', "x"),
    "byte order mark":
        ("\ufeff<a>x</a>", "x"),
    "name characters outside the reference's isalnum() test":
        ("<a\u00b7b>x</a\u00b7b>", "x"),
}


def _observed(text):
    try:
        root = parse_document(text).root_element
    except XmlParseError:
        return XmlParseError
    return root.attributes[0].value if root.attributes else root.string_value()


class TestDeviationCensus:
    @pytest.mark.parametrize("deviation", sorted(CENSUS))
    def test_pinned(self, deviation):
        text, expected = CENSUS[deviation]
        assert _observed(text) == expected
        assert _outcome(parse_document, text) \
            != _outcome(reference.parse_document, text)

    def test_pinned_for_fragments(self):
        # A CDATA section at the top level of a fragment is a text node;
        # the reference took it for a malformed element.
        assert [node.value for node in parse_fragment("<![CDATA[x]]><a/>")] \
            == ["x", ""]
        assert _outcome(reference.parse_fragment, "<![CDATA[x]]><a/>") \
            is XmlParseError
