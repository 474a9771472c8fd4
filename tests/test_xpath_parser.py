"""Unit tests for the XPath lexer/parser."""

from __future__ import annotations

import pytest

from repro.xpath.ast import (
    Axis,
    BinaryOp,
    ComparisonExpr,
    FunctionCall,
    Literal,
    LocationPath,
    iter_location_paths,
)
from repro.xpath.errors import XPathParseError
from repro.xpath.parser import parse_location_path, parse_xpath


class TestLocationPaths:
    def test_absolute_child_path(self):
        path = parse_xpath("/site/regions/africa/item")
        assert isinstance(path, LocationPath)
        assert path.absolute
        assert [s.node_test for s in path.steps] == ["site", "regions", "africa", "item"]
        assert all(s.axis is Axis.CHILD for s in path.steps)

    def test_descendant_axis(self):
        path = parse_xpath("//item/name")
        assert path.steps[0].axis is Axis.DESCENDANT_OR_SELF
        assert path.steps[1].axis is Axis.CHILD

    def test_mixed_axes(self):
        path = parse_xpath("/site//item//keyword")
        axes = [s.axis for s in path.steps]
        assert axes == [Axis.CHILD, Axis.DESCENDANT_OR_SELF, Axis.DESCENDANT_OR_SELF]

    def test_attribute_step(self):
        path = parse_xpath("/site/people/person/@id")
        assert path.steps[-1].axis is Axis.ATTRIBUTE
        assert path.steps[-1].node_test == "id"

    def test_descendant_attribute_becomes_wildcard_plus_attribute(self):
        path = parse_xpath("//@id")
        assert [s.node_test for s in path.steps] == ["*", "id"]
        assert path.steps[0].axis is Axis.DESCENDANT_OR_SELF
        assert path.steps[1].axis is Axis.ATTRIBUTE

    def test_wildcards(self):
        path = parse_xpath("/site/regions/*/item/@*")
        assert path.steps[2].is_wildcard
        assert path.steps[4].is_wildcard
        assert path.steps[4].axis is Axis.ATTRIBUTE

    def test_text_step(self):
        path = parse_xpath("/a/b/text()")
        assert path.steps[-1].is_text

    def test_relative_path(self):
        path = parse_xpath("item/name")
        assert not path.absolute

    def test_dot_relative_path(self):
        path = parse_xpath("./quantity")
        assert not path.absolute
        assert path.steps[0].node_test == "quantity"

    def test_variable_path(self):
        path = parse_xpath("$i/quantity")
        assert path.variable == "i"
        assert [s.node_test for s in path.steps] == ["quantity"]

    def test_bare_variable(self):
        path = parse_xpath("$doc")
        assert path.variable == "doc"
        assert path.steps == []

    def test_variable_with_descendant(self):
        path = parse_xpath("$i//keyword")
        assert path.variable == "i"
        assert path.steps[0].axis is Axis.DESCENDANT_OR_SELF

    def test_root_only(self):
        path = parse_xpath("/")
        assert path.absolute and path.steps == []


class TestPredicatesAndExpressions:
    def test_step_predicate_comparison(self):
        path = parse_xpath('/site/people/person[profile/age > 30]/name')
        person_step = path.steps[2]
        assert len(person_step.predicates) == 1
        expr = person_step.predicates[0].expression
        assert isinstance(expr, ComparisonExpr)
        assert expr.op is BinaryOp.GT
        assert isinstance(expr.right, Literal)
        assert expr.right.value == pytest.approx(30.0)

    def test_multiple_predicates_on_one_step(self):
        path = parse_xpath('/a/b[c = "x"][d > 2]')
        assert len(path.steps[1].predicates) == 2

    def test_top_level_comparison(self):
        expr = parse_xpath('/site/people/person/@id = "person0"')
        assert isinstance(expr, ComparisonExpr)
        assert expr.op is BinaryOp.EQ
        assert expr.right.value == "person0"

    def test_and_or_precedence(self):
        expr = parse_xpath('$i/a = 1 or $i/b = 2 and $i/c = 3')
        assert isinstance(expr, ComparisonExpr)
        assert expr.op is BinaryOp.OR
        assert isinstance(expr.right, ComparisonExpr)
        assert expr.right.op is BinaryOp.AND

    def test_parenthesized_expression(self):
        expr = parse_xpath('($i/a = 1 or $i/b = 2) and $i/c = 3')
        assert expr.op is BinaryOp.AND
        assert expr.left.op is BinaryOp.OR

    def test_function_call(self):
        expr = parse_xpath('contains($i/name, "gold")')
        assert isinstance(expr, FunctionCall)
        assert expr.name == "contains"
        assert len(expr.arguments) == 2

    @pytest.mark.parametrize("op,enum_member", [
        ("=", BinaryOp.EQ), ("!=", BinaryOp.NE), ("<", BinaryOp.LT),
        ("<=", BinaryOp.LE), (">", BinaryOp.GT), (">=", BinaryOp.GE),
    ])
    def test_all_comparison_operators(self, op, enum_member):
        expr = parse_xpath(f"$x/v {op} 5")
        assert expr.op is enum_member

    def test_string_literals_both_quote_styles(self):
        assert parse_xpath("$x/a = 'y'").right.value == "y"
        assert parse_xpath('$x/a = "y"').right.value == "y"

    def test_numeric_literals(self):
        assert parse_xpath("$x/a = 42").right.value == pytest.approx(42.0)
        assert parse_xpath("$x/a = 4.25").right.value == pytest.approx(4.25)


class TestRendering:
    @pytest.mark.parametrize("text", [
        "/site/regions/africa/item",
        "//item/name",
        "/site/regions/*/item/@id",
        "/site//open_auction",
    ])
    def test_to_xpath_round_trips_plain_paths(self, text):
        assert parse_xpath(text).to_xpath() == text

    def test_to_xpath_for_predicates(self):
        rendered = parse_xpath('/a/b[c > 5]/d').to_xpath()
        reparsed = parse_xpath(rendered)
        assert reparsed.to_xpath() == rendered

    def test_spine_string_strips_predicates(self):
        path = parse_xpath('/a/b[c > 5][d = "x"]/e')
        assert path.spine_string() == "/a/b/e"
        assert path.has_predicates()
        assert not path.without_predicates().has_predicates()


class TestIterLocationPaths:
    def test_collects_nested_paths(self):
        expr = parse_xpath('$i/a = 1 and contains($i/b, "x")')
        paths = iter_location_paths(expr)
        rendered = {p.to_xpath() for p in paths}
        assert "$i/a" in rendered and "$i/b" in rendered

    def test_collects_paths_inside_step_predicates(self):
        path = parse_xpath('/site/person[profile/age > 30]/name')
        rendered = {p.to_xpath() for p in iter_location_paths(path)}
        assert any("profile/age" in r for r in rendered)


class TestErrors:
    @pytest.mark.parametrize("text", [
        "", "   ", "/site/[", "/a/b[", "/a/b]", "/a//", "$", "$/a",
        "/a/b[c >]", 'contains($i/a', "/a/'unterminated",
    ])
    def test_invalid_expressions_raise(self, text):
        with pytest.raises(XPathParseError):
            parse_xpath(text)

    def test_parse_location_path_rejects_comparisons(self):
        with pytest.raises(XPathParseError):
            parse_location_path("/a/b = 1")

    # The two deliberate deviations from the character-loop oracle
    # (tests/reference/frontend_reference.py); everything else is equal
    # (tests/test_frontend_differential.py).
    @pytest.mark.parametrize("text, offset", [
        ("/a/b[c = 1.2.3]", 9), ("/a/b[c > 1..2]", 9), ("$i/price = 3.4.", 11)])
    def test_malformed_number_is_a_parse_error(self, text, offset):
        with pytest.raises(XPathParseError, match="malformed number") as caught:
            parse_xpath(text)
        assert caught.value.position == offset
        assert f"at offset {offset}" in str(caught.value)
        assert parse_xpath("$i/price = 3.").right.value == 3.0

    def test_number_token_records_its_start_offset(self):
        from repro.xpath.parser import _tokenize

        assert [(token.text, token.position) for token in _tokenize("/a[b = 12.5]")] == [
            ("/", 0), ("a", 1), ("[", 2), ("b", 3), ("=", 5), ("12.5", 7),
            ("]", 11), ("", 12)]
        with pytest.raises(XPathParseError) as caught:
            parse_xpath("/a/b 42")
        assert caught.value.position == 5

    def test_non_ascii_letter_is_an_unexpected_character(self):
        # The character loop never returned on this input.
        with pytest.raises(XPathParseError, match="unexpected character"):
            parse_xpath("/a/\u00e9")

