"""Unit tests for statement normalization (lowering to PathPredicates)."""

from __future__ import annotations

import pytest

from repro.xpath.ast import BinaryOp
from repro.xquery.errors import QueryParseError
from repro.xquery.model import QueryLanguage, UpdateKind, ValueType
from repro.xquery.normalizer import (
    detect_language,
    location_path_to_pattern,
    normalize_statement,
    normalize_workload,
)
from repro.xquery.model import Workload
from repro.xpath.parser import parse_xpath


def _predicate_map(query):
    return {p.pattern.to_text(): p for p in query.predicates}


class TestXQueryNormalization:
    def test_where_clause_comparisons_become_predicates(self):
        query = normalize_statement(
            'for $i in doc("x")/site/regions/africa/item '
            'where $i/quantity > 5 and $i/payment = "Creditcard" return $i/name')
        predicates = _predicate_map(query)
        quantity = predicates["/site/regions/africa/item/quantity"]
        assert quantity.op is BinaryOp.GT
        assert quantity.value == pytest.approx(5.0)
        assert quantity.value_type is ValueType.DOUBLE
        payment = predicates["/site/regions/africa/item/payment"]
        assert payment.op is BinaryOp.EQ
        assert payment.value == "Creditcard"
        assert payment.value_type is ValueType.VARCHAR

    def test_binding_spine_recorded_as_extraction(self):
        query = normalize_statement(
            'for $i in doc("x")/site/regions/africa/item '
            'where $i/quantity > 5 return $i/name')
        extraction = {p.to_text() for p in query.extraction_paths}
        assert "/site/regions/africa/item" in extraction
        assert "/site/regions/africa/item/name" in extraction

    def test_step_predicates_in_binding_source(self):
        query = normalize_statement(
            'for $p in doc("x")/site/people/person[profile/age > 30] return $p/name')
        predicates = _predicate_map(query)
        assert "/site/people/person/profile/age" in predicates
        assert predicates["/site/people/person/profile/age"].op is BinaryOp.GT

    def test_let_binding_resolution(self):
        query = normalize_statement(
            'for $i in doc("x")/site/regions/asia/item '
            'let $q := $i/quantity where $q > 3 return $i/name')
        predicates = _predicate_map(query)
        assert "/site/regions/asia/item/quantity" in predicates

    def test_attribute_predicate(self):
        query = normalize_statement(
            'for $p in doc("x")/site/people/person '
            'where $p/profile/@income > 50000 return $p/name')
        predicates = _predicate_map(query)
        income = predicates["/site/people/person/profile/@income"]
        assert income.value_type is ValueType.DOUBLE
        assert income.pattern.indexes_attribute

    def test_reversed_comparison_is_flipped(self):
        query = normalize_statement(
            'for $i in doc("x")//item where 5 < $i/quantity return $i')
        predicate = [p for p in query.predicates if not p.is_existence][0]
        assert predicate.op is BinaryOp.GT
        assert predicate.value == pytest.approx(5.0)

    def test_contains_produces_structural_predicate(self):
        query = normalize_statement(
            'for $i in doc("x")//item where contains($i/name, "gold") return $i')
        patterns = {p.pattern.to_text() for p in query.predicates}
        assert "//item/name" in patterns

    def test_unbound_variable_raises(self):
        with pytest.raises(QueryParseError):
            normalize_statement('for $i in doc("x")/a where $z/b > 1 return $i')

    def test_duplicate_predicates_are_merged(self):
        query = normalize_statement(
            'for $i in doc("x")//item where $i/quantity > 5 and $i/quantity > 5 return $i')
        value_predicates = [p for p in query.predicates if p.op is not None]
        assert len(value_predicates) == 1

    def test_frequency_carried_through(self):
        from repro.xquery.model import WorkloadStatement

        statement = WorkloadStatement(
            text='for $i in doc("x")//item where $i/quantity > 5 return $i',
            frequency=4.0)
        query = normalize_statement(statement)
        assert query.frequency == pytest.approx(4.0)


class TestSqlXmlNormalization:
    def test_xmlexists_predicates(self):
        query = normalize_statement(
            'SELECT 1 FROM orders WHERE XMLEXISTS('
            '\'$d/FIXML/Order[@Side = "2"]\' PASSING doc AS "d")')
        assert query.language is QueryLanguage.SQLXML
        predicates = _predicate_map(query)
        assert "/FIXML/Order/@Side" in predicates
        assert predicates["/FIXML/Order/@Side"].value == "2"
        # The XMLEXISTS spine itself is an (existence) predicate.
        assert "/FIXML/Order" in predicates

    def test_xmlquery_paths_are_extraction_only(self):
        query = normalize_statement(
            "SELECT XMLQUERY('$d/Security/Price/LastTrade' PASSING doc AS \"d\") "
            "FROM security")
        assert not [p for p in query.predicates if p.op is not None]
        extraction = {p.to_text() for p in query.extraction_paths}
        assert "/Security/Price/LastTrade" in extraction

    def test_numeric_attribute_comparison(self):
        query = normalize_statement(
            "SELECT 1 FROM custacc WHERE XMLEXISTS("
            "'$d/Customer/Accounts/Account[@balance > 100000]' PASSING doc AS \"d\")")
        predicates = _predicate_map(query)
        balance = predicates["/Customer/Accounts/Account/@balance"]
        assert balance.value_type is ValueType.DOUBLE


class TestXPathNormalization:
    def test_plain_path(self):
        query = normalize_statement("/site/people/person/name")
        assert query.language is QueryLanguage.XPATH
        extraction = {p.to_text() for p in query.extraction_paths}
        assert "/site/people/person/name" in extraction

    def test_path_with_predicate(self):
        query = normalize_statement('/site/regions/africa/item[quantity > 5]/name')
        predicates = _predicate_map(query)
        assert "/site/regions/africa/item/quantity" in predicates

    def test_text_step_folded_into_pattern(self):
        pattern = location_path_to_pattern(parse_xpath("/a/b/text()"))
        assert pattern.to_text() == "/a/b"


class TestUpdateNormalization:
    def test_insert_node(self):
        query = normalize_statement(
            'insert node <Order ID="1"/> into /FIXML')
        assert query.is_update
        assert query.update_kind is UpdateKind.INSERT
        touched = {p.to_text() for p in query.touched_patterns}
        assert "/FIXML" in touched
        assert "/FIXML//*" in touched

    def test_delete_node(self):
        query = normalize_statement('delete node /FIXML/Order[@ID = "7"]')
        assert query.update_kind is UpdateKind.DELETE
        touched = {p.to_text() for p in query.touched_patterns}
        assert "/FIXML/Order" in touched

    def test_replace_value(self):
        query = normalize_statement(
            'replace value of node /FIXML/Order/OrdQty/@Qty with "250"')
        assert query.update_kind is UpdateKind.UPDATE
        touched = {p.to_text() for p in query.touched_patterns}
        assert "/FIXML/Order/OrdQty/@Qty" in touched

    def test_sql_insert_touches_everything(self):
        query = normalize_statement(
            "INSERT INTO orders VALUES (XMLPARSE(DOCUMENT '<FIXML/>'))")
        assert query.is_update
        touched = {p.to_text() for p in query.touched_patterns}
        assert "//*" in touched

    def test_updates_have_no_candidates(self):
        query = normalize_statement('delete node /FIXML/Order[@ID = "7"]')
        assert query.predicates == []


class TestLanguageDetection:
    @pytest.mark.parametrize("text,expected", [
        ('for $i in doc("x")/a return $i', QueryLanguage.XQUERY),
        ('doc("x")/a/b', QueryLanguage.XQUERY),
        ("SELECT 1 FROM t WHERE XMLEXISTS('$d/a' PASSING d AS \"d\")",
         QueryLanguage.SQLXML),
        ("/site/people/person", QueryLanguage.XPATH),
        ("insert node <a/> into /b", QueryLanguage.XQUERY),
    ])
    def test_detection(self, text, expected):
        assert detect_language(text) is expected


class TestWorkloadNormalization:
    def test_normalize_workload_preserves_order_and_ids(self, tiny_workload):
        queries = normalize_workload(tiny_workload)
        assert len(queries) == len(tiny_workload)
        assert queries[0].query_id.endswith("q1")
        assert queries[0].frequency == pytest.approx(3.0)

    def test_mixed_language_workload(self):
        workload = Workload(name="mixed")
        workload.add('for $i in doc("x")//item where $i/quantity > 1 return $i')
        workload.add("SELECT 1 FROM t WHERE XMLEXISTS('$d/a[b = \"c\"]' PASSING doc AS \"d\")")
        workload.add("delete node /a/b")
        queries = normalize_workload(workload)
        languages = [q.language for q in queries]
        assert QueryLanguage.XQUERY in languages
        assert QueryLanguage.SQLXML in languages
        assert any(q.is_update for q in queries)


class TestParseErrorsAreTyped:
    """``normalize_statement`` promises ``QueryParseError`` whatever the
    language; the inner XPath error (with its offset) is the cause."""

    @pytest.mark.parametrize("text, language", [
        ("/site/people/person[", QueryLanguage.XPATH),
        ("/a/b[c = 1.2.3]", QueryLanguage.XPATH),
        ('for $p in doc("x")/site/people/person where $p/age > return $p',
         QueryLanguage.XQUERY),
        ('for $p in doc("x")/site/people/person where $p/age > 1.2.3 return $p',
         QueryLanguage.XQUERY),
        ("SELECT 1 FROM t WHERE XMLEXISTS('$d/a[b = ' PASSING doc AS \"d\")",
         QueryLanguage.SQLXML),
    ])
    def test_bad_xpath_in_every_language(self, text, language):
        from repro.xpath.errors import XPathParseError

        assert detect_language(text) is language
        with pytest.raises(QueryParseError, match=r"at offset \d+") as caught:
            normalize_statement(text)
        assert isinstance(caught.value.__cause__, XPathParseError)
        assert caught.value.statement == text


class TestNestingLimit:
    """Deep nesting is a parse error with an offset, never a bare
    ``RecursionError`` (which 246 parentheses used to raise)."""

    @staticmethod
    def _parenthesized(levels):
        # The predicate bracket is one level, the parentheses the rest.
        return ("/site/people/person[" + "(" * (levels - 1) + "age > 5"
                + ")" * (levels - 1) + "]/name")

    @pytest.mark.parametrize("shape", ["parentheses", "predicates", "calls"])
    def test_limit_parses_and_one_past_it_is_typed(self, shape):
        from repro.xpath.errors import XPathParseError
        from repro.xpath.parser import MAX_NESTING

        def statement(levels):
            if shape == "parentheses":
                return self._parenthesized(levels)
            if shape == "predicates":
                return "/site" + "[a" * levels + " = 1" + "]" * levels
            return ("/site/people/person[" + "not(" * (levels - 1) + "age > 5"
                    + ")" * (levels - 1) + "]")

        assert normalize_statement(statement(MAX_NESTING)).predicates
        text = statement(MAX_NESTING + 1)
        with pytest.raises(QueryParseError,
                           match=rf"nesting deeper than {MAX_NESTING} levels"
                                 r".* at offset \d+") as caught:
            normalize_statement(text)
        assert isinstance(caught.value.__cause__, XPathParseError)
        # The offset points at the bracket that opened one level too many.
        assert text[caught.value.__cause__.position] in "(["

    def test_far_past_the_limit_in_every_language(self):
        deep = "(" * 400 + "$p/age > 5" + ")" * 400
        for text in (self._parenthesized(400),
                     f'for $p in doc("x")/site/people/person where {deep} '
                     'return $p/name',
                     "SELECT 1 FROM t WHERE XMLEXISTS('$d/site/people/person["
                     + "(" * 400 + "age > 5" + ")" * 400
                     + "]' PASSING doc AS \"d\")"):
            with pytest.raises(QueryParseError, match="nesting deeper than"):
                normalize_statement(text)
