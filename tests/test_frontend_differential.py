"""The regex lexer and clause splitter against their character-loop
oracles (``tests/reference/frontend_reference.py``): identical tokens,
clause lists and failures, on random strings over the token alphabet and
on every statement of the XMark, TPoX and synthetic workloads.

The two deliberate deviations are pinned in ``test_xpath_parser.py``;
here the oracle's NUMBER offset is moved to the token's start before
comparing, and a malformed number never shows because it fails in the
parser, not in the lexer.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from reference import frontend_reference as reference
from repro.workloads import (
    SyntheticWorkloadGenerator,
    tpox_workload,
    xmark_query_workload,
    xmark_unseen_queries,
)
from repro.xpath import parser as xpath_parser
from repro.xpath.parser import _TokenKind, _tokenize
from repro.xquery import normalize_statement, xquery_parser
from repro.xquery.xquery_parser import _split_clauses

_ATOMS = [
    "/", "//", "@", "*", "[", "]", "(", ")", "$", ",", ".", "..",
    "<", "<=", "!=", ">", ">=", "=", "!", "'", '"', "#",
    "0", "7", "42", "3.5", ".5", "1.2.3", "5.",
    "a", "b1", "item", "x-y", "n:s", "_u", "$i", "$for", "and", "or", "text()",
    "for", "let", "where", "order by", "stable order by", "return",
    "FOR", "Return", "Order By", "order  by", "order", "by", "stable",
    "forx", "xfor", "{", "}", " ", " ", "\n", "\t",
]
_strings = st.lists(st.sampled_from(_ATOMS), max_size=16).map("".join)


def _outcome(function, text):
    try:
        return function(text)
    except Exception as error:  # noqa: BLE001 -- the failure is the result
        return type(error), str(error), getattr(error, "position", None)


def _token_rows(tokens, number_offset_is_end):
    if not isinstance(tokens, list):
        return tokens
    return [(token.kind, token.text,
             token.position - len(token.text)
             if number_offset_is_end and token.kind is _TokenKind.NUMBER
             else token.position)
            for token in tokens]


def assert_same_tokens(text):
    assert (_token_rows(_outcome(_tokenize, text), False)
            == _token_rows(_outcome(reference._tokenize, text), True))


def assert_same_clauses(text):
    assert _outcome(_split_clauses, text) == _outcome(reference._split_clauses, text)


@pytest.fixture(scope="module")
def statements(xmark_database):
    synthetic = SyntheticWorkloadGenerator(xmark_database, seed=7)
    workloads = [xmark_query_workload(), xmark_unseen_queries(), tpox_workload(),
                 synthetic.generate(20, predicates_per_query=2)]
    return [statement.text for workload in workloads for statement in workload]


class TestFrontEndMatchesReference:
    @settings(max_examples=1500, deadline=None)
    @given(text=_strings)
    def test_random_strings(self, text):
        assert_same_tokens(text)
        assert_same_clauses(text)

    def test_workload_statements(self, statements):
        assert len(statements) > 60
        for text in statements:
            assert_same_clauses(text)
            assert_same_tokens(text)
            for _, clause in _split_clauses(text):
                assert_same_tokens(clause)

    def test_normalized_form_is_the_same_under_the_oracle(self, statements,
                                                          monkeypatch):
        ours = [normalize_statement(text) for text in statements]
        monkeypatch.setattr(xpath_parser, "_tokenize", reference._tokenize)
        monkeypatch.setattr(xquery_parser, "_split_clauses", reference._split_clauses)
        assert [normalize_statement(text) for text in statements] == ours
