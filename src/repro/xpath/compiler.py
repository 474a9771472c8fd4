"""Compile XPath location paths into structural path-summary lookups.

The interpretive :class:`~repro.xpath.evaluator.XPathEvaluator` walks
the node tree once per location step.  For the linear path shapes the
workloads use, that work is redundant: a collection's
:class:`~repro.storage.path_summary.PathSummary` already knows every
node by its rooted simple path.  This module lowers location paths onto
that summary:

* **predicate-free paths** (``/site/regions/*/item``, ``//keyword``,
  ``/site/people/person/@id``) become a single pattern lookup;
* **simple-predicate paths** -- predicates on the *final* step only
  (``/site/regions/africa/item[quantity > 5]``) -- become a pattern
  lookup for the spine followed by interpretive evaluation of the
  residual predicates on each candidate node;
* a trailing child-axis ``text()`` step is answered by expanding the
  spine elements' direct text children;
* everything else (relative paths, variables, predicates on inner
  steps, expressions that are not location paths) falls back to the
  interpretive evaluator.  Path shapes whose ``//`` semantics differ
  between pattern matching and step-by-step evaluation (see
  :func:`steps_summary_safe`) cannot use the summary, but they *can*
  use a collection's columnar store
  (:class:`~repro.storage.columnar.ColumnarStore`), whose pattern
  matching implements the interpreter's descendant-or-self semantics
  exactly -- so every linear spine carries a :attr:`columnar_pattern`
  and only non-linear expressions still reach the interpreter when a
  columnar store is available.

Parsing and compilation are cached with LRUs keyed by expression text,
so repeated queries -- the executor evaluates the same predicate paths
against every document -- pay for parsing once.

Results are node *sets*: compiled lookups return exactly the nodes the
interpretive evaluator would, though possibly in a different order
(summary lookups group nodes by distinct path, the interpreter by step
expansion).
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

from repro.xmldb.nodes import DocumentNode, NodeKind, XmlNode
from repro.xpath.ast import Axis, LocationPath, PathExpr, Predicate
from repro.xpath.evaluator import XPathEvaluator
from repro.xpath.parser import parse_xpath
from repro.xpath.patterns import PathPattern, PatternStep

#: Size of the parse/compile LRUs.  Workloads contain at most a few
#: hundred distinct path expressions; 2048 keeps every expression of
#: even a very large workload resident.
CACHE_SIZE = 2048


@lru_cache(maxsize=CACHE_SIZE)
def parse_xpath_cached(expression: str) -> PathExpr:
    """Parse ``expression``, memoizing the AST by source text.

    Callers must treat the returned AST as immutable -- it is shared
    between every caller that parses the same text.
    """
    return parse_xpath(expression)


class CompiledXPath:
    """The compiled form of one XPath expression.

    When :attr:`pattern` is set, :meth:`select_nodes` answers the path
    spine from a :class:`~repro.storage.path_summary.PathSummary` and
    only uses the interpretive evaluator for residual predicates; when
    it is ``None`` the whole expression is delegated to the interpreter
    (``fallback_reason`` says why).
    """

    __slots__ = ("source", "expression", "pattern", "columnar_pattern",
                 "residual_predicates", "text_tail", "fallback_reason")

    def __init__(self, source: str, expression: PathExpr,
                 pattern: Optional[PathPattern] = None,
                 columnar_pattern: Optional[PathPattern] = None,
                 residual_predicates: Tuple[Predicate, ...] = (),
                 text_tail: bool = False,
                 fallback_reason: Optional[str] = None) -> None:
        self.source = source
        self.expression = expression
        self.pattern = pattern
        #: The linear spine for the columnar backend.  Set for *every*
        #: linear path -- including summary-unsafe ``//`` shapes, whose
        #: descendant-or-self semantics the columnar store answers
        #: exactly -- and ``None`` only for non-linear expressions.
        self.columnar_pattern = columnar_pattern if columnar_pattern is not None \
            else pattern
        self.residual_predicates = residual_predicates
        self.text_tail = text_tail
        self.fallback_reason = fallback_reason

    @property
    def is_summary_backed(self) -> bool:
        """True when the path spine is answered from the summary."""
        return self.pattern is not None

    @property
    def is_columnar_backed(self) -> bool:
        """True when the path spine is answered from a columnar store."""
        return self.columnar_pattern is not None

    def select_nodes(self, summary, document: DocumentNode,
                     evaluator: Optional[XPathEvaluator] = None,
                     ordered: bool = False, columnar=None) -> List[XmlNode]:
        """The node set this expression selects in ``document``.

        ``summary`` is the path summary covering ``document`` (keyed by
        its ``doc_id``); ``columnar`` is the document's collection
        :class:`~repro.storage.columnar.ColumnarStore`, preferred over
        the summary when the spine lowers onto it (it also answers
        summary-unsafe ``//`` spines); pass ``evaluator`` to reuse one
        :class:`XPathEvaluator` across calls for the same document.
        With ``ordered=True`` the spine nodes come back in document
        order even when the pattern matches several distinct paths
        (node-id merge in the summary, postings merge in the columnar
        store), so the result can serve ordered extraction; residual
        filtering and ``text()`` expansion preserve that order.  The
        result must be treated as read-only unless
        :attr:`residual_predicates` or :attr:`text_tail` forced a copy.
        """
        if columnar is not None and self.columnar_pattern is not None:
            nodes = columnar.nodes_for_pattern(self.columnar_pattern,
                                               document.doc_id,
                                               ordered=ordered)
        elif self.pattern is not None and summary is not None:
            nodes = summary.nodes_for_pattern(self.pattern, document.doc_id,
                                              ordered=ordered)
        else:
            if evaluator is None:
                evaluator = XPathEvaluator(document)
            return evaluator.select_nodes(self.expression)
        if self.text_tail and nodes:
            texts: List[XmlNode] = []
            for node in nodes:
                texts.extend(child for child in node.children
                             if child.kind == NodeKind.TEXT)
            nodes = texts
        if self.residual_predicates and nodes:
            if evaluator is None:
                evaluator = XPathEvaluator(document)
            nodes = [node for node in nodes
                     if evaluator.passes_predicates(node, self.residual_predicates)]
        return nodes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        mode = (f"summary pattern={self.pattern.to_text()!r}" if self.pattern
                else f"fallback ({self.fallback_reason})")
        return f"<CompiledXPath {self.source!r} {mode}>"


def steps_summary_safe(steps: Sequence[PatternStep]) -> bool:
    """Can these pattern steps be answered from the summary exactly?

    The interpreter treats a ``//x`` location step as *descendant-or-
    self* of the context nodes, while pattern matching requires at least
    one further label.  The two disagree only when a context node
    produced by the previous step can itself satisfy the descendant
    step's node test -- i.e. when an element-test ``//`` step follows an
    element step whose labels overlap (equal names, or either side a
    wildcard).  Such shapes (``/a//a``, ``//site//*``) are left to the
    interpreter.
    """
    for index in range(1, len(steps)):
        step = steps[index]
        if not step.descendant or step.is_attribute:
            continue
        previous = steps[index - 1]
        if previous.is_attribute:
            continue  # element test below an attribute: both match nothing
        if (previous.label == "*" or step.label == "*"
                or previous.label == step.label):
            return False
    return True


@lru_cache(maxsize=CACHE_SIZE)
def pattern_summary_safe(pattern: PathPattern) -> bool:
    """Memoized :func:`steps_summary_safe` for index patterns."""
    return steps_summary_safe(pattern.steps)


def compile_location_path(source: str, path: LocationPath) -> CompiledXPath:
    """Lower ``path`` to a summary lookup, or record why it cannot be."""

    def fallback(reason: str) -> CompiledXPath:
        return CompiledXPath(source, path, fallback_reason=reason)

    if path.variable is not None:
        return fallback("variable-relative path")
    if not path.absolute:
        return fallback("relative path")
    if not path.steps:
        return fallback("document root path")

    pattern_steps: List[PatternStep] = []
    residual: Tuple[Predicate, ...] = ()
    text_tail = False
    last_index = len(path.steps) - 1
    for index, step in enumerate(path.steps):
        if step.predicates:
            if index != last_index:
                return fallback("predicate on inner step")
            residual = tuple(step.predicates)
        if step.is_text:
            if index != last_index:
                return fallback("text() on inner step")
            if step.axis is not Axis.CHILD:
                return fallback("descendant text() step")
            if not pattern_steps:
                return fallback("text() of the document root")
            text_tail = True
            continue
        descendant = step.axis is Axis.DESCENDANT_OR_SELF
        if step.axis is Axis.ATTRIBUTE or step.node_test.startswith("@"):
            name = step.node_test.lstrip("@")
            label = "@*" if name == "*" else "@" + name
        else:
            label = step.node_test
        pattern_steps.append(PatternStep(label=label, descendant=descendant))
    if not pattern_steps:
        return fallback("no structural steps")
    if not steps_summary_safe(pattern_steps):
        # The summary cannot answer this spine, but the columnar store
        # can: its pattern matching has the interpreter's exact
        # descendant-or-self semantics.
        return CompiledXPath(
            source, path,
            columnar_pattern=PathPattern(steps=tuple(pattern_steps)),
            residual_predicates=residual, text_tail=text_tail,
            fallback_reason="descendant step may match its own context")
    return CompiledXPath(source, path,
                         pattern=PathPattern(steps=tuple(pattern_steps)),
                         residual_predicates=residual, text_tail=text_tail)


@lru_cache(maxsize=CACHE_SIZE)
def compile_xpath(expression: str) -> CompiledXPath:
    """Parse and compile ``expression`` (memoized by source text)."""
    parsed = parse_xpath_cached(expression)
    if not isinstance(parsed, LocationPath):
        return CompiledXPath(expression, parsed,
                             fallback_reason="not a location path")
    return compile_location_path(expression, parsed)


@lru_cache(maxsize=CACHE_SIZE)
def compile_pattern(pattern: PathPattern) -> CompiledXPath:
    """Compile an index pattern for execution (memoized by pattern).

    Index patterns are already linear and predicate-free, so the only
    question is whether their ``//`` shape is summary-safe; unsafe
    patterns stay columnar-backed (exact descendant-or-self matching)
    and only reach the interpreter, over the pattern's XPath rendering,
    when no columnar store is available.  This is the entry point the
    executor uses for
    the patterns carried by normalized query predicates and extraction
    paths.
    """
    source = pattern.to_text()
    if steps_summary_safe(pattern.steps):
        return CompiledXPath(source, parse_xpath_cached(source),
                             pattern=pattern)
    return CompiledXPath(source, parse_xpath_cached(source),
                         columnar_pattern=pattern,
                         fallback_reason="descendant step may match its own context")


def compiler_cache_info() -> dict:
    """Hit/miss statistics of the parse/compile LRUs (for diagnostics)."""
    return {"parse": parse_xpath_cached.cache_info(),
            "compile": compile_xpath.cache_info(),
            "compile_pattern": compile_pattern.cache_info(),
            "pattern_safe": pattern_summary_safe.cache_info()}


def clear_compiler_caches() -> None:
    """Reset the parse/compile LRUs (tests and long-lived processes)."""
    parse_xpath_cached.cache_clear()
    compile_xpath.cache_clear()
    compile_pattern.cache_clear()
    pattern_summary_safe.cache_clear()
