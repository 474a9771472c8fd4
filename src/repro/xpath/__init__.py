"""XPath subset engine and XML index-pattern algebra.

Two distinct but related artifacts live here:

* :mod:`repro.xpath.ast`, :mod:`repro.xpath.parser`,
  :mod:`repro.xpath.evaluator` -- a parser and evaluator for the XPath
  subset used by the workloads (child / descendant / attribute axes,
  wildcards, positional-free predicates with comparisons and a few
  functions).  The evaluator is the executor's reference and its
  degraded mode: it answers queries per document wherever a
  collection's columnar store is not available.

* :mod:`repro.xpath.patterns` -- *index patterns*: linear paths such as
  ``/site/regions/*/item/quantity`` or ``//keyword`` that define which
  nodes a partial XML index contains (DB2's ``XMLPATTERN``).  The
  pattern algebra (matching concrete paths, containment between
  patterns, generalization) is what the optimizer's index matching and
  the advisor's candidate generalization are built on.
"""

from repro.xpath.ast import (
    Axis,
    BinaryOp,
    ComparisonExpr,
    FunctionCall,
    Literal,
    LocationPath,
    PathExpr,
    Predicate,
    Step,
)
from repro.xpath.errors import XPathError, XPathParseError, XPathTypeError
from repro.xpath.evaluator import XPathEvaluator, evaluate_path
from repro.xpath.parser import parse_xpath
from repro.xpath.patterns import (
    PathPattern,
    PatternStep,
    generalize_pair,
    generalize_tail,
    pattern_contains,
)

__all__ = [
    "Axis",
    "BinaryOp",
    "ComparisonExpr",
    "FunctionCall",
    "Literal",
    "LocationPath",
    "PathExpr",
    "PathPattern",
    "PatternStep",
    "Predicate",
    "Step",
    "XPathError",
    "XPathEvaluator",
    "XPathParseError",
    "XPathTypeError",
    "evaluate_path",
    "generalize_pair",
    "generalize_tail",
    "parse_xpath",
    "pattern_contains",
]
