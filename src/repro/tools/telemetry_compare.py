"""Telemetry overhead comparison (shared E15 protocol).

One implementation of the tracing-overhead measurement used by the E15
benchmark entry in ``tools/bench_record.py`` and the tier-1
``bench_smoke`` guard, so the protocol cannot silently diverge between
the guard and the recorded numbers.

Protocol: the co-resident XMark+TPoX database runs a predicate-heavy
workload through two executors sharing the database:

* the **untraced** executor (``trace=False``) runs with the metrics
  registry armed (counters are never optional) but builds no span
  trees and records no cost-accounting samples;
* the **traced** executor (``trace=True``) additionally builds the
  full per-query span tree (parse -> compile -> plan -> route ->
  scan/index-probe -> residual -> extract) and pairs every planned
  query's predicted cost with its measured wall time.

Wall-clock is best-of-``repeats`` per mode; equivalence is byte-exact
per query (result counts, documents examined and the extracted value
streams), pinning the observe-only contract: tracing must never change
what a query returns.  The overhead ratio (traced / untraced) is the
number ``REPRO_SMOKE_MAX_TELEMETRY_OVERHEAD`` gates in CI.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.executor.executor import QueryExecutor
from repro.telemetry import wall_clock
from repro.tools.routing_compare import build_coresident_database
from repro.xquery.model import NormalizedQuery
from repro.xquery.normalizer import normalize_statement

#: The predicate-heavy workload: every statement carries at least one
#: value comparison (equality and range, element text and attributes,
#: float and string literals, plus conjunctions), spread over the XMark
#: collection and all three TPoX collections.
PREDICATE_QUERIES: Tuple[str, ...] = (
    # XMark: numeric ranges over items, auctions and people.
    'for $i in doc("x")/site/regions/africa/item '
    'where $i/quantity > 7 return $i/name',
    'for $i in doc("x")/site/regions/namerica/item '
    'where $i/price >= 350 return $i/name',
    'for $i in doc("x")/site/regions/africa/item '
    'where $i/payment = "Creditcard" return $i/name',
    'for $p in doc("x")/site/people/person '
    'where $p/profile/@income > 200000 return $p/name',
    'for $p in doc("x")/site/people/person '
    'where $p/profile/age >= 80 return $p/name',
    'for $p in doc("x")/site/people/person '
    'where $p/address/city = "Cairo" return $p/name',
    'for $a in doc("x")/site/open_auctions/auction '
    'where $a/current > 250 return $a/itemref',
    'for $c in doc("x")/site/closed_auctions/auction '
    'where $c/price >= 400 return $c/price',
    'for $i in doc("x")/site/regions/africa/item '
    'where $i/quantity > 5 and $i/payment = "Creditcard" return $i/name',
    # TPoX: orders, securities and customer accounts.
    'for $o in doc("order.xml")/FIXML/Order '
    'where $o/OrdQty/@Qty > 4500 return $o/Instrmt',
    'for $s in doc("security.xml")/Security '
    'where $s/Price/LastTrade > 800 return $s/Symbol',
    'for $s in doc("security.xml")/Security '
    'where $s/Sector = "Technology" and $s/SecurityInformation/Yield > 7 '
    'return $s/Name',
    'for $c in doc("custacc.xml")/Customer '
    'where $c/Accounts/Account/@balance > 1800000 return $c/Name/LastName',
    'for $c in doc("custacc.xml")/Customer '
    'where $c/CountryOfResidence = "DE" and $c/PremiumCustomer = "true" '
    'return $c/Name/LastName',
)


@dataclass
class TelemetryComparison:
    """Outcome of one traced-vs-untraced comparison run."""

    documents: int
    untraced_seconds: float
    traced_seconds: float
    queries_total: int
    result_rows: int
    #: Spans in the trace trees of the last traced run (one tree per
    #: query; deterministic for a fixed workload and database).
    spans_recorded: int
    #: Predicted-vs-measured cost samples the traced executor paired.
    cost_samples: int
    #: Per-query result counts, documents examined and extracted value
    #: streams identical between the two modes (the observe-only gate).
    identical_results: bool

    @property
    def overhead_ratio(self) -> float:
        """Wall-clock cost of tracing (lower is better; 1.0 = free)."""
        return self.traced_seconds / max(self.untraced_seconds, 1e-9)


def predicate_workload() -> List[NormalizedQuery]:
    """The normalized predicate-heavy query list."""
    return [normalize_statement(text) for text in PREDICATE_QUERIES]


def _run_queries(executor: QueryExecutor,
                 queries: Sequence[NormalizedQuery]) -> list:
    return [executor.execute(query, extract_values=True)
            for query in queries]


def _result_signature(results) -> list:
    return [(result.result_count, result.documents_examined,
             tuple(result.extracted_values or ()))
            for result in results]


def compare_telemetry_modes(scale: float = 0.25, seed: int = 42,
                            repeats: int = 3) -> TelemetryComparison:
    """Run the full traced-vs-untraced comparison at ``scale``.

    The scale is floored at 0.25: tracing costs a fixed handful of
    microseconds per query, so measuring it against sub-0.1ms toy
    queries reports an overhead no real workload would see.
    """
    database = build_coresident_database(scale=max(scale, 0.25), seed=seed,
                                         name="telemetry")
    queries = predicate_workload()

    # Tracing pinned explicitly per executor (not inherited from
    # REPRO_TRACE) so the comparison measures both modes regardless of
    # how the environment armed the session.
    untraced = QueryExecutor(database, trace=False)
    traced = QueryExecutor(database, trace=True)
    # Publish the lazy snapshots (columnar stores, value projections)
    # outside the timed region: both modes measure steady-state
    # execution, not builds.
    untraced_results = _run_queries(untraced, queries)
    traced_results = _run_queries(traced, queries)

    untraced_best = traced_best = float("inf")
    for _ in range(repeats):
        start = wall_clock()
        untraced_results = _run_queries(untraced, queries)
        untraced_best = min(untraced_best, wall_clock() - start)
        start = wall_clock()
        traced_results = _run_queries(traced, queries)
        traced_best = min(traced_best, wall_clock() - start)

    identical = (_result_signature(untraced_results)
                 == _result_signature(traced_results))
    spans = sum(len(list(result.trace.walk())) for result in traced_results
                if result.trace is not None)
    return TelemetryComparison(
        documents=database.statistics.document_count,
        untraced_seconds=untraced_best,
        traced_seconds=traced_best,
        queries_total=len(queries),
        result_rows=sum(r.result_count for r in untraced_results),
        spans_recorded=spans,
        cost_samples=len(traced.cost_accounting.samples),
        identical_results=identical)
