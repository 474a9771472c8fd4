"""Benchmark workloads: XMark- and TPoX-style data and query generators.

The paper's demonstration "uses XQuery and SQL/XML queries on XML data
from standard benchmarks such as XMark and TPoX.  The workloads used
consist of the standard benchmark queries augmented with synthetic
queries."  Neither benchmark's original data generator is available
offline, so this package re-implements generators that produce documents
with the same schema shape, value skew, and path diversity:

* :mod:`repro.workloads.xmark` -- auction-site documents (regions /
  items, people / profiles, open and closed auctions, categories) plus a
  20-query XQuery workload modeled on XMark's queries and the demo's
  synthetic additions, and a held-out "unseen" query set for the
  generalization experiments.
* :mod:`repro.workloads.tpox` -- FIXML-style order documents, securities
  and customer accounts, plus a SQL/XML + XQuery transaction-processing
  query mix and an update workload (inserts / deletes / value replaces)
  for the update-cost experiments.
* :mod:`repro.workloads.coresident` -- XMark and TPoX loaded side by
  side into one database, with their merged read workload (the routing
  and telemetry comparisons).
* :mod:`repro.workloads.synthetic` -- random path workloads over an
  arbitrary database, used by the scalability benchmarks.
* :mod:`repro.workloads.loader` -- convenience builders that return
  ``(database, workload)`` pairs by name for the examples, benchmarks
  and the CLI.
"""

from repro.workloads.coresident import build_coresident_database, combined_workload
from repro.workloads.loader import build_scenario, list_scenarios
from repro.workloads.synthetic import SyntheticWorkloadGenerator
from repro.workloads.tpox import (
    TpoxConfig,
    generate_tpox_database,
    tpox_query_workload,
    tpox_update_statements,
    tpox_workload,
)
from repro.workloads.xmark import (
    XMarkConfig,
    generate_xmark_database,
    xmark_query_workload,
    xmark_unseen_queries,
)

__all__ = [
    "SyntheticWorkloadGenerator",
    "TpoxConfig",
    "XMarkConfig",
    "build_coresident_database",
    "build_scenario",
    "combined_workload",
    "generate_tpox_database",
    "generate_xmark_database",
    "list_scenarios",
    "tpox_query_workload",
    "tpox_update_statements",
    "tpox_workload",
    "xmark_query_workload",
    "xmark_unseen_queries",
]
