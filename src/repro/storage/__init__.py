"""Storage engine substrate: documents, statistics, catalog, pages.

This package stands in for DB2's pureXML storage layer.  It provides:

* :class:`~repro.storage.document_store.XmlCollection` and
  :class:`~repro.storage.document_store.XmlDatabase` -- named collections
  of XML documents (the analogue of tables with an XML column);
* :class:`~repro.storage.columnar.ColumnarStore` -- the one structural
  representation of a collection: one O(nodes) pass lays its documents
  out as pre/post columns with per-path postings.  Query execution,
  physical index materialization and statistics collection all read it
  instead of re-walking the node trees;
* :class:`~repro.storage.statistics.DatabaseStatistics` -- the per-path
  synopsis (cardinalities, distinct values, value ranges, key widths)
  that RUNSTATS would gather and that both the optimizer's cost model and
  the advisor's index-size estimation read.  It is derived from the
  columnar store and maintained alongside it on document add/remove;
* :class:`~repro.storage.catalog.Catalog` -- the system catalog holding
  physical and *virtual* index definitions.  Virtual indexes are the
  paper's central mechanism: they exist only in the catalog so the
  optimizer can enumerate and cost hypothetical configurations;
* :mod:`repro.storage.maintenance` -- delta-propagation maintenance:
  document change captured as per-path node-group deltas that the
  columnar store, the statistics accumulator, physical indexes and the
  optimizer/advisor invalidation layers consume instead of tearing
  derived state down (see the module docstring for the contract);
* :mod:`repro.storage.pages` -- page-size accounting shared by the cost
  model and the size estimator.
"""

from repro.storage.catalog import Catalog, CatalogError
from repro.storage.document_store import StorageError, XmlCollection, XmlDatabase
from repro.storage.maintenance import (
    CollectionDelta,
    DataChange,
    DataChangeTracker,
    DeltaLog,
    DocumentDelta,
    compute_document_delta,
)
from repro.storage.pages import PAGE_SIZE_BYTES, bytes_to_pages, pages_to_bytes
from repro.storage.statistics import (
    DatabaseStatistics,
    PathStatistics,
    StatisticsAccumulator,
    collect_statistics,
)

__all__ = [
    "Catalog",
    "CatalogError",
    "CollectionDelta",
    "DataChange",
    "DataChangeTracker",
    "DatabaseStatistics",
    "DeltaLog",
    "DocumentDelta",
    "PAGE_SIZE_BYTES",
    "PathStatistics",
    "StatisticsAccumulator",
    "StorageError",
    "XmlCollection",
    "XmlDatabase",
    "bytes_to_pages",
    "collect_statistics",
    "compute_document_delta",
    "pages_to_bytes",
]
