"""Size estimation for (virtual) XML path indexes.

The advisor's configuration search is a knapsack over index sizes, and
the candidate indexes are virtual -- they do not exist, so their sizes
must be *estimated* from the path statistics, exactly as DB2's design
advisor estimates relational index sizes from column statistics.

The model: the number of entries of an index with pattern ``P`` equals
the number of nodes matched by ``P`` (every matching node contributes
one key); each entry stores the key value (average value width for
VARCHAR, 8 bytes for DOUBLE) plus a record id and slot overhead; entries
are packed into pages at a B-tree fill factor.
"""

from __future__ import annotations

from repro.index.definition import IndexDefinition
from repro.storage import pages
from repro.storage.statistics import DatabaseStatistics
from repro.xquery.model import ValueType

#: VARCHAR keys are truncated at this many bytes (mirrors AS SQL VARCHAR(64)).
MAX_VARCHAR_KEY_BYTES = 64.0


def estimate_entry_count(index: IndexDefinition,
                         statistics: DatabaseStatistics) -> int:
    """Number of entries the index would contain.

    DOUBLE indexes only contain nodes whose values cast to a number; we
    approximate that with the per-path numeric counts.
    """
    matched_paths = statistics.paths_matching(index.pattern)
    if index.value_type is ValueType.DOUBLE:
        return sum(statistics.path_stats[p].numeric_count for p in matched_paths)
    return sum(statistics.path_stats[p].node_count for p in matched_paths)


def estimate_key_width(index: IndexDefinition,
                       statistics: DatabaseStatistics) -> float:
    """Average key width in bytes for the index."""
    if index.value_type is ValueType.DOUBLE:
        return float(pages.DOUBLE_KEY_BYTES)
    width = statistics.average_key_width(index.pattern)
    return min(MAX_VARCHAR_KEY_BYTES, max(1.0, width))


def estimate_index_size_bytes(index: IndexDefinition,
                              statistics: DatabaseStatistics) -> float:
    """Estimated on-disk size of the index, in bytes.

    Memoized by index key on ``statistics.size_cache``: the estimate
    depends only on (pattern, value type) and the synopsis, and
    statistics objects are rebuilt rather than mutated when documents
    change, so the memo can never go stale.
    """
    cached = statistics.size_cache.get(index.key)
    if cached is not None:
        return cached
    entries = estimate_entry_count(index, statistics)
    if entries == 0:
        # An index that would contain nothing still costs one page of
        # metadata once created.
        size = float(pages.PAGE_SIZE_BYTES)
    else:
        key_width = estimate_key_width(index, statistics)
        size = pages.index_size_bytes(entries, key_width)
    statistics.size_cache[index.key] = size
    return size


def estimate_index_pages(index: IndexDefinition,
                         statistics: DatabaseStatistics) -> int:
    """Estimated on-disk size of the index, in pages."""
    return pages.bytes_to_pages(estimate_index_size_bytes(index, statistics))


def carry_over_size_estimates(old_statistics: DatabaseStatistics,
                              new_statistics: DatabaseStatistics,
                              is_key_stale) -> int:
    """Seed a fresh statistics object's size memo from its predecessor.

    Statistics snapshots are rebuilt (never mutated) on data change, so
    their size memos start empty.  An index's size estimate depends only
    on the per-path stats its pattern matches -- not on the database
    aggregates -- so every memoized size whose pattern the change did
    not touch (``is_key_stale(key)`` False, see
    :meth:`repro.storage.maintenance.DataChange.affects_index_key`) is
    still exact and can be copied over.  Returns the number of entries
    carried.
    """
    carried = 0
    for key, size in old_statistics.size_cache.items():
        if key not in new_statistics.size_cache and not is_key_stale(key):
            new_statistics.size_cache[key] = size
            carried += 1
    return carried
