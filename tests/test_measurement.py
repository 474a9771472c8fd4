"""Tests for workload-level execution measurement
(:mod:`repro.executor.measurement`).

The online tuning monitor builds on the executor's measured cost
proxies, so the measurement semantics are locked in here: which runs
:func:`measure_workload` / :func:`measure_scan_modes` perform, what the
aggregates count, that updates are filtered out, and that the catalog is
always left as it was found.
"""

from __future__ import annotations

import pytest

from repro.executor.measurement import measure_scan_modes, measure_workload
from repro.index.definition import IndexConfiguration, IndexDefinition
from repro.xquery.model import ValueType, Workload
from repro.xquery.normalizer import normalize_workload


@pytest.fixture()
def site_workload():
    workload = Workload(name="measure")
    workload.add('for $i in doc("site.xml")/site/regions/africa/item '
                 'where $i/quantity > 5 return $i/name', frequency=3.0)
    workload.add('for $p in doc("site.xml")/site/people/person '
                 'where $p/profile/age > 60 return $p/name')
    return workload


@pytest.fixture()
def varied_workload():
    """A selective workload against the varied database, where an index
    plan genuinely beats the scan."""
    workload = Workload(name="measure-varied")
    workload.add('for $i in doc("site.xml")/site/regions/africa/item '
                 'where $i/quantity > 95 return $i/name', frequency=3.0)
    workload.add('for $p in doc("site.xml")/site/people/person '
                 'where $p/profile/age > 60 return $p/name')
    return workload


@pytest.fixture()
def site_configuration():
    return IndexConfiguration([
        IndexDefinition.create("/site/regions/africa/item/quantity",
                               ValueType.DOUBLE),
    ])


def test_measure_workload_baseline_only(tiny_database, site_workload):
    """Without a configuration only the no-indexes run happens."""
    measurements = measure_workload(tiny_database, site_workload)
    assert set(measurements) == {"no-indexes"}
    baseline = measurements["no-indexes"]
    assert baseline.label == "no-indexes"
    assert baseline.query_count == len(site_workload)
    # A scan examines every document per query; no index is touched.
    assert baseline.documents_examined == \
        len(site_workload) * sum(len(c) for c in tiny_database.collections)
    assert baseline.index_entries_scanned == 0
    assert baseline.queries_using_indexes == 0


def test_measure_workload_with_configuration(varied_database, varied_workload,
                                             site_configuration):
    measurements = measure_workload(varied_database, varied_workload,
                                    site_configuration)
    assert set(measurements) == {"no-indexes", "recommended"}
    baseline, indexed = measurements["no-indexes"], measurements["recommended"]
    # Result identity between the runs, per query and in order.
    assert [r.query_id for r in baseline.per_query] == \
        [r.query_id for r in indexed.per_query]
    for base_row, indexed_row in zip(baseline.per_query, indexed.per_query):
        assert base_row.result_count == indexed_row.result_count
    # The indexed run actually used the configuration for the covered
    # query, and did strictly less document work.
    assert indexed.queries_using_indexes == 1
    assert indexed.index_entries_scanned > 0
    assert indexed.documents_examined < baseline.documents_examined
    # Aggregates are the sums of the per-query rows.
    assert indexed.documents_examined == \
        sum(r.documents_examined for r in indexed.per_query)
    assert indexed.index_entries_scanned == \
        sum(r.index_entries_scanned for r in indexed.per_query)


def test_measure_workload_leaves_catalog_clean(varied_database,
                                               varied_workload,
                                               site_configuration):
    """Repeated measurements must start from a clean slate: no physical
    index definitions survive the call."""
    assert varied_database.catalog.physical_indexes == []
    measure_workload(varied_database, varied_workload, site_configuration)
    assert varied_database.catalog.physical_indexes == []
    # And a second run is unaffected by the first.
    again = measure_workload(varied_database, varied_workload,
                             site_configuration)
    assert again["recommended"].queries_using_indexes == 1


def test_measure_workload_filters_updates(tiny_database, site_workload):
    site_workload.add("INSERT INTO site VALUES "
                      "('<site><regions/></site>')")
    measurements = measure_workload(tiny_database, site_workload)
    assert measurements["no-indexes"].query_count == 2


def test_measure_workload_accepts_normalized_queries(tiny_database,
                                                     site_workload):
    queries = normalize_workload(site_workload)
    from_workload = measure_workload(tiny_database, site_workload)
    from_queries = measure_workload(tiny_database, queries)
    assert [r.result_count for r in from_workload["no-indexes"].per_query] \
        == [r.result_count for r in from_queries["no-indexes"].per_query]


def test_measure_scan_modes_equivalent_counts(tiny_database, site_workload):
    """The interpreter and the columnar engine must agree on every
    per-query result count; neither touches an index."""
    measurements = measure_scan_modes(tiny_database, site_workload)
    assert set(measurements) == {"scan-interpretive", "scan-engine"}
    interpretive = measurements["scan-interpretive"]
    engine = measurements["scan-engine"]
    assert interpretive.query_count == engine.query_count == 2
    for interp_row, engine_row in zip(interpretive.per_query,
                                      engine.per_query):
        assert interp_row.result_count == engine_row.result_count
        assert not interp_row.used_index_plan
        assert not engine_row.used_index_plan
    assert interpretive.index_entries_scanned == 0
    assert engine.index_entries_scanned == 0


def test_measurement_describe_mentions_the_label(tiny_database, site_workload):
    measurements = measure_workload(tiny_database, site_workload)
    description = measurements["no-indexes"].describe()
    assert description.startswith("no-indexes:")
    assert "2 queries" in description
