"""Shared pytest fixtures.

The module also adds ``src/`` to ``sys.path`` so the tests run even when
the package has not been pip-installed (useful on machines where
editable installs are unavailable).
"""

from __future__ import annotations

import os
import sys

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

import pytest

from repro.storage import XmlDatabase


from repro.workloads import (
    TpoxConfig,
    XMarkConfig,
    generate_tpox_database,
    generate_xmark_database,
    tpox_workload,
    xmark_query_workload,
)
from repro.xquery.model import Workload

from _support import TINY_SITE_XML, build_varied_database

__all__ = ["TINY_SITE_XML", "build_varied_database"]


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "bench_smoke: env-capped benchmark smoke checks (perf regressions in "
        "the columnar scan engine); deselect with -m 'not bench_smoke'")


@pytest.fixture
def tiny_document():
    """A freshly parsed tiny <site> document."""
    from repro.xmldb import parse_document

    return parse_document(TINY_SITE_XML)


@pytest.fixture
def tiny_database(tiny_document):
    """A database holding three copies of the tiny document (distinct ids)."""
    from repro.xmldb import parse_document

    database = XmlDatabase("tiny")
    for _ in range(3):
        database.add_document("site", parse_document(TINY_SITE_XML))
    return database




@pytest.fixture(scope="module")
def varied_database():
    """Module-scoped varied database (see :func:`build_varied_database`)."""
    return build_varied_database()


@pytest.fixture(scope="session")
def xmark_database():
    """A session-scoped XMark-style database (small scale, fixed seed)."""
    return generate_xmark_database(XMarkConfig(scale=0.05, seed=42))


@pytest.fixture(scope="session")
def xmark_workload():
    return xmark_query_workload()


@pytest.fixture(scope="session")
def tpox_database():
    # Scale 0.25 (was 0.05): with the collection-scoped cost model a
    # query is no longer charged for scanning the other two TPoX
    # collections, so the per-collection data must be large enough that
    # selective indexes still beat the (now much cheaper) routed scans.
    return generate_tpox_database(TpoxConfig(scale=0.25, seed=7))


@pytest.fixture(scope="session")
def tpox_mixed_workload():
    return tpox_workload(update_ratio=0.3)


@pytest.fixture
def tiny_workload():
    """A small mixed workload against the tiny <site> schema."""
    workload = Workload(name="tiny")
    workload.add('for $i in doc("site.xml")/site/regions/africa/item '
                 'where $i/quantity > 5 return $i/name', frequency=3.0)
    workload.add('for $i in doc("site.xml")/site/regions/namerica/item '
                 'where $i/price > 400 return $i/name', frequency=2.0)
    workload.add('for $p in doc("site.xml")/site/people/person '
                 'where $p/profile/age > 60 return $p/name', frequency=1.0)
    workload.add('SELECT 1 FROM site WHERE XMLEXISTS('
                 '\'$d/site/people/person[profile/@income > 90000]\' '
                 'PASSING doc AS "d")', frequency=1.0)
    return workload
