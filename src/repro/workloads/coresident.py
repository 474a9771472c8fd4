"""XMark and TPoX co-resident in one database, with their merged workload.

Queries rooted in one benchmark's collections then have substantial
unrelated data to be routed past, which is what the collection-scoped
cost model and the executor's routing are about.
"""

from __future__ import annotations

from repro.storage.document_store import XmlDatabase
from repro.workloads.tpox import TpoxConfig, generate_tpox_database, tpox_query_workload
from repro.workloads.xmark import XMarkConfig, generate_xmark_database, xmark_query_workload
from repro.xmldb.serializer import serialize
from repro.xquery.model import Workload, WorkloadStatement

#: The TPoX side is this many times the XMark scale.
BALLAST_FACTOR = 4.0


def build_coresident_database(scale: float = 0.25, seed: int = 42,
                              ballast_factor: float = BALLAST_FACTOR,
                              name: str = "coresident") -> XmlDatabase:
    """One database hosting XMark (collection ``xmark``) and TPoX
    (``order``, ``security``, ``custacc``) side by side.

    The XMark collection is generated at ``scale``; the three TPoX
    collections at ``scale * ballast_factor``.
    """
    database = XmlDatabase(name)
    sources = (
        generate_xmark_database(XMarkConfig(scale=scale, seed=seed)),
        generate_tpox_database(
            TpoxConfig(scale=scale * ballast_factor, seed=seed + 1)),
    )
    for source in sources:
        for collection in source.collections:
            target = database.create_collection(collection.name)
            for document in collection:
                target.add_document(serialize(document))
    return database


def combined_workload(name: str = "coresident") -> Workload:
    """The XMark and TPoX query workloads merged (reads only)."""
    workload = Workload(name=name)
    for statement in list(xmark_query_workload()) + list(tpox_query_workload()):
        workload.add(WorkloadStatement(text=statement.text,
                                       frequency=statement.frequency))
    return workload
