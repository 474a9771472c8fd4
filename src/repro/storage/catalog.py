"""The system catalog: physical and virtual index definitions.

The paper's key mechanism is that the optimizer can be asked to plan
with *virtual* indexes -- index definitions that exist in the catalog
and in the optimizer's data structures but have no physical data.  The
catalog therefore keeps two sets of definitions:

* **physical indexes**, created with
  :meth:`Catalog.add_index` and materialized by the executor;
* **virtual indexes**, installed temporarily for one optimizer call
  (Evaluate Indexes mode) or permanently for candidate enumeration
  (the ``//*`` universal index of Enumerate Indexes mode).

The :class:`VirtualConfiguration` context manager mirrors how the
client-side advisor brackets each Evaluate Indexes call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import only for type checkers
    from repro.index.definition import IndexDefinition


class CatalogError(Exception):
    """Raised on invalid catalog operations (duplicate names, unknown indexes)."""


#: A database data signature: sorted (collection name, version) pairs.
DataSignature = Tuple[Tuple[str, int], ...]

#: An index definition's identity: (pattern text, value type name).
IndexKey = Tuple[str, str]


@dataclass(frozen=True)
class PendingBuild:
    """A build the tuning loop still owes: deferred past a budget or
    parked after a rolled-back plan.  Recorded in the catalog so a fresh
    controller on the same database resumes it (restart-idempotent)."""

    definition: "IndexDefinition"
    size_bytes: float
    reason: str = ""

    @property
    def key(self) -> IndexKey:
        return self.definition.key


@dataclass(frozen=True)
class BuildFailureRecord:
    """One definition's build-failure history, for bounded retry."""

    definition: "IndexDefinition"
    attempts: int
    #: Logical monitor step before which the build must not be retried.
    next_retry_step: int
    last_error: str = ""

    @property
    def key(self) -> IndexKey:
        return self.definition.key


@dataclass(frozen=True)
class ConfigurationProvenance:
    """Where the live physical configuration came from.

    Recorded by the online tuning controller whenever it (re-)advises,
    so any consumer -- the drift detector above all -- can ask "which
    workload and which data state was this configuration chosen for?"
    without the controller having to stay alive.  The catalog treats the
    workload snapshot as opaque (it is a
    :class:`repro.tuning.monitor.WorkloadSnapshot`; the storage layer
    must not depend on the tuning layer).
    """

    #: Keys of the index definitions the advising pass recommended.
    index_keys: Tuple[Tuple[str, str], ...]
    #: Database signature at advising time.
    data_signature: DataSignature
    #: The monitor step the advised-on workload snapshot was taken at.
    advised_step: int
    #: The advised-on workload snapshot (opaque to the catalog).
    workload_snapshot: object = None


class Catalog:
    """Holds index definitions and answers applicability queries.

    The catalog also tracks *physical-structure staleness*: for every
    materialized physical index, the data signature its structure was
    last maintained to (:meth:`mark_index_maintained`).  The executor
    records a signature after each build or delta catch-up, so any
    consumer can ask which structures lag the current database state
    (:meth:`stale_physical_indexes`) without touching the structures
    themselves.
    """

    def __init__(self) -> None:
        self._physical: Dict[str, IndexDefinition] = {}
        self._virtual: Dict[str, IndexDefinition] = {}
        self._maintained_signatures: Dict[str, DataSignature] = {}
        self._provenance: Optional[ConfigurationProvenance] = None
        # Failure-containment state (durable: lives with the database,
        # not with any controller or executor instance).
        self._pending_builds: Dict[IndexKey, PendingBuild] = {}
        self._build_failures: Dict[IndexKey, BuildFailureRecord] = {}
        self._quarantined: Dict[IndexKey, str] = {}
        self._unusable: Dict[str, str] = {}

    # ------------------------------------------------------------------
    # Configuration provenance
    # ------------------------------------------------------------------
    def record_configuration_provenance(
            self, provenance: Optional[ConfigurationProvenance]) -> None:
        """Remember which workload snapshot / data state the current
        physical configuration was advised on (online tuning);
        ``None`` clears the record."""
        self._provenance = provenance

    @property
    def configuration_provenance(self) -> Optional[ConfigurationProvenance]:
        """The last recorded advising provenance, or ``None`` when the
        configuration was never produced by an advising pass."""
        return self._provenance

    # ------------------------------------------------------------------
    # Physical indexes
    # ------------------------------------------------------------------
    def add_index(self, definition: IndexDefinition) -> IndexDefinition:
        """Register a physical index definition."""
        if definition.name in self._physical:
            raise CatalogError(f"index {definition.name!r} already exists")
        if definition.is_virtual:
            raise CatalogError(
                f"index {definition.name!r} is virtual; use add_virtual_index()")
        self._physical[definition.name] = definition
        return definition

    def drop_index(self, name: str) -> None:
        if name not in self._physical:
            raise CatalogError(f"unknown index {name!r}")
        del self._physical[name]
        self._maintained_signatures.pop(name, None)
        self._unusable.pop(name, None)

    # ------------------------------------------------------------------
    # Physical-structure staleness
    # ------------------------------------------------------------------
    def mark_index_maintained(self, name: str, signature: DataSignature) -> None:
        """Record that ``name``'s physical structure reflects ``signature``."""
        if name not in self._physical:
            raise CatalogError(f"unknown index {name!r}")
        self._maintained_signatures[name] = signature

    def index_maintained_signature(self, name: str) -> Optional[DataSignature]:
        """The signature ``name`` was last maintained to, or ``None`` when
        its structure has never been built/maintained."""
        return self._maintained_signatures.get(name)

    def stale_physical_indexes(self, signature: DataSignature) -> List[str]:
        """Names of physical indexes whose structures lag ``signature``."""
        return [name for name in self._physical
                if self._maintained_signatures.get(name) != signature]

    def has_index(self, name: str) -> bool:
        return name in self._physical or name in self._virtual

    def index(self, name: str) -> IndexDefinition:
        if name in self._physical:
            return self._physical[name]
        if name in self._virtual:
            return self._virtual[name]
        raise CatalogError(f"unknown index {name!r}")

    @property
    def physical_indexes(self) -> List[IndexDefinition]:
        return list(self._physical.values())

    # ------------------------------------------------------------------
    # Degraded-mode state (unusable physical structures)
    # ------------------------------------------------------------------
    def mark_index_unusable(self, name: str, reason: str) -> None:
        """Record that ``name``'s physical structure cannot be served
        (probe raised, journal catch-up and rebuild both failed).  The
        executor plans around unusable indexes via document scans
        until :meth:`clear_index_unusable` (a successful repair)."""
        if name not in self._physical:
            raise CatalogError(f"unknown index {name!r}")
        self._unusable[name] = reason
        self._maintained_signatures.pop(name, None)

    def clear_index_unusable(self, name: str) -> None:
        self._unusable.pop(name, None)

    def index_usable(self, name: str) -> bool:
        return name not in self._unusable

    @property
    def unusable_indexes(self) -> Dict[str, str]:
        """Unusable physical index names mapped to their reasons."""
        return dict(self._unusable)

    @property
    def usable_physical_indexes(self) -> List[IndexDefinition]:
        """Physical indexes the optimizer may plan with."""
        return [definition for name, definition in self._physical.items()
                if name not in self._unusable]

    # ------------------------------------------------------------------
    # Durable tuning state (pending builds, failures, quarantine)
    # ------------------------------------------------------------------
    def record_pending_builds(self, pending: Iterable[PendingBuild]) -> None:
        """Replace the set of builds the tuning loop still owes."""
        self._pending_builds = {record.key: record for record in pending}

    def clear_pending_build(self, key: IndexKey) -> None:
        self._pending_builds.pop(key, None)

    @property
    def pending_builds(self) -> List[PendingBuild]:
        return list(self._pending_builds.values())

    def record_build_failure(self, record: BuildFailureRecord) -> None:
        self._build_failures[record.key] = record

    def build_failure(self, key: IndexKey) -> Optional[BuildFailureRecord]:
        return self._build_failures.get(key)

    def clear_build_failure(self, key: IndexKey) -> None:
        self._build_failures.pop(key, None)

    def quarantine_index(self, definition: "IndexDefinition",
                         reason: str) -> None:
        """Exclude ``definition`` from advising and planning: it failed
        to build repeatedly and re-planning it would loop forever."""
        self._quarantined[definition.key] = reason
        self._pending_builds.pop(definition.key, None)
        self._build_failures.pop(definition.key, None)

    def is_quarantined(self, key: IndexKey) -> bool:
        return key in self._quarantined

    def clear_quarantine(self, key: IndexKey) -> None:
        self._quarantined.pop(key, None)

    @property
    def quarantined_keys(self) -> List[IndexKey]:
        return sorted(self._quarantined)

    def quarantine_reason(self, key: IndexKey) -> Optional[str]:
        return self._quarantined.get(key)

    # ------------------------------------------------------------------
    # Consistency
    # ------------------------------------------------------------------
    def consistency_errors(self) -> List[str]:
        """Internal cross-references that must always hold; the chaos
        tests assert this is empty after every step."""
        errors: List[str] = []
        physical_keys = {definition.key for definition in
                         self._physical.values()}
        for name in sorted(self._unusable):
            if name not in self._physical:
                errors.append(f"unusable mark for unknown index {name!r}")
        for name in sorted(self._maintained_signatures):
            if name not in self._physical:
                errors.append(f"maintained signature for unknown index {name!r}")
        for key in sorted(self._quarantined):
            if key in physical_keys:
                errors.append(f"quarantined definition {key!r} is physical")
            if key in self._pending_builds:
                errors.append(f"quarantined definition {key!r} is pending")
        for key in sorted(self._pending_builds):
            if key in physical_keys:
                errors.append(f"pending build {key!r} already physical")
        return errors

    # ------------------------------------------------------------------
    # Virtual indexes
    # ------------------------------------------------------------------
    def add_virtual_index(self, definition: IndexDefinition) -> IndexDefinition:
        """Register a virtual index (catalog-only, no data)."""
        virtual = definition if definition.is_virtual else definition.as_virtual()
        if virtual.name in self._virtual or virtual.name in self._physical:
            raise CatalogError(f"index {virtual.name!r} already exists")
        self._virtual[virtual.name] = virtual
        return virtual

    def clear_virtual_indexes(self) -> None:
        self._virtual.clear()

    @property
    def virtual_indexes(self) -> List[IndexDefinition]:
        return list(self._virtual.values())

    # ------------------------------------------------------------------
    # Combined views
    # ------------------------------------------------------------------
    @property
    def all_indexes(self) -> List[IndexDefinition]:
        """Physical indexes first, then virtual ones."""
        return list(self._physical.values()) + list(self._virtual.values())

    def __len__(self) -> int:
        return len(self._physical) + len(self._virtual)

    def __iter__(self) -> Iterator[IndexDefinition]:
        return iter(self.all_indexes)

    # ------------------------------------------------------------------
    def virtual_configuration(self, definitions: Iterable[IndexDefinition],
                              include_physical: bool = True) -> "VirtualConfiguration":
        """Context manager that installs ``definitions`` as virtual indexes
        for the duration of a ``with`` block (Evaluate Indexes mode).

        When ``include_physical`` is False, physical indexes are hidden for
        the duration of the block as well, so the optimizer sees *only*
        the hypothetical configuration -- that is what the advisor wants
        when comparing candidate configurations from a clean slate.
        """
        return VirtualConfiguration(self, list(definitions), include_physical)


class VirtualConfiguration:
    """Context manager used by the Evaluate Indexes optimizer mode."""

    def __init__(self, catalog: Catalog, definitions: List[IndexDefinition],
                 include_physical: bool) -> None:
        self._catalog = catalog
        self._definitions = definitions
        self._include_physical = include_physical
        self._saved_virtual: Dict[str, IndexDefinition] = {}
        self._saved_physical: Dict[str, IndexDefinition] = {}

    def __enter__(self) -> Catalog:
        self._saved_virtual = dict(self._catalog._virtual)
        self._catalog._virtual = {}
        if not self._include_physical:
            self._saved_physical = dict(self._catalog._physical)
            self._catalog._physical = {}
        used_names = set(self._catalog._physical)
        for definition in self._definitions:
            virtual = definition.as_virtual()
            name = virtual.name
            suffix = 1
            while name in used_names or name in self._catalog._virtual:
                suffix += 1
                name = f"{virtual.name}_{suffix}"
            if name != virtual.name:
                virtual = virtual.renamed(name)
            self._catalog._virtual[virtual.name] = virtual
        return self._catalog

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self._catalog._virtual = self._saved_virtual
        if not self._include_physical:
            self._catalog._physical = self._saved_physical
