"""Workload capture: the executor-side observation store.

A :class:`WorkloadMonitor` attaches to a
:class:`~repro.executor.executor.QueryExecutor` (``monitor=`` at
construction or :meth:`QueryExecutor.attach_monitor`) and records every
executed query into a bounded, exponentially-decayed frequency store, so
the "current workload" is a first-class, continuously updated object
instead of a static training file.

Identity is the query *template*: the structural signature of a
normalized query (predicate patterns with operator kind, value type and
literal, plus extraction paths).  Re-executions of the same statement --
whatever ``query_id`` the caller normalized it under -- land on one
:class:`CapturedQuery` entry that accumulates weight.

Time is an injected logical step counter, never the wall clock:
:meth:`WorkloadMonitor.tick` advances it, and an entry recorded ``d``
steps ago has decayed by ``decay ** d``.  Records within one step are
undecayed relative to each other, so a workload replayed once per tick
yields weights exactly proportional to its per-round counts -- the
property the online-vs-offline byte-identity tests rely on.  The store
is bounded: above ``capacity`` distinct templates, the lowest-weight
entry is evicted (deterministic tie-break on the template key).

:meth:`snapshot` freezes the store into a :class:`WorkloadSnapshot` --
the unit the drift detector compares and the catalog records as
configuration provenance.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.contracts import snapshot_contract
from repro.telemetry import MetricsRegistry, global_registry
from repro.xquery.model import NormalizedQuery

if TYPE_CHECKING:  # pragma: no cover - import only for type checkers
    from repro.executor.executor import ExecutionResult

#: Default bound on distinct templates the monitor retains.
DEFAULT_CAPACITY = 256

#: Default per-step decay factor (1.0 disables decay entirely).
DEFAULT_DECAY = 0.9


def template_key(query: NormalizedQuery, include_literals: bool = True) -> str:
    """The structural identity of a normalized query.

    Two executions share a template exactly when their predicate
    signatures (pattern, operator, literal, value type) and extraction
    paths coincide -- ``query_id`` and declared frequency are ignored,
    so ad-hoc re-normalizations of the same statement aggregate.

    ``include_literals=False`` blanks the compared literals out,
    producing the *shape* identity the workload compressor's literal
    folding merges on (``quantity > 7`` and ``quantity > 9`` are one
    shape).
    """
    predicates = sorted(
        (predicate.pattern.to_text(),
         predicate.op.value if predicate.op is not None else "",
         repr(predicate.value) if include_literals else "",
         predicate.value_type.value)
        for predicate in query.predicates)
    extraction = sorted(pattern.to_text() for pattern in query.extraction_paths)
    touched = sorted(pattern.to_text() for pattern in query.touched_patterns)
    kind = query.update_kind.value if query.update_kind is not None else "query"
    return "|".join([kind,
                     ";".join("/".join(p) for p in predicates),
                     ";".join(extraction),
                     ";".join(touched)])


@snapshot_contract()
@dataclass(frozen=True, slots=True)
class CapturedQuery:
    """One captured query template with its decayed arrival weight.

    Immutable: the monitor absorbs arrivals by ``dataclasses.replace``,
    so entries handed out in snapshots can never be retroactively
    changed by later traffic.
    """

    key: str
    #: A representative normalized form (the first one observed); its
    #: ``frequency`` field is meaningless here -- weights live below.
    query: NormalizedQuery
    #: Exponentially-decayed arrival weight, valid as of ``last_step``.
    weight: float
    #: Undecayed arrival count (observability; never drives decisions).
    arrivals: int
    #: Step the entry last absorbed an arrival or decay.
    last_step: int
    #: Exponential moving average of the executor's measured cost proxy
    #: (documents examined + index entries scanned); ``None`` until a
    #: result has been observed.
    cost_proxy: Optional[float] = None

    def weight_at(self, step: int, decay: float) -> float:
        """The entry's weight decayed forward to ``step``."""
        if step <= self.last_step or decay >= 1.0:
            return self.weight
        return self.weight * decay ** (step - self.last_step)


@snapshot_contract()
@dataclass(frozen=True)
class WorkloadSnapshot:
    """An immutable view of the monitor's store at one step.

    Entries are ordered by descending weight (ties broken on the
    template key) so every consumer sees one deterministic order.
    """

    step: int
    entries: Tuple[CapturedQuery, ...]
    #: Weight not represented in ``entries``: capacity evictions
    #: accumulated by the store plus the weight this snapshot's prune
    #: floor excluded -- capture is bounded, never silently exact.
    shed_weight: float = 0.0

    @property
    def total_weight(self) -> float:
        return sum(entry.weight for entry in self.entries)

    def distribution(self) -> Dict[str, float]:
        """Template key -> normalized weight (sums to 1; empty when no
        entries)."""
        total = self.total_weight
        if total <= 0:
            return {}
        return {entry.key: entry.weight / total for entry in self.entries}

    def describe(self) -> str:
        lines = [f"workload snapshot @step {self.step}: "
                 f"{len(self.entries)} template(s), "
                 f"total weight {self.total_weight:.2f}"]
        for entry in self.entries[:10]:
            lines.append(f"  {entry.weight:8.2f}  {entry.query.text[:70]}")
        if len(self.entries) > 10:
            lines.append(f"  ... and {len(self.entries) - 10} more")
        return "\n".join(lines)


class WorkloadMonitor:
    """Bounded, exponentially-decayed store of executed query templates.

    Parameters
    ----------
    capacity:
        Maximum distinct templates retained; the lowest-weight entry is
        evicted beyond it.
    decay:
        Per-step weight decay factor in ``(0, 1]``; ``1.0`` disables
        decay (weights are then plain arrival counts).
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY,
                 decay: float = DEFAULT_DECAY,
                 registry: Optional[MetricsRegistry] = None) -> None:
        if capacity < 1:
            raise ValueError("monitor capacity must be at least 1")
        if not 0.0 < decay <= 1.0:
            raise ValueError("decay must be in (0, 1]")
        self.capacity = capacity
        self.decay = decay
        #: Logical time: advanced only by :meth:`tick`, never by a clock.
        self.step = 0
        self._entries: Dict[str, CapturedQuery] = {}
        self._shed_weight = 0.0
        self.metrics = MetricsRegistry(
            parent=registry if registry is not None else global_registry())
        #: Total record() calls (observability for tests/benchmarks).
        self._m_recorded = self.metrics.counter("tuning.monitor.recorded")
        #: Weight lost to capacity evictions, mirrored as a gauge.
        self._m_shed_weight = self.metrics.gauge("tuning.monitor.shed_weight")

    # ------------------------------------------------------------------
    # Legacy counter attributes -- byte-equal views of registry metrics
    # ------------------------------------------------------------------
    @property
    def recorded(self) -> int:
        return self._m_recorded.value

    @recorded.setter
    def recorded(self, value: int) -> None:
        self._m_recorded.reset(value)

    # ------------------------------------------------------------------
    def tick(self, steps: int = 1) -> int:
        """Advance logical time by ``steps``; returns the new step."""
        if steps < 0:
            raise ValueError("time only moves forward")
        self.step += steps
        return self.step

    def record(self, query: NormalizedQuery,
               result: Optional["ExecutionResult"] = None) -> CapturedQuery:
        """Absorb one executed query (called by the executor hook).

        The arrival weight is the query's declared ``frequency`` (1.0
        for ad-hoc normalizations), so replaying a weighted workload
        once records the same mass as executing each statement
        ``frequency`` times.
        """
        self._m_recorded.inc()
        key = template_key(query)
        entry = self._entries.get(key)
        increment = query.frequency if query.frequency > 0 else 1.0
        if entry is None:
            entry = CapturedQuery(key=key, query=query, weight=0.0,
                                  arrivals=0, last_step=self.step)
        cost_proxy = entry.cost_proxy
        if result is not None:
            proxy = float(result.documents_examined
                          + result.index_entries_scanned)
            cost_proxy = proxy if cost_proxy is None \
                else 0.5 * cost_proxy + 0.5 * proxy
        entry = replace(
            entry,
            weight=entry.weight_at(self.step, self.decay) + increment,
            arrivals=entry.arrivals + 1,
            last_step=self.step,
            cost_proxy=cost_proxy)
        self._entries[key] = entry
        if len(self._entries) > self.capacity:
            self._evict_one(protect=key)
        return entry

    def _evict_one(self, protect: Optional[str] = None) -> None:
        """Drop the lowest-weight entry (deterministic tie-break).

        ``protect`` is the just-recorded template: evicting it would
        reset a newly-hot template to zero on every arrival, so it
        could never accumulate enough weight to displace residents --
        a full workload shift would stay invisible forever.  Protecting
        the newcomer lets it compete; the lowest-weight *resident* pays
        for the slot instead.
        """
        step, decay = self.step, self.decay
        victim: Optional[str] = None
        lowest = 0.0
        for key, entry in self._entries.items():
            if key == protect:
                continue
            # Inlined ``entry.weight_at(step, decay)``.
            weight = entry.weight
            if step > entry.last_step and decay < 1.0:
                weight = weight * decay ** (step - entry.last_step)
            if (victim is None or weight < lowest
                    or (weight == lowest and key < victim)):
                victim, lowest = key, weight
        self._shed_weight += lowest
        self._m_shed_weight.set(self._shed_weight)
        del self._entries[victim]

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    @property
    def shed_weight(self) -> float:
        """Weight lost to capacity evictions (snapshot pruning is
        reported per snapshot, not accumulated here)."""
        return self._shed_weight

    def snapshot(self, min_weight_fraction: float = 0.0) -> WorkloadSnapshot:
        """Freeze the store into an immutable, deterministic snapshot.

        ``min_weight_fraction`` excludes templates whose decayed weight
        has fallen below that fraction of the total -- how a superseded
        workload finally leaves the advisor's input once enough ticks
        have decayed it away.  Snapshotting never mutates the store:
        the excluded weight is reported in the snapshot's
        ``shed_weight`` (on top of the store's capacity evictions), and
        the entries themselves stay captured, so a template that
        regains traffic re-enters future snapshots.
        """
        entries: List[CapturedQuery] = []
        for entry in self._entries.values():
            weight = entry.weight_at(self.step, self.decay)
            if weight > 0:
                entries.append(replace(entry, weight=weight,
                                       last_step=self.step))
        pruned = 0.0
        total = sum(entry.weight for entry in entries)
        if min_weight_fraction > 0 and total > 0:
            floor = total * min_weight_fraction
            pruned = sum(entry.weight for entry in entries
                         if entry.weight < floor)
            entries = [entry for entry in entries if entry.weight >= floor]
        entries.sort(key=lambda e: (-e.weight, e.key))
        return WorkloadSnapshot(step=self.step, entries=tuple(entries),
                                shed_weight=self._shed_weight + pruned)

    def clear(self) -> None:
        """Forget everything (weights, arrivals, shed accounting)."""
        self._entries.clear()
        self._shed_weight = 0.0
        self._m_shed_weight.set(0.0)
        self._m_recorded.reset()
