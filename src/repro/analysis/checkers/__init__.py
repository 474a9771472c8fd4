"""The five contract checkers.

Each checker exposes ``name`` plus ``check_file(parsed, context)`` and
``check_project(context)`` iterators of
:class:`~repro.analysis.core.Diagnostic`.  ``ALL_CHECKERS`` is the
registry the runner and the CLI iterate.
"""

from repro.analysis.checkers.caches import CacheInvalidationChecker
from repro.analysis.checkers.determinism import DeterminismChecker
from repro.analysis.checkers.faults import FaultCoverageChecker
from repro.analysis.checkers.snapshots import SnapshotImmutabilityChecker
from repro.analysis.checkers.telemetry import TelemetryChecker

#: Checker registry, in reporting-priority order.
ALL_CHECKERS = (
    SnapshotImmutabilityChecker(),
    CacheInvalidationChecker(),
    DeterminismChecker(),
    FaultCoverageChecker(),
    TelemetryChecker(),
)

__all__ = [
    "ALL_CHECKERS",
    "CacheInvalidationChecker",
    "DeterminismChecker",
    "FaultCoverageChecker",
    "SnapshotImmutabilityChecker",
    "TelemetryChecker",
]
