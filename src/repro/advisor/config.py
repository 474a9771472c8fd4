"""Advisor session parameters.

These correspond to the inputs of Figure 1 ("Query workload, XML
Database, System information, Disk space constraint") plus the knobs the
demonstration exposes to the user: which search algorithm to run, how
aggressively to generalize, and whether update cost is charged.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from repro.optimizer.cost_model import CostParameters
from repro.storage.pages import PAGE_SIZE_BYTES


class SearchAlgorithm(enum.Enum):
    """The configuration-search strategies offered by the advisor."""

    #: Plain greedy 0/1-knapsack approximation (benefit/size ratio, no
    #: redundancy detection) -- the relational-advisor baseline [8].
    GREEDY = "greedy"
    #: Greedy search augmented with the paper's redundancy heuristics.
    GREEDY_HEURISTIC = "greedy-heuristic"
    #: Top-down (root-to-leaf) search through the generalization DAG.
    TOP_DOWN = "top-down"


@dataclass
class AdvisorParameters:
    """All tunables of one advisor session."""

    #: Disk space available for the recommended configuration, in bytes.
    #: ``None`` means unconstrained (the advisor then recommends the full
    #: beneficial candidate set).
    disk_budget_bytes: Optional[float] = None
    #: Which search algorithm to use.
    search_algorithm: SearchAlgorithm = SearchAlgorithm.GREEDY_HEURISTIC
    #: Maximum number of pairwise generalization rounds (fixpoint usually
    #: arrives in two or three rounds for benchmark workloads).
    generalization_rounds: int = 3
    #: Also generate ``prefix//*`` candidates for patterns sharing a prefix.
    enable_prefix_generalization: bool = True
    #: Hard cap on the number of candidates after generalization (safety
    #: valve for adversarial workloads).
    max_candidates: int = 512
    #: Charge index maintenance cost for update statements in the workload.
    account_for_updates: bool = True
    #: Cost model constants handed to the optimizer.
    cost_parameters: CostParameters = field(default_factory=CostParameters)

    # ------------------------------------------------------------------
    @property
    def disk_budget_pages(self) -> Optional[float]:
        if self.disk_budget_bytes is None:
            return None
        return self.disk_budget_bytes / PAGE_SIZE_BYTES

    def validate(self) -> None:
        """Raise ``ValueError`` for nonsensical parameter combinations."""
        if self.disk_budget_bytes is not None and self.disk_budget_bytes < 0:
            raise ValueError("disk budget must be non-negative")
        if self.generalization_rounds < 0:
            raise ValueError("generalization rounds must be non-negative")
        if self.max_candidates < 1:
            raise ValueError("max_candidates must be at least 1")

    def describe(self) -> str:
        budget = ("unlimited" if self.disk_budget_bytes is None
                  else f"{self.disk_budget_bytes / 1024:.0f} KiB")
        return (f"advisor parameters: budget={budget}, "
                f"search={self.search_algorithm.value}, "
                f"generalization rounds={self.generalization_rounds}, "
                f"updates {'charged' if self.account_for_updates else 'ignored'}")
