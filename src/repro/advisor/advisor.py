"""The end-to-end XML Index Advisor.

:class:`XmlIndexAdvisor` wires the whole pipeline of Figure 1 together:
workload normalization, basic candidate enumeration (Enumerate Indexes
mode), candidate generalization into the DAG, configuration search under
the disk budget (Evaluate Indexes mode inside the benefit evaluator),
and packaging of the result as a :class:`Recommendation` that the
analysis tooling, the CLI, and the benchmarks consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple, Union

from repro.advisor.benefit import ConfigurationBenefit, ConfigurationEvaluator
from repro.advisor.candidates import CandidateSet, enumerate_basic_candidates
from repro.advisor.config import AdvisorParameters, SearchAlgorithm
from repro.advisor.dag import GeneralizationDag
from repro.advisor.enumeration import SearchResult, create_search
from repro.advisor.generalization import GeneralizationResult, generalize_candidates
from repro.faults import guarded_fault_point
from repro.index.definition import IndexConfiguration, IndexDefinition
from repro.optimizer.optimizer import Optimizer
from repro.storage.document_store import XmlDatabase
from repro.telemetry import MetricsRegistry, global_registry, wall_clock
from repro.xquery.model import NormalizedQuery, Workload
from repro.xquery.normalizer import normalize_workload


@dataclass
class Recommendation:
    """Everything the advisor produced for one session."""

    #: The recommended configuration (what the DBA should create).
    configuration: IndexConfiguration
    #: Benefit/size/per-query breakdown of the recommendation.
    benefit: ConfigurationBenefit
    #: All candidates considered (basic + generalized).
    candidates: CandidateSet
    #: The generalization DAG over those candidates.
    dag: GeneralizationDag
    #: The search trace (which indexes were added/evicted/replaced and why).
    search_result: SearchResult
    #: The normalized workload the recommendation was computed for.
    queries: List[NormalizedQuery] = field(default_factory=list)
    #: Parameters the session ran with.
    parameters: AdvisorParameters = field(default_factory=AdvisorParameters)
    #: Wall-clock seconds spent in each phase.
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    #: Footprint of the database's columnar pre/post encoding at
    #: recommendation time (statistics-derived), so size reports show
    #: the base storage the recommended indexes sit on top of.
    base_columnar_bytes: int = 0

    # ------------------------------------------------------------------
    @property
    def total_benefit(self) -> float:
        return self.benefit.total_benefit

    @property
    def total_size_bytes(self) -> float:
        return self.benefit.total_size_bytes

    def ddl_statements(self) -> List[str]:
        """CREATE INDEX statements for the recommended configuration."""
        return [index.ddl() for index in self.configuration]

    def improvement_percent(self) -> float:
        """Estimated workload cost reduction, as a percentage."""
        baseline = sum(e.cost_without_indexes * e.frequency
                       for e in self.benefit.query_evaluations)
        if baseline <= 0:
            return 0.0
        with_config = sum(e.cost_with_configuration * e.frequency
                          for e in self.benefit.query_evaluations)
        return 100.0 * (baseline - with_config) / baseline

    def describe(self) -> str:
        lines = [
            f"recommended configuration ({self.search_result.algorithm.value} search):",
            f"  {len(self.configuration)} index(es), "
            f"size {self.total_size_bytes / 1024:.1f} KiB "
            f"(over {self.base_columnar_bytes / 1024:.1f} KiB of columnar "
            f"base storage), "
            f"estimated improvement {self.improvement_percent():.1f}%",
        ]
        for index in self.configuration:
            size = self.benefit.index_sizes.get(index.key, 0.0)
            lines.append(f"    {index.pattern.to_text()} [{index.value_type.value}] "
                         f"(~{size / 1024:.1f} KiB)")
        return "\n".join(lines)


class XmlIndexAdvisor:
    """The client-side advisor application of Figure 1.

    Parameters
    ----------
    database:
        The XML database to tune (documents + catalog + statistics).
    parameters:
        Session parameters (disk budget, search algorithm, ...).
    """

    def __init__(self, database: XmlDatabase,
                 parameters: Optional[AdvisorParameters] = None,
                 registry: Optional[MetricsRegistry] = None) -> None:
        self.database = database
        self.parameters = parameters or AdvisorParameters()
        self.parameters.validate()
        #: Session-level metrics; the optimizer and every evaluator this
        #: advisor builds chain their registries here, so one snapshot
        #: covers the whole pipeline.
        self.metrics = MetricsRegistry(
            parent=registry if registry is not None else global_registry())
        self.optimizer = Optimizer(
            database, self.parameters.cost_parameters, registry=self.metrics)

    # ------------------------------------------------------------------
    # Pipeline steps (exposed individually for the demo/benchmarks)
    # ------------------------------------------------------------------
    def normalize(self, workload: "Union[Workload, Sequence[str], Sequence[NormalizedQuery]]"
                  ) -> List[NormalizedQuery]:
        """Normalize a workload into the internal query list.

        Accepts a :class:`Workload`, a plain list of statement strings,
        a list of already-normalized queries (passed through untouched),
        or any object exposing a ``queries`` list of normalized queries
        -- in particular the online tuning subsystem's
        :class:`~repro.tuning.compressor.CompressedWorkload`, whose
        representative queries carry their aggregated captured weights
        as frequencies.
        """
        if isinstance(workload, Workload):
            return normalize_workload(workload)
        if workload is None:
            return normalize_workload(Workload(name="adhoc"))
        queries = getattr(workload, "queries", None)
        if queries is not None:
            queries = list(queries)
            if all(isinstance(query, NormalizedQuery) for query in queries):
                return queries
        # Materialize once: the argument may be a one-shot iterable, and
        # the isinstance probe below must not consume it.
        items = list(workload)
        if items and all(isinstance(item, NormalizedQuery) for item in items):
            return items
        return normalize_workload(_as_workload(items))

    def enumerate_candidates(self, queries: Sequence[NormalizedQuery]) -> CandidateSet:
        """Step 1: basic candidates via the Enumerate Indexes mode."""
        return enumerate_basic_candidates(queries, self.database, self.optimizer)

    def generalize(self, candidates: CandidateSet,
                   excluded_keys: Optional[FrozenSet[Tuple[str, str]]] = None
                   ) -> GeneralizationResult:
        """Step 2: expand candidates with the generalization rules; the
        kernel's work counts land on ``self.metrics``."""
        result = generalize_candidates(candidates, self.parameters, excluded_keys)
        counter = self.metrics.counter
        counter("advisor.generalize.pairs_examined").inc(result.pairs_examined)
        counter("advisor.generalize.patterns_produced").inc(result.patterns_produced)
        counter("advisor.generalize.containment_tests").inc(result.containment_tests)
        return result

    def build_evaluator(self, queries: Sequence[NormalizedQuery]) -> ConfigurationEvaluator:
        """The Evaluate Indexes-backed benefit evaluator for ``queries``."""
        return ConfigurationEvaluator(self.database, queries, self.parameters,
                                      self.optimizer, registry=self.metrics)

    def search(self, candidates: CandidateSet, dag: GeneralizationDag,
               evaluator: ConfigurationEvaluator,
               algorithm: Optional[SearchAlgorithm] = None) -> SearchResult:
        """Step 3: search for the best configuration under the budget."""
        algorithm = algorithm or self.parameters.search_algorithm
        strategy = create_search(algorithm, evaluator, self.parameters)
        return strategy.search(candidates, dag)

    # ------------------------------------------------------------------
    # One-call entry point
    # ------------------------------------------------------------------
    def recommend(self, workload: "Union[Workload, Sequence[str], Sequence[NormalizedQuery]]",
                  algorithm: Optional[SearchAlgorithm] = None,
                  excluded_keys: Optional[FrozenSet[Tuple[str, str]]] = None
                  ) -> Recommendation:
        """Run the full pipeline and return the recommendation.

        Besides a :class:`Workload` or statement strings, this accepts
        already-normalized queries and compressed online workloads (see
        :meth:`normalize`) -- the entry point the online tuning
        controller re-advises through.

        ``excluded_keys`` -- candidate keys (pattern text, value type
        name) that must never be recommended; the online controller
        passes its quarantined definitions here.  The filter runs after
        the expansion because the generalization rules can re-create an
        excluded pattern from a surviving one, and before the one DAG
        build.
        """
        phase_seconds: Dict[str, float] = {}

        start = wall_clock()
        queries = self.normalize(workload)
        phase_seconds["normalize"] = wall_clock() - start

        start = wall_clock()
        basic = self.enumerate_candidates(queries)
        phase_seconds["enumerate"] = wall_clock() - start

        start = wall_clock()
        generalization = self.generalize(basic, excluded_keys)
        candidates = generalization.candidates
        dag = generalization.dag
        phase_seconds["generalize"] = wall_clock() - start

        start = wall_clock()
        evaluator = self.build_evaluator(queries)
        search_result = self.search(candidates, dag, evaluator, algorithm)
        phase_seconds["search"] = wall_clock() - start

        return Recommendation(
            configuration=search_result.configuration,
            benefit=search_result.benefit,
            candidates=candidates,
            dag=dag,
            search_result=search_result,
            queries=queries,
            parameters=self.parameters,
            phase_seconds=phase_seconds,
            base_columnar_bytes=self.database.statistics.columnar_bytes,
        )

    # ------------------------------------------------------------------
    def create_recommended_indexes(self, recommendation: Recommendation) -> List[IndexDefinition]:
        """Materialize the recommendation in the catalog (as physical
        definitions), as the demo's final step does.

        Returns the physical definitions added.  Building the actual
        index structures for execution is the executor's job
        (:func:`repro.executor.executor.create_indexes`).
        """
        # Consulted before any catalog mutation: a persistent fault
        # leaves the catalog exactly as it was.
        guarded_fault_point("migration.commit")
        created: List[IndexDefinition] = []
        for index in recommendation.configuration:
            physical = index.as_physical()
            if not self.database.catalog.has_index(physical.name):
                self.database.catalog.add_index(physical)
                created.append(physical)
        return created


def _as_workload(statements: Sequence[str]) -> Workload:
    workload = Workload(name="adhoc")
    for statement in statements:
        workload.add(statement)
    return workload
