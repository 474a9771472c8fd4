"""One repeat of the pipeline every workload runs, on a fresh database.

Stages, in order: **load** (parse text, add, build summary / columnar
store / statistics), **advise** (an unconstrained ``recommend()``, then
the profile's budget sweep), **build** (the unconstrained
recommendation's indexes), **ingest** (write rounds with live indexes,
each closed by a barrier query, a few stream queries and, every few
rounds, ``run_cycle()``), **serve** (the statement stream with the
indexes the controller left) and **scan** (the same stream after every
index is dropped).  The profile decides how large each stage is.

Only public functions of ``repro`` are called.  With the tracer enabled
a statement is split into normalize / optimize / execute, a document add
into parse / add and ``recommend()`` into its four steps, so the layers
separate; untraced, each is the single call a user makes.
"""

from __future__ import annotations

import gc
import resource
from functools import partial
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List, Optional

from repro.advisor import (
    AdvisorParameters,
    Recommendation,
    SearchAlgorithm,
    XmlIndexAdvisor,
)
from repro.executor import ExecutionResult, QueryExecutor
from repro.executor.executor import RemovedIndex
from repro.index.sizing import estimate_index_size_bytes
from repro.storage import XmlDatabase
from repro.telemetry import global_registry
from repro.tuning import TuningController, TuningPolicy
from repro.xmldb.parser import parse_document
from repro.xquery import Workload, WorkloadStatement, normalize_statement

from bench.inputs import GREEDY, Inputs
from bench.spans import Tracer

#: Controller policy: decay fast enough that the training mix is pruned
#: within the rounds after the shift (the values of the repo's own
#: online-vs-offline protocol).
TUNING_POLICY = dict(decay=0.5, min_weight_fraction=0.02, cluster_cap=32)


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def counters() -> Dict[str, float]:
    """Every counter of the process-wide registry, by name."""
    return {name: export["value"]
            for name, export in global_registry().snapshot().items()
            if export["type"] == "counter"}


def _quiesce() -> None:
    """Before a timed section: collect garbage, then move the survivors
    out of the collector's reach so a full collection inside the section
    does not walk the whole loaded database.  GC stays enabled."""
    gc.collect()
    gc.freeze()


@dataclass
class Advice:
    """One ``recommend()`` call."""

    share: Optional[float]
    budget_bytes: Optional[float]
    algorithm: str
    seconds: float
    improvement_pct: float
    basic_candidates: int
    total_candidates: int
    #: What must repeat exactly: index keys, benefit, size.
    summary: tuple
    #: Dropped with the rest of the repeat's state once it is checked.
    recommendation: Optional[Recommendation]


@dataclass
class Repeat:
    """What one repeat measured, and the state the output checks need."""

    index: int
    traced: bool
    tracer: Tracer
    stage_s: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    loaded_bytes: int = 0
    load_rss_delta_mb: float = 0.0
    #: Traced repeats only: bytes and nodes through ``parse_document``
    #: (bulk load and writes), nodes and distinct paths after the load.
    parsed_bytes: int = 0
    nodes_parsed: int = 0
    nodes_loaded: int = 0
    distinct_paths: int = 0
    advice: List[Advice] = field(default_factory=list)
    #: Of the indexes as built, before any write touched them.
    index_entries: int = 0
    index_bytes: float = 0.0
    columnar_bytes: float = 0.0
    #: Per write round: seconds in its write calls and barrier query,
    #: and in the barrier query alone.
    round_s: List[float] = field(default_factory=list)
    barrier_s: List[float] = field(default_factory=list)
    writes: int = 0
    tuning_builds: int = 0
    tuning_drops: int = 0
    #: Per serving phase: the latency of each statement of each timed
    #: block, and every result (``None`` for a failed statement).
    latencies: Dict[str, List[List[float]]] = field(default_factory=dict)
    results: Dict[str, List[Optional[ExecutionResult]]] = field(default_factory=dict)
    stream: List[List[str]] = field(default_factory=list)
    #: Of the serve phase: share of statements answered by an index
    #: plan, documents examined and index entries scanned per result.
    index_plan_share: float = 0.0
    docs_examined_per_result: float = 0.0
    index_entries_per_result: float = 0.0
    counters: Dict[str, float] = field(default_factory=dict)
    database: Optional[XmlDatabase] = None
    removed: List[RemovedIndex] = field(default_factory=list)

    @property
    def pipeline_s(self) -> float:
        return sum(self.stage_s.values())

    def fail(self, what: str, error: BaseException) -> None:
        self.failed += 1
        self.errors.append(f"{what}: {type(error).__name__}: {error}")

    def release(self) -> None:
        """Drop the state only the output checks need."""
        self.database = None
        self.removed = []
        self.results = {}
        for advice in self.advice:
            advice.recommendation = None


# ----------------------------------------------------------------------
def run_repeat(inputs: Inputs, index: int, traced: bool,
               after_advise: Optional[Callable[[XmlDatabase, Workload,
                                                List[Advice]], None]] = None
               ) -> Repeat:
    """Run every stage once on a fresh database.

    An exception in a statement is a failed operation and the stream
    goes on; an exception anywhere else is a failed operation that ends
    the repeat (later stages need what the failed one did not produce).
    ``after_advise`` runs untimed between the advise and build stages,
    while the data is still what the recommendations were made for.
    """
    repeat = Repeat(index=index, traced=traced, tracer=Tracer(traced))
    before = counters()
    try:
        _run_stages(inputs, repeat, after_advise)
    except Exception as error:  # noqa: BLE001 -- a failed op, not a crash
        repeat.fail("stage", error)
    finally:
        gc.unfreeze()
    repeat.counters = {name: value - before.get(name, 0)
                       for name, value in counters().items()}
    return repeat


def _run_stages(inputs: Inputs, repeat: Repeat, after_advise) -> None:
    profile = inputs.profile
    tracer = repeat.tracer
    span = tracer.span
    database = repeat.database = XmlDatabase("bench")

    # ---- load --------------------------------------------------------
    _quiesce()
    rss_before = rss_mb()
    with span("bench.load"):
        start = perf_counter()
        for name, texts in inputs.collections.items():
            repeat.attempted += len(texts)
            collection = database.create_collection(name)
            with span("xmldb.parse"):
                documents = [parse_document(text, uri=f"{name}-{i}.xml")
                             for i, text in enumerate(texts)]
            with span("storage.add"):
                collection.add_documents(documents)
            with span("storage.summary_build"):
                collection.path_summary
            with span("storage.columnar_build"):
                collection.columnar_store
            with span("storage.statistics_build"):
                collection.statistics
            del documents
        with span("storage.statistics_build"):
            statistics = database.statistics
        repeat.stage_s["load"] = perf_counter() - start
    repeat.loaded_bytes = inputs.loaded_bytes
    repeat.load_rss_delta_mb = rss_mb() - rss_before
    if tracer.enabled:
        repeat.nodes_loaded = statistics.total_node_count
        repeat.distinct_paths = len(statistics.path_stats)
        repeat.parsed_bytes = repeat.loaded_bytes + sum(
            len(text.encode()) for r in inputs.rounds for text in r.adds)
        repeat.nodes_parsed = sum(document.total_nodes()
                                  for document in database.all_documents())

    # ---- advise ------------------------------------------------------
    workload = Workload(name="training")
    for text, frequency in inputs.training:
        workload.add(WorkloadStatement(text=text, frequency=frequency))
    _quiesce()
    with span("bench.advise"):
        start = perf_counter()
        full = _recommend(database, workload, None, None, GREEDY, tracer)
        repeat.advice.append(full)
        all_basic_bytes = sum(
            estimate_index_size_bytes(candidate.to_definition(), database.statistics)
            for candidate in full.recommendation.candidates.basic_candidates)
        for share, algorithm in profile.sweep:
            repeat.advice.append(_recommend(
                database, workload, share, share * all_basic_bytes,
                algorithm, tracer))
        repeat.stage_s["advise"] = perf_counter() - start
    repeat.attempted += len(repeat.advice)
    if after_advise is not None:
        after_advise(database, workload, repeat.advice)

    # ---- build -------------------------------------------------------
    executor = QueryExecutor(database)
    structures = []
    _quiesce()
    with span("bench.build"):
        start = perf_counter()
        for definition in full.recommendation.configuration:
            with span("index.build"):
                structure = executor.build_index_structure(definition)
                executor.install_index(definition, structure)
            structures.append(structure)
        repeat.stage_s["build"] = perf_counter() - start
    repeat.attempted += len(structures)
    repeat.index_entries = sum(s.entry_count for s in structures)
    repeat.index_bytes = sum(s.size_bytes for s in structures)
    repeat.columnar_bytes = sum(collection.columnar_store.nbytes
                                for collection in database.collections)

    # ---- ingest (writes, barrier queries, stream queries, tuning) ----
    run = _traced_statement(executor, tracer) if tracer.enabled \
        else partial(executor.execute, extract_values=True)
    controller = TuningController(database, executor=executor,
                                  policy=TuningPolicy(**TUNING_POLICY))
    xmark = database.collection("xmark")
    version = xmark.version
    _quiesce()
    with span("bench.ingest"):
        start = perf_counter()
        for number, write_round in enumerate(inputs.rounds, start=1):
            round_start = perf_counter()
            for text in write_round.adds:
                if tracer.enabled:
                    with span("xmldb.parse"):
                        document = parse_document(text)
                    with span("storage.delta_write"):
                        xmark.add_document(document)
                    repeat.nodes_parsed += document.total_nodes()
                else:
                    xmark.add_document(text)
            for doc_id in write_round.removes:
                with span("storage.delta_write"):
                    xmark.remove_document(doc_id)
            barrier_start = perf_counter()
            with span("executor.barrier"):
                executor.execute(inputs.barrier, extract_values=True)
            round_end = perf_counter()
            repeat.barrier_s.append(round_end - barrier_start)
            repeat.round_s.append(round_end - round_start)
            for statement in write_round.stream:
                _serve_one(run, statement, repeat)
            controller.monitor.tick()
            if number % profile.tune_every == 0:
                with span("tuning.cycle"):
                    event = controller.run_cycle()
                repeat.attempted += 1
                if event.action in ("aborted", "rolled-back"):
                    repeat.fail("run_cycle", RuntimeError(event.error))
                elif event.applied and event.plan is not None:
                    repeat.tuning_builds += len(event.plan.builds)
                    repeat.tuning_drops += len(event.plan.drops)
        repeat.stage_s["ingest"] = perf_counter() - start
    repeat.writes = xmark.version - version
    repeat.attempted += repeat.writes + len(inputs.rounds)

    # ---- serve with the indexes, then the same stream without --------
    repeat.stream = inputs.stream(repeat.index)
    _serve_phase("serve", run, repeat)
    served = [result for result in repeat.results["serve"] if result is not None]
    results = max(1, sum(result.result_count for result in served))
    repeat.index_plan_share = sum(r.used_index_plan for r in served) / max(1, len(served))
    repeat.docs_examined_per_result = sum(r.documents_examined for r in served) / results
    repeat.index_entries_per_result = sum(r.index_entries_scanned for r in served) / results
    for definition in list(database.catalog.physical_indexes):
        repeat.removed.append(executor.remove_index(definition.name))
    _serve_phase("scan", run, repeat)


def _recommend(database: XmlDatabase, workload: Workload,
               share: Optional[float], budget: Optional[float],
               algorithm: str, tracer: Tracer) -> Advice:
    parameters = AdvisorParameters(disk_budget_bytes=budget,
                                   search_algorithm=SearchAlgorithm(algorithm))
    advisor = XmlIndexAdvisor(database, parameters)
    start = perf_counter()
    if not tracer.enabled:
        recommendation = advisor.recommend(workload)
    else:
        with tracer.span("advisor.normalize"):
            queries = advisor.normalize(workload)
        with tracer.span("advisor.enumerate"):
            basic = advisor.enumerate_candidates(queries)
        with tracer.span("advisor.generalize"):
            generalization = advisor.generalize(basic)
        with tracer.span("advisor.search_" + algorithm.replace("-", "_")):
            evaluator = advisor.build_evaluator(queries)
            result = advisor.search(generalization.candidates,
                                    generalization.dag, evaluator)
        recommendation = Recommendation(
            configuration=result.configuration, benefit=result.benefit,
            candidates=generalization.candidates, dag=generalization.dag,
            search_result=result, queries=queries, parameters=parameters)
    seconds = perf_counter() - start
    summary = (sorted(definition.key for definition in recommendation.configuration),
               recommendation.total_benefit, recommendation.total_size_bytes)
    candidates = recommendation.candidates
    return Advice(share, budget, algorithm, seconds,
                  recommendation.improvement_percent(),
                  len(candidates.basic_candidates), len(candidates),
                  summary, recommendation)


def _traced_statement(executor: QueryExecutor, tracer: Tracer):
    optimizer = executor.optimizer
    catalog = executor.database.catalog

    def run(text: str) -> ExecutionResult:
        with tracer.span("bench.statement"):
            with tracer.span("xquery.normalize"):
                query = normalize_statement(text)
            with tracer.span("optimizer.plan"):
                optimizer.optimize(
                    query, candidate_indexes=catalog.usable_physical_indexes)
            with tracer.span("executor.execute"):
                return executor.execute(query, extract_values=True)
    return run


def _serve_one(run, statement: str, repeat: Repeat):
    repeat.attempted += 1
    try:
        return run(statement)
    except Exception as error:  # noqa: BLE001 -- a failed op, not a crash
        repeat.fail("statement", error)
        return None


def _serve_phase(phase: str, run, repeat: Repeat) -> None:
    """Serve the stream: its first block untimed, the others per statement."""
    results = repeat.results[phase] = []
    latencies = repeat.latencies[phase] = []
    _quiesce()
    with repeat.tracer.span("bench." + phase):
        start = perf_counter()
        for statement in repeat.stream[0]:
            results.append(_serve_one(run, statement, repeat))
        for block in repeat.stream[1:]:
            block_latencies = []
            for statement in block:
                before = perf_counter()
                result = _serve_one(run, statement, repeat)
                block_latencies.append(perf_counter() - before)
                results.append(result)
            latencies.append(block_latencies)
        repeat.stage_s[phase] = perf_counter() - start
