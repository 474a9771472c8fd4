"""Output checks, run untimed; every wrong output is a failed operation.

The reference for query results and derived state is a database rebuilt
from the document texts that should be live after the write schedule
(known from the inputs alone), queried by scans and, for a sample, by
the interpretive evaluator -- never the run's own database.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.advisor.benefit import ConfigurationEvaluator
from repro.executor import ExecutionResult, QueryExecutor
from repro.storage import XmlDatabase
from repro.xmldb.parser import parse_document
from repro.xmldb.serializer import serialize
from repro.xquery import Workload
from repro.xquery.normalizer import normalize_workload

from bench.inputs import Inputs
from bench.pipeline import Advice, Repeat

#: Benefits are sums of floats accumulated in different orders by the
#: search (delta evaluation) and by a fresh full evaluation.
BENEFIT_TOLERANCE = 1e-6


def _answer(result: Optional[ExecutionResult]) -> Optional[Tuple[int, Tuple[str, ...]]]:
    if result is None:
        return None
    return result.result_count, tuple(result.extracted_values or ())


class Checker:
    """Counts checks attempted and failed, and keeps the reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.wrong(what)

    def wrong(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(what)

    # ------------------------------------------------------------------
    def documents(self, inputs: Inputs) -> None:
        """Every generated document survives parse + serialize unchanged."""
        texts = [text for name in inputs.collections
                 for text in inputs.collections[name]]
        texts += [text for write_round in inputs.rounds for text in write_round.adds]
        for index, text in enumerate(texts):
            self.expect(serialize(parse_document(text)) == text,
                        f"document {index} does not round-trip")

    def recommendations(self, database: XmlDatabase, workload: Workload,
                        advice: List[Advice]) -> None:
        """Each recommendation fits its budget, and the benefit it
        reports equals a fresh evaluation of the same configuration."""
        evaluator = ConfigurationEvaluator(database, normalize_workload(workload))
        for item in advice:
            label = f"recommendation {item.algorithm}@{item.share}"
            recommendation = item.recommendation
            if item.budget_bytes is not None:
                self.expect(recommendation.total_size_bytes <= item.budget_bytes,
                            f"{label} exceeds its budget")
            fresh = evaluator.evaluate(recommendation.configuration)
            self.expect(
                abs(fresh.total_benefit - recommendation.total_benefit)
                <= BENEFIT_TOLERANCE * max(1.0, abs(fresh.total_benefit)),
                f"{label} reports benefit {recommendation.total_benefit!r}, "
                f"a fresh evaluation gives {fresh.total_benefit!r}")

    def phases_agree(self, repeat: Repeat) -> None:
        """Index plans and scans answer the same stream alike."""
        for with_indexes, without in zip(repeat.results.get("serve", ()),
                                         repeat.results.get("scan", ())):
            if with_indexes is not None and without is not None \
                    and _answer(with_indexes) != _answer(without):
                self.wrong(f"repeat {repeat.index}: index plan and scan "
                           f"disagree on {with_indexes.query_id}")

    def repeats_agree(self, repeats: List[Repeat]) -> None:
        """The same inputs give the same recommendations in every repeat."""
        first = repeats[0]
        for repeat in repeats[1:]:
            self.expect(
                [a.summary for a in repeat.advice] == [a.summary for a in first.advice],
                f"repeat {repeat.index} recommended differently from repeat 0")

    # ------------------------------------------------------------------
    def final_state(self, inputs: Inputs, repeat: Repeat) -> None:
        """Delta-maintained state equals a full rebuild, and every
        statement's answer equals the reference's."""
        reference = XmlDatabase("reference")
        for name, texts in inputs.final_collections().items():
            reference.create_collection(name).add_documents(
                [parse_document(text) for text in texts])
        live = repeat.database
        for collection in reference.collections:
            maintained = live.collection(collection.name)
            self.expect(maintained.path_summary.canonical_state()
                        == collection.path_summary.canonical_state(),
                        f"path summary of {collection.name} differs from a rebuild")
            self.expect(maintained.columnar_store.canonical_state()
                        == collection.columnar_store.canonical_state(),
                        f"columnar store of {collection.name} differs from a rebuild")
            self.expect(maintained.statistics == collection.statistics,
                        f"statistics of {collection.name} differ from a rebuild")
        errors = live.catalog.consistency_errors()
        self.expect(not errors, f"catalog inconsistent: {errors}")

        scans = QueryExecutor(reference)
        for removed in repeat.removed:
            rebuilt = scans.build_index_structure(removed.definition)
            self.expect(removed.structure is not None
                        and removed.structure.entries == rebuilt.entries,
                        f"index {removed.definition.name} differs from a rebuild")

        stream = [statement for block in repeat.stream for statement in block]
        expected: Dict[str, Optional[Tuple[int, Tuple[str, ...]]]] = {}
        for statement in stream:
            if statement not in expected:
                expected[statement] = _answer(
                    scans.execute(statement, extract_values=True))
        self.attempted += len(expected)
        interpreter = QueryExecutor(reference, use_path_summary=False,
                                    use_columnar=False)
        for statement in list(expected)[:inputs.profile.interpretive_sample]:
            self.expect(_answer(interpreter.execute(statement, extract_values=True))
                        == expected[statement],
                        f"scan and interpretive evaluator disagree on {statement!r}")
        for phase, results in repeat.results.items():
            for statement, result in zip(stream, results):
                # A statement that raised is already counted as failed.
                if result is not None and _answer(result) != expected[statement]:
                    self.wrong(f"{phase} phase: wrong answer for {statement!r}")
