"""Command-line interface: ``xml-index-advisor``.

Sub-commands mirror the demonstration's flow:

* ``scenarios`` -- list the built-in (database, workload) scenarios;
* ``enumerate`` -- run the Enumerate Indexes mode over a scenario's
  workload (or a single ``--query``) and print the basic candidates;
* ``recommend`` -- run the full advisor under a disk budget and print
  the recommended configuration, its DDL and the Figure 5 analysis;
* ``execute`` -- create the recommended indexes and actually execute the
  workload with and without them (the demo's final step);
* ``tune`` -- run the online tuning loop: observe the workload through a
  monitored executor, report drift, re-advise on the compressed captured
  workload, and apply (or just print, with ``--dry-run``) the migration
  plan.  ``--shift`` additionally replays the held-out XMark queries
  afterwards to demonstrate drift detection and re-convergence;
* ``explain`` -- print the optimizer's chosen plan for each statement,
  and with ``--trace`` execute it and print the per-query span tree
  (parse -> compile -> plan -> route -> scan/index-probe -> residual ->
  extract) with timings;
* ``metrics`` -- run a scenario workload against an instrumented
  executor and export the metrics registry as deterministic JSON or
  Prometheus text;
* ``lint`` -- run the contract analyzer (see :mod:`repro.analysis`) over
  the source tree: snapshot immutability, cache invalidation,
  determinism, fault coverage and the observe-only telemetry contract.  Exits non-zero on violations (the CI gate).

Example::

    xml-index-advisor recommend --scenario xmark-small --budget-kb 256 \\
        --algorithm top-down
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from repro.advisor.advisor import XmlIndexAdvisor
from repro.advisor.analysis import RecommendationAnalysis
from repro.advisor.config import AdvisorParameters, SearchAlgorithm
from repro.executor.measurement import measure_workload
from repro.optimizer.explain import enumerate_indexes
from repro.optimizer.optimizer import Optimizer
from repro.tools.export import recommendation_to_json
from repro.tools.report import (
    candidate_report,
    dag_report,
    enumerate_report,
    recommendation_report,
)
from repro.workloads.loader import build_scenario, list_scenarios
from repro.xpath.errors import XPathParseError
from repro.xquery.errors import QueryParseError
from repro.xquery.model import Workload
from repro.xquery.normalizer import normalize_statement, normalize_workload
from repro.xquery.workload_io import load_workload_file


def _add_scenario_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scenario", default="xmark-small",
                        choices=list_scenarios(),
                        help="built-in database + workload to use")
    parser.add_argument("--workload-file", default=None,
                        help="read the workload from a text file instead of "
                             "using the scenario's built-in workload "
                             "(statements separated by ';' or blank lines; "
                             "'-- frequency: N' comments set frequencies)")


def _scenario_workload(args: argparse.Namespace, scenario) -> Workload:
    """The scenario's workload, or the one loaded from --workload-file."""
    if getattr(args, "workload_file", None):
        return load_workload_file(args.workload_file)
    return scenario.workload


def _algorithm(value: str) -> SearchAlgorithm:
    for algorithm in SearchAlgorithm:
        if algorithm.value == value:
            return algorithm
    raise argparse.ArgumentTypeError(f"unknown algorithm {value!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xml-index-advisor",
        description="XML Index Advisor (SIGMOD 2008 reproduction)")
    subparsers = parser.add_subparsers(dest="command", required=True)

    scenarios_parser = subparsers.add_parser(
        "scenarios", help="list built-in scenarios")
    scenarios_parser.add_argument("--json", action="store_true",
                                  help="emit the scenario names as a JSON "
                                       "array instead of one per line")

    enum_parser = subparsers.add_parser(
        "enumerate", help="show basic candidate indexes (Enumerate Indexes mode)")
    _add_scenario_argument(enum_parser)
    enum_parser.add_argument("--query", default=None,
                             help="a single XQuery/SQL-XML statement instead of "
                                  "the scenario workload")

    recommend_parser = subparsers.add_parser(
        "recommend", help="run the advisor and print the recommendation")
    _add_scenario_argument(recommend_parser)
    recommend_parser.add_argument("--budget-kb", type=float, default=256.0,
                                  help="disk space budget in KiB (0 = unlimited)")
    recommend_parser.add_argument("--algorithm", type=_algorithm,
                                  default=SearchAlgorithm.GREEDY_HEURISTIC,
                                  help="greedy | greedy-heuristic | top-down")
    recommend_parser.add_argument("--show-dag", action="store_true",
                                  help="also print the generalization DAG")
    recommend_parser.add_argument("--show-candidates", action="store_true",
                                  help="also print the candidate table")
    recommend_parser.add_argument("--json-out", default=None,
                                  help="also write the recommendation (and its "
                                       "analysis) as JSON to this file")

    execute_parser = subparsers.add_parser(
        "execute", help="create the recommended indexes and run the workload")
    _add_scenario_argument(execute_parser)
    execute_parser.add_argument("--budget-kb", type=float, default=256.0)
    execute_parser.add_argument("--algorithm", type=_algorithm,
                                default=SearchAlgorithm.GREEDY_HEURISTIC)

    tune_parser = subparsers.add_parser(
        "tune", help="run the online tuning loop "
                     "(observe -> drift -> advise -> migrate)")
    _add_scenario_argument(tune_parser)
    tune_parser.add_argument("--budget-kb", type=float, default=256.0,
                             help="disk space budget in KiB (0 = unlimited)")
    tune_parser.add_argument("--rounds", type=int, default=3,
                             help="observation rounds (one monitor tick each) "
                                  "before the tuning cycle runs")
    tune_parser.add_argument("--drift-threshold", type=float, default=0.25,
                             help="combined drift score that triggers "
                                  "re-advising")
    tune_parser.add_argument("--cluster-cap", type=int, default=32,
                             help="bound on the compressed advisor input")
    tune_parser.add_argument("--build-budget-kb", type=float, default=0.0,
                             help="per-cycle index build budget in KiB "
                                  "(0 = build everything at once)")
    tune_parser.add_argument("--dry-run", action="store_true",
                             help="report the migration plan without "
                                  "applying it")
    tune_parser.add_argument("--shift", action="store_true",
                             help="after tuning, replay the held-out XMark "
                                  "queries and run a second cycle to "
                                  "demonstrate drift detection")
    tune_parser.add_argument("--shift-rounds", type=int, default=10,
                             help="observation rounds for the --shift phase")
    tune_parser.add_argument("--chaos", action="store_true",
                             help="arm a deterministic fault plan (transient "
                                  "faults at every seam plus one persistent "
                                  "build failure) and show the rollback, "
                                  "retry and recovery machinery at work")

    explain_parser = subparsers.add_parser(
        "explain", help="print the chosen plan for each statement "
                        "(--trace adds the execution span tree)")
    _add_scenario_argument(explain_parser)
    explain_parser.add_argument("--query", default=None,
                                help="a single XQuery/SQL-XML statement "
                                     "instead of the scenario workload")
    explain_parser.add_argument("--trace", action="store_true",
                                help="execute each statement and print the "
                                     "per-query span tree")

    metrics_parser = subparsers.add_parser(
        "metrics", help="run a scenario workload and export the telemetry "
                        "registry")
    _add_scenario_argument(metrics_parser)
    metrics_parser.add_argument("--rounds", type=int, default=1,
                                help="times to run the workload before "
                                     "exporting")
    metrics_parser.add_argument("--format", choices=("json", "prometheus"),
                                default="json", dest="output_format",
                                help="export format")
    metrics_parser.add_argument("--wall", action="store_true",
                                help="include wall-clock metrics (makes the "
                                     "output nondeterministic)")

    lint_parser = subparsers.add_parser(
        "lint", help="statically check the contract annotations "
                     "(snapshot immutability, cache invalidation, "
                     "determinism, fault coverage, telemetry)")
    lint_parser.add_argument("--format", choices=("text", "json"),
                             default="text", dest="output_format",
                             help="diagnostic output format")
    lint_parser.add_argument("--path", action="append", default=None,
                             help="file or directory to analyze (repeatable; "
                                  "default: the installed repro package)")
    return parser


def _budget_bytes(budget_kb: float) -> Optional[float]:
    if budget_kb <= 0:
        return None
    return budget_kb * 1024.0


def _command_scenarios(args: argparse.Namespace) -> int:
    if getattr(args, "json", False):
        import json

        print(json.dumps(list(list_scenarios()), indent=2))
    else:
        for name in list_scenarios():
            print(name)
    return 0


def _command_explain(args: argparse.Namespace) -> int:
    from repro.executor.executor import QueryExecutor

    scenario = build_scenario(args.scenario)
    if args.query:
        queries = [normalize_statement(args.query, query_id="cli-q1")]
    else:
        workload = _scenario_workload(args, scenario)
        queries = [q for q in normalize_workload(workload) if not q.is_update]
    executor = QueryExecutor(scenario.database)
    for query in queries:
        print(f"-- {query.query_id} --")
        plan = executor.optimizer.optimize(query)
        print(plan.render())
        if args.trace:
            result = executor.execute(query, trace=True)
            print()
            print(result.trace.render())
        print()
    return 0


def _command_metrics(args: argparse.Namespace) -> int:
    from repro.executor.executor import QueryExecutor
    from repro.telemetry import MetricsRegistry

    scenario = build_scenario(args.scenario)
    registry = MetricsRegistry()
    executor = QueryExecutor(scenario.database, registry=registry)
    workload = _scenario_workload(args, scenario)
    queries = [q for q in normalize_workload(workload) if not q.is_update]
    for _ in range(max(1, args.rounds)):
        for query in queries:
            executor.execute(query)
    if args.output_format == "prometheus":
        print(registry.to_prometheus(include_wall=args.wall), end="")
    else:
        print(registry.to_json(include_wall=args.wall))
    return 0


def _command_enumerate(args: argparse.Namespace) -> int:
    scenario = build_scenario(args.scenario)
    optimizer = Optimizer(scenario.database)
    if args.query:
        queries = [normalize_statement(args.query, query_id="cli-q1")]
    else:
        workload = _scenario_workload(args, scenario)
        queries = [q for q in normalize_workload(workload) if not q.is_update]
    results = [enumerate_indexes(query, scenario.database, optimizer)
               for query in queries]
    print(enumerate_report(results))
    return 0


def _command_recommend(args: argparse.Namespace) -> int:
    scenario = build_scenario(args.scenario)
    parameters = AdvisorParameters(disk_budget_bytes=_budget_bytes(args.budget_kb),
                                   search_algorithm=args.algorithm)
    advisor = XmlIndexAdvisor(scenario.database, parameters)
    recommendation = advisor.recommend(_scenario_workload(args, scenario))
    analysis = RecommendationAnalysis(scenario.database, recommendation)
    if args.show_candidates:
        print(candidate_report(recommendation.candidates))
        print()
    if args.show_dag:
        print(dag_report(recommendation.dag))
        print()
    print(recommendation_report(recommendation, analysis))
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as handle:
            handle.write(recommendation_to_json(recommendation, analysis))
        print(f"\nwrote JSON recommendation to {args.json_out}")
    return 0


def _command_execute(args: argparse.Namespace) -> int:
    scenario = build_scenario(args.scenario)
    parameters = AdvisorParameters(disk_budget_bytes=_budget_bytes(args.budget_kb),
                                   search_algorithm=args.algorithm)
    advisor = XmlIndexAdvisor(scenario.database, parameters)
    recommendation = advisor.recommend(_scenario_workload(args, scenario))
    print(recommendation.describe())
    print()
    measurements = measure_workload(scenario.database, recommendation.queries,
                                    recommendation.configuration)
    for measurement in measurements.values():
        print(measurement.describe())
    baseline = measurements["no-indexes"].total_seconds
    with_indexes = measurements.get("recommended")
    if with_indexes and with_indexes.total_seconds > 0:
        print(f"actual speedup: {baseline / with_indexes.total_seconds:.2f}x")
    return 0


def _chaos_plan():
    """The ``tune --chaos`` demo plan: background transient faults at
    every seam plus one persistent failure of the first physical index
    build, so a rollback and its retry/recovery are visible."""
    from repro.faults import INDEX_BUILD, FaultPlan, FaultRule

    smoke = FaultPlan.smoke(period=5)
    return FaultPlan(rules=smoke.rules + (
        FaultRule(site=INDEX_BUILD, hits=(1,), transient=False,
                  message="chaos demo: first physical build dies"),))


def _command_tune(args: argparse.Namespace) -> int:
    from repro.faults import inject
    from repro.tuning import TuningController, TuningPolicy
    from repro.workloads.xmark import xmark_unseen_queries

    scenario = build_scenario(args.scenario)
    policy = TuningPolicy(
        drift_threshold=args.drift_threshold,
        cluster_cap=args.cluster_cap,
        disk_budget_bytes=_budget_bytes(args.budget_kb),
        build_budget_bytes=(args.build_budget_kb * 1024.0
                            if args.build_budget_kb > 0 else None),
        dry_run=args.dry_run)
    controller = TuningController(scenario.database, policy=policy)

    workload = _scenario_workload(args, scenario)
    queries = normalize_workload(workload)
    with inject(_chaos_plan()) if args.chaos else _no_faults():
        if args.chaos:
            print("-- chaos mode: deterministic fault plan armed --")
        executed = controller.observe(queries, rounds=max(1, args.rounds))
        print(f"observed {executed} execution(s) of {len(queries)} "
              f"statement(s) over {max(1, args.rounds)} round(s)")
        print(controller.drift_report().describe())
        print()
        event = controller.run_cycle()
        print(event.describe())

        if args.chaos and not args.dry_run:
            # Keep observing and cycling until the containment machinery
            # has recovered from the injected build failure (bounded:
            # the backoff expires after a few observation ticks).
            for _ in range(6):
                if event.applied \
                        and not scenario.database.catalog.pending_builds:
                    break
                controller.observe(queries, rounds=1)
                event = controller.run_cycle()
                print()
                print(event.describe())

        if args.shift:
            shifted = normalize_workload(xmark_unseen_queries())
            executed = controller.observe(shifted,
                                          rounds=max(1, args.shift_rounds))
            print(f"\n-- injected workload shift: observed {executed} "
                  f"execution(s) of {len(shifted)} held-out statement(s) --")
            event = controller.run_cycle()
            print(event.describe())

        print("\naudit trail:")
        print(controller.audit_trail())
        if args.chaos:
            print("\nrobustness report:")
            print(controller.robustness_report().describe())
    live = sorted(controller.live_configuration_keys)
    print(f"\nlive configuration ({len(live)} index(es)):")
    for pattern, value_type in live:
        print(f"  {pattern} [{value_type}]")
    return 0


class _no_faults:
    """Null context for the non-chaos path (harness stays disarmed)."""

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info: object) -> None:
        return None


def _command_lint(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.analysis import analyze_paths, render_json, render_text

    paths = [Path(p) for p in args.path] if args.path else None
    context = analyze_paths(paths=paths)
    if args.output_format == "json":
        print(render_json(context.diagnostics, len(context.files)))
    else:
        print(render_text(context.diagnostics, len(context.files)))
    return 1 if context.diagnostics else 0


_COMMANDS = {
    "scenarios": _command_scenarios,
    "enumerate": _command_enumerate,
    "recommend": _command_recommend,
    "execute": _command_execute,
    "explain": _command_explain,
    "metrics": _command_metrics,
    "tune": _command_tune,
    "lint": _command_lint,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point (also installed as the ``xml-index-advisor`` script)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = _COMMANDS[args.command]
    try:
        return handler(args)
    except (QueryParseError, XPathParseError) as error:
        # A bad --query / --workload-file statement is the user's input,
        # not a crash: one line (it carries the offset), exit status 2.
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
