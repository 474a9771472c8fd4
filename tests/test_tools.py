"""Tests for the text reports and the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.advisor.advisor import XmlIndexAdvisor
from repro.advisor.analysis import RecommendationAnalysis
from repro.advisor.config import AdvisorParameters
from repro.index.definition import IndexDefinition
from repro.optimizer.explain import enumerate_indexes, evaluate_indexes
from repro.tools.cli import build_parser, main
from repro.tools.report import (
    candidate_report,
    dag_report,
    enumerate_report,
    evaluate_report,
    recommendation_report,
    render_table,
)
from repro.xquery.model import ValueType, Workload
from repro.xquery.normalizer import normalize_statement


@pytest.fixture(scope="module")
def report_recommendation(varied_database):
    workload = Workload(name="rep")
    workload.add('for $i in doc("x")/site/regions/africa/item '
                 'where $i/quantity > 90 return $i/name', frequency=2.0)
    workload.add('for $p in doc("x")/site/people/person '
                 'where $p/@id = "p5" return $p/name', frequency=3.0)
    advisor = XmlIndexAdvisor(varied_database,
                              AdvisorParameters(disk_budget_bytes=32 * 1024))
    return advisor.recommend(workload)


class TestRenderTable:
    def test_alignment_and_separator(self):
        table = render_table(["a", "bb"], [["x", 1.5], ["yyyyyyyy", 2]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert set(lines[1].replace(" ", "")) == {"-"}
        assert "1.5" in table

    def test_ragged_rows_padded(self):
        table = render_table(["a", "b", "c"], [["only"]])
        assert "only" in table


class TestReports:
    def test_enumerate_report(self, varied_database):
        query = normalize_statement(
            'for $i in doc("x")/site/regions/africa/item '
            'where $i/quantity > 90 return $i/name')
        result = enumerate_indexes(query, varied_database)
        report = enumerate_report([result])
        assert "/site/regions/africa/item/quantity" in report
        assert "DOUBLE" in report

    def test_evaluate_report(self, varied_database):
        query = normalize_statement(
            'for $p in doc("x")/site/people/person where $p/@id = "p5" return $p/name')
        result = evaluate_indexes(query, varied_database, [
            IndexDefinition.create("/site/people/person/@id", ValueType.VARCHAR)])
        report = evaluate_report([result])
        assert "estimated cost" in report
        assert "/site/people/person/@id" in report

    def test_candidate_and_dag_reports(self, report_recommendation):
        candidates = candidate_report(report_recommendation.candidates)
        assert "basic" in candidates
        dag = dag_report(report_recommendation.dag)
        assert "generalization DAG" in dag

    def test_recommendation_report_with_analysis(self, varied_database,
                                                 report_recommendation):
        analysis = RecommendationAnalysis(varied_database, report_recommendation)
        report = recommendation_report(report_recommendation, analysis)
        assert "CREATE INDEX" in report
        assert "workload improvement" in report
        assert "overtrained" in report

    def test_recommendation_report_without_analysis(self, report_recommendation):
        report = recommendation_report(report_recommendation)
        assert "DDL" in report


class TestCli:
    def test_parser_subcommands(self):
        parser = build_parser()
        args = parser.parse_args(["recommend", "--scenario", "xmark-small",
                                  "--budget-kb", "128", "--algorithm", "top-down"])
        assert args.command == "recommend"
        assert args.budget_kb == pytest.approx(128.0)

    def test_scenarios_command(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        assert "xmark-small" in out

    def test_enumerate_command_with_single_query(self, capsys):
        code = main(["enumerate", "--scenario", "xmark-small", "--query",
                     'for $i in doc("x")/site/regions/africa/item '
                     'where $i/quantity > 7 return $i/name'])
        assert code == 0
        out = capsys.readouterr().out
        assert "/site/regions/africa/item/quantity" in out

    def test_recommend_command(self, capsys):
        code = main(["recommend", "--scenario", "xmark-small",
                     "--budget-kb", "128", "--show-candidates"])
        assert code == 0
        out = capsys.readouterr().out
        assert "CREATE INDEX" in out
        assert "workload improvement" in out

    def test_invalid_algorithm_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["recommend", "--algorithm", "bogus"])

    def test_tune_command_dry_run(self, capsys):
        code = main(["tune", "--scenario", "xmark-small", "--rounds", "2",
                     "--budget-kb", "96", "--dry-run"])
        assert code == 0
        out = capsys.readouterr().out
        assert "drift" in out
        assert "migration plan" in out
        assert "audit trail" in out
        # Dry run: the plan is only reported, nothing was configured.
        assert "live configuration (0 index(es))" in out

    def test_tune_command_applies_migration(self, capsys):
        code = main(["tune", "--scenario", "xmark-small", "--rounds", "2",
                     "--budget-kb", "96"])
        assert code == 0
        out = capsys.readouterr().out
        assert "cycle 1" in out and "migrated" in out
        assert "live configuration (0 index(es))" not in out


class TestTelemetryCli:
    def test_scenarios_json(self, capsys):
        assert main(["scenarios", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert isinstance(payload, list)
        assert "xmark-small" in payload

    def test_metrics_json_is_deterministic(self, capsys):
        assert main(["metrics", "--scenario", "xmark-small",
                     "--rounds", "2"]) == 0
        first = capsys.readouterr().out
        assert main(["metrics", "--scenario", "xmark-small",
                     "--rounds", "2"]) == 0
        second = capsys.readouterr().out
        assert first == second
        payload = json.loads(first)
        assert payload["executor.queries.executed"]["value"] > 0
        assert payload["optimizer.plan.calls"]["value"] > 0
        # Wall-derived metrics are excluded from the default export.
        assert "executor.query.seconds" not in payload
        assert "executor.query.documents_examined" in payload

    def test_metrics_prometheus_format(self, capsys):
        assert main(["metrics", "--scenario", "xmark-small",
                     "--format", "prometheus"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE executor_queries_executed counter" in out
        assert "executor_query_seconds" not in out

    def test_metrics_wall_flag_includes_timings(self, capsys):
        assert main(["metrics", "--scenario", "xmark-small", "--wall"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "executor.query.seconds" in payload

    def test_explain_renders_plan(self, capsys):
        code = main(["explain", "--scenario", "xmark-small", "--query",
                     'for $i in doc("x")/site/regions/africa/item '
                     'where $i/quantity > 7 return $i/name'])
        assert code == 0
        out = capsys.readouterr().out
        assert "-- cli-q1 --" in out
        assert "query" not in out.splitlines()  # no trace without --trace

    @pytest.mark.parametrize("command", ["explain", "recommend", "tune", "enumerate"])
    def test_bad_statement_is_one_error_line_and_exit_2(self, command, capsys,
                                                        tmp_path):
        if command in ("explain", "enumerate"):
            source = ["--query", "/site/people/person["]
            offset = "at offset 20"
        else:
            workload = tmp_path / "bad.txt"
            workload.write_text('for $p in doc("x")/site/people/person '
                                'where $p/age > 1.2.3 return $p/name;\n')
            source = ["--workload-file", str(workload)]
            offset = "at offset 9"
        assert main([command, "--scenario", "xmark-small", *source]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert offset in captured.err
        assert "Traceback" not in captured.err + captured.out

    def test_over_nested_statement_is_one_error_line(self, capsys):
        from repro.xpath.parser import MAX_NESTING

        levels = MAX_NESTING + 200
        query = ("/site/people/person[" + "(" * levels + "age > 5"
                 + ")" * levels + "]/name")
        assert main(["explain", "--scenario", "xmark-small",
                     "--query", query]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert "nesting deeper than" in captured.err
        assert "Traceback" not in captured.err + captured.out

    def test_explain_trace_renders_span_tree(self, capsys):
        code = main(["explain", "--scenario", "xmark-small", "--trace",
                     "--query",
                     'for $i in doc("x")/site/regions/africa/item '
                     'where $i/quantity > 7 return $i/name'])
        assert code == 0
        out = capsys.readouterr().out
        for name in ("compile", "plan", "route", "scan"):
            assert f"  {name}" in out
        assert "plan_shape=" in out

    def test_tune_reports_cache_statistics(self, capsys):
        code = main(["tune", "--scenario", "xmark-small", "--rounds", "1",
                     "--budget-kb", "96", "--dry-run"])
        assert code == 0
        out = capsys.readouterr().out
        assert "plan cache" in out
        assert "evaluator memo" in out
