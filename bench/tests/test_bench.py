"""Self-tests of the benchmark, at smoke sizes.

Run from the repository root: ``python3 -m pytest bench/tests``.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys

import pytest

import bench  # noqa: F401 -- puts src/ on sys.path
from bench import compare, run
from bench.inputs import PROFILES, generate
from bench.pipeline import QueryExecutor, run_repeat

SPEC = run.load_spec()
SMOKE_SECONDS = 1.0


@pytest.fixture(scope="module")
def results():
    """Every workload once untraced and once traced."""
    return {(name, trace): run.run_workload(profile.smoke(), 42, SMOKE_SECONDS, trace)
            for name, profile in PROFILES.items() for trace in (False, True)}


def test_spec_names_are_the_ones_printed(results):
    assert [w["name"] for w in SPEC["workloads"]] == list(PROFILES)
    for kind, trace in (("end_to_end", False), ("per_layer", True)):
        names = [metric["name"] for metric in SPEC[kind]]
        assert len(set(names)) == len(names)
        for name in names + list(PROFILES):
            assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
        for workload in PROFILES:
            result = results[workload, trace]
            assert result["correct"], result["errors"]
            assert list(result["metrics"]) == names
    assert any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
               for m in SPEC["end_to_end"])


def test_end_to_end_metrics_are_never_zero(results):
    for workload in PROFILES:
        for name, value in results[workload, False]["metrics"].items():
            assert value > 0, (workload, name)


def test_layer_self_times_sum_to_the_traced_wall():
    for profile in PROFILES.values():
        repeat = run_repeat(generate(profile.smoke(), 42), 1, True)
        assert not repeat.errors
        tracer = repeat.tracer
        self_times = tracer.self_times()
        wall = sum(sum(tracer.durations("bench." + stage)) for stage in repeat.stage_s)
        layers = sum(seconds for name, seconds in self_times.items()
                     if not name.startswith("bench."))
        unattributed = sum(seconds for name, seconds in self_times.items()
                           if name.startswith("bench."))
        assert layers + unattributed == pytest.approx(wall, rel=1e-9)
        assert unattributed / wall < 0.05
        # Every span of a statement shares the statement's operation id.
        spans = tracer.export(profile.name, 1)
        for span in spans:
            if span["name"] == "executor.execute":
                assert spans[span["op"]]["name"] == "bench.statement"


def test_same_seed_same_inputs():
    profile = PROFILES["query_serving"].smoke()
    assert generate(profile, 7).sha256 == generate(profile, 7).sha256
    assert generate(profile, 7).sha256 != generate(profile, 8).sha256


def _tamper_call(monkeypatch, number, action):
    """Replace the ``number``-th ``QueryExecutor.execute`` call of the process."""
    original = QueryExecutor.execute
    calls = {"n": 0}

    def execute(self, *args, **kwargs):
        calls["n"] += 1
        if calls["n"] == number:
            return action(lambda: original(self, *args, **kwargs))
        return original(self, *args, **kwargs)

    monkeypatch.setattr(QueryExecutor, "execute", execute)


def test_planted_wrong_result_is_a_failed_operation(monkeypatch):
    def wrong(call):
        result = call()
        result.result_count += 1
        return result

    # Call 100 is a statement of repeat 0's serve phase at smoke sizes.
    _tamper_call(monkeypatch, 100, wrong)
    result = run.run_workload(PROFILES["ingest_tune"].smoke(), 42, SMOKE_SECONDS, False)
    assert result["failed"] > 0 and not result["correct"]


def test_raised_exception_fails_the_command(monkeypatch, capsys):
    def explode(call):
        raise RuntimeError("planted")

    _tamper_call(monkeypatch, 100, explode)
    monkeypatch.setenv("PYTHONHASHSEED", "0")  # main() re-executes itself otherwise
    status = run.main(["--workload", "ingest_tune", "--smoke",
                       "--seconds", str(SMOKE_SECONDS)])
    assert status == 1
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["failed"] >= 1 and last["correct"] is False


def test_compare_verdicts():
    def record(advise):
        return {"workloads": {"advisor_scaling": {
            "end_to_end": {"advise_s": {"unit": "s", "values": advise}},
            "per_layer": {}}}}

    base = [2.00, 2.02, 2.01, 1.99]

    def verdict(values):
        rows = compare.compare(record(base), record(values), SPEC)
        assert [row["metric"] for row in rows] == ["advise_s"]
        return rows[0]["verdict"]

    bound = next(m["bound"] for m in SPEC["end_to_end"] if m["name"] == "advise_s")
    assert verdict([v * (1 + bound + 0.05) for v in base]) == "regression"
    assert verdict([v * (1 + bound / 3) for v in base]) == "ok"
    assert verdict([v * 0.80 for v in base]) == "ok"
    assert verdict([1.0, 3.0, 1.5, 2.5]) == "unresolved"


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's
    own files there is nothing to measure: non-zero exit, no result."""
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    done = subprocess.run(
        [sys.executable, "-m", "bench", "--workload", "xmark_pipeline",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "{" not in done.stdout


def test_spec_meets_the_contract_limits():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert SPEC["paths"] == ["bench"]
