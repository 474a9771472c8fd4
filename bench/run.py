"""Command line of the benchmark: one workload per process.

``python3 -m bench --workload W --seed N --seconds S --trace 0|1`` sets
the inputs up, repeats the pipeline on fresh databases for about S
seconds, checks the outputs and prints every metric by name with its
unit; the last line of standard output is the JSON result.  Without
``--workload`` every workload runs, untraced and traced, each in its own
subprocess (see :func:`run_all`).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

from bench.check import Checker
from bench.inputs import GREEDY, PROFILES, Profile, generate
from bench.pipeline import Repeat, rss_mb, run_repeat
from bench.spans import write_trace

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

SETUP_REPEATS = 3
#: Repeats per run, at least: the reported value is a median over them.
MIN_REPEATS = 2
#: The sweep point whose estimated improvement is reported.
REPORTED_SHARE = 0.25


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def percentile(values: List[float], share: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def _reported_advice(repeat: Repeat):
    """The sweep point whose estimate and index count are reported."""
    return next(advice for advice in repeat.advice
                if advice.share == REPORTED_SHARE and advice.algorithm == GREEDY)


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def end_to_end_metrics(repeats: List[Repeat], setup_s: float,
                       peak_rss_mb: float) -> Dict[str, float]:
    """Medians: of the repeats for what a repeat does once (write rounds
    differ from one another, so they are summed per repeat), of the
    blocks and statements of all repeats for what it does many times.
    Exact values come from the first repeat."""
    def median(value) -> float:
        return statistics.median(value(repeat) for repeat in repeats)

    def block_rates(phase: str) -> List[float]:
        return [len(block) / sum(block)
                for repeat in repeats for block in repeat.latencies[phase]]

    latencies = [latency for repeat in repeats
                 for block in repeat.latencies["serve"] for latency in block]
    first = repeats[0]
    return {
        "setup_s": setup_s,
        "load_mb_per_s": median(lambda r: r.loaded_bytes / 1e6 / r.stage_s["load"]),
        "advise_s": median(lambda r: sum(a.seconds for a in r.advice)),
        "pipeline_s": median(lambda r: r.pipeline_s),
        "queries_per_s": statistics.median(block_rates("serve")),
        "query_p50_us": 1e6 * percentile(latencies, 0.50),
        "query_p99_us": 1e6 * percentile(latencies, 0.99),
        "scan_queries_per_s": statistics.median(block_rates("scan")),
        "ingest_docs_per_s": median(lambda r: r.writes / sum(r.round_s)),
        "peak_rss_mb": peak_rss_mb,
        "bytes_per_data_byte": (first.columnar_bytes + first.index_bytes)
        / first.loaded_bytes,
        "est_improvement_pct": _reported_advice(first).improvement_pct,
    }


def per_layer_metrics(traced: List[Repeat], untraced: List[Repeat],
                      repeats: List[Repeat]) -> Dict[str, float]:
    """Span self times as medians over the traced repeats; counts from
    the first traced repeat (its inputs are the same in every run)."""
    times = [repeat.tracer.self_times() for repeat in traced]

    def self_s(name: str) -> float:
        return statistics.median(t.get(name, 0.0) for t in times)

    def ratio(hits: float, misses: float) -> float:
        return hits / (hits + misses) if hits + misses else 0.0

    first = traced[0]
    count = first.counters.get
    tracer = first.tracer
    full = first.advice[0]
    statement_s = sorted(tracer.durations("bench.statement"))
    catchup = sum(first.barrier_s) - len(first.barrier_s) * (
        statement_s[len(statement_s) // 2] if statement_s else 0.0)
    traced_pipeline_s = statistics.median(r.pipeline_s for r in traced)
    unattributed = sum(self_s(name) for name in times[0] if name.startswith("bench."))
    parse_s = self_s("xmldb.parse")
    return {
        "xmldb.parse_s": parse_s,
        "xmldb.parse_mb_per_s": first.parsed_bytes / 1e6 / parse_s,
        "xmldb.nodes_parsed": first.nodes_parsed,
        "storage.add_s": self_s("storage.add"),
        "storage.summary_build_s": self_s("storage.summary_build"),
        "storage.columnar_build_s": self_s("storage.columnar_build"),
        "storage.statistics_build_s": self_s("storage.statistics_build"),
        "storage.nodes": first.nodes_loaded,
        "storage.distinct_paths": first.distinct_paths,
        "storage.columnar_bytes": first.columnar_bytes,
        "storage.load_rss_delta_mb": max(r.load_rss_delta_mb for r in repeats),
        "storage.delta_write_s": self_s("storage.delta_write"),
        "storage.deltas_applied": first.writes,
        "storage.projection_builds": count("columnar.projection.builds", 0),
        "xquery.normalize_s": self_s("xquery.normalize"),
        "xquery.statements_normalized": len(tracer.durations("xquery.normalize")),
        "optimizer.plan_s": self_s("optimizer.plan"),
        "optimizer.plan_calls": count("optimizer.plan.calls", 0),
        "optimizer.plan_cache_hit_ratio": ratio(
            count("optimizer.plan_cache.hits", 0),
            count("optimizer.plan_cache.misses", 0)),
        "advisor.normalize_s": self_s("advisor.normalize"),
        "advisor.enumerate_s": self_s("advisor.enumerate"),
        "advisor.generalize_s": self_s("advisor.generalize"),
        "advisor.search_greedy_heuristic_s": self_s("advisor.search_greedy_heuristic"),
        "advisor.search_top_down_s": self_s("advisor.search_top_down"),
        "advisor.basic_candidates": full.basic_candidates,
        "advisor.total_candidates": full.total_candidates,
        "advisor.whatif_costings": count("evaluator.whatif.costings", 0),
        "advisor.delta_evaluations": count("evaluator.whatif.delta_evaluations", 0),
        "advisor.memo_hit_ratio": ratio(count("evaluator.memo.hits", 0),
                                        count("evaluator.memo.misses", 0)),
        "advisor.recommended_indexes": len(_reported_advice(first).summary[0]),
        "index.build_s": self_s("index.build"),
        "index.count": len(tracer.durations("index.build")),
        "index.entries": first.index_entries,
        "index.bytes": first.index_bytes,
        "executor.execute_s": self_s("executor.execute"),
        "executor.catchup_s": catchup,
        "executor.index_plan_share": first.index_plan_share,
        "executor.docs_examined_per_result": first.docs_examined_per_result,
        "executor.index_entries_per_result": first.index_entries_per_result,
        "executor.scan_fallbacks": count("executor.scan.fallbacks", 0),
        "executor.node_materializations":
            count("executor.scan.node_materializations", 0),
        "executor.index_rebuilds": count("executor.index.rebuilds", 0),
        "executor.index_delta_maintenances":
            count("executor.index.delta_maintenances", 0),
        "tuning.cycle_s": self_s("tuning.cycle"),
        "tuning.cycles": len(tracer.durations("tuning.cycle")),
        "tuning.migrations": count("tuning.migration.applied", 0),
        "tuning.index_builds": first.tuning_builds,
        "tuning.index_drops": first.tuning_drops,
        "tuning.monitor_recorded": count("tuning.monitor.recorded", 0),
        "bench.trace_overhead_ratio":
            traced_pipeline_s / statistics.median(r.pipeline_s for r in untraced),
        "bench.unattributed_share": unattributed / traced_pipeline_s,
    }


# ----------------------------------------------------------------------
# One workload
# ----------------------------------------------------------------------
def run_workload(profile: Profile, seed: int, seconds: float, trace: bool,
                 trace_path: Optional[Path] = None) -> dict:
    """Set up, measure for about ``seconds``, check; returns the result
    (the four keys of the contract plus ``inputs_sha256`` and ``errors``)."""
    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        inputs = generate(profile, seed)
        setup_times.append(perf_counter() - start)
    setup_s = statistics.median(setup_times)

    checker = Checker()
    repeats = []
    start = perf_counter()
    # Repeat 0 pays the process's cold caches and lazy imports: it is
    # never traced, and it is the one interrupted for the advice check.
    repeats.append(run_repeat(inputs, 0, False, after_advise=checker.recommendations))
    first_wall = perf_counter() - start
    if trace:
        pairs = max(1, round((seconds - first_wall) / (2 * first_wall)))
        plan = [True, False] * pairs
    else:
        plan = [False] * (max(MIN_REPEATS, round(seconds / first_wall)) - 1)
    for traced in plan:
        checker.phases_agree(repeats[-1])
        repeats[-1].release()
        repeats.append(run_repeat(inputs, len(repeats), traced))
    peak_rss_mb = rss_mb()
    checker.phases_agree(repeats[-1])

    complete = [r for r in repeats if "scan" in r.stage_s]  # reached the last stage
    checker.documents(inputs)
    if complete:
        checker.repeats_agree(complete)
    if repeats[-1] in complete:
        checker.final_state(inputs, repeats[-1])
    attempted = checker.attempted + sum(r.attempted for r in repeats)
    failed = checker.failed + sum(r.failed for r in repeats)
    errors = checker.errors + [e for r in repeats for e in r.errors][:20]

    metrics: Dict[str, float] = {}
    traced_repeats = [r for r in complete if r.traced]
    if trace and traced_repeats:
        # Repeat 0 is cold, so it is left out of the overhead ratio.
        warm_untraced = [r for r in complete if not r.traced and r.index] or complete
        metrics = per_layer_metrics(traced_repeats, warm_untraced, complete)
        if trace_path is not None:
            trace_path.parent.mkdir(parents=True, exist_ok=True)
            write_trace(trace_path, [span for r in traced_repeats
                                     for span in r.tracer.export(profile.name, r.index)])
    elif complete and not trace:
        metrics = end_to_end_metrics(complete, setup_s, peak_rss_mb)
    return {"correct": failed == 0 and bool(metrics), "attempted": attempted,
            "failed": failed, "metrics": metrics,
            "inputs_sha256": inputs.sha256, "repeats": len(repeats),
            "errors": errors}


def _print_result(result: dict, units: Dict[str, str]) -> None:
    print(f"inputs_sha256 {result['inputs_sha256']}")
    print(f"repeats {result['repeats']}")
    for name, value in result["metrics"].items():
        print(f"{name:40s} {value:>16.6g} {units[name]}")
    fail_share = result["failed"] / max(1, result["attempted"])
    print(f"{'fail_share':40s} {fail_share:>16.6g} ratio "
          f"({result['failed']} of {result['attempted']})")
    for error in result["errors"]:
        print(f"FAILED {error}", file=sys.stderr)
    print(json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result["metrics"].items()}}))


# ----------------------------------------------------------------------
# Every workload, each in a fresh subprocess
# ----------------------------------------------------------------------
def run_all(args, spec: dict) -> int:
    """Run every workload ``--runs`` times (run *i* uses seed + *i*),
    untraced and traced, one subprocess each so that caches never leak
    between workloads and the peak RSS is the workload's own.  Writes
    the values to ``--record`` for ``python3 -m bench.compare``."""
    environment = dict(os.environ, PYTHONHASHSEED="0")
    record = {"seed": args.seed, "runs": args.runs, "seconds": args.seconds,
              "smoke": args.smoke, "workloads": {}}
    status = 0
    for workload in (w["name"] for w in spec["workloads"]):
        entry = record["workloads"][workload] = {"end_to_end": {}, "per_layer": {}}
        for run in range(args.runs):
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                command = [sys.executable, str(BENCH_DIR / "__main__.py"),
                           "--workload", workload, "--seed", str(args.seed + run),
                           "--seconds", str(args.seconds), "--trace", str(trace)]
                if args.smoke:
                    command.append("--smoke")
                done = subprocess.run(command, env=environment, cwd=ROOT,
                                      capture_output=True, text=True)
                sys.stderr.write(done.stderr)
                if done.returncode != 0:
                    status = 1
                lines = done.stdout.strip().splitlines()
                if not lines or not lines[-1].startswith("{"):
                    print(f"{workload}: no result (exit {done.returncode})")
                    continue
                for name, metric in json.loads(lines[-1])["metrics"].items():
                    entry[kind].setdefault(
                        name, {"unit": metric["unit"], "values": []}
                    )["values"].append(metric["value"])
        print(f"== {workload}")
        for kind in ("end_to_end", "per_layer"):
            for name, metric in entry[kind].items():
                values = metric["values"]
                print(f"{name:40s} {statistics.median(values):>16.6g} {metric['unit']:8s}"
                      f" min {min(values):.6g} max {max(values):.6g} n {len(values)}")
    record_path = Path(args.record)
    record_path.parent.mkdir(parents=True, exist_ok=True)
    with open(record_path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    print(f"record written to {record_path}")
    return status


# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = argparse.ArgumentParser(prog="python3 -m bench", description=__doc__)
    parser.add_argument("--workload", help="run this workload only, in this process")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=None,
                        help="time to measure (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="record spans, print per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the self-tests only")
    parser.add_argument("--runs", type=int, default=1,
                        help="without --workload: runs per workload")
    parser.add_argument("--record", default=str(OUT_DIR / "record.json"),
                        help="without --workload: where the values are written")
    args = parser.parse_args(argv)

    spec = load_spec()
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else float(spec["run_seconds"])
    if args.workload is None:
        return run_all(args, spec)

    if os.environ.get("PYTHONHASHSEED") != "0":
        # Set iteration order must not differ between runs.
        os.execve(sys.executable,
                  [sys.executable, str(BENCH_DIR / "__main__.py"), *argv],
                  dict(os.environ, PYTHONHASHSEED="0"))
    if args.workload not in PROFILES:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(PROFILES)}")
    profile = PROFILES[args.workload]
    if args.smoke:
        profile = profile.smoke()
    kind = "per_layer" if args.trace else "end_to_end"
    units = {metric["name"]: metric["unit"] for metric in spec[kind]}
    result = run_workload(profile, args.seed, args.seconds, bool(args.trace),
                          OUT_DIR / f"trace-{profile.name}.json")
    if not result["metrics"]:
        for error in result["errors"]:
            print(f"FAILED {error}", file=sys.stderr)
        print("bench: no repeat completed", file=sys.stderr)
        return 1
    _print_result(result, units)
    return 0 if result["correct"] else 1
