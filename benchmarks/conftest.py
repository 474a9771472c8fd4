"""Shared fixtures for the experiment benchmarks (E1-E9).

Each ``bench_eN_*.py`` module reproduces one experiment from DESIGN.md's
experiment index.  The fixtures here build the benchmark databases and
workloads once per session so the numbers across benches are comparable,
and provide a small helper for printing the result tables that
EXPERIMENTS.md records.
"""

from __future__ import annotations

import os
import sys

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

import pytest

from repro.workloads import (
    TpoxConfig,
    XMarkConfig,
    generate_tpox_database,
    generate_xmark_database,
    tpox_workload,
    xmark_query_workload,
    xmark_unseen_queries,
)

def _env_float(name: str, default: float) -> float:
    """Read a float-valued env override (ignored when unparsable)."""
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return float(raw)
    except ValueError:
        return default


#: Smoke mode (``REPRO_BENCH_SMOKE=1``) caps every workload size so the
#: benchmark bodies double as fast regression checks; explicit
#: ``REPRO_BENCH_XMARK_SCALE`` / ``REPRO_BENCH_TPOX_SCALE`` overrides win.
BENCH_SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "").lower() not in ("", "0", "false")

#: Scale used by the benchmarks: big enough that index plans clearly win,
#: small enough that the whole benchmark suite runs in well under a minute.
XMARK_SCALE = _env_float("REPRO_BENCH_XMARK_SCALE", 0.05 if BENCH_SMOKE else 0.25)
#: TPoX stays at the full scale even in smoke mode: the collection-
#: scoped cost model no longer charges a query for scanning the other
#: two TPoX collections, so each collection must hold enough documents
#: that selective indexes beat the (much cheaper) routed scans -- at
#: tiny scales the advisor correctly recommends nothing, which defeats
#: the update-ratio and search benches.  Generation at 0.25 is cheap
#: (a few hundred small documents).
TPOX_SCALE = _env_float("REPRO_BENCH_TPOX_SCALE", 0.25)

#: Minimum accepted interpreter-vs-engine scan speedup.  At the full
#: benchmark scale the engine wins by ~10x, so 5x leaves headroom; at
#: the tiny smoke scales runs are noisy and the floor is conservative.
MIN_SUMMARY_SPEEDUP = 2.0 if BENCH_SMOKE else 5.0


@pytest.fixture(scope="session")
def xmark_db():
    return generate_xmark_database(XMarkConfig(scale=XMARK_SCALE, seed=42))


@pytest.fixture(scope="session")
def xmark_train():
    return xmark_query_workload()


@pytest.fixture(scope="session")
def xmark_unseen():
    return xmark_unseen_queries()


@pytest.fixture(scope="session")
def tpox_db():
    return generate_tpox_database(TpoxConfig(scale=TPOX_SCALE, seed=7))


@pytest.fixture(scope="session")
def tpox_mixed():
    return tpox_workload(update_ratio=0.3)


def print_section(title: str, body: str) -> None:
    """Print a labeled result block (captured into bench_output.txt)."""
    bar = "=" * max(30, len(title) + 4)
    print(f"\n{bar}\n  {title}\n{bar}\n{body}\n", flush=True)
