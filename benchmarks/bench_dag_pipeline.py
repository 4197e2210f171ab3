"""DAG pipeline wall-clock: cold build vs dirty subgraph vs fully warm.

Two corpus-sharing tables (lotclass-predictions and xclass-data both
consume the agnews profile) are compiled into ONE artifact graph and
pushed through the DAG scheduler three times against the same artifact
store:

- **cold** — empty store, serial: every node executes. This is the
  bit-identity baseline the other runs are compared against.
- **dirty** — one row node is forced to recompute (the ``--select``
  mechanism); everything else is reused from the store, so the run
  measures exactly the dirty-subgraph cost. Must beat cold by the
  host-calibrated floor (base 3x, relaxed on jittery hosts, never below
  1.5x) — the headline number of the incremental pipeline.
- **warm** — nothing forced, ``jobs=4``: the scheduler must execute
  ZERO nodes and still return rows bit-identical to cold serial.

The cross-table dedup ratio (declared nodes / unique nodes after the
shared-graph merge) is recorded alongside; it exceeds 1.0 whenever two
tables share a corpus or encode artifact.

Writes ``benchmarks/BENCH_dag_pipeline.json`` via the shared writer.
Runnable standalone: ``python benchmarks/bench_dag_pipeline.py``.
"""

import tempfile
import time

import hostcal
from conftest import write_bench_artifact

from repro.experiments import scheduler, tables

#: Both tables declare corpus:agnews@0, so the shared graph merges it.
BENCH_TABLES = ("lotclass-predictions", "xclass-data")
#: The node forced to recompute in the dirty run (one stats row).
DIRTY_SELECT = ["xclass-data.yelp/stats"]

DIRTY_SPEEDUP_BASE = 3.0
DIRTY_SPEEDUP_MIN = 1.5


def _run(cache_dir, *, jobs=1, select=None):
    requests = [tables.REQUESTS[name](0, True) for name in BENCH_TABLES]
    start = time.perf_counter()
    results = scheduler.run_requests(requests, jobs=jobs, use_cache=True,
                                     cache_dir=cache_dir, select=select)
    seconds = time.perf_counter() - start
    return results, scheduler.take_last_dag_report(), seconds


def _strip(results):
    return {table: [{k: v for k, v in row.items() if k != "seconds"}
                    for row in rows]
            for table, rows in results.items()}


def test_dag_pipeline_speedups():
    cache_dir = tempfile.mkdtemp(prefix="repro-bench-dag-")

    cold, cold_report, cold_s = _run(cache_dir, jobs=1)
    dirty, dirty_report, dirty_s = _run(cache_dir, jobs=1,
                                        select=DIRTY_SELECT)
    warm, warm_report, warm_s = _run(cache_dir, jobs=4)

    assert _strip(dirty) == _strip(cold)
    assert _strip(warm) == _strip(cold)
    assert cold_report.errors == 0
    assert dirty_report.executed == len(DIRTY_SELECT)
    assert warm_report.executed == 0

    probes = hostcal.calibrate()
    min_dirty_speedup = round(
        min(DIRTY_SPEEDUP_BASE,
            max(DIRTY_SPEEDUP_MIN, DIRTY_SPEEDUP_BASE / probes["jitter"])),
        2)
    dedup_ratio = round(
        (cold_report.nodes + cold_report.merged) / cold_report.nodes, 3)

    report = {
        "tables": list(BENCH_TABLES),
        "dirty_select": DIRTY_SELECT,
        "nodes_total": cold_report.nodes,
        "nodes_merged": cold_report.merged,
        "nodes_executed_cold": cold_report.executed,
        "nodes_executed_dirty": dirty_report.executed,
        "nodes_executed_warm": warm_report.executed,
        "cold_seconds": round(cold_s, 2),
        "dirty_seconds": round(dirty_s, 2),
        "warm_seconds": round(warm_s, 3),
        "dirty_speedup": round(cold_s / max(dirty_s, 1e-9), 2),
        "warm_speedup": round(cold_s / max(warm_s, 1e-9), 2),
        "min_dirty_speedup": min_dirty_speedup,
        "dedup_ratio": dedup_ratio,
        "calibration": probes,
    }
    write_bench_artifact("dag_pipeline", report)
    print()
    print("dag pipeline bench:", report)

    assert report["dedup_ratio"] > 1.0
    assert report["dirty_speedup"] >= min_dirty_speedup
    assert report["warm_speedup"] >= min_dirty_speedup


if __name__ == "__main__":
    test_dag_pipeline_speedups()
