"""Experiment execution: fan-out equality, failure isolation, reuse.

Independent row nodes run through the DAG scheduler — the one experiment
executor — on the engine's seeding, store and worker substrate. The
runners here are module-level on purpose — nodes must pickle into spawn
workers, which is exactly the constraint the scheduler imposes on
``tables.py``.
"""

import time

import pytest

from repro.experiments import scheduler
from repro.experiments.dag import ArtifactGraph, DagNode, TableRequest
from repro.experiments.engine import derive_row_seed
from repro.experiments.scheduler import run_graph, run_requests

pytestmark = pytest.mark.harness


def _metric_row(row_seed, base, log_path=None):
    if log_path is not None:
        with open(log_path, "a") as fh:
            fh.write("call\n")
    return {"score": (row_seed * 31 + base) % 997 / 997.0}


def _raising_row(row_seed):
    raise ValueError("poisoned")


def _oom_row(row_seed):
    raise MemoryError


def _hanging_row(row_seed):
    time.sleep(120.0)
    return {}


def _row(name, runner=_metric_row, table_seed=0, **kwargs):
    return DagNode(kind="row", name=name, runner=runner, kwargs=kwargs,
                   static={"Method": f"m-{name}"},
                   seed=derive_row_seed(table_seed, name))


def _nodes(n, table_seed=0, base=0, log_path=None):
    extra = {"log_path": str(log_path)} if log_path is not None else {}
    return [_row(f"row{i}", table_seed=table_seed, base=base + i, **extra)
            for i in range(n)]


def _graph(nodes):
    graph = ArtifactGraph()
    for node in nodes:
        graph.add(node)
    return graph


def _request(nodes):
    return TableRequest(table="t", nodes=nodes,
                        row_names=[node.name for node in nodes])


def _calls(log_path):
    try:
        return len(log_path.read_text().splitlines())
    except OSError:
        return 0


def _strip_seconds(rows):
    return [{k: v for k, v in row.items() if k != "seconds"} for row in rows]


def test_row_seeds_are_stable_and_sharded():
    # Pinned: derived seeds are part of the artifact-digest contract.
    assert derive_row_seed(0, "row0") == 1548062754
    assert derive_row_seed(1, "row0") == 2085109840
    assert derive_row_seed(0, "row1") == 2127226448


def test_parallel_rows_equal_serial_rows():
    nodes = _nodes(6, table_seed=3)
    serial = run_requests([_request(nodes)], jobs=1, use_cache=False)["t"]
    parallel = run_requests([_request(nodes)], jobs=4, use_cache=False)["t"]
    assert _strip_seconds(parallel) == _strip_seconds(serial)
    assert [row["Method"] for row in serial] == [
        f"m-row{i}" for i in range(6)]
    assert all("seconds" in row for row in serial)
    report = scheduler.take_last_dag_report()
    assert report.jobs == 4 and report.executed == 6 and report.errors == 0


def test_poisoned_rows_do_not_kill_the_table():
    nodes = _nodes(4)
    nodes[1] = _row("boom", runner=_raising_row)
    nodes[2] = _row("oom", runner=_oom_row)
    results = run_graph(_graph(nodes), jobs=2, use_cache=False)
    assert results["boom"]["metrics"]["error"] == "ValueError: poisoned"
    # MemoryError -> the papers' literal "-"
    assert results["oom"]["metrics"]["error"] == "-"
    assert "score" in results["row0"]["metrics"]
    assert "score" in results["row3"]["metrics"]
    assert scheduler.take_last_dag_report().errors == 2


def test_hung_row_times_out_without_killing_the_table():
    nodes = _nodes(3)
    nodes[1] = _row("hang", runner=_hanging_row)
    # The per-node deadline starts at dispatch, so it also covers worker
    # startup — keep it comfortably above spawn+import cost.
    results = run_graph(_graph(nodes), jobs=2, use_cache=False,
                        timeout=15.0)
    assert results["hang"]["metrics"]["error"] == "timeout after 15s"
    assert "score" in results["row0"]["metrics"]
    assert "score" in results["row2"]["metrics"]
    report = scheduler.take_last_dag_report()
    assert report.statuses["hang"] == "error" and report.errors == 1


def test_warm_memo_store_runs_zero_factories(tmp_path):
    log = tmp_path / "calls.log"
    store = tmp_path / "rows"
    cold = run_graph(_graph(_nodes(4, log_path=log)), jobs=1,
                     use_cache=True, cache_dir=store)
    assert _calls(log) == 4
    assert scheduler.take_last_dag_report().executed == 4

    # A fresh graph in the same process: reuse comes from the disk store.
    warm = run_graph(_graph(_nodes(4, log_path=log)), jobs=2,
                     use_cache=True, cache_dir=store)
    assert _calls(log) == 4  # zero new factory calls
    report = scheduler.take_last_dag_report()
    assert report.reused == 4 and report.executed == 0
    assert warm == cold  # seconds included: payloads are replayed verbatim


def test_fresh_store_reuses_nothing_from_an_earlier_call(tmp_path):
    # The store is the cache directory alone: a second call in the same
    # process pointed at an empty directory executes every node.
    run_graph(_graph(_nodes(3)), jobs=1, use_cache=True,
              cache_dir=tmp_path / "first")
    assert scheduler.take_last_dag_report().executed == 3
    run_graph(_graph(_nodes(3)), jobs=1, use_cache=True,
              cache_dir=tmp_path / "second")
    report = scheduler.take_last_dag_report()
    assert report.executed == 3 and report.reused == 0


def test_seed_and_kwargs_changes_bust_reuse(tmp_path):
    log = tmp_path / "calls.log"
    store = tmp_path / "rows"
    run_graph(_graph(_nodes(2, log_path=log)), jobs=1, cache_dir=store,
              use_cache=True)
    assert _calls(log) == 2

    run_graph(_graph(_nodes(2, table_seed=1, log_path=log)), jobs=1,
              cache_dir=store, use_cache=True)
    assert _calls(log) == 4  # new table seed -> recomputed

    run_graph(_graph(_nodes(2, base=10, log_path=log)), jobs=1,
              cache_dir=store, use_cache=True)
    assert _calls(log) == 6  # new runner kwargs -> recomputed

    run_graph(_graph(_nodes(2, log_path=log)), jobs=1, cache_dir=store,
              use_cache=True)
    assert _calls(log) == 6  # the original nodes are still stored


def test_errors_are_never_memoized(tmp_path):
    store = tmp_path / "rows"
    for _ in range(2):
        run_graph(_graph([_row("boom", runner=_raising_row)]), jobs=1,
                  use_cache=True, cache_dir=store)
        report = scheduler.take_last_dag_report()
        assert report.errors == 1 and report.reused == 0  # re-attempted


def test_static_rows_pass_through():
    node = DagNode(kind="row", name="static",
                   static={"Method": "TextGCN", "Micro-F1": "-"})
    rows = run_requests([_request([node])], jobs=1, use_cache=False)["t"]
    assert rows == [{"Method": "TextGCN", "Micro-F1": "-", "seconds": 0.0}]
