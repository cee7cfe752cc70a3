"""Smoke tests of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

run.use_checkout_source()

import reference  # noqa: E402
import workloads  # noqa: E402
from layers import PER_LAYER  # noqa: E402


def tiny(name: str, seed: int = 3):
    if name == "chain":
        return workloads.ChainWorkload(seed, records=400)
    if name == "hybrid_windows":
        return workloads.HybridWindowsWorkload(
            seed, history=1_200, live=300, rate=3_000.0, users=30,
            checkpoint_interval_ms=20)
    return workloads.TableQueriesWorkload(seed, rows=300, users=20,
                                          queries=8)


NAMES = sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("name", NAMES)
def test_tiny_workload_passes_its_reference_check(name, tmp_path):
    workload = tiny(name)
    job = workload.run(str(tmp_path))
    assert job.expected == workload.expected_rows > 0
    assert job.failed == 0
    assert job.latencies_ms and min(job.latencies_ms) >= 0.0
    assert job.started < job.first_pull <= job.drained <= job.finished


def _corrupt_first_call(target: str):
    """A ``wrap`` that spoils the first result of the function called
    ``target`` (per process) and leaves everything else alone."""

    def wrap(fn):
        label = getattr(fn, "__name__", type(fn).__name__)
        if label != target:
            return fn
        spoiled = []

        def corrupted(value, *rest):
            if spoiled:
                return fn(value, *rest)
            spoiled.append(True)
            if target == "chain_tag":
                index, amount, created = fn(value)
                return (index, amount + 1, created)
            if target == "hybrid_line":
                fields = fn(value).split("|")
                fields[4] = str(int(fields[4]) + 1)
                return "|".join(fields)
            row = dict(value)  # a table sink receives result rows
            for column, cell in row.items():
                if isinstance(cell, (int, float)) and column != "newest":
                    row[column] = cell + 1
                    break
            return fn(row)

        return corrupted

    return wrap


@pytest.mark.parametrize("name,target", [("chain", "chain_tag"),
                                         ("hybrid_windows", "hybrid_line"),
                                         ("table_queries", "Collector")])
def test_corrupted_output_is_caught(name, target, tmp_path):
    workload = tiny(name)
    job = workload.run(str(tmp_path), _corrupt_first_call(target))
    assert job.failed >= 1


def test_count_failed_scores_missing_wrong_and_surplus_rows():
    expected = [("a", 1), ("b", 2), ("b", 2)]
    assert reference.count_failed(expected, expected) == 0
    assert reference.count_failed(expected, expected[:2]) == 1
    assert reference.count_failed(expected, [("a", 1), ("b", 2),
                                             ("b", 3)]) == 1
    assert reference.count_failed(expected, expected + [("c", 0)]) == 1
    assert reference.count_failed(expected, []) == 3


class _FailsOnce:
    """A workload whose first job run raises."""

    name = "chain"

    def __init__(self) -> None:
        self._inner = tiny("chain")
        self.expected_rows = self._inner.expected_rows
        self.calls = 0

    def run(self, workdir, wrap=workloads.no_wrap):
        self.calls += 1
        if self.calls == 1:
            raise RuntimeError("injected job failure")
        return self._inner.run(workdir, wrap)


def test_a_job_run_that_raises_counts_as_failed(tmp_path):
    workload = _FailsOnce()
    result = run.measure(workload, 0.0, False, str(tmp_path),
                         lambda text: None)
    assert result["failed"] == workload.expected_rows
    assert result["attempted"] == workload.expected_rows * workload.calls
    assert result["summary"]["runs"] == run.MIN_RUNS


def test_reported_figures_come_from_the_fastest_quarter_of_job_runs():
    runs = []
    for wall in (4.0, 1.0, 3.0, 2.0, 5.0, 6.0, 7.0, 8.0):
        measured = run.Measured.__new__(run.Measured)
        measured.job_wall_s = wall
        measured.e2e = {"wall_s": wall}
        measured.latency_sketch = [wall * 10.0] * run.SKETCH_POINTS
        runs.append(measured)
    chosen = run.least_disturbed(runs)
    assert [m.job_wall_s for m in chosen] == [1.0, 2.0]
    e2e = run.end_to_end(chosen)
    assert e2e["wall_s"] == 1.5
    assert (e2e["latency_p50_ms"], e2e["latency_p99_ms"]) == (10.0, 20.0)


def _benchmark_spec():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        return json.load(f)


@pytest.mark.parametrize("name", NAMES)
def test_every_benchmark_metric_is_emitted_with_its_unit(name, tmp_path):
    spec = _benchmark_spec()
    assert sorted(w["name"] for w in spec["workloads"]) == NAMES
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        result = run.measure(tiny(name), 0.0, trace, str(tmp_path),
                             lambda text: None)
        line = json.loads(json.dumps(run.result_json(result, trace)))
        assert line["correct"] and line["failed"] == 0
        assert line["attempted"] >= 1
        wanted = {m["name"]: m["unit"] for m in spec[section]}
        got = {k: v["unit"] for k, v in line["metrics"].items()}
        assert got == wanted
        for metric in line["metrics"].values():
            assert isinstance(metric["value"], (int, float))
    assert {name: (unit, better) for name, (unit, better, *_) in
            PER_LAYER.items()} == {m["name"]: (m["unit"], m["better"])
                                   for m in spec["per_layer"]}


def test_traced_run_attributes_time_to_the_layers(tmp_path):
    result = run.measure(tiny("hybrid_windows"), 0.0, True, str(tmp_path),
                         lambda text: None)
    layer = result["per_layer"]
    for name in ("runtime.task.self_s", "runtime.channels.self_s",
                 "runtime.exchange.self_s", "cutty.self_s",
                 "runtime.reorder.self_s", "time.watermarks.self_s",
                 "connectors.sinks.write_s", "state.durable.persist_s",
                 "runtime.multiprocess.fork_s", "api.user_fn_s"):
        assert layer[name] > 0.0, name
    assert layer["state.durable.checkpoints"] >= 1
    # The top-level loops are reported on their own and left out of the
    # closure, so the parent's wait on its workers leaves it below 1.
    assert layer["runtime.scheduler.self_s"] > 0.0
    assert layer["runtime.supervisor.self_s"] > 0.0
    assert 0.0 < layer["trace.closure"] < 1.0
    assert not [name for name in os.listdir(str(tmp_path))
                if name.startswith(("spans-", "rss-worker-"))]


def test_without_engine_source_the_benchmark_fails_without_a_result(
        tmp_path):
    shutil.copytree(HERE, str(tmp_path / "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
                str(tmp_path))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "chain",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
