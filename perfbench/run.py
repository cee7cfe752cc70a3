"""Run one workload of the engine benchmark and print its metrics.

    python3 perfbench/run.py --workload chain --seed 1 --seconds 38 --trace 0

Run from the root of a checkout; the engine is imported from its
``src/`` directory.  The run makes its inputs from ``--seed``, runs the
job once to warm up, then runs it again and again until ``--seconds``
have passed, checking every run's output against a plain-Python
reference.  Each job run builds a fresh ``Environment``.

``--trace 0`` reports the end-to-end metrics of the quarter of job runs
with the shortest wall time: the median of their per-run figures, and
latency percentiles over their latency samples pooled.  On a shared
virtual machine the CPU's speed can drop by more than half for seconds
to tens of seconds when other tenants load the host; every figure of a
job run slows down with it, and the share of slow job runs changes from
one measurement to the next.  The fastest quarter are the job runs the
host disturbed least, and their figures stay put as long as that many
ran undisturbed, where a median over all job runs moves with the share.
``--trace 1`` alternates untraced and traced job runs and reports the
per-layer metrics from the traced ones (see :mod:`layers`).  Either way,
the counters of the engine's public ``job_report()`` are printed too.

The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

where ``attempted`` counts the expected output rows of every job run,
``failed`` the ones that were missing or wrong (all of them for a run
that raised), and ``failed / attempted`` is the error rate.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import shutil
import statistics
import sys
import time
import traceback
from typing import Any, Callable, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCE = os.path.join(ROOT, "src")

#: Job runs per measurement, at least, however long they take.
MIN_RUNS = 3

#: End-to-end metrics: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}
#: A job run keeps its latency distribution as this many evenly spaced
#: order statistics, so runs can be pooled without keeping every sample.
SKETCH_POINTS = 1000

#: Reported alongside: the error rate rides in ``correct``/``failed``
#: of the result line, and the open loop's lateness among the per-layer
#: metrics of a traced run.
SUMMARY_UNITS = {"error_rate": "ratio", "gen_lag_p99_ms": "ms"}

#: Environment variables that would change an ``EngineConfig`` default.
ENGINE_ENV = ("REPRO_BATCH_SIZE", "REPRO_OBSERVABILITY")


def use_checkout_source() -> None:
    """Import the engine from this checkout's ``src/`` or fail."""
    if not os.path.isfile(os.path.join(SOURCE, "repro", "__init__.py")):
        raise SystemExit("perfbench: no engine source at %s" % SOURCE)
    if SOURCE not in sys.path:
        sys.path.insert(0, SOURCE)
    import repro
    if os.path.dirname(os.path.dirname(os.path.abspath(
            repro.__file__))) != SOURCE:
        raise SystemExit("perfbench: imported repro from %s, not %s"
                         % (repro.__file__, SOURCE))
    for name in ENGINE_ENV:
        os.environ.pop(name, None)


def percentile(values: List[float], share: float) -> float:
    """Nearest-rank percentile of ``values`` (0 < share <= 1)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(share * len(ordered)))
    return ordered[rank - 1]


class Measured:
    """One job run, reduced to what the report needs (so that the many
    runs of a measurement do not pile up in memory)."""

    def __init__(self, workload: Any, job: Any, error: Optional[str],
                 spans: Any) -> None:
        from layers import job_counters

        self.error = error
        self.spans = spans
        self.ok = job is not None
        self.expected = job.expected if self.ok else workload.expected_rows
        self.failed = job.failed if self.ok else workload.expected_rows
        if not self.ok:
            return
        self.job_wall_s = job.finished - job.started
        self.latency_samples = len(job.latencies_ms)
        ordered = sorted(job.latencies_ms)
        self.latency_sketch = [
            ordered[index * len(ordered) // SKETCH_POINTS]
            for index in range(SKETCH_POINTS)]
        self.lags_ms = job.lags_ms
        self.counters = job_counters(job)
        self.e2e = {
            "setup_s": job.first_pull - job.started,
            "wall_s": self.job_wall_s,
            "throughput_rps": (job.drained_records
                               / (job.drained - job.first_pull)),
            "cpu_s": job.cpu_s,
            "peak_rss_mb": job.peak_rss_mb,
        }


def run_job(workload: Any, workdir: str, recorder: Any = None) -> Measured:
    """Run the job once; a run that raises is kept as a failure."""
    from workloads import no_wrap

    for name in os.listdir(workdir):
        path = os.path.join(workdir, name)
        if os.path.isdir(path):
            shutil.rmtree(path)
        else:
            os.remove(path)
    gc.collect()
    wrap: Callable[..., Any] = no_wrap
    if recorder is not None:
        recorder.reset()
        recorder.install()
        wrap = recorder.user_fn
    try:
        job = workload.run(workdir, wrap)
        error = None
    except Exception:
        job, error = None, traceback.format_exc()
    finally:
        if recorder is not None:
            recorder.uninstall()
    spans = recorder.collect() if recorder is not None else None
    return Measured(workload, job, error, spans)


def medians(rows: List[Dict[str, float]]) -> Dict[str, float]:
    return {name: statistics.median(row[name] for row in rows)
            for name in rows[0]}


def least_disturbed(runs: List[Measured]) -> List[Measured]:
    """The quarter of the job runs with the shortest wall time (at least
    one)."""
    ordered = sorted(runs, key=lambda m: m.job_wall_s)
    return ordered[:max(1, len(ordered) // 4)]


def end_to_end(runs: List[Measured]) -> Dict[str, float]:
    """The end-to-end metrics of ``runs``: medians of their per-run
    figures, with the latency percentiles over their pooled samples."""
    e2e = medians([m.e2e for m in runs])
    pooled = [value for m in runs for value in m.latency_sketch]
    e2e["latency_p50_ms"] = percentile(pooled, 0.50)
    e2e["latency_p99_ms"] = percentile(pooled, 0.99)
    return e2e


def measure(workload: Any, seconds: float, trace: bool, workdir: str,
            log: Callable[[str], None]) -> Dict[str, Any]:
    """Warm up, then run the job until ``seconds`` have passed."""
    from layers import layer_metrics
    from spans import SpanRecorder
    from usage import WorkerPeaks

    recorder = SpanRecorder(workdir) if trace else None
    runs: List[Measured] = []
    plain: List[Measured] = []
    traced: List[Measured] = []

    def run_once(use_recorder: Any = None) -> Measured:
        measured = run_job(workload, workdir, use_recorder)
        runs.append(measured)
        if measured.error is not None:
            log("job run failed:\n" + measured.error)
        return measured

    # The harness's own inputs and expected rows stay out of the engine's
    # garbage collections, and every job run starts from a collected heap.
    gc.collect()
    gc.freeze()
    peaks = WorkerPeaks(workdir)
    peaks.install()
    try:
        run_once()  # warm-up: imports, first fork, allocator growth
        deadline = time.monotonic() + seconds
        last = 0.0
        # Start another job run only if half of one still fits, so a run
        # measures close to ``seconds`` instead of overshooting by a job.
        while (time.monotonic() + last / 2 < deadline
               or len(plain) < MIN_RUNS
               or (trace and len(traced) < MIN_RUNS)):
            started = time.monotonic()
            if trace and len(traced) < len(plain):
                traced.append(run_once(recorder))
            else:
                plain.append(run_once())
            last = time.monotonic() - started
    finally:
        peaks.uninstall()

    attempted = sum(m.expected for m in runs)
    failed = sum(m.failed for m in runs)
    good_plain = [m for m in plain if m.ok]
    good_traced = [m for m in traced if m.ok]
    if not good_plain or (trace and not good_traced):
        raise SystemExit("perfbench: every measured job run failed")

    chosen = least_disturbed(good_plain)
    e2e = end_to_end(chosen)
    counters = medians([m.counters for m in good_plain])
    summary: Dict[str, Any] = {
        "runs": len(good_plain),
        "reported_runs": len(chosen),
        "latency_samples": sum(m.latency_samples for m in chosen),
        "error_rate": failed / attempted,
    }
    lags = [m.lags_ms for m in good_plain if m.lags_ms]
    if lags:
        summary["gen_lag_p99_ms"] = statistics.median(
            percentile(lag, 0.99) for lag in lags)
        summary["gen_lag_samples"] = statistics.median(len(l) for l in lags)
    result: Dict[str, Any] = {
        "attempted": attempted, "failed": failed,
        "end_to_end": e2e, "counters": counters, "summary": summary,
    }
    if trace:
        untraced_wall_s = statistics.median(m.job_wall_s for m in good_plain)
        layer = medians([layer_metrics(m.job_wall_s, m.spans, m.counters,
                                       untraced_wall_s)
                         for m in good_traced])
        layer["generator.lag_p99_ms"] = summary.get("gen_lag_p99_ms", 0.0)
        result["per_layer"] = layer
        summary["traced_runs"] = len(good_traced)
    return result


def result_json(result: Dict[str, Any], trace: bool) -> Dict[str, Any]:
    """The benchmark's last output line: the end-to-end metrics, or with
    ``trace`` the per-layer ones, each with its unit."""
    from layers import PER_LAYER_UNITS

    units = PER_LAYER_UNITS if trace else END_TO_END
    values = result["per_layer"] if trace else result["end_to_end"]
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }


def _print_table(values: Dict[str, float], units: Dict[str, str]) -> None:
    for name, value in sorted(values.items()):
        print("  %-40s %16.6f %s" % (name, value, units[name]))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    use_checkout_source()
    from layers import PER_LAYER_UNITS
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error("unknown workload %r; choose from %s"
                     % (args.workload, ", ".join(sorted(WORKLOADS))))
    workdir = os.path.join(ROOT, ".perfbench", "run-%d" % os.getpid())
    os.makedirs(workdir)
    try:
        workload = WORKLOADS[args.workload](args.seed)
        result = measure(workload, args.seconds, bool(args.trace), workdir,
                         lambda text: print(text, file=sys.stderr))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass

    print("workload %s seed %d: %s" % (args.workload, args.seed,
                                        json.dumps(result["summary"])))
    _print_table(result["end_to_end"], END_TO_END)
    summary = result["summary"]
    _print_table({name: summary[name] for name in SUMMARY_UNITS
                  if name in summary}, SUMMARY_UNITS)
    if args.trace:
        _print_table(result["per_layer"], PER_LAYER_UNITS)
    print("job_report counters: " + json.dumps(result["counters"],
                                               sort_keys=True))
    print(json.dumps(result_json(result, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
