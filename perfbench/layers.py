"""Per-layer metrics: which layer each one measures, where it comes from,
and which end-to-end metric it should move on which workload.

Counts come from the engine's public ``job_report()`` sections and
``JobResult.counters``, which every job run has.  Times come from the
spans of a traced run (:mod:`spans`): ``<layer>.self_s`` is the layer's
span time minus the time covered by the spans it called, and the named
``*_s`` metrics are total time inside one kind of call.  A layer that
does no work on a workload reports 0.

``trace.closure`` is the sum of the named layers' self times over the
wall time of the traced processes (the job in the parent plus each
worker from fork to shard end).  The top-level loops every other span runs
under -- the scheduler (``Engine.execute``, ``ShardEngine.run``) and the
multiprocess parent's supervisor (``MultiprocessEngine.execute``) -- are
left out of it and reported as ``runtime.scheduler.self_s`` and
``runtime.supervisor.self_s``, so the closure says how much of the wall
time the layers explain.  ``trace.overhead`` is the traced job's wall
time over the untraced one's.
"""

from __future__ import annotations

from typing import Any, Dict, List

from spans import LAYER_TARGETS, USER_LAYER, layer_totals, self_seconds, \
    span_field

CHAIN, HYBRID, TABLE = "chain", "hybrid_windows", "table_queries"

#: Layers whose self time is a top-level loop, not a layer's work.
LOOP_LAYERS = ("runtime.scheduler", "runtime.supervisor")
ALL = (CHAIN, HYBRID, TABLE)

#: name -> (unit, better, end-to-end metrics it should move, workloads).
PER_LAYER: Dict[str, tuple] = {
    "runtime.task.self_s": ("s", "lower",
                            ("throughput_rps", "latency_p99_ms"), (CHAIN,)),
    "runtime.task.steps": ("count", "lower",
                           ("throughput_rps", "latency_p99_ms"), (CHAIN,)),
    "runtime.task.columnar_fallbacks": (
        "count", "lower", ("throughput_rps", "latency_p99_ms"), (CHAIN,)),
    "runtime.channels.self_s": ("s", "lower",
                                ("throughput_rps", "latency_p99_ms"),
                                (CHAIN,)),
    "runtime.channels.pushes": ("count", "lower",
                                ("throughput_rps", "latency_p99_ms"),
                                (CHAIN,)),
    "runtime.channels.full_waits": ("count", "lower",
                                    ("throughput_rps", "latency_p99_ms"),
                                    (CHAIN,)),
    "runtime.partition.self_s": ("s", "lower",
                                 ("throughput_rps", "cpu_s"), (HYBRID,)),
    "runtime.columnar.encode_s": ("s", "lower",
                                  ("throughput_rps", "cpu_s"), (HYBRID,)),
    "runtime.columnar.decode_s": ("s", "lower",
                                  ("throughput_rps", "cpu_s"), (HYBRID,)),
    "runtime.columnar.bytes": ("bytes", "lower",
                               ("throughput_rps", "cpu_s"), (HYBRID,)),
    "runtime.shm.write_s": ("s", "lower", ("throughput_rps", "cpu_s"),
                            (HYBRID,)),
    "runtime.shm.ring_full": ("count", "lower", ("throughput_rps", "cpu_s"),
                              (HYBRID,)),
    "runtime.shm.frames": ("count", "higher", ("throughput_rps", "cpu_s"),
                           (HYBRID,)),
    "runtime.exchange.pipe_frames": ("count", "lower",
                                     ("throughput_rps", "cpu_s"), (HYBRID,)),
    "runtime.exchange.fallbacks": ("count", "lower",
                                   ("throughput_rps", "cpu_s"), (HYBRID,)),
    "cutty.self_s": ("s", "lower", ("latency_p99_ms",), (HYBRID,)),
    "cutty.ops_per_record": ("count", "lower", ("latency_p99_ms",),
                             (HYBRID,)),
    "cutty.live_slices": ("count", "lower", ("latency_p99_ms",), (HYBRID,)),
    "runtime.reorder.self_s": ("s", "lower", ("latency_p99_ms",), (HYBRID,)),
    "time.watermarks.self_s": ("s", "lower", ("latency_p99_ms",), (HYBRID,)),
    "connectors.sources.self_s": ("s", "lower", ("latency_p99_ms",),
                                  (HYBRID,)),
    "state.durable.persist_s": ("s", "lower",
                                ("latency_p99_ms", "gen_lag_p99_ms"),
                                (HYBRID,)),
    "state.durable.checkpoints": ("count", "higher",
                                  ("latency_p99_ms", "gen_lag_p99_ms"),
                                  (HYBRID,)),
    "state.durable.checkpoint_ms_max": ("ms", "lower",
                                        ("latency_p99_ms", "gen_lag_p99_ms"),
                                        (HYBRID,)),
    "connectors.sinks.write_s": ("s", "lower",
                                 ("latency_p99_ms", "gen_lag_p99_ms"),
                                 (HYBRID,)),
    "connectors.sinks.commit_s": ("s", "lower",
                                  ("latency_p99_ms", "gen_lag_p99_ms"),
                                  (HYBRID,)),
    "state.arrangement.insert_s": ("s", "lower",
                                   ("throughput_rps", "peak_rss_mb"),
                                   (TABLE,)),
    "state.arrangement.read_s": ("s", "lower",
                                 ("throughput_rps", "peak_rss_mb"), (TABLE,)),
    "state.arrangement.compact_s": ("s", "lower",
                                    ("throughput_rps", "peak_rss_mb"),
                                    (TABLE,)),
    "state.arrangement.versions_peak": ("count", "lower",
                                        ("throughput_rps", "peak_rss_mb"),
                                        (TABLE,)),
    "state.arrangement.bytes_peak": ("bytes", "lower",
                                     ("throughput_rps", "peak_rss_mb"),
                                     (TABLE,)),
    "plan.optimize_s": ("s", "lower", ("setup_s",), (TABLE, HYBRID)),
    "table.compile_s": ("s", "lower", ("setup_s",), (TABLE, HYBRID)),
    "runtime.multiprocess.fork_s": ("s", "lower", ("setup_s",),
                                    (TABLE, HYBRID)),
    "api.user_fn_s": ("s", "lower", (), ALL),
    "generator.lag_p99_ms": ("ms", "lower", ("latency_p99_ms",), (HYBRID,)),
    "trace.closure": ("ratio", "higher", (), ALL),
    "trace.overhead": ("ratio", "lower", (), ALL),
}

#: Every layer's self time, for the closure check (names not listed
#: above move whatever their layer's run time moves).
for _layer in LAYER_TARGETS:
    PER_LAYER.setdefault("%s.self_s" % _layer, ("s", "lower", (), ALL))

PER_LAYER_UNITS = {name: spec[0] for name, spec in PER_LAYER.items()}


def _exchange(report: Dict[str, Any]) -> Dict[str, Any]:
    return (report.get("exchange") or {}).get("totals") or {}


def _cutty(report: Dict[str, Any]) -> Dict[str, float]:
    elements = ops = slices = 0
    for stats in (report.get("cutty") or {}).values():
        elements += stats["elements"]
        slices += stats["live_slices"]
        aggregate = stats["aggregate_ops"]
        ops += aggregate.get("total_ops", 0)
    return {"ops_per_record": ops / elements if elements else 0.0,
            "live_slices": slices}


def job_counters(job: Any) -> Dict[str, float]:
    """The public counters of one job run, traced or not."""
    report = job.report
    exchange = _exchange(report)
    checkpoints = report.get("checkpoints") or {}
    arrangements = report.get("arrangements") or []
    cutty = _cutty(report)
    return {
        "records_in": sum(row["records_in"]
                          for row in report.get("operators", [])),
        "runtime.task.columnar_fallbacks":
            job.result.counters.get("columnar_fallbacks", 0),
        "runtime.columnar.bytes": exchange.get("shm_bytes", 0),
        "runtime.shm.frames": exchange.get("shm_frames", 0),
        "runtime.shm.ring_full": exchange.get("fallback_ring_full", 0),
        "runtime.exchange.pipe_frames": exchange.get("pipe_frames", 0),
        "runtime.exchange.fallbacks": exchange.get("pickle_fallbacks", 0),
        "cutty.ops_per_record": cutty["ops_per_record"],
        "cutty.live_slices": cutty["live_slices"],
        "state.durable.checkpoints": checkpoints.get("completed", 0),
        "state.durable.checkpoint_ms_max":
            checkpoints.get("duration_ms_max", 0),
        "state.arrangement.bytes_peak": sum(row["bytes_peak"]
                                            for row in arrangements),
        "state.arrangement.versions": max(
            (row["versions"] for row in arrangements), default=0),
        "state.arrangement.compactions": sum(row["compactions"]
                                             for row in arrangements),
    }


def layer_metrics(job_wall: float, snapshots: List[Dict[str, Any]],
                  counters: Dict[str, float],
                  untraced_wall_s: float) -> Dict[str, float]:
    """Every per-layer metric of one traced job run that took
    ``job_wall`` seconds (the generator's lag is filled in from the
    untraced runs by the caller)."""
    spans, peaks = layer_totals(snapshots)
    worker_wall = sum(snap["wall_s"] for snap in snapshots[1:])

    def total(*names: str) -> float:
        return span_field(spans, list(names), 1)

    def calls(*names: str) -> float:
        return span_field(spans, list(names), 0)

    out = {name: float(counters.get(name, 0)) for name in PER_LAYER
           if name in counters}
    for layer in LAYER_TARGETS:
        out["%s.self_s" % layer] = self_seconds(spans, layer)
    out["api.user_fn_s"] = self_seconds(spans, USER_LAYER)
    layer_self = sum(entry[2] for name, entry in spans.items()
                     if name.split("|", 1)[0] not in LOOP_LAYERS)
    out.update({
        "runtime.task.steps": calls("runtime.task|Task.step"),
        "runtime.channels.pushes": calls(
            "runtime.channels|Channel.push",
            "runtime.channels|EgressChannel.push"),
        "runtime.channels.full_waits": peaks.get(
            "runtime.channels.full_waits", 0.0),
        "runtime.columnar.encode_s": total(
            "runtime.columnar|batch_to_columnar",
            "runtime.columnar|encode_columnar"),
        "runtime.columnar.decode_s": total(
            "runtime.columnar|decode_columnar"),
        "runtime.shm.write_s": total("runtime.shm|ShmRingWriter.try_write"),
        "state.durable.persist_s": total(
            "state.durable|DurableCheckpointStore.add"),
        "connectors.sinks.write_s": total(
            "connectors.sinks|TransactionalSink.write",
            "connectors.sinks|ForEachSink.process"),
        "connectors.sinks.commit_s": total(
            "connectors.sinks|TransactionalSink.pre_commit",
            "connectors.sinks|TransactionalSink.commit_through",
            "connectors.sinks|TransactionalSink.flush_final"),
        "state.arrangement.insert_s": total(
            "state.arrangement|Arrangement.insert"),
        "state.arrangement.read_s": total(
            "state.arrangement|Arrangement.read_version",
            "state.arrangement|Arrangement.read_rows"),
        "state.arrangement.compact_s": total(
            "state.arrangement|Arrangement.compact"),
        "state.arrangement.versions_peak": peaks.get(
            "state.arrangement.versions", 0.0),
        "plan.optimize_s": total("plan|optimize"),
        "table.compile_s": total("table|Table.to_stream"),
        "runtime.multiprocess.fork_s": total(
            "runtime.multiprocess|ForkProcess.start"),
        "trace.closure": layer_self / (job_wall + worker_wall),
        "trace.overhead": job_wall / untraced_wall_s,
        "generator.lag_p99_ms": 0.0,
    })
    return out
