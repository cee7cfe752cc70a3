"""Span recorder for the benchmark's traced runs.

The engine is not instrumented for this benchmark.  Instead, a traced
run replaces the public callables of each layer -- the attribute its
caller looks up: a method on the class, or a function in the module that
calls it -- with a wrapper that records a span around the call, and
puts the originals back afterwards.  Spans nest on a per-process stack,
so a layer's *self* time is its span time minus the time covered by the
spans it called.  Spans are kept in memory as per-name totals (calls,
total seconds, self seconds).

The wrappers are installed before the multiprocess backend forks its
workers, so the workers inherit them.  A fork hook clears the inherited
totals in each child, and a wrapper around ``ShardEngine.run`` writes the
worker's totals to a file in the run directory when the shard finishes;
:meth:`SpanRecorder.collect` merges them with the parent's.
"""

from __future__ import annotations

import glob
import importlib
import json
import os
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

_MISSING = object()

#: Layer -> ``(module, class or None, attribute)`` targets.  A span is
#: named ``layer|Class.attribute`` so per-callable totals stay visible.
LAYER_TARGETS: Dict[str, List[Tuple[str, Optional[str], str]]] = {
    "runtime.engine": [
        ("repro.runtime.engine", "Engine", "__init__"),
        ("repro.runtime.multiprocess", "ShardEngine", "__init__"),
    ],
    # The top-level loops that every other span runs under: their self time
    # is scheduling and, in the multiprocess parent, waiting on workers.
    # ``ShardEngine.run`` is spanned here too, by the worker dump hook.
    "runtime.scheduler": [
        ("repro.runtime.engine", "Engine", "execute"),
    ],
    "runtime.supervisor": [
        ("repro.runtime.multiprocess", "MultiprocessEngine", "execute"),
    ],
    "runtime.multiprocess": [
        ("multiprocessing.context", "ForkProcess", "start"),
    ],
    "runtime.task": [
        ("repro.runtime.task", "Task", "step"),
    ],
    "runtime.channels": [
        ("repro.runtime.channels", "Channel", "push"),
        ("repro.runtime.channels", "Channel", "poll"),
        ("repro.runtime.channels", "Channel", "requeue_front"),
        ("repro.runtime.multiprocess", "EgressChannel", "push"),
    ],
    "runtime.partition": [
        ("repro.runtime.partition", "ForwardPartitioner", "select"),
        ("repro.runtime.partition", "HashPartitioner", "select"),
        ("repro.runtime.partition", "RebalancePartitioner", "select"),
        ("repro.runtime.partition", "RebalancePartitioner", "advance"),
        ("repro.runtime.partition", "BroadcastPartitioner", "select"),
        ("repro.runtime.partition", "GlobalPartitioner", "select"),
        ("repro.runtime.partition", None, "hash_key"),
        ("repro.runtime.task", None, "hash_key"),
    ],
    "runtime.columnar": [
        ("repro.runtime.multiprocess", None, "batch_to_columnar"),
        ("repro.runtime.multiprocess", None, "encode_columnar"),
        ("repro.runtime.multiprocess", None, "decode_columnar"),
    ],
    "runtime.shm": [
        ("repro.runtime.shm", "ShmRingWriter", "try_write"),
        ("repro.runtime.shm", "ShmRingReader", "read_available"),
    ],
    "runtime.exchange": [
        ("repro.runtime.multiprocess", "ExchangeWriter", "send"),
        ("repro.runtime.multiprocess", "ShardEngine", "pump_ingress"),
        ("repro.runtime.multiprocess", "ShardEngine", "flush_egress"),
    ],
    "cutty": [
        ("repro.cutty.operator", "CuttyWindowOperator", "process"),
        ("repro.cutty.operator", "CuttyWindowOperator", "process_batch"),
        ("repro.cutty.operator", "CuttyWindowOperator", "finish"),
        ("repro.cutty.sharing", "SharedCuttyAggregator", "insert"),
        ("repro.cutty.sharing", "SharedCuttyAggregator", "insert_many"),
        ("repro.cutty.sharing", "SharedCuttyAggregator", "flush"),
    ],
    "runtime.reorder": [
        ("repro.runtime.reorder", "WatermarkReorderOperator", "process"),
        ("repro.runtime.reorder", "WatermarkReorderOperator", "on_watermark"),
        ("repro.runtime.reorder", "WatermarkReorderOperator", "finish"),
    ],
    "time.watermarks": [
        ("repro.runtime.operators", "TimestampsAndWatermarksOperator",
         "process"),
        ("repro.runtime.operators", "TimestampsAndWatermarksOperator",
         "finish"),
        ("repro.time.watermarks", "BoundedOutOfOrdernessGenerator",
         "on_event"),
        ("repro.time.watermarks", "BoundedOutOfOrdernessGenerator",
         "on_periodic"),
    ],
    "connectors.sources": [
        ("repro.connectors.sources", "HybridSource", "emit_batch"),
        ("repro.runtime.operators", "IteratorSource", "emit_batch"),
    ],
    "connectors.sinks": [
        ("repro.runtime.operators", "ForEachSink", "process"),
        ("repro.connectors.sinks", "TransactionalSink", "write"),
        ("repro.connectors.sinks", "TransactionalSink", "pre_commit"),
        ("repro.connectors.sinks", "TransactionalSink", "commit_through"),
        ("repro.connectors.sinks", "TransactionalSink", "flush_final"),
    ],
    "state.durable": [
        ("repro.state.durable", "DurableCheckpointStore", "add"),
    ],
    "state.arrangement": [
        ("repro.state.arrangement", "Arrangement", "insert"),
        ("repro.state.arrangement", "Arrangement", "seal"),
        ("repro.state.arrangement", "Arrangement", "seal_final"),
        ("repro.state.arrangement", "Arrangement", "compact"),
        ("repro.state.arrangement", "Arrangement", "read_version"),
        ("repro.state.arrangement", "Arrangement", "read_rows"),
        ("repro.state.arrangement", "ArrangementHandle", "advance_to"),
        ("repro.runtime.task", "ArrangeOperator", "process"),
        ("repro.runtime.task", "ArrangeOperator", "on_watermark"),
        ("repro.runtime.task", "ArrangeOperator", "finish"),
        ("repro.runtime.task", "ArrangementScanOperator", "process"),
        ("repro.runtime.task", "ArrangementScanOperator", "finish"),
        ("repro.runtime.task", "ArrangementJoinOperator", "process"),
        ("repro.runtime.task", "ArrangementJoinOperator", "process2"),
        ("repro.runtime.task", "ArrangementJoinOperator", "finish"),
    ],
    "plan": [
        ("repro.plan.optimizer", None, "optimize"),
    ],
    "table": [
        ("repro.table.table", "Table", "to_stream"),
    ],
    "generator": [
        ("feed", "ClosedLoopFeed", "__next__"),
        ("feed", "OpenLoopFeed", "__next__"),
    ],
}

#: Layer of the workload's own functions (wrapped by the workloads).
USER_LAYER = "api.user_fn"


class SpanRecorder:
    """Per-process span totals, with attribute patching to collect them."""

    def __init__(self, dump_dir: str) -> None:
        self.dump_dir = dump_dir
        #: span name -> [calls, total seconds, self seconds]
        self.totals: Dict[str, List[float]] = {}
        #: gauge name -> highest value seen
        self.peaks: Dict[str, float] = {}
        #: event name -> occurrences
        self.counts: Dict[str, int] = {}
        self._stack: List[List[float]] = []
        self._started = time.perf_counter()
        self._patches: List[Tuple[Any, str, Any]] = []
        self._fork_hook = False

    # -- recording --------------------------------------------------------

    def reset(self) -> None:
        self.totals = {}
        self.peaks = {}
        self.counts = {}
        self._stack = []
        self._started = time.perf_counter()

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` with every call recorded as a span called ``name``."""
        recorder = self
        perf_counter = time.perf_counter

        def spanned(*args: Any, **kwargs: Any) -> Any:
            stack = recorder._stack
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                entry = recorder.totals.get(name)
                if entry is None:
                    recorder.totals[name] = entry = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - frame[0]

        return spanned

    def user_fn(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        """Wrap one of the workload's own functions."""
        label = getattr(fn, "__name__", type(fn).__name__)
        return self.wrap("%s|%s" % (USER_LAYER, label), fn)

    def note_peak(self, name: str, value: float) -> None:
        if value > self.peaks.get(name, float("-inf")):
            self.peaks[name] = value

    def snapshot(self) -> Dict[str, Any]:
        return {"wall_s": time.perf_counter() - self._started,
                "spans": {name: list(entry)
                          for name, entry in self.totals.items()},
                "peaks": dict(self.peaks),
                "counts": dict(self.counts)}

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer target, plus the worker-side hooks."""
        if self._patches:
            raise RuntimeError("spans are already installed")
        for layer, targets in LAYER_TARGETS.items():
            for module_name, class_name, attr in targets:
                owner: Any = importlib.import_module(module_name)
                if class_name is not None:
                    owner = getattr(owner, class_name)
                label = "%s.%s" % (class_name, attr) if class_name else attr
                self._patch(owner, attr, "%s|%s" % (layer, label))
        self._patch_peak()
        self._patch_full_waits()
        self._patch_worker_dump()
        if not self._fork_hook:
            os.register_at_fork(after_in_child=self._after_fork)
            self._fork_hook = True

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches = []

    def _patch(self, owner: Any, attr: str, name: str) -> None:
        own = vars(owner).get(attr, _MISSING)
        raw = own if own is not _MISSING else getattr(owner, attr)
        self._patches.append((owner, attr, own))
        setattr(owner, attr, self.wrap(name, raw))

    def _patch_peak(self) -> None:
        """Track the highest version count of any arrangement: sampled
        after every seal, when versions are created."""
        from repro.state.arrangement import Arrangement
        seal = Arrangement.seal
        recorder = self

        def seal_and_sample(arrangement: Any, watermark: int) -> None:
            seal(arrangement, watermark)
            recorder.note_peak("state.arrangement.versions",
                               arrangement.version_count)

        self._patches.append((Arrangement, "seal", seal))
        Arrangement.seal = seal_and_sample  # type: ignore[assignment]

    def _patch_full_waits(self) -> None:
        """Count the scheduler's runnable checks that found a task's
        output channel full (the task waits a round for its consumer)."""
        from repro.runtime.task import Task
        prop = vars(Task)["has_output_capacity"]
        fget = prop.fget
        counts = self.counts

        def checked(task: Any) -> bool:
            ok = fget(task)
            if not ok:
                counts["runtime.channels.full_waits"] = counts.get(
                    "runtime.channels.full_waits", 0) + 1
            return ok

        self._patches.append((Task, "has_output_capacity", prop))
        Task.has_output_capacity = property(checked)  # type: ignore

    def _patch_worker_dump(self) -> None:
        """Write a worker's span totals out when its shard finishes."""
        from repro.runtime.multiprocess import ShardEngine
        run = ShardEngine.run
        spanned_run = self.wrap("runtime.scheduler|ShardEngine.run", run)
        recorder = self

        def run_and_dump(engine: Any, *args: Any, **kwargs: Any) -> Any:
            try:
                return spanned_run(engine, *args, **kwargs)
            finally:
                recorder.dump("worker-%d" % os.getpid())

        self._patches.append((ShardEngine, "run", run))
        ShardEngine.run = run_and_dump  # type: ignore[assignment]

    def _after_fork(self) -> None:
        if self._patches:
            self.reset()

    # -- output -----------------------------------------------------------

    def dump(self, label: str) -> None:
        path = os.path.join(self.dump_dir, "spans-%s.json" % label)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.snapshot(), handle)

    def collect(self) -> List[Dict[str, Any]]:
        """This process's snapshot followed by every dumped worker's;
        dumped files are consumed."""
        snapshots = [self.snapshot()]
        for path in sorted(glob.glob(os.path.join(self.dump_dir,
                                                  "spans-*.json"))):
            with open(path, "r", encoding="utf-8") as handle:
                snapshots.append(json.load(handle))
            os.remove(path)
        return snapshots


def layer_totals(snapshots: List[Dict[str, Any]]
                 ) -> Tuple[Dict[str, List[float]], Dict[str, float]]:
    """Merge process snapshots: summed per-span totals, and peaks (the
    highest) with counts (summed) in one dict."""
    spans: Dict[str, List[float]] = {}
    peaks: Dict[str, float] = {}
    for snap in snapshots:
        for name, value in snap["counts"].items():
            peaks[name] = peaks.get(name, 0) + value
        for name, (calls, total, own) in snap["spans"].items():
            entry = spans.setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += total
            entry[2] += own
        for name, value in snap["peaks"].items():
            peaks[name] = max(value, peaks.get(name, value))
    return spans, peaks


def self_seconds(spans: Dict[str, List[float]], layer: str) -> float:
    return sum(entry[2] for name, entry in spans.items()
               if name.split("|", 1)[0] == layer)


def span_field(spans: Dict[str, List[float]], names: List[str],
               field: int) -> float:
    """Sum of ``field`` (0 calls, 1 total s, 2 self s) over ``names``
    given as ``layer|Class.attr``."""
    return sum(spans[name][field] for name in names if name in spans)
