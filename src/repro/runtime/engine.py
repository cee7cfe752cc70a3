"""The engine: expands a JobGraph into parallel subtasks and runs them.

Execution is a deterministic cooperative loop:

1. every runnable task gets one bounded ``step()`` per round (a task is
   runnable when it has input and its output channels are below
   capacity -- that inequality *is* the backpressure model);
2. the simulated processing-time clock advances per round and due
   processing-time timers fire;
3. if checkpointing is enabled, the coordinator periodically injects
   barriers at the sources, collects per-task snapshots as barriers
   align across the graph, and seals completed checkpoints;
4. an optional failure hook can kill the job mid-flight, after which
   :meth:`Engine.recover` restores every subtask from the latest
   completed checkpoint and rewinds the replayable sources -- the
   exactly-once recovery path of asynchronous barrier snapshotting.

The loop is single-threaded on purpose: reproducibility of every
experiment in ``benchmarks/`` depends on it, and the logical costs the
papers compare (records, aggregate calls, tuples transferred) are
unaffected by physical parallelism.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional

from repro.metrics import (
    MetricGroup,
    OperatorStats,
    merge_counter_maps,
    merge_gauge_maps,
)
from repro.observability.runtime import (
    ObservabilityConfig,
    RuntimeObservability,
)
from repro.runtime.channels import Channel
from repro.runtime.coordinator import CheckpointCoordinator
from repro.runtime.elements import MAX_TIMESTAMP, MIN_TIMESTAMP
from repro.runtime.partition import ForwardPartitioner
from repro.runtime.task import OutputEdge, Task
from repro.state.checkpoint import CompletedCheckpoint, TaskSnapshot
from repro.time.clock import ManualClock

if TYPE_CHECKING:  # imported lazily to avoid a plan <-> runtime cycle
    from repro.observability.reporter import JobReport
    from repro.plan.graph import JobGraph
    from repro.runtime.faults import ChaosInjector, DeadLetter
    from repro.runtime.restart import RestartStrategy


class EngineConfig:
    """Tunables of the execution loop.

    ``elements_per_step`` is denominated in *records*: a
    :class:`~repro.runtime.elements.RecordBatch` of *n* records spends
    *n* of the step budget, so tuning it means the same amount of
    per-round work whether ``batch_size`` is 1 or 1024.  A batch larger
    than a task's remaining budget is split at the budget boundary (the
    tail returns to the channel head), so the throttle -- and the
    backpressure dynamics it drives -- is record-exact.

    Records travel between tasks only in record batches: chain tails
    coalesce their output into ``RecordBatch`` elements of at most
    ``batch_size`` records per channel push (``1`` sends one record per
    element).  ``None`` reads the ``REPRO_BATCH_SIZE`` environment
    variable, or 1024 when it is unset, which is how the differential
    test harness runs unmodified pipelines at other sizes.  Results are
    element-for-element identical at every size -- batching is purely a
    mechanical-sympathy knob.

    ``backend`` selects the execution backend.  ``"cooperative"`` (the
    default) is the deterministic single-interpreter scheduler below;
    ``"multiprocess"`` shards the subtask grid across ``num_workers``
    OS processes, each driving this same cooperative engine over its
    shard, with hash-partitioned exchanges over pipes -- results are
    element-equal as multisets, throughput scales with cores, and
    per-round scheduling interleavings are no longer globally
    deterministic (see :mod:`repro.runtime.multiprocess`).

    ``observability`` turns the runtime observability layer on: ``True``
    (or an :class:`~repro.observability.ObservabilityConfig`) gives the
    engine a metrics registry, span tracing and lag/backpressure gauges,
    read back through :meth:`Engine.job_report`.  The default ``None``
    defers to the ``REPRO_OBSERVABILITY`` environment variable; ``False``
    forces it off.  Every option is keyword-only.
    """

    def __init__(self, *,
                 backend: str = "cooperative",
                 num_workers: Optional[int] = None,
                 exchange: str = "shm",
                 exchange_ring_slots: int = 32,
                 exchange_slot_bytes: int = 64 * 1024,
                 channel_capacity: int = 128,
                 elements_per_step: int = 32,
                 batch_size: Optional[int] = None,
                 operator_profiling: bool = False,
                 tick_ms: int = 1,
                 checkpoint_interval_ms: Optional[int] = None,
                 checkpoint_dir: Optional[str] = None,
                 max_retained_checkpoints: int = 3,
                 heartbeat_interval_ms: Optional[int] = 25,
                 watchdog_suspect_ms: Optional[int] = None,
                 watchdog_fail_ms: Optional[int] = None,
                 process_chaos: Optional[Any] = None,
                 max_rounds: int = 50_000_000,
                 failure_hook: Optional[Callable[["Engine", int], bool]] = None,
                 cancel_hook: Optional[Callable[["Engine", int], bool]] = None,
                 restart_strategy: Optional["RestartStrategy"] = None,
                 checkpoint_timeout_ms: Optional[int] = None,
                 tolerable_consecutive_checkpoint_failures: Optional[int] = None,
                 quarantine_threshold: Optional[int] = None,
                 chaos: Optional["ChaosInjector"] = None,
                 observability: Any = None,
                 share_arrangements: bool = True,
                 arrangement_compaction_interval: int = 8,
                 **unknown: Any) -> None:
        if unknown:
            raise TypeError(_unknown_options_message(unknown))
        if backend not in ("cooperative", "multiprocess"):
            raise ValueError(
                "backend must be 'cooperative' or 'multiprocess'; got %r"
                % (backend,))
        if num_workers is not None and num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if backend == "multiprocess":
            unsupported = [name for name, value in
                           (("failure_hook", failure_hook),
                            ("cancel_hook", cancel_hook),
                            ("chaos", chaos)) if value is not None]
            if unsupported:
                raise ValueError(
                    "%s require the cooperative backend (they reach into "
                    "the single-process scheduler); the multiprocess "
                    "backend injects OS-level faults through "
                    "process_chaos=ProcessChaosInjector(...) instead"
                    % ", ".join(unsupported))
        if process_chaos is not None and backend != "multiprocess":
            raise ValueError(
                "process_chaos injects OS-level faults (SIGKILL/SIGSTOP, "
                "pipe and checkpoint-file corruption) and requires "
                "backend='multiprocess'; the cooperative backend takes "
                "chaos=ChaosInjector(...) instead")
        if exchange not in ("shm", "pipe"):
            raise ValueError(
                "exchange must be 'shm' (columnar shared-memory rings) or "
                "'pipe' (pickle frames over pipes); got %r" % (exchange,))
        if exchange_ring_slots < 2:
            raise ValueError("exchange_ring_slots must be >= 2")
        if exchange_slot_bytes < 4096:
            raise ValueError("exchange_slot_bytes must be >= 4096")
        if channel_capacity < 1:
            raise ValueError("channel_capacity must be >= 1")
        if elements_per_step < 1:
            raise ValueError("elements_per_step must be >= 1")
        if batch_size is None:
            batch_size = _batch_size_from_env()
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if tick_ms < 0:
            raise ValueError("tick_ms must be >= 0")
        if checkpoint_interval_ms is not None and checkpoint_interval_ms <= 0:
            raise ValueError("checkpoint_interval_ms must be positive")
        if checkpoint_timeout_ms is not None and checkpoint_timeout_ms <= 0:
            raise ValueError("checkpoint_timeout_ms must be positive")
        if heartbeat_interval_ms is not None and heartbeat_interval_ms <= 0:
            raise ValueError(
                "heartbeat_interval_ms must be positive (None disables "
                "heartbeats and the watchdog)")
        if watchdog_suspect_ms is not None and watchdog_suspect_ms <= 0:
            raise ValueError("watchdog_suspect_ms must be positive")
        if watchdog_fail_ms is not None and watchdog_fail_ms <= 0:
            raise ValueError("watchdog_fail_ms must be positive")
        if (watchdog_suspect_ms is not None and watchdog_fail_ms is not None
                and watchdog_fail_ms < watchdog_suspect_ms):
            raise ValueError(
                "watchdog_fail_ms must be >= watchdog_suspect_ms")
        if (tolerable_consecutive_checkpoint_failures is not None
                and tolerable_consecutive_checkpoint_failures < 0):
            raise ValueError(
                "tolerable_consecutive_checkpoint_failures must be >= 0")
        if quarantine_threshold is not None and quarantine_threshold < 0:
            raise ValueError("quarantine_threshold must be >= 0")
        if arrangement_compaction_interval < 1:
            raise ValueError("arrangement_compaction_interval must be >= 1")
        #: Which execution backend runs the job: ``"cooperative"`` (the
        #: deterministic single-process reference scheduler) or
        #: ``"multiprocess"`` (shared-nothing OS-process workers with
        #: hash-partitioned pipe exchanges; see
        #: :mod:`repro.runtime.multiprocess`).
        self.backend = backend
        #: Worker-process count for the multiprocess backend; ``None``
        #: resolves to ``os.cpu_count()`` (capped at 8) at launch.
        self.num_workers = num_workers
        #: Cross-worker data transport of the multiprocess backend:
        #: ``"shm"`` (the default) ships record batches as columnar
        #: frames through shared-memory ring buffers, with the pipe kept
        #: for control elements and pickle fallbacks; ``"pipe"`` is the
        #: legacy everything-as-pickle-frames transport.  Ignored by the
        #: cooperative backend (no process boundary to cross).  When
        #: ring provisioning fails at launch (e.g. no memory for the
        #: mappings), the attempt degrades to ``"pipe"`` silently.
        self.exchange = exchange
        #: Slots per shared-memory ring (one ring per ordered worker
        #: pair).  More slots absorb burstier producers before the
        #: record-denominated ring backpressure stalls them.
        self.exchange_ring_slots = exchange_ring_slots
        #: Payload bytes per ring slot; a columnar frame larger than one
        #: slot falls back to a pickled pipe frame (counted per edge in
        #: ``job_report()``).
        self.exchange_slot_bytes = exchange_slot_bytes
        self.channel_capacity = channel_capacity
        self.elements_per_step = elements_per_step
        self.batch_size = batch_size
        #: Wrap every operator with per-operator throughput counters
        #: (records in/out, batches, inclusive time); read the profile
        #: from :meth:`Engine.operator_stats` after execution.  Disables
        #: chain fusion so the counters stay exact per operator.
        self.operator_profiling = operator_profiling
        self.tick_ms = tick_ms
        self.checkpoint_interval_ms = checkpoint_interval_ms
        #: When set, the checkpoint coordinator persists every sealed
        #: checkpoint here as CRC-checksummed snapshot files plus a
        #: manifest, and recovery restores from *disk* with verification
        #: -- a corrupted or torn checkpoint falls back to the next-oldest
        #: retained one (see :mod:`repro.state.durable`).  ``None`` keeps
        #: checkpoints in coordinator memory only.
        self.checkpoint_dir = checkpoint_dir
        self.max_retained_checkpoints = max_retained_checkpoints
        #: Wall-clock cadence of worker liveness heartbeats on the
        #: multiprocess backend (sent over the control pipe with seeded
        #: jitter).  ``None`` disables heartbeats and the watchdog.
        self.heartbeat_interval_ms = heartbeat_interval_ms
        #: Quiet time after which the coordinator's watchdog moves a
        #: worker RUNNING -> SUSPECTED; default (``None``) is 8x the
        #: heartbeat interval.
        self.watchdog_suspect_ms = watchdog_suspect_ms
        #: Quiet time after which a SUSPECTED worker is declared FAILED
        #: and handed to the restart strategy -- this is what catches
        #: *hung* (SIGSTOP'd, wedged) workers that never close a pipe;
        #: default (``None``) is 24x the heartbeat interval.
        self.watchdog_fail_ms = watchdog_fail_ms
        #: OS-level fault injection for the multiprocess backend (see
        #: :class:`~repro.runtime.faults.ProcessChaosInjector`).
        self.process_chaos = process_chaos
        self.max_rounds = max_rounds
        self.failure_hook = failure_hook
        self.cancel_hook = cancel_hook
        #: Supervisor policy for task failures.  ``None`` keeps the
        #: legacy contract: operator exceptions propagate out of
        #: ``execute()`` and ``InjectedFailure`` restores from the latest
        #: checkpoint without counting as a supervised restart.
        self.restart_strategy = restart_strategy
        #: Abort a pending checkpoint still unacknowledged after this
        #: much simulated time (``None`` = wait forever).
        self.checkpoint_timeout_ms = checkpoint_timeout_ms
        #: Fail the job after more than this many checkpoint aborts in a
        #: row (``None`` = tolerate any number).
        self.tolerable_consecutive_checkpoint_failures = (
            tolerable_consecutive_checkpoint_failures)
        #: When set, a record whose processing raises is quarantined to
        #: the dead-letter output; a task exceeding this many dead
        #: letters in one attempt escalates to the supervisor.
        #: ``None`` disables quarantine (exceptions fail the task).
        self.quarantine_threshold = quarantine_threshold
        #: Deterministic fault injection (see :mod:`repro.runtime.faults`).
        self.chaos = chaos
        #: Let the Table optimizer rewire group-by/join plans onto shared
        #: arrangements: queries whose keyed input matches an existing
        #: arrangement's (source, plan-prefix fingerprint, key) attach a
        #: read handle to the one maintained index instead of building
        #: their own (see :mod:`repro.state.arrangement` and
        #: ``docs/arrangements.md``).  Results are identical either way;
        #: disable to force independent per-query state.
        self.share_arrangements = share_arrangements
        #: Compact an arrangement every this-many sealed versions:
        #: deltas below every attached reader's low watermark fold into
        #: the base, keeping version count and index memory flat under a
        #: steady watermark.  Lower = flatter memory, more fold work.
        self.arrangement_compaction_interval = arrangement_compaction_interval
        #: Normalized observability settings: ``None`` (disabled) or an
        #: :class:`~repro.observability.ObservabilityConfig`.
        self.observability = ObservabilityConfig.normalize(observability)


def _unknown_options_message(unknown: Dict[str, Any]) -> str:
    """A helpful error for a mistyped EngineConfig keyword."""
    import difflib
    import inspect
    known = [name for name in
             inspect.signature(EngineConfig.__init__).parameters
             if name not in ("self", "unknown")]
    parts = []
    for name in sorted(unknown):
        close = difflib.get_close_matches(name, known, n=1)
        hint = " (did you mean %r?)" % close[0] if close else ""
        parts.append("%r%s" % (name, hint))
    return ("EngineConfig got unknown option(s): %s; known options: %s"
            % (", ".join(parts), ", ".join(known)))


def _batch_size_from_env() -> int:
    """``REPRO_BATCH_SIZE`` as a batch size, 1024 when it is unset; a bad
    value names the variable."""
    raw = os.environ.get("REPRO_BATCH_SIZE", "1024")
    if not raw.strip().isdecimal() or int(raw) < 1:
        raise ValueError("REPRO_BATCH_SIZE must be an integer >= 1; got %r"
                         % raw)
    return int(raw)


#: Public alias: the fluent API docs talk about "execution config".
ExecutionConfig = EngineConfig


class JobFailedError(Exception):
    """Raised by the failure hook (or by operator exceptions) during
    execution when no recovery is possible."""


class JobStalledError(Exception):
    """The scheduler made no progress but tasks remain unfinished -- a
    wiring bug or a backpressure deadlock."""


class InjectedFailure(Exception):
    """The failure hook asked for a crash (used by the E10 experiment)."""


class JobResult:
    """Post-execution statistics."""

    def __init__(self, rounds: int, simulated_time_ms: int,
                 counters: Dict[str, int],
                 checkpoints_completed: int,
                 checkpoint_durations_ms: List[int],
                 recoveries: int,
                 cancelled: bool = False,
                 restarts: int = 0,
                 checkpoints_aborted: int = 0,
                 dead_letters: Optional[List["DeadLetter"]] = None,
                 gauges: Optional[Dict[str, int]] = None) -> None:
        self.rounds = rounds
        self.simulated_time_ms = simulated_time_ms
        self.counters = counters
        self.checkpoints_completed = checkpoints_completed
        self.checkpoint_durations_ms = checkpoint_durations_ms
        self.recoveries = recoveries
        self.cancelled = cancelled
        #: Supervised restarts granted by the restart strategy (legacy
        #: ``failure_hook`` recoveries count in ``recoveries`` only).
        self.restarts = restarts
        self.checkpoints_aborted = checkpoints_aborted
        #: Quarantined poison records, in arrival order.
        self.dead_letters = dead_letters if dead_letters is not None else []
        self.gauges = gauges if gauges is not None else {}

    @property
    def records_emitted(self) -> int:
        return sum(value for name, value in self.counters.items()
                   if name.endswith("records_out"))

    def dead_letters_for(self, operator_name: str) -> List["DeadLetter"]:
        """The quarantined records attributed to one operator."""
        return [letter for letter in self.dead_letters
                if letter.operator == operator_name]

    def __repr__(self) -> str:
        return ("JobResult(rounds=%d, sim_ms=%d, checkpoints=%d, "
                "recoveries=%d, restarts=%d, dead_letters=%d)"
                % (self.rounds, self.simulated_time_ms,
                   self.checkpoints_completed, self.recoveries,
                   self.restarts, len(self.dead_letters)))


class Engine:
    """Executes one JobGraph to completion."""

    #: Whether this engine keeps the job's durable checkpoint store (a
    #: multiprocess worker leaves it to the parent).
    _persists_checkpoints = True

    def __init__(self, job_graph: "JobGraph",
                 config: Optional[EngineConfig] = None) -> None:
        self.job_graph = job_graph
        self.config = config or EngineConfig()
        self.clock = ManualClock()
        self.tasks: List[Task] = []
        self._tasks_by_vertex: Dict[int, List[Task]] = {}
        self.coordinator = CheckpointCoordinator(
            self.config, persist=self._persists_checkpoints)
        self.coordinator.begin_attempt(self.clock.now())
        self.checkpoint_store = self.coordinator.store
        #: Checkpoint ids sealed this round, whose completion
        #: notifications still have to be delivered to the tasks (2PC
        #: sinks commit on this signal).
        self._completion_notifications: List[int] = []
        self.recoveries = 0
        self.restarts = 0
        self.dead_letters: List["DeadLetter"] = []
        self.metrics = self.coordinator.metrics
        #: The live observability layer, or ``None``; the scheduler pays
        #: one ``is not None`` test per round when disabled, and the
        #: per-record path is untouched either way.
        self.observability: Optional[RuntimeObservability] = (
            RuntimeObservability(self.config.observability, self)
            if self.config.observability is not None else None)
        self._last_result: Optional[JobResult] = None
        self._build()

    # -- construction -----------------------------------------------------

    def _build(self) -> None:
        cfg = self.config
        tracer = (self.observability.tracer
                  if self.observability is not None else None)
        for vertex_id, vertex in sorted(self.job_graph.vertices.items()):
            subtasks = []
            for index in range(vertex.parallelism):
                operators = [factory() for factory in vertex.operator_factories]
                metrics = MetricGroup("%s.%d" % (vertex.name, index))
                task = Task(vertex.name, vertex_id, index, vertex.parallelism,
                            operators, self.clock, metrics,
                            elements_per_step=cfg.elements_per_step,
                            batch_size=cfg.batch_size,
                            operator_profiling=cfg.operator_profiling,
                            tracer=tracer)
                task.checkpoint_ack = self._acknowledge_checkpoint
                task.quarantine_threshold = cfg.quarantine_threshold
                task.dead_letter_collector = self._collect_dead_letter
                subtasks.append(task)
            self._tasks_by_vertex[vertex_id] = subtasks
            self.tasks.extend(subtasks)

        for edge in self.job_graph.edges:
            upstream = self._tasks_by_vertex[edge.source_vertex]
            downstream = self._tasks_by_vertex[edge.target_vertex]
            if (isinstance(edge.partitioner, ForwardPartitioner)
                    and len(upstream) != len(downstream)):
                raise ValueError(
                    "forward edge %r requires equal parallelism (%d vs %d)"
                    % (edge, len(upstream), len(downstream)))
            for up in upstream:
                channels = [self._create_channel(edge, up, down)
                            for down in downstream]
                # Stateful partitioners (rebalance) are cloned per
                # upstream subtask: each subtask owns its own cursor, so
                # the cursor belongs to exactly one task's checkpoint
                # snapshot and restores consistently.
                up.add_output_edge(OutputEdge(edge.partitioner.clone(),
                                              channels, up.subtask_index))

        self._finalize_build()

    def _create_channel(self, edge: Any, up: Task, down: Task) -> Channel:
        """Create and wire the physical channel between two subtasks.
        Overridden by the multiprocess backend's shard engine, which
        substitutes cross-worker channels with pipe-backed exchanges."""
        channel = Channel(
            "%s#%d->%s#%d" % (up.vertex_name, up.subtask_index,
                              down.vertex_name, down.subtask_index),
            capacity=self.config.channel_capacity)
        down.add_input(channel, edge.target_input)
        return channel

    def _finalize_build(self) -> None:
        """Open every deployed task.  The shard engine discards foreign
        subtasks before opening, so operators with side effects (file
        sinks) only ever open on their owning worker."""
        for task in self.tasks:
            task.open()

    # -- checkpoint coordination -------------------------------------------

    def _maybe_trigger_checkpoint(self) -> None:
        coordinator = self.coordinator
        now = self.clock.now()
        if (not coordinator.due(now)
                or any(t.finished for t in self.tasks if t.is_source)):
            return  # a draining job cannot complete a full barrier cut
        expected = {t.subtask_id for t in self.tasks if not t.finished}
        checkpoint_id = coordinator.trigger(expected, now)
        if checkpoint_id is None:
            return
        for task in self.tasks:
            if task.is_source and not task.finished:
                task.pending_checkpoint = checkpoint_id
        if self.observability is not None:
            self.observability.on_checkpoint_triggered(checkpoint_id,
                                                       len(expected))

    def _acknowledge_checkpoint(self, checkpoint_id: int,
                                snapshot: TaskSnapshot) -> None:
        completed = self.coordinator.acknowledge(checkpoint_id, snapshot,
                                                 self.clock.now())
        if completed is None:
            return
        # Deferred until after the current task step so notifications
        # observe a consistent post-checkpoint world.
        self._completion_notifications.append(checkpoint_id)
        if self.observability is not None:
            self.observability.on_checkpoint_completed(
                completed, self.coordinator.last_state_entries)

    def _maybe_abort_pending_checkpoint(self) -> None:
        """Coordinator self-defence: give up on a checkpoint that can no
        longer complete (a participant finished before acking) or that
        overstayed ``checkpoint_timeout_ms``, instead of wedging the
        trigger loop forever."""
        if self.coordinator.pending is None:
            return
        finished = {task.subtask_id for task in self.tasks if task.finished}
        reason = self.coordinator.stale_reason(finished, self.clock.now())
        if reason is None:
            return
        checkpoint_id = self.coordinator.pending.checkpoint_id
        escalation = self.coordinator.abort(reason)
        if self.observability is not None:
            self.observability.on_checkpoint_aborted(checkpoint_id, reason)
        for task in self.tasks:
            task.abort_checkpoint(checkpoint_id)
        if escalation is not None:
            self._handle_failure(escalation)

    def _deliver_checkpoint_notifications(self) -> None:
        """Tell every live task about checkpoints sealed last round; this
        is the commit signal of the two-phase-commit sink protocol."""
        while self._completion_notifications:
            checkpoint_id = self._completion_notifications.pop(0)
            for task in self.tasks:
                if not task.finished:
                    task.notify_checkpoint_complete(checkpoint_id)

    # -- supervision --------------------------------------------------------

    def _collect_dead_letter(self, letter: "DeadLetter") -> None:
        self.dead_letters.append(letter)

    def _handle_failure(self, exc: BaseException) -> None:
        """The supervisor: consult the restart strategy and either restart
        the job (from the latest checkpoint, or from scratch when none
        survives) or let the failure escape."""
        delay_ms = self.coordinator.on_failure(exc, self.clock.now())
        if delay_ms is None:
            # No restart strategy: injected crashes restore from the
            # latest checkpoint; real operator exceptions propagate.
            if isinstance(exc, InjectedFailure):
                self.recover()
                return
            raise exc
        if delay_ms:
            self.clock.advance(delay_ms)  # restart delay burns simulated time
        self.restarts += 1
        if self.observability is not None:
            self.observability.on_restart(self.restarts, delay_ms, exc)
        checkpoint = self.coordinator.restore_point()
        if checkpoint is not None:
            self._restore(checkpoint)
        else:
            self._restart_from_scratch()

    def _restart_from_scratch(self) -> None:
        """Redeploy the whole job from the job graph -- fresh operators,
        empty channels, sources at offset zero.  Used when a supervised
        failure strikes before any checkpoint completed."""
        self.coordinator.begin_attempt(self.clock.now())
        self.tasks = []
        self._tasks_by_vertex = {}
        self._build()
        self.recoveries += 1

    # -- recovery -----------------------------------------------------------

    def recover(self) -> None:
        """Restore every subtask from the latest completed checkpoint and
        rewind sources; in-flight data is discarded (it will be replayed)."""
        checkpoint = self.coordinator.restore_point()
        if checkpoint is None:
            raise JobFailedError("failure without any completed checkpoint")
        self._restore(checkpoint)

    def _restore(self, checkpoint: CompletedCheckpoint) -> None:
        self.coordinator.pending = None
        for task in self.tasks:
            for channel, _ in task.inputs:
                channel.clear()
            task.reset_progress()
            snapshot = checkpoint.snapshot_for(task.subtask_id)
            if snapshot is not None:
                task.restore(snapshot)
        self.recoveries += 1
        if self.observability is not None:
            self.observability.on_recovery(checkpoint.checkpoint_id)

    def operator_stats(self) -> List[OperatorStats]:
        """Job-level per-operator throughput profile, merged across
        parallel subtasks (requires ``operator_profiling=True``), in
        first-seen (roughly topological) operator order."""
        merged: Dict[str, OperatorStats] = {}
        order: List[str] = []
        for task in self.tasks:
            for stats in task.operator_stats:
                existing = merged.get(stats.name)
                if existing is None:
                    merged[stats.name] = combined = OperatorStats(stats.name)
                    combined.merge(stats)
                    order.append(stats.name)
                else:
                    existing.merge(stats)
        return [merged[name] for name in order]

    # -- queryable state -----------------------------------------------------

    def query_state(self, operator_name: str, state_name: str,
                    key: Any, default: Any = None) -> Any:
        """Read one key's value from an operator's keyed state -- the
        queryable-state facility that lets a serving layer probe the live
        view instead of waiting for sink output (the freshness story of
        experiment E9)."""
        from repro.runtime.partition import hash_key
        for vertex_id, subtasks in self._tasks_by_vertex.items():
            names = self._operator_names(vertex_id)
            if operator_name not in names:
                continue
            position = names.index(operator_name)
            subtask = subtasks[hash_key(key) % len(subtasks)]
            table = subtask.chain[position].backend.table(state_name)
            return table.get(key, default)
        raise KeyError("no operator named %r (available: %r)"
                       % (operator_name,
                          sorted(name for vertex in
                                 self.job_graph.vertices.values()
                                 for name in vertex.names)))

    # -- savepoints --------------------------------------------------------

    def _operator_names(self, vertex_id: int) -> List[str]:
        return self.job_graph.vertices[vertex_id].names

    def create_savepoint(self) -> "Savepoint":
        """Package the latest completed checkpoint as a savepoint that a
        new execution of the same program (possibly at different
        parallelism) can restore. State is keyed by operator *name*, so
        the program must use unique operator names."""
        from repro.state.savepoint import OperatorSnapshot, Savepoint
        latest = self.checkpoint_store.latest
        if latest is None:
            raise JobFailedError(
                "no completed checkpoint to derive a savepoint from")
        all_names = [name for vertex in self.job_graph.vertices.values()
                     for name in vertex.names]
        duplicates = {name for name in all_names
                      if all_names.count(name) > 1}
        if duplicates:
            raise JobFailedError(
                "savepoints need unique operator names; duplicated: %r "
                "(pass name=... to the fluent API)" % sorted(duplicates))
        operators: Dict[str, List[OperatorSnapshot]] = {}
        for vertex_id, subtasks in self._tasks_by_vertex.items():
            names = self._operator_names(vertex_id)
            for task in subtasks:
                snapshot = latest.snapshot_for(task.subtask_id)
                if snapshot is None:
                    raise JobFailedError(
                        "checkpoint %d lacks a snapshot for %r"
                        % (latest.checkpoint_id, task.subtask_id))
                for position, name in enumerate(names):
                    key = str(position)
                    operators.setdefault(name, []).append(OperatorSnapshot(
                        task.subtask_index,
                        snapshot.keyed_state.get(key, {}),
                        snapshot.operator_state.get(key),
                        snapshot.timers.get(key, {})))
        return Savepoint(operators, latest.checkpoint_id)

    def restore_from_savepoint(self, savepoint: "Savepoint") -> None:
        """Initialise this (fresh) engine's state from a savepoint taken
        by a previous run of the same program.

        Operators are matched by name, so chaining changes caused by a
        different parallelism are harmless. Source operators must keep
        their parallelism (replay ownership is positional); stateful
        processing operators may rescale -- keyed state, timers and
        keyed operator state are redistributed by the engine's key hash.
        """
        from repro.runtime.operators import SourceOperator
        from repro.state.savepoint import merge_keyed_state, merge_timers
        for vertex_id, subtasks in self._tasks_by_vertex.items():
            names = self._operator_names(vertex_id)
            parallelism = len(subtasks)
            for position, name in enumerate(names):
                snapshots = savepoint.snapshots_for(name)
                if snapshots is None:
                    raise JobFailedError(
                        "savepoint has no state for operator %r "
                        "(available: %r)" % (name,
                                             savepoint.operator_names()))
                operator = subtasks[0].chain[position].operator
                is_source = isinstance(operator, SourceOperator)
                if is_source and getattr(operator, "rescalable_source",
                                         False):
                    is_source = False  # partition-owning sources rescale
                if is_source:
                    if len(snapshots) != parallelism:
                        raise JobFailedError(
                            "source operator %r cannot rescale (%d -> %d)"
                            % (name, len(snapshots), parallelism))
                    for task, snapshot in zip(subtasks, snapshots):
                        chained = task.chain[position]
                        chained.backend.restore(snapshot.keyed_state)
                        chained.timers.restore(snapshot.timers)
                        if snapshot.operator_state is not None:
                            chained.operator.restore_state(
                                snapshot.operator_state)
                    continue
                for task in subtasks:
                    chained = task.chain[position]
                    chained.backend.restore(merge_keyed_state(
                        snapshots, task.subtask_index, parallelism))
                    chained.timers.restore(merge_timers(
                        snapshots, task.subtask_index, parallelism))
                    rescaled = chained.operator.rescale_operator_state(
                        [snap.operator_state for snap in snapshots],
                        task.subtask_index, parallelism)
                    if rescaled is not None:
                        chained.operator.restore_state(rescaled)

    # -- the loop -----------------------------------------------------------

    def _step_tasks(self, rounds: int) -> bool:
        """One fair scheduling pass: every runnable task gets one bounded
        ``step()``.  Shared by ``execute()`` and the multiprocess
        backend's shard loop, so failure handling and chaos stalls mean
        the same thing on both backends."""
        cfg = self.config
        progressed = False
        for task in self.tasks:
            if not task.is_runnable:
                continue
            if cfg.chaos is not None and cfg.chaos.is_stalled(task, rounds):
                continue
            try:
                if task.step():
                    progressed = True
            except Exception as exc:
                self._handle_failure(exc)
                progressed = True
                break
        return progressed

    def _tick(self) -> int:
        """Advance the simulated clock one tick and fire the processing
        timers that came due; returns the new time."""
        self.clock.advance(self.config.tick_ms)
        now = self.clock.now()
        for task in self.tasks:
            task.on_processing_time(now)
        return now

    def _skip_to_next_timer(self, now: int) -> bool:
        """Jump the clock over an idle stretch to the earliest pending
        processing-time timer and fire it; False when none lies ahead."""
        next_timer = min(
            (chained.timers.processing_time.peek_timestamp()
             for task in self.tasks if not task.finished
             for chained in task.chain),
            default=MAX_TIMESTAMP)
        if not now < next_timer < MAX_TIMESTAMP:
            return False
        self.clock.set(next_timer)
        for task in self.tasks:
            task.on_processing_time(next_timer)
        return True

    def execute(self) -> JobResult:
        cfg = self.config
        obs = self.observability
        rounds = 0
        stall_rounds = 0
        cancelled = False
        while not all(task.finished for task in self.tasks):
            if rounds >= cfg.max_rounds:
                raise JobStalledError(
                    "exceeded max_rounds=%d; unfinished: %r"
                    % (cfg.max_rounds,
                       [t for t in self.tasks if not t.finished]))
            if cfg.cancel_hook is not None and cfg.cancel_hook(self, rounds):
                cancelled = True
                break
            if cfg.failure_hook is not None and cfg.failure_hook(self, rounds):
                self.recover()
            if cfg.chaos is not None:
                try:
                    cfg.chaos.on_round(self, rounds)
                except Exception as exc:
                    self._handle_failure(exc)

            progressed = self._step_tasks(rounds)

            self._deliver_checkpoint_notifications()
            now = self._tick()
            self._maybe_abort_pending_checkpoint()
            self._maybe_trigger_checkpoint()
            rounds += 1
            if obs is not None:
                obs.on_round(rounds)

            if progressed:
                stall_rounds = 0
                continue
            # No record progress: jump the clock to the next processing
            # timer if one exists, otherwise count towards a stall.
            if self._skip_to_next_timer(now):
                stall_rounds = 0
                continue
            stall_rounds += 1
            if stall_rounds > 1000:
                raise JobStalledError(
                    "no progress for %d rounds; unfinished: %r"
                    % (stall_rounds,
                       [t for t in self.tasks if not t.finished]))

        return self._assemble_result(rounds, cancelled)

    def _assemble_result(self, rounds: int, cancelled: bool = False
                         ) -> JobResult:
        """Merge task/coordinator metrics into the JobResult and cache it
        for ``job_report()``.  Split out of ``execute()`` because the
        multiprocess backend's shard loop assembles per-worker results
        through the same path."""
        if self.observability is not None:
            self.observability.sample()  # final frontier/occupancy snapshot
        coordinator = self.coordinator
        counters = merge_counter_maps(
            [task.metrics.counters() for task in self.tasks]
            + [coordinator.counters()])
        gauges = merge_gauge_maps(
            task.metrics.gauges() for task in self.tasks)
        result = JobResult(rounds, self.clock.now(), counters,
                           checkpoints_completed=(
                               coordinator.checkpoints_completed),
                           checkpoint_durations_ms=list(
                               coordinator.checkpoint_durations),
                           recoveries=self.recoveries,
                           cancelled=cancelled,
                           restarts=self.restarts,
                           checkpoints_aborted=coordinator.checkpoints_aborted,
                           dead_letters=list(self.dead_letters),
                           gauges=gauges)
        self._last_result = result
        return result

    # -- reporting -----------------------------------------------------------

    def job_report(self) -> "JobReport":
        """Structured post-run summary (see
        :mod:`repro.observability`): per-operator throughput, watermark
        lag, backpressure-stall time, checkpoint statistics, Cutty
        sharing counters and the span digest, renderable as text, JSON
        or Prometheus exposition.

        Always available after :meth:`execute`: the always-on counters
        (records in/out, checkpoints, Cutty cost tables) report with
        observability disabled; the runtime sections (stall time, lag
        and skew gauges, channel occupancy, spans) need
        ``EngineConfig(observability=True)``.  Built by the same
        federation as the multiprocess backend's report, over this
        engine's single shard.
        """
        from repro.observability import JobReport
        from repro.observability.reporter import federate_report
        result = self._last_result
        if result is None:
            raise JobFailedError(
                "job_report() requires a completed execute()")
        return JobReport(federate_report(
            result, [self._report_sections()],
            self.coordinator.report_section()))

    def _report_sections(self) -> Dict[str, Any]:
        """This engine's shard of the job report: per-subtask rows and
        the gauges of the tasks it runs (federated by
        :func:`~repro.observability.reporter.federate_report`)."""
        from repro.observability import collect_cutty_stats
        result = self._last_result
        assert result is not None
        obs = self.observability
        now = self.clock.now()
        sim_seconds = result.simulated_time_ms / 1000.0

        operators = []
        for task in self.tasks:
            counters = task.metrics.counters()
            records_out = counters.get("records_out", 0)
            row: Dict[str, Any] = {
                "operator": task.vertex_name,
                "subtask": task.subtask_index,
                "records_in": counters.get("records_in", 0),
                "records_out": records_out,
                "dead_letters": counters.get("dead_letters", 0),
            }
            if sim_seconds > 0:
                row["throughput_rps"] = records_out / sim_seconds
            watermark = task.current_watermark
            if MIN_TIMESTAMP < watermark < MAX_TIMESTAMP:
                row["watermark_lag_ms"] = max(0, now - watermark)
            if obs is not None:
                key = "%s.%d" % (task.vertex_name, task.subtask_index)
                row["backpressure_stall_ms"] = obs.stall_ms.get(key, 0)
            operators.append(row)

        sections: Dict[str, Any] = {
            "job": {
                "rounds": result.rounds,
                "simulated_time_ms": result.simulated_time_ms,
                "records_emitted": result.records_emitted,
                "observability": obs is not None,
            },
            "operators": operators,
            "cutty": collect_cutty_stats(self),
        }
        for name, hook in (("cutover", "cutover_report"),
                           ("arrangements", "arrangement_report")):
            rows = [row for task in self.tasks
                    for row in task.operator_reports(hook)]
            if rows:
                sections[name] = rows

        if obs is not None:
            skew = obs.registry.gauge("watermark_skew_ms")
            lag = obs.registry.gauge("watermark_lag_ms")
            sections["watermarks"] = {
                "skew_ms": skew.value,
                "skew_ms_max": skew.max_value,
                "lag_ms": lag.value,
                "lag_ms_max": lag.max_value,
            }
            sections["channels"] = [
                {"channel": channel.name,
                 "pushed": channel.pushed,
                 "polled": channel.polled,
                 "cleared": channel.cleared,
                 "occupancy_hwm": obs.registry.gauge(
                     "channel_occupancy.%s" % channel.name).max_value}
                for task in self.tasks for channel, _ in task.inputs]
            if obs.tracer is not None:
                sections["spans"] = obs.tracer.digest()
        return sections
