"""Checkpoint coordination and restart supervision, shared by both engines.

The cooperative :class:`~repro.runtime.engine.Engine` drives one
:class:`CheckpointCoordinator` from its scheduler loop, the multiprocess
parent from its supervision loop.  It owns the checkpoint store (durable
when ``checkpoint_dir`` is set), the trigger cadence, the pending
checkpoint and its ack -> seal -> store path, aborts and their
escalation, the restore-point choice, the restart-strategy call and the
checkpoint counters of the job report.  It never reads a clock: callers
pass ``now`` (simulated ms on the cooperative backend, wall ms on the
multiprocess one).  Delivering barriers, aborts and completion
notifications stays with the engines, which know where the tasks live.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Container, Dict, List, Optional, Set

from repro.metrics import MetricGroup
from repro.observability.runtime import checkpoint_state_entries
from repro.state.checkpoint import (
    CheckpointStore,
    CompletedCheckpoint,
    PendingCheckpoint,
    SubtaskId,
    TaskSnapshot,
)
from repro.state.durable import DurableCheckpointStore

if TYPE_CHECKING:
    from repro.runtime.engine import EngineConfig


class CheckpointCoordinator:
    """Trigger, collect, seal and abort checkpoints; decide restarts."""

    def __init__(self, config: "EngineConfig", persist: bool = True) -> None:
        self.config = config
        if persist and config.checkpoint_dir is not None:
            self.store: CheckpointStore = DurableCheckpointStore(
                config.checkpoint_dir, config.max_retained_checkpoints)
        else:
            self.store = CheckpointStore(config.max_retained_checkpoints)
        self.pending: Optional[PendingCheckpoint] = None
        self.next_checkpoint_id = 1
        #: When the next checkpoint is due (``None``: checkpointing off).
        self.next_trigger: Optional[int] = None
        self.checkpoints_completed = 0
        self.checkpoints_aborted = 0
        self.checkpoint_durations: List[int] = []
        self.consecutive_failures = 0
        #: State entries of the newest sealed checkpoint (observability
        #: on only: sizing a checkpoint walks its state).
        self.last_state_entries: Optional[int] = (
            0 if config.observability is not None else None)
        # Counter maps merge by *unqualified* name, so these must not
        # reuse task-level counter names (tasks count their own
        # dead_letters).
        self.metrics = MetricGroup("coordinator")
        self._restarts = self.metrics.counter("restarts")
        self._failures = self.metrics.counter("failures")
        self._aborted = self.metrics.counter("checkpoints_aborted")

    # -- triggering ---------------------------------------------------------

    def begin_attempt(self, now: int) -> None:
        """Forget any in-flight checkpoint and restart the trigger
        cadence: a new execution attempt starts from a clean cut."""
        self.pending = None
        interval = self.config.checkpoint_interval_ms
        self.next_trigger = now + interval if interval is not None else None

    def due(self, now: int) -> bool:
        """Whether a checkpoint should be triggered now."""
        return (self.pending is None and self.next_trigger is not None
                and now >= self.next_trigger)

    def trigger(self, expected: Set[SubtaskId], now: int) -> Optional[int]:
        """Open a checkpoint awaiting an ack from every subtask in
        ``expected`` and return its id (``None`` when nothing runs)."""
        self.next_trigger = now + self.config.checkpoint_interval_ms
        if not expected:
            return None
        checkpoint_id = self.next_checkpoint_id
        self.next_checkpoint_id += 1
        self.pending = PendingCheckpoint(checkpoint_id, expected,
                                         trigger_time=now)
        return checkpoint_id

    # -- acks, aborts ---------------------------------------------------------

    def acknowledge(self, checkpoint_id: int, snapshot: TaskSnapshot,
                    now: int) -> Optional[CompletedCheckpoint]:
        """Record one subtask's snapshot; returns the sealed checkpoint
        on the last expected ack.  Acks of aborted checkpoints are
        ignored."""
        pending = self.pending
        if pending is None or pending.checkpoint_id != checkpoint_id:
            return None
        pending.acknowledge(snapshot)
        if not pending.is_complete:
            return None
        completed = pending.seal(now)
        self.store.add(completed)
        self.checkpoint_durations.append(completed.duration_ms)
        self.checkpoints_completed += 1
        self.consecutive_failures = 0
        self.pending = None
        if self.last_state_entries is not None:
            self.last_state_entries = checkpoint_state_entries(completed)
        return completed

    def stale_reason(self, finished: Container[SubtaskId],
                     now: int) -> Optional[str]:
        """Why the pending checkpoint cannot complete any more -- a
        participant in ``finished`` never acknowledged, or it overstayed
        ``checkpoint_timeout_ms`` -- or ``None`` while it still can."""
        pending = self.pending
        if pending is None:
            return None
        for subtask in sorted(pending.pending_subtasks):
            if subtask in finished:
                return ("participant %s#%d finished before acknowledging"
                        % subtask)
        timeout = self.config.checkpoint_timeout_ms
        if pending.is_expired(now, timeout):
            return ("timed out after %d ms waiting on %r"
                    % (timeout, sorted(pending.pending_subtasks)))
        return None

    def abort(self, reason: str) -> Optional[Exception]:
        """Give up on the pending checkpoint; returns the job failure to
        escalate once too many checkpoints in a row were aborted."""
        from repro.runtime.engine import JobFailedError
        pending = self.pending
        assert pending is not None
        pending.abort(reason)
        self.pending = None
        self.checkpoints_aborted += 1
        self._aborted.inc()
        self.consecutive_failures += 1
        tolerable = self.config.tolerable_consecutive_checkpoint_failures
        if tolerable is None or self.consecutive_failures <= tolerable:
            return None
        self.consecutive_failures = 0
        return JobFailedError(
            "more than %d consecutive checkpoint failures "
            "(latest: checkpoint %d aborted: %s)"
            % (tolerable, pending.checkpoint_id, reason))

    # -- supervision ----------------------------------------------------------

    def on_failure(self, exc: BaseException, now: int) -> Optional[int]:
        """Count a failure and return the restart strategy's delay in ms
        (``None``: no strategy configured).  Raises
        :class:`~repro.runtime.engine.JobFailedError` when it gives up."""
        from repro.runtime.engine import JobFailedError
        self._failures.inc()
        strategy = self.config.restart_strategy
        if strategy is None:
            return None
        delay_ms = strategy.on_failure(now)
        if delay_ms is None:
            raise JobFailedError(
                "restart strategy %r gave up after: %r" % (strategy, exc)
            ) from exc
        self._restarts.inc()
        return delay_ms

    def restore_point(self) -> Optional[CompletedCheckpoint]:
        """The checkpoint a restart restores from (``None``: restart from
        scratch).  A durable store re-reads it from disk and verifies
        every checksum, falling back past corrupt or torn ones."""
        if isinstance(self.store, DurableCheckpointStore):
            return self.store.load_latest_verified()
        return self.store.latest

    # -- reporting ------------------------------------------------------------

    def counters(self) -> Dict[str, int]:
        """Supervision and durability counters for ``JobResult.counters``."""
        counters = self.metrics.counters()
        if isinstance(self.store, DurableCheckpointStore):
            counters["checkpoints_persisted"] = (
                self.store.checkpoints_persisted)
            counters["checkpoint_corruptions_detected"] = (
                self.store.corruptions_detected)
            counters["checkpoint_restore_fallbacks"] = (
                self.store.restore_fallbacks)
        return counters

    def report_section(self) -> Dict[str, Any]:
        """The ``checkpoints`` section of the job report."""
        section: Dict[str, Any] = {
            "completed": self.checkpoints_completed,
            "aborted": self.checkpoints_aborted,
        }
        durations = self.checkpoint_durations
        if durations:
            section["duration_ms_min"] = min(durations)
            section["duration_ms_max"] = max(durations)
            section["duration_ms_mean"] = sum(durations) / len(durations)
        if self.last_state_entries is not None:
            section["last_state_entries"] = self.last_state_entries
        if isinstance(self.store, DurableCheckpointStore):
            section["durable"] = self.store.durability_stats()
        return section
