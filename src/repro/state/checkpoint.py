"""Checkpoint bookkeeping for asynchronous barrier snapshotting (ABS).

The coordinator side of fault tolerance: a :class:`PendingCheckpoint`
collects per-subtask snapshots as barriers flow through the job; once
every stateful subtask has acknowledged, it becomes a
:class:`CompletedCheckpoint` held by the :class:`CheckpointStore`.
Recovery replays the job from the latest completed checkpoint: operator
state is restored and replayable sources rewind to their recorded
offsets.

The actual barrier injection/alignment lives in the runtime
(:mod:`repro.runtime.task`); this module is pure bookkeeping so it can be
unit-tested without an engine.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

SubtaskId = Tuple[str, int]  # (operator id, subtask index)


class TaskSnapshot:
    """Everything one subtask contributes to a checkpoint."""

    __slots__ = ("subtask", "keyed_state", "operator_state", "timers",
                 "partitioners", "next_input")

    def __init__(self, subtask: SubtaskId, keyed_state: Dict[str, Dict[Any, Any]],
                 operator_state: Any = None, timers: Optional[dict] = None,
                 partitioners: Optional[Dict[str, Any]] = None,
                 next_input: int = 0) -> None:
        self.subtask = subtask
        self.keyed_state = keyed_state
        self.operator_state = operator_state
        self.timers = timers or {}
        #: Routing state of stateful output partitioners (rebalance
        #: cursors), keyed by output-edge position -- part of the
        #: consistent cut so post-restore round-robin placement replays
        #: the original run.
        self.partitioners = partitioners or {}
        #: The task's fair-poll cursor over its input channels, so a
        #: restored multi-input task merges its inputs in the same order
        #: as the run that did not crash.
        self.next_input = next_input

    def __repr__(self) -> str:
        return "TaskSnapshot(%s#%d)" % self.subtask


class PendingCheckpoint:
    """A checkpoint in flight: barriers injected, acks being collected."""

    def __init__(self, checkpoint_id: int, expected: Set[SubtaskId],
                 trigger_time: int) -> None:
        if not expected:
            raise ValueError("a checkpoint needs at least one participant")
        self.checkpoint_id = checkpoint_id
        self.trigger_time = trigger_time
        self.abort_reason: Optional[str] = None
        self._expected = set(expected)
        self._snapshots: Dict[SubtaskId, TaskSnapshot] = {}

    def acknowledge(self, snapshot: TaskSnapshot) -> None:
        if self.aborted:
            raise RuntimeError(
                "checkpoint %d was aborted (%s); late ack from %r"
                % (self.checkpoint_id, self.abort_reason, snapshot.subtask))
        if snapshot.subtask not in self._expected:
            raise ValueError(
                "unexpected ack from %r for checkpoint %d"
                % (snapshot.subtask, self.checkpoint_id))
        self._snapshots[snapshot.subtask] = snapshot

    def abort(self, reason: str) -> None:
        """Mark this checkpoint as failed; collected snapshots are
        discarded by the coordinator.  Aborting is how the coordinator
        survives wedges (a participant finishing before acking, a
        barrier lost to a stalled source) instead of silently never
        checkpointing again."""
        self.abort_reason = reason

    @property
    def aborted(self) -> bool:
        return self.abort_reason is not None

    def is_expired(self, now: int, timeout_ms: Optional[int]) -> bool:
        """Whether this checkpoint has been in flight longer than the
        coordinator tolerates."""
        return timeout_ms is not None and now - self.trigger_time > timeout_ms

    @property
    def is_complete(self) -> bool:
        return set(self._snapshots) == self._expected

    @property
    def pending_subtasks(self) -> Set[SubtaskId]:
        return self._expected - set(self._snapshots)

    def seal(self, completion_time: int) -> "CompletedCheckpoint":
        if self.aborted:
            raise RuntimeError("cannot seal aborted checkpoint %d (%s)"
                               % (self.checkpoint_id, self.abort_reason))
        if not self.is_complete:
            raise RuntimeError(
                "checkpoint %d still waiting on %r"
                % (self.checkpoint_id, sorted(self.pending_subtasks)))
        return CompletedCheckpoint(self.checkpoint_id, dict(self._snapshots),
                                   self.trigger_time, completion_time)


class CompletedCheckpoint:
    """An immutable, fully-acknowledged checkpoint."""

    def __init__(self, checkpoint_id: int,
                 snapshots: Dict[SubtaskId, TaskSnapshot],
                 trigger_time: int, completion_time: int) -> None:
        self.checkpoint_id = checkpoint_id
        self.snapshots = snapshots
        self.trigger_time = trigger_time
        self.completion_time = completion_time

    def snapshot_for(self, subtask: SubtaskId) -> Optional[TaskSnapshot]:
        return self.snapshots.get(subtask)

    @property
    def duration_ms(self) -> int:
        return self.completion_time - self.trigger_time

    def __repr__(self) -> str:
        return "CompletedCheckpoint(id=%d, tasks=%d)" % (
            self.checkpoint_id, len(self.snapshots))


class CheckpointStore:
    """Retains the most recent completed checkpoints (like Flink's
    ``state.checkpoints.num-retained``)."""

    def __init__(self, max_retained: int = 3) -> None:
        if max_retained < 1:
            raise ValueError("must retain at least one checkpoint")
        self._max_retained = max_retained
        self._completed: List[CompletedCheckpoint] = []

    def add(self, checkpoint: CompletedCheckpoint) -> None:
        self._completed.append(checkpoint)
        self._completed.sort(key=lambda c: c.checkpoint_id)
        while len(self._completed) > self._max_retained:
            self._completed.pop(0)

    def discard(self, checkpoint_id: int) -> None:
        """Drop one retained checkpoint (it failed durability
        verification and must not be offered for recovery again)."""
        self._completed = [checkpoint for checkpoint in self._completed
                           if checkpoint.checkpoint_id != checkpoint_id]

    @property
    def latest(self) -> Optional[CompletedCheckpoint]:
        return self._completed[-1] if self._completed else None

    @property
    def all_retained(self) -> List[CompletedCheckpoint]:
        return list(self._completed)

    def __len__(self) -> int:
        return len(self._completed)
