"""In-memory channels: the physical links between subtasks.

A channel is a FIFO of :class:`~repro.runtime.elements.StreamElement`
with a *soft* capacity.  The scheduler refuses to run a task whose output
channels are at or over capacity, which models credit-based flow control
(backpressure) without the deadlock hazards of hard-blocking mid-element:
a task may overshoot capacity by the fan-out of a single input element,
then is paused until downstream drains.

Channels also implement the *blocking* needed for aligned checkpoint
barriers: once a barrier for checkpoint *n* arrives on a channel, the
receiving task blocks that channel until barriers arrived on all of its
inputs, preserving the exactly-once cut of asynchronous barrier
snapshotting.

Data travels only in record batches
(:class:`~repro.runtime.elements.RecordBatch` or its columnar twin), and
occupancy accounting is *record-denominated*: a batch of *n* records
weighs *n* against capacity, so backpressure thresholds mean the same
thing whatever the ``batch_size``.  The occupancy is maintained as a
plain integer on push/poll -- the scheduler's runnable scan reads
``size`` and ``has_capacity`` once per task per round, and must not pay
a recount per element.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from repro.runtime.elements import StreamElement


def element_weight(element: StreamElement) -> int:
    """Records carried by one channel element (control elements weigh 1).

    Uses ``len(batch)`` rather than ``len(batch.records)`` so weighing a
    columnar batch never materialises its row view.
    """
    return len(element) if element.is_batch else 1


class Channel:
    """A FIFO between one upstream and one downstream subtask."""

    __slots__ = ("name", "capacity", "_queue", "size", "pushed", "polled",
                 "cleared", "blocked", "finished")

    def __init__(self, name: str, capacity: int = 128) -> None:
        if capacity < 1:
            raise ValueError("channel capacity must be >= 1")
        self.name = name
        self.capacity = capacity
        self._queue: Deque[StreamElement] = deque()
        #: Cached record-denominated occupancy, updated on push/poll.
        self.size = 0
        self.pushed = 0          # lifetime counters, reported as metrics
        self.polled = 0
        #: Records dropped without being polled (failure-recovery clears
        #: and chaos-injected losses).  The lifetime invariant is
        #: ``pushed == polled + cleared + size``; throughput/occupancy
        #: figures in ``job_report()`` rely on it holding post-restore.
        self.cleared = 0
        self.blocked = False     # barrier alignment: reads suspended
        self.finished = False    # EndOfStream consumed

    def push(self, element: StreamElement) -> None:
        self._queue.append(element)
        weight = element_weight(element)
        self.size += weight
        self.pushed += weight

    def poll(self) -> Optional[StreamElement]:
        """Dequeue the next element, or ``None`` when empty/blocked."""
        if self.blocked or not self._queue:
            return None
        element = self._queue.popleft()
        weight = element_weight(element)
        self.size -= weight
        self.polled += weight
        return element

    def requeue_front(self, element: StreamElement) -> None:
        """Put the unprocessed remainder of a split batch back at the
        head of the queue.

        Budget-exact stepping: a task that polls a batch bigger than its
        remaining step budget processes only the records it has budget
        for and returns the rest here, so ``elements_per_step`` throttles
        identically at every batch size (backpressure dynamics -- and
        everything observing them -- stay comparable).  Reverses the
        poll-side accounting so ``pushed``/``polled`` still balance.
        """
        weight = element_weight(element)
        self._queue.appendleft(element)
        self.size += weight
        self.polled -= weight

    def peek(self) -> Optional[StreamElement]:
        if self.blocked or not self._queue:
            return None
        return self._queue[0]

    @property
    def is_empty(self) -> bool:
        return not self._queue

    @property
    def has_capacity(self) -> bool:
        return self.size < self.capacity

    @property
    def readable(self) -> bool:
        return bool(self._queue) and not self.blocked and not self.finished

    def clear(self) -> None:
        """Drop all buffered elements (used on failure/restore).

        The dropped records are accounted in ``cleared`` -- they were
        pushed but will never be polled -- so the lifetime counters stay
        balanced and post-restore throughput/occupancy figures are not
        skewed by phantom in-flight records.
        """
        self.cleared += self.size
        self._queue.clear()
        self.size = 0
        self.blocked = False
        self.finished = False

    # -- chaos injection hooks (repro.runtime.faults) ----------------------

    @property
    def has_buffered_record(self) -> bool:
        """Whether at least one *data* record (not a barrier, watermark or
        EOS) is buffered -- the only elements chaos may drop/duplicate."""
        return any(element.is_batch and element.records
                   for element in self._queue)

    def _demote_columnar(self, index: int) -> StreamElement:
        """Replace a columnar batch at ``index`` with its row-batch twin
        so chaos mutations edit the authoritative record list rather than
        a cached materialisation that would desync from the columns."""
        element = self._queue[index]
        if element.is_columnar:
            from repro.runtime.elements import RecordBatch
            element = RecordBatch(list(element.records))
            self._queue[index] = element
        return element

    def drop_one_record(self) -> bool:
        """Remove the oldest buffered data record (simulated network
        loss); control elements are never dropped, their loss would wedge
        alignment rather than exercise recovery.  The oldest record is
        carved out of its batch in place."""
        for index, element in enumerate(self._queue):
            if element.is_batch and element.records:
                element = self._demote_columnar(index)
                element.records.pop(0)
                if not element.records:
                    del self._queue[index]
                self.size -= 1
                self.cleared += 1
                return True
        return False

    def duplicate_one_record(self) -> bool:
        """Repeat the oldest buffered data record in place (simulated
        network retransmission)."""
        for index, element in enumerate(self._queue):
            if element.is_batch and element.records:
                element = self._demote_columnar(index)
                element.records.insert(0, element.records[0])
                self.size += 1
                self.pushed += 1
                return True
        return False

    def __repr__(self) -> str:
        state = "blocked" if self.blocked else ("finished" if self.finished
                                                else "open")
        return "Channel(%s, size=%d, %s)" % (self.name, self.size, state)
