"""Input feeds for the benchmark's workloads, and the probe they report to.

A feed is the workload's load generator: an iterator the engine's source
pulls from.  It stamps every record it hands out with a creation time,
and that stamp travels inside the record to the sink, where event-to-sink
latency is measured.

* :class:`ClosedLoopFeed` hands out the next record as soon as it is
  pulled (a closed loop: a slow engine pulls less often) and stamps it
  with the time of the pull.
* :class:`OpenLoopFeed` releases records on a fixed-rate schedule that
  does not slow down when the engine does (an open loop).  It stamps each
  record with the time it was *due*, sleeps only when it is early, and
  records how late it ran.

Sources may run in forked worker processes, so what the feeds observe
goes to a :class:`Probe` in fork-inherited shared memory, which the
benchmark reads back after ``execute()`` returns.  All times are
``time.monotonic()``, one clock for every process on the host.
"""

from __future__ import annotations

import mmap
import time
from typing import List, Sequence


class Probe:
    """Shared-memory mailbox for one job run.

    The cells live in an anonymous shared mapping created before the
    engine forks its workers, so every process writes into the same
    pages (and no file is created for them).  Each feed is pulled by one
    source subtask, so every cell has a single writer and needs no lock.
    ``lag_capacity`` is the number of records the open loop will release.
    """

    _FIRST_PULL, _LIVE_START, _LAG_COUNT, _LAGS = 0, 1, 2, 3

    def __init__(self, lag_capacity: int = 0) -> None:
        self._map = mmap.mmap(-1, 8 * (self._LAGS + lag_capacity))
        self._cells = memoryview(self._map).cast("d")

    def note_first_pull(self, now: float) -> None:
        self._cells[self._FIRST_PULL] = now

    def note_live_start(self, now: float) -> None:
        self._cells[self._LIVE_START] = now

    def record_lag(self, index: int, lag_s: float) -> None:
        self._cells[self._LAGS + index] = lag_s
        self._cells[self._LAG_COUNT] = index + 1

    @property
    def first_pull(self) -> float:
        return self._cells[self._FIRST_PULL]

    @property
    def live_started(self) -> float:
        return self._cells[self._LIVE_START]

    def lags(self) -> List[float]:
        count = int(self._cells[self._LAG_COUNT])
        return self._cells[self._LAGS:self._LAGS + count].tolist()


class ClosedLoopFeed:
    """Hands out ``values`` as fast as they are pulled, appending the pull
    time to each tuple -- or 0.0 with ``stamped=False``, for data at rest
    whose creation lies before the job."""

    def __init__(self, values: Sequence[tuple], probe: Probe,
                 stamped: bool = True) -> None:
        self._values = values
        self._probe = probe
        self._stamped = stamped
        self._index = 0

    def __iter__(self) -> "ClosedLoopFeed":
        return self

    def __next__(self) -> tuple:
        index = self._index
        if index >= len(self._values):
            raise StopIteration
        now = time.monotonic()
        if index == 0:
            self._probe.note_first_pull(now)
        self._index = index + 1
        return self._values[index] + (now if self._stamped else 0.0,)


class OpenLoopFeed:
    """Releases ``values`` at ``rate`` records per second from its first
    pull on, appending each record's due time to its tuple.

    Lateness -- hand-out time minus due time, after any sleep -- is
    recorded per record.
    """

    def __init__(self, values: Sequence[tuple], rate: float,
                 probe: Probe) -> None:
        self._values = values
        self._period = 1.0 / rate
        self._probe = probe
        self._index = 0
        self._t0 = 0.0

    def __iter__(self) -> "OpenLoopFeed":
        return self

    def __next__(self) -> tuple:
        index = self._index
        if index >= len(self._values):
            raise StopIteration
        if index == 0:
            self._t0 = time.monotonic()
            self._probe.note_live_start(self._t0)
        due = self._t0 + index * self._period
        now = time.monotonic()
        if now < due:
            time.sleep(due - now)
            now = time.monotonic()
        self._probe.record_lag(index, now - due)
        self._index = index + 1
        return self._values[index] + (due,)

