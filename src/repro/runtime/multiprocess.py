"""Shared-nothing multiprocess execution backend.

Shards the subtask grid of a JobGraph across ``num_workers`` OS
processes.  Each worker runs the unmodified cooperative engine
(:class:`~repro.runtime.engine.Engine`) over the subtasks it owns
(ownership is ``subtask_index % num_workers``, so forward/chained edges
stay worker-local); records crossing worker boundaries travel as pickled
stream elements over POSIX pipes, hash-partitioned by the same
run-stable :func:`~repro.runtime.partition.hash_key` as in-process
exchanges -- which is exactly why that hash must not depend on
``PYTHONHASHSEED`` or object addresses.

Design notes:

* **fork only.**  Job graphs close over lambdas and bound methods that
  do not survive pickling, so workers are forked and inherit the graph
  (and, on recovery, the restore snapshots) by copy-on-write -- never
  serialised.
* **One pipe per ordered worker pair.**  A pipe has a single writer, so
  per-channel FIFO order is preserved end to end; elements are framed as
  ``(channel ordinal, element)`` where ordinals are assigned by graph
  construction order -- identical in every worker by determinism of
  ``_build``.
* **Flush-before-control is preserved**: barriers, watermarks and
  ``EndOfStream`` flow *in-band* through the same pipes as data (the
  task runtime already flushes its record buffer before broadcasting
  control elements), so alignment works unchanged across processes.
* **Backpressure** is modelled on the sender: an
  :class:`EgressChannel` reports itself full while its writer has more
  than a soft limit of unflushed bytes, which stalls the producing task
  through the ordinary ``has_output_capacity`` scan.  Writes are
  non-blocking so two workers saturating each other's pipes cannot
  deadlock.
* **The parent process runs the checkpoint coordinator**: the same
  :class:`~repro.runtime.coordinator.CheckpointCoordinator` as the
  cooperative engine, clocked in wall milliseconds.  The parent triggers
  barriers on its cadence, feeds it the acks (each carrying the subtask
  snapshot) arriving over the control pipes, and broadcasts completion
  notifications (the 2PC commit signal).  On a worker failure it tears
  down the whole fleet and respawns it from the coordinator's restore
  point -- shared-nothing recovery with fresh pipes, so no epoch
  filtering is needed.
* **Collect sinks stream** their buckets to the parent incrementally;
  the parent replays them into the caller-visible result buckets on
  success.  Delivery is at-least-once across a checkpoint restore
  (matching non-transactional sinks on the cooperative backend);
  restart-from-scratch discards the partial output.

Not supported (cooperative-backend-only): queryable state, savepoints,
``failure_hook``/``cancel_hook``/chaos injection, and cross-backend
determinism of *processing-time* semantics (each worker advances its own
simulated clock; event-time pipelines are bit-equal as multisets).
"""

from __future__ import annotations

import os
import pickle
import selectors
import struct
import time
import traceback
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.metrics import merge_counter_maps, merge_gauge_maps
from repro.runtime.coordinator import CheckpointCoordinator
from repro.runtime.channels import Channel, element_weight
from repro.runtime.columnar import (
    ColumnarCodecError,
    batch_to_columnar,
    decode_columnar,
    encode_columnar,
)
from repro.runtime.elements import RecordBatch, StreamElement
from repro.runtime.engine import (
    Engine,
    EngineConfig,
    JobFailedError,
    JobResult,
    JobStalledError,
)
from repro.runtime.operators import CollectSink
from repro.runtime.shm import RingError, ShmRing, ShmRingReader, ShmRingWriter
from repro.runtime.task import Task
from repro.runtime.watchdog import FAILED, WorkerWatchdog
from repro.state.checkpoint import CompletedCheckpoint, SubtaskId, TaskSnapshot
from repro.state.durable import DurableCheckpointStore

_PICKLE_PROTOCOL = pickle.HIGHEST_PROTOCOL
_LEN = struct.Struct("<I")
_READ_CHUNK = 1 << 16
#: Unflushed bytes per egress writer beyond which the sending channels
#: report themselves full (sender-side backpressure).
_EGRESS_SOFT_LIMIT = 4 * 1024 * 1024
#: A worker that makes no progress for this long escalates a stall
#: instead of hanging the job (the cooperative engine counts idle
#: rounds; a worker must also account for time spent blocked on pipes).
_STALL_TIMEOUT_S = 60.0
_IDLE_WAIT_S = 0.02
#: Sanity cap on a frame's length prefix.  A garbled prefix otherwise
#: reads as "wait for gigabytes that will never arrive", which turns a
#: corrupted pipe into an undiagnosable hang instead of a FrameError.
_MAX_FRAME = 1 << 28
#: How long the coordinator keeps trying to flush stop messages to a
#: failing fleet before giving up -- it must NOT block forever on a pipe
#: whose reader is SIGSTOP'd (the workers get killed right after).
_ERROR_FLUSH_S = 0.25
#: Default watchdog deadlines, as multiples of the heartbeat interval.
_SUSPECT_INTERVALS = 8
_FAIL_INTERVALS = 24


class _Stop(Exception):
    """Parent asked this worker to exit (failure elsewhere)."""


class FrameError(Exception):
    """A length-prefixed pipe frame could not be decoded: the peer died
    mid-write (truncated frame) or the bytes are garbage (corrupted
    length prefix, unpicklable payload).  The message names the worker
    pair so the supervisor's diagnosis points at the right pipe."""


# -- pipe framing -----------------------------------------------------------


class _FrameWriter:
    """Length-prefixed pickle frames over a non-blocking pipe fd.

    Writes never block: bytes the kernel will not take queue in a
    userspace buffer whose depth (``pending_bytes``) doubles as the
    backpressure signal.  A broken pipe (the reader died) is swallowed
    -- the supervisor learns about dead workers through its own control
    pipes, and a writer blowing up mid-teardown would mask the original
    failure.
    """

    def __init__(self, fd: int) -> None:
        os.set_blocking(fd, False)
        self.fd = fd
        self._buffer = bytearray()
        self.broken = False

    def send(self, message: Any) -> int:
        """Frame and enqueue one message; returns its payload size (the
        exchange accounting reads it)."""
        payload = pickle.dumps(message, _PICKLE_PROTOCOL)
        self._buffer += _LEN.pack(len(payload))
        self._buffer += payload
        self.flush()
        return len(payload)

    def flush(self) -> bool:
        """Push buffered bytes into the pipe; True when fully drained."""
        while self._buffer:
            if self.broken:
                self._buffer.clear()
                break
            try:
                written = os.write(self.fd, self._buffer)
            except BlockingIOError:
                return False
            except (BrokenPipeError, OSError):
                self.broken = True
                self._buffer.clear()
                break
            del self._buffer[:written]
        return True

    @property
    def pending_bytes(self) -> int:
        return len(self._buffer)

    def drain(self) -> None:
        """Blocking flush -- used at orderly shutdown, when losing the
        tail of the stream would lose data (EOS, the done payload)."""
        if self.broken:
            self._buffer.clear()
            return
        os.set_blocking(self.fd, True)
        try:
            while self._buffer:
                written = os.write(self.fd, self._buffer)
                del self._buffer[:written]
        except (BrokenPipeError, OSError):
            self.broken = True
            self._buffer.clear()
        finally:
            try:
                os.set_blocking(self.fd, False)
            except OSError:
                pass

    def close(self) -> None:
        try:
            os.close(self.fd)
        except OSError:
            pass


class _FrameReader:
    """The receiving half: drains a non-blocking pipe and reassembles
    length-prefixed pickle frames.

    Corruption is loud: an insane length prefix, an unpicklable payload,
    or a partial frame left behind by a peer that died mid-write all
    raise :class:`FrameError` naming ``peer`` -- never silently block
    waiting for bytes that can no longer arrive.
    """

    def __init__(self, fd: int, peer: str = "pipe") -> None:
        os.set_blocking(fd, False)
        self.fd = fd
        self.peer = peer
        self._buffer = bytearray()
        self.eof = False
        self.corrupt = False

    def _fail(self, offset: int, detail: str) -> None:
        del self._buffer[:offset]
        self.corrupt = True
        raise FrameError("%s: %s" % (self.peer, detail))

    def read_available(self) -> List[Any]:
        while not self.eof:
            try:
                chunk = os.read(self.fd, _READ_CHUNK)
            except BlockingIOError:
                break
            except OSError:
                self.eof = True
                break
            if not chunk:
                self.eof = True
                break
            self._buffer += chunk
        messages: List[Any] = []
        buffer = self._buffer
        offset = 0
        while len(buffer) - offset >= _LEN.size:
            (length,) = _LEN.unpack_from(buffer, offset)
            if length > _MAX_FRAME:
                self._fail(offset,
                           "garbled frame (length prefix %d exceeds the "
                           "%d-byte cap)" % (length, _MAX_FRAME))
            if len(buffer) - offset - _LEN.size < length:
                break
            start = offset + _LEN.size
            try:
                message = pickle.loads(bytes(buffer[start:start + length]))
            except Exception as exc:
                self._fail(offset,
                           "garbled frame (%d-byte payload does not "
                           "unpickle: %r)" % (length, exc))
            messages.append(message)
            offset = start + length
        if self.eof and len(buffer) - offset > 0:
            # The writer is gone and the tail can never complete: a peer
            # died mid-write.  Blocking here forever was the old failure
            # mode; now the torn frame is a diagnosis.
            self._fail(offset,
                       "truncated frame (peer died leaving %d bytes of a "
                       "partial frame)" % (len(buffer) - offset))
        if offset:
            del buffer[:offset]
        return messages

    @property
    def exhausted(self) -> bool:
        return self.eof and not self._buffer

    def close(self) -> None:
        try:
            os.close(self.fd)
        except OSError:
            pass


# -- the exchange writer ----------------------------------------------------


def _exchange_stats() -> Dict[str, int]:
    return {
        "shm_frames": 0,        # columnar frames published to the ring
        "shm_bytes": 0,
        "shm_records": 0,
        "pipe_frames": 0,       # everything framed over the pipe
        "pipe_bytes": 0,
        "pipe_records": 0,      # data records inside pipe frames
        "control_frames": 0,    # watermarks/barriers/EOS (always pipe)
        "pickle_fallbacks": 0,  # data batches that had to take the pipe
        "fallback_unschematizable": 0,
        "fallback_oversize": 0,
        "fallback_ring_full": 0,
    }


class ExchangeWriter:
    """One worker's sending side of the exchange toward one peer.

    In ``"shm"`` mode a record batch is converted to columnar layout
    (the per-ordinal schema is inferred at the first batch boundary and
    re-verified per batch), encoded as one raw-bytes frame and published
    to the pair's ring; everything else -- control elements, scalar
    records, unschematizable/oversize batches, batches hitting a full
    ring -- travels as a ``(seq, ordinal, element)`` pickle frame over
    the pipe.  The per-pair sequence number stamped on *every* frame is
    what lets the receiver stitch the two transports back into the exact
    per-channel FIFO order.

    In ``"pipe"`` mode (``ring is None``) frames keep the legacy
    ``(ordinal, element)`` shape byte-for-byte, so the old transport is
    still exactly itself -- only the accounting is new.
    """

    __slots__ = ("pipe", "ring", "stats", "_seq", "_schemas")

    def __init__(self, pipe: _FrameWriter,
                 ring: Optional[ShmRingWriter] = None) -> None:
        self.pipe = pipe
        self.ring = ring
        self.stats = _exchange_stats()
        self._seq = 0
        #: ordinal -> cached ColumnSchema (first-batch-boundary inference).
        self._schemas: Dict[int, Any] = {}

    def send(self, ordinal: int, element: StreamElement) -> None:
        stats = self.stats
        ring = self.ring
        if ring is None:
            size = self.pipe.send((ordinal, element))
            stats["pipe_frames"] += 1
            stats["pipe_bytes"] += size
            if element.is_batch:
                stats["pipe_records"] += len(element)
            elif element.is_record:
                stats["pipe_records"] += 1
            else:
                stats["control_frames"] += 1
            return
        seq = self._seq
        self._seq += 1
        if element.is_batch and len(element):
            batch = (element if element.is_columnar
                     else batch_to_columnar(element.records,
                                            self._schemas.get(ordinal)))
            if batch is None:
                stats["fallback_unschematizable"] += 1
            else:
                self._schemas[ordinal] = batch.schema
                payload = encode_columnar(batch)
                if len(payload) > ring.payload_capacity:
                    stats["fallback_oversize"] += 1
                elif ring.try_write(seq, ordinal, len(batch), payload):
                    stats["shm_frames"] += 1
                    stats["shm_bytes"] += len(payload)
                    stats["shm_records"] += len(batch)
                    return
                else:
                    stats["fallback_ring_full"] += 1
            stats["pickle_fallbacks"] += 1
            stats["pipe_records"] += len(element)
            if element.is_columnar:
                # memoryview columns defeat pickle; ship the row twin.
                element = RecordBatch(list(element.records))
        elif element.is_record:
            stats["pipe_records"] += 1
        elif not element.is_batch:
            stats["control_frames"] += 1
        size = self.pipe.send((seq, ordinal, element))
        stats["pipe_frames"] += 1
        stats["pipe_bytes"] += size

    def occupancy_records(self) -> int:
        return self.ring.occupancy_records() if self.ring is not None else 0

    @property
    def pending_bytes(self) -> int:
        return self.pipe.pending_bytes

    def flush(self) -> bool:
        return self.pipe.flush()

    def drain(self) -> None:
        self.pipe.drain()

    def close(self) -> None:
        self.pipe.close()


# -- the exchange channel ---------------------------------------------------


class EgressChannel(Channel):
    """The sending half of a cross-worker exchange.

    Looks like an ordinary :class:`Channel` to the task runtime --
    ``push`` accepts any stream element, ``size``/``capacity`` drive the
    scheduler's backpressure scan -- but elements leave the process
    through the pair's :class:`ExchangeWriter` instead of queueing.
    Occupancy stays record-denominated: the channel reports the records
    sitting unconsumed in the pair's shm ring, topped up to ``capacity``
    while the pipe side is congested, so one slow consumer throttles
    exactly the producers feeding it in the same units as an in-process
    channel.
    """

    __slots__ = ("ordinal", "exchange")

    def __init__(self, name: str, capacity: int, exchange: ExchangeWriter,
                 ordinal: int) -> None:
        super().__init__(name, capacity)
        self.ordinal = ordinal
        self.exchange = exchange

    def push(self, element: StreamElement) -> None:
        self.pushed += element_weight(element)
        self.exchange.send(self.ordinal, element)
        self.update_pressure()

    def update_pressure(self) -> None:
        size = self.exchange.occupancy_records()
        if self.exchange.pending_bytes > _EGRESS_SOFT_LIMIT:
            size = max(size, self.capacity)
        self.size = size


# -- the per-worker engine --------------------------------------------------


class ShardEngine(Engine):
    """The cooperative engine over one worker's shard of the grid.

    Built from the *full* job graph so channel ordinals and partitioner
    fan-out are identical everywhere, then foreign subtasks are
    discarded before opening (side-effecting operators only ever open on
    their owning worker).  Checkpoint coordination is inverted: this
    engine never triggers checkpoints, it acknowledges them to the
    parent coordinator over the control pipe.
    """

    _persists_checkpoints = False

    def __init__(self, job_graph: Any, config: EngineConfig, worker_id: int,
                 num_workers: int, data_writers: Dict[int, ExchangeWriter],
                 control: _FrameWriter, restoring: bool = False) -> None:
        self.worker_id = worker_id
        self.num_workers = num_workers
        self._data_writers = data_writers
        self._control = control
        self._restoring = restoring
        #: Per-source seq-merge state ("shm" mode only): the next sequence
        #: number expected from that worker, and frames that arrived ahead
        #: of it on the other transport, keyed by seq.
        self._merge_next: Dict[int, int] = {}
        self._merge_pending: Dict[int, Dict[int, Tuple[int, Any]]] = {}
        self.egress: List[EgressChannel] = []
        #: channel ordinal -> local ingress channel (cross-worker edges in).
        self.ingress: Dict[int, Channel] = {}
        #: source worker -> its ingress channels here (flow-control scan).
        self.ingress_by_source: Dict[int, List[Channel]] = {}
        self._channel_ordinal = 0
        #: ``((vertex_id, chain_position), outbox)`` for every owned
        #: collect sink; drained to the parent each round.
        self.collect_outboxes: List[Tuple[Tuple[int, int], List[Any]]] = []
        self._heartbeat_rng: Optional[Any] = None
        super().__init__(job_graph, config)

    def _owns(self, task: Task) -> bool:
        return task.subtask_index % self.num_workers == self.worker_id

    # -- construction overrides -------------------------------------------

    def _create_channel(self, edge: Any, up: Task, down: Task) -> Channel:
        ordinal = self._channel_ordinal
        self._channel_ordinal += 1
        name = "%s#%d->%s#%d" % (up.vertex_name, up.subtask_index,
                                 down.vertex_name, down.subtask_index)
        if self._owns(down):
            channel = Channel(name, capacity=self.config.channel_capacity)
            down.add_input(channel, edge.target_input)
            if not self._owns(up):
                self.ingress[ordinal] = channel
                source = up.subtask_index % self.num_workers
                self.ingress_by_source.setdefault(source, []).append(channel)
            return channel
        if self._owns(up):
            channel = EgressChannel(
                name, self.config.channel_capacity,
                self._data_writers[down.subtask_index % self.num_workers],
                ordinal)
            self.egress.append(channel)
            return channel
        # Neither endpoint is local: a placeholder so ordinals and edge
        # shapes stay aligned; both endpoint tasks are discarded below.
        return Channel(name, capacity=self.config.channel_capacity)

    def _finalize_build(self) -> None:
        self.tasks = [task for task in self.tasks if self._owns(task)]
        for vertex_id in list(self._tasks_by_vertex):
            self._tasks_by_vertex[vertex_id] = [
                task for task in self._tasks_by_vertex[vertex_id]
                if self._owns(task)]
        from repro.connectors.sinks import TransactionalSinkOperator
        for task in self.tasks:
            for position, chained in enumerate(task.chain):
                operator = chained.operator
                if (self._restoring
                        and isinstance(operator, TransactionalSinkOperator)):
                    # A respawned worker must reattach to -- not wipe --
                    # the durable 2PC artifacts of the prior attempt.
                    operator.resume_on_open = True
                if isinstance(operator, CollectSink):
                    # Redirect the sink into a worker-local outbox; the
                    # closure-shared bucket lives in the parent process
                    # and is repopulated from the streamed outboxes.
                    outbox: List[Any] = []
                    operator._bucket = outbox
                    self.collect_outboxes.append(
                        ((task.vertex_id, position), outbox))
        for task in self.tasks:
            task.open()

    # -- checkpoint inversion ----------------------------------------------

    def _acknowledge_checkpoint(self, checkpoint_id: int,
                                snapshot: TaskSnapshot) -> None:
        self._control.send(("ack", checkpoint_id, snapshot))

    def _handle_failure(self, exc: BaseException) -> None:
        # No in-worker supervision: every failure (quarantine escalation
        # included) tears down the shard and escalates to the parent,
        # which owns the restart strategy and the checkpoint store.
        raise exc

    # -- the shard loop -----------------------------------------------------

    def handle_control(self, message: Tuple[Any, ...]) -> None:
        kind = message[0]
        if kind == "trigger":
            checkpoint_id = message[1]
            for task in self.tasks:
                if task.is_source and not task.finished:
                    task.pending_checkpoint = checkpoint_id
        elif kind == "notify":
            for task in self.tasks:
                if not task.finished:
                    task.notify_checkpoint_complete(message[1])
        elif kind == "abort":
            for task in self.tasks:
                task.abort_checkpoint(message[1])
        elif kind == "stop":
            raise _Stop()

    def pump_ingress(self, readers: Dict[int, _FrameReader],
                     ring_readers: Optional[Dict[int, ShmRingReader]] = None
                     ) -> bool:
        """Move exchange frames into local ingress channels.

        A source is skipped while the channels it feeds hold several
        capacities' worth of records -- receiver-side flow control so a
        fast sender cannot balloon this worker's queues (the sender's
        own soft limit then backpressures it).  The margin is generous
        because barrier alignment legitimately buffers past capacity.

        In ``"shm"`` mode each source's frames arrive over two transports
        (ring for columnar data, pipe for everything else), every frame
        carrying the sender's per-pair sequence number; frames are merged
        back into sequence order before delivery so each channel sees the
        exact FIFO order the sender emitted.
        """
        moved = False
        for source, reader in readers.items():
            channels = self.ingress_by_source.get(source)
            if channels:
                budget = 4 * sum(ch.capacity for ch in channels)
                if sum(ch.size for ch in channels) > budget:
                    continue
            ring = ring_readers.get(source) if ring_readers else None
            if ring is None:
                # Legacy single-transport frames: (ordinal, element).
                for ordinal, element in reader.read_available():
                    self.ingress[ordinal].push(element)
                    moved = True
                continue
            pending = self._merge_pending.setdefault(source, {})
            for seq, ordinal, element in reader.read_available():
                pending[seq] = (ordinal, element)
            try:
                ring_frames = ring.read_available()
            except RingError as exc:
                raise FrameError(str(exc)) from exc
            for seq, ordinal, records, payload in ring_frames:
                try:
                    element = decode_columnar(payload)
                except ColumnarCodecError as exc:
                    raise FrameError(
                        "%s: garbled columnar frame (seq %d, ordinal %d): %s"
                        % (ring.peer, seq, ordinal, exc)) from exc
                pending[seq] = (ordinal, element)
            next_seq = self._merge_next.get(source, 0)
            while next_seq in pending:
                ordinal, element = pending.pop(next_seq)
                next_seq += 1
                self.ingress[ordinal].push(element)
                moved = True
            self._merge_next[source] = next_seq
        return moved

    def flush_egress(self) -> None:
        for exchange in self._data_writers.values():
            exchange.flush()
        for channel in self.egress:
            channel.update_pressure()

    def drain_collect(self) -> None:
        for key, outbox in self.collect_outboxes:
            if outbox:
                self._control.send(("collect", key, list(outbox)))
                del outbox[:]

    def _next_heartbeat_delay_s(self) -> float:
        """Seeded jitter (0.75x..1.25x the base cadence): the fleet never
        phase-locks its heartbeats onto the coordinator, yet a chaos run
        replays the exact same heartbeat schedule under ``REPRO_SEED``."""
        assert self._heartbeat_rng is not None
        interval_ms = self.config.heartbeat_interval_ms
        return (interval_ms / 1000.0) * (0.75 + 0.5
                                         * self._heartbeat_rng.random())

    def run(self, readers: Dict[int, _FrameReader],
            control_in: _FrameReader,
            ring_readers: Optional[Dict[int, ShmRingReader]] = None
            ) -> Dict[str, Any]:
        """Drive the shard to completion; returns the done payload."""
        config = self.config
        control = self._control
        reported_finished: set = set()
        rounds = 0
        last_progress = time.monotonic()
        next_heartbeat: Optional[float] = None
        if config.heartbeat_interval_ms is not None:
            # Imported lazily: repro.testing pulls in oracle modules that
            # would cycle back into the runtime at import time.
            from repro.testing.seeds import rng_for, root_seed
            self._heartbeat_rng = rng_for(root_seed(), "heartbeat-jitter",
                                          self.worker_id)
            control.send(("heartbeat", self.worker_id))
            next_heartbeat = time.monotonic() + self._next_heartbeat_delay_s()
        while not all(task.finished for task in self.tasks):
            if (next_heartbeat is not None
                    and time.monotonic() >= next_heartbeat):
                control.send(("heartbeat", self.worker_id))
                next_heartbeat = (time.monotonic()
                                  + self._next_heartbeat_delay_s())
            if rounds >= config.max_rounds:
                raise JobStalledError(
                    "worker %d exceeded max_rounds=%d; unfinished: %r"
                    % (self.worker_id, config.max_rounds,
                       [t for t in self.tasks if not t.finished]))
            for message in control_in.read_available():
                self.handle_control(message)
            if control_in.exhausted:
                raise _Stop()  # the parent died; do not run on orphaned
            moved = self.pump_ingress(readers, ring_readers)
            progressed = self._step_tasks(rounds)
            now = self._tick()
            rounds += 1
            if self.observability is not None:
                self.observability.on_round(rounds)
            self.flush_egress()
            self.drain_collect()
            for task in self.tasks:
                if task.finished and task.subtask_id not in reported_finished:
                    reported_finished.add(task.subtask_id)
                    control.send(("task_finished", task.subtask_id))
            control.flush()
            if progressed or moved:
                last_progress = time.monotonic()
                continue
            if self._skip_to_next_timer(now):
                last_progress = time.monotonic()
                continue
            if time.monotonic() - last_progress > _STALL_TIMEOUT_S:
                raise JobStalledError(
                    "worker %d made no progress for %.0fs; unfinished: %r"
                    % (self.worker_id, _STALL_TIMEOUT_S,
                       [t for t in self.tasks if not t.finished]))
            self._idle_wait(readers, control_in, ring_readers)

        # Orderly completion: every EOS and trailing record must reach
        # its peer before the fds close.
        for exchange in self._data_writers.values():
            exchange.drain()
        self.drain_collect()
        result = self._assemble_result(rounds)
        return {
            "worker": self.worker_id,
            "rounds": rounds,
            "simulated_time_ms": result.simulated_time_ms,
            "counters": result.counters,
            "gauges": result.gauges,
            "dead_letters": _sanitize_dead_letters(self.dead_letters),
            "report_sections": self._report_sections(),
            "registry": (self.observability.registry.snapshot()
                         if self.observability is not None else None),
            "exchange": {dst: dict(exchange.stats)
                         for dst, exchange in self._data_writers.items()},
        }

    def _idle_wait(self, readers: Dict[int, _FrameReader],
                   control_in: _FrameReader,
                   ring_readers: Optional[Dict[int, ShmRingReader]] = None
                   ) -> None:
        """Block on the pipes instead of spinning: wake on inbound data,
        a control message, or a congested writer draining.  Rings have no
        pollable fd; a ring holding data the flow-control budget would
        accept is treated as an immediate wakeup."""
        if ring_readers:
            for source, ring in ring_readers.items():
                if not ring.has_data:
                    continue
                channels = self.ingress_by_source.get(source)
                if channels:
                    budget = 4 * sum(ch.capacity for ch in channels)
                    if sum(ch.size for ch in channels) > budget:
                        continue  # over budget: blocking here is correct
                return
        selector = selectors.DefaultSelector()
        try:
            selector.register(control_in.fd, selectors.EVENT_READ)
            for reader in readers.values():
                if not reader.eof:
                    selector.register(reader.fd, selectors.EVENT_READ)
            for exchange in self._data_writers.values():
                if exchange.pending_bytes and not exchange.pipe.broken:
                    selector.register(exchange.pipe.fd,
                                      selectors.EVENT_WRITE)
            selector.select(_IDLE_WAIT_S)
        finally:
            selector.close()


def _sanitize_dead_letters(letters: List[Any]) -> List[Any]:
    """Dead letters cross the control pipe; a letter whose value defeats
    pickle is downgraded to its repr rather than killing the report."""
    sane: List[Any] = []
    for letter in letters:
        try:
            pickle.dumps(letter, _PICKLE_PROTOCOL)
            sane.append(letter)
        except Exception:
            from repro.runtime.faults import DeadLetter
            sane.append(DeadLetter(repr(letter.value), letter.timestamp,
                                   repr(letter.key), letter.operator,
                                   letter.subtask_index,
                                   RuntimeError(letter.error)))
    return sane


# -- worker process entry ---------------------------------------------------


def _worker_main(worker_id: int, num_workers: int, job_graph: Any,
                 config: EngineConfig,
                 data_fds: Dict[Tuple[int, int], Tuple[int, int]],
                 control_fds: Dict[int, Tuple[int, int, int, int]],
                 restore: Optional[Dict[SubtaskId, TaskSnapshot]],
                 rings: Optional[Dict[Tuple[int, int], ShmRing]] = None
                 ) -> None:
    # Keep only this worker's pipe ends; closing the rest is what gives
    # every pipe exactly one writer and one reader (EOF semantics).
    writers: Dict[int, _FrameWriter] = {}
    readers: Dict[int, _FrameReader] = {}
    for (src, dst), (read_fd, write_fd) in data_fds.items():
        if src == worker_id:
            os.close(read_fd)
            writers[dst] = _FrameWriter(write_fd)
        elif dst == worker_id:
            os.close(write_fd)
            readers[src] = _FrameReader(
                read_fd, peer="data pipe worker %d -> worker %d"
                % (src, worker_id))
        else:
            os.close(read_fd)
            os.close(write_fd)
    # Same ownership split for the fork-inherited rings: keep the two
    # ends this worker drives, unmap every other pair's view.
    ring_writers: Dict[int, ShmRingWriter] = {}
    ring_readers: Dict[int, ShmRingReader] = {}
    owned_rings: List[ShmRing] = []
    for (src, dst), ring in (rings or {}).items():
        if src == worker_id:
            ring_writers[dst] = ShmRingWriter(ring)
            owned_rings.append(ring)
        elif dst == worker_id:
            ring_readers[src] = ShmRingReader(
                ring, peer="shm ring worker %d -> worker %d"
                % (src, worker_id))
            owned_rings.append(ring)
        else:
            ring.close()
    exchanges = {dst: ExchangeWriter(writer, ring_writers.get(dst))
                 for dst, writer in writers.items()}
    control_in: Optional[_FrameReader] = None
    control_out: Optional[_FrameWriter] = None
    for wid, (to_r, to_w, from_r, from_w) in control_fds.items():
        if wid == worker_id:
            os.close(to_w)
            os.close(from_r)
            control_in = _FrameReader(
                to_r, peer="control pipe parent -> worker %d" % worker_id)
            control_out = _FrameWriter(from_w)
        else:
            for fd in (to_r, to_w, from_r, from_w):
                os.close(fd)
    assert control_in is not None and control_out is not None
    try:
        engine = ShardEngine(job_graph, config, worker_id, num_workers,
                             exchanges, control_out,
                             restoring=restore is not None)
        if restore is not None:
            for task in engine.tasks:
                snapshot = restore.get(task.subtask_id)
                if snapshot is not None:
                    task.restore(snapshot)
        payload = engine.run(readers, control_in, ring_readers or None)
        control_out.send(("done", payload))
        control_out.drain()
    except _Stop:
        pass
    except BaseException as exc:
        try:
            control_out.send(("failed", type(exc).__name__,
                              "".join(traceback.format_exception_only(
                                  type(exc), exc)).strip(),
                              traceback.format_exc()))
            control_out.drain()
        except Exception:
            pass
    finally:
        for writer in writers.values():
            writer.close()
        for reader in readers.values():
            reader.close()
        for ring in owned_rings:
            ring.close()
        control_in.close()
        control_out.close()


# -- the parent coordinator -------------------------------------------------


def _broadcast(writers: Dict[int, _FrameWriter],
               message: Tuple[Any, ...]) -> None:
    """Send one control message to every worker whose pipe is intact."""
    for writer in writers.values():
        if not writer.broken:
            writer.send(message)


class _FleetView:
    """What a :class:`~repro.runtime.faults.ProcessChaosInjector` is
    allowed to touch: the live worker fleet of the current attempt, by
    worker id.  Faults go through the OS (signals, raw fd writes, file
    corruption) -- never through engine internals -- so the coordinator
    experiences them exactly as it would a real crash, hang or torn
    write."""

    def __init__(self, engine: "MultiprocessEngine", processes: List[Any],
                 writers: Dict[int, "_FrameWriter"]) -> None:
        self._engine = engine
        self._processes = processes
        self._writers = writers

    @property
    def now_ms(self) -> int:
        return self._engine._now_ms()

    def alive_workers(self) -> List[int]:
        return [wid for wid, process in enumerate(self._processes)
                if process.is_alive()]

    def signal_worker(self, worker_id: int, sig: int) -> bool:
        """Deliver an OS signal (SIGKILL, SIGSTOP, ...) to one worker;
        returns False when the worker is already gone."""
        process = self._processes[worker_id]
        if not process.is_alive() or process.pid is None:
            return False
        try:
            os.kill(process.pid, sig)
        except (OSError, ProcessLookupError):
            return False
        return True

    def garble_control_frame(self, worker_id: int) -> bool:
        """Write a garbage length prefix straight onto the parent ->
        worker control pipe, bypassing the frame writer -- the worker's
        next read sees an impossible frame length and must raise
        :class:`FrameError` instead of waiting forever."""
        writer = self._writers.get(worker_id)
        if writer is None or writer.broken:
            return False
        try:
            os.write(writer.fd, _LEN.pack(_MAX_FRAME + 1) + b"\xde\xad\xbe\xef")
        except (OSError, BlockingIOError):
            return False
        return True

    def corrupt_retained_checkpoint(self, rng: Any) -> Optional[str]:
        """Flip one byte in the newest persisted snapshot file; returns
        the path, or ``None`` when nothing durable exists yet."""
        store = self._engine.coordinator.store
        if not isinstance(store, DurableCheckpointStore):
            return None
        ids = store.persisted_ids()
        if not ids:
            return None
        target_dir = store._path_for(ids[-1])
        snaps = sorted(name for name in os.listdir(target_dir)
                       if name.endswith(".snap"))
        if not snaps:
            return None
        path = os.path.join(target_dir, rng.choice(snaps))
        with open(path, "r+b") as handle:
            blob = handle.read()
            if not blob:
                return None
            offset = rng.randrange(len(blob))
            handle.seek(offset)
            handle.write(bytes([blob[offset] ^ 0xFF]))
        return path


class MultiprocessEngine:
    """Launches, supervises and federates the worker fleet.

    API-compatible with :class:`~repro.runtime.engine.Engine` for the
    surface the :class:`~repro.api.Environment` facade uses --
    ``execute()``, ``job_report()``, ``checkpoint_store``,
    ``dead_letters``, ``recoveries``/``restarts`` -- so callers switch
    backends with one config knob.  Cooperative-only facilities
    (queryable state, savepoints) raise instead of silently degrading.
    """

    def __init__(self, job_graph: Any,
                 config: Optional[EngineConfig] = None) -> None:
        import multiprocessing
        if "fork" not in multiprocessing.get_all_start_methods():
            raise JobFailedError(
                "the multiprocess backend requires the fork start method "
                "(job graphs close over unpicklable callables); this "
                "platform offers %r"
                % (multiprocessing.get_all_start_methods(),))
        self._mp = multiprocessing.get_context("fork")
        self.job_graph = job_graph
        self.config = config or EngineConfig(backend="multiprocess")
        self.num_workers = (self.config.num_workers
                            or max(1, min(os.cpu_count() or 1, 8)))
        self.coordinator = CheckpointCoordinator(self.config)
        self.checkpoint_store = self.coordinator.store
        #: Health supervision: heartbeats drive a per-worker state
        #: machine (RUNNING -> SUSPECTED -> FAILED -> RESTARTING) so
        #: hung -- not just dead -- workers are detected and handed to
        #: the restart strategy.  Disabled with the heartbeats.
        heartbeat_ms = self.config.heartbeat_interval_ms
        if heartbeat_ms is not None:
            suspect_ms = self.config.watchdog_suspect_ms
            fail_ms = self.config.watchdog_fail_ms
            if suspect_ms is None:
                suspect_ms = heartbeat_ms * _SUSPECT_INTERVALS
                if fail_ms is not None:
                    suspect_ms = min(suspect_ms, fail_ms)
            if fail_ms is None:
                fail_ms = max(heartbeat_ms * _FAIL_INTERVALS, suspect_ms)
            self.watchdog: Optional[WorkerWatchdog] = WorkerWatchdog(
                range(self.num_workers), suspect_ms, fail_ms, now_ms=0)
        else:
            self.watchdog = None
        self._tracer = None
        if self.config.observability is not None:
            from repro.observability.tracing import TraceContext
            self._tracer = TraceContext(self._now_ms)
        self._workers_terminated = 0
        self._workers_killed = 0
        self._last_processes: List[Any] = []
        self.dead_letters: List[Any] = []
        self.recoveries = 0
        self.restarts = 0
        self._started = time.monotonic()
        self._last_result: Optional[JobResult] = None
        self._worker_sections: List[Dict[str, Any]] = []
        #: Transport the last attempt actually used ("shm" or "pipe" --
        #: the former degrades to the latter if ring provisioning fails).
        self._exchange_transport: Optional[str] = None
        #: Per-edge exchange accounting rows from the last attempt.
        self._exchange_edges: List[Dict[str, Any]] = []
        self._registry_snapshots: List[Dict[str, Any]] = []
        #: Collect-sink output received from workers, keyed by
        #: ``(vertex_id, chain_position)``; merged into the real buckets
        #: only on success so a restart-from-scratch can discard it.
        self._received: Dict[Tuple[int, int], List[Any]] = {}
        self._parent_buckets = self._discover_collect_buckets()
        self._all_subtasks, self._source_subtasks = self._subtask_grid()

    # -- static views of the graph ------------------------------------------

    def _discover_collect_buckets(self) -> Dict[Tuple[int, int], List[Any]]:
        """Map ``(vertex_id, chain_position)`` to the caller-visible
        bucket list.  Operator factories are closures over the bucket,
        so instantiating one in the parent recovers the same list object
        the :class:`~repro.api.environment.CollectResult` wraps."""
        buckets: Dict[Tuple[int, int], List[Any]] = {}
        for vertex_id, vertex in sorted(self.job_graph.vertices.items()):
            for position, factory in enumerate(vertex.operator_factories):
                operator = factory()
                if isinstance(operator, CollectSink):
                    buckets[(vertex_id, position)] = operator._bucket
        return buckets

    def _subtask_grid(self) -> Tuple[set, set]:
        all_subtasks = set()
        source_subtasks = set()
        source_ids = {vertex_id for vertex_id, vertex
                      in self.job_graph.vertices.items()
                      if not any(edge.target_vertex == vertex_id
                                 for edge in self.job_graph.edges)}
        for vertex_id, vertex in self.job_graph.vertices.items():
            operator_id = "%d-%s" % (vertex_id, vertex.name)
            for index in range(vertex.parallelism):
                subtask = (operator_id, index)
                all_subtasks.add(subtask)
                if vertex_id in source_ids:
                    source_subtasks.add(subtask)
        return all_subtasks, source_subtasks

    def _now_ms(self) -> int:
        return int((time.monotonic() - self._started) * 1000)

    # -- execution ----------------------------------------------------------

    def execute(self) -> JobResult:
        if self._last_result is not None:
            raise JobFailedError("this engine already executed")
        restore: Optional[Dict[SubtaskId, TaskSnapshot]] = None
        while True:
            payloads, error = self._run_attempt(restore)
            if error is None:
                return self._finalize(payloads)
            delay_ms = self.coordinator.on_failure(error, self._now_ms())
            if delay_ms is None:
                raise error
            if delay_ms:
                time.sleep(delay_ms / 1000.0)
            if self.watchdog is not None:
                self.watchdog.mark_fleet_restarting()
            self.restarts += 1
            self.recoveries += 1
            checkpoint = self._restore_point()
            restore = dict(checkpoint.snapshots) if checkpoint else None
            if restore is None:
                self._received.clear()  # partial output of a dead attempt

    def _restore_point(self) -> Optional[CompletedCheckpoint]:
        """The coordinator's restore point; a verified read from disk is
        traced as a ``fleet.restore`` span."""
        store = self.coordinator.store
        if self._tracer is None or not isinstance(store,
                                                  DurableCheckpointStore):
            return self.coordinator.restore_point()
        before = store.restore_fallbacks
        with self._tracer.span("fleet.restore") as span:
            checkpoint = self.coordinator.restore_point()
            span.attrs["fallbacks"] = store.restore_fallbacks - before
            span.attrs["checkpoint"] = (checkpoint.checkpoint_id
                                        if checkpoint is not None else None)
        return checkpoint

    def _run_attempt(self, restore: Optional[Dict[SubtaskId, TaskSnapshot]]
                     ) -> Tuple[Dict[int, Any], Optional[BaseException]]:
        num = self.num_workers
        data_fds = {(src, dst): os.pipe()
                    for src in range(num) for dst in range(num) if src != dst}
        control_fds = {}
        for wid in range(num):
            to_r, to_w = os.pipe()
            from_r, from_w = os.pipe()
            control_fds[wid] = (to_r, to_w, from_r, from_w)
        # Fresh shared-memory rings per attempt, mapped before forking so
        # every worker inherits the same pages.  A respawned fleet never
        # sees the crashed attempt's slots.  Provisioning failure (e.g.
        # mmap exhaustion) degrades to the pipe transport rather than
        # failing the job.
        rings: Optional[Dict[Tuple[int, int], ShmRing]] = None
        if self.config.exchange == "shm" and num > 1:
            try:
                rings = {(src, dst): ShmRing(self.config.exchange_ring_slots,
                                             self.config.exchange_slot_bytes)
                         for src in range(num) for dst in range(num)
                         if src != dst}
            except (OSError, ValueError, MemoryError):
                for ring in (rings or {}).values():
                    ring.close()
                rings = None
        self._exchange_transport = "shm" if rings is not None else "pipe"
        processes = []
        for wid in range(num):
            process = self._mp.Process(
                target=_worker_main,
                args=(wid, num, self.job_graph, self.config, data_fds,
                      control_fds, restore, rings),
                daemon=True)
            process.start()
            processes.append(process)
        # The parent keeps only its control ends.
        for read_fd, write_fd in data_fds.values():
            os.close(read_fd)
            os.close(write_fd)
        for ring in (rings or {}).values():
            ring.close()
        writers = {}
        readers = {}
        for wid, (to_r, to_w, from_r, from_w) in control_fds.items():
            os.close(to_r)
            os.close(from_w)
            writers[wid] = _FrameWriter(to_w)
            readers[wid] = _FrameReader(
                from_r, peer="control pipe worker %d -> parent" % wid)
        self._last_processes = processes
        if self.watchdog is not None:
            self.watchdog.begin_attempt(range(num), self._now_ms())
        graceful = False
        try:
            payloads, error = self._supervise(writers, readers, processes)
            graceful = error is None
            return payloads, error
        finally:
            for writer in writers.values():
                writer.close()
            for reader in readers.values():
                reader.close()
            self._teardown_fleet(processes, graceful)

    def _teardown_fleet(self, processes: List[Any], graceful: bool) -> None:
        """Shutdown escalation: join -> terminate -> kill, ending in a
        blocking reap so no zombies leak past ``execute()``.

        The ladder must end in SIGKILL: a SIGSTOP'd (hung) worker is
        never scheduled, so SIGTERM sits undelivered forever, while the
        kernel honours SIGKILL even for stopped processes.  On the error
        path the polite join is skipped -- the fleet is being torn down
        because something is already wrong."""
        if graceful:
            for process in processes:
                process.join(timeout=5.0)
        for process in processes:
            if process.is_alive():
                process.terminate()
                self._workers_terminated += 1
        deadline = time.monotonic() + (1.0 if graceful else 0.5)
        for process in processes:
            if process.is_alive():
                process.join(timeout=max(0.0, deadline - time.monotonic()))
        for process in processes:
            if process.is_alive():
                process.kill()
                self._workers_killed += 1
        for process in processes:
            process.join()  # SIGKILL cannot be ignored; this reaps

    def _supervise(self, writers: Dict[int, _FrameWriter],
                   readers: Dict[int, _FrameReader],
                   processes: List[Any]
                   ) -> Tuple[Dict[int, Any], Optional[BaseException]]:
        """Drive one attempt to every worker's result payload or to the
        first failure: read the control pipes, run the watchdog and
        process chaos, trigger and abort checkpoints on the wall clock."""
        coordinator = self.coordinator
        coordinator.begin_attempt(self._now_ms())
        finished_subtasks: set = set()
        done: Dict[int, Dict[str, Any]] = {}
        error: Optional[BaseException] = None
        chaos = self.config.process_chaos
        fleet = (_FleetView(self, processes, writers)
                 if chaos is not None else None)
        selector = selectors.DefaultSelector()
        for wid, reader in readers.items():
            selector.register(reader.fd, selectors.EVENT_READ, wid)
        try:
            while len(done) < self.num_workers and error is None:
                timeout = 0.05
                if coordinator.next_trigger is not None:
                    timeout = min(timeout, max(
                        0.0,
                        (coordinator.next_trigger - self._now_ms()) / 1000.0))
                for key, _ in selector.select(timeout):
                    reader = readers[key.data]
                    failure = self._read_worker(key.data, reader, writers,
                                                finished_subtasks, done)
                    error = error or failure
                    if reader.corrupt:
                        selector.unregister(reader.fd)
                for writer in writers.values():
                    writer.flush()
                if error is not None:
                    break
                now = self._now_ms()
                if self.watchdog is not None:
                    for event in self.watchdog.evaluate(now):
                        if event.state == FAILED and error is None:
                            error = JobFailedError(
                                "worker %d declared failed by watchdog: %s"
                                % (event.worker_id, event.reason))
                    if error is not None:
                        break
                if chaos is not None:
                    chaos.on_tick(fleet)
                error = self._check_pending_checkpoint(
                    writers, now, finished_subtasks, bool(done))
                if error is not None:
                    break
                if (not done and coordinator.due(now)
                        and not (self._source_subtasks & finished_subtasks)):
                    checkpoint_id = coordinator.trigger(
                        self._all_subtasks - finished_subtasks, now)
                    if checkpoint_id is not None:
                        _broadcast(writers, ("trigger", checkpoint_id))
        finally:
            selector.close()
        if error is not None:
            _broadcast(writers, ("stop",))
            # Best-effort flush with a deadline: a SIGSTOP'd worker
            # never reads, so a blocking drain() here would wedge the
            # coordinator on the very failure it is reporting.  Workers
            # that miss the stop are reaped by _teardown_fleet anyway.
            flush_deadline = time.monotonic() + _ERROR_FLUSH_S
            while (any(writer.pending_bytes and not writer.broken
                       for writer in writers.values())
                   and time.monotonic() < flush_deadline):
                for writer in writers.values():
                    writer.flush()
                time.sleep(0.005)
        return done, error

    def _read_worker(self, wid: int, reader: _FrameReader,
                     writers: Dict[int, _FrameWriter],
                     finished_subtasks: set,
                     done: Dict[int, Dict[str, Any]]
                     ) -> Optional[BaseException]:
        """Handle everything one worker sent; returns the failure it
        reported or caused, if any."""
        watchdog = self.watchdog
        try:
            messages = reader.read_available()
        except FrameError as exc:
            if watchdog is not None:
                watchdog.mark_failed(wid, "corrupt control frame: %s" % exc)
            return JobFailedError("corrupt control frame from worker %d: %s"
                                  % (wid, exc))
        error: Optional[BaseException] = None
        for message in messages:
            kind = message[0]
            if kind == "heartbeat":
                if watchdog is not None:
                    watchdog.heartbeat(message[1], self._now_ms())
            elif kind == "ack":
                _, checkpoint_id, snapshot = message
                completed = self.coordinator.acknowledge(
                    checkpoint_id, snapshot, self._now_ms())
                if completed is not None:
                    _broadcast(writers, ("notify", completed.checkpoint_id))
            elif kind == "collect":
                _, bucket_key, items = message
                self._received.setdefault(tuple(bucket_key), []).extend(items)
            elif kind == "task_finished":
                finished_subtasks.add(tuple(message[1]))
            elif kind == "done":
                done[wid] = message[1]
                if watchdog is not None:
                    watchdog.mark_done(wid)
            elif kind == "failed":
                _, error_type, error_line, trace = message
                error = JobFailedError("worker %d failed: %s\n%s"
                                       % (wid, error_line, trace))
                if watchdog is not None:
                    watchdog.mark_failed(wid, error_line)
        if reader.eof and wid not in done and error is None:
            error = JobFailedError(
                "worker %d exited without reporting a result" % wid)
            if watchdog is not None:
                watchdog.mark_failed(wid, "control pipe EOF without a result")
        return error

    def _check_pending_checkpoint(self, writers: Dict[int, _FrameWriter],
                                  now: int, finished_subtasks: set,
                                  drained: bool) -> Optional[BaseException]:
        """Abort a pending checkpoint that can no longer complete; returns
        the failure this escalates to, if any.  A barrier deadline
        against a heartbeat-suspected worker is a hung worker, not a
        checkpoint problem: it fails the worker so the restart strategy
        runs, instead of aborting checkpoint after checkpoint."""
        coordinator = self.coordinator
        pending = coordinator.pending
        if pending is None:
            return None
        suspected: List[int] = []
        if (self.watchdog is not None and not drained and pending.is_expired(
                now, self.config.checkpoint_timeout_ms)):
            laggards = {index % self.num_workers
                        for _, index in pending.pending_subtasks}
            suspected = [wid for wid in sorted(laggards)
                         if self.watchdog.is_suspected(wid)]
        if suspected:
            reason = ("checkpoint %d barrier expired and laggard worker(s) "
                      "%r are heartbeat-suspected"
                      % (pending.checkpoint_id, suspected))
        elif drained:
            reason = "a worker drained mid-flight"
        else:
            reason = coordinator.stale_reason(finished_subtasks, now)
            if reason is None:
                return None
        escalation = coordinator.abort(reason)
        _broadcast(writers, ("abort", pending.checkpoint_id))
        if not suspected:
            return escalation
        for wid in suspected:
            self.watchdog.mark_failed(wid, reason)
        return JobFailedError(reason)

    # -- result federation ---------------------------------------------------

    def _finalize(self, payloads: Dict[int, Dict[str, Any]]) -> JobResult:
        ordered = [payloads[wid] for wid in sorted(payloads)]
        coordinator = self.coordinator
        parent_counters = coordinator.counters()
        if self.watchdog is not None:
            parent_counters["heartbeats_received"] = (
                self.watchdog.heartbeats_received)
            parent_counters["watchdog_suspicions"] = self.watchdog.suspicions
            parent_counters["watchdog_failures"] = (
                self.watchdog.failures_declared)
        counters = merge_counter_maps(
            [payload["counters"] for payload in ordered] + [parent_counters])
        gauges = merge_gauge_maps(payload["gauges"] for payload in ordered)
        for payload in ordered:
            self.dead_letters.extend(payload["dead_letters"])
        self._worker_sections = [payload["report_sections"]
                                 for payload in ordered]
        self._exchange_edges = [
            {"src": payload["worker"], "dst": dst, **stats}
            for payload in ordered
            for dst, stats in sorted(payload.get("exchange", {}).items())]
        self._registry_snapshots = [payload["registry"]
                                    for payload in ordered
                                    if payload["registry"] is not None]
        if self._registry_snapshots:
            self._registry_snapshots.append(self._parent_registry_snapshot())
        result = JobResult(
            rounds=max(payload["rounds"] for payload in ordered),
            simulated_time_ms=max(payload["simulated_time_ms"]
                                  for payload in ordered),
            counters=counters,
            checkpoints_completed=coordinator.checkpoints_completed,
            checkpoint_durations_ms=list(coordinator.checkpoint_durations),
            recoveries=self.recoveries,
            restarts=self.restarts,
            checkpoints_aborted=coordinator.checkpoints_aborted,
            dead_letters=list(self.dead_letters),
            gauges=gauges)
        self._last_result = result
        for bucket_key, items in self._received.items():
            bucket = self._parent_buckets.get(bucket_key)
            if bucket is not None:
                bucket.extend(items)
        return result

    def _parent_registry_snapshot(self) -> Dict[str, Any]:
        """The coordinator's own contribution to registry federation:
        fleet health and checkpoint durability gauges (workers cannot
        see either -- the watchdog and the durable store live in the
        parent)."""
        from repro.observability.registry import MetricsRegistry
        registry = MetricsRegistry()
        fleet = registry.runtime
        if self.watchdog is not None:
            snap = self.watchdog.snapshot()
            fleet.gauge("fleet_heartbeats_received").set(
                snap["heartbeats_received"])
            fleet.gauge("fleet_suspicions").set(snap["suspicions"])
            fleet.gauge("fleet_heartbeat_recoveries").set(
                snap["heartbeat_recoveries"])
            fleet.gauge("fleet_failures_declared").set(
                snap["failures_declared"])
        fleet.gauge("fleet_workers_terminated").set(self._workers_terminated)
        fleet.gauge("fleet_workers_killed").set(self._workers_killed)
        if isinstance(self.checkpoint_store, DurableCheckpointStore):
            stats = self.checkpoint_store.durability_stats()
            fleet.gauge("checkpoints_persisted").set(stats["persisted"])
            fleet.gauge("checkpoints_retained_on_disk").set(
                stats["retained_on_disk"])
            fleet.gauge("checkpoint_corruptions_detected").set(
                stats["corruptions_detected"])
            fleet.gauge("checkpoint_restore_fallbacks").set(
                stats["restore_fallbacks"])
        return registry.snapshot()

    def job_report(self) -> Any:
        """One report over the whole fleet: the worker shards' sections
        federate exactly as the cooperative engine's single shard does
        (:func:`~repro.observability.reporter.federate_report`), with
        checkpoint statistics from the parent's coordinator.  The fleet
        adds its own sections: ``workers``, ``fleet``, ``exchange`` and
        the federated registry under ``metrics``."""
        from repro.observability import JobReport
        from repro.observability.registry import MetricsRegistry
        from repro.observability.reporter import federate_report
        result = self._last_result
        if result is None:
            raise JobFailedError("job_report() requires a completed execute()")
        parent_spans = ([self._tracer.digest()] if self._tracer is not None
                        and self._tracer.started else [])
        sections = federate_report(result, self._worker_sections,
                                   self.coordinator.report_section(),
                                   parent_spans)
        sections["job"]["backend"] = "multiprocess"
        sections["job"]["workers"] = self.num_workers
        sections["workers"] = [
            {"worker": index,
             "rounds": shard["job"]["rounds"],
             "simulated_time_ms": shard["job"]["simulated_time_ms"],
             "records_emitted": shard["job"]["records_emitted"]}
            for index, shard in enumerate(self._worker_sections)]
        fleet: Dict[str, Any] = {
            "shutdown": {"terminated": self._workers_terminated,
                         "killed": self._workers_killed},
        }
        if self.watchdog is not None:
            fleet["watchdog"] = self.watchdog.snapshot()
        sections["fleet"] = fleet
        if self._exchange_edges:
            totals = _exchange_stats()
            for row in self._exchange_edges:
                for name in totals:
                    totals[name] += row.get(name, 0)
            sections["exchange"] = {
                "transport": self._exchange_transport,
                "edges": self._exchange_edges,
                "totals": totals,
            }
        if self._registry_snapshots:
            sections["metrics"] = MetricsRegistry.federate(
                self._registry_snapshots)
        return JobReport(sections)

    # -- cooperative-only surfaces ------------------------------------------

    def query_state(self, operator_name: str, state_name: str, key: Any,
                    default: Any = None) -> Any:
        raise JobFailedError(
            "queryable state requires the cooperative backend (worker "
            "state lives in other processes); run with "
            "EngineConfig(backend='cooperative')")

    def create_savepoint(self) -> Any:
        raise JobFailedError(
            "savepoints require the cooperative backend; run with "
            "EngineConfig(backend='cooperative')")

    def restore_from_savepoint(self, savepoint: Any) -> None:
        raise JobFailedError(
            "savepoint restore requires the cooperative backend; run "
            "with EngineConfig(backend='cooperative')")

