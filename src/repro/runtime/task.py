"""Subtasks: the unit of parallel execution.

A :class:`Task` executes one *chain* of operators (one
:class:`~repro.plan.graph.JobVertex` at one parallel index).  It is
step-driven by the scheduler:

* ``step()`` consumes a bounded number of elements from its input
  channels (fair round-robin) or, for sources, emits a bounded burst;
* records flow synchronously through the chain -- each operator's
  collector dispatches straight into the next operator; the chain tail
  buffers its output and routes it into the output edges via their
  partitioners as record batches of at most ``batch_size`` records (a
  record never travels on a channel on its own);
* watermarks are tracked per input channel; when the minimum across all
  live channels advances, due event-time timers fire for every chained
  operator (in chain order) before the watermark is forwarded;
* checkpoint barriers are *aligned*: a channel that delivered the barrier
  for the in-flight checkpoint is blocked until all channels did, then
  state is snapshotted, the coordinator is acknowledged, and the barrier
  is broadcast downstream;
* ``EndOfStream`` on all inputs triggers ``finish()`` down the chain --
  this is where bounded (batch) operators emit -- followed by EOS
  broadcast.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Hashable, List, Optional, Tuple

from repro.metrics import MetricGroup, OperatorStats
from repro.runtime.channels import Channel
from repro.runtime.elements import (
    END_OF_STREAM,
    MAX_TIMESTAMP,
    MIN_TIMESTAMP,
    CheckpointBarrier,
    Record,
    RecordBatch,
    StreamElement,
    Watermark,
)
from repro.runtime.operators import (
    Operator,
    OperatorContext,
    SourceContext,
    SourceOperator,
)
from repro.runtime.partition import (
    BroadcastPartitioner,
    ForwardPartitioner,
    GlobalPartitioner,
    HashPartitioner,
    Partitioner,
    RebalancePartitioner,
    hash_key,
)
from repro.state.backend import KeyedStateBackend
from repro.state.checkpoint import TaskSnapshot
from repro.time.clock import Clock
from repro.time.timers import TimerService

SubtaskId = Tuple[str, int]


class OutputEdge:
    """One outgoing job edge of a subtask: a partitioner plus the row of
    channels leading to every downstream subtask."""

    def __init__(self, partitioner: Partitioner, channels: List[Channel],
                 subtask_index: int) -> None:
        if not channels:
            raise ValueError("an output edge needs at least one channel")
        self.partitioner = partitioner
        self.channels = channels
        self.subtask_index = subtask_index

    def emit_batch(self, records: List[Record]) -> None:
        """Route a run of records in one call, preserving per-channel
        FIFO order.

        Pointwise and global routes forward one batch object; keyed and
        round-robin routes group records into per-channel sub-batches in
        a single pass.  Other partitioners are asked per record through
        ``select()`` and still produce one batch per channel.
        """
        channels = self.channels
        partitioner = self.partitioner
        if isinstance(partitioner, HashPartitioner):
            select_key = partitioner.key_selector
            if len(channels) == 1:
                channels[0].push(RecordBatch(
                    [Record(r.value, r.timestamp, select_key(r.value))
                     for r in records]))
                return
            total = len(channels)
            buckets: Dict[int, List[Record]] = {}
            for r in records:
                key = select_key(r.value)
                index = hash_key(key) % total
                bucket = buckets.get(index)
                if bucket is None:
                    buckets[index] = bucket = []
                bucket.append(Record(r.value, r.timestamp, key))
            for index, bucket in buckets.items():
                channels[index].push(RecordBatch(bucket))
            return
        if isinstance(partitioner, (ForwardPartitioner, GlobalPartitioner)):
            index = (self.subtask_index % len(channels)
                     if isinstance(partitioner, ForwardPartitioner) else 0)
            # Copy: the caller's buffer is shared across edges, and chaos
            # may carve records out of a pushed batch in place.
            channels[index].push(RecordBatch(list(records)))
            return
        if isinstance(partitioner, BroadcastPartitioner):
            for channel in channels:
                channel.push(RecordBatch(list(records)))
            return
        if isinstance(partitioner, RebalancePartitioner):
            total = len(channels)
            cursor = partitioner.advance(len(records))
            if total == 1:
                channels[0].push(RecordBatch(list(records)))
                return
            round_robin: List[List[Record]] = [[] for _ in range(total)]
            for r in records:
                round_robin[cursor % total].append(r)
                cursor += 1
            for index, bucket in enumerate(round_robin):
                if bucket:
                    channels[index].push(RecordBatch(bucket))
            return
        total = len(channels)
        selected: Dict[int, List[Record]] = {}
        for r in records:
            for index in partitioner.select(r, total, self.subtask_index):
                selected.setdefault(index, []).append(r)
        for index, bucket in selected.items():
            channels[index].push(RecordBatch(bucket))

    @property
    def passes_columnar(self) -> bool:
        """Whether a columnar batch can be routed through this edge
        without touching individual rows: single-destination routes
        (and broadcast) forward the batch object as-is; keyed and
        multi-channel round-robin routes need per-record work and keep
        the row path."""
        partitioner = self.partitioner
        if isinstance(partitioner, (ForwardPartitioner, GlobalPartitioner,
                                    BroadcastPartitioner)):
            return True
        return (isinstance(partitioner, RebalancePartitioner)
                and len(self.channels) == 1)

    def emit_columnar(self, batch: "ColumnarBatch") -> None:
        """Route one columnar batch whole (callers check
        :attr:`passes_columnar` first).  No copy is needed: chaos
        mutation hooks demote a queued columnar batch to a private row
        twin instead of editing it in place, so sharing one batch object
        across channels is safe."""
        channels = self.channels
        partitioner = self.partitioner
        if isinstance(partitioner, ForwardPartitioner):
            channels[self.subtask_index % len(channels)].push(batch)
        elif isinstance(partitioner, BroadcastPartitioner):
            for channel in channels:
                channel.push(batch)
        elif isinstance(partitioner, RebalancePartitioner):
            partitioner.advance(len(batch))
            channels[0].push(batch)
        else:  # GlobalPartitioner
            channels[0].push(batch)

    def broadcast(self, element: StreamElement) -> None:
        for channel in self.channels:
            channel.push(element)

    @property
    def has_capacity(self) -> bool:
        return all(channel.has_capacity for channel in self.channels)


class _ChainedOperator:
    """Per-chain-position runtime: the operator plus its private state
    backend, timer service and context."""

    def __init__(self, operator: Operator, backend: KeyedStateBackend,
                 timers: TimerService, ctx: OperatorContext) -> None:
        self.operator = operator
        self.backend = backend
        self.timers = timers
        self.ctx = ctx


class Task:
    """One parallel subtask executing a chain of operators."""

    def __init__(self, vertex_name: str, vertex_id: int, subtask_index: int,
                 parallelism: int, operators: List[Operator],
                 clock: Clock, metrics: MetricGroup,
                 elements_per_step: int = 32,
                 batch_size: int = 1,
                 operator_profiling: bool = False,
                 tracer: Optional[Any] = None) -> None:
        if not operators:
            raise ValueError("a task needs at least one operator")
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.vertex_name = vertex_name
        self.vertex_id = vertex_id
        self.subtask_index = subtask_index
        self.parallelism = parallelism
        self.clock = clock
        self.metrics = metrics
        self.elements_per_step = elements_per_step
        self.batch_size = batch_size
        #: Span collector of the observability layer; ``None`` (the
        #: default) keeps every tracing branch a dead ``is not None``.
        self._tracer = tracer
        #: Records emitted by the chain tail since the last flush; they
        #: leave as RecordBatches of at most ``batch_size`` records at the
        #: next control element, buffer fill, or end of step -- which is
        #: what guarantees a batch never straddles a watermark/barrier/EOS
        #: boundary.
        self._out_buffer: List[Record] = []

        self.inputs: List[Tuple[Channel, int]] = []   # (channel, input index)
        self.output_edges: List[OutputEdge] = []
        self._output_channels: List[Channel] = []

        self._records_in = metrics.counter("records_in")
        self._records_out = metrics.counter("records_out")
        self._watermark_gauge = metrics.gauge("current_watermark")

        self.finished = False
        self.failed: Optional[BaseException] = None

        # Poison-record quarantine (configured by the engine): when
        # ``quarantine_threshold`` is set, a record whose processing
        # raises is routed to ``dead_letter_collector`` instead of
        # failing the task; exceeding the threshold within one attempt
        # escalates.  ``poison_next_records`` is the chaos hook: that
        # many upcoming input records raise ``PoisonPill``.
        self.quarantine_threshold: Optional[int] = None
        self.dead_letter_collector: Optional[Callable[..., None]] = None
        self.poison_next_records = 0
        self._dead_letters_metric = metrics.counter("dead_letters")
        self._attempt_dead_letters = 0

        # Watermark tracking.
        self._channel_watermarks: Dict[int, int] = {}
        self._combined_watermark = MIN_TIMESTAMP
        self._emitted_watermark = MIN_TIMESTAMP

        # Barrier alignment.  ``_min_checkpoint_id`` rises when the
        # coordinator aborts a checkpoint: barriers of aborted (stale)
        # checkpoints still in flight are then ignored.
        self._aligning_checkpoint: Optional[int] = None
        self._aligned_channels: set = set()
        self._min_checkpoint_id = 0
        self.pending_checkpoint: Optional[int] = None  # set by coordinator (sources)
        self.checkpoint_ack: Optional[Callable[[int, TaskSnapshot], None]] = None

        # Fair input polling.
        self._next_input = 0

        # Build the chain back to front so each collector targets the next.
        self.chain: List[_ChainedOperator] = []
        collector = self._buffer_output
        tail = True
        for position in reversed(range(len(operators))):
            operator = operators[position]
            backend = KeyedStateBackend()
            timers = TimerService()
            ctx = OperatorContext(subtask_index, parallelism, backend, timers,
                                  metrics, clock, collector)
            if tail:
                # The chain tail may hand the output buffer whole record
                # runs (SourceContext.collect_batch and friends).
                ctx.batch_collector = self._buffer_output_batch
            tail = False
            ctx.tracer = tracer
            chained = _ChainedOperator(operator, backend, timers, ctx)
            self.chain.insert(0, chained)
            # Watermark-emitting chain operators (timestamp assigners,
            # hybrid sources emitting the cutover watermark) declare an
            # ``emit_watermark_fn`` attribute; the task wires it to the
            # chain position so emissions advance the suffix first.
            if hasattr(operator, "emit_watermark_fn"):
                operator.emit_watermark_fn = self._watermark_from_chain(position)
            collector = self._make_dispatcher(chained)

        self._is_source = isinstance(self.chain[0].operator, SourceOperator)
        self._source_ctx = (SourceContext(self.chain[0].ctx)
                            if self._is_source else None)
        self._opened = False

        # Fast path: fuse the longest stateless prefix of the chain into
        # one records-in/records-out function.  Profiling keeps the
        # unfused path so per-operator counters stay exact.
        self._fused_fn = None
        self._fused_prefix = 0
        # Columnar fast path: the same stateless prefix compiled into a
        # column kernel, applied when the input element is a
        # ColumnarBatch so no Record is built before the kernel has
        # mapped/filtered the columns.  Profiling disables it like the
        # row fusion (the fallback is counted per-operator instead).
        self._column_kernel = None
        self._kernel_prefix = 0
        if not self._is_source and not operator_profiling:
            from repro.plan.chaining import (
                compile_batch_chain,
                compile_column_chain,
            )
            self._fused_fn, self._fused_prefix = compile_batch_chain(
                [chained.operator for chained in self.chain])
            self._column_kernel, self._kernel_prefix = compile_column_chain(
                [chained.operator for chained in self.chain])
        self._fused_all = (self._fused_fn is not None
                           and self._fused_prefix == len(self.chain))
        self._kernel_all = (self._column_kernel is not None
                            and self._kernel_prefix == len(self.chain))
        # Whether kernel output may leave the task AS COLUMNS (every
        # output edge routes whole batches).  Edges are wired after
        # construction, so this is resolved lazily on first kernel hit.
        self._columnar_egress: Optional[bool] = None
        self._columnar_batches = metrics.counter("columnar_batches_in")
        self._columnar_fallbacks = metrics.counter("columnar_fallbacks")

        #: Per-operator throughput profile (filled when the engine runs
        #: with ``operator_profiling``); parallel to ``self.chain``.
        self.operator_stats: List[OperatorStats] = []
        if operator_profiling:
            self._instrument_chain()

    # -- identity ---------------------------------------------------------

    @property
    def subtask_id(self) -> SubtaskId:
        return ("%d-%s" % (self.vertex_id, self.vertex_name), self.subtask_index)

    @property
    def is_source(self) -> bool:
        return self._is_source

    @property
    def current_watermark(self) -> int:
        """The minimum watermark across this subtask's live inputs --
        what the observability sampler reads for lag/skew gauges."""
        return self._combined_watermark

    def __repr__(self) -> str:
        # Diagnostic: stall/failure reports print lists of tasks, so the
        # repr must show *why* a task is stuck -- queue depths, blocked
        # channels and terminal flags -- not just its identity.
        parts = ["%s#%d" % (self.vertex_name, self.subtask_index)]
        if self.inputs:
            parts.append("in_depths=%s"
                         % [channel.size for channel, _ in self.inputs])
            blocked = [index for index, (channel, _)
                       in enumerate(self.inputs) if channel.blocked]
            if blocked:
                parts.append("blocked_inputs=%s" % blocked)
        if self.output_edges and not self.has_output_capacity:
            parts.append("backpressured")
        if self._aligning_checkpoint is not None:
            parts.append("aligning_ckpt=%d" % self._aligning_checkpoint)
        if self.finished:
            parts.append("finished")
        if self.failed is not None:
            parts.append("failed=%r" % self.failed)
        return "Task(%s)" % ", ".join(parts)

    # -- wiring -----------------------------------------------------------

    def add_input(self, channel: Channel, input_index: int) -> None:
        self.inputs.append((channel, input_index))
        self._channel_watermarks[len(self.inputs) - 1] = MIN_TIMESTAMP

    def add_output_edge(self, edge: OutputEdge) -> None:
        self.output_edges.append(edge)
        # Flattened once so the scheduler's runnable scan reads cached
        # channel occupancies without re-walking the edge structure.
        self._output_channels.extend(edge.channels)

    def operator_reports(self, attr: str) -> List[Dict[str, Any]]:
        """Rows from every chained operator exposing an ``attr()`` report
        method -- how ``job_report`` assembles per-operator sections
        (cutover, arrangements) without knowing operator types."""
        rows: List[Dict[str, Any]] = []
        for chained in self.chain:
            report_fn = getattr(chained.operator, attr, None)
            if callable(report_fn):
                row: Dict[str, Any] = {"operator": self.vertex_name,
                                       "subtask": self.subtask_index}
                row.update(report_fn())
                rows.append(row)
        return rows

    def _instrument_chain(self) -> None:
        """Wrap every chained operator's process entry points and its
        collector with counting/timing shims (``operator_profiling``).

        ``time_ns`` is *inclusive*: the chain dispatches synchronously,
        so an upstream operator's time contains its downstream's.
        """
        from time import perf_counter_ns
        for chained in self.chain:
            stats = OperatorStats(chained.operator.name)
            self.operator_stats.append(stats)
            operator = chained.operator
            inner_process = operator.process
            # Default process_batch implementations loop into process();
            # the guard keeps such batches from being counted twice.
            in_batch = [False]

            def timed_process(record, _inner=inner_process, _stats=stats,
                              _in_batch=in_batch):
                if _in_batch[0]:
                    _inner(record)
                    return
                _stats.records_in += 1
                started = perf_counter_ns()
                try:
                    _inner(record)
                finally:
                    _stats.time_ns += perf_counter_ns() - started

            operator.process = timed_process
            inner_batch = operator.process_batch

            def timed_batch(records, _inner=inner_batch, _stats=stats,
                            _in_batch=in_batch):
                _stats.records_in += len(records)
                _stats.batches += 1
                _in_batch[0] = True
                started = perf_counter_ns()
                try:
                    _inner(records)
                finally:
                    _stats.time_ns += perf_counter_ns() - started
                    _in_batch[0] = False

            operator.process_batch = timed_batch
            inner_collector = chained.ctx._collector

            def counting_collector(record, _inner=inner_collector,
                                   _stats=stats):
                _stats.records_out += 1
                _inner(record)

            chained.ctx._collector = counting_collector
            # The bulk tail path would bypass the counting shim; route
            # everything through it while profiling.
            chained.ctx.batch_collector = None

    def open(self) -> None:
        if self._opened:
            return
        for chained in self.chain:
            chained.operator.open(chained.ctx)
        self._opened = True

    # -- record routing through the chain ----------------------------------

    def _make_dispatcher(self, chained: _ChainedOperator,
                         input_index: int = 0) -> Callable[[Record], None]:
        def dispatch(record: Record) -> None:
            chained.backend.set_current_key(record.key)
            chained.ctx.current_timestamp = record.timestamp
            chained.operator.process(record)
        return dispatch

    def _buffer_output(self, record: Record) -> None:
        """Chain-tail collector: coalesce emissions until the buffer
        fills or a control element forces a flush."""
        self._out_buffer.append(record)
        if len(self._out_buffer) >= self.batch_size:
            self._flush_out_buffer()

    def _buffer_output_batch(self, records: List[Record]) -> None:
        """Bulk variant of :meth:`_buffer_output`: one extend per record
        run instead of one call per record."""
        self._out_buffer.extend(records)
        if len(self._out_buffer) >= self.batch_size:
            self._flush_out_buffer()

    def _flush_out_buffer(self) -> None:
        """Route the buffered records downstream in chunks of at most
        ``batch_size`` records, so ``batch_size`` caps every data
        element a channel carries even when a bulk run overfilled the
        buffer."""
        buffer = self._out_buffer
        if not buffer:
            return
        self._out_buffer = []
        self._records_out.inc(len(buffer))
        size = self.batch_size
        for start in range(0, len(buffer), size):
            chunk = buffer if len(buffer) <= size else buffer[start:start + size]
            for edge in self.output_edges:
                edge.emit_batch(chunk)

    def _watermark_from_chain(self, position: int) -> Callable[[int], None]:
        """Watermarks generated *inside* the chain (timestamp assigners)
        advance the remaining chain suffix, then leave the task."""
        def emit(timestamp: int) -> None:
            self._advance_chain_watermark(timestamp, start=position + 1)
            self._forward_watermark(timestamp)
        return emit

    # -- stepping -----------------------------------------------------------

    @property
    def has_output_capacity(self) -> bool:
        # Hot path of the scheduler's runnable scan: a flat walk over
        # cached integer occupancies, no edge indirection.
        for channel in self._output_channels:
            if channel.size >= channel.capacity:
                return False
        return True

    @property
    def is_runnable(self) -> bool:
        if self.finished or self.failed is not None:
            return False
        if not self.has_output_capacity:
            return False
        if self._is_source:
            return True
        return (any(channel.readable for channel, _ in self.inputs)
                or self._all_inputs_finished())

    def _all_inputs_finished(self) -> bool:
        return bool(self.inputs) and all(channel.finished
                                         for channel, _ in self.inputs)

    def step(self) -> bool:
        """Do a bounded amount of work; returns True if progress was made."""
        if self.finished or self.failed is not None:
            return False
        try:
            if self._is_source:
                progressed = self._step_source()
            else:
                progressed = self._step_processing()
            # Records must not languish in the output buffer across
            # scheduler rounds: a task may not be stepped again for a
            # while (backpressure), and latency would become unbounded.
            if self._out_buffer:
                self._flush_out_buffer()
            return progressed
        except BaseException as exc:  # surfaces in Engine.execute
            self.failed = exc
            raise

    def _step_source(self) -> bool:
        if self.pending_checkpoint is not None:
            checkpoint_id = self.pending_checkpoint
            self.pending_checkpoint = None
            self._snapshot_and_ack(checkpoint_id)
            self._broadcast(CheckpointBarrier(checkpoint_id))
            return True
        operator = self.chain[0].operator
        # Sources may scale the per-step record budget: a hybrid source
        # drains its bounded history prefix at an elevated burst so the
        # data-at-rest phase runs through the batched path at batch
        # cadence, then drops back to 1 at the cutover.
        burst = getattr(operator, "source_burst_factor", 1)
        more = operator.emit_batch(self._source_ctx,
                                   self.elements_per_step * max(1, burst))
        if not more:
            self._finish_task()
        return True

    def _step_processing(self) -> bool:
        # The step budget is denominated in *records*: a batch of n
        # records spends n budget, so ``elements_per_step`` means the
        # same amount of work whatever the ``batch_size``.  A batch
        # larger than the remaining budget is split: the head is
        # processed now and the tail goes back to the channel front, so
        # the throttle is record-exact.
        progressed = False
        budget = self.elements_per_step
        while budget > 0:
            element, channel_index = self._poll_fair()
            if element is None:
                break
            progressed = True
            if element.is_batch:
                size = len(element)
                if size > budget:
                    channel, _ = self.inputs[channel_index]
                    if element.is_columnar:
                        # Columns slice without materialising rows, so
                        # the record-exact split stays object-free.
                        channel.requeue_front(element.slice(budget, size))
                        element = element.slice(0, budget)
                    else:
                        records = element.records
                        channel.requeue_front(RecordBatch(records[budget:]))
                        element = RecordBatch(records[:budget])
                    size = budget
                budget -= size
            else:
                budget -= 1
            self._dispatch_input(element, channel_index)
            if self.finished:
                return True
        if not progressed and self._all_inputs_finished() and not self.finished:
            self._finish_task()
            return True
        return progressed

    def _poll_fair(self) -> Tuple[Optional[StreamElement], int]:
        """Round-robin over readable input channels."""
        total = len(self.inputs)
        for offset in range(total):
            index = (self._next_input + offset) % total
            channel, _ = self.inputs[index]
            element = channel.poll()
            if element is not None:
                self._next_input = (index + 1) % total
                return element, index
        return None, -1

    def _dispatch_input(self, element: StreamElement, channel_index: int) -> None:
        if element.is_columnar:
            if len(element):
                self._records_in.inc(len(element))
                self._process_columnar(element, channel_index)
        elif element.is_batch:
            records = element.records
            if records:  # chaos drop may have emptied the batch in place
                self._records_in.inc(len(records))
                self._process_batch(records, channel_index)
        elif element.is_watermark:
            self._on_channel_watermark(element.timestamp, channel_index)
        elif element.is_barrier:
            self._on_barrier(element, channel_index)
        elif element.is_end:
            self._on_channel_end(channel_index)

    def _process_record_on(self, element: Record, input_index: int) -> None:
        if self.poison_next_records > 0:
            # Chaos-injected poison: consume the flag *before* raising so
            # a supervised restart replays the record cleanly.
            self.poison_next_records -= 1
            from repro.runtime.faults import PoisonPill
            raise PoisonPill("chaos-injected poison in %s#%d"
                             % (self.vertex_name, self.subtask_index))
        head = self.chain[0]
        head.backend.set_current_key(element.key)
        head.ctx.current_timestamp = element.timestamp
        if input_index == 0:
            head.operator.process(element)
        else:
            head.operator.process2(element)

    def _process_batch(self, records: List[Record],
                       channel_index: int) -> None:
        """Run a whole record batch through the chain.

        Fast paths, in order of preference:

        * the fused stateless prefix compiled by
          :func:`~repro.plan.chaining.compile_batch_chain` transforms the
          batch in one call per operator, then either goes straight to
          the output buffer (fully fused chain) or into the first
          unfused operator's ``process_batch``;
        * otherwise the head operator's ``process_batch`` (vectorised or
          the per-record default) takes the batch.

        Anything that needs per-record bookkeeping -- a second input,
        pending chaos poison, or quarantine without a fully fused chain
        -- falls back to per-record dispatch, which is semantically
        identical by construction.  Quarantine *with* a fully fused
        chain is safe on the fast path because the fused transforms are
        pure: an exception means nothing was emitted, so replaying the
        batch per-record duplicates no output.
        """
        _, input_index = self.inputs[channel_index]
        if self._needs_replay(input_index, self._fused_all):
            self._process_records_individually(records, input_index)
            return
        fused = self._fused_fn
        if fused is not None:
            tracer = self._tracer
            try:
                if tracer is None:
                    out = fused(records)
                else:
                    with tracer.span("fused_batch", task=self.vertex_name,
                                     subtask=self.subtask_index,
                                     records=len(records)):
                        out = fused(records)
            except Exception:
                if self.quarantine_threshold is None:
                    raise
                # Pure transforms emitted nothing before raising: replay
                # the batch record-at-a-time so only the poison record
                # is quarantined.
                self._process_records_individually(records, input_index)
                return
            if self._fused_all:
                if out:
                    self._buffer_output_batch(out)
            elif out:
                self.chain[self._fused_prefix].operator.process_batch(out)
            return
        self.chain[0].operator.process_batch(records)

    def _process_columnar(self, batch: StreamElement,
                          channel_index: int) -> None:
        """Run a columnar batch through the chain.

        Fast path: the fused column kernel compiled by
        :func:`~repro.plan.chaining.compile_column_chain` transforms the
        parallel column lists directly -- no ``Record`` exists until the
        kernel's survivors are materialised for the output buffer (or
        for the first unfused operator).  Anything the kernel cannot
        cover -- no kernel at the chain head, a second input, pending
        chaos poison, or quarantine without a fully covered chain --
        falls back to the row path via the batch's materialised
        ``records``, identical by construction and counted as a
        columnar fallback.
        """
        _, input_index = self.inputs[channel_index]
        kernel = self._column_kernel
        if kernel is None or self._needs_replay(input_index, self._kernel_all):
            self._columnar_fallbacks.inc()
            if self.operator_stats:
                self.operator_stats[0].columnar_fallbacks += 1
            # _process_batch applies the same per-record guards itself.
            self._process_batch(batch.records, channel_index)
            return
        self._columnar_batches.inc()
        if self.operator_stats:
            self.operator_stats[0].columnar_batches += 1
        tracer = self._tracer
        try:
            if tracer is None:
                values, timestamps, keys = kernel(
                    batch.value_list(), batch.timestamp_list(),
                    batch.key_list())
            else:
                with tracer.span("column_kernel", task=self.vertex_name,
                                 subtask=self.subtask_index,
                                 records=len(batch)):
                    values, timestamps, keys = kernel(
                        batch.value_list(), batch.timestamp_list(),
                        batch.key_list())
        except Exception:
            if self.quarantine_threshold is None:
                raise
            # Kernels are pure: nothing was emitted before the raise, so
            # a per-record replay quarantines only the poison record.
            self._process_records_individually(batch.records, input_index)
            return
        if not values:
            return
        if self._kernel_all:
            if self._columnar_egress is None:
                self._columnar_egress = all(
                    edge.passes_columnar for edge in self.output_edges)
            if self._columnar_egress:
                from repro.runtime.columnar import columnar_from_lists
                out_batch = columnar_from_lists(values, timestamps, keys)
                if out_batch is not None:
                    # Channel order: anything still buffered as rows
                    # (records of earlier fallback batches) must
                    # leave before this batch does.
                    if self._out_buffer:
                        self._flush_out_buffer()
                    self._records_out.inc(len(out_batch))
                    for edge in self.output_edges:
                        edge.emit_columnar(out_batch)
                    return
        make = Record
        out = [make(v, ts, k)
               for v, ts, k in zip(values, timestamps, keys)]
        if self._kernel_all:
            self._buffer_output_batch(out)
        else:
            self.chain[self._kernel_prefix].operator.process_batch(out)

    def _needs_replay(self, input_index: int, pure_chain: bool) -> bool:
        """Whether a batch must take the per-record replay path: a second
        input, pending chaos poison, or quarantine over a chain whose
        fast path is not pure end to end (``pure_chain``: fully fused or
        fully kernel-covered, so an exception means nothing was emitted
        and a per-record replay duplicates no output)."""
        return (input_index != 0 or self.poison_next_records > 0
                or (self.quarantine_threshold is not None and not pure_chain))

    def _process_records_individually(self, records: List[Record],
                                      input_index: int) -> None:
        """The only per-record path: exact quarantine and poison
        semantics, and second-input dispatch (``records_in`` was already
        counted)."""
        for record in records:
            try:
                self._process_record_on(record, input_index)
            except Exception as exc:
                if self.quarantine_threshold is None:
                    raise
                self._quarantine(record, exc)

    def _quarantine(self, element: Record, exc: Exception) -> None:
        """Route a poison record to the dead-letter output; escalate once
        this attempt exceeded the configured threshold.

        Quarantine is best-effort at the *task* boundary: emissions the
        chain produced before the exception have already been routed
        downstream (synchronous dispatch), matching the contract of
        side-output-based dead-letter queues in production engines.
        """
        from repro.runtime.faults import DeadLetter, PoisonEscalation
        self._attempt_dead_letters += 1
        self._dead_letters_metric.inc()
        if self.dead_letter_collector is not None:
            self.dead_letter_collector(DeadLetter(
                element.value, element.timestamp, element.key,
                self.vertex_name, self.subtask_index, exc))
        if self._attempt_dead_letters > self.quarantine_threshold:
            raise PoisonEscalation(repr(self), self._attempt_dead_letters,
                                   self.quarantine_threshold) from exc

    # -- watermarks ----------------------------------------------------------

    def _on_channel_watermark(self, timestamp: int, channel_index: int) -> None:
        if timestamp > self._channel_watermarks[channel_index]:
            self._channel_watermarks[channel_index] = timestamp
        self._recompute_combined_watermark()

    def _recompute_combined_watermark(self) -> None:
        live = [wm if not self.inputs[index][0].finished else MAX_TIMESTAMP
                for index, wm in self._channel_watermarks.items()]
        combined = min(live) if live else MAX_TIMESTAMP
        if combined > self._combined_watermark:
            self._combined_watermark = combined
            self._watermark_gauge.set(min(combined, MAX_TIMESTAMP))
            self._advance_chain_watermark(combined, start=0)
            self._forward_watermark(combined)

    def _advance_chain_watermark(self, timestamp: int, start: int) -> None:
        """Fire due event-time timers and notify ``on_watermark`` for the
        chain suffix beginning at ``start``."""
        for chained in self.chain[start:]:
            self._fire_event_timers(chained, timestamp)
            chained.operator.on_watermark(timestamp)

    def _fire_event_timers(self, chained: _ChainedOperator,
                           up_to: int) -> None:
        # Loop: timer callbacks may register new timers that are also due.
        while True:
            due = chained.timers.event_time.pop_due(up_to)
            if not due:
                return
            for timestamp, key, namespace in due:
                chained.backend.set_current_key(key)
                chained.ctx.current_timestamp = timestamp
                chained.operator.on_event_timer(timestamp, key, namespace)

    def _forward_watermark(self, timestamp: int) -> None:
        if timestamp <= self._emitted_watermark:
            return
        self._emitted_watermark = timestamp
        self._broadcast(Watermark(timestamp))

    def on_processing_time(self, now: int) -> None:
        """Called by the scheduler whenever the simulated clock advances."""
        if self.finished or self.failed is not None:
            return
        for chained in self.chain:
            while True:
                due = chained.timers.processing_time.pop_due(now)
                if not due:
                    break
                for timestamp, key, namespace in due:
                    chained.backend.set_current_key(key)
                    chained.ctx.current_timestamp = timestamp
                    chained.operator.on_processing_timer(timestamp, key,
                                                         namespace)

    # -- checkpoints -----------------------------------------------------------

    def _on_barrier(self, barrier: CheckpointBarrier, channel_index: int) -> None:
        checkpoint_id = barrier.checkpoint_id
        if checkpoint_id < self._min_checkpoint_id:
            return  # stale barrier of a coordinator-aborted checkpoint
        if (self._aligning_checkpoint is not None
                and checkpoint_id > self._aligning_checkpoint):
            # A newer checkpoint's barrier overtook the one we were
            # aligning on (the old one was aborted upstream): abandon the
            # stale alignment so its blocked channels cannot deadlock us.
            self.abort_checkpoint(self._aligning_checkpoint)
        if self._aligning_checkpoint is None:
            self._aligning_checkpoint = checkpoint_id
            self._aligned_channels = set()
        if checkpoint_id != self._aligning_checkpoint:
            return  # late barrier of an aborted checkpoint: drop
        channel, _ = self.inputs[channel_index]
        channel.blocked = True
        self._aligned_channels.add(channel_index)
        self._maybe_complete_alignment()

    def _maybe_complete_alignment(self) -> None:
        """Snapshot and ack once barriers covered every *live* channel.

        Called on barrier arrival and -- crucially -- when a channel
        finishes mid-alignment: a channel delivering EOS after alignment
        began will never deliver its barrier, and without this re-check
        the task would hold its blocked channels forever.
        """
        if self._aligning_checkpoint is None:
            return
        live = {index for index, (ch, _) in enumerate(self.inputs)
                if not ch.finished}
        if not live.issubset(self._aligned_channels):
            return
        checkpoint_id = self._aligning_checkpoint
        self._snapshot_and_ack(checkpoint_id)
        self._broadcast(CheckpointBarrier(checkpoint_id))
        for index in self._aligned_channels:
            self.inputs[index][0].blocked = False
        self._aligning_checkpoint = None
        self._aligned_channels = set()

    def abort_checkpoint(self, checkpoint_id: int) -> None:
        """Coordinator notification: ``checkpoint_id`` was aborted.
        Unblock any channels held by its alignment and ignore its
        barriers from now on."""
        self._min_checkpoint_id = max(self._min_checkpoint_id,
                                      checkpoint_id + 1)
        if self.pending_checkpoint == checkpoint_id:
            self.pending_checkpoint = None
        if self._aligning_checkpoint == checkpoint_id:
            for index in self._aligned_channels:
                self.inputs[index][0].blocked = False
            self._aligning_checkpoint = None
            self._aligned_channels = set()

    def notify_checkpoint_complete(self, checkpoint_id: int) -> None:
        """Coordinator notification: ``checkpoint_id`` is durably
        complete.  Transactional sinks commit their pre-committed
        transactions on this signal."""
        for chained in self.chain:
            chained.operator.notify_checkpoint_complete(checkpoint_id)

    def _snapshot_and_ack(self, checkpoint_id: int) -> None:
        # Pre-snapshot hook: transactional sinks rotate (pre-commit)
        # their transaction here, at the exact barrier cut.
        for chained in self.chain:
            chained.operator.on_checkpoint(checkpoint_id)
        partitioners = {}
        for i, edge in enumerate(self.output_edges):
            state = edge.partitioner.snapshot_state()
            if state is not None:
                partitioners[str(i)] = state
        snapshot = TaskSnapshot(
            self.subtask_id,
            keyed_state={str(i): chained.backend.snapshot()
                         for i, chained in enumerate(self.chain)},
            operator_state={str(i): chained.operator.snapshot_state()
                            for i, chained in enumerate(self.chain)},
            timers={str(i): chained.timers.snapshot()
                    for i, chained in enumerate(self.chain)},
            partitioners=partitioners,
            next_input=self._next_input,
        )
        if self.checkpoint_ack is not None:
            self.checkpoint_ack(checkpoint_id, snapshot)

    def restore(self, snapshot: TaskSnapshot) -> None:
        """Reset this subtask to the checkpointed state."""
        for i, chained in enumerate(self.chain):
            chained.backend.restore(snapshot.keyed_state.get(str(i), {}))
            operator_state = snapshot.operator_state.get(str(i))
            if operator_state is not None:
                chained.operator.restore_state(operator_state)
            chained.timers.restore(snapshot.timers.get(str(i), {}))
        for i, edge in enumerate(self.output_edges):
            state = snapshot.partitioners.get(str(i))
            if state is not None:
                edge.partitioner.restore_state(state)
        # Snapshots written before the cursor was checkpointed lack it.
        self._next_input = getattr(snapshot, "next_input", 0)

    def reset_progress(self) -> None:
        """Clear watermark/barrier progress on recovery (channels are
        cleared by the engine)."""
        for index in self._channel_watermarks:
            self._channel_watermarks[index] = MIN_TIMESTAMP
        self._combined_watermark = MIN_TIMESTAMP
        self._emitted_watermark = MIN_TIMESTAMP
        self._aligning_checkpoint = None
        self._aligned_channels = set()
        self.pending_checkpoint = None
        self._next_input = 0
        self.finished = False
        self.failed = None
        # A restart is a fresh attempt: the quarantine budget resets and
        # any not-yet-consumed chaos poison is discarded (the poisoned
        # records are replayed clean).
        self._attempt_dead_letters = 0
        self.poison_next_records = 0
        # Un-flushed emissions belong to the failed attempt; the replayed
        # inputs will regenerate them.
        self._out_buffer = []

    # -- end of input -------------------------------------------------------

    def _on_channel_end(self, channel_index: int) -> None:
        channel, _ = self.inputs[channel_index]
        channel.finished = True
        self._channel_watermarks[channel_index] = MAX_TIMESTAMP
        self._recompute_combined_watermark()
        # A channel that finished mid-alignment will never deliver its
        # barrier; re-check so the alignment can complete without it.
        self._maybe_complete_alignment()
        if self._all_inputs_finished():
            self._finish_task()

    def _finish_task(self) -> None:
        if self.finished:
            return
        # Make sure event time is fully flushed before finishing.
        if self._combined_watermark < MAX_TIMESTAMP:
            self._combined_watermark = MAX_TIMESTAMP
            self._advance_chain_watermark(MAX_TIMESTAMP, start=0)
        self._forward_watermark(MAX_TIMESTAMP)
        # Bounded input also flushes pending processing-time timers, so
        # processing-time windows do not silently drop their tail.
        for chained in self.chain:
            while True:
                due = chained.timers.processing_time.pop_due(MAX_TIMESTAMP)
                if not due:
                    break
                for timestamp, key, namespace in due:
                    chained.backend.set_current_key(key)
                    chained.ctx.current_timestamp = timestamp
                    chained.operator.on_processing_timer(timestamp, key,
                                                         namespace)
        for chained in self.chain:
            chained.ctx.current_timestamp = MAX_TIMESTAMP
            chained.operator.finish()
        self._broadcast(END_OF_STREAM)
        for chained in self.chain:
            chained.operator.close()
        self.finished = True

    def _broadcast(self, element: StreamElement) -> None:
        # Flush buffered records *before* any control element leaves:
        # this is the single point that enforces the batch-never-
        # straddles-a-boundary invariant on the producer side.
        if self._out_buffer:
            self._flush_out_buffer()
        for edge in self.output_edges:
            edge.broadcast(element)


# ---------------------------------------------------------------------------
# Shared-arrangement operators
#
# One ArrangeOperator maintains a ShardedArrangement shard; any number of
# reader operators (scan / join) attach snapshot handles to it.  The
# correctness hinge is pure dataflow ordering: the arrange task seals the
# final version in ``finish()`` *before* broadcasting END_OF_STREAM, and
# every reader's control input comes from the arrange node, so a reader's
# ``finish()`` can only run after the arrangement is complete.


class ArrangeOperator(Operator):
    """Maintains one shard of a shared multiversioned index.

    Emits no records -- its task forwards watermarks and end-of-stream
    to the reader nodes as the control signal for snapshot advancement.
    Each watermark advance seals a version; every
    ``compaction_interval`` sealed versions, deltas below the readers'
    low watermark fold into the base (bounded memory under a steady
    watermark).
    """

    def __init__(self, sharded: "Any", key_fn: Callable[[Any], Any],
                 name: str = "arrange") -> None:
        super().__init__()
        self.name = name
        self._sharded = sharded
        self._key_fn = key_fn
        self._shard = None
        self._seals_since_compaction = 0

    def open(self, ctx: OperatorContext) -> None:
        super().open(ctx)
        # Restart-from-scratch rebuilds the dataflow with fresh operator
        # instances over the same closed-over ShardedArrangement: reset
        # the shard so replayed input is not double-counted and reader
        # handles of discarded operator instances are dropped.
        self._shard = self._sharded.shard(ctx.subtask_index)
        self._shard.reset()
        self._seals_since_compaction = 0

    def process(self, record: Record) -> None:
        row = record.value
        self._shard.insert(self._key_fn(row), row)

    def on_watermark(self, timestamp: int) -> None:
        if timestamp <= MIN_TIMESTAMP:
            return
        sealed_before = self._shard.sealed
        self._shard.seal(min(timestamp, MAX_TIMESTAMP))
        if self._shard.sealed > sealed_before:
            self._seals_since_compaction += 1
        if self._seals_since_compaction >= self._shard.compaction_interval:
            self._shard.compact()
            self._seals_since_compaction = 0

    def finish(self) -> None:
        self._shard.seal_final()

    def snapshot_state(self) -> Any:
        return self._shard.snapshot()

    def restore_state(self, state: Any) -> None:
        self._shard.restore(state)

    def arrangement_report(self) -> Dict[str, Any]:
        return self._shard.stats()


class _ArrangementReader(Operator):
    """Shared handle plumbing for arrangement reader operators.

    Handles attach *lazily* (first watermark / finish), never in
    ``open``: build order is unspecified, so the arrange operator's
    ``open`` may reset the shard after this operator opened."""

    def __init__(self, sharded: "Any", name: str) -> None:
        super().__init__()
        self.name = name
        self._sharded = sharded
        self._handle = None

    def _ensure_handle(self):
        if self._handle is None or not self._handle.attached:
            shard = self._sharded.shard(self.ctx.subtask_index)
            self._handle = shard.attach()
        return self._handle

    def on_watermark(self, timestamp: int) -> None:
        if timestamp <= MIN_TIMESTAMP:
            return
        self._ensure_handle().advance_to(timestamp)

    def close(self) -> None:
        if self._handle is not None:
            self._handle.detach()
            self._handle = None


class ArrangementScanOperator(_ArrangementReader):
    """Serves one group-by query from a shared arrangement: folds each
    key's arranged rows with the query's own ``reduce_fn`` at end of
    input.  Key iteration is sorted by ``repr`` to match
    :class:`~repro.runtime.batch.GroupReduceOperator`, so a shared plan
    is byte-identical to the independently planned one."""

    def __init__(self, sharded: "Any",
                 reduce_fn: Callable[[Any, List[Any]], Any],
                 name: str = "arrangement-scan") -> None:
        super().__init__(sharded, name)
        self._reduce_fn = reduce_fn

    def process(self, record: Record) -> None:
        raise RuntimeError(
            "arrangement scan has no data input; it reads via its handle")

    def finish(self) -> None:
        grouped = self._ensure_handle().read_frontier()
        for key in sorted(grouped, key=repr):
            self.ctx.emit(self._reduce_fn(key, grouped[key]))


class ArrangementJoinOperator(_ArrangementReader):
    """Probes an arranged right side with this query's left input.

    Input 0 buffers left rows per key; input 1 is the control edge from
    the arrange node (watermarks and end-of-stream only).  ``finish``
    replays arranged rows in arrival order, matching
    :class:`~repro.runtime.batch.HashJoinOperator`'s right-side
    iteration exactly."""

    def __init__(self, sharded: "Any", left_key: Callable[[Any], Any],
                 join_fn: Callable[[Any, Any], Any],
                 name: str = "arrangement-join") -> None:
        super().__init__(sharded, name)
        self._left_key = left_key
        self._join_fn = join_fn
        self._left: Dict[Any, List[Any]] = {}

    def process(self, record: Record) -> None:
        value = record.value
        self._left.setdefault(self._left_key(value), []).append(value)

    def process2(self, record: Record) -> None:
        raise RuntimeError(
            "the arrangement control input carries no records")

    def finish(self) -> None:
        handle = self._ensure_handle()
        for key, right_row in handle.read_frontier_rows():
            for left_value in self._left.get(key, ()):
                self.ctx.emit(self._join_fn(left_value, right_row))
        self._left.clear()

    def snapshot_state(self) -> Any:
        return {"left": {key: list(values)
                         for key, values in self._left.items()}}

    def restore_state(self, state: Any) -> None:
        self._left = {key: list(values)
                      for key, values in state["left"].items()}

    def rescale_operator_state(self, states, subtask_index: int,
                               parallelism: int) -> Any:
        from repro.runtime.operators import rescale_keyed_dict_state
        return {"left": rescale_keyed_dict_state(
            [state["left"] for state in states if state],
            subtask_index, parallelism)}
