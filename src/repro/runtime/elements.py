"""Stream elements: the unified vocabulary flowing through every channel.

Following the Flink execution model that STREAMLINE builds on, a channel
carries an interleaved sequence of four element kinds:

* a record batch -- a run of :class:`Record` rows (data tuples with an
  optional event timestamp), as a :class:`RecordBatch` or its columnar
  twin :class:`ColumnarBatch`; a record never travels on its own,
* :class:`Watermark` -- an assertion that no record with a smaller event
  timestamp will arrive on this channel,
* :class:`CheckpointBarrier` -- separates the records belonging to
  consecutive checkpoints (asynchronous barrier snapshotting),
* :class:`EndOfStream` -- the channel is exhausted; this is how *data at
  rest* (bounded inputs) and *data in motion* (unbounded inputs) unify:
  a batch job is a stream whose sources eventually emit ``EndOfStream``.

Timestamps are integers in milliseconds, mirroring Flink.  ``MAX_TIMESTAMP``
acts as the +infinity watermark that flushes all event-time state at the
end of a bounded input.
"""

from __future__ import annotations

from typing import Any, List, Optional

MIN_TIMESTAMP = -(2**62)
MAX_TIMESTAMP = 2**62


class StreamElement:
    """Base class for everything that travels through a channel."""

    __slots__ = ()

    @property
    def is_batch(self) -> bool:
        return False

    @property
    def is_columnar(self) -> bool:
        return False

    @property
    def is_watermark(self) -> bool:
        return False

    @property
    def is_barrier(self) -> bool:
        return False

    @property
    def is_end(self) -> bool:
        return False


class Record:
    """A data row, optionally stamped with an event timestamp.  Records
    are what operators process; on a channel they travel inside batches.

    ``key`` is a routing artefact: it is filled in by keyed partitioning
    so downstream operators can scope state without re-invoking the key
    selector.
    """

    __slots__ = ("value", "timestamp", "key")

    def __init__(self, value: Any, timestamp: Optional[int] = None,
                 key: Any = None) -> None:
        self.value = value
        self.timestamp = timestamp
        self.key = key

    def with_value(self, value: Any) -> "Record":
        """A copy carrying ``value`` but the same timestamp and key."""
        return Record(value, self.timestamp, self.key)

    def __repr__(self) -> str:
        return "Record(%r, ts=%r, key=%r)" % (self.value, self.timestamp, self.key)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Record)
                and self.value == other.value
                and self.timestamp == other.timestamp
                and self.key == other.key)

    def __hash__(self) -> int:
        return hash((self.value if not isinstance(self.value, (list, dict))
                     else id(self.value), self.timestamp))


class RecordBatch(StreamElement):
    """A run of consecutive :class:`Record`\\ s travelling as one element.

    Batches are the only way records travel: producers coalesce the
    records emitted between two control elements (watermark, barrier,
    end-of-stream) and consumers unpack them, so a batch never straddles
    a control boundary.  That invariant is what keeps barrier alignment,
    watermark propagation and replay determinism bit-identical at every
    batch size -- the batch frontier (the watermark state
    records inside it were emitted under) is exactly the frontier of the
    element preceding the batch, so no in-band frontier field is needed.

    For flow control a batch weighs ``len(records)`` against channel
    capacity, keeping backpressure record-denominated.
    """

    __slots__ = ("records",)

    def __init__(self, records: List["Record"]) -> None:
        self.records = records

    def __len__(self) -> int:
        return len(self.records)

    def __repr__(self) -> str:
        return "RecordBatch(n=%d)" % len(self.records)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ColumnarBatch):
            return self.records == other.records
        return isinstance(other, RecordBatch) and self.records == other.records

    def __hash__(self) -> int:
        # Defining __eq__ alone silently sets __hash__ to None; batches
        # must stay hashable like every other stream element (tests and
        # diagnostics put elements in sets/dicts).  Consistent with
        # __eq__ via the records' own hashes.
        return hash(("batch", tuple(map(hash, self.records))))

    @property
    def is_batch(self) -> bool:
        return True


#: Sentinel for a ``None`` event timestamp inside an int64 timestamp
#: column; safely outside the engine's MIN/MAX_TIMESTAMP range.
TIMESTAMP_NONE = -(2**63)


class ColumnarBatch(StreamElement):
    """A :class:`RecordBatch` in columnar (struct-of-arrays) layout.

    Instead of a list of :class:`Record` objects, the batch carries one
    column per field: an int64 timestamp column (``TIMESTAMP_NONE``
    encodes a missing timestamp), a key column, and one or more typed
    value columns described by ``schema`` (see
    :mod:`repro.runtime.columnar` for inference and the wire codec).
    Columns are ``array``/``memoryview``/``list`` objects -- whatever
    the producer had zero-copy access to.

    The element is a drop-in batch for every row-oriented consumer: it
    reports ``is_batch``, weighs ``len(self)`` records against channel
    capacity, and its ``records`` property materialises (and caches) the
    equivalent ``Record`` list on first touch -- so operators without a
    column kernel transparently take the row path.  Conversion is
    lossless by construction: the schema inference in
    ``repro.runtime.columnar`` only admits exact-type columns (``bool``
    is not ``int``, ``None`` timestamps survive) and falls back to row
    batches otherwise.

    Like row batches, columnar batches never straddle a control-element
    boundary, so barrier alignment and watermark semantics are untouched.
    """

    __slots__ = ("schema", "length", "timestamps", "keys", "columns",
                 "_records")

    def __init__(self, schema: Any, length: int, timestamps: Any,
                 keys: Any, columns: tuple) -> None:
        self.schema = schema
        self.length = length
        #: int64 column (``TIMESTAMP_NONE`` = missing) or ``None`` when
        #: every timestamp is missing.
        self.timestamps = timestamps
        #: key column (typed sequence) or ``None`` when every key is.
        self.keys = keys
        #: one typed column per value field (a single column for scalar
        #: values; one per position for tuple values).
        self.columns = columns
        self._records: Optional[List[Record]] = None

    def __len__(self) -> int:
        return self.length

    @property
    def is_batch(self) -> bool:
        return True

    @property
    def is_columnar(self) -> bool:
        return True

    @property
    def records(self) -> List["Record"]:
        """The equivalent row batch, materialised lazily and cached --
        the compatibility bridge for row-path consumers."""
        if self._records is None:
            from repro.runtime.columnar import materialize_records
            self._records = materialize_records(self)
        return self._records

    def value_list(self) -> List[Any]:
        """The value column(s) as one plain Python list (tuples re-zipped
        for multi-column schemas) -- the input of column kernels."""
        from repro.runtime.columnar import column_values
        return column_values(self)

    def timestamp_list(self) -> List[Optional[int]]:
        from repro.runtime.columnar import column_timestamps
        return column_timestamps(self)

    def key_list(self) -> List[Any]:
        from repro.runtime.columnar import column_keys
        return column_keys(self)

    def slice(self, start: int, stop: int) -> "ColumnarBatch":
        """A columnar sub-batch of rows ``[start:stop)`` (used by the
        record-exact step-budget split; columns slice without
        materialising rows)."""
        from repro.runtime.columnar import slice_batch
        return slice_batch(self, start, stop)

    def __repr__(self) -> str:
        return "ColumnarBatch(n=%d, schema=%r)" % (self.length, self.schema)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (RecordBatch, ColumnarBatch)):
            return self.records == other.records
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("batch", tuple(map(hash, self.records))))


class Watermark(StreamElement):
    """Progress marker: no later record on this channel has ``timestamp``
    smaller than this watermark's."""

    __slots__ = ("timestamp",)

    def __init__(self, timestamp: int) -> None:
        self.timestamp = timestamp

    @property
    def is_watermark(self) -> bool:
        return True

    def __repr__(self) -> str:
        if self.timestamp >= MAX_TIMESTAMP:
            return "Watermark(MAX)"
        return "Watermark(%d)" % self.timestamp

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Watermark) and self.timestamp == other.timestamp

    def __hash__(self) -> int:
        return hash(("wm", self.timestamp))


class CheckpointBarrier(StreamElement):
    """Separates pre- and post-checkpoint records (Chandy-Lamport style)."""

    __slots__ = ("checkpoint_id",)

    def __init__(self, checkpoint_id: int) -> None:
        self.checkpoint_id = checkpoint_id

    @property
    def is_barrier(self) -> bool:
        return True

    def __repr__(self) -> str:
        return "CheckpointBarrier(%d)" % self.checkpoint_id

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, CheckpointBarrier)
                and self.checkpoint_id == other.checkpoint_id)

    def __hash__(self) -> int:
        return hash(("barrier", self.checkpoint_id))


class EndOfStream(StreamElement):
    """The bounded-input sentinel; unifies batch with streaming."""

    __slots__ = ()

    @property
    def is_end(self) -> bool:
        return True

    def __repr__(self) -> str:
        return "EndOfStream()"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, EndOfStream)

    def __hash__(self) -> int:
        return hash("eos")


END_OF_STREAM = EndOfStream()
MAX_WATERMARK = Watermark(MAX_TIMESTAMP)
