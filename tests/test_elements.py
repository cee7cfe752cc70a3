"""Unit tests for stream elements."""

from repro.runtime.elements import (
    END_OF_STREAM,
    MAX_TIMESTAMP,
    MAX_WATERMARK,
    CheckpointBarrier,
    EndOfStream,
    Record,
    StreamElement,
    Watermark,
)


class TestRecord:
    def test_kind_flags(self):
        # A record is a row inside a batch, never a channel element.
        assert not isinstance(Record(1, 10), StreamElement)

    def test_with_value_preserves_timestamp_and_key(self):
        record = Record("x", 42, key="k")
        derived = record.with_value("y")
        assert derived.value == "y"
        assert derived.timestamp == 42
        assert derived.key == "k"
        assert record.value == "x"  # original untouched

    def test_equality(self):
        assert Record(1, 2) == Record(1, 2)
        assert Record(1, 2) != Record(1, 3)
        assert Record(1, 2, key="a") != Record(1, 2, key="b")

    def test_timestamp_optional(self):
        assert Record("v").timestamp is None


class TestWatermark:
    def test_kind_flags(self):
        watermark = Watermark(5)
        assert watermark.is_watermark

    def test_equality_and_hash(self):
        assert Watermark(5) == Watermark(5)
        assert hash(Watermark(5)) == hash(Watermark(5))
        assert Watermark(5) != Watermark(6)

    def test_max_watermark_repr(self):
        assert "MAX" in repr(MAX_WATERMARK)
        assert MAX_WATERMARK.timestamp == MAX_TIMESTAMP


class TestBarrierAndEnd:
    def test_barrier(self):
        barrier = CheckpointBarrier(3)
        assert barrier.is_barrier
        assert barrier == CheckpointBarrier(3)
        assert barrier != CheckpointBarrier(4)

    def test_end_of_stream_singletonish(self):
        assert END_OF_STREAM.is_end
        assert END_OF_STREAM == EndOfStream()
