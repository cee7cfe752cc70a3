"""Unit tests for channel occupancy accounting.

The lifetime invariant under test is ``pushed == polled + cleared +
size``: every record that ever entered a channel is either consumed,
dropped with accounting (failure-recovery clears, chaos losses), or
still buffered.  ``job_report()`` throughput and occupancy figures rely
on the balance holding across restores.
"""

from repro.runtime.channels import Channel, element_weight
from repro.runtime.elements import (
    CheckpointBarrier,
    EndOfStream,
    Record,
    RecordBatch,
    Watermark,
)


def _balanced(channel):
    return channel.pushed == channel.polled + channel.cleared + channel.size


def test_element_weight():
    assert element_weight(RecordBatch([Record(1), Record(2)])) == 2
    assert element_weight(RecordBatch([])) == 0
    assert element_weight(Watermark(5)) == 1
    assert element_weight(CheckpointBarrier(1)) == 1
    assert element_weight(EndOfStream()) == 1


def test_push_poll_balance():
    channel = Channel("t")
    for i in range(4):
        channel.push(RecordBatch([Record(i)]))
    channel.push(RecordBatch([Record(10), Record(11), Record(12)]))
    assert channel.pushed == 7 and channel.size == 7
    channel.poll()
    channel.poll()
    assert channel.polled == 2 and channel.size == 5
    assert _balanced(channel)


def test_clear_accounts_dropped_records():
    channel = Channel("t")
    for i in range(3):
        channel.push(RecordBatch([Record(i)]))
    channel.push(RecordBatch([Record(3), Record(4)]))
    channel.poll()
    channel.clear()
    assert channel.size == 0 and channel.is_empty
    assert channel.cleared == 4  # 2 one-record batches + the 2-record batch
    assert _balanced(channel)
    # Cleared counts accumulate across repeated restore cycles.
    channel.push(RecordBatch([Record(9)]))
    channel.clear()
    assert channel.cleared == 5
    assert _balanced(channel)


def test_clear_resets_barrier_block_and_eos():
    channel = Channel("t")
    channel.push(CheckpointBarrier(1))
    channel.blocked = True
    channel.finished = True
    channel.clear()
    assert not channel.blocked and not channel.finished
    assert channel.cleared == 1
    assert _balanced(channel)


def test_requeue_front_reverses_poll_accounting():
    channel = Channel("t")
    channel.push(RecordBatch([Record(i) for i in range(5)]))
    batch = channel.poll()
    assert channel.polled == 5
    channel.requeue_front(RecordBatch(batch.records[2:]))
    assert channel.polled == 2 and channel.size == 3
    assert _balanced(channel)


def test_counters_balance_after_crash_restore():
    """End to end: a crash-restored job clears in-flight channels; the
    lifetime counters must still balance on every channel afterwards."""
    from repro.api.environment import Environment
    from repro.runtime.engine import EngineConfig
    from repro.runtime.restart import FixedDelayRestart
    from repro.testing.oracles import make_crash_once_hook

    hook = make_crash_once_hook(min_checkpoints=1, at_round=8)
    env = Environment(parallelism=2, config=EngineConfig(
        checkpoint_interval_ms=3, elements_per_step=2,
        failure_hook=hook,
        restart_strategy=FixedDelayRestart(max_restarts=3, delay_ms=0)))
    collected = (env.from_collection(range(200))
                 .key_by(lambda v: v % 5)
                 .sum()
                 .collect())
    env.execute()
    assert hook.state["fired"], "crash never injected"
    assert collected.get(), "job produced no output"
    engine = env.last_engine
    assert engine.recoveries >= 1
    for task in engine.tasks:
        for channel, _ in task.inputs:
            assert _balanced(channel), (
                "channel %s unbalanced: pushed=%d polled=%d cleared=%d "
                "size=%d" % (channel.name, channel.pushed, channel.polled,
                             channel.cleared, channel.size))


def test_chaos_drop_and_duplicate_keep_balance():
    channel = Channel("t")
    channel.push(RecordBatch([Record("a")]))
    channel.push(RecordBatch([Record("b"), Record("c")]))
    assert channel.drop_one_record()
    assert channel.cleared == 1
    assert channel.duplicate_one_record()
    assert _balanced(channel)
    while channel.poll() is not None:
        pass
    assert _balanced(channel) and channel.size == 0
