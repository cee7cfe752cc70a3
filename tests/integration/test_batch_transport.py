"""Records travel only in batches of at most ``batch_size`` records.

Covers the transport contract of the task runtime: every data element a
channel carries is a record batch capped at ``batch_size`` (so
``batch_size=1`` means one record per element), a bad
``REPRO_BATCH_SIZE`` is reported by name, and crash-replay merges a
multi-input task's channels in the same order as the uninterrupted run.
"""

import pytest

from repro.api.environment import Environment
from repro.runtime.channels import Channel
from repro.runtime.elements import Record
from repro.runtime.engine import EngineConfig
from repro.runtime.partition import Partitioner
from repro.runtime.task import OutputEdge
from repro.state.checkpoint import TaskSnapshot
from repro.testing.oracles import make_oracle


def _spy_push(monkeypatch):
    """Record the weight of every data element pushed onto a channel."""
    weights = []
    inner = Channel.push

    def push(self, element):
        assert not isinstance(element, Record), "bare record on a channel"
        if element.is_batch:
            weights.append(len(element))
        inner(self, element)

    monkeypatch.setattr(Channel, "push", push)
    return weights


@pytest.mark.parametrize("batch_size", [1, 4])
def test_batch_size_caps_every_channel_element(batch_size, monkeypatch):
    weights = _spy_push(monkeypatch)
    env = Environment(parallelism=2, config=EngineConfig(
        batch_size=batch_size))
    result = (env.from_collection(range(200))
              .rebalance()
              .map(lambda x: x + 1)
              .collect())
    env.execute()
    assert sorted(result.get()) == list(range(1, 201))
    assert weights, "no record batch crossed a channel"
    assert max(weights) <= batch_size


def test_unknown_partitioner_routes_one_batch_per_channel():
    class ModuloOrBroadcast(Partitioner):
        def select(self, record, num_channels, subtask_index):
            if record.value % 3:
                return (record.value % num_channels,)
            return tuple(range(num_channels))

    channels = [Channel("a"), Channel("b")]
    OutputEdge(ModuloOrBroadcast(), channels, 0).emit_batch(
        [Record(value) for value in range(7)])
    routed = []
    for channel in channels:
        element = channel.poll()
        assert element.is_batch and channel.poll() is None
        routed.append([record.value for record in element.records])
    assert routed == [[0, 2, 3, 4, 6], [0, 1, 3, 5, 6]]


def test_default_batch_size_is_1024(monkeypatch):
    monkeypatch.delenv("REPRO_BATCH_SIZE", raising=False)
    assert EngineConfig().batch_size == 1024


@pytest.mark.parametrize("raw", ["abc", "0", "-3", ""])
def test_bad_repro_batch_size_names_the_variable(raw, monkeypatch):
    monkeypatch.setenv("REPRO_BATCH_SIZE", raw)
    with pytest.raises(ValueError, match="REPRO_BATCH_SIZE"):
        EngineConfig()


def test_snapshot_without_poll_cursor_restores_to_zero():
    snapshot = TaskSnapshot(("1-op", 0), {}, operator_state={})
    assert snapshot.next_input == 0
    # A snapshot written before the cursor was checkpointed has no slot.
    del snapshot.next_input
    env = Environment(config=EngineConfig())
    env.from_collection([1, 2]).rebalance().map(lambda x: x).collect()
    env.execute()
    task = env.last_engine.tasks[-1]
    task._next_input = 1
    task.restore(snapshot)
    assert task._next_input == 0


def test_crash_replay_merges_inputs_in_the_original_order(monkeypatch):
    """Shrunk from ``fuzz --seed 0 --budget-cases 300 --batch-size 64``
    (replay oracle, case 249).  The fair-poll cursor of a multi-input
    task was neither checkpointed nor reset, so after a restore the task
    merged its channels in a different order; behind a rebalance that
    changed which records the per-subtask watermark generators made
    late."""
    monkeypatch.setenv("REPRO_BATCH_SIZE", "64")
    oracle = make_oracle("replay")
    params = {"aggregate": "sum",
              "assigner": {"kind": "sliding", "size": 46, "slide": 23},
              "crash_fraction": 0.75,
              "ooo_bound": 0,
              "parallelism": 2,
              "rebalance": True}
    stream = [("k0", 0, 10), ("k1", 0, 10), ("k1", 0, 11), ("k1", 0, 11),
              ("k0", 0, 12), ("k1", 0, 12), ("k3", 0, 12), ("k0", 0, 12),
              ("k0", 0, 13), ("k0", 0, 388), ("k3", 0, 388), ("k2", 0, 388),
              ("k2", 0, 389), ("k0", 0, 390), ("k3", 0, 391), ("k1", 0, 392),
              ("k1", 0, 392), ("k2", 0, 393), ("k3", 0, 394), ("k2", 0, 395),
              ("k0", 0, 769), ("k3", 0, 769), ("k1", 0, 1144),
              ("k0", 0, 1145), ("k0", 0, 1146), ("k3", 0, 1146),
              ("k2", 0, 1146), ("k1", 0, 1147), ("k1", 0, 1148),
              ("k0", 0, 1148), ("k2", 0, 1149), ("k2", 0, 1149),
              ("k0", 0, 1149), ("k1", 0, 1149), ("k1", 0, 1149),
              ("k1", 0, 1524), ("k3", 0, 1899), ("k3", 0, 1899),
              ("k0", 0, 1899), ("k1", 0, 1899), ("k0", 0, 1900),
              ("k2", 0, 1900), ("k0", -9, 1901), ("k0", 0, 2276),
              ("k1", 0, 2277), ("k2", 0, 2277), ("k0", 0, 2277)]
    case = oracle.case_from(params, stream)
    mismatch = oracle.check(case)
    assert mismatch is None, mismatch
