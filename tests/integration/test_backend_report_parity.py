"""One checkpoint coordinator, one job report: both backends must report
and restore a durable-checkpointed job the same way.

The cooperative and multiprocess engines share the checkpoint
coordinator (store, counters, restore-point choice) and build
``job_report()`` through the same per-shard federation, so a job with
``checkpoint_dir`` set shows the same ``checkpoints`` section shape and
the same Cutty operators and queries on either backend, and the
cooperative engine recovers from the verified on-disk copy just like the
multiprocess parent does.
"""

import multiprocessing
import os

import pytest

from repro.api import Environment
from repro.cutty import PeriodicWindows
from repro.runtime.engine import EngineConfig
from repro.time.watermarks import WatermarkStrategy
from repro.windowing import CountAggregate, TumblingEventTimeWindows

EVENTS = [(i % 7, i) for i in range(3000)]


def _keyed_window_job(config):
    env = Environment(parallelism=2, config=config)
    keyed = (env.from_collection(EVENTS)
             .assign_timestamps_and_watermarks(
                 WatermarkStrategy.for_monotonic_timestamps(lambda e: e[1]))
             .key_by(lambda e: e[0]))
    windows = (keyed.window(TumblingEventTimeWindows.of(100))
               .aggregate(CountAggregate(), name="counts")
               .collect())
    shared = keyed.shared_windows(
        CountAggregate, {"q1": lambda: PeriodicWindows(1000),
                         "q2": lambda: PeriodicWindows(500)}).collect()
    return env, windows, shared


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="multiprocess backend requires fork")
def test_durable_checkpoint_report_matches_across_backends(tmp_path):
    reports = {}
    outputs = {}
    for backend in ("cooperative", "multiprocess"):
        config = EngineConfig(
            backend=backend,
            num_workers=2 if backend == "multiprocess" else None,
            checkpoint_interval_ms=5, elements_per_step=4,
            checkpoint_dir=str(tmp_path / backend))
        env, windows, shared = _keyed_window_job(config)
        job = env.execute()
        reports[backend] = env.job_report()
        outputs[backend] = sorted(windows.get())
        assert shared.get(), backend
        assert job.checkpoints_completed >= 1, backend
        assert job.counters["checkpoints_persisted"] >= 1, backend
        assert job.counters["checkpoint_corruptions_detected"] == 0, backend

    cooperative, multiproc = reports["cooperative"], reports["multiprocess"]
    assert outputs["cooperative"] == outputs["multiprocess"]
    assert set(cooperative["checkpoints"]) == set(multiproc["checkpoints"])
    for report in (cooperative, multiproc):
        assert report["checkpoints"]["durable"]["persisted"] >= 1
    assert set(cooperative["cutty"]) == set(multiproc["cutty"])
    for name, stats in cooperative["cutty"].items():
        assert (set(stats["queries"])
                == set(multiproc["cutty"][name]["queries"]))


def test_cooperative_recovery_falls_back_past_a_corrupt_checkpoint(tmp_path):
    """The cooperative engine restores from the verified disk copy: with
    the newest persisted checkpoint corrupted, it detects the damage and
    falls back to the next-oldest one, and keyed state stays exact."""
    directory = str(tmp_path / "chk")
    state = {"fired": False}

    def crash_after_corrupting(engine, rounds):
        store = engine.checkpoint_store
        if state["fired"] or len(store.persisted_ids()) < 2:
            return False
        state["fired"] = True
        newest = os.path.join(directory, "chk-%d" % store.persisted_ids()[-1])
        snap = sorted(name for name in os.listdir(newest)
                      if name.endswith(".snap"))[0]
        with open(os.path.join(newest, snap), "r+b") as handle:
            first = handle.read(1)
            handle.seek(0)
            handle.write(bytes([first[0] ^ 0xFF]))
        return True

    env = Environment(parallelism=2, config=EngineConfig(
        checkpoint_interval_ms=5, elements_per_step=4,
        checkpoint_dir=directory, failure_hook=crash_after_corrupting))
    counts = (env.from_collection([("k%d" % (i % 5), 1) for i in range(2000)])
              .key_by(lambda v: v[0])
              .count()
              .collect())
    job = env.execute()
    assert state["fired"], "failure hook never fired"
    assert job.recoveries == 1
    assert job.counters["checkpoint_corruptions_detected"] == 1
    assert job.counters["checkpoint_restore_fallbacks"] == 1
    durable = env.job_report()["checkpoints"]["durable"]
    assert durable["corruptions_detected"] == 1
    assert durable["restore_fallbacks"] == 1
    finals = {}
    for key, running in counts.get():
        finals[key] = max(finals.get(key, 0), running)
    assert finals == {"k%d" % i: 400 for i in range(5)}
