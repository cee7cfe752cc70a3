"""The benchmark's three reference jobs.

Each workload makes its inputs from a seed, computes the expected output
with the plain-Python references in :mod:`reference`, and runs the job
through the engine's public API once per :meth:`run` call.  The engine
only ever sees the generated inputs.

* ``chain`` -- closed loop: a stateless source -> rebalance -> map ->
  filter -> map -> global -> sink drain on the cooperative backend at
  parallelism 2, every ``EngineConfig`` knob at its default.
* ``hybrid_windows`` -- the paper's headline job: a drained history
  handed over at a watermark-exact cutover to a live side released by an
  open loop at a fixed rate, Zipf-skewed user keys, bounded
  out-of-orderness watermarks, three Cutty window queries sharing one
  slicing aggregator per key, on the multiprocess backend with durable
  checkpoints and a two-phase-commit file sink.  The cutover source is
  built with ``with_history`` (the mirror of ``read().then_stream()``)
  so that it runs as one subtask: a single feed serves both sides, and
  each side's first pull is seen by the feed itself.
* ``table_queries`` -- 64 concurrent table queries (group-bys over two
  key sets and a join to a dimension table) on one ``env.table``, served
  by shared arrangements on the cooperative backend.

Every user function handed to the engine goes through ``wrap`` first, so
a traced run can time the workload's own code as its own layer.
"""

from __future__ import annotations

import os
import random
import time
from typing import Any, Callable, Dict, List, Tuple

from feed import ClosedLoopFeed, OpenLoopFeed, Probe
import reference
import usage

Wrap = Callable[[Callable[..., Any]], Callable[..., Any]]


def no_wrap(fn: Callable[..., Any]) -> Callable[..., Any]:
    return fn


class JobRun:
    """What one execution of a workload produced.

    Times are ``time.monotonic()`` readings: ``started`` when the
    Environment began to be built, ``first_pull`` when the feed handed
    out its first record, ``drained`` when the drained (closed-loop or
    history) input was exhausted, ``finished`` when ``execute()``
    returned.  ``cpu_s`` and ``peak_rss_mb`` cover the same window as
    ``started`` to ``finished`` (see :mod:`usage`).
    """

    def __init__(self) -> None:
        self.started = 0.0
        self.first_pull = 0.0
        self.drained = 0.0
        self.finished = 0.0
        self.drained_records = 0
        self.cpu_s = 0.0
        self.peak_rss_mb = 0.0
        self.latencies_ms: List[float] = []
        self.lags_ms: List[float] = []
        self.expected = 0
        self.failed = 0
        self.result: Any = None
        self.report: Dict[str, Any] = {}


class Collector:
    """A plain sink function: keeps every value with its arrival time."""

    def __init__(self) -> None:
        self.rows: List[Tuple[Any, float]] = []

    def __call__(self, value: Any) -> None:
        self.rows.append((value, time.monotonic()))


def _start(run: JobRun) -> None:
    usage.reset_peak()
    run.cpu_s = -usage.cpu_seconds()
    run.started = time.monotonic()


def _finish(run: JobRun, env: Any, result: Any, workdir: str) -> None:
    """Close the measured window as soon as ``execute()`` returns (the
    multiprocess backend has reaped its workers by then)."""
    run.finished = time.monotonic()
    run.cpu_s += usage.cpu_seconds()
    run.peak_rss_mb = usage.job_peak_mb(workdir)
    run.result = result
    run.report = env.job_report().as_dict()


# ---------------------------------------------------------------------------
# chain
# ---------------------------------------------------------------------------

def chain_scale(value: tuple) -> tuple:
    index, amount, created = value
    return (index, amount * 3 + 1, created)


def chain_keep(value: tuple) -> bool:
    return value[1] % 5 != 0


def chain_tag(value: tuple) -> tuple:
    index, amount, created = value
    return (index, amount // 2 - 7, created)


class ChainWorkload:
    """Closed-loop drain of ``records`` integers through a stateless
    pipeline."""

    name = "chain"

    def __init__(self, seed: int, records: int = 240_000) -> None:
        rng = random.Random("chain/%d" % seed)
        self.inputs = [(index, rng.randrange(1_000_000))
                       for index in range(records)]
        self.expected = reference.chain_expected(self.inputs)
        self.expected_rows = len(self.expected)

    def run(self, workdir: str, wrap: Wrap = no_wrap) -> JobRun:
        from repro.api import Environment

        run = JobRun()
        probe = Probe()
        sink = Collector()
        inputs = self.inputs
        _start(run)
        env = Environment(parallelism=2)
        (env.from_source(lambda: ClosedLoopFeed(inputs, probe),
                         parallelism=1, name="chain-source")
         .rebalance()
         .map(wrap(chain_scale), name="scale")
         .filter(wrap(chain_keep), name="keep")
         .map(wrap(chain_tag), name="tag")
         .global_()
         .add_sink(wrap(sink), parallelism=1, name="chain-sink"))
        result = env.execute("chain")
        _finish(run, env, result, workdir)
        run.first_pull = probe.first_pull
        run.drained = run.finished
        run.drained_records = len(inputs)
        got = [value[:2] for value, _ in sink.rows]
        run.expected = self.expected_rows
        run.failed = reference.count_failed(self.expected, got)
        run.latencies_ms = [(arrived - value[2]) * 1000.0
                            for value, arrived in sink.rows]
        return run


# ---------------------------------------------------------------------------
# hybrid_windows
# ---------------------------------------------------------------------------

#: Cutty queries: query id -> (size ms, slide ms).
HYBRID_QUERIES = {
    "tumble-250ms": (250, 250),
    "tumble-1s": (1000, 1000),
    "slide-2s-500ms": (2000, 500),
}
#: Bounded out-of-orderness of the generated event times, and the
#: watermark bound that covers it.
HYBRID_DISORDER_MS = 20
HYBRID_WATERMARK_MS = 50
#: Event-time density of both sides: records per event-time millisecond.
HYBRID_DENSITY = 4
#: Batches of 64 records let the exchange carry data over the
#: shared-memory rings and the columnar codec; at the default batch size
#: of 1 every record crosses as a pickled pipe frame.
HYBRID_BATCH_SIZE = 64


class StampedSum:
    """Per-window count and sum of amounts, carrying the newest creation
    stamp of the events it covers.

    Events are ``(user, amount, event_ts, created)``; history events have
    ``created == 0.0``, live ones their open-loop due time, so a window's
    newest stamp is 0.0 exactly when it holds no live event.
    """

    invertible = False
    commutative = True

    def __init__(self, wrap: Wrap = no_wrap) -> None:
        self.create_accumulator = wrap(self.create_accumulator)
        self.add = wrap(self.add)
        self.merge = wrap(self.merge)
        self.get_result = wrap(self.get_result)

    def create_accumulator(self) -> tuple:
        return (0, 0, 0.0)

    def add(self, value: tuple, acc: tuple) -> tuple:
        created = value[3]
        return (acc[0] + 1, acc[1] + value[1],
                created if created > acc[2] else acc[2])

    def merge(self, a: tuple, b: tuple) -> tuple:
        return (a[0] + b[0], a[1] + b[1], a[2] if a[2] > b[2] else b[2])

    def get_result(self, acc: tuple) -> tuple:
        return acc


def hybrid_event_time(event: tuple) -> int:
    return event[2]


def hybrid_user(event: tuple) -> Any:
    return event[0]


def hybrid_line(result: Any) -> str:
    """2PC sink formatter: one window result per line, stamped with the
    time it reached the sink."""
    count, total, newest = result.value
    return "%s|%s|%d|%d|%d|%d|%r|%r" % (
        result.key, result.query_id, result.start, result.end, count,
        total, newest, time.monotonic())


def parse_hybrid_line(line: str) -> Tuple[tuple, float, float]:
    key, query, start, end, count, total, newest, arrived = line.split("|")
    return ((key, query, int(start), int(end), int(count), int(total)),
            float(newest), float(arrived))


class HybridWindowsWorkload:
    """History drained through a cutover into an open-loop live side."""

    name = "hybrid_windows"

    def __init__(self, seed: int, history: int = 40_000, live: int = 6_000,
                 rate: float = 4_000.0, users: int = 400,
                 checkpoint_interval_ms: int = 250) -> None:
        from repro.datagen.arrivals import ZipfSampler

        rng = random.Random("hybrid/%d" % seed)
        zipf = ZipfSampler(users, exponent=1.1, seed=seed)
        self.cutover = history // HYBRID_DENSITY
        self.rate = rate
        self.checkpoint_interval_ms = checkpoint_interval_ms

        def event(index: int, low: int, high: int) -> tuple:
            base = low + index // HYBRID_DENSITY
            ts = max(low, min(high, base - rng.randrange(HYBRID_DISORDER_MS)))
            return ("u%03d" % zipf.sample(), rng.randrange(1, 100), ts)

        live_end = self.cutover + 1 + live // HYBRID_DENSITY
        self.history = [event(i, 1, self.cutover) for i in range(history)]
        self.live = [event(i, self.cutover + 1, live_end)
                     for i in range(live)]
        self.expected = reference.windows_expected(
            self.history + self.live, HYBRID_QUERIES)
        self.expected_rows = len(self.expected)

    def run(self, workdir: str, wrap: Wrap = no_wrap) -> JobRun:
        from repro.api import Environment
        from repro.connectors.sinks import TransactionalTextFileSink
        from repro.cutty.specs import PeriodicWindows
        from repro.runtime.engine import EngineConfig
        from repro.time.watermarks import WatermarkStrategy

        run = JobRun()
        probe = Probe(lag_capacity=len(self.live))
        out_path = os.path.join(workdir, "windows.txt")
        history, live, rate = self.history, self.live, self.rate
        queries = {query: (lambda size=size, slide=slide:
                           PeriodicWindows(size, slide))
                   for query, (size, slide) in HYBRID_QUERIES.items()}
        _start(run)
        env = Environment(parallelism=2, config=EngineConfig(
            backend="multiprocess", num_workers=2,
            checkpoint_interval_ms=self.checkpoint_interval_ms,
            checkpoint_dir=os.path.join(workdir, "checkpoints"),
            batch_size=HYBRID_BATCH_SIZE))
        # One source subtask: a single feed process serves both sides.
        live_stream = env.from_source(
            lambda: OpenLoopFeed(live, rate, probe), parallelism=1,
            name="live")
        (live_stream
         .with_history(lambda: ClosedLoopFeed(history, probe,
                                              stamped=False),
                       cutover=self.cutover,
                       timestamp_fn=wrap(hybrid_event_time),
                       name="hybrid-source")
         .assign_timestamps_and_watermarks(
             WatermarkStrategy.for_bounded_out_of_orderness(
                 wrap(hybrid_event_time), HYBRID_WATERMARK_MS))
         .key_by(wrap(hybrid_user))
         .shared_windows(lambda: StampedSum(wrap), queries, reorder=True,
                         name="cutty")
         .add_sink(TransactionalTextFileSink(
             out_path, formatter=wrap(hybrid_line)), name="2pc-sink"))
        result = env.execute("hybrid_windows")
        _finish(run, env, result, workdir)
        run.first_pull = probe.first_pull
        run.drained = probe.live_started
        run.drained_records = len(self.history)
        with open(out_path, "r", encoding="utf-8") as handle:
            parsed = [parse_hybrid_line(line.rstrip("\n"))
                      for line in handle]
        run.expected = self.expected_rows
        run.failed = reference.count_failed(
            self.expected, [row for row, _, _ in parsed])
        run.latencies_ms = [(arrived - newest) * 1000.0
                            for _, newest, arrived in parsed if newest > 0.0]
        run.lags_ms = [lag * 1000.0 for lag in probe.lags()]
        return run


# ---------------------------------------------------------------------------
# table_queries
# ---------------------------------------------------------------------------

#: Aggregations cycled over the group-by queries (all carry the newest
#: creation stamp of their group).
TABLE_AGGS = [
    {"total": ("sum", "amount")},
    {"n": ("count", None)},
    {"lo": ("min", "amount")},
    {"hi": ("max", "amount")},
]
TABLE_QUERIES = 64
#: Every eighth query is a join to the dimension table.
TABLE_JOIN_EVERY = 8


def table_query_specs(count: int = TABLE_QUERIES) -> List[Dict[str, Any]]:
    """The query mix: ``{"join": bool, "keys": tuple, "aggs": dict}``."""
    specs = []
    for index in range(count):
        aggs = dict(TABLE_AGGS[index % len(TABLE_AGGS)])
        if index % TABLE_JOIN_EVERY == TABLE_JOIN_EVERY - 1:
            specs.append({"join": True, "keys": ("region",), "aggs": aggs})
        else:
            keys = ("user",) if index % 2 == 0 else ("user", "bucket")
            specs.append({"join": False, "keys": keys, "aggs": aggs})
    return specs


class TableQueriesWorkload:
    """64 concurrent queries over one table, sharing arrangements."""

    name = "table_queries"

    def __init__(self, seed: int, rows: int = 6_000, users: int = 200,
                 queries: int = TABLE_QUERIES) -> None:
        rng = random.Random("table/%d" % seed)
        self.rows = [{"user": "u%03d" % rng.randrange(users),
                      "bucket": rng.randrange(8),
                      "amount": rng.randrange(1, 1000),
                      "ts": index}
                     for index in range(rows)]
        # Nine users in ten have a dimension row; the rest drop out of
        # the inner join.
        self.dims = [{"user": "u%03d" % user, "region": "r%d" % (user % 5)}
                     for user in range(users) if user % 10 != 9]
        self.specs = table_query_specs(queries)
        self.expected = [reference.table_expected(self.rows, self.dims, spec)
                         for spec in self.specs]
        self.expected_rows = sum(len(rows) for rows in self.expected)

    def run(self, workdir: str, wrap: Wrap = no_wrap) -> JobRun:
        from repro.api import Environment

        run = JobRun()
        probe = Probe()

        def created(_row: Dict[str, Any]) -> float:
            # env.table materialises its rows, so the table's first pull
            # is seen here, at the first projection.
            now = time.monotonic()
            if probe.first_pull == 0.0:
                probe.note_first_pull(now)
            return now

        _start(run)
        env = Environment(parallelism=2)
        facts = env.table(self.rows, name="facts")
        dims = env.table(self.dims, name="dims")
        stamped = facts.select("user", "bucket", "amount",
                               created=(wrap(created), ()))
        sinks = []
        for spec in self.specs:
            aggs = dict(spec["aggs"], newest=("max", "created"))
            source = stamped.join(dims, on=("user",)) if spec["join"] \
                else stamped
            query = source.group_by(*spec["keys"]).agg(**aggs)
            sink = Collector()
            query.to_stream().add_sink(wrap(sink), name="query-sink")
            sinks.append(sink)
        result = env.execute("table_queries")
        _finish(run, env, result, workdir)
        run.first_pull = probe.first_pull
        run.drained = run.finished
        run.drained_records = len(self.rows)
        for expected, sink in zip(self.expected, sinks):
            got = [reference.row_key(row, drop=("newest",))
                   for row, _ in sink.rows]
            run.expected += len(expected)
            run.failed += reference.count_failed(expected, got)
            run.latencies_ms.extend((arrived - row["newest"]) * 1000.0
                                    for row, arrived in sink.rows)
        return run


WORKLOADS = {
    "chain": ChainWorkload,
    "hybrid_windows": HybridWindowsWorkload,
    "table_queries": TableQueriesWorkload,
}
