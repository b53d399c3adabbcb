"""The benchmark's four workloads: inputs, set-up, timed window, checks.

Each workload is a :class:`Workload` with three steps that ``run.py``
sequences:

* ``setup()`` builds the netlists through the ``wave_pipeline`` flow,
  compiles them, starts whatever serving tier the workload runs and
  warms it up, and returns a :class:`Rig` that owns all of it;
* ``window(rig, pools, seed, seconds, start)`` drives the load for
  *seconds* and returns a :class:`Window` of raw measurements; every
  report it receives is checked against the first report seen for the
  same input (a :class:`Checker`) and then dropped, so the generator
  holds no more than one report per distinct input;
* ``check(rig, pools, checker, seed)`` runs, after the timed window,
  the solo packed run of every distinct input seen and the scalar
  oracle on a seeded sample, and counts mismatches.

Inputs are pools of random bool arrays drawn from ``--seed``
(:func:`make_pools`); which pool entries a call or request uses is
also a pure function of the seed and the call's index.
"""

from __future__ import annotations

import gc
import hashlib
import statistics
import threading
import time
import tracemalloc
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.core.wavepipe import batch, flow
from repro.core.wavepipe.components import WaveNetlist
from repro.core.wavepipe.simulator import WaveSimulationReport, simulate_waves
from repro.errors import ReproError
from repro.serve import (
    OpenLoopScenario,
    SimulationClient,
    SimulationServer,
    SocketServer,
    loadgen,
)
from repro.suite.table import get_benchmark

from layers import LayerTracer

#: The paper's headline circuits.
CIRCUITS = ("ctrl", "i2c")

#: Circuit of each request in turn (``served`` and ``wire``).  Two
#: ctrl requests per i2c request put the latency p50 inside the ctrl
#: mode and the p90 inside the i2c mode, never on the edge between.
REQUEST_MIX = ("ctrl", "ctrl", "i2c")

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 7

#: Bound on one request's wait inside the load generators (seconds).
REQUEST_TIMEOUT_S = 60.0

#: Inputs checked against the scalar oracle after each run.
ORACLE_SAMPLE = 3

#: Feeds into an aged session over which retained memory is measured.
RETAINED_FEEDS = 100


@dataclass(frozen=True)
class Call:
    """One engine call shape: a pool and how many of its streams."""

    pool: str
    streams: int


@dataclass(frozen=True)
class Workload:
    """One workload; ``BENCHMARK.json`` records why each was chosen."""

    name: str
    #: pool name -> (circuit, streams in the pool, waves per stream)
    pools: dict[str, tuple[str, int, int]]
    #: build the FO3+BUF netlists (``True``) or FO3 only (``False``)
    balance: bool
    #: latency limit of ``slo_share``, in milliseconds
    slo_ms: float
    #: per-call shapes cycled by the engine loop (engine workloads)
    cycle: tuple[Call, ...] = ()


ENGINE = Workload(
    name="engine",
    pools={
        "ctrl": ("ctrl", 192, 32),
        "i2c": ("i2c", 192, 32),
        "ctrl-long": ("ctrl", 2, 4096),
    },
    balance=True,
    slo_ms=60.0,
    cycle=(Call("ctrl", 96), Call("i2c", 96), Call("ctrl-long", 1)),
)

UNBALANCED = Workload(
    name="unbalanced",
    pools={"ctrl": ("ctrl", 48, 32), "i2c": ("i2c", 8, 8)},
    balance=False,
    slo_ms=1000.0,
    # one in five calls is the many-stream one: the p50 falls inside
    # the few-stream ctrl calls and the p90 inside the many-stream ones
    cycle=(
        Call("i2c", 1), Call("ctrl", 2), Call("ctrl", 2), Call("ctrl", 2),
        Call("ctrl", 12),
    ),
)

#: ``served``: requests in flight per closed-loop window, requests per
#: loadgen round, sessions, and session feeds in flight per session.
SERVED_WINDOW = 8
SERVED_ROUND = 64
SESSIONS = 2
SESSION_WINDOW = 2

#: Feeds per second into each session: a fixed pace, so the sessions
#: age by the same number of feeds in every run.
SESSION_FEED_RATE = 50.0

#: Pools fed through sessions; their reports are checked on waves only.
SESSION_POOLS = ("feed",)

SERVED = Workload(
    name="served",
    pools={
        "ctrl": ("ctrl", 64, 32),
        "i2c": ("i2c", 64, 32),
        "feed": ("ctrl", 32, 64),
    },
    balance=True,
    slo_ms=60.0,
)

#: ``wire``: offered Poisson rate (requests/s) and the length of one
#: open-loop segment (seconds).  On a shared 2-core host the open loop
#: kept up with 900 requests/s, but from about 300 requests/s the p90
#: of one 2.5 s segment varied 2-5x between segments of the same run;
#: 150 requests/s keeps queueing small enough that the tail repeats.
WIRE_RATE_RPS = 150.0
WIRE_SEGMENT_S = 2.5

WIRE = Workload(
    name="wire",
    pools={"ctrl": ("ctrl", 64, 32), "i2c": ("i2c", 64, 32)},
    balance=True,
    slo_ms=50.0,
)

WORKLOADS = {w.name: w for w in (ENGINE, UNBALANCED, SERVED, WIRE)}


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
def make_pools(
    workload: Workload, widths: dict[str, int], seed: int
) -> dict[str, list[np.ndarray]]:
    """Seeded input pools: ``pools[name][i]`` is a (waves, inputs) array."""
    pools = {}
    for tag, (name, (circuit, count, waves)) in enumerate(
        sorted(workload.pools.items())
    ):
        rng = np.random.default_rng([seed, tag])
        pools[name] = [
            rng.random((waves, widths[circuit])) < 0.5 for _ in range(count)
        ]
    return pools


def pick(
    seed: int, index: int, pool_size: int, count: int, replace: bool = False
) -> list[int]:
    """Pool entries used by call or request group *index* (seeded)."""
    rng = np.random.default_rng([seed, 1_000_003, index])
    chosen = rng.choice(pool_size, size=count, replace=replace)
    return [int(i) for i in chosen]


# ----------------------------------------------------------------------
# rig: everything set-up builds, owned for teardown
# ----------------------------------------------------------------------
@dataclass
class Rig:
    netlists: dict[str, WaveNetlist]
    server: Optional[SimulationServer] = None
    net: Optional[SocketServer] = None
    client: Optional[SimulationClient] = None
    sessions: list = field(default_factory=list)

    def widths(self) -> dict[str, int]:
        return {name: net.n_inputs for name, net in self.netlists.items()}

    def worker_pids(self) -> list[int]:
        if self.server is None:
            return []
        workers = self.server.health()["workers"]
        return [int(worker["pid"]) for worker in workers]

    def close(self) -> None:
        """Stop every session, connection, thread and worker process."""
        for session in self.sessions:
            session.close(timeout=REQUEST_TIMEOUT_S)
        self.sessions = []
        if self.client is not None:
            self.client.close()
        if self.net is not None:
            self.net.close(drain=True)
        if self.server is not None:
            self.server.close(timeout=REQUEST_TIMEOUT_S)


def build_netlists(balance: bool) -> dict[str, WaveNetlist]:
    """The paper's flow on each circuit: FO3, then buffers if *balance*."""
    return {
        name: flow.wave_pipeline(
            get_benchmark(name).build(), balance=balance
        ).netlist
        for name in CIRCUITS
    }


def _zeros(netlist: WaveNetlist, waves: int) -> np.ndarray:
    return np.zeros((waves, netlist.n_inputs), dtype=bool)


def setup(workload: Workload) -> Rig:
    """Flow, compile, serving tier start and warm-up for *workload*."""
    rig = Rig(build_netlists(workload.balance))
    try:
        if workload.cycle:
            for name, (circuit, _, waves) in workload.pools.items():
                netlist = rig.netlists[circuit]
                batch.simulate_streams_packed(
                    netlist, [_zeros(netlist, waves)]
                )
            return rig
        process = workload is WIRE
        rig.server = SimulationServer(
            shards=2,
            process_shards=2 if process else 0,
            warm_netlists=list(rig.netlists.values()),
        )
        target: loadgen.SubmitTarget = rig.server
        if process:
            rig.net = SocketServer(rig.server).start()
            rig.client = SimulationClient(*rig.net.address)
            target = rig.client
        for netlist in rig.netlists.values():
            for future in target.submit_many(
                netlist, [_zeros(netlist, 32)] * 2
            ):
                future.result(REQUEST_TIMEOUT_S)
        if workload is SERVED:
            feed_net = rig.netlists[workload.pools["feed"][0]]
            for _ in range(SESSIONS):
                session = rig.server.open_stream(feed_net)
                rig.sessions.append(session)
                session.feed(_zeros(feed_net, 64)).result(REQUEST_TIMEOUT_S)
        return rig
    except BaseException:
        rig.close()
        raise


# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------
def digest(report: WaveSimulationReport, waves_only: bool = False) -> bytes:
    """A 16-byte fingerprint of *report*: equal reports, equal digests.

    ``waves_only`` leaves out the step counts, which are absolute within
    a session and so differ from a solo run's; session feeds are
    compared on outputs and interference alone.
    """
    parts: tuple = (
        report.outputs,
        [(e.step, e.component, e.wave_ids) for e in report.interference],
    )
    if not waves_only:
        parts += (
            report.latency_steps,
            report.steps_run,
            report.waves_injected,
            report.waves_retired,
        )
    return hashlib.blake2b(repr(parts).encode(), digest_size=16).digest()


class Checker:
    """Keeps the digest of the first report seen per input; every later
    report of that input must have the same digest.

    Only digests are kept, never reports: holding hundreds of thousands
    of report objects would make the program's own garbage collections
    slower and inflate ``peak_rss_mb``.
    """

    def __init__(self) -> None:
        self.first: dict[tuple[str, int], bytes] = {}
        self.checked = 0
        self.mismatches = 0
        self._lock = threading.Lock()

    def see(self, key: tuple[str, int], report: WaveSimulationReport) -> None:
        seen = digest(report, waves_only=key[0] in SESSION_POOLS)
        with self._lock:
            self.checked += 1
            if self.first.setdefault(key, seen) != seen:
                self.mismatches += 1


def check(
    workload: Workload,
    rig: Rig,
    pools: dict[str, list[np.ndarray]],
    checker: Checker,
    seed: int,
) -> dict[str, int]:
    """Solo packed run of every input seen; scalar oracle on a sample."""

    def matches(key: tuple[str, int], report: WaveSimulationReport) -> bool:
        return digest(report, key[0] in SESSION_POOLS) == checker.first[key]

    solo_mismatches = 0
    for name, index in sorted(checker.first):
        netlist = rig.netlists[workload.pools[name][0]]
        (solo,) = batch.simulate_streams_packed(netlist, [pools[name][index]])
        solo_mismatches += not matches((name, index), solo)
    # the oracle is slow (pure Python): sample short streams only
    short = sorted(
        key for key in checker.first if len(pools[key[0]][key[1]]) <= 64
    )
    rng = np.random.default_rng([seed, 7])
    picked = rng.choice(
        len(short), size=min(ORACLE_SAMPLE, len(short)), replace=False
    )
    oracle_mismatches = 0
    for position in sorted(int(i) for i in picked):
        name, index = short[position]
        netlist = rig.netlists[workload.pools[name][0]]
        oracle = simulate_waves(
            netlist, pools[name][index].tolist(), engine="python"
        )
        oracle_mismatches += not matches((name, index), oracle)
    return {
        "checked": checker.checked,
        "timed_mismatches": checker.mismatches,
        "solo_checked": len(checker.first),
        "solo_mismatches": solo_mismatches,
        "oracle_checked": len(picked),
        "oracle_mismatches": oracle_mismatches,
    }


# ----------------------------------------------------------------------
# timed windows
# ----------------------------------------------------------------------
@dataclass
class Window:
    """Raw measurements of one timed window."""

    busy_s: float = 0.0  # time the generator spent driving the load
    waves: int = 0  # waves completed within busy_s
    feed_waves: int = 0  # session-feed waves (``served``)
    wall_s: float = 0.0  # the whole window, over which feeds run
    latencies_s: list[float] = field(default_factory=list)
    #: ``latencies_s`` per open-loop segment (``wire``)
    segments: list[list[float]] = field(default_factory=list)
    feed_latencies_s: list[float] = field(default_factory=list)
    attempted: int = 0  # calls, requests and feeds
    failed: int = 0
    requests: int = 0  # attempted operations that carry latencies_s
    slo_met: int = 0
    inject_lag_s: float = 0.0
    ledger_balanced: bool = True
    next_index: int = 0  # first call/round index of the next window

    @property
    def waves_per_s(self) -> float:
        """Waves per second of driven time, plus the session feeds' rate.

        ``busy_s`` excludes the generator's own digesting between load
        rounds, during which the program has nothing to do.  Session
        feeds are paced by the clock, so their rate is over the window.
        """
        rate = self.waves / self.busy_s if self.busy_s else 0.0
        if self.wall_s:
            rate += self.feed_waves / self.wall_s
        return rate

    def latency_ms(self, quantile: float) -> float:
        """Latency percentile; on ``wire`` the median over segments.

        A burst of host noise lasting less than half the window moves a
        minority of the segments, so their median holds; the pooled
        percentile would take the burst's tail into its own.
        """
        if self.segments:
            return statistics.median(
                percentile_ms(segment, quantile) for segment in self.segments
            )
        return percentile_ms(self.latencies_s, quantile)


def window(
    workload: Workload,
    rig: Rig,
    pools: dict[str, list[np.ndarray]],
    checker: Checker,
    seed: int,
    seconds: float,
    start: int = 0,
    tracer: Optional[LayerTracer] = None,
) -> Window:
    if workload.cycle:
        result = _engine_window(
            workload, rig, pools, checker, seed, seconds, start, tracer
        )
    elif workload is SERVED:
        result = _served_window(
            rig, pools, checker, seed, seconds, start, tracer
        )
    else:
        result = _wire_window(
            rig, pools, checker, seed, seconds, start, tracer
        )
    limit_s = workload.slo_ms / 1e3
    result.slo_met = sum(1 for t in result.latencies_s if t <= limit_s)
    return result


def _engine_window(
    workload: Workload,
    rig: Rig,
    pools: dict[str, list[np.ndarray]],
    checker: Checker,
    seed: int,
    seconds: float,
    start: int,
    tracer: Optional[LayerTracer],
) -> Window:
    result = Window()
    stop_at = time.perf_counter() + seconds
    index = start
    while time.perf_counter() < stop_at:
        call = workload.cycle[index % len(workload.cycle)]
        netlist = rig.netlists[workload.pools[call.pool][0]]
        pool = pools[call.pool]
        keys = pick(seed, index, len(pool), call.streams)
        streams = [pool[key] for key in keys]
        index += 1
        result.attempted += 1
        t0 = time.perf_counter()
        try:
            if tracer is None:
                reports = batch.simulate_streams_packed(netlist, streams)
            else:
                reports = tracer.recorder.call(
                    "bench.call", batch.simulate_streams_packed,
                    (netlist, streams),
                )
        except ReproError:
            result.failed += 1
            continue
        elapsed = time.perf_counter() - t0
        result.busy_s += elapsed
        result.latencies_s.append(elapsed)
        result.waves += sum(len(stream) for stream in streams)
        for key, report in zip(keys, reports):
            checker.see((call.pool, key), report)
        del reports
    result.requests = result.attempted
    result.next_index = index
    return result


def _register(
    tracer: Optional[LayerTracer], payloads: Sequence[np.ndarray], first: int
) -> None:
    if tracer is not None:
        for offset, payload in enumerate(payloads):
            tracer.request_ids[id(payload)] = first + offset


def _unregister(
    tracer: Optional[LayerTracer], payloads: Sequence[np.ndarray]
) -> None:
    if tracer is not None:
        for payload in payloads:
            tracer.request_ids.pop(id(payload), None)


def _request_batch(
    pools: dict[str, list[np.ndarray]],
    rig: Rig,
    seed: int,
    index: int,
    count: int,
) -> tuple[list[tuple[str, int]], list[np.ndarray], list[WaveNetlist]]:
    """Request group *index*: :data:`REQUEST_MIX` order, seeded picks.

    Every payload is a fresh view of its pool array, so each request
    is its own object (the traced run keys request ids on it).
    """
    picks = {
        name: iter(
            pick(seed, index * 2 + tag, len(pools[name]), count, replace=True)
        )
        for tag, name in enumerate(CIRCUITS)
    }
    keys = [
        (name, next(picks[name]))
        for name in (REQUEST_MIX[i % len(REQUEST_MIX)] for i in range(count))
    ]
    payloads = [pools[name][key].view() for name, key in keys]
    models = [rig.netlists[name] for name, _ in keys]
    return keys, payloads, models


def _served_window(
    rig: Rig,
    pools: dict[str, list[np.ndarray]],
    checker: Checker,
    seed: int,
    seconds: float,
    start: int,
    tracer: Optional[LayerTracer],
) -> Window:
    server = rig.server
    assert server is not None
    result = Window()
    feeds = Window()
    gate = threading.Event()
    errors: list[BaseException] = []
    stop_at = 0.0

    def closed_loop() -> None:
        rounds = start
        try:
            gate.wait()
            while time.perf_counter() < stop_at:
                keys, payloads, models = _request_batch(
                    pools, rig, seed, rounds, SERVED_ROUND
                )
                _register(tracer, payloads, rounds * SERVED_ROUND + 1)
                report = loadgen.run_closed_loop(
                    server, None, payloads, netlists=models,
                    concurrency=SERVED_WINDOW, clients=1,
                    request_timeout_s=REQUEST_TIMEOUT_S,
                )
                _unregister(tracer, payloads)
                rounds += 1
                result.attempted += report.n_requests
                result.failed += report.n_requests - report.n_completed
                result.waves += report.total_waves
                result.busy_s += report.elapsed_s
                result.latencies_s.extend(report.latencies_s)
                for key, done in zip(keys, report.reports):
                    if done is not None:
                        checker.see(key, done)
                del report
            result.next_index = rounds
        except BaseException as error:  # surfaced after the join
            errors.append(error)

    def sessions() -> None:
        block_pool = pools["feed"]
        in_flight: list["deque[tuple[int, Future, list]]"] = [
            deque() for _ in rig.sessions
        ]
        n_feeds = 0

        def settle(key: int, future: Future, stamp: list) -> None:
            try:
                report = future.result(REQUEST_TIMEOUT_S)
            except ReproError:
                feeds.failed += 1
                return
            feeds.waves += report.waves_injected
            feeds.feed_latencies_s.append(stamp[1] - stamp[0])
            checker.see(("feed", key), report)

        try:
            gate.wait()
            began = time.perf_counter()
            interval_s = 1.0 / (SESSION_FEED_RATE * len(rig.sessions))
            while (due := began + n_feeds * interval_s) < stop_at:
                pause_s = due - time.perf_counter()
                if pause_s > 0:
                    time.sleep(pause_s)
                slot = n_feeds % len(rig.sessions)
                queue = in_flight[slot]
                if len(queue) >= SESSION_WINDOW:
                    settle(*queue.popleft())
                (key,) = pick(
                    seed, 2_000_000 + start + n_feeds, len(block_pool), 1
                )
                n_feeds += 1
                stamp = [time.perf_counter(), 0.0]
                future = rig.sessions[slot].feed(block_pool[key].view())
                future.add_done_callback(
                    lambda _, stamp=stamp: stamp.__setitem__(
                        1, time.perf_counter()
                    )
                )
                feeds.attempted += 1
                queue.append((key, future, stamp))
            for queue in in_flight:
                while queue:
                    settle(*queue.popleft())
        except BaseException as error:  # surfaced after the join
            errors.append(error)

    threads = [
        threading.Thread(target=closed_loop, name="bench-closed-loop"),
        threading.Thread(target=sessions, name="bench-sessions"),
    ]
    for thread in threads:
        thread.start()
    began = time.perf_counter()
    stop_at = began + seconds
    gate.set()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    result.wall_s = time.perf_counter() - began
    result.requests = result.attempted
    result.feed_waves = feeds.waves
    result.attempted += feeds.attempted
    result.failed += feeds.failed
    result.feed_latencies_s = feeds.feed_latencies_s
    return result


def _wire_window(
    rig: Rig,
    pools: dict[str, list[np.ndarray]],
    checker: Checker,
    seed: int,
    seconds: float,
    start: int,
    tracer: Optional[LayerTracer],
) -> Window:
    client = rig.client
    assert client is not None
    result = Window()
    per_segment = max(1, round(WIRE_RATE_RPS * WIRE_SEGMENT_S))
    segment = start
    stop_at = time.perf_counter() + seconds
    while time.perf_counter() < stop_at:
        keys, payloads, models = _request_batch(
            pools, rig, seed, segment, per_segment
        )
        _register(tracer, payloads, segment * per_segment + 1)
        scenario = OpenLoopScenario(
            rate_rps=WIRE_RATE_RPS,
            n_requests=per_segment,
            arrival="poisson",
            seed=seed * 1_000_003 + segment,
        )
        report = loadgen.run_open_loop(
            client, None, scenario, netlists=models, payloads=payloads,
            request_timeout_s=REQUEST_TIMEOUT_S,
        )
        _unregister(tracer, payloads)
        segment += 1
        ledger = report.ledger()
        result.ledger_balanced &= report.ledger_balanced
        result.attempted += ledger["offered"]
        result.failed += ledger["offered"] - ledger["completed"]
        result.waves += report.total_waves
        result.busy_s += report.elapsed_s
        result.latencies_s.extend(report.completed_latencies_s)
        if report.completed_latencies_s:
            # a segment with no completions has no latency to add; its
            # failures count in completed_share and slo_share
            result.segments.append(list(report.completed_latencies_s))
        result.inject_lag_s = max(result.inject_lag_s, report.max_inject_lag_s)
        for key, done in zip(keys, report.reports):
            if done is not None:
                checker.see(key, done)
        del report
    result.requests = result.attempted
    result.next_index = segment
    return result


def retained_bytes_per_feed(
    rig: Rig, pools: dict[str, list[np.ndarray]]
) -> float:
    """Bytes an aged session keeps per extra feed (tracemalloc).

    Feeds :data:`RETAINED_FEEDS` blocks one at a time into the first
    session and counts the memory allocated meanwhile that is still
    alive after a collection.  Tracing allocations slows everything down, so this
    runs after the timed windows, in the traced run only.
    """
    session = rig.sessions[0]
    blocks = pools["feed"]
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for index in range(RETAINED_FEEDS):
            session.feed(blocks[index % len(blocks)].view()).result(
                REQUEST_TIMEOUT_S
            )
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return (after - before) / RETAINED_FEEDS


def percentile_ms(values: Sequence[float], quantile: float) -> float:
    """Nearest-rank percentile of seconds, in milliseconds."""
    return loadgen.nearest_rank(values, quantile) * 1e3


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0
