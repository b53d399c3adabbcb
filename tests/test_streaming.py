"""Differential resume suite for streaming sessions (ISSUE 10).

The tentpole property, stated once and swept everywhere: for **any**
wave-ready netlist, **any** feed schedule (chunk sizes, zeros included),
and **any** kernel configuration, N chunked ``feed()`` calls through a
:class:`~repro.core.wavepipe.batch.PackedSession` produce reports
**bit-identical** to the matching slices of one solo
:func:`~repro.core.wavepipe.simulate_waves_packed` run over the
concatenated waves.  The sweep covers {tracked, elided} x {1-word,
3-word} states, pump/flush interleavings, and the same
property lifted through :meth:`SimulationServer.open_stream` (thread
and process shards) and :meth:`SimulationClient.open_stream` (over the
socket).

Satellites pinned here as well: sessions refuse unbalanced netlists at
open time (streaming bit-identity is causally impossible without path
balance), and the batcher's adaptive wave cap is derived from the lane
planner's word budget.
"""

import threading
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.wavepipe import (
    LANES_PER_WORD,
    MAX_PLANNED_WORDS,
    WaveNetlist,
    open_packed_session,
    random_vectors,
    simulate_waves,
    simulate_waves_packed,
    wave_pipeline,
)
from repro.core.wavepipe.simulator import WaveSimulationReport, _empty_report
from repro.errors import SessionClosed, SimulationError
from repro.serve import (
    ADAPTIVE_WAVES_PER_LANE,
    DEFAULT_MAX_BATCH_WAVES,
    SimulationClient,
    SimulationServer,
    SocketServer,
    adaptive_max_batch_waves,
)

from helpers import ON_STEP_LOOP, build_adder_mig, build_random_mig
from strategies import session_schedules, wave_ready_netlists

#: Deadlock guard for every blocking wait in this module.
TIMEOUT_S = 120.0

#: The kernel matrix one schedule is swept across: tracking x lane
#: width (lanes=16 pins a 1-word state, lanes=160 a 3-word one, None
#: lets the session grow its own width).
KERNEL_MATRIX = [
    (track, lanes)
    for track in (None, True)
    for lanes in (None, 16, 160)
]


@lru_cache(maxsize=None)
def _balanced():
    return wave_pipeline(build_adder_mig(3), fanout_limit=3).netlist


@lru_cache(maxsize=None)
def _unbalanced():
    return WaveNetlist.from_mig(build_random_mig(seed=11, n_gates=40))


def _expected_reports(netlist, schedule, seed=0):
    """Per-feed oracle reports, sliced out of one solo packed run."""
    total = sum(schedule)
    waves = random_vectors(netlist.n_inputs, total, seed=seed)
    solo = simulate_waves_packed(netlist, waves)
    depth = solo.latency_steps
    # the session separation is pinned by (depth, n_phases, pipelined);
    # recover it from the solo run's step count instead of re-deriving
    expected = []
    start = 0
    for count in schedule:
        if count == 0:
            expected.append(_empty_report(depth))
        else:
            expected.append(
                WaveSimulationReport(
                    outputs=solo.outputs[start:start + count],
                    latency_steps=depth,
                    steps_run=None,  # filled by _check_report below
                    waves_injected=count,
                    waves_retired=count,
                    interference=[],
                )
            )
        start += count
    return waves, solo, expected


def _check_reports(session_sep, schedule, reports, expected):
    """Assert chunked *reports* match their solo-run counterparts."""
    start = 0
    for count, got, want in zip(schedule, reports, expected):
        if count == 0:
            assert got == want
        else:
            want.steps_run = (start + count - 1) * session_sep + (
                want.latency_steps + 1
            )
            assert got == want, f"feed at wave {start} diverged"
        start += count


class TestPackedSessionDifferential:
    """The engine-level property, swept across the kernel matrix."""

    @pytest.mark.parametrize("track,lanes", KERNEL_MATRIX)
    @ON_STEP_LOOP
    def test_chunked_feeds_match_solo_slices(self, track, lanes, step_loop):
        netlist = _balanced()
        schedule = [10, 0, 3, 27, 1, 24]
        waves, solo, expected = _expected_reports(netlist, schedule, seed=3)
        with open_packed_session(
            netlist, track=track, lanes=lanes
        ) as session:
            start = 0
            handles = []
            for count in schedule:
                handles.append(session.feed(waves[start:start + count]))
                start += count
            reports = [handle.report for handle in handles]
        _check_reports(session.separation, schedule, reports, expected)
        # tracked sessions prove the elision: identical outputs, zero
        # interference events on a balanced netlist
        assert all(report.coherent for report in reports)
        assert step_loop

    @settings(max_examples=25, deadline=None)
    @given(
        netlist=wave_ready_netlists(max_gates=25),
        schedule=session_schedules(),
        seed=st.integers(0, 5),
        track=st.sampled_from([None, True]),
        lanes=st.sampled_from([None, 16, 160]),
        pump_mask=st.lists(st.booleans(), min_size=6, max_size=6),
    )
    def test_property_any_schedule_any_kernel(
        self, netlist, schedule, seed, track, lanes, pump_mask
    ):
        """N chunked feeds == solo slices, for any split-point vector.

        ``pump_mask`` interleaves explicit ``pump()`` calls between the
        feeds, so the property also covers mid-stream checkpoints: the
        state pauses after step k and continues with newly injected
        waves appended to the existing lanes.
        """
        waves, solo, expected = _expected_reports(
            netlist, schedule, seed=seed
        )
        with open_packed_session(
            netlist, track=track, lanes=lanes
        ) as session:
            start = 0
            handles = []
            for count, pump in zip(schedule, pump_mask):
                handles.append(session.feed(waves[start:start + count]))
                start += count
                if pump:
                    session.pump()
            reports = [handle.report for handle in handles]
        _check_reports(session.separation, schedule, reports, expected)
        assert [
            wave for report in reports for wave in report.outputs
        ] == solo.outputs

    def test_scalar_oracle_agrees(self):
        """Belt and braces: chunked reports equal the *scalar* oracle."""
        netlist = _balanced()
        schedule = [5, 7, 4]
        waves = random_vectors(netlist.n_inputs, sum(schedule), seed=9)
        oracle = simulate_waves(netlist, waves, engine="python")
        with open_packed_session(netlist) as session:
            start = 0
            outputs = []
            for count in schedule:
                handle = session.feed(waves[start:start + count])
                outputs.extend(handle.report.outputs)
                start += count
        assert outputs == oracle.outputs

    def test_widening_mid_stream_stays_identical(self):
        """A stream that outgrows its first word widens losslessly."""
        netlist = _balanced()
        schedule = [3, 200, 61]  # 3 waves fit 1 word; 200 forces 4
        waves, solo, expected = _expected_reports(netlist, schedule, seed=1)
        with open_packed_session(netlist) as session:
            start = 0
            handles = []
            for count in schedule:
                handles.append(session.feed(waves[start:start + count]))
                session.pump()  # advance between feeds: real widening
                start += count
            reports = [handle.report for handle in handles]
        _check_reports(session.separation, schedule, reports, expected)


class TestSessionLifecycle:
    """Open/close/discard semantics of the resumable engine."""

    def test_unbalanced_netlist_refused_at_open(self):
        with pytest.raises(SimulationError, match="wave-ready"):
            open_packed_session(_unbalanced())

    def test_track_false_demand_still_allowed_on_balanced(self):
        netlist = _balanced()
        waves = random_vectors(netlist.n_inputs, 8, seed=0)
        with open_packed_session(netlist, track=False) as session:
            report = session.feed(waves).report
        assert report.outputs == simulate_waves_packed(
            netlist, waves
        ).outputs

    def test_feed_after_close_raises(self):
        session = open_packed_session(_balanced())
        session.close()
        with pytest.raises(SessionClosed):
            session.feed([])
        with pytest.raises(SessionClosed):
            session.pump()
        session.close()  # idempotent

    def test_discard_drops_state_without_resolving(self):
        netlist = _balanced()
        session = open_packed_session(netlist)
        handle = session.feed(random_vectors(netlist.n_inputs, 4, seed=0))
        session.discard()
        assert not handle.done
        assert session.closed
        session.discard()  # idempotent

    def test_take_done_cursor_is_consumed_by_pump(self):
        netlist = _balanced()
        waves = random_vectors(netlist.n_inputs, 6, seed=2)
        with open_packed_session(netlist) as session:
            session.feed(waves)
            done = session.pump()  # pump returns the resolved handles
            done += session.flush() or session.take_done()
            assert [handle.index for handle in done] == [0]
            assert session.take_done() == []  # cursor advanced

    def test_describe_snapshot(self):
        netlist = _balanced()
        with open_packed_session(netlist) as session:
            session.feed(random_vectors(netlist.n_inputs, 5, seed=0))
            session.flush()
            snap = session.describe()
        assert snap["waves_fed"] == 5
        assert snap["waves_retired"] == 5
        assert snap["feeds"] == 1


class TestAdaptiveBatchWaves:
    """The wave cap is derived from the planner's word budget."""

    def test_derivation_pinned(self):
        # the contract, spelled out: word cap x lanes/word x waves/lane
        assert adaptive_max_batch_waves() == (
            MAX_PLANNED_WORDS * LANES_PER_WORD * ADAPTIVE_WAVES_PER_LANE
        )
        assert adaptive_max_batch_waves() == 8192
        assert adaptive_max_batch_waves(max_words=4, waves_per_lane=2) == (
            4 * LANES_PER_WORD * 2
        )

    def test_arguments_validate(self):
        with pytest.raises(ValueError):
            adaptive_max_batch_waves(max_words=0)
        with pytest.raises(ValueError):
            adaptive_max_batch_waves(waves_per_lane=0)

    def test_server_defaults_to_adaptive_cap(self):
        with SimulationServer(shards=1, start=False) as server:
            assert server._batcher.max_batch_waves == (
                adaptive_max_batch_waves()
            )
        with SimulationServer(
            shards=1, max_batch_waves=DEFAULT_MAX_BATCH_WAVES, start=False
        ) as server:
            assert server._batcher.max_batch_waves == (
                DEFAULT_MAX_BATCH_WAVES
            )


class TestServerStreamDifferential:
    """open_stream through the server: thread and process shards."""

    @pytest.mark.parametrize("process_shards", [0, 1])
    def test_chunked_feeds_match_solo(self, process_shards):
        netlist = _balanced()
        schedule = [10, 3, 0, 27]
        waves, solo, expected = _expected_reports(netlist, schedule, seed=3)
        with SimulationServer(
            shards=1, process_shards=process_shards
        ) as server:
            with server.open_stream(netlist) as stream:
                futures = []
                start = 0
                for count in schedule:
                    futures.append(
                        stream.feed(waves[start:start + count])
                    )
                    start += count
                reports = [future.result(TIMEOUT_S) for future in futures]
        with open_packed_session(netlist) as probe:
            sep = probe.separation
        _check_reports(sep, schedule, reports, expected)
        metrics = stream.metrics()
        assert metrics["feeds"] == len(schedule)
        assert metrics["resolved"] == len(schedule)
        assert metrics["replays"] == 0

    def test_sessions_surface_in_health(self):
        netlist = _balanced()
        with SimulationServer(shards=1) as server:
            with server.open_stream(netlist) as stream:
                stream.feed(
                    random_vectors(netlist.n_inputs, 4, seed=0)
                ).result(TIMEOUT_S)
                health = server.health()
                assert [
                    entry["session_id"] for entry in health["sessions"]
                ] == [stream.session_id]
            snapshot = server.metrics.snapshot()
        assert snapshot["sessions_opened"] == 1
        assert snapshot["sessions_closed"] == 1
        assert snapshot["session_feeds"] == 1
        assert snapshot["session_waves"] == 4
        # the request ledger is untouched by streaming traffic
        assert snapshot["submitted"] == 0

    def test_open_stream_refuses_unbalanced(self):
        with SimulationServer(shards=1) as server:
            with pytest.raises(SimulationError, match="wave-ready"):
                server.open_stream(_unbalanced())


class TestPoisonedSession:
    """A feed whose dispatch raises breaks the session at once for every
    feed still in flight, not only for itself and the ones behind it."""

    @pytest.mark.parametrize("process_shards", [0, 1])
    def test_in_flight_feeds_fail_with_the_session(
        self, monkeypatch, process_shards
    ):
        from repro.core.wavepipe.batch import PackedSession
        from repro.serve.shards import ProcessShardPool

        # thread mode dispatches into the engine, process mode through
        # the pool; either way the third dispatch raises
        owner, name = (
            (ProcessShardPool, "session_feed")
            if process_shards
            else (PackedSession, "feed")
        )
        real = getattr(owner, name)
        calls = []
        entered = threading.Event()
        release = threading.Event()

        def dispatch(self, *args, **kwargs):
            calls.append(None)
            if len(calls) == 1:
                entered.set()
                release.wait(TIMEOUT_S)  # let feeds 0-2 queue up behind
            if len(calls) == 3:
                raise RuntimeError("injected dispatch failure")
            return real(self, *args, **kwargs)

        monkeypatch.setattr(owner, name, dispatch)
        netlist = _balanced()
        block = random_vectors(netlist.n_inputs, 64, seed=0)
        with SimulationServer(
            shards=1, process_shards=process_shards
        ) as server:
            stream = server.open_stream(netlist)
            warm = stream.feed(block)
            assert entered.wait(TIMEOUT_S)
            # feed 0 is dequeued with a backlog, so it is only pumped:
            # its waves are in flight when feed 1's dispatch raises
            futures = [stream.feed(block) for _ in range(3)]
            release.set()
            warm.result(TIMEOUT_S)
            with pytest.raises(RuntimeError, match="injected"):
                futures[1].result(TIMEOUT_S)
            with pytest.raises(SessionClosed, match="is broken"):
                futures[2].result(TIMEOUT_S)
            # the stranded feed fails as soon as the session breaks,
            # not when it is closed
            with pytest.raises(SessionClosed, match="is broken") as info:
                futures[0].result(2.0)
            assert isinstance(info.value.__cause__, RuntimeError)
            stream.close()


class TestWireStreamDifferential:
    """The same property through the socket tier."""

    @settings(max_examples=5, deadline=None)
    @given(schedule=session_schedules(max_feeds=5), seed=st.integers(0, 3))
    def test_chunked_feeds_match_solo_over_the_wire(self, schedule, seed):
        netlist = _balanced()
        waves, solo, expected = _expected_reports(
            netlist, schedule, seed=seed
        )
        with SimulationServer(shards=1) as server:
            with SocketServer(server).start() as sock:
                host, port = sock.address
                with SimulationClient(host, port) as client:
                    with client.open_stream(netlist) as stream:
                        futures = []
                        start = 0
                        for count in schedule:
                            futures.append(
                                stream.feed(waves[start:start + count])
                            )
                            start += count
                        reports = [
                            future.result(TIMEOUT_S) for future in futures
                        ]
        outputs = [w for report in reports for w in report.outputs]
        assert outputs == solo.outputs
        for count, report in zip(schedule, reports):
            assert report.waves_retired == count
            assert report.coherent

    def test_open_failure_is_typed_over_the_wire(self):
        with SimulationServer(shards=1) as server:
            with SocketServer(server).start() as sock:
                host, port = sock.address
                with SimulationClient(host, port) as client:
                    with pytest.raises(SimulationError, match="wave-ready"):
                        client.open_stream(_unbalanced())

    def test_feed_after_client_close_raises_session_closed(self):
        netlist = _balanced()
        with SimulationServer(shards=1) as server:
            with SocketServer(server).start() as sock:
                host, port = sock.address
                with SimulationClient(host, port) as client:
                    stream = client.open_stream(netlist)
                    stream.close()
                    with pytest.raises(SessionClosed):
                        stream.feed(
                            random_vectors(netlist.n_inputs, 2, seed=0)
                        )
