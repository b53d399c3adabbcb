"""Tests of the benchmark's own code: spans, accounting, names, inputs.

Run with ``PYTHONPATH=src python -m pytest perfbench -q`` from the
repository root.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import threading
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest

import layers
import measures
import workloads
from repro.core.wavepipe.simulator import WaveSimulationReport
from repro.errors import DeadlineExceeded, ServerQueueFull
from spans import Recorder, Span, covered_ns, layer_totals, self_times

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9_.-]+")


# ----------------------------------------------------------------------
# self-time arithmetic
# ----------------------------------------------------------------------
def test_covered_merges_overlaps_and_clips():
    intervals = [(10, 30), (20, 50), (90, 120), (200, 300)]
    assert covered_ns(intervals, 0, 100) == 40 + 10
    assert covered_ns([], 0, 100) == 0
    assert covered_ns([(0, 100)], 0, 100) == 100


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span(1, None, "root", 0, 100),
        Span(2, 1, "child", 10, 40),
        Span(3, 2, "grandchild", 15, 35),
        Span(4, 1, "child", 60, 70),
    ]
    selfs = self_times(spans)
    assert selfs == {1: 100 - 30 - 10, 2: 30 - 20, 3: 20, 4: 10}
    # self times of one tree add up to the root's duration
    assert sum(selfs.values()) == 100


def test_layer_totals_shares_are_of_the_roots():
    spans = [
        Span(1, None, "call", 0, 100),
        Span(2, 1, "batch", 0, 90),
        Span(3, 2, "kernel", 10, 30),
        Span(4, None, "call", 200, 300),
        Span(5, 4, "batch", 200, 300),
        Span(6, 5, "kernel", 250, 300),
    ]
    totals = layer_totals(spans)
    assert totals["kernel"].calls == 2
    assert totals["kernel"].self_ns == 70
    assert totals["kernel"].share == pytest.approx(70 / 200)
    assert totals["batch"].self_ns == 70 + 50
    assert totals["call"].self_ns == 10
    shares = sum(totals[name].share for name in ("call", "batch", "kernel"))
    assert shares == pytest.approx(1.0)


def test_recorder_nests_per_thread():
    recorder = Recorder()

    def inner() -> int:
        return recorder.call("inner", lambda: 7)

    assert recorder.call("outer", inner) == 7
    worker = threading.Thread(target=lambda: recorder.call("other", lambda: 0))
    worker.start()
    worker.join(5)
    assert not worker.is_alive()
    by_name = {span.name: span for span in recorder.spans}
    assert by_name["inner"].parent_id == by_name["outer"].span_id
    assert by_name["outer"].parent_id is None
    assert by_name["other"].parent_id is None


def test_request_stages_split_the_path():
    spans = [
        Span(1, None, "server.submit_many", 0, 10, (5, 6)),
        Span(2, None, layers.SIMULATE, 30, 80, (5, 6)),
    ]
    resolved = {5: 90, 6: 95}
    stages = layers.request_stages(spans, resolved, layers.SIMULATE)
    assert [s.end_to_end for s in stages] == [90, 95]
    first = stages[0]
    assert (first.submit, first.queue_wait, first.batch, first.resolve) == (
        5, 20, 50, 10,
    )
    assert first.unattributed == 90 - 5 - 50


# ----------------------------------------------------------------------
# names
# ----------------------------------------------------------------------
def test_every_name_is_well_formed_and_unique():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    for name in names:
        assert NAME.fullmatch(name), name
        assert len(name) <= 64
    assert len(names) == len(set(names))
    # every gated workload exists; `wire` runs by hand only
    gated = {w["name"] for w in SPEC["workloads"]}
    assert gated | {"wire"} == set(workloads.WORKLOADS)


def _window(**fields) -> workloads.Window:
    window = workloads.Window(
        busy_s=1.0, waves=64, latencies_s=[0.001, 0.002],
        attempted=2, failed=0, requests=2, slo_met=2,
    )
    for key, value in fields.items():
        setattr(window, key, value)
    return window


def test_waves_per_s_leaves_out_digesting_but_keeps_paced_feeds():
    # 64 waves in 1 s of driven time; 30 feed waves over a 3 s window
    window = _window(feed_waves=30, wall_s=3.0)
    assert window.waves_per_s == pytest.approx(64 + 10)
    assert _window().waves_per_s == 64


def test_segmented_latency_is_the_median_of_segment_percentiles():
    steady = [0.001 * (i + 1) for i in range(10)]  # p90 = 9 ms
    burst = [0.1] * 10
    window = _window(segments=[steady, burst, steady])
    window.latencies_s = steady + burst + steady
    assert window.latency_ms(0.90) == pytest.approx(9.0)
    assert window.latency_ms(0.50) == pytest.approx(5.0)
    # unsegmented windows pool their samples
    assert _window().latency_ms(0.50) == pytest.approx(1.0)


def test_the_code_emits_exactly_the_declared_metrics():
    run = measures.Run(workloads.ENGINE, [0.5, 0.4, 0.6])
    run.untraced = _window()
    run.traced = _window()
    end_to_end = run.end_to_end()
    assert sorted(end_to_end) == sorted(m["name"] for m in SPEC["end_to_end"])
    tracer = layers.LayerTracer(Recorder())
    per_layer = run.per_layer(tracer)
    assert sorted(per_layer) == sorted(m["name"] for m in SPEC["per_layer"])
    assert end_to_end["setup_s"] == 0.5


# ----------------------------------------------------------------------
# failure accounting
# ----------------------------------------------------------------------
def test_failed_share_and_correctness():
    assert measures.failed_share(10, 2) == 0.2
    assert measures.failed_share(0, 0) == 0.0
    run = measures.Run(workloads.WIRE, [1.0])
    run.untraced = _window(attempted=10, failed=2)
    run.checks = {"checked": 8, "solo_mismatches": 0, "oracle_mismatches": 0}
    assert run.end_to_end()["completed_share"] == pytest.approx(0.8)
    assert run.correct
    run.untraced.ledger_balanced = False
    assert not run.correct
    run.untraced.ledger_balanced = True
    run.checks["timed_mismatches"] = 1
    assert not run.correct


class _FlakyTarget:
    """Refuses every 5th admission and expires every 7th request."""

    def __init__(self) -> None:
        self.calls = 0

    def submit_many(self, netlist, streams, **_):
        self.calls += 1
        if self.calls % 5 == 0:
            raise ServerQueueFull("full")
        futures = []
        for stream in streams:
            future: Future = Future()
            if self.calls % 7 == 0:
                future.set_exception(DeadlineExceeded("late"))
            else:
                future.set_result(
                    WaveSimulationReport(
                        outputs=[[bool(stream.any())]], latency_steps=1,
                        steps_run=len(stream), waves_injected=len(stream),
                        waves_retired=len(stream),
                    )
                )
            futures.append(future)
        return futures


def test_open_loop_failures_feed_failed_share(monkeypatch):
    monkeypatch.setattr(workloads, "WIRE_RATE_RPS", 4000.0)
    monkeypatch.setattr(workloads, "WIRE_SEGMENT_S", 0.025)
    target = _FlakyTarget()
    rig = workloads.Rig(
        netlists={"ctrl": object(), "i2c": object()}, client=target
    )
    pools = {
        "ctrl": [np.ones((2, 3), dtype=bool)] * 4,
        "i2c": [np.zeros((2, 5), dtype=bool)] * 4,
    }
    window = workloads.window(
        workloads.WIRE, rig, pools, workloads.Checker(), 3, 0.001
    )
    rejected = 100 // 5
    expired = len([c for c in range(1, 101) if c % 7 == 0 and c % 5])
    assert window.attempted == 100
    assert window.failed == rejected + expired
    assert window.ledger_balanced
    assert len(window.latencies_s) == 100 - rejected - expired


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
def test_same_seed_same_inputs():
    widths = {"ctrl": 7, "i2c": 147}
    for workload in workloads.WORKLOADS.values():
        first = workloads.make_pools(workload, widths, 5)
        again = workloads.make_pools(workload, widths, 5)
        other = workloads.make_pools(workload, widths, 6)
        assert sorted(first) == sorted(workload.pools)
        for name, pool in first.items():
            circuit, count, waves = workload.pools[name]
            assert len(pool) == count
            assert pool[0].shape == (waves, widths[circuit])
            assert all(np.array_equal(a, b) for a, b in zip(pool, again[name]))
            assert not all(
                np.array_equal(a, b) for a, b in zip(pool, other[name])
            )
    assert workloads.pick(5, 3, 192, 96) == workloads.pick(5, 3, 192, 96)
    assert workloads.pick(5, 3, 192, 96) != workloads.pick(5, 4, 192, 96)
    rig = workloads.Rig(netlists={"ctrl": object(), "i2c": object()})
    pools = workloads.make_pools(workloads.WIRE, widths, 5)
    keys, _, _ = workloads._request_batch(pools, rig, 5, 2, 40)
    again_keys, _, _ = workloads._request_batch(pools, rig, 5, 2, 40)
    assert keys == again_keys
    assert [name for name, _ in keys[:4]] == ["ctrl", "ctrl", "i2c", "ctrl"]


def test_run_refuses_without_the_program(tmp_path):
    shutil.copytree(
        HERE, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "engine",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
