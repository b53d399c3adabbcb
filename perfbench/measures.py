"""Turn one run's raw measurements into the named metrics.

:meth:`Run.end_to_end` gives the metrics of the untraced run and
:meth:`Run.per_layer` those of the traced run; ``perfbench/BENCHMARK.md``
defines each of them.  A per-layer metric whose layer does no work on
the workload reads 0.
"""

from __future__ import annotations

import json
import math
import statistics
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.core.wavepipe import batch, kernels
from repro.core.wavepipe.clocking import ClockingScheme
from repro.core.wavepipe.simulator import wave_separation

from layers import (
    CLIENT_SUBMIT,
    SIMULATE,
    SERVER_SUBMIT,
    SHARD_BATCH,
    LayerTracer,
    request_stages,
)
from spans import LayerTotals, Span, layer_totals
from workloads import WIRE, Window, Workload, median, percentile_ms

_NONE = LayerTotals(0, 0, 0, 0)


def failed_share(attempted: int, failed: int) -> float:
    """Failed, refused or timed-out operations over those attempted."""
    return failed / attempted if attempted else 0.0


def counter_delta(before: dict, after: dict) -> dict[str, int]:
    """Integer counters of *after* minus those of *before*."""
    return {
        key: after[key] - before.get(key, 0)
        for key, value in after.items()
        if isinstance(value, int) and not isinstance(value, bool)
    }


def plan_shape_summary(
    shapes: Sequence[tuple[int, tuple[int, ...]]], netlists: dict[int, object]
) -> dict[str, float]:
    """Mean lanes, words and steps per call, and lane utilization.

    Lane utilization is the waves a call keeps over the lane-slots it
    simulates: lanes times the injection slots its local step count
    spans (``ceil(steps / separation)``).
    """
    counts = Counter(shapes)
    calls = lanes = words = steps = kept = slots = 0
    for (netlist_id, waves), n in counts.items():
        netlist = netlists[netlist_id]
        plan = batch.plan_stream_batch(netlist, list(waves))
        compiled = kernels.compile_netlist(netlist, ClockingScheme())
        separation = wave_separation(compiled.depth, compiled.n_phases, True)
        calls += n
        lanes += n * plan["lanes"]
        words += n * plan["words"]
        steps += n * plan["steps"]
        kept += n * plan["total_waves"]
        slots += n * plan["lanes"] * math.ceil(plan["steps"] / separation)
    if not calls:
        return {"lanes": 0.0, "words": 0.0, "steps": 0.0, "utilization": 0.0}
    return {
        "lanes": lanes / calls,
        "words": words / calls,
        "steps": steps / calls,
        "utilization": kept / slots if slots else 0.0,
    }


@dataclass
class Run:
    """Everything one run measured, before it becomes metrics."""

    workload: Workload
    setup_times: list[float]
    #: script start to the end of the first set-up (imports included)
    cold_setup_s: float = 0.0
    untraced: Optional[Window] = None
    traced: Optional[Window] = None
    setup_spans: list[Span] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    server_metrics: dict = field(default_factory=dict)
    net_delta: dict = field(default_factory=dict)
    retained_bytes: float = 0.0
    checks: dict = field(default_factory=dict)

    # -- result line fields --------------------------------------------
    def _windows(self) -> list[Window]:
        return [w for w in (self.untraced, self.traced) if w is not None]

    @property
    def attempted(self) -> int:
        return sum(w.attempted for w in self._windows())

    @property
    def failed(self) -> int:
        return sum(w.failed for w in self._windows())

    @property
    def correct(self) -> bool:
        mismatches = sum(
            value
            for key, value in self.checks.items()
            if key.endswith("mismatches")
        )
        return (
            mismatches == 0
            and self.checks.get("checked", 0) > 0
            and all(w.ledger_balanced for w in self._windows())
        )

    def notes(self) -> list[str]:
        """Human-readable lines printed before the result line."""
        w = self.untraced
        assert w is not None
        lines = [
            f"workload {self.workload.name}: {self.attempted} operations, "
            f"{self.failed} failed; checks {json.dumps(self.checks)}",
            f"latency samples: {len(w.latencies_s)} "
            + (
                f"in {len(w.segments)} segments (p50, p90: median of the "
                f"segments' nearest-rank percentiles; p99 pooled)"
                if w.segments
                else "(p50, p90, p99 nearest rank)"
            )
            + "; feed samples: "
            f"{len(w.feed_latencies_s)}; set-ups: "
            + ", ".join(f"{t:.3f}s" for t in self.setup_times),
        ]
        return lines

    # -- end to end ----------------------------------------------------
    def end_to_end(self) -> dict[str, float]:
        w = self.untraced
        assert w is not None
        return {
            "setup_s": median(self.setup_times),
            "waves_per_s": w.waves_per_s,
            "latency_p50_ms": w.latency_ms(0.50),
            "latency_p90_ms": w.latency_ms(0.90),
            "slo_share": w.slo_met / w.requests if w.requests else 0.0,
            "completed_share": 1.0 - failed_share(w.attempted, w.failed),
            "peak_rss_mb": self.peak_rss_mb,
        }

    # -- per layer -----------------------------------------------------
    def per_layer(self, tracer: LayerTracer) -> dict[str, float]:
        first, second = self.untraced, self.traced
        assert first is not None and second is not None
        spans = tracer.recorder.spans
        totals = layer_totals(spans)
        setup = layer_totals(self.setup_spans)

        def t(name: str) -> LayerTotals:
            return totals.get(name, _NONE)

        compile_calls = t("kernels.compile_netlist").calls + setup.get(
            "kernels.compile_netlist", _NONE
        ).calls
        compile_ns = t("kernels.compile_netlist").total_ns + setup.get(
            "kernels.compile_netlist", _NONE
        ).total_ns
        flow_ns = setup.get("flow.wave_pipeline", _NONE).total_ns
        simulate = t(SIMULATE)
        shapes = plan_shape_summary(tracer.shapes, tracer.netlists)
        submits = [s for s in spans if s.name in SERVER_SUBMIT]
        submit_self = sum(t(name).self_ns for name in SERVER_SUBMIT)
        batch_name = SHARD_BATCH if self.workload is WIRE else SIMULATE
        stages = request_stages(spans, tracer.resolved_ns, batch_name)
        end_to_end_ns = sum(s.end_to_end for s in stages)
        bench_call = t("bench.call")
        rate_first, rate_second = first.waves_per_s, second.waves_per_s
        return {
            "setup.cold_s": self.cold_setup_s,
            "flow.wave_pipeline_s": flow_ns / 1e9 / len(self.setup_times),
            "kernels.compile_netlist.calls": compile_calls,
            "kernels.compile_netlist.s": compile_ns / 1e9,
            "kernels.run_plan.self_s": t("kernels.run_plan").mean_self_s,
            "kernels.run_plan.share": t("kernels.run_plan").share,
            "kernels.events": sum(tracer.events),
            "batch.simulate_streams_packed.self_s": simulate.mean_self_s,
            "batch.simulate_streams_packed.share": simulate.share,
            "batch.simulate_streams_packed.streams_per_call": (
                statistics.fmean(len(w) for _, w in tracer.shapes)
                if tracer.shapes
                else 0.0
            ),
            "batch.lanes": shapes["lanes"],
            "batch.words": shapes["words"],
            "batch.steps": shapes["steps"],
            "batch.lane_utilization": shapes["utilization"],
            "batch.unattributed_share": (
                bench_call.self_ns / bench_call.total_ns
                if bench_call.total_ns
                else 0.0
            ),
            "batch.session.feed_s": t("batch.session.feed").mean_s,
            "batch.session.pump_s": t("batch.session.pump").mean_s,
            "batch.session.flush_s": t("batch.session.flush").mean_s,
            "batch.session.retained_bytes": self.retained_bytes,
            "feed_p50_ms": percentile_ms(first.feed_latencies_s, 0.50),
            "feed_p90_ms": percentile_ms(first.feed_latencies_s, 0.90),
            "server.submit.self_s": (
                submit_self / len(submits) / 1e9 if submits else 0.0
            ),
            "server.queue_wait_ms.p50": percentile_ms(
                [s.queue_wait / 1e9 for s in stages], 0.50
            ),
            "server.queue_wait_ms.p90": percentile_ms(
                [s.queue_wait / 1e9 for s in stages], 0.90
            ),
            "server.resolve_ms": percentile_ms(
                [s.resolve / 1e9 for s in stages], 0.50
            ),
            "server.batch_requests": float(
                self.server_metrics.get("mean_batch_requests", 0.0)
            ),
            "server.plan_cache_hit_rate": float(
                self.server_metrics.get("plan_cache_hit_rate", 0.0)
            ),
            "server.unattributed_share": (
                sum(s.unattributed for s in stages) / end_to_end_ns
                if end_to_end_ns
                else 0.0
            ),
            "shards.simulate.calls": t(SHARD_BATCH).calls,
            "shards.simulate.s": t(SHARD_BATCH).mean_s,
            "shards.worker_restarts": float(
                self.server_metrics.get("worker_restarts", 0)
            ),
            "net.bytes_in_per_request": (
                self.net_delta["bytes_in"] / second.attempted
                if self.net_delta and second.attempted
                else 0.0
            ),
            "net.bytes_out_per_request": (
                self.net_delta["bytes_out"] / second.attempted
                if self.net_delta and second.attempted
                else 0.0
            ),
            "client.submit_many.self_s": t(CLIENT_SUBMIT).mean_self_s,
            "loadgen.inject_lag_ms": (
                max(first.inject_lag_s, second.inject_lag_s) * 1e3
            ),
            "tracing.overhead_share": (
                1.0 - rate_second / rate_first if rate_first else 0.0
            ),
            "latency_p99_ms": percentile_ms(first.latencies_s, 0.99),
            "failed_share": failed_share(self.attempted, self.failed),
        }
