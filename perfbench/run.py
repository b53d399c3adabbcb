"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload engine --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` is the
per-layer run: it installs the layer wrappers (``layers.py``) for the
set-ups, measures the first half of the window untraced and the second
half traced, and prints every per-layer metric; the spans are written
to ``perfbench/out/spans-<workload>-<seed>.jsonl``.  Metric names,
units and bounds come from ``BENCHMARK.json``; ``perfbench/BENCHMARK.md``
defines each metric and workload.

The program under test is imported from ``src/`` of the checkout; the
run exits with code 2, printing no result, when it is missing.  It
exits with code 1 when any output check fails.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import sys
import time
from multiprocessing import resource_tracker
from pathlib import Path

#: When this script began (after interpreter start-up): the origin of
#: the cold set-up time.
STARTED = time.perf_counter()

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _hwm_mb(pid: str) -> float:
    """Peak resident set (VmHWM) of one process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def main(argv: list[str]) -> int:
    args = _parse(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    import measures
    import workloads
    from layers import LayerTracer
    from spans import Recorder

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(
            f"perfbench: unknown workload {args.workload!r}", file=sys.stderr
        )
        return 2
    tracer = LayerTracer(Recorder()) if args.trace else None
    if tracer is not None:
        tracer.install()

    setup_times = []
    cold_setup_s = 0.0
    rig = None
    try:
        for attempt in range(workloads.SETUPS):
            # every set-up and the window start from a collected heap
            gc.collect()
            began = time.perf_counter()
            candidate = workloads.setup(workload)
            setup_times.append(time.perf_counter() - began)
            if attempt == 0:
                cold_setup_s = time.perf_counter() - STARTED
            if attempt + 1 < workloads.SETUPS:
                candidate.close()
            else:
                rig = candidate
        assert rig is not None
        pools = workloads.make_pools(workload, rig.widths(), args.seed)
        checker = workloads.Checker()
        run = measures.Run(workload, setup_times, cold_setup_s)
        gc.collect()
        if tracer is None:
            run.untraced = workloads.window(
                workload, rig, pools, checker, args.seed, args.seconds
            )
        else:
            tracer.uninstall()
            run.setup_spans = list(tracer.recorder.spans)
            run.untraced = workloads.window(
                workload, rig, pools, checker, args.seed, args.seconds / 2
            )
            net_before = rig.net.health()["net"] if rig.net else None
            tracer.recorder.spans.clear()
            tracer.events.clear()
            tracer.shapes.clear()
            tracer.install()
            run.traced = workloads.window(
                workload, rig, pools, checker, args.seed, args.seconds / 2,
                start=run.untraced.next_index, tracer=tracer,
            )
            tracer.uninstall()
            if rig.net is not None:
                run.net_delta = measures.counter_delta(
                    net_before, rig.net.health()["net"]
                )
        run.peak_rss_mb = _hwm_mb("self") + sum(
            _hwm_mb(str(pid)) for pid in rig.worker_pids()
        )
        if rig.server is not None:
            run.server_metrics = rig.server.metrics.snapshot()
        if tracer is not None and rig.sessions:
            run.retained_bytes = workloads.retained_bytes_per_feed(rig, pools)
        run.checks = workloads.check(
            workload, rig, pools, checker, args.seed
        )
    finally:
        if tracer is not None:
            tracer.uninstall()
        if rig is not None:
            rig.close()
        # process shards start multiprocessing's resource tracker; stop it
        # and wait for it, so the run leaves no process behind
        tracker = resource_tracker._resource_tracker
        getattr(tracker, "_stop", lambda: None)()

    if tracer is None:
        values = run.end_to_end()
        wanted = spec["end_to_end"]
    else:
        values = run.per_layer(tracer)
        wanted = spec["per_layer"]
        OUT_DIR.mkdir(exist_ok=True)
        tracer.recorder.write_jsonl(
            str(OUT_DIR / f"spans-{workload.name}-{args.seed}.jsonl")
        )
    for line in run.notes():
        print(line)
    metrics = {}
    for entry in wanted:
        value = float(values[entry["name"]])
        if not math.isfinite(value):
            raise ValueError(f"metric {entry['name']} is {value}")
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    correct = run.correct
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": metrics,
            }
        )
    )
    sys.stdout.flush()
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
