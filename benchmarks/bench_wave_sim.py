#!/usr/bin/env python
"""JSON benchmark: scalar vs bit-packed wave-simulation engines.

Runs the scalar oracle and the packed engine's kernel variants on
wave-pipelined suite benchmarks, verifies every report is bit-identical
(scalar vs packed, tracked vs elided), and emits one JSON document
with the timings, speedups, platform metadata, and the lane plan
each case ran under, so the engine's performance is tracked in the bench
trajectory (CI uploads the JSON as a workflow artifact).

Cases may pin the packed engine's lane count (``lanes``) to force the
multi-word layout — ``lanes=256`` packs four ``uint64`` state words — so
the >64-lane path is measured and identity-checked on every run, not just
when the planner would choose it.  The ISSUE-3 acceptance measurements
are ``ctrl/256`` (step-bound: >= 3x over the PR-2 packed engine, tracked
here as the ``tracked_seconds`` column vs ``packed_seconds``) and
``ctrl/4096`` (>= 250x total vs the scalar oracle).

``--baseline old.json`` diffs a previous run of this bench: per-case
speedup deltas are printed, and ``--max-regression 0.30`` turns the diff
into a CI gate that fails when the headline packed speedup regresses by
more than 30% (the committed reference lives in
``benchmarks/baselines/``).

Usage::

    PYTHONPATH=src python benchmarks/bench_wave_sim.py            # full
    PYTHONPATH=src python benchmarks/bench_wave_sim.py --quick    # CI smoke
    PYTHONPATH=src python benchmarks/bench_wave_sim.py -o out.json
    PYTHONPATH=src python benchmarks/bench_wave_sim.py --quick \\
        --baseline benchmarks/baselines/bench_wave_sim_quick.json \\
        --max-regression 0.30                                     # CI gate
"""

import argparse
import json
import platform
import sys
import time

import numpy

from repro.core.wavepipe import (
    describe_packed_run,
    random_vectors,
    simulate_waves,
    simulate_waves_packed,
    wave_pipeline,
)
from repro.suite.table import build_benchmark

#: (suite benchmark, waves, scalar repeats, packed repeats, forced lanes)
#: lanes=None lets the planner choose; an explicit value pins the packing
#: (values > 64 exercise the multi-word layout).
FULL_CASES = (
    ("ctrl", 256, 3, 10, None),
    ("ctrl", 4096, 1, 3, None),  # planner goes multi-word on its own
    ("i2c", 256, 1, 5, None),
    ("i2c", 256, 1, 5, 256),  # forced 4-word packing
)
QUICK_CASES = (
    ("ctrl", 64, 1, 3, None),
    ("ctrl", 96, 1, 3, 96),  # >64 waves, 2-word packing, identity-checked
)


def _time_best(function, repeats):
    best = float("inf")
    result = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = function()
        best = min(best, time.perf_counter() - started)
    return best, result


def bench_case(name: str, n_waves: int, scalar_repeats: int,
               packed_repeats: int, lanes=None, seed: int = 7) -> dict:
    """Time the engines on one benchmark; verify variant bit-identity."""
    mig = build_benchmark(name)
    netlist = wave_pipeline(mig, fanout_limit=3, verify=False).netlist
    vectors = random_vectors(netlist.n_inputs, n_waves, seed=seed)

    compile_started = time.perf_counter()
    plan = describe_packed_run(netlist, n_waves, lanes=lanes)
    compile_seconds = time.perf_counter() - compile_started

    scalar_seconds, scalar = _time_best(
        lambda: simulate_waves(netlist, vectors, engine="python"),
        scalar_repeats,
    )
    # the default packed path (auto elision): the headline
    packed_seconds, packed = _time_best(
        lambda: simulate_waves_packed(netlist, vectors, lanes=lanes),
        packed_repeats,
    )
    # forced wave-id tracking: the PR-2-equivalent kernel, kept measured
    # so the elision win stays visible in the bench trajectory
    tracked_seconds, tracked = _time_best(
        lambda: simulate_waves_packed(
            netlist, vectors, lanes=lanes, track=True
        ),
        packed_repeats,
    )
    identical = scalar == packed == tracked  # dataclass ==: every field

    stats = netlist.stats()
    return {
        "benchmark": name,
        "components": stats.size,
        "total_cells": netlist.n_components,
        "depth": stats.depth,
        "waves": n_waves,
        "lanes": "auto" if lanes is None else lanes,
        "plan": plan,  # elision, lanes/words/steps actually run
        "steps": packed.steps_run,
        "coherent": packed.coherent,
        "compile_seconds": round(compile_seconds, 6),
        "scalar_seconds": round(scalar_seconds, 6),
        "packed_seconds": round(packed_seconds, 6),
        "tracked_seconds": round(tracked_seconds, 6),
        "speedup": round(scalar_seconds / packed_seconds, 2),
        "tracked_speedup": round(scalar_seconds / tracked_seconds, 2),
        "identical_reports": identical,
    }


def _metadata(mode: str) -> dict:
    """Provenance of one bench run (for cross-run comparability)."""
    return {
        "mode": mode,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def _case_key(row: dict) -> tuple:
    return (row["benchmark"], row["waves"], row["lanes"])


def diff_against_baseline(document: dict, baseline: dict) -> list[str]:
    """Per-case speedup deltas vs an older run of this bench."""
    old_cases = {_case_key(row): row for row in baseline.get("cases", [])}
    lines = [
        f"baseline diff (old: {baseline.get('meta', {}).get('platform', 'unknown platform')})",
        f"{'case':<24} {'old x':>9} {'new x':>9} {'delta':>8}",
    ]
    for row in document["cases"]:
        key = _case_key(row)
        label = f"{key[0]}/{key[1]} lanes={key[2]}"
        old = old_cases.get(key)
        if old is None:
            lines.append(f"{label:<24} {'-':>9} {row['speedup']:>9} {'new':>8}")
            continue
        ratio = row["speedup"] / old["speedup"] if old["speedup"] else 0.0
        lines.append(
            f"{label:<24} {old['speedup']:>9} {row['speedup']:>9} "
            f"{(ratio - 1) * 100:>+7.1f}%"
        )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="small smoke configuration for CI",
    )
    parser.add_argument(
        "--waves", type=int, default=None,
        help="override the wave count of every case",
    )
    parser.add_argument(
        "-o", "--output", default=None,
        help="also write the JSON document to this file",
    )
    parser.add_argument(
        "--baseline", default=None,
        help="older JSON document of this bench: print per-case speedup "
        "deltas against it",
    )
    parser.add_argument(
        "--max-regression", type=float, default=None, metavar="FRAC",
        help="with --baseline: fail (exit 1) when the headline packed "
        "speedup drops below (1 - FRAC) of the baseline's, e.g. 0.30 "
        "tolerates a 30%% regression (the CI gate)",
    )
    args = parser.parse_args(argv)
    if args.max_regression is not None and not args.baseline:
        # reject the bad flag combination before minutes of benching
        print("--max-regression requires --baseline", file=sys.stderr)
        return 2

    cases = QUICK_CASES if args.quick else FULL_CASES
    rows = [
        bench_case(
            name,
            waves if args.waves is None else args.waves,
            scalar_repeats,
            packed_repeats,
            lanes,
        )
        for name, waves, scalar_repeats, packed_repeats, lanes in cases
    ]
    # the largest case wins; forced multi-word packing breaks ties
    headline = max(
        rows,
        key=lambda row: (
            row["components"], row["waves"], row["lanes"] != "auto",
        ),
    )
    document = {
        "bench": "wave_sim_engines",
        "mode": "quick" if args.quick else "full",
        "meta": _metadata("quick" if args.quick else "full"),
        "cases": rows,
        "headline": {
            "benchmark": headline["benchmark"],
            "components": headline["components"],
            "waves": headline["waves"],
            "lanes": headline["lanes"],
            "speedup": headline["speedup"],
            "identical_reports": headline["identical_reports"],
        },
    }
    text = json.dumps(document, indent=2)
    print(text)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text + "\n")

    if not all(row["identical_reports"] for row in rows):
        print("FATAL: engines diverged", file=sys.stderr)
        return 1

    if args.baseline:
        with open(args.baseline) as handle:
            baseline = json.load(handle)
        for line in diff_against_baseline(document, baseline):
            print(line, file=sys.stderr)
        if args.max_regression is not None:
            old = baseline.get("headline", {}).get("speedup")
            new = document["headline"]["speedup"]
            floor = (old or 0.0) * (1.0 - args.max_regression)
            if old and new < floor:
                print(
                    f"FATAL: headline packed speedup regressed: {new}x < "
                    f"{floor:.1f}x ({old}x baseline - "
                    f"{args.max_regression:.0%} tolerance)",
                    file=sys.stderr,
                )
                return 1
            print(
                f"bench gate ok: headline {new}x vs floor {floor:.1f}x",
                file=sys.stderr,
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
