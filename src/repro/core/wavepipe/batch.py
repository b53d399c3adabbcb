"""Bit-packed, batched engine for phase-accurate wave simulation.

This module is the high-throughput implementation behind
``simulate_waves(..., engine="packed")`` and the batched multi-stream
front-end :func:`~repro.core.wavepipe.simulator.simulate_streams`.  It
produces reports that are bit-identical to the scalar reference loop in
:mod:`repro.core.wavepipe.simulator` — same outputs, same
:class:`~repro.core.wavepipe.simulator.WaveInterference` events in the same
order — while advancing the whole netlist with compiled word operations.

Since the kernelized-step-loop refactor this module owns only the
*planning* half of the engine: lane planning, injection packing, and
report merging.  The per-clock-step hot loop lives in
:mod:`repro.core.wavepipe.kernels`: one in-place numpy step loop, with or
without wave-id tracking (tracking is *elided* whenever the netlist's
balance proves interference impossible; see the kernels module docstring
for the elision proof).

Architecture
------------
**64 wave streams per word, unbounded words.**  The wave sequence of length
``W`` is split into contiguous chunks ("lanes").  Lane *b* carries bit
``b mod 64`` of word ``b // 64`` in every component's ``(n_words,)`` row of
the ``(n_components, n_words)`` ``uint64`` state matrix (the packing of the
golden model in :mod:`repro.core.simulate`, extended along a word axis), so
one majority update advances all lanes of a component at once and one
array operation advances every component of the active clock phase.  The
lane count is unbounded: the planner fills as many words as the stream
needs, so 10^4–10^5-wave streams run in one pass.  The planner balances
the kernel's fixed per-step cost against ``components x lanes`` array
traffic using a **per-variant calibration constant**
(:data:`~repro.core.wavepipe.kernels.PLANNER_STEP_OVERHEAD` — the elided
variant moves far less data per lane, so its plans go wider), caps
itself at :data:`MAX_PLANNED_WORDS` words, and is bypassed entirely by an
explicit ``lanes=`` override (used by the property tests to pin
word-boundary behaviour and by the benchmarks).

**Exact overlap windows.**  Waves in a pipeline are *coupled*: on an
unbalanced netlist a component can combine data of adjacent waves, so the
chunks cannot be simulated truly independently.  Each lane therefore
re-simulates a short warm-up prefix (the waves injected during the last
``depth`` clock steps when the netlist is path-balanced, ``depth * p``
steps otherwise, rounded up to whole injection slots, plus one) and a
forward suffix (``ceil(depth / separation)`` waves) before/after its chunk.
Every value, wave id, and interference decision inside a lane's *kept*
step region then depends only on injections the lane performed itself, so
it equals the single-stream reference exactly.  The kept regions tile the
reference timeline ``[0, total_steps)``, which makes merging trivial:
events are filtered per lane and sorted by (absolute step, within-phase
order) — the same order the scalar loop emits them — and the retired
output words snapshotted by the kernel are bit-extracted in one
vectorized pass (the kept (lane, slot) pairs enumerate the global wave
sequence in order).

**Array-native outputs.**  That pass reads the retired words as
little-endian bytes (lane *b* is bit ``b % 8`` of byte ``b // 8``) and
yields one ``(waves, n_outputs)`` bool matrix for the whole batch.  It
is wrapped once as a read-only
:class:`~repro.core.wavepipe.simulator.WaveOutputs`, and each stream's
report takes a row slice of it: no copy and no per-wave Python lists,
which used to cost more than the step loop on wide-output netlists.

**Independent streams share the lane axis.**  :func:`simulate_streams_packed`
simulates many *independent* wave streams (the serving scenario: one
request = one stream) in a single pass: every stream receives its own group
of lanes — planned with the same warm-up/forward logic, budgeted
proportionally to stream length — and because all streams share the
netlist, clocking, and injection grid, the one phase-update loop advances
them together.  Lanes of different streams never exchange data through the
packing (each lane only ever reads bits it injected itself), so each
stream's report equals running :func:`simulate_waves` on it alone.

**Injection packing without the dense gather.**  Input words are packed one
word at a time with shift/or reductions over at most 64 lanes, so the
transient footprint is bounded by ``O(slots × 64 × n_inputs)`` regardless
of the total lane and wave count (a dense ``(slots, lanes, inputs)``
gather used to spike memory on large streams and defeat them).

**Streaming sessions.**  :func:`open_packed_session` returns a
:class:`PackedSession` that keeps one
:class:`~repro.core.wavepipe.kernels.SessionState` alive across
``feed()`` calls: new waves are appended to the existing lanes at the
next free injection slot and the pipeline is never drained between
feeds, so a long-lived client pays the ``depth``-step fill exactly once
instead of once per request.  Sessions require a *wave-ready* (balanced)
netlist — on an unbalanced one a wave's outputs depend on waves injected
*after* it (the reason one-shot lanes carry a forward overlap), so a
chunked feed sequence could not reproduce the solo run bit-identically
even in principle.  On balanced netlists the same argument that elides
tracking makes every wave's output a function of its own inputs alone,
which is what lets ``tests/test_streaming.py`` assert that any split of
a wave schedule into feeds matches the solo run of the concatenation,
bit for bit, on the tracked and elided variants alike.  Retired rows are
extracted per advance into bool blocks the same way, and each feed's
report wraps its rows as one ``WaveOutputs``.

The scalar engine remains the oracle; ``tests/test_batch_engine.py`` and
``tests/test_kernels.py`` property-test this module against it on
balanced and deliberately unbalanced netlists across phase counts,
injection modes, lane overrides straddling word boundaries, multi-stream
batches, and both tracking variants.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ...errors import SessionClosed, SimulationError
from .clocking import ClockingScheme
from .components import WaveNetlist
from .kernels import (
    CompiledWaveNetlist,
    SessionState,
    _retire_slot_count,
    can_elide_tracking,
    compile_netlist,
    planner_step_overhead,
    resolve_tracking,
    run_plan,
)
from .simulator import (
    WaveInterference,
    WaveOutputs,
    WaveSimulationReport,
    _empty_report,
    _validate_vectors,
    wave_separation,
)

_WORD = np.uint64

#: Wave streams carried per packed state word.
LANES_PER_WORD = 64

#: Soft cap on the number of state words the *planner* chooses (the
#: ``lanes=`` override and the one-lane-per-stream floor are unbounded).
#: 16 words = 1024 lanes keeps the tracked variant's int32 wave-id matrix
#: at 4 KiB per component; past that, widening words stops paying for the
#: extra warm-up work and memory traffic even in the elided variant.
MAX_PLANNED_WORDS = 16


@dataclass(frozen=True)
class _LanePlan:
    """How one or more wave streams are distributed across packed lanes.

    All per-lane arrays are indexed by the *global* lane number; lanes of
    one stream are contiguous.  ``base`` indexes the concatenated wave/bit
    table shared by every stream, while ``wave0`` is the same quantity in
    the lane's own stream's numbering (used for reported wave ids).
    """

    n_lanes: int
    n_words: int  # ceil(n_lanes / 64) packed state words
    stream: np.ndarray  # stream id per lane
    chunk: np.ndarray  # waves owned per lane
    warm: np.ndarray  # warm-up waves re-simulated before the chunk
    base: np.ndarray  # first injected wave per lane, global numbering
    wave0: np.ndarray  # first injected wave per lane, stream numbering
    n_inj: np.ndarray  # injection slots per lane (warm + chunk + forward)
    offset: np.ndarray  # stream-absolute step of a lane's local step 0
    keep_lo: np.ndarray  # local step where the lane's kept region starts
    keep_hi: np.ndarray  # local step where the lane's kept region ends
    stream_waves: np.ndarray  # waves per stream
    stream_base: np.ndarray  # first global wave index per stream
    stream_steps: np.ndarray  # reference timeline length per stream
    local_steps: int  # steps every lane actually advances


def _overlap_slots(
    depth: int, n_phases: int, separation: int, balanced: bool
) -> tuple[int, int]:
    """Warm-up and forward overlap of one lane, in injection slots.

    Dependence window of one state read, in clock steps: a fan-in chain
    has at most ``depth`` links, and a link steps back exactly one step per
    level on a balanced netlist but up to ``p`` steps in general (the
    fan-in cell's previous latch).  One extra slot absorbs the injection
    grid (an input holds its last wave for up to ``separation`` steps).
    The forward overlap covers the drain: on an unbalanced netlist a short
    path can deliver a *later* wave to an output driver while a kept wave
    retires.
    """
    window_steps = depth if balanced else depth * n_phases
    warm_slots = -(-window_steps // separation) + 1
    forward_slots = -(-depth // separation)
    return warm_slots, forward_slots


def _default_lane_count(
    n_waves: int, warm_slots: int, separation: int, depth: int,
    n_components: int, step_overhead: int,
) -> int:
    """Planner heuristic: lanes for one stream of *n_waves* waves.

    Up to 64 waves every wave gets its own lane (one word, the PR-1
    layout).  Beyond that the planner balances two costs: each step pays a
    fixed overhead (so fewer, wider steps are better) plus array traffic
    proportional to ``n_components * lanes`` (so narrower is better).
    With ``steps ≈ fill + n_waves * separation / lanes`` the optimum is
    ``lanes* = sqrt(n_waves * separation * overhead / (fill * n))``,
    floored to whole words so a marginal win never pays for a wider
    state matrix, and capped at :data:`MAX_PLANNED_WORDS` words.
    *step_overhead* is the per-variant calibration constant from
    :func:`~repro.core.wavepipe.kernels.planner_step_overhead`: the
    elided variant has cheaper per-lane traffic, carries a larger
    constant and therefore plans wider.
    """
    if n_waves <= LANES_PER_WORD:
        return n_waves
    fill_steps = warm_slots * separation + depth
    ideal = (
        n_waves * separation * step_overhead
        / (fill_steps * max(1, n_components))
    ) ** 0.5
    words = max(1, min(MAX_PLANNED_WORDS, int(ideal) // LANES_PER_WORD))
    return min(n_waves, words * LANES_PER_WORD)


def _stream_lane_counts(
    waves_per_stream: Sequence[int], warm_slots: int
) -> list[int]:
    """Split the planner's lane budget across independent streams.

    Every stream needs at least one lane; the remaining budget follows
    each stream's ideal (``chunk ≈ warm_slots``) count, scaled down
    proportionally when the ideals exceed :data:`MAX_PLANNED_WORDS` words.
    With more streams than budgeted lanes the floor wins — one lane per
    stream — and the word count grows beyond the soft cap.
    """
    budget = MAX_PLANNED_WORDS * LANES_PER_WORD
    ideal = [
        min(w, max(1, -(-w // max(1, warm_slots)))) for w in waves_per_stream
    ]
    total = sum(ideal)
    if total <= budget:
        return ideal
    scale = budget / total
    return [
        max(1, min(w, int(lanes * scale)))
        for lanes, w in zip(ideal, waves_per_stream)
    ]


def _plan_lanes(
    waves_per_stream: Sequence[int],
    depth: int,
    n_phases: int,
    separation: int,
    balanced: bool,
    n_components: int,
    lanes: Optional[int] = None,
    *,
    step_overhead: int,
) -> _LanePlan:
    """Distribute one or more streams across lanes with exact overlap.

    *lanes* (single-stream only) overrides the heuristic lane count —
    clamped to ``[1, n_waves]`` — so tests and benchmarks can pin word
    boundaries regardless of the planner's defaults.  *step_overhead* is
    the per-variant cost-model constant (see :func:`_default_lane_count`);
    it is required so the calibration has exactly one source of truth,
    :data:`~repro.core.wavepipe.kernels.PLANNER_STEP_OVERHEAD`.
    """
    warm_slots, forward_slots = _overlap_slots(
        depth, n_phases, separation, balanced
    )
    if lanes is not None:
        if len(waves_per_stream) != 1:
            raise SimulationError(
                "explicit lane counts apply to single-stream runs only"
            )
        counts = [max(1, min(int(lanes), waves_per_stream[0]))]
    elif len(waves_per_stream) == 1:
        counts = [
            _default_lane_count(
                waves_per_stream[0], warm_slots, separation, depth,
                n_components, step_overhead,
            )
        ]
    else:
        counts = _stream_lane_counts(waves_per_stream, warm_slots)

    # All per-lane columns are computed segment-wise across every stream
    # at once (a serving batch plans hundreds of streams per pass; the
    # per-stream python loop this replaces dominated the batch prologue).
    stream_waves = np.asarray(waves_per_stream, dtype=np.int64)
    stream_base = np.concatenate(([0], np.cumsum(stream_waves)[:-1]))
    stream_steps = (stream_waves - 1) * separation + depth + 1
    counts_arr = np.asarray(counts, dtype=np.int64)
    n_lanes = int(counts_arr.sum())
    lane_start = np.concatenate(([0], np.cumsum(counts_arr)[:-1]))
    stream = np.repeat(
        np.arange(counts_arr.size, dtype=np.int64), counts_arr
    )
    # lane's index within its own stream's lane group
    lane_in_stream = np.arange(n_lanes, dtype=np.int64) - lane_start[stream]
    # chunk: n_waves // n_lanes everywhere, +1 on the first (n_waves %
    # n_lanes) lanes of the stream — same split the scalar loop used
    chunk = (stream_waves // counts_arr)[stream]
    chunk += lane_in_stream < (stream_waves % counts_arr)[stream]
    # start: exclusive cumsum of chunk, restarted per stream
    running = np.concatenate(([0], np.cumsum(chunk)[:-1]))
    start = running - running[lane_start][stream]
    warm = np.minimum(warm_slots, start)
    wave0 = start - warm
    forward = np.minimum(
        forward_slots, stream_waves[stream] - (start + chunk)
    )
    n_inj = warm + chunk + forward
    offset = wave0 * separation
    keep_lo = warm * separation
    keep_hi = (warm + chunk) * separation
    # each stream's last lane owns the drain tail of its timeline
    last_lane = lane_start + counts_arr - 1
    keep_hi[last_lane] = stream_steps - offset[last_lane]
    lane_steps = np.maximum(
        (warm + chunk - 1) * separation + depth + 1, keep_hi
    )
    base = wave0 + stream_base[stream]
    return _LanePlan(
        n_lanes=n_lanes,
        n_words=-(-n_lanes // LANES_PER_WORD),
        stream=stream,
        chunk=chunk,
        warm=warm,
        base=base,
        wave0=wave0,
        n_inj=n_inj,
        offset=offset,
        keep_lo=keep_lo,
        keep_hi=keep_hi,
        stream_waves=stream_waves,
        stream_base=stream_base,
        stream_steps=stream_steps,
        local_steps=int(lane_steps.max()),
    )


def _pack_injections(
    bits: np.ndarray, plan: _LanePlan
) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """Precompute per-slot packed input words and active-lane masks.

    Returns ``(words, masks, active)`` where ``words[slot]`` holds one
    ``(n_inputs, n_words)`` block (bit *b* of word *w* = the bit lane
    ``64*w + b`` injects on that slot), ``masks[slot]`` is the per-word
    uint64 mask of lanes injecting on that slot, and ``active[slot]``
    lists those lanes' indices.

    The packing runs one word at a time with a shift/or reduction over at
    most 64 lanes, so the transient gather is bounded regardless of the
    total lane count (a dense ``(slots, lanes, inputs)`` uint64 broadcast
    used to spike memory on 10^4+-wave streams).
    """
    n_slots = int(plan.n_inj.max())
    n_waves, n_inputs = bits.shape
    slots = np.arange(n_slots, dtype=np.int64)
    valid = slots[:, None] < plan.n_inj[None, :]  # (n_slots, n_lanes) bool
    words = np.zeros((n_slots, n_inputs, plan.n_words), dtype=_WORD)
    masks = np.zeros((n_slots, plan.n_words), dtype=_WORD)
    for word in range(plan.n_words):
        lo = word * LANES_PER_WORD
        hi = min(lo + LANES_PER_WORD, plan.n_lanes)
        shift = np.arange(hi - lo, dtype=_WORD)
        bit = np.left_shift(_WORD(1), shift)
        wave_of_slot = plan.base[None, lo:hi] + slots[:, None]
        gathered = bits[np.clip(wave_of_slot, 0, n_waves - 1)]
        gathered[~valid[:, lo:hi]] = False
        words[:, :, word] = np.bitwise_or.reduce(
            np.left_shift(gathered.astype(_WORD), shift[None, :, None]),
            axis=1,
        )
        masks[:, word] = np.bitwise_or.reduce(
            np.where(valid[:, lo:hi], bit[None, :], _WORD(0)), axis=1
        )
    active = [np.nonzero(valid[slot])[0] for slot in range(n_slots)]
    return words, masks, active


def _vector_bits(
    streams: Sequence[Sequence[Sequence[bool]]], n_inputs: int
) -> np.ndarray:
    """Concatenate every stream's vectors into one (waves, inputs) table.

    One C-side conversion per stream (not per wave): a serving batch of
    hundreds of streams used to spend more time row-assigning vectors
    here than the kernel spent simulating them.
    """
    total = sum(len(vectors) for vectors in streams)
    if len(streams) > 1 and all(
        len(vectors) == len(streams[0]) for vectors in streams
    ):
        # rectangular batch (the serving case: equal-length requests):
        # one C-side conversion for the whole (streams, waves, inputs)
        # block instead of one per stream
        return np.asarray(streams, dtype=bool).reshape(total, n_inputs)
    bits = np.zeros((total, n_inputs), dtype=bool)
    row = 0
    for vectors in streams:
        if len(vectors):
            block = np.asarray(vectors, dtype=bool).reshape(
                len(vectors), n_inputs
            )
            bits[row:row + len(vectors)] = block
            row += len(vectors)
    return bits


def _extract_bits(
    ret_words: np.ndarray, slot_of: np.ndarray, lane_of: np.ndarray
) -> np.ndarray:
    """Bit ``lane_of[k]`` of every output word of retire slot ``slot_of[k]``.

    Returns a fresh ``(len(slot_of), n_outputs)`` bool matrix.  The words
    are read as little-endian bytes, so lane *b* is bit ``b % 8`` of byte
    ``b // 8`` of the slot's ``(n_outputs, n_words)`` row: one byte gather
    and shift, instead of shifting whole uint64 words and casting.
    """
    as_bytes = ret_words.astype("<u8", copy=False).view(np.uint8)
    shift = (lane_of % 8).astype(np.uint8)
    picked = as_bytes[slot_of, :, lane_of // 8] >> shift[:, None]
    picked &= 1
    return picked.view(bool)


def _unpack_outputs(ret_words: np.ndarray, plan: _LanePlan) -> np.ndarray:
    """Bit-extract every kept (lane, slot) retirement in one pass.

    Lanes are ordered by stream and chunk start, so the kept pairs
    enumerate the global wave sequence exactly in order — row *k* of the
    returned ``(waves, n_outputs)`` bool matrix IS wave *k*'s output
    vector.
    """
    # every owned slot must have been snapshotted by the kernel; a plan
    # whose local timeline is too short to retire its deepest slot is a
    # planner bug, reported cleanly instead of as an IndexError below
    last_owned_slot = int((plan.warm + plan.chunk - 1).max())
    if last_owned_slot >= ret_words.shape[0]:
        raise SimulationError("simulation ended before every wave retired")
    n_total = int(plan.chunk.sum())
    lane_of = np.repeat(np.arange(plan.n_lanes, dtype=np.int64), plan.chunk)
    pair_start = np.concatenate(([0], np.cumsum(plan.chunk)[:-1]))
    slot_of = (
        np.arange(n_total, dtype=np.int64)
        - np.repeat(pair_start, plan.chunk)
        + np.repeat(plan.warm, plan.chunk)
    )
    return _extract_bits(ret_words, slot_of, lane_of)


def _interference_error(event: WaveInterference) -> SimulationError:
    """The scalar engine's strict-mode error, verbatim (message parity)."""
    return SimulationError(
        f"wave interference at step {event.step}, component "
        f"{event.component}: waves {event.wave_ids}"
    )


def describe_packed_run(
    netlist: WaveNetlist,
    n_waves: int,
    clocking: Optional[ClockingScheme] = None,
    pipelined: bool = True,
    lanes: Optional[int] = None,
    track: Optional[bool] = None,
    n_streams: int = 1,
) -> dict:
    """Resolve the kernel variant/plan one packed run would use, without
    running.

    Returns a JSON-friendly dict — tracking elision, netlist balance, and
    the chosen lane plan — used by the benchmark metadata,
    the CLI's kernel line, and the planner tests.  *n_streams* > 1
    describes a :func:`simulate_streams_packed` batch of equal-length
    streams (``lanes`` overrides apply to single-stream runs only).
    """
    clocking = clocking or ClockingScheme()
    compiled = compile_netlist(netlist, clocking)
    if compiled.depth == 0:
        raise SimulationError("cannot wave-simulate a depth-0 netlist")
    separation = wave_separation(compiled.depth, compiled.n_phases, pipelined)
    elided = resolve_tracking(compiled, separation, track)
    plan = _plan_lanes(
        [n_waves] * max(1, n_streams),
        compiled.depth,
        compiled.n_phases,
        separation,
        compiled.balanced,
        compiled.n_components,
        lanes=lanes,
        step_overhead=planner_step_overhead(elided),
    ) if n_waves > 0 else None
    return {
        "elided_tracking": elided,
        "balanced": compiled.balanced,
        "lanes": plan.n_lanes if plan else 0,
        "words": plan.n_words if plan else 0,
        "steps": plan.local_steps if plan else 0,
    }


def plan_stream_batch(
    netlist: WaveNetlist,
    waves_per_stream: Sequence[int],
    clocking: Optional[ClockingScheme] = None,
    pipelined: bool = True,
    track: Optional[bool] = None,
) -> dict:
    """Resolve the lane plan one :func:`simulate_streams_packed` batch
    would use, without running it.

    This is the sizing hook of the serving layer: the micro-batcher asks
    the *existing* lane planner how a candidate batch of per-stream wave
    counts would pack (lanes, state words, local steps) and records the
    answer in its metrics, so batch sizing has exactly one source of
    truth — the planner that will execute the batch.  Zero-wave streams
    are planned as the empty streams they are (they occupy no lanes).

    Returns a JSON-friendly dict: ``elided_tracking``,
    ``n_streams``, ``total_waves``, ``lanes``, ``words``, ``steps``.
    """
    clocking = clocking or ClockingScheme()
    compiled = compile_netlist(netlist, clocking)
    if compiled.depth == 0:
        raise SimulationError("cannot wave-simulate a depth-0 netlist")
    separation = wave_separation(compiled.depth, compiled.n_phases, pipelined)
    elided = resolve_tracking(compiled, separation, track)
    live = [int(waves) for waves in waves_per_stream if waves > 0]
    plan = _plan_lanes(
        live,
        compiled.depth,
        compiled.n_phases,
        separation,
        compiled.balanced,
        compiled.n_components,
        step_overhead=planner_step_overhead(elided),
    ) if live else None
    return {
        "elided_tracking": elided,
        "n_streams": len(waves_per_stream),
        "total_waves": sum(live),
        "lanes": plan.n_lanes if plan else 0,
        "words": plan.n_words if plan else 0,
        "steps": plan.local_steps if plan else 0,
    }


def _packed_reports(
    netlist: WaveNetlist,
    streams: Sequence[Sequence[Sequence[bool]]],
    clocking: Optional[ClockingScheme],
    pipelined: bool,
    strict: bool,
    lanes: Optional[int],
    track: Optional[bool] = None,
    validate: bool = True,
) -> list[WaveSimulationReport]:
    """Shared prologue/epilogue of both packed entry points.

    Validates, compiles, plans, runs the step loop, and slices one
    report per stream (empty streams get clean empty reports).
    ``simulate_waves_packed`` is the single-stream slice of this; keeping
    one copy of the control flow means strict-mode and retirement checks
    cannot drift between the entry points.
    """
    clocking = clocking or ClockingScheme()
    if validate:
        for vectors in streams:
            _validate_vectors(netlist, vectors)
    compiled = compile_netlist(netlist, clocking)
    depth = compiled.depth
    if depth == 0:
        raise SimulationError("cannot wave-simulate a depth-0 netlist")

    reports: list[Optional[WaveSimulationReport]] = [None] * len(streams)
    live = [
        index for index, vectors in enumerate(streams) if len(vectors) > 0
    ]
    for index, vectors in enumerate(streams):
        if len(vectors) == 0:
            reports[index] = _empty_report(depth)
    if not live:
        return reports  # type: ignore[return-value]  # every stream empty

    p = compiled.n_phases
    separation = wave_separation(depth, p, pipelined)
    elide = resolve_tracking(compiled, separation, track)
    live_streams = [streams[index] for index in live]
    plan = _plan_lanes(
        [len(vectors) for vectors in live_streams],
        depth,
        p,
        separation,
        compiled.balanced,
        compiled.n_components,
        lanes=lanes,
        step_overhead=planner_step_overhead(elide),
    )
    bits = _vector_bits(live_streams, netlist.n_inputs)
    inj_words, inj_masks, inj_active = _pack_injections(bits, plan)
    ret_words, events, event_stream = run_plan(
        compiled, plan, inj_words, inj_masks, inj_active, separation,
        strict, elide=elide,
    )

    if strict and events:
        raise _interference_error(events[0])
    results = WaveOutputs(_unpack_outputs(ret_words, plan))
    event_bounds = np.searchsorted(
        event_stream, np.arange(len(live) + 1)
    ).tolist()

    for position, index in enumerate(live):
        lo = int(plan.stream_base[position])
        hi = lo + int(plan.stream_waves[position])
        n_waves = hi - lo
        reports[index] = WaveSimulationReport(
            outputs=results[lo:hi],
            latency_steps=depth,
            steps_run=int(plan.stream_steps[position]),
            waves_injected=n_waves,
            waves_retired=n_waves,
            interference=events[
                event_bounds[position]:event_bounds[position + 1]
            ],
        )
    return reports  # type: ignore[return-value]


def simulate_waves_packed(
    netlist: WaveNetlist,
    vectors: Sequence[Sequence[bool]],
    clocking: Optional[ClockingScheme] = None,
    pipelined: bool = True,
    strict: bool = False,
    lanes: Optional[int] = None,
    track: Optional[bool] = None,
) -> WaveSimulationReport:
    """Packed-engine equivalent of :func:`~.simulator.simulate_waves`.

    Accepts the same arguments (minus ``engine``) and returns a report that
    is bit-identical to the scalar reference engine's, including the
    interference event list and its ordering.  *lanes* overrides the
    planner's lane count (clamped to ``[1, n_waves]``); *track* forces
    (``True``) or demands the elision of
    (``False``) wave-id tracking, ``None`` elides exactly when the static
    interference-freedom proof holds.  The result is bit-identical for
    every choice — only the speed/memory trade-off moves.
    """
    (report,) = _packed_reports(
        netlist, [vectors], clocking, pipelined, strict, lanes,
        track=track,
    )
    return report


def simulate_streams_packed(
    netlist: WaveNetlist,
    streams: Sequence[Sequence[Sequence[bool]]],
    clocking: Optional[ClockingScheme] = None,
    pipelined: bool = True,
    strict: bool = False,
    track: Optional[bool] = None,
    validate: bool = True,
) -> list[WaveSimulationReport]:
    """Simulate many independent wave streams in one packed pass.

    Each element of *streams* is a full wave sequence (one vector per
    wave); the returned list holds one report per stream, each
    bit-identical to ``simulate_waves(netlist, stream, ...)`` on that
    stream alone.  All streams share the netlist and clocking; they are
    packed side by side across lanes/words so the whole batch advances in
    a single phase-update loop (the serving scenario).  *track* selects
    the kernel variant exactly as in :func:`simulate_waves_packed`.

    In strict mode the error matches what the scalar engine would raise
    when the streams are simulated one after another: the first stream (in
    order) with interference reports its earliest event.

    *validate* may be set to ``False`` by callers that already validated
    every stream against this netlist (the serving layer validates at
    submit time); the per-wave width checks are then skipped.
    """
    return _packed_reports(
        netlist, list(streams), clocking, pipelined, strict, None,
        track=track, validate=validate,
    )


# ----------------------------------------------------------------------
# streaming sessions (resumable packed state)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _SlotRecord:
    """One injected-but-not-yet-retired session slot."""

    slot: int  # absolute injection slot (retires at slot*sep + depth)
    count: int  # waves injected this slot (they occupy lanes [0, count))


class SessionFeed:
    """Handle for one :meth:`PackedSession.feed` call.

    ``report`` blocks — by draining the session — until every wave of
    the feed has retired; ``done`` peeks without forcing anything.  The
    report is bit-identical to the corresponding slice of a one-shot
    :func:`simulate_waves_packed` run over the concatenation of every
    feed's waves (``tests/test_streaming.py`` proves exactly that).
    """

    __slots__ = ("index", "start", "count", "_session", "_report")

    def __init__(
        self, session: "PackedSession", index: int, start: int, count: int
    ) -> None:
        self.index = index
        self.start = start
        self.count = count
        self._session = session
        self._report: Optional[WaveSimulationReport] = None

    @property
    def done(self) -> bool:
        """True once every wave of this feed has retired."""
        return self._report is not None

    @property
    def report(self) -> WaveSimulationReport:
        """The feed's report, draining the session if still in flight."""
        if self._report is None:
            self._session.flush()
        assert self._report is not None  # flush retires every fed wave
        return self._report


def _pack_session_slots(
    bits: np.ndarray, n_lanes: int, n_words: int
) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """Pack a pending wave block slot-major for one session advance.

    Wave ``j`` of the block goes to (relative) slot ``j // n_lanes``,
    lane ``j % n_lanes`` — slots fill from lane 0, so a session's wave
    order across slots enumerates the global wave sequence exactly like
    a one-shot plan's kept (lane, slot) pairs do.  Returns ``(words,
    masks, active)`` with the :func:`_pack_injections` meanings; the same
    bounded word-at-a-time shift/or packing.
    """
    n_waves, n_inputs = bits.shape
    n_slots = -(-n_waves // n_lanes)
    slots = np.arange(n_slots, dtype=np.int64)
    lane_idx = np.arange(n_lanes, dtype=np.int64)
    wave_of = slots[:, None] * n_lanes + lane_idx[None, :]
    valid = wave_of < n_waves  # (n_slots, n_lanes) bool
    words = np.zeros((n_slots, n_inputs, n_words), dtype=_WORD)
    masks = np.zeros((n_slots, n_words), dtype=_WORD)
    for word in range(n_words):
        lo = word * LANES_PER_WORD
        hi = min(lo + LANES_PER_WORD, n_lanes)
        shift = np.arange(hi - lo, dtype=_WORD)
        bit = np.left_shift(_WORD(1), shift)
        gathered = bits[np.clip(wave_of[:, lo:hi], 0, n_waves - 1)]
        gathered[~valid[:, lo:hi]] = False
        words[:, :, word] = np.bitwise_or.reduce(
            np.left_shift(gathered.astype(_WORD), shift[None, :, None]),
            axis=1,
        )
        masks[:, word] = np.bitwise_or.reduce(
            np.where(valid[:, lo:hi], bit[None, :], _WORD(0)), axis=1
        )
    active = [np.nonzero(valid[slot])[0] for slot in range(n_slots)]
    return words, masks, active


class PackedSession:
    """Resumable packed simulation: feed waves in chunks, resume warm.

    The session owns one :class:`~repro.core.wavepipe.kernels.SessionState`
    whose absolute step counter, value matrix, and (``track=True``)
    wave-id matrix survive between :meth:`feed` calls.  Feeds are
    *lazy*: waves accumulate until :meth:`pump`, :meth:`flush`,
    :meth:`close`, or a feed's ``report`` forces an advance, so
    back-to-back feeds pack into as few injection slots as one wide
    one-shot run would use — which is how a 10x64-wave session matches
    one 640-wave solo run's throughput (``benchmarks/bench_streaming.py``
    asserts the >= 0.9x acceptance bar).  The serving layer calls
    :meth:`pump` after every feed instead, trading a little width for
    promptly resolved futures.

    Sessions demand a wave-ready netlist
    (:func:`~repro.core.wavepipe.kernels.can_elide_tracking` must hold):
    on an unbalanced netlist a wave's outputs depend on *later* waves,
    so streaming bit-identity with the solo run is causally impossible
    — :class:`~repro.errors.SimulationError` says so at open time
    instead of silently diverging.  ``track=True`` still forces the
    tracked variant (outputs identical, interference provably empty),
    keeping both variants exercisable.

    Use as a context manager or :meth:`close` explicitly — the
    lifecycle lint tracks sessions like files and locks.
    """

    def __init__(
        self,
        netlist: WaveNetlist,
        clocking: Optional[ClockingScheme] = None,
        pipelined: bool = True,
        track: Optional[bool] = None,
        lanes: Optional[int] = None,
        validate: bool = True,
    ) -> None:
        clocking = clocking or ClockingScheme()
        self._netlist = netlist
        self._compiled = compile_netlist(netlist, clocking)
        if self._compiled.depth == 0:
            raise SimulationError("cannot wave-simulate a depth-0 netlist")
        self._separation = wave_separation(
            self._compiled.depth, self._compiled.n_phases, pipelined
        )
        if not can_elide_tracking(self._compiled, self._separation):
            raise SimulationError(
                "streaming sessions require a wave-ready (path-balanced) "
                "netlist: on an unbalanced netlist a wave's outputs depend "
                "on waves injected after it, so chunked feeds cannot "
                "reproduce the solo run bit-identically"
            )
        self._elide = resolve_tracking(
            self._compiled, self._separation, track
        )
        self._validate = validate
        if lanes is not None:
            self._lane_cap = max(1, int(lanes))
            self._fixed_lanes = True
        else:
            self._lane_cap = MAX_PLANNED_WORDS * LANES_PER_WORD
            self._fixed_lanes = False
        self._state: Optional[SessionState] = None
        self._pending: list[np.ndarray] = []
        self._pending_waves = 0
        self._feeds: list[SessionFeed] = []
        # retired output rows no feed has claimed yet, in wave order
        self._outputs: list[np.ndarray] = []
        self._slots: "deque[_SlotRecord]" = deque()
        self._n_fed = 0
        self._n_retired = 0
        self._resolved_upto = 0  # feeds [0, here) have reports
        self._next_done = 0  # take_done() cursor into resolved feeds
        self._closed = False

    # -- public surface ------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def separation(self) -> int:
        """Injection-slot spacing in clock steps (multiple of ``p``)."""
        return self._separation

    def feed(self, vectors: Sequence[Sequence[bool]]) -> SessionFeed:
        """Append waves to the session; returns a lazy report handle.

        The waves are *scheduled*, not yet simulated: simulation happens
        on the next :meth:`pump` / :meth:`flush` / :meth:`close` (or
        when some feed's ``report`` is read), packed into as few
        injection slots as the lane width allows.
        """
        if self._closed:
            raise SessionClosed("feed() on a closed session")
        if self._validate:
            _validate_vectors(self._netlist, vectors)
        count = len(vectors)
        handle = SessionFeed(self, len(self._feeds), self._n_fed, count)
        self._feeds.append(handle)
        self._n_fed += count
        if count:
            bits = np.asarray(vectors, dtype=bool).reshape(
                count, self._netlist.n_inputs
            )
            self._pending.append(bits)
            self._pending_waves += count
        self._resolve_ready()
        return handle

    def pump(self) -> list[SessionFeed]:
        """Inject every pending wave and harvest retirements reached.

        Advances the state exactly to the last new injection step — the
        pipeline stays full, nothing is drained.  Returns the feeds
        newly resolved by the harvested retirements (the serving layer's
        per-feed heartbeat; equivalent to :meth:`take_done` right after
        the injection pass).
        """
        if self._closed:
            raise SessionClosed("pump() on a closed session")
        self._inject_pending()
        return self.take_done()

    def flush(self) -> None:
        """Inject all pending waves, then drain until every one retired.

        After ``flush`` every feed handed out so far has ``done`` set.
        The state remains usable: further feeds resume from the drained
        step (paying a fresh fill, as any drain must).
        """
        self._inject_pending()
        if self._state is not None and self._slots:
            last_slot = self._slots[-1].slot
            target = last_slot * self._separation + self._compiled.depth + 1
            self._advance_to(target)
        self._resolve_ready()

    def take_done(self) -> list[SessionFeed]:
        """Feeds newly resolved since the last call, in feed order."""
        done = self._feeds[self._next_done:self._resolved_upto]
        self._next_done = self._resolved_upto
        return list(done)

    def close(self) -> None:
        """Drain the session and refuse further feeds (idempotent)."""
        if self._closed:
            return
        self.flush()
        self._closed = True

    def discard(self) -> None:
        """Close without draining: drop pending waves and in-flight state.

        Feeds that never resolved stay unresolved forever — the serving
        layer uses this for cancelled sessions (their futures fail with
        :class:`~repro.errors.SessionClosed` instead).  Idempotent.
        """
        self._closed = True
        self._pending = []
        self._pending_waves = 0
        self._slots.clear()
        self._state = None

    def __enter__(self) -> "PackedSession":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def describe(self) -> dict:
        """JSON-friendly session snapshot (metrics / CLI surface)."""
        return {
            "elided_tracking": self._elide,
            "lanes": self._state.n_lanes if self._state else 0,
            "words": self._state.n_words if self._state else 0,
            "step": self._state.step if self._state else 0,
            "feeds": len(self._feeds),
            "waves_fed": self._n_fed,
            "waves_retired": self._n_retired,
            "pending_waves": self._pending_waves,
            "closed": self._closed,
        }

    # -- internals -----------------------------------------------------
    def _inject_pending(self) -> None:
        if not self._pending_waves:
            return
        bits = (
            self._pending[0]
            if len(self._pending) == 1
            else np.concatenate(self._pending, axis=0)
        )
        n_waves = self._pending_waves
        self._pending = []
        self._pending_waves = 0

        if self._fixed_lanes:
            n_lanes = self._lane_cap
        else:
            floor = self._state.n_lanes if self._state is not None else 1
            n_lanes = min(self._lane_cap, max(floor, n_waves))
        n_words = -(-n_lanes // LANES_PER_WORD)
        if self._state is None:
            self._state = SessionState(
                self._compiled, self._separation, elide=self._elide,
                n_lanes=n_lanes, n_words=n_words,
            )
        elif (
            n_lanes > self._state.n_lanes or n_words > self._state.n_words
        ):
            self._state.widen(n_lanes, n_words)
        state = self._state
        n_lanes, n_words = state.n_lanes, state.n_words

        sep = self._separation
        slot0 = -(-state.step // sep)  # next injection slot not yet fired
        words, masks, active = _pack_session_slots(
            bits, n_lanes, n_words
        )
        n_slots = words.shape[0]
        for j in range(n_slots):
            self._slots.append(
                _SlotRecord(slot0 + j, min(n_lanes, n_waves - j * n_lanes))
            )
        target = (slot0 + n_slots - 1) * sep + 1  # one past last injection
        self._advance(words, masks, active, slot0, target)

    def _advance_to(self, target_step: int) -> None:
        """Advance with no new injections (the drain half of a flush)."""
        state = self._state
        assert state is not None
        if target_step <= state.step:
            return
        n_inputs = self._netlist.n_inputs
        words = np.zeros((0, n_inputs, state.n_words), dtype=_WORD)
        masks = np.zeros((0, state.n_words), dtype=_WORD)
        self._advance(words, masks, [], 0, target_step)

    def _advance(
        self,
        words: np.ndarray,
        masks: np.ndarray,
        active: list,
        slot0: int,
        target_step: int,
    ) -> None:
        state = self._state
        assert state is not None
        depth = self._compiled.depth
        sep = self._separation
        ret_slot0 = _retire_slot_count(state.step, depth, sep)
        n_ret = _retire_slot_count(target_step, depth, sep) - ret_slot0
        ret_words = np.empty(
            (n_ret, self._compiled.out_node.size, state.n_words),
            dtype=_WORD,
        )
        state.advance(
            target_step - state.step, words, masks, active, slot0,
            ret_words, ret_slot0,
        )
        self._harvest(ret_words, ret_slot0)

    def _harvest(self, ret_words: np.ndarray, ret_slot0: int) -> None:
        rows: list[int] = []  # ret_words row of each retired slot
        counts: list[int] = []  # its waves, on lanes [0, count)
        for i in range(ret_words.shape[0]):
            retire_slot = ret_slot0 + i
            if self._slots and self._slots[0].slot < retire_slot:
                raise SimulationError(
                    "session retirement bookkeeping out of order "
                    "(internal error)"
                )
            if not self._slots or self._slots[0].slot != retire_slot:
                continue  # retire step with no in-flight slot (idle gap)
            rows.append(i)
            counts.append(self._slots.popleft().count)
        if rows:
            slot_of = np.repeat(rows, counts)
            lane_of = np.arange(slot_of.size) - np.repeat(
                np.cumsum(counts) - counts, counts
            )
            self._outputs.append(_extract_bits(ret_words, slot_of, lane_of))
            self._n_retired += slot_of.size
        self._resolve_ready()

    def _claim(self, count: int) -> np.ndarray:
        """The next *count* retired rows, in wave order."""
        rows = (
            self._outputs[0]
            if len(self._outputs) == 1
            else np.concatenate(self._outputs)
        )
        self._outputs = [rows[count:]] if count < rows.shape[0] else []
        return rows[:count]

    def _resolve_ready(self) -> None:
        depth = self._compiled.depth
        sep = self._separation
        while self._resolved_upto < len(self._feeds):
            feed = self._feeds[self._resolved_upto]
            if feed.count == 0:
                feed._report = _empty_report(depth)
            elif feed.start + feed.count <= self._n_retired:
                feed._report = WaveSimulationReport(
                    outputs=WaveOutputs(self._claim(feed.count)),
                    latency_steps=depth,
                    steps_run=(
                        (feed.start + feed.count - 1) * sep + depth + 1
                    ),
                    waves_injected=feed.count,
                    waves_retired=feed.count,
                    interference=[],
                )
            else:
                break
            self._resolved_upto += 1


def open_packed_session(
    netlist: WaveNetlist,
    clocking: Optional[ClockingScheme] = None,
    pipelined: bool = True,
    track: Optional[bool] = None,
    lanes: Optional[int] = None,
    validate: bool = True,
) -> PackedSession:
    """Open a :class:`PackedSession` over *netlist* (see its docstring).

    Arguments mirror :func:`simulate_waves_packed`; *lanes* pins the lane
    width (the differential tests use it to hold the state at exactly 1
    or 3 words), otherwise the session grows its lanes with demand up to
    :data:`MAX_PLANNED_WORDS` words.  Raises
    :class:`~repro.errors.SimulationError` when the netlist is not
    wave-ready — streaming bit-identity is impossible without balance.
    """
    return PackedSession(
        netlist, clocking, pipelined=pipelined, track=track, lanes=lanes,
        validate=validate,
    )
