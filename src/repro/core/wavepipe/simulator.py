"""Phase-accurate simulation of wave-pipelined netlists.

This is the executable model of Fig. 4: every component is a clocked
non-volatile cell; a component at level L latches on clock phase
``L mod p``; the inputs latch a fresh data wave every ``p`` phases.

The simulator tracks, per component, both the Boolean value and the *wave
id* it belongs to.  On a balanced netlist every component always combines
fan-ins of a single wave and the outputs retire one coherent wave every
``p`` phases — which the simulator cross-checks against the golden
(functional) model.  On an unbalanced netlist waves interfere: a component
sees fan-ins from different waves, which the simulator reports as
:class:`WaveInterference` events (and optionally raises).

This gives the library an end-to-end, dynamic proof of the paper's premise:
path balancing is exactly what makes multi-wave operation safe.

Engines
-------
:func:`simulate_waves` is a front-end over two interchangeable engines that
produce identical :class:`WaveSimulationReport` objects (same outputs, same
interference events, in the same order):

``engine="python"``
    The reference oracle implemented in this module: one Boolean and one
    wave id per component, advanced with plain Python loops.  Simple to
    audit, but it walks every component of the active phase on every clock
    step, so it tops out around 10^3 components.

``engine="packed"``
    The bit-packed batched engine: :mod:`repro.core.wavepipe.batch` plans
    the run (the wave stream is split across lanes packed
    one-bit-per-lane into a ``(n_components, n_words)`` matrix of
    ``uint64`` words — the layout of :mod:`repro.core.simulate`, extended
    along a word axis) and :mod:`repro.core.wavepipe.kernels` executes
    the per-clock-step hot loop: one in-place numpy step loop with zero
    per-step allocations, with the per-lane wave-id tracking *elided*
    whenever the netlist's balance statically proves interference
    impossible.  Per-phase component/fan-in tables are compiled once per
    netlist revision; the lane count is unbounded — the planner fills as
    many 64-lane words as the stream warrants, using per-variant cost
    constants — so 10^4–10^5-wave streams run in one
    pass.  Lanes re-simulate a short warm-up/overlap window so that the
    coupled dynamics of adjacent waves — including interference on
    unbalanced netlists — stay bit-identical to the reference engine.
    This is the engine that reaches the paper's 10^5-component netlists
    (e.g. DIFFEQ1's 306 937 components) and the roadmap's 10^5-wave
    streams.

:func:`simulate_streams` batches many *independent* wave streams (the
serving scenario: one request = one stream) through the same netlist in a
single packed pass; each returned report is bit-identical to running
:func:`simulate_waves` on that stream alone.

Outputs
-------
Every engine returns a report's outputs as a :class:`WaveOutputs`: an
immutable ``(waves, n_outputs)`` bit matrix over a read-only bool
ndarray.  The packed engine extracts one matrix per batch and hands
each stream a row slice of it, so a report costs no per-wave Python
lists; the scalar oracle converts its rows into the same type, so a
differential comparison is a plain ``==``.  The matrix still compares
equal to the nested lists of :func:`golden_outputs`, its repr is exact,
and it pickles bit-packed for the process-shard and socket hops.

The scalar loop stays the semantic definition; the packed engine is
property-tested against it (see ``tests/test_batch_engine.py``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Optional, Sequence, Union, overload

import numpy as np

from ...errors import SimulationError
from .clocking import ClockingScheme
from .components import Kind, WaveNetlist

if TYPE_CHECKING:
    from numpy.typing import DTypeLike

#: Engine names accepted by :func:`simulate_waves`.
ENGINES = ("python", "packed")


def random_vectors(
    n_inputs: int, n_waves: int, seed: int = 0
) -> list[list[bool]]:
    """Seeded uniform random wave vectors (the drivers' shared convention).

    The CLI, the experiment runner, and the benchmarks all generate their
    stimulus through this one helper so their reports stay comparable.
    """
    rng = random.Random(seed)
    return [
        [rng.random() < 0.5 for _ in range(n_inputs)] for _ in range(n_waves)
    ]


@dataclass(frozen=True)
class WaveInterference:
    """A component combined fan-ins belonging to different waves."""

    step: int
    component: int
    wave_ids: tuple[int, ...]


class WaveOutputs:
    """Immutable ``(waves, n_outputs)`` bit matrix: one report's outputs.

    Backed by a read-only bool ndarray (:attr:`array`), so the packed
    engine hands every stream a row slice of its batch matrix without
    copying or building per-wave Python lists.  It still reads like the
    ``list[list[bool]]`` it replaces: ``len``, iteration and integer
    indexing yield rows as ``list[bool]``, a slice is another
    :class:`WaveOutputs`, and equality against a list compares
    :meth:`tolist` with it.  Two :class:`WaveOutputs` are equal when
    their shapes and bits are; every zero-wave value equals every other,
    whatever its width.

    The repr is exact (shape plus the hex of the packed bits, never a
    numpy summary), so equal reprs mean equal bits; pickling ships the
    bits packed eight to a byte.
    """

    __slots__ = ("_bits",)
    # equal to lists, which are unhashable, so unhashable itself
    __hash__ = None  # type: ignore[assignment]

    def __init__(self, bits: object) -> None:
        array = np.asarray(bits, dtype=bool)
        if array.ndim == 1 and array.size == 0:
            array = array.reshape(0, 0)  # ``[]``: no waves, width unknown
        if array.ndim != 2:
            raise SimulationError(
                f"wave outputs must be a (waves, outputs) matrix, got "
                f"shape {array.shape}"
            )
        if array.flags.writeable:
            array = array.view()  # read-only view; the owner keeps its own
            array.flags.writeable = False
        self._bits = array

    @property
    def array(self) -> np.ndarray:
        """The bits as a read-only ``(waves, n_outputs)`` bool ndarray."""
        return self._bits

    def __array__(
        self, dtype: DTypeLike = None, copy: Optional[bool] = None
    ) -> np.ndarray:
        return np.array(self._bits, dtype=dtype, copy=copy)

    def tolist(self) -> list[list[bool]]:
        return self._bits.tolist()

    def __len__(self) -> int:
        return int(self._bits.shape[0])

    def __iter__(self) -> Iterator[list[bool]]:
        return iter(self.tolist())

    @overload
    def __getitem__(self, index: int) -> list[bool]: ...

    @overload
    def __getitem__(self, index: slice) -> "WaveOutputs": ...

    def __getitem__(
        self, index: Union[int, slice]
    ) -> Union[list[bool], "WaveOutputs"]:
        if isinstance(index, slice):
            return WaveOutputs(self._bits[index])
        return self._bits[index].tolist()

    def __eq__(self, other: object) -> bool:
        if isinstance(other, WaveOutputs):
            if not len(self) and not len(other):
                return True
            return self._bits.shape == other._bits.shape and bool(
                np.array_equal(self._bits, other._bits)
            )
        return self.tolist() == other

    def __repr__(self) -> str:
        waves, width = self._bits.shape
        if not waves:
            width = 0  # zero-wave values are all equal, so they print alike
        packed = np.packbits(self._bits).tobytes().hex()
        return f"WaveOutputs({waves}x{width}:{packed})"

    def __reduce__(self) -> tuple[object, tuple[int, int, bytes]]:
        waves, width = self._bits.shape
        return (
            _unpack_wave_outputs,
            (waves, width, np.packbits(self._bits).tobytes()),
        )


def _unpack_wave_outputs(
    waves: int, width: int, packed: bytes
) -> WaveOutputs:
    """Unpickle a :class:`WaveOutputs` from its packed bits."""
    bits = np.unpackbits(
        np.frombuffer(packed, dtype=np.uint8), count=waves * width
    )
    return WaveOutputs(bits.reshape(waves, width).view(bool))


@dataclass
class WaveSimulationReport:
    """Outcome of :func:`simulate_waves` (and of every packed front-end).

    ``outputs`` holds wave *w*'s output vector in row *w* of a
    :class:`WaveOutputs` bit matrix; on a coherent run it compares equal
    to the nested lists :func:`golden_outputs` returns.
    """

    outputs: WaveOutputs
    latency_steps: int
    steps_run: int
    waves_injected: int
    waves_retired: int
    interference: list[WaveInterference] = field(default_factory=list)

    @property
    def coherent(self) -> bool:
        """True when no wave interference occurred."""
        return not self.interference

    def measured_throughput(self) -> float:
        """Retired waves per simulation step, end to end.

        The denominator includes the pipeline fill (the ``depth`` steps
        before the first retirement) and the final drain step, so short
        streams under-report the paper's sustained rate; use
        :meth:`steady_state_throughput` for the 1/p steady-state claim.
        """
        if self.steps_run == 0:
            return 0.0
        return self.waves_retired / self.steps_run

    def steady_state_throughput(self) -> float:
        """Waves retired per step between the first and last retirement.

        This is the paper's sustained rate: the fill/drain latency is
        excluded, so a pipelined run measures exactly ``1/p`` and a
        non-pipelined run ``1/(ceil(depth/p) * p)`` regardless of stream
        length.  With fewer than two retirements there is no steady-state
        interval and the end-to-end rate is returned instead.
        """
        if self.waves_retired < 2:
            return self.measured_throughput()
        # retirements happen at steps depth, depth+s, ..., steps_run-1
        span = self.steps_run - 1 - self.latency_steps
        return (self.waves_retired - 1) / span


def _check_engine(engine: str) -> None:
    """Reject unknown engine names (the one shared message for every
    front-end: :func:`simulate_waves`, :func:`simulate_streams`, and the
    experiment runner)."""
    if engine not in ENGINES:
        raise SimulationError(
            f"unknown simulation engine {engine!r}; choose from {ENGINES}"
        )


def _validate_vectors(
    netlist: WaveNetlist, vectors: Sequence[Sequence[bool]]
) -> None:
    """Shared input validation (identical errors from both engines)."""
    # hoisted out of the loop: a 10^4-wave serving batch validates every
    # wave, and the property access is pure overhead beside len()
    n_inputs = netlist.n_inputs
    if (
        isinstance(vectors, np.ndarray)
        and vectors.ndim == 2
    ):
        # rectangular block (the serving wire format): one shape check
        # stands in for every per-wave check, same error text
        if vectors.shape[0] and vectors.shape[1] != n_inputs:
            raise SimulationError(
                f"wave 0 has {vectors.shape[1]} bits, expected "
                f"{n_inputs}"
            )
        return
    for wave, vector in enumerate(vectors):
        if len(vector) != n_inputs:
            raise SimulationError(
                f"wave {wave} has {len(vector)} bits, expected "
                f"{n_inputs}"
            )


def _empty_report(depth: int) -> WaveSimulationReport:
    """Clean report for an empty wave list: zero steps, nothing retired."""
    return WaveSimulationReport(
        outputs=WaveOutputs([]),
        latency_steps=depth,
        steps_run=0,
        waves_injected=0,
        waves_retired=0,
        interference=[],
    )


def wave_separation(depth: int, n_phases: int, pipelined: bool) -> int:
    """Clock steps between consecutive wave injections.

    Inputs can only latch on their own phase, so the separation is always a
    whole number of clock cycles: ``p`` when pipelined, else the first cycle
    boundary at or after the full propagation delay.
    """
    if pipelined:
        return n_phases
    return -(-depth // n_phases) * n_phases


def simulate_waves(
    netlist: WaveNetlist,
    vectors: Sequence[Sequence[bool]],
    clocking: Optional[ClockingScheme] = None,
    pipelined: bool = True,
    strict: bool = False,
    engine: str = "python",
) -> WaveSimulationReport:
    """Drive *vectors* through *netlist* under a regeneration clock.

    Parameters
    ----------
    vectors:
        One input vector (bool per input) per wave, injected in order.
    pipelined:
        When True a new wave is injected every ``p`` phases (wave
        pipelining); when False the next wave waits for the previous one to
        retire (the paper's non-pipelined baseline).
    strict:
        Raise :class:`SimulationError` on the first interference instead of
        recording it.
    engine:
        ``"python"`` for the scalar reference loop, ``"packed"`` for the
        bit-packed batched numpy engine (identical reports, see the module
        docstring).

    Returns
    -------
    A report whose ``outputs[w]`` is the output vector of wave *w*.
    """
    _check_engine(engine)
    clocking = clocking or ClockingScheme()
    if engine == "packed":
        from .batch import simulate_waves_packed

        return simulate_waves_packed(
            netlist, vectors, clocking=clocking,
            pipelined=pipelined, strict=strict,
        )
    return _simulate_waves_python(netlist, vectors, clocking, pipelined, strict)


def simulate_streams(
    netlist: WaveNetlist,
    streams: Sequence[Sequence[Sequence[bool]]],
    clocking: Optional[ClockingScheme] = None,
    pipelined: bool = True,
    strict: bool = False,
    engine: str = "packed",
) -> list[WaveSimulationReport]:
    """Drive many independent wave streams through *netlist* in one batch.

    Each element of *streams* is a complete wave sequence (the ``vectors``
    argument of :func:`simulate_waves`); the result holds one report per
    stream, bit-identical to simulating that stream alone.  This is the
    serving front-end: with ``engine="packed"`` (the default) all streams
    are packed side by side across bit-lanes and advance together in a
    single pass, so the cost of one netlist sweep is shared by the whole
    batch.  ``engine="python"`` simulates the streams one after another
    with the scalar oracle (the reference for tests).

    In strict mode the first stream (in order) with interference raises,
    with the same message from both engines.
    """
    _check_engine(engine)
    clocking = clocking or ClockingScheme()
    if engine == "packed":
        from .batch import simulate_streams_packed

        return simulate_streams_packed(
            netlist, streams, clocking=clocking,
            pipelined=pipelined, strict=strict,
        )
    # validate the whole batch up front (the packed engine does the same),
    # so a malformed later stream or an unsimulatable netlist reports
    # before an earlier stream simulates — and identically for an empty
    # batch, where the per-stream loop would never run the checks
    for vectors in streams:
        _validate_vectors(netlist, vectors)
    if netlist.depth() == 0:
        raise SimulationError("cannot wave-simulate a depth-0 netlist")
    return [
        _simulate_waves_python(netlist, vectors, clocking, pipelined, strict)
        for vectors in streams
    ]


def _simulate_waves_python(
    netlist: WaveNetlist,
    vectors: Sequence[Sequence[bool]],
    clocking: ClockingScheme,
    pipelined: bool,
    strict: bool,
) -> WaveSimulationReport:
    """The scalar reference engine (semantic definition of the model)."""
    _validate_vectors(netlist, vectors)
    p = clocking.n_phases
    levels = netlist.levels()
    depth = netlist.depth(levels)
    if depth == 0:
        raise SimulationError("cannot wave-simulate a depth-0 netlist")
    if not vectors:
        return _empty_report(depth)

    # Components grouped by latching phase, deepest first within a phase:
    # when an unbalanced netlist connects two same-phase components, the
    # consumer must read the value *before* this step's update (all cells
    # latch simultaneously in hardware).
    by_phase: list[list[int]] = [[] for _ in range(p)]
    for component in netlist.clocked_components():
        by_phase[clocking.phase_of_level(levels[component])].append(component)
    for group in by_phase:
        group.sort(key=lambda component: -levels[component])

    n = netlist.n_components
    value = [False] * n
    wave_of = [-1] * n
    value[0] = False  # constant cell
    wave_of[0] = -2  # sentinel: constants belong to every wave

    inputs = netlist.inputs
    outputs = netlist.outputs
    output_level = depth  # balanced netlists retire at the common depth

    separation = wave_separation(depth, p, pipelined)
    n_waves = len(vectors)
    results: list[list[bool]] = [None] * n_waves  # type: ignore[list-item]
    interference: list[WaveInterference] = []

    retired = 0
    injected = 0
    last_injection_step = (n_waves - 1) * separation
    total_steps = last_injection_step + depth + 1

    for step in range(total_steps):
        phase = step % p
        # 1) inject: inputs latch on phase 0 of their separation slot
        if step % separation == 0 and step <= last_injection_step:
            wave = step // separation
            vector = vectors[wave]
            for position, component in enumerate(inputs):
                value[component] = bool(vector[position])
                wave_of[component] = wave
            injected += 1
        # 2) clocked components on this phase latch from their neighbours
        # (deepest-first order, see above).
        for component in by_phase[phase]:
            fanins = netlist.fanins(component)
            ids = set()
            bits = []
            warming_up = False
            for lit in fanins:
                node = lit >> 1
                bit = value[node] ^ bool(lit & 1)
                bits.append(bit)
                if node == 0:
                    continue
                if wave_of[node] == -1:
                    warming_up = True  # fan-in has not seen any wave yet
                elif wave_of[node] >= 0:
                    ids.add(wave_of[node])
            if len(ids) > 1:
                event = WaveInterference(step, component, tuple(sorted(ids)))
                if strict:
                    raise SimulationError(
                        f"wave interference at step {step}, component "
                        f"{component}: waves {event.wave_ids}"
                    )
                interference.append(event)
            if netlist.kind(component) == Kind.MAJ:
                a, b, c = bits
                value[component] = (a and b) or (a and c) or (b and c)
            else:  # BUF / FOG are identity
                value[component] = bits[0]
            if warming_up:
                wave_of[component] = -1
            else:
                wave_of[component] = max(ids) if ids else -2
        # 3) retire: read outputs when a wave reaches the output level
        ready_wave = (step - output_level) // separation
        if (
            step >= output_level
            and (step - output_level) % separation == 0
            and ready_wave < n_waves
            and output_level % p == phase
        ):
            results[ready_wave] = [
                value[lit >> 1] ^ bool(lit & 1) for lit in outputs
            ]
            retired += 1

    if any(result is None for result in results):
        raise SimulationError("simulation ended before every wave retired")

    return WaveSimulationReport(
        outputs=WaveOutputs(results),
        latency_steps=depth,
        steps_run=total_steps,
        waves_injected=injected,
        waves_retired=retired,
        interference=interference,
    )


def golden_outputs(
    netlist: WaveNetlist, vectors: Sequence[Sequence[bool]]
) -> list[list[bool]]:
    """Reference (functional) outputs for comparison with the wave model."""
    from ..simulate import simulate_vectors

    return simulate_vectors(netlist.to_mig(), vectors)
