"""Kernel-layer tests: backends, tracking elision, planner calibration.

``tests/test_batch_engine.py`` pins the packed engine's default path to
the scalar oracle; this module covers the kernel matrix introduced by the
kernelized step loop (`repro.core.wavepipe.kernels`):

* every backend (fused numpy / JIT loop nest) x tracking variant
  (tracked / elided) produces reports bit-identical to the scalar
  oracle, under planner defaults and explicit ``lanes=`` overrides;
* the elided fast path is *never* taken on a netlist where the scalar
  oracle reports interference (the static safety proof), and demanding
  it there raises;
* strict-mode error messages are unchanged across every backend;
* the lane planner's cost model is monotone, respects the 16-word cap,
  and shifts with the per-backend calibration constants;
* columnar event materialization equals the per-row formula it
  replaced, on generated raw chunks in both kernels' layouts.

Without numba the ``jit`` backend runs as the uncompiled loop nest — the
exact code numba would compile — so these tests exercise the JIT code
path in both CI configurations.
"""

from functools import lru_cache
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.wavepipe import (
    BACKENDS,
    ClockingScheme,
    WaveNetlist,
    can_elide_tracking,
    compile_netlist,
    describe_packed_run,
    random_vectors,
    simulate_streams,
    simulate_streams_packed,
    simulate_waves,
    simulate_waves_packed,
    wave_pipeline,
)
from repro.core.wavepipe.batch import (
    LANES_PER_WORD,
    MAX_PLANNED_WORDS,
    _default_lane_count,
    _overlap_slots,
)
from repro.core.wavepipe.kernels import (
    PLANNER_STEP_OVERHEAD,
    _materialize_events,
    default_backend,
    planner_step_overhead,
    resolve_backend,
    set_default_backend,
)
from repro.core.wavepipe.simulator import WaveInterference
from repro.errors import SimulationError

from helpers import build_adder_mig, build_random_mig
from strategies import raw_netlists

_vectors = random_vectors


@pytest.fixture
def balanced_netlist():
    return wave_pipeline(build_adder_mig(3), fanout_limit=3).netlist


@pytest.fixture
def unbalanced_netlist():
    return WaveNetlist.from_mig(build_random_mig(seed=11, n_gates=40))


def _buf_only_phase_netlist() -> WaveNetlist:
    """Unbalanced netlist whose level-1 clock phase holds only a BUF.

    Regression shape: the fused tracked kernel once scattered
    *uninitialized* wave-id memory for phases with BUF/FOG components but
    no MAJ (the wave-id gather was guarded by ``n_maj``), producing
    phantom interference events with garbage wave ids.
    """
    netlist = WaveNetlist()
    a = netlist.add_input("a")
    b = netlist.add_input("b")
    c = netlist.add_input("c")
    delayed = netlist.add_buf(int(a))  # level 1: a BUF-only phase (p=3)
    m = netlist.add_maj(int(delayed), int(b), int(c))  # level 2, unbalanced
    netlist.add_output(int(m))
    return netlist


class TestBackendMatrix:
    """Every (backend, tracking) kernel variant equals the oracle."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("track", [None, True])
    @pytest.mark.parametrize("n_waves", [1, 40, 70])
    def test_balanced_identity(
        self, balanced_netlist, backend, track, n_waves
    ):
        vectors = _vectors(balanced_netlist.n_inputs, n_waves, seed=n_waves)
        scalar = simulate_waves(balanced_netlist, vectors, engine="python")
        packed = simulate_waves_packed(
            balanced_netlist, vectors, backend=backend, track=track
        )
        assert packed == scalar  # dataclass ==: every report field

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("n_waves", [1, 40, 70])
    def test_unbalanced_identity(
        self, unbalanced_netlist, backend, n_waves
    ):
        # interference events force the tracked kernels on both backends
        vectors = _vectors(
            unbalanced_netlist.n_inputs, n_waves, seed=n_waves
        )
        scalar = simulate_waves(unbalanced_netlist, vectors, engine="python")
        packed = simulate_waves_packed(
            unbalanced_netlist, vectors, backend=backend
        )
        assert packed == scalar
        if n_waves > 1:
            assert not packed.coherent  # the case actually interferes

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("track", [None, True])
    @pytest.mark.parametrize("lanes", [1, 7, 63, 64, 65, 100])
    def test_lanes_override_identity(
        self, balanced_netlist, unbalanced_netlist, backend, track, lanes
    ):
        # satellite: lanes= report-identity under every backend, across
        # word boundaries, tracked and elided (elided skipped where the
        # proof cannot hold)
        for netlist in (balanced_netlist, unbalanced_netlist):
            vectors = _vectors(netlist.n_inputs, 70, seed=lanes)
            scalar = simulate_waves(netlist, vectors, engine="python")
            if netlist is unbalanced_netlist and track is None:
                track_arg = True  # auto would pick tracked anyway
            else:
                track_arg = track
            packed = simulate_waves_packed(
                netlist, vectors, backend=backend, track=track_arg,
                lanes=lanes,
            )
            assert packed == scalar

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("track", [None, True])
    @pytest.mark.parametrize("n_waves", [1, 16, 70])
    def test_buf_only_phase_identity(self, backend, track, n_waves):
        # regression: a clock phase holding only BUF/FOG components must
        # still gather real wave ids in the tracked kernels (the fused
        # variant once scattered uninitialized memory here, emitting
        # phantom interference events with garbage wave ids)
        netlist = _buf_only_phase_netlist()
        vectors = _vectors(netlist.n_inputs, n_waves, seed=n_waves)
        scalar = simulate_waves(netlist, vectors, engine="python")
        packed = simulate_waves_packed(
            netlist, vectors, backend=backend, track=track
        )
        assert packed == scalar

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_streams_identity(self, balanced_netlist, backend):
        streams = [
            _vectors(balanced_netlist.n_inputs, length, seed=length)
            for length in (5, 0, 31, 12)
        ]
        oracle = simulate_streams(balanced_netlist, streams, engine="python")
        packed = simulate_streams_packed(
            balanced_netlist, streams, backend=backend
        )
        assert packed == oracle

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("pipelined", [True, False])
    def test_phase_counts_and_injection_modes(
        self, unbalanced_netlist, backend, pipelined
    ):
        for n_phases in (2, 4):
            clocking = ClockingScheme(n_phases)
            vectors = _vectors(unbalanced_netlist.n_inputs, 25, seed=3)
            scalar = simulate_waves(
                unbalanced_netlist, vectors, clocking=clocking,
                pipelined=pipelined, engine="python",
            )
            packed = simulate_waves_packed(
                unbalanced_netlist, vectors, clocking=clocking,
                pipelined=pipelined, backend=backend,
            )
            assert packed == scalar


class TestKernelMatrixOnRandomNetlists:
    """ISSUE-4 satellite: the full kernel matrix on *random* netlists.

    The PR-3 matrix tests sweep hand-picked suite circuits; this class
    sweeps every (backend x tracking) variant x {balanced, unbalanced}
    x {1, 3} state words against the scalar oracle on randomly
    generated netlists, so word-boundary behaviour is pinned on
    structures nobody curated.
    """

    N_WAVES = 150
    #: lanes=30 keeps one state word; lanes=150 forces three.
    WORDS_TO_LANES = {1: 30, 3: 150}

    @staticmethod
    @lru_cache(maxsize=None)
    def _case(balanced: bool, seed: int):
        """(netlist, vectors, scalar oracle report), memoized.

        The scalar oracle is the expensive part of every sweep cell;
        cells sharing (balanced, seed) reuse one run.
        """
        mig = build_random_mig(n_gates=24, seed=seed, n_pis=5)
        if balanced:
            netlist = wave_pipeline(mig, fanout_limit=3).netlist
        else:
            netlist = WaveNetlist.from_mig(mig)
        vectors = _vectors(
            netlist.n_inputs,
            TestKernelMatrixOnRandomNetlists.N_WAVES,
            seed=seed + 1,
        )
        scalar = simulate_waves(netlist, vectors, engine="python")
        return netlist, vectors, scalar

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("balanced", [True, False])
    @pytest.mark.parametrize("words", [1, 3])
    @pytest.mark.parametrize("seed", [5, 23])
    def test_variant_parity(self, backend, balanced, words, seed):
        netlist, vectors, scalar = self._case(balanced, seed)
        lanes = self.WORDS_TO_LANES[words]
        assert describe_packed_run(
            netlist, self.N_WAVES, lanes=lanes, backend=backend
        )["words"] == words
        # balanced netlists run the elided (auto) AND tracked variants;
        # unbalanced ones only track (elision is statically unsound
        # there, which TestElisionSafety pins separately)
        for track in ([None, True] if balanced else [None]):
            packed = simulate_waves_packed(
                netlist, vectors, backend=backend, track=track,
                lanes=lanes,
            )
            assert packed == scalar
        if not balanced and seed == 23:
            assert not scalar.coherent  # the sweep includes real events


class TestElisionSafety:
    """The elided fast path engages exactly when interference cannot."""

    def test_balanced_netlist_elides(self, balanced_netlist):
        compiled = compile_netlist(balanced_netlist)
        assert compiled.balanced
        assert can_elide_tracking(compiled, compiled.n_phases)
        info = describe_packed_run(balanced_netlist, 16)
        assert info["elided_tracking"]

    def test_unbalanced_netlist_tracks(self, unbalanced_netlist):
        compiled = compile_netlist(unbalanced_netlist)
        assert not compiled.balanced
        assert not can_elide_tracking(compiled, compiled.n_phases)
        info = describe_packed_run(unbalanced_netlist, 16)
        assert not info["elided_tracking"]

    def test_sub_minimal_separation_refused(self, balanced_netlist):
        # separations below the phase count never come out of the public
        # entry points, but the kernel-level guard must still hold
        compiled = compile_netlist(balanced_netlist)
        assert not can_elide_tracking(compiled, compiled.n_phases - 1)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_demanding_elision_on_unsafe_netlist_raises(
        self, unbalanced_netlist, backend
    ):
        vectors = _vectors(unbalanced_netlist.n_inputs, 8, seed=1)
        with pytest.raises(SimulationError, match="cannot be elided"):
            simulate_waves_packed(
                unbalanced_netlist, vectors, backend=backend, track=False
            )

    @given(
        raw_netlists(),
        st.integers(0, 2**16),
        st.integers(2, 4),
        st.integers(2, 40),
    )
    @settings(max_examples=30, deadline=None)
    def test_interfering_netlists_never_elide(
        self, netlist, seed, n_phases, n_waves
    ):
        # satellite property: wherever the scalar oracle reports
        # interference, the static proof must have refused elision (and
        # the auto path, which follows the proof, reproduces the events)
        clocking = ClockingScheme(n_phases)
        vectors = _vectors(netlist.n_inputs, n_waves, seed=seed)
        scalar = simulate_waves(
            netlist, vectors, clocking=clocking, engine="python"
        )
        compiled = compile_netlist(netlist, clocking)
        if scalar.interference:
            assert not can_elide_tracking(compiled, n_phases)
        packed = simulate_waves_packed(
            netlist, vectors, clocking=clocking
        )
        assert packed.interference == scalar.interference

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_strict_messages_unchanged(self, unbalanced_netlist, backend):
        # satellite: strict-mode errors match the scalar oracle verbatim
        # on every backend (and on forced-tracked fused)
        vectors = _vectors(unbalanced_netlist.n_inputs, 10, seed=1)
        with pytest.raises(SimulationError) as reference:
            simulate_waves(
                unbalanced_netlist, vectors, strict=True, engine="python"
            )
        with pytest.raises(SimulationError) as packed:
            simulate_waves_packed(
                unbalanced_netlist, vectors, strict=True, backend=backend
            )
        assert str(packed.value) == str(reference.value)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_strict_elided_is_silent_on_balanced(
        self, balanced_netlist, backend
    ):
        # strict mode on the elided path: no events can exist, so the
        # run completes exactly like the oracle's
        vectors = _vectors(balanced_netlist.n_inputs, 20, seed=2)
        scalar = simulate_waves(
            balanced_netlist, vectors, strict=True, engine="python"
        )
        packed = simulate_waves_packed(
            balanced_netlist, vectors, strict=True, backend=backend
        )
        assert packed == scalar


class TestPlanner:
    """Cost-model shape: monotone, word-capped, backend-calibrated."""

    @staticmethod
    def _lanes(n_waves, step_overhead, n_components=664, depth=15,
               n_phases=3):
        separation = n_phases
        warm, _ = _overlap_slots(depth, n_phases, separation, True)
        return _default_lane_count(
            n_waves, warm, separation, depth, n_components, step_overhead
        )

    def test_monotone_in_wave_count(self):
        for overhead in sorted(set(PLANNER_STEP_OVERHEAD.values())):
            counts = [
                self._lanes(n, overhead)
                for n in (1, 64, 65, 128, 500, 2000, 10_000, 200_000)
            ]
            assert counts == sorted(counts)
            assert counts[0] == 1 and counts[1] == 64  # 1 lane per wave

    def test_word_cap(self):
        for overhead in PLANNER_STEP_OVERHEAD.values():
            lanes = self._lanes(10**7, overhead)
            assert lanes <= MAX_PLANNED_WORDS * LANES_PER_WORD
            assert lanes % LANES_PER_WORD == 0  # whole words only

    def test_cheaper_lanes_plan_wider(self):
        # elided/JIT kernels move less data per lane, so their larger
        # calibration constants must never shrink the plan
        tracked = self._lanes(4096, planner_step_overhead("fused", False))
        elided = self._lanes(4096, planner_step_overhead("fused", True))
        assert elided >= tracked

    def test_constants_cover_backend_matrix(self):
        assert set(PLANNER_STEP_OVERHEAD) == {
            (backend, elided)
            for backend in BACKENDS
            for elided in (False, True)
        }
        assert all(value > 0 for value in PLANNER_STEP_OVERHEAD.values())

    def test_describe_packed_run_reflects_overrides(self, balanced_netlist):
        info = describe_packed_run(balanced_netlist, 300, lanes=130)
        assert info["lanes"] == 130
        assert info["words"] == 3
        auto = describe_packed_run(balanced_netlist, 300)
        assert auto["lanes"] % LANES_PER_WORD == 0 or auto["lanes"] == 300

    def test_plan_matches_simulation(self, balanced_netlist):
        # the described plan is the plan the run actually uses: forcing
        # the same lane count reproduces the default report bit for bit
        vectors = _vectors(balanced_netlist.n_inputs, 200, seed=9)
        info = describe_packed_run(balanced_netlist, 200)
        default = simulate_waves_packed(balanced_netlist, vectors)
        pinned = simulate_waves_packed(
            balanced_netlist, vectors, lanes=info["lanes"]
        )
        assert default == pinned


class TestBackendSelection:
    def test_unknown_backend_rejected(self, balanced_netlist):
        vectors = _vectors(balanced_netlist.n_inputs, 4, seed=0)
        with pytest.raises(SimulationError, match="unknown kernel backend"):
            simulate_waves_packed(
                balanced_netlist, vectors, backend="verilator"
            )

    def test_set_default_backend_round_trip(self):
        original = default_backend()
        try:
            set_default_backend("fused")
            assert default_backend() == "fused"
            assert resolve_backend(None) == "fused"
        finally:
            set_default_backend(None)
        assert default_backend() == original

    def test_set_default_backend_validates(self):
        with pytest.raises(SimulationError):
            set_default_backend("cuda")

    def test_env_override(self, monkeypatch):
        from repro.core.wavepipe.kernels import jit_available

        monkeypatch.setenv("REPRO_JIT", "0")
        assert default_backend() == "fused"
        # REPRO_JIT=1 is a preference, not a force: without numba the
        # uncompiled loop nest would be far slower than fused, so the
        # default falls back rather than silently degrading
        monkeypatch.setenv("REPRO_JIT", "1")
        expected = "jit" if jit_available() else "fused"
        assert default_backend() == expected


# ----------------------------------------------------------------------
# event materialization
# ----------------------------------------------------------------------
def _per_row_events(compiled, plan, chunks):
    """The per-row formula the columnar materialization replaced."""
    events = []
    p = compiled.n_phases
    for chunk in chunks:
        for flat, step, lane, wa, wb, wc in zip(
            *(np.broadcast_arrays(*chunk))
        ):
            flat, step, lane = int(flat), int(step), int(lane)
            order = flat - int(compiled.maj_ptr[step % p])
            absolute = step + int(plan.offset[lane])
            wave0 = int(plan.wave0[lane])
            ids = sorted({int(w) + wave0 for w in (wa, wb, wc) if w >= 0})
            events.append(
                (
                    int(plan.stream[lane]),
                    absolute,
                    order,
                    WaveInterference(
                        absolute, int(compiled.maj_comp[flat]), tuple(ids)
                    ),
                )
            )
    events.sort(key=lambda item: item[:3])
    return events


@st.composite
def _raw_event_chunks(draw):
    """A compiled/plan stand-in and raw chunks in both kernels' layouts.

    Fused chunks carry one scalar step and int32 wave ids; loop-nest
    chunks carry a step per event and int64 columns.  Wave ids span
    ``-2`` (constant) and ``-1`` (warming) and a narrow non-negative
    range, so repeated ids (2-id tuples) are common.  Several streams
    own contiguous lanes with non-zero ``offset``/``wave0``.
    """
    p = draw(st.integers(2, 4))
    n_maj = draw(st.integers(1, 12))
    cuts = sorted(
        draw(st.lists(st.integers(0, n_maj), min_size=p - 1, max_size=p - 1))
    )
    compiled = SimpleNamespace(
        n_phases=p,
        maj_ptr=np.array([0, *cuts, n_maj], dtype=np.int64),
        maj_comp=np.array(
            draw(st.permutations(range(100, 100 + n_maj))), dtype=np.int64
        ),
    )
    lanes_per_stream = draw(st.lists(st.integers(1, 3), min_size=1,
                                     max_size=4))
    n_lanes = sum(lanes_per_stream)
    per_lane = st.lists(st.integers(0, 40), min_size=n_lanes,
                        max_size=n_lanes)
    plan = SimpleNamespace(
        stream=np.repeat(
            np.arange(len(lanes_per_stream), dtype=np.int64),
            lanes_per_stream,
        ),
        offset=np.array(draw(per_lane), dtype=np.int64),
        wave0=np.array(draw(per_lane), dtype=np.int64),
    )
    flat = st.integers(0, n_maj - 1)
    lane = st.integers(0, n_lanes - 1)
    step = st.integers(0, 30)
    wave_id = st.integers(-2, 4)
    chunks = []
    for fused in draw(st.lists(st.booleans(), max_size=5)):
        if fused:
            rows = draw(
                st.lists(st.tuples(flat, lane, wave_id, wave_id, wave_id),
                         min_size=1, max_size=6)
            )
            f, ln, a, b, c = (np.array(col) for col in zip(*rows))
            chunks.append(
                (f.astype(np.int64), draw(step), ln.astype(np.int64),
                 a.astype(np.int32), b.astype(np.int32), c.astype(np.int32))
            )
        else:
            rows = draw(
                st.lists(
                    st.tuples(flat, step, lane, wave_id, wave_id, wave_id),
                    min_size=1, max_size=8,
                )
            )
            chunks.append(
                tuple(np.array(col, dtype=np.int64) for col in zip(*rows))
            )
    return compiled, plan, chunks


class TestMaterializeEvents:
    """``_materialize_events`` equals the per-row formula it replaced."""

    @given(_raw_event_chunks())
    @settings(max_examples=200, deadline=None)
    def test_matches_per_row_formula(self, case):
        compiled, plan, chunks = case
        events, event_stream = _materialize_events(compiled, plan, chunks)
        reference = _per_row_events(compiled, plan, chunks)
        assert events == [record[3] for record in reference]
        assert event_stream.dtype == np.int64
        assert event_stream.tolist() == [record[0] for record in reference]
        for event in events:
            assert type(event.step) is int
            assert type(event.component) is int
            assert all(type(wave) is int for wave in event.wave_ids)

    def test_no_chunks(self):
        compiled = SimpleNamespace(
            n_phases=3, maj_ptr=np.zeros(4, dtype=np.int64),
            maj_comp=np.zeros(0, dtype=np.int64),
        )
        plan = SimpleNamespace(
            stream=np.zeros(1, dtype=np.int64),
            offset=np.zeros(1, dtype=np.int64),
            wave0=np.zeros(1, dtype=np.int64),
        )
        events, event_stream = _materialize_events(compiled, plan, [])
        assert events == [] and event_stream.size == 0

    def test_stream_major_order(self):
        # stream 2's event is at an earlier absolute step than stream 1's
        # and is discovered first; the first event must still be stream
        # 1's (strict mode raises it), and stream 0 stays clean
        compiled = SimpleNamespace(
            n_phases=3, maj_ptr=np.array([0, 1, 2, 2], dtype=np.int64),
            maj_comp=np.array([7, 9], dtype=np.int64),
        )
        plan = SimpleNamespace(
            stream=np.array([0, 1, 2], dtype=np.int64),
            offset=np.array([0, 0, 0], dtype=np.int64),
            wave0=np.array([0, 0, 0], dtype=np.int64),
        )
        chunks = [
            (np.array([0]), 3, np.array([2]), np.array([0], np.int32),
             np.array([1], np.int32), np.array([-2], np.int32)),
            (np.array([1]), 10, np.array([1]), np.array([1], np.int32),
             np.array([0], np.int32), np.array([1], np.int32)),
        ]
        events, event_stream = _materialize_events(compiled, plan, chunks)
        assert event_stream.tolist() == [1, 2]
        assert events == [
            WaveInterference(10, 9, (0, 1)),
            WaveInterference(3, 7, (0, 1)),
        ]
