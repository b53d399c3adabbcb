"""Unit tests for the phase-accurate wave simulator (the Fig. 4 model)."""

import pickle
import random

import numpy as np
import pytest

from repro.core.wavepipe import (
    ClockingScheme,
    WaveNetlist,
    WaveOutputs,
    golden_outputs,
    simulate_waves,
    wave_pipeline,
)
from repro.errors import SimulationError
from repro.suite.table import get_benchmark

from helpers import build_adder_mig, build_random_mig


def _vectors(n_inputs: int, n_waves: int, seed: int = 0):
    rng = random.Random(seed)
    return [
        [rng.random() < 0.5 for _ in range(n_inputs)] for _ in range(n_waves)
    ]


@pytest.fixture(scope="module")
def pipelined_adder():
    mig = build_adder_mig(3)
    return wave_pipeline(mig, fanout_limit=3).netlist


class TestCoherentOperation:
    def test_outputs_match_golden(self, pipelined_adder):
        vectors = _vectors(pipelined_adder.n_inputs, 8)
        report = simulate_waves(pipelined_adder, vectors)
        assert report.outputs == golden_outputs(pipelined_adder, vectors)

    def test_no_interference_on_balanced(self, pipelined_adder):
        vectors = _vectors(pipelined_adder.n_inputs, 8)
        report = simulate_waves(pipelined_adder, vectors)
        assert report.coherent
        assert report.interference == []

    def test_every_wave_retires(self, pipelined_adder):
        vectors = _vectors(pipelined_adder.n_inputs, 5)
        report = simulate_waves(pipelined_adder, vectors)
        assert report.waves_injected == 5
        assert report.waves_retired == 5

    def test_latency_equals_depth(self, pipelined_adder):
        report = simulate_waves(
            pipelined_adder, _vectors(pipelined_adder.n_inputs, 2)
        )
        assert report.latency_steps == pipelined_adder.depth()

    def test_throughput_approaches_one_third(self, pipelined_adder):
        # with many waves, retirement rate tends to 1 per 3 phases
        vectors = _vectors(pipelined_adder.n_inputs, 60)
        report = simulate_waves(pipelined_adder, vectors)
        assert report.measured_throughput() == pytest.approx(1 / 3, rel=0.15)

    def test_steady_state_throughput_is_exactly_one_third(
        self, pipelined_adder
    ):
        # the sustained rate excludes the fill/drain latency, so it hits
        # the paper's 1/p exactly even on a short stream — where the
        # end-to-end rate still under-reports
        vectors = _vectors(pipelined_adder.n_inputs, 8)
        report = simulate_waves(pipelined_adder, vectors)
        assert report.steady_state_throughput() == pytest.approx(1 / 3)
        assert report.measured_throughput() < report.steady_state_throughput()

    def test_steady_state_throughput_non_pipelined(self, pipelined_adder):
        # one wave per ceil(depth/p) cycles when waiting for retirement
        vectors = _vectors(pipelined_adder.n_inputs, 8)
        report = simulate_waves(pipelined_adder, vectors, pipelined=False)
        depth = pipelined_adder.depth()
        separation = -(-depth // 3) * 3
        assert report.steady_state_throughput() == pytest.approx(
            1 / separation
        )

    def test_steady_state_throughput_single_wave_falls_back(
        self, pipelined_adder
    ):
        # a single retirement has no steady-state interval
        report = simulate_waves(
            pipelined_adder, _vectors(pipelined_adder.n_inputs, 1)
        )
        assert (
            report.steady_state_throughput() == report.measured_throughput()
        )

    def test_pipelined_beats_sequential(self, pipelined_adder):
        vectors = _vectors(pipelined_adder.n_inputs, 30)
        pipelined = simulate_waves(pipelined_adder, vectors, pipelined=True)
        sequential = simulate_waves(pipelined_adder, vectors, pipelined=False)
        assert pipelined.steps_run < sequential.steps_run
        assert sequential.outputs == pipelined.outputs


class TestIncoherentOperation:
    def test_unbalanced_interferes(self):
        mig = build_random_mig(seed=11, n_gates=40)
        netlist = WaveNetlist.from_mig(mig)
        vectors = _vectors(netlist.n_inputs, 10, seed=1)
        report = simulate_waves(netlist, vectors)
        assert not report.coherent

    def test_strict_mode_raises(self):
        mig = build_random_mig(seed=11, n_gates=40)
        netlist = WaveNetlist.from_mig(mig)
        vectors = _vectors(netlist.n_inputs, 10, seed=1)
        with pytest.raises(SimulationError):
            simulate_waves(netlist, vectors, strict=True)

    def test_unbalanced_safe_when_sequential(self):
        # without pipelining, even an unbalanced netlist computes correctly
        # once warm (each wave fully propagates before the next entry)...
        mig = build_adder_mig(2)
        netlist = WaveNetlist.from_mig(mig)
        vectors = _vectors(netlist.n_inputs, 6, seed=2)
        report = simulate_waves(netlist, vectors, pipelined=False)
        assert report.outputs == golden_outputs(netlist, vectors)


class TestValidation:
    def test_wrong_vector_width(self, pipelined_adder):
        with pytest.raises(SimulationError):
            simulate_waves(pipelined_adder, [[True]])

    def test_depth_zero_rejected(self):
        netlist = WaveNetlist()
        netlist.add_output(netlist.add_input())
        with pytest.raises(SimulationError):
            simulate_waves(netlist, [[True]])

    def test_alternate_phase_counts(self):
        mig = build_adder_mig(2)
        netlist = wave_pipeline(mig, fanout_limit=3).netlist
        vectors = _vectors(netlist.n_inputs, 6)
        for phases in (2, 4):
            report = simulate_waves(
                netlist, vectors, clocking=ClockingScheme(phases)
            )
            assert report.outputs == golden_outputs(netlist, vectors)
            assert report.coherent


class TestWaveOutputs:
    """The report's bit-matrix type: list-like reads, exact value
    semantics, and a compact pickle."""

    @staticmethod
    def _matrix(waves, width, seed=0):
        return np.random.default_rng(seed).random((waves, width)) < 0.5

    def test_equality_against_lists_and_matrices(self):
        rows = [[True, False, True], [False, False, True]]
        outputs = WaveOutputs(rows)
        assert outputs == rows
        assert rows == outputs  # reflected through list.__eq__
        assert outputs == WaveOutputs(np.array(rows))
        assert outputs != [[True, False, True]]
        assert outputs != []
        assert outputs != [[True, False], [False, False]]
        # same bits, different shape: not equal
        assert WaveOutputs([[True, False]]) != WaveOutputs([[True], [False]])
        assert WaveOutputs([[True]]) != WaveOutputs([[False]])

    def test_zero_wave_values_are_equal_whatever_their_width(self):
        empty = WaveOutputs([])
        assert empty == []
        assert len(empty) == 0 and list(empty) == []
        narrow = WaveOutputs(np.zeros((0, 1), dtype=bool))
        wide = WaveOutputs(self._matrix(5, 142)[5:])
        assert narrow == wide == empty
        assert repr(narrow) == repr(wide) == repr(empty)

    def test_array_is_read_only(self):
        outputs = WaveOutputs(self._matrix(4, 3))
        with pytest.raises(ValueError):
            outputs.array[0, 0] = True
        with pytest.raises(ValueError):
            outputs[1:3].array[0, 0] = True
        # wrapping freezes a view, never the caller's own array
        source = self._matrix(2, 2)
        WaveOutputs(source)
        assert source.flags.writeable

    def test_rows_are_python_bools_and_slices_stay_matrices(self):
        bits = self._matrix(6, 4, seed=2)
        outputs = WaveOutputs(bits)
        assert isinstance(outputs[1:4], WaveOutputs)
        assert outputs[1:4] == bits[1:4].tolist()
        row = outputs[-1]
        assert isinstance(row, list) and row == bits[-1].tolist()
        assert all(type(bit) is bool for bit in row)
        for got, want in zip(outputs, bits.tolist()):
            assert type(got) is list and got == want
            assert all(type(bit) is bool for bit in got)
        assert outputs.tolist() == bits.tolist()
        assert np.array_equal(np.asarray(outputs), bits)
        with pytest.raises(IndexError):
            outputs[6]

    def test_repr_is_exact_not_a_numpy_summary(self):
        bits = self._matrix(64, 142, seed=4)
        flipped = bits.copy()
        flipped[32, 71] = not flipped[32, 71]
        assert repr(WaveOutputs(bits)) != repr(WaveOutputs(flipped))
        assert "..." not in repr(WaveOutputs(bits))
        assert repr(WaveOutputs(bits)) == repr(WaveOutputs(bits.copy()))

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(WaveOutputs([[True]]))

    @pytest.mark.parametrize(
        "waves,width",
        [(0, 0), (0, 142), (3, 1), (5, 7), (5, 8), (5, 9), (64, 142)],
    )
    def test_pickle_round_trip(self, waves, width):
        outputs = WaveOutputs(self._matrix(waves, width, seed=width))
        back = pickle.loads(pickle.dumps(outputs, pickle.HIGHEST_PROTOCOL))
        assert isinstance(back, WaveOutputs)
        assert back == outputs and repr(back) == repr(outputs)
        assert back.array.shape == (waves, width)
        assert not back.array.flags.writeable

    def test_report_pickles_bit_packed(self):
        """An i2c 32-wave report crosses a shard pipe in under 1 KB (its
        outputs as nested lists took ~4.8 KB)."""
        netlist = wave_pipeline(get_benchmark("i2c").build()).netlist
        vectors = _vectors(netlist.n_inputs, 32, seed=1)
        report = simulate_waves(netlist, vectors, engine="packed")
        payload = pickle.dumps(report, pickle.HIGHEST_PROTOCOL)
        assert len(payload) <= 1024
        assert pickle.loads(payload) == report

    def test_both_engines_build_the_same_type(self, pipelined_adder):
        vectors = _vectors(pipelined_adder.n_inputs, 9)
        for engine in ("python", "packed"):
            report = simulate_waves(pipelined_adder, vectors, engine=engine)
            assert isinstance(report.outputs, WaveOutputs)
            empty = simulate_waves(pipelined_adder, [], engine=engine)
            assert isinstance(empty.outputs, WaveOutputs)
            assert empty.outputs == []
