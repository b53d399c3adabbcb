"""Wave-pipelining transforms, clocking, verification, and simulation."""

from .batch import (
    LANES_PER_WORD,
    MAX_PLANNED_WORDS,
    PackedSession,
    SessionFeed,
    describe_packed_run,
    open_packed_session,
    plan_stream_batch,
    simulate_streams_packed,
    simulate_waves_packed,
)
from .kernels import (
    CompiledWaveNetlist,
    SessionSnapshot,
    SessionState,
    can_elide_tracking,
    compile_cache_stats,
    compile_netlist,
    reset_compile_cache_stats,
)
from .buffer_insertion import BufferInsertionResult, insert_buffers
from .clocking import PAPER_PHASES, ClockingScheme
from .components import Kind, NetlistStats, WaveNetlist
from .fanout import FanoutRestrictionResult, min_fogs, restrict_fanout
from .flow import PAPER_FANOUT_LIMIT, WavePipelineResult, wave_pipeline
from .simulator import (
    ENGINES,
    WaveInterference,
    WaveOutputs,
    WaveSimulationReport,
    golden_outputs,
    random_vectors,
    simulate_streams,
    simulate_waves,
)
from .verify import (
    assert_balanced,
    assert_fanout,
    check_balanced,
    check_equivalent_to_mig,
    check_fanout,
    wave_ready,
)

__all__ = [
    "BufferInsertionResult",
    "ClockingScheme",
    "CompiledWaveNetlist",
    "ENGINES",
    "FanoutRestrictionResult",
    "Kind",
    "LANES_PER_WORD",
    "MAX_PLANNED_WORDS",
    "NetlistStats",
    "PAPER_FANOUT_LIMIT",
    "PAPER_PHASES",
    "PackedSession",
    "SessionFeed",
    "SessionSnapshot",
    "SessionState",
    "WaveInterference",
    "WaveNetlist",
    "WaveOutputs",
    "WavePipelineResult",
    "WaveSimulationReport",
    "assert_balanced",
    "assert_fanout",
    "can_elide_tracking",
    "check_balanced",
    "check_equivalent_to_mig",
    "check_fanout",
    "compile_cache_stats",
    "compile_netlist",
    "describe_packed_run",
    "golden_outputs",
    "insert_buffers",
    "min_fogs",
    "open_packed_session",
    "plan_stream_batch",
    "random_vectors",
    "reset_compile_cache_stats",
    "restrict_fanout",
    "simulate_streams",
    "simulate_streams_packed",
    "simulate_waves",
    "simulate_waves_packed",
    "wave_pipeline",
    "wave_ready",
]
