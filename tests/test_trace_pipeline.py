"""Unit tests for the trace-driven pipeline and its kernels."""

import pytest

from repro.errors import ConfigError
from repro.trace import (
    PipelineConfig,
    TracePipeline,
    make_kernel_trace,
)
from repro.trace.uops import MicroOp


def run_kernel(kernel, intensity, n=15_000, config=None, seed=1):
    pipeline = TracePipeline(config=config)
    return pipeline.execute(make_kernel_trace(kernel, n, intensity, seed=seed))


class TestMicroOp:
    def test_valid_kinds_only(self):
        with pytest.raises(ConfigError):
            MicroOp("teleport")

    def test_memory_needs_address(self):
        with pytest.raises(ConfigError):
            MicroOp("load", dest=1)

    def test_branch_writes_nothing(self):
        with pytest.raises(ConfigError):
            MicroOp("branch", dest=1)

    def test_pcs_and_addresses_are_non_negative(self):
        with pytest.raises(ConfigError, match="pcs"):
            MicroOp("alu", dest=1, pc=-4)
        with pytest.raises(ConfigError, match="addresses"):
            MicroOp("load", dest=1, address=-8)

    def test_latency_lookup(self):
        assert MicroOp("div", dest=1).latency == 20
        assert MicroOp("alu", dest=1).latency == 1


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            PipelineConfig(width=0)
        with pytest.raises(ConfigError):
            PipelineConfig(rob_size=2, width=4)
        with pytest.raises(ConfigError):
            PipelineConfig(redirect_penalty=-1)


class TestKernels:
    def test_trace_length(self):
        trace = make_kernel_trace("mixed", 1000, 0.5)
        assert len(trace) == 1000

    def test_bad_kernel_rejected(self):
        with pytest.raises(ConfigError):
            make_kernel_trace("quantum", 100, 0.5)

    def test_bad_intensity_rejected(self):
        with pytest.raises(ConfigError):
            make_kernel_trace("stream", 100, 1.5)

    def test_deterministic_for_seed(self):
        a = make_kernel_trace("branchy", 500, 0.5, seed=3)
        b = make_kernel_trace("branchy", 500, 0.5, seed=3)
        assert a == b


class TestPipelineBasics:
    def test_ipc_bounded_by_width(self):
        counters = run_kernel("compute", 0.0)
        assert 0 < counters.ipc <= PipelineConfig().width

    def test_counters_monotone_accumulate(self):
        pipeline = TracePipeline()
        pipeline.execute(make_kernel_trace("mixed", 2000, 0.5))
        first = pipeline.snapshot()
        pipeline.execute(make_kernel_trace("mixed", 2000, 0.5, seed=2))
        second = pipeline.snapshot()
        assert second.instructions == first.instructions + 2000
        assert second.cycles >= first.cycles

    def test_snapshot_is_a_copy(self):
        pipeline = TracePipeline()
        snap = pipeline.snapshot()
        pipeline.execute(make_kernel_trace("compute", 100, 0.0))
        assert snap.instructions == 0

    def test_delta_from(self):
        pipeline = TracePipeline()
        before = pipeline.snapshot()
        pipeline.execute(make_kernel_trace("compute", 500, 0.0))
        delta = pipeline.snapshot().delta_from(before)
        assert delta["trace.instructions"] == 500.0

    def test_stall_counters_bounded_by_cycles(self):
        counters = run_kernel("pointer_chase", 0.6)
        assert counters.rob_stall_cycles <= counters.cycles
        assert counters.redirect_stall_cycles <= counters.cycles


class TestBottleneckBehaviour:
    """Each kernel's knob must move IPC and its matching counter."""

    def test_ilp_knob(self):
        wide = run_kernel("compute", 0.0)
        narrow = run_kernel("compute", 1.0)
        assert narrow.ipc < wide.ipc / 2

    def test_branch_knob(self):
        predictable = run_kernel("branchy", 0.0)
        chaotic = run_kernel("branchy", 1.0)
        assert predictable.branch_mispredicts < chaotic.branch_mispredicts / 10
        assert chaotic.ipc < predictable.ipc

    def test_memory_knob(self):
        resident = run_kernel("pointer_chase", 0.0, n=30_000)
        chasing = run_kernel("pointer_chase", 0.9, n=30_000)
        assert chasing.l3_misses > resident.l3_misses * 5
        assert chasing.ipc < resident.ipc / 3

    def test_memory_depth_monotone(self):
        previous_ipc = float("inf")
        for intensity in (0.0, 0.4, 0.8):
            counters = run_kernel("pointer_chase", intensity, n=30_000)
            assert counters.ipc < previous_ipc
            previous_ipc = counters.ipc

    def test_divider_knob(self):
        clean = run_kernel("divider", 0.0)
        divy = run_kernel("divider", 1.0)
        assert divy.divides > clean.divides
        assert divy.ipc < clean.ipc

    def test_stream_faster_than_chase(self):
        stream = run_kernel("stream", 0.9, n=30_000)
        chase = run_kernel("pointer_chase", 0.9, n=30_000)
        # Independent loads overlap; dependent loads serialize.
        assert stream.ipc > chase.ipc * 2

    def test_redirect_penalty_matters(self):
        cheap = run_kernel(
            "branchy", 1.0, config=PipelineConfig(redirect_penalty=0)
        )
        costly = run_kernel(
            "branchy", 1.0, config=PipelineConfig(redirect_penalty=30)
        )
        assert costly.cycles > cheap.cycles

    def test_rob_size_matters_for_memory(self):
        small = run_kernel(
            "stream", 0.9, config=PipelineConfig(rob_size=8)
        )
        large = run_kernel(
            "stream", 0.9, config=PipelineConfig(rob_size=256)
        )
        # A bigger window overlaps more independent misses.
        assert large.ipc > small.ipc


class TestInstructionCache:
    def test_small_code_footprint_hits(self):
        counters = run_kernel("codebloat", 0.0)
        assert counters.icache_misses < 300  # compulsory only

    def test_large_code_footprint_thrashes(self):
        counters = run_kernel("codebloat", 1.0)
        assert counters.icache_misses > 10_000
        assert counters.icache_stall_cycles > 0

    def test_icache_knob_monotone_in_ipc(self):
        hot = run_kernel("codebloat", 0.0)
        cold = run_kernel("codebloat", 1.0)
        assert cold.ipc < hot.ipc / 3

    def test_icache_penalty_matters(self):
        cheap = run_kernel(
            "codebloat", 1.0, config=PipelineConfig(icache_miss_penalty=1)
        )
        costly = run_kernel(
            "codebloat", 1.0, config=PipelineConfig(icache_miss_penalty=20)
        )
        assert costly.cycles > cheap.cycles

    def test_other_kernels_fit_in_icache(self):
        counters = run_kernel("compute", 0.5)
        assert counters.icache_misses < 10
