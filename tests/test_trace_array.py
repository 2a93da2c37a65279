"""Columnar trace substrate: TraceArray semantics and scalar parity.

Two layers of guarantees:

- :class:`TraceArray` is a lossless columnar mirror of ``MicroOp`` lists
  (round-trip, slicing, concatenation, validation);
- every vectorized simulation kernel — gshare ``update_batch``, cache
  ``access_batch``, ``TracePipeline.execute_array``, the columnar kernel
  builders, vectorized sampling, and the batched uarch ``simulate_run``
  — is **bit-exact** against its scalar reference, pinned on randomized
  hypothesis inputs including mispredict redirects and ROB-full stalls.
"""

import random
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError, DegradedDataWarning
from repro.guard import GuardConfig, reset_guards
from repro.trace import wavefront
from repro.trace import (
    KERNELS,
    CacheHierarchy,
    GsharePredictor,
    PipelineConfig,
    TracePipeline,
    TraceArray,
    collect_trace_samples,
    make_kernel_trace,
    make_kernel_trace_array,
)
from repro.trace.cache import LEVELS
from repro.trace.pipeline import _FU_PRUNE_AT
from repro.trace.trace_array import KIND_CODES, LATENCY_BY_CODE
from repro.trace.uops import EXEC_LATENCY, KINDS, MicroOp
from repro.uarch.activity import WindowActivity
from repro.uarch.config import skylake_gold_6126
from repro.uarch.core import CoreModel
from repro.workloads import all_workloads

# ----------------------------------------------------------------------
# TraceArray semantics
# ----------------------------------------------------------------------


def _sample_ops() -> list[MicroOp]:
    return [
        MicroOp("alu", dest=1, sources=(2, 3), pc=0),
        MicroOp("load", dest=2, sources=(1,), address=4096, pc=4),
        MicroOp("store", sources=(2, 1), address=4160, pc=8),
        MicroOp("branch", sources=(2,), taken=True, pc=12),
        MicroOp("div", dest=3, sources=(1, 2), pc=16),
        MicroOp("fp", dest=4, sources=(), pc=20),  # zero sources
        MicroOp("branch", taken=False, pc=24),     # zero sources too
    ]


def test_kind_codes_intern_the_canonical_kinds_tuple():
    assert list(KIND_CODES) == list(KINDS)
    assert [KIND_CODES[name] for name in KINDS] == list(range(len(KINDS)))
    assert LATENCY_BY_CODE.tolist() == [EXEC_LATENCY[name] for name in KINDS]


def test_round_trip_is_lossless():
    ops = _sample_ops()
    array = TraceArray.from_microops(ops)
    assert len(array) == len(ops)
    assert array.to_microops() == ops
    # And the columnar equality agrees with itself after a second trip.
    assert TraceArray.from_microops(array.to_microops()) == array


def test_round_trip_on_kernel_traces():
    for kernel in ("stream", "mixed"):
        ops = make_kernel_trace(kernel, 400, 0.5, seed=9)
        assert TraceArray.from_microops(ops).to_microops() == ops


def test_packed_sources_edge_cases():
    ops = _sample_ops()
    array = TraceArray.from_microops(ops)
    # CSR layout: offsets monotone, one span per uop, empty spans allowed.
    assert array.src_offsets[0] == 0
    assert array.src_offsets[-1] == len(array.src_values)
    spans = [
        tuple(
            array.src_values[array.src_offsets[i] : array.src_offsets[i + 1]]
        )
        for i in range(len(array))
    ]
    assert spans == [op.sources for op in ops]

    empty = TraceArray.empty()
    assert len(empty) == 0 and not empty
    assert empty.to_microops() == []
    assert empty.max_register() == -1


def test_slice_rebases_packed_sources():
    array = TraceArray.from_microops(_sample_ops())
    window = array.slice(2, 5)
    assert window.src_offsets[0] == 0
    assert window.to_microops() == _sample_ops()[2:5]
    assert array.slice(0, len(array)) == array
    assert len(array.slice(3, 3)) == 0
    with pytest.raises(ConfigError):
        array.slice(3, 2)
    with pytest.raises(ConfigError):
        array.slice(0, len(array) + 1)


def test_concat_rebases_packed_sources():
    ops = _sample_ops()
    parts = [
        TraceArray.from_microops(ops[:2]),
        TraceArray.empty(),
        TraceArray.from_microops(ops[2:]),
    ]
    merged = TraceArray.concat(parts)
    assert merged == TraceArray.from_microops(ops)
    assert TraceArray.concat([]) == TraceArray.empty()


def test_max_register():
    array = TraceArray.from_microops(_sample_ops())
    assert array.max_register() == 4


def test_validation_rejects_malformed_columns():
    with pytest.raises(ConfigError):  # length mismatch
        TraceArray([0], [0, 4], [-1], [1], [False], [0, 0], [])
    with pytest.raises(ConfigError):  # bad offsets length
        TraceArray([0], [0], [-1], [1], [False], [0], [])
    with pytest.raises(ConfigError):  # kind code out of range
        TraceArray([len(KINDS)], [0], [-1], [1], [False], [0, 0], [])
    # validate(): load without address, branch writing a register,
    # negative packed source register.
    with pytest.raises(ConfigError):
        TraceArray(
            [KIND_CODES["load"]], [0], [-1], [1], [False], [0, 0], []
        ).validate()
    with pytest.raises(ConfigError):
        TraceArray(
            [KIND_CODES["branch"]], [0], [-1], [1], [True], [0, 0], []
        ).validate()
    with pytest.raises(ConfigError):
        TraceArray(
            [KIND_CODES["alu"]], [0], [-1], [1], [False], [0, 1], [-2]
        ).validate()


def test_from_microops_rejects_negative_register_ids():
    with pytest.raises(ConfigError):
        TraceArray.from_microops([MicroOp("alu", dest=-2, sources=(1,))])
    with pytest.raises(ConfigError):
        TraceArray.from_microops([MicroOp("alu", dest=1, sources=(-3,))])


# ----------------------------------------------------------------------
# Columnar kernel builders match the scalar generators exactly
# ----------------------------------------------------------------------


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_array_builders_match_generators(kernel):
    for n, intensity, seed in ((64, 0.0, 0), (500, 0.3, 7), (1200, 1.0, 3)):
        scalar = TraceArray.from_microops(
            make_kernel_trace(kernel, n, intensity, seed=seed)
        )
        columnar = make_kernel_trace_array(kernel, n, intensity, seed=seed)
        assert columnar == scalar, (kernel, n, intensity, seed)


def test_make_kernel_trace_array_fallback_routes_scalar(monkeypatch):
    monkeypatch.setenv("SPIRE_SCALAR_FALLBACK", "1")
    via_oracle = make_kernel_trace_array("mixed", 300, 0.5, seed=2)
    monkeypatch.delenv("SPIRE_SCALAR_FALLBACK")
    assert via_oracle == make_kernel_trace_array("mixed", 300, 0.5, seed=2)


def test_execute_array_fallback_routes_through_scalar_execute(monkeypatch):
    monkeypatch.setenv("SPIRE_SCALAR_FALLBACK", "1")
    pipeline = TracePipeline()
    calls = []
    original = TracePipeline.execute

    def spy(self, trace):
        calls.append(len(trace))
        return original(self, trace)

    monkeypatch.setattr(TracePipeline, "execute", spy)
    trace = make_kernel_trace_array("stream", 200, 0.4, seed=1)
    pipeline.execute_array(trace)
    assert calls == [200]


# ----------------------------------------------------------------------
# Hypothesis parity: vectorized kernels vs scalar references
# ----------------------------------------------------------------------


@st.composite
def branch_streams(draw):
    seed = draw(st.integers(min_value=0, max_value=10_000))
    n = draw(st.integers(min_value=1, max_value=600))
    table_bits = draw(st.sampled_from((4, 8, 12)))
    history_bits = draw(st.integers(min_value=0, max_value=table_bits))
    rng = random.Random(seed)
    pcs = [rng.randrange(1 << 16) * 4 for _ in range(n)]
    taken = [rng.random() < 0.5 for _ in range(n)]
    return table_bits, history_bits, pcs, taken


@settings(max_examples=40, deadline=None)
@given(branch_streams())
def test_gshare_update_batch_matches_scalar(stream):
    table_bits, history_bits, pcs, taken = stream
    scalar = GsharePredictor(table_bits, history_bits)
    batch = GsharePredictor(table_bits, history_bits)
    expected = [scalar.update(pc, t) for pc, t in zip(pcs, taken)]
    got = batch.update_batch(pcs, taken)
    assert got.tolist() == expected
    assert batch._table == scalar._table
    assert batch._history == scalar._history
    assert batch.predictions == scalar.predictions
    assert batch.mispredictions == scalar.mispredictions


@st.composite
def address_streams(draw):
    seed = draw(st.integers(min_value=0, max_value=10_000))
    n = draw(st.integers(min_value=1, max_value=800))
    # Footprints straddling every hierarchy level, with enough reuse to
    # exercise LRU hits, evictions, and same-line runs.
    footprint = draw(st.sampled_from((1 << 12, 1 << 16, 1 << 21, 1 << 24)))
    rng = random.Random(seed)
    return [rng.randrange(footprint) for _ in range(n)]


@settings(max_examples=40, deadline=None)
@given(address_streams())
def test_cache_hierarchy_access_batch_matches_scalar(addresses):
    scalar = CacheHierarchy(l1_size=4096, l2_size=32 * 1024, l3_size=256 * 1024)
    batch = CacheHierarchy(l1_size=4096, l2_size=32 * 1024, l3_size=256 * 1024)
    expected = [scalar.access(address) for address in addresses]
    levels, latencies = batch.access_batch(addresses)
    assert [LEVELS[code] for code in levels.tolist()] == [
        r.level for r in expected
    ]
    assert latencies.tolist() == [r.latency for r in expected]
    for level_name in ("l1", "l2", "l3"):
        scalar_level = getattr(scalar, level_name)
        batch_level = getattr(batch, level_name)
        assert (batch_level.hits, batch_level.misses) == (
            scalar_level.hits,
            scalar_level.misses,
        ), level_name
        # Replacement state agrees too: mixing scalar accesses after a
        # batch must behave identically.
        assert all(
            batch_level.contains(a) == scalar_level.contains(a)
            for a in addresses[:32]
        )
    assert batch.dram_accesses == scalar.dram_accesses


@st.composite
def random_trace_arrays(draw):
    seed = draw(st.integers(min_value=0, max_value=10_000))
    n = draw(st.integers(min_value=1, max_value=1_500))
    rng = random.Random(seed)
    ops = []
    for i in range(n):
        kind = rng.choice(KINDS)
        sources = tuple(
            rng.randint(0, 16) for _ in range(rng.randint(0, 2))
        )
        if kind in ("load", "store"):
            ops.append(
                MicroOp(
                    kind,
                    dest=rng.randint(1, 16) if kind == "load" else None,
                    sources=sources,
                    address=rng.randrange(1 << 22),
                    pc=(i % 512) * 4,
                )
            )
        elif kind == "branch":
            # Random outcomes guarantee mispredict redirects.
            ops.append(
                MicroOp(
                    "branch",
                    sources=sources,
                    taken=rng.random() < 0.5,
                    pc=(i % 512) * 4,
                )
            )
        else:
            ops.append(
                MicroOp(kind, dest=rng.randint(1, 16), sources=sources,
                        pc=(i % 512) * 4)
            )
    return ops


def _assert_pipelines_equal(scalar: TracePipeline, batch: TracePipeline):
    assert batch.counters.as_dict() == scalar.counters.as_dict()
    assert batch._fetch_ready == scalar._fetch_ready
    # One deque holds the ROB; the retire window is its last `width`.
    assert batch._retired == scalar._retired
    assert batch._register_ready == scalar._register_ready


@settings(max_examples=25, deadline=None)
@given(random_trace_arrays())
def test_execute_array_matches_execute_on_random_traces(ops):
    # A tiny ROB and retire width force rob-full and retire-limit stalls
    # alongside the mispredict redirects the random outcomes produce.
    config = PipelineConfig(width=2, rob_size=8)
    scalar = TracePipeline(config=config)
    batch = TracePipeline(config=config)
    scalar.execute(ops)
    batch.execute_array(TraceArray.from_microops(ops), block_size=256)
    assert scalar.counters.rob_stall_cycles >= 0
    _assert_pipelines_equal(scalar, batch)


@settings(max_examples=10, deadline=None)
@given(random_trace_arrays())
def test_execute_array_matches_execute_default_config(ops):
    scalar = TracePipeline()
    batch = TracePipeline()
    scalar.execute(ops)
    batch.execute_array(TraceArray.from_microops(ops))
    _assert_pipelines_equal(scalar, batch)


def test_execute_array_forces_rob_full_stalls():
    # Long-latency divides back up a tiny ROB: both paths must agree on
    # the resulting rob_stall_cycles, and they must actually occur.
    ops = [
        MicroOp("div", dest=(i % 8) + 1, sources=((i % 8) + 1,), pc=i * 4)
        for i in range(64)
    ]
    config = PipelineConfig(width=2, rob_size=4)
    scalar = TracePipeline(config=config)
    batch = TracePipeline(config=config)
    scalar.execute(ops)
    batch.execute_array(TraceArray.from_microops(ops))
    assert scalar.counters.rob_stall_cycles > 0
    _assert_pipelines_equal(scalar, batch)


# ----------------------------------------------------------------------
# End-to-end parity: sampling and the batched uarch model
# ----------------------------------------------------------------------


@pytest.mark.parametrize("kernel", ("stream", "branchy", "mixed"))
def test_sampling_parity_scalar_vs_vectorized(monkeypatch, kernel):
    monkeypatch.setenv("SPIRE_SCALAR_FALLBACK", "1")
    scalar = collect_trace_samples(
        kernel, n_uops=3_000, window_uops=500, intensities=(0.2, 0.8), seed=5
    )
    monkeypatch.delenv("SPIRE_SCALAR_FALLBACK")
    vectorized = collect_trace_samples(
        kernel, n_uops=3_000, window_uops=500, intensities=(0.2, 0.8), seed=5
    )
    assert vectorized.final_counters == scalar.final_counters
    assert vectorized.instructions == scalar.instructions
    assert vectorized.cycles == scalar.cycles
    assert vectorized.samples.to_records() == scalar.samples.to_records()


def _suite_specs():
    return [
        phase.spec if hasattr(phase, "spec") else phase
        for workload in all_workloads()
        for phase in workload.phases
    ]


def _rng_pair(seed, cached_gauss=False):
    """Two identical rngs (or Nones); ``cached_gauss`` leaves a Box–Muller
    second half in ``gauss_next`` on entry."""
    if seed is None:
        return None, None
    pair = random.Random(seed), random.Random(seed)
    if cached_gauss:
        for rng in pair:
            rng.gauss(0.0, 1.0)
    return pair


# (core keyword arguments, seed, gauss_next cached on entry).  jitter=0
# draws 1 normal per window and measurement_noise=0 draws 11, so in both
# a Box–Muller pair straddles a window boundary.
SIMULATE_RUN_CASES = {
    "None": ({}, None, False),
    "7": ({}, 7, False),
    "jitter0": ({"jitter": 0}, 7, False),
    "noise0": ({"measurement_noise": 0}, 7, False),
    "cached-gauss": ({}, 7, True),
}


@pytest.mark.parametrize("case", SIMULATE_RUN_CASES)
def test_simulate_run_batch_matches_simulate_window(case):
    core_kwargs, seed, cached_gauss = SIMULATE_RUN_CASES[case]
    core = CoreModel(skylake_gold_6126(), **core_kwargs)
    specs = _suite_specs()
    rng_a, rng_b = _rng_pair(seed, cached_gauss)
    scalar = [core.simulate_window(spec, rng_a) for spec in specs]
    batch = core.simulate_run(specs, rng_b)
    names = [spec.name for spec in fields(WindowActivity)]
    for scalar_act, batch_act in zip(scalar, batch, strict=True):
        for name in names:
            assert getattr(batch_act, name) == getattr(scalar_act, name), name
    if seed is not None:  # the rng streams stayed in lockstep
        assert rng_b.getstate() == rng_a.getstate()


def test_simulate_run_guard_checks_the_rng_stream(monkeypatch):
    """Matching activities are not enough: a batch path that leaves the
    rng elsewhere is a divergence, and the caller's rng continues the
    scalar stream."""
    from repro.guard.dispatch import GuardConfig, health_report, reset_guards
    from repro.uarch import batch

    original = batch.simulate_run_batch

    def stray_draw(core, specs, rng):
        result = original(core, specs, rng)
        rng.random()
        return result

    monkeypatch.setattr(batch, "simulate_run_batch", stray_draw)
    core = CoreModel(skylake_gold_6126())
    specs = _suite_specs()
    rng_a, rng_b = _rng_pair(3)
    scalar = [core.simulate_window(spec, rng_a) for spec in specs]
    reset_guards(GuardConfig(check_rate=1))
    try:
        with pytest.warns(DegradedDataWarning, match="simulate_run"):
            assert core.simulate_run(specs, rng_b) == scalar
        assert rng_b.getstate() == rng_a.getstate()
        health = health_report()
        assert [event.kernel for event in health.divergences] == ["simulate_run"]
        assert health.kernels["simulate_run"].tripped
    finally:
        reset_guards()


@settings(max_examples=60, deadline=None)
@given(
    seed=st.one_of(
        st.sampled_from((0, 2**31 - 2)),
        st.integers(min_value=0, max_value=2**31 - 2),
    ),
    n_windows=st.integers(min_value=1, max_value=1_500),
    jitter=st.booleans(),
    noise=st.booleans(),
    cached_gauss=st.booleans(),
)
def test_bulk_draws_match_scalar_lognormals(
    seed, n_windows, jitter, noise, cached_gauss
):
    """The bulk pre-pass equals the scalar per-window ``_lognormal``
    sequence and leaves the rng in the identical state."""
    from repro.uarch.batch import _JITTER_FIELDS, draw_run_randomness
    from repro.uarch.core import _lognormal

    core = CoreModel(
        skylake_gold_6126(),
        jitter=0.25 if jitter else 0.0,
        measurement_noise=0.01 if noise else 0.0,
    )
    bulk_rng, scalar_rng = _rng_pair(seed, cached_gauss)
    factors, noise_factors = draw_run_randomness(core, n_windows, bulk_rng)

    expected: list[float] = []
    drawn: list[float] = []
    for window in range(n_windows):
        if jitter:
            for name, multiplier, _, _ in _JITTER_FIELDS:
                expected.append(_lognormal(scalar_rng, core.jitter * multiplier))
                drawn.append(float(factors[name][window]))
        if noise:
            expected.append(_lognormal(scalar_rng, core.measurement_noise))
            drawn.append(float(noise_factors[window]))
    assert (factors is None) == (not jitter)
    assert (noise_factors is None) == (not noise)
    assert drawn == expected
    assert bulk_rng.getstate() == scalar_rng.getstate()


def test_simulate_run_fallback_routes_per_window(monkeypatch):
    monkeypatch.setenv("SPIRE_SCALAR_FALLBACK", "1")
    core = CoreModel(skylake_gold_6126())
    calls = []
    original = CoreModel.simulate_window

    def spy(self, spec, rng=None):
        calls.append(spec)
        return original(self, spec, rng)

    monkeypatch.setattr(CoreModel, "simulate_window", spy)
    specs = _suite_specs()[:5]
    core.simulate_run(specs, random.Random(1))
    assert len(calls) == 5


# ----------------------------------------------------------------------
# Block-loop parity against the per-uop oracle at small block sizes
#
# The ``wavefront`` tests keep the names they had when a closed-form
# span solver ran inside the block loop; they now pin the block loop
# alone against ``execute``, and ``repro.trace.wavefront`` holds only
# the block loop's block/uop counters.
# ----------------------------------------------------------------------


@st.composite
def clustered_trace_ops(draw):
    """Adversarial block-loop inputs.

    Same-kind clusters contend for one functional unit; cache-missing
    loads inject latency spikes; dependency chains couple rows across
    block cuts; divs, multi-source rows and mispredicting branches land
    flagged rows at random offsets, so blocks and windows cut between
    every kind of row the loop distinguishes.
    """
    seed = draw(st.integers(min_value=0, max_value=10_000))
    n = draw(st.integers(min_value=64, max_value=900))
    spiky = draw(st.booleans())
    rng = random.Random(seed)
    ops = []
    last_dest = None
    while len(ops) < n:
        kind = rng.choice(KINDS)
        for _ in range(rng.randint(1, 48)):  # FU-kind clustering
            if len(ops) >= n:
                break
            i = len(ops)
            pc = (i % 256) * 4
            sources = ()
            if last_dest is not None and rng.random() < 0.5:
                sources = (last_dest,)
                if rng.random() < 0.1:  # multi-source rows take the CSR path
                    sources = (last_dest, rng.randint(1, 16))
            if kind in ("load", "store"):
                address = (
                    rng.randrange(1 << 22)
                    if spiky and rng.random() < 0.4
                    else (i % 64) * 64
                )
                dest = rng.randint(1, 16) if kind == "load" else None
                ops.append(
                    MicroOp(
                        kind, dest=dest, sources=sources,
                        address=address, pc=pc,
                    )
                )
                last_dest = dest if dest is not None else last_dest
            elif kind == "branch":
                ops.append(
                    MicroOp(
                        "branch", sources=sources,
                        taken=rng.random() < 0.85, pc=pc,
                    )
                )
            else:
                dest = rng.randint(1, 16)
                ops.append(MicroOp(kind, dest=dest, sources=sources, pc=pc))
                last_dest = dest
    return ops


@settings(max_examples=25, deadline=None)
@given(clustered_trace_ops())
def test_wavefront_parity_on_clustered_traces(ops):
    # Small blocks cut clusters and dependence chains; the scalar
    # MicroOp loop is the ground truth.
    scalar = TracePipeline()
    batch = TracePipeline()
    scalar.execute(ops)
    batch.execute_array(TraceArray.from_microops(ops), block_size=256)
    _assert_pipelines_equal(scalar, batch)


@settings(max_examples=15, deadline=None)
@given(clustered_trace_ops())
def test_wavefront_parity_rob_boundary_straddles(ops):
    # A tiny ROB stays full, so nearly every row evicts an occupant
    # retired a few rows earlier, and every small block starts from a
    # full ROB of history carried across the cut.
    config = PipelineConfig(width=2, rob_size=8)
    scalar = TracePipeline(config=config)
    batch = TracePipeline(config=config)
    scalar.execute(ops)
    batch.execute_array(TraceArray.from_microops(ops), block_size=96)
    _assert_pipelines_equal(scalar, batch)


def test_block_loop_prunes_contended_bookings_across_blocks():
    # Independent multiplies on one unit book one cycle each, so the
    # booking dict grows by one cycle per row: a long stream crosses
    # the pruning threshold in several blocks, and the oracle keeps pace.
    n = 3 * _FU_PRUNE_AT
    ops = [MicroOp("mul", dest=1 + i % 8, pc=(i % 64) * 4) for i in range(n)]
    scalar = TracePipeline()
    batch = TracePipeline()
    sizes = []
    for start in range(0, n, 1_000):
        scalar.execute(ops[start : start + 1_000])
        batch.execute_array(
            TraceArray.from_microops(ops[start : start + 1_000]),
            block_size=384,
        )
        sizes.append(len(batch._fu_books["mul"]))
        _assert_pipelines_equal(scalar, batch)
    assert scalar.counters.fu_contention_cycles > 0
    # Pruned at block ends: the dict shrinks at least once and never
    # outgrows the threshold by more than one block (one call for the
    # oracle).
    assert any(later < earlier for earlier, later in zip(sizes, sizes[1:]))
    assert max(sizes) <= _FU_PRUNE_AT + 384
    assert len(scalar._fu_books["mul"]) <= _FU_PRUNE_AT + 1_000


@pytest.mark.parametrize("kernel", ("codebloat", "pointer_chase", "stream"))
def test_wavefront_windowed_snapshots_unchanged(kernel, monkeypatch):
    # Window boundaries settle counters between window slices of a
    # block; the sampled records must match the per-uop oracle's.
    kwargs = dict(
        n_uops=4_000, window_uops=700, intensities=(0.3, 0.9), seed=11
    )
    fast = collect_trace_samples(kernel, **kwargs)
    monkeypatch.setenv("SPIRE_SCALAR_FALLBACK", "1")
    oracle = collect_trace_samples(kernel, **kwargs)
    assert fast.final_counters == oracle.final_counters
    assert fast.instructions == oracle.instructions
    assert fast.cycles == oracle.cycles
    assert fast.samples.to_records() == oracle.samples.to_records()


def test_scalar_fallback_routes_around_wavefront(monkeypatch):
    # SPIRE_SCALAR_FALLBACK=1 must bypass the block loop entirely (zero
    # blocks recorded), not merely match its output.
    monkeypatch.setenv("SPIRE_SCALAR_FALLBACK", "1")
    wavefront.reset_stats()
    fallback = collect_trace_samples(
        "stream", n_uops=2_000, window_uops=500, seed=3
    )
    stats = wavefront.stats()
    assert stats["blocks"] == 0
    assert stats["uops"] == 0
    monkeypatch.delenv("SPIRE_SCALAR_FALLBACK")
    vectorized = collect_trace_samples(
        "stream", n_uops=2_000, window_uops=500, seed=3
    )
    assert wavefront.stats()["uops"] >= 5 * 2_000
    assert fallback.final_counters == vectorized.final_counters
    assert fallback.samples.to_records() == vectorized.samples.to_records()


@pytest.fixture
def raising_block_guard(monkeypatch):
    monkeypatch.setenv("SPIRE_GUARD_POLICY", "raise")
    monkeypatch.setenv("SPIRE_GUARD_RATE_TRACE_BLOCK_RECURRENCE", "1")
    registry = reset_guards()
    yield registry
    reset_guards()


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_block_guard_at_rate_one_runs_clean(kernel, raising_block_guard):
    # Every block is replayed through execute and compared; under the
    # raise policy a single divergence would fail the collection.
    collect_trace_samples(kernel, n_uops=3_000, window_uops=700, seed=5)
    health = raising_block_guard.health_report()
    block = health.kernels["trace.block_recurrence"]
    assert block.checks == block.calls > 0
    assert not health.divergences


def test_block_guard_injected_divergence_serves_identical_output():
    kwargs = dict(n_uops=3_000, window_uops=700, seed=5)
    registry = reset_guards(GuardConfig(check_rate=0))
    clean = collect_trace_samples("mixed", **kwargs)
    registry = reset_guards(GuardConfig(check_rate=0))
    registry.inject_divergence("trace.block_recurrence")
    with pytest.warns(DegradedDataWarning):
        faulted = collect_trace_samples("mixed", **kwargs)
    health = registry.health_report()
    reset_guards()
    assert [event.kernel for event in health.divergences] == [
        "trace.block_recurrence"
    ]
    assert health.kernels["trace.block_recurrence"].tripped
    assert faulted.final_counters == clean.final_counters
    assert faulted.samples.to_records() == clean.samples.to_records()
