"""The fused mega-batch engine: trace fusion and experiment fusion.

Three layers of guarantees:

- :meth:`TraceArray.concat` round-trips: slicing the concatenation at
  the fragments' cumulative lengths recovers every fragment bit-for-bit
  (packed-source CSR offsets rebased, rng-built columns untouched);
- :meth:`TracePipeline.execute_array_windowed` — the batched-window plan
  — snapshots counters at window boundaries bit-identically to slicing
  the trace per window, across block boundaries, and the fused
  ``collect_trace_samples`` path emits the same samples as a manual
  per-window loop (rng streams stay aligned because every intensity's
  trace is drawn from its own seeded generator);
- :func:`repro.runtime.fused.simulate_tasks_fused` produces
  ``WorkloadRun``s bit-identical to per-workload ``run_workload`` calls
  for randomized workload subsets, window counts and seeds (hypothesis),
  and across chunk boundaries of the bounded working set.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.concurrency as concurrency
from repro.pipeline import ExperimentConfig, run_workload
from repro.runtime import fused
from repro.runtime.fused import runs_equal, simulate_tasks_fused
from repro.runtime.plan import TESTING, TRAINING, ExecutionPlan, WorkloadTask
from repro.runtime.runner import ParallelRunner
from repro.trace import TraceArray, TracePipeline, collect_trace_samples
from repro.trace.kernels import ARRAY_BUILDERS, array_builder_by_name
from repro.trace.sampling import _emit_rows
from repro.uarch.config import skylake_gold_6126
from repro.workloads import all_workloads

# ----------------------------------------------------------------------
# concat + slice: CSR round-trip
# ----------------------------------------------------------------------


def _kernel_fragments(lengths, seed=0):
    names = sorted(ARRAY_BUILDERS)
    rng = random.Random(seed)
    return [
        array_builder_by_name(names[i % len(names)])(
            n, rng.random(), random.Random(seed * 100 + i)
        )
        if n
        else TraceArray.empty()
        for i, n in enumerate(lengths)
    ]


@pytest.mark.parametrize("lengths", [(5,), (64, 0, 130, 1), (300, 300, 7)])
def test_concat_segments_round_trips_fragments(lengths):
    fragments = _kernel_fragments(lengths, seed=3)
    fused = TraceArray.concat(fragments)
    offsets = np.cumsum((0,) + lengths)

    assert len(fused) == sum(lengths)
    # The fused CSR stays well-formed: monotone offsets spanning exactly
    # the packed values.
    assert fused.src_offsets[0] == 0
    assert fused.src_offsets[-1] == len(fused.src_values)
    assert (np.diff(fused.src_offsets) >= 0).all()

    for index, fragment in enumerate(fragments):
        recovered = fused.slice(int(offsets[index]), int(offsets[index + 1]))
        assert recovered == fragment, index
        # Slice rebases the packed sources to stand alone.
        if len(recovered):
            assert recovered.src_offsets[0] == 0
            assert recovered.src_offsets[-1] == len(recovered.src_values)


def test_concat_segments_round_trips_microops():
    fragments = _kernel_fragments((40, 25, 60), seed=9)
    fused = TraceArray.concat(fragments)
    offsets = np.cumsum((0, 40, 25, 60))
    for index, fragment in enumerate(fragments):
        sliced = fused.slice(int(offsets[index]), int(offsets[index + 1]))
        assert sliced.to_microops() == fragment.to_microops()


# ----------------------------------------------------------------------
# Windowed execution: one fused pass == per-window slicing
# ----------------------------------------------------------------------


@settings(max_examples=12, deadline=None)
@given(
    kernel=st.sampled_from(sorted(ARRAY_BUILDERS)),
    seed=st.integers(min_value=0, max_value=500),
    n_uops=st.integers(min_value=1, max_value=3_000),
    window=st.integers(min_value=1, max_value=900),
)
def test_execute_array_windowed_matches_sliced_windows(
    kernel, seed, n_uops, window
):
    trace = array_builder_by_name(kernel)(n_uops, 0.6, random.Random(seed))

    sliced = TracePipeline()
    expected = []
    for start in range(0, n_uops, window):
        sliced.execute_array(trace.slice(start, min(start + window, n_uops)))
        expected.append(sliced.snapshot())

    fused = TracePipeline()
    # A small block size forces windows to straddle block boundaries.
    got = fused._execute_windowed_fast(
        trace, list(range(window, n_uops, window)) + [n_uops], 1_024
    )

    assert [s.as_dict() for s in got] == [s.as_dict() for s in expected]
    assert fused.counters.as_dict() == sliced.counters.as_dict()
    assert fused._register_ready == sliced._register_ready
    assert fused._retired == sliced._retired


def test_collect_trace_samples_fused_matches_per_window_loop():
    """The fused sampling path vs a manual build/slice/emit loop.

    Equality here pins the rng-stream alignment across segment
    boundaries: both paths must draw each intensity's trace from its own
    ``Random(seed * 1000 + round)`` generator, so fusing the traces
    afterwards cannot perturb any column.
    """
    kwargs = dict(
        n_uops=4_000, window_uops=700, intensities=(0.2, 0.5, 0.9), seed=11
    )
    fused_run = collect_trace_samples("mixed", **kwargs)

    metrics, times, works, counts = [], [], [], []
    instructions = cycles = 0
    for round_index, intensity in enumerate(kwargs["intensities"]):
        rng = random.Random(kwargs["seed"] * 1_000 + round_index)
        trace = array_builder_by_name("mixed")(
            kwargs["n_uops"], intensity, rng
        )
        pipeline = TracePipeline()
        previous = pipeline.snapshot()
        for start in range(0, kwargs["n_uops"], kwargs["window_uops"]):
            pipeline.execute_array(
                trace.slice(
                    start, min(start + kwargs["window_uops"], kwargs["n_uops"])
                )
            )
            previous = _emit_rows(
                pipeline.snapshot(), previous, metrics, times, works, counts
            )
        instructions += pipeline.counters.instructions
        cycles += pipeline.counters.cycles
        final = pipeline.counters.as_dict()

    assert fused_run.instructions == instructions
    assert fused_run.cycles == cycles
    assert fused_run.final_counters == final
    columns = fused_run.samples.columns()
    assert list(columns.metric_names) == sorted(
        set(metrics), key=metrics.index
    )
    assert columns.time.tolist() == times
    assert columns.work.tolist() == works
    assert columns.metric_count.tolist() == counts


# ----------------------------------------------------------------------
# Fused experiment engine: hypothesis parity vs per-workload runs
# ----------------------------------------------------------------------


def _subset_tasks(indices, windows):
    suite = all_workloads()
    return [
        WorkloadTask(
            workload=suite[index % len(suite)],
            role=TRAINING if position % 2 else TESTING,
            n_windows=window,
        )
        for position, (index, window) in enumerate(zip(indices, windows))
    ]


@settings(max_examples=8, deadline=None)
@given(
    indices=st.lists(
        st.integers(min_value=0, max_value=26),
        min_size=2,
        max_size=4,
        unique=True,
    ),
    windows=st.lists(
        st.integers(min_value=6, max_value=18), min_size=4, max_size=4
    ),
    seed=st.integers(min_value=0, max_value=50),
)
def test_fused_mega_batch_matches_per_workload(indices, windows, seed):
    config = ExperimentConfig(windows_per_period=6, seed=seed)
    machine = skylake_gold_6126()
    tasks = _subset_tasks(indices, windows)

    fused = simulate_tasks_fused(tasks, machine, config)
    for task, fused_run in zip(tasks, fused):
        oracle = run_workload(task.workload, machine, task.n_windows, config)
        assert runs_equal(fused_run, oracle), task.name


# Window counts against a chunk budget of 16: the second task straddles
# the budget, the two tasks fill it exactly, and the middle task is
# larger than the budget on its own.
CHUNK_CASES = {
    "straddle": ((10, 10, 6), [[10], [10, 6]]),
    "exact": ((8, 8, 9), [[8, 8], [9]]),
    "oversized": ((6, 40, 7), [[6], [40], [7]]),
}


# Collection shapes that move the (period, group) cell arithmetic:
# config knobs, task window counts, and a chunk budget (None keeps the
# default).  With windows_per_period=100 the 7-window task's only period
# never fills and the 250-window task ends on a partial one; 17 and 50
# windows end mid-period and mid-rotation of the event groups.
SHAPE_CASES = {
    "unmultiplexed": (dict(multiplex=False, windows_per_period=6), (13, 8), None),
    "one-window-periods": (dict(windows_per_period=1), (13, 8), None),
    "unfilled-periods": (dict(windows_per_period=100), (7, 250), None),
    "ragged-tails": (dict(windows_per_period=6), (17, 50), None),
    "chunk-split": (dict(windows_per_period=6), (17, 20, 50, 9), 40),
}


@pytest.mark.parametrize("case", SHAPE_CASES)
def test_fused_collection_shapes_match_per_workload(monkeypatch, case):
    knobs, windows, budget = SHAPE_CASES[case]
    if budget is not None:
        monkeypatch.setattr(fused, "CHUNK_WINDOWS", budget)
    config = ExperimentConfig(seed=5, **knobs)
    machine = skylake_gold_6126()
    tasks = _subset_tasks((2, 11, 20, 25), windows)

    runs = simulate_tasks_fused(tasks, machine, config)
    assert len(runs) == len(tasks)
    for task, fused_run in zip(tasks, runs):
        oracle = run_workload(task.workload, machine, task.n_windows, config)
        assert runs_equal(fused_run, oracle), task.name


@pytest.mark.parametrize("case", CHUNK_CASES)
def test_fused_chunk_boundaries_match_per_workload(monkeypatch, case):
    windows, expected_chunks = CHUNK_CASES[case]
    monkeypatch.setattr(fused, "CHUNK_WINDOWS", 16)
    # The spy sees only this process's calls, so keep every chunk here:
    # on more than one CPU the chunks would be dealt to forked children.
    monkeypatch.setattr(concurrency, "available_cpus", lambda: 1)
    chunks = []
    build = fused.build_fused_plan

    def spy(tasks, machine, config):
        chunks.append([task.n_windows for task in tasks])
        return build(tasks, machine, config)

    monkeypatch.setattr(fused, "build_fused_plan", spy)
    config = ExperimentConfig(windows_per_period=6, seed=11)
    machine = skylake_gold_6126()
    tasks = _subset_tasks((3, 9, 17), windows)

    runs = simulate_tasks_fused(tasks, machine, config)
    assert chunks == expected_chunks
    assert len(runs) == len(tasks)
    for task, fused_run in zip(tasks, runs):
        oracle = run_workload(task.workload, machine, task.n_windows, config)
        assert runs_equal(fused_run, oracle), task.name


def test_fused_engine_scalar_fallback_routes_oracle(monkeypatch):
    # The engine reads no switch: under SPIRE_SCALAR_FALLBACK=1 the runner
    # must send every task to run_workload, the engine's oracle, and never
    # enter the engine.
    import repro.pipeline

    tasks = _subset_tasks((0, 5, 9), (6, 6, 6))
    plan = ExecutionPlan(
        tasks=tuple(tasks),
        machine=skylake_gold_6126(),
        config=ExperimentConfig(windows_per_period=6, seed=1),
    )
    ran = []
    oracle = repro.pipeline.run_workload

    def spy(workload, *args, **kwargs):
        ran.append(workload.name)
        return oracle(workload, *args, **kwargs)

    def refuse(*args, **kwargs):
        raise AssertionError("the fused engine ran")

    monkeypatch.setattr(repro.pipeline, "run_workload", spy)
    monkeypatch.setattr(fused, "simulate_tasks_fused", refuse)
    monkeypatch.setenv("SPIRE_SCALAR_FALLBACK", "1")
    runs = ParallelRunner().run(plan)
    assert ran == [task.name for task in tasks]
    assert all(run is not None for run in runs)

    monkeypatch.delenv("SPIRE_SCALAR_FALLBACK")
    with pytest.raises(AssertionError, match="the fused engine ran"):
        ParallelRunner().run(plan)
