"""SPIRE sample collection from the trace pipeline.

The bridge that demonstrates architecture independence: the trace
substrate's counters are chunked into fixed-size windows and emitted as
the same :class:`~repro.core.sample.Sample` records the statistical
substrate produces — ``T`` from ``trace.cycles``, ``W`` from
``trace.instructions``, ``M_x`` from each remaining counter — after which
every downstream SPIRE step (training, estimation, ranking) runs
unmodified.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.concurrency import fork_join
from repro.core.columns import SampleArray
from repro.core.sample import Sample, SampleSet
from repro.errors import ConfigError
from repro.fastpath import scalar_fallback_enabled
from repro.trace import phases, wavefront
from repro.trace.kernels import array_builder_by_name, kernel_by_name
from repro.trace.pipeline import PipelineConfig, TracePipeline

# The trace substrate's "Table III": metric -> closest bottleneck area.
TRACE_EVENT_AREAS = {
    "trace.branches": "Other",
    "trace.icache_misses": "Front-End",
    "trace.icache_stall_cycles": "Front-End",
    "trace.branch_mispredicts": "Bad Speculation",
    "trace.redirect_stall_cycles": "Bad Speculation",
    "trace.loads": "Memory",
    "trace.l1_misses": "Memory",
    "trace.l2_misses": "Memory",
    "trace.l3_misses": "Memory",
    "trace.memory_wait_cycles": "Memory",
    "trace.divides": "Core",
    "trace.divider_busy_cycles": "Core",
    "trace.rob_stall_cycles": "Core",
    "trace.operand_wait_cycles": "Core",
    "trace.fu_contention_cycles": "Core",
}

WORK_EVENT = "trace.instructions"
TIME_EVENT = "trace.cycles"

#: The intensities :func:`collect_trace_samples` runs a kernel at by default.
DEFAULT_INTENSITIES = (0.1, 0.3, 0.5, 0.7, 0.9)


@dataclass
class TraceRun:
    """One kernel execution's samples plus headline numbers."""

    samples: SampleSet
    instructions: int
    cycles: int
    final_counters: dict[str, float] = field(default_factory=dict)

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0


def collect_trace_samples(
    kernel: str,
    n_uops: int = 60_000,
    window_uops: int = 4_000,
    intensities: tuple[float, ...] = DEFAULT_INTENSITIES,
    seed: int = 0,
    config: PipelineConfig | None = None,
) -> TraceRun:
    """Run a kernel at several intensities and emit SPIRE samples.

    Each intensity gets a fresh pipeline (cold predictor and caches), its
    trace is executed in ``window_uops`` chunks, and each chunk becomes
    one sample per trace metric.

    The default path builds each intensity's trace as
    :class:`~repro.trace.trace_array.TraceArray` columns and executes it
    in a single
    :meth:`~repro.trace.pipeline.TracePipeline.execute_array_windowed`
    pass that snapshots counters at every ``window_uops`` boundary
    in-loop instead of once per ``execute_array`` call.  The rounds
    share no state, so :func:`~repro.concurrency.fork_join` runs them on
    every available CPU and returns them in round order; forked rounds
    merge their block/uop counts and phase seconds back into
    :mod:`~repro.trace.wavefront` and :mod:`~repro.trace.phases`.
    ``SPIRE_SCALAR_FALLBACK=1`` routes through the per-uop
    generator/``execute`` oracle instead, in-process.  The two paths
    produce bit-identical samples and counters.
    """
    if window_uops < 1 or n_uops < window_uops:
        raise ConfigError("need n_uops >= window_uops >= 1")
    for intensity in intensities:
        if not 0.0 <= intensity <= 1.0:
            raise ConfigError(
                f"kernel intensity must be in [0, 1], got {intensity}"
            )
    if scalar_fallback_enabled():
        return _collect_scalar(
            kernel, n_uops, window_uops, intensities, seed, config
        )
    builder = array_builder_by_name(kernel)

    def run_round(round_index: int):
        trace = builder(
            n_uops,
            intensities[round_index],
            random.Random(seed * 1_000 + round_index),
        )
        pipeline = TracePipeline(config=config)
        rows = ([], [], [], [])  # metrics, times, works, counts
        previous = pipeline.snapshot()
        for now in pipeline.execute_array_windowed(trace, window_uops):
            previous = _emit_rows(now, previous, *rows)
        counters = pipeline.counters
        return rows, counters.instructions, counters.cycles, counters.as_dict()

    rounds = fork_join(
        run_round,
        len(intensities),
        tallies=(
            (wavefront.stats, wavefront.merge),
            (phases.totals, phases.merge),
        ),
    )
    columns = ([], [], [], [])
    for rows, _, _, _ in rounds:
        for column, values in zip(columns, rows):
            column.extend(values)
    return TraceRun(
        samples=SampleSet.from_columns(SampleArray.from_lists(*columns)),
        instructions=sum(instructions for _, instructions, _, _ in rounds),
        cycles=sum(cycles for _, _, cycles, _ in rounds),
        final_counters=rounds[-1][3] if rounds else {},
    )


def _collect_scalar(
    kernel: str,
    n_uops: int,
    window_uops: int,
    intensities: tuple[float, ...],
    seed: int,
    config: PipelineConfig | None,
) -> TraceRun:
    """The reference oracle: per-uop generators and object samples."""
    generator = kernel_by_name(kernel)

    samples = SampleSet()
    total_instructions = 0
    total_cycles = 0
    final: dict[str, float] = {}
    for round_index, intensity in enumerate(intensities):
        rng = random.Random(seed * 1_000 + round_index)
        pipeline = TracePipeline(config=config)
        trace = generator(n_uops, intensity, rng)
        previous = pipeline.snapshot()
        chunk: list = []
        for uop in trace:
            chunk.append(uop)
            if len(chunk) >= window_uops:
                pipeline.execute(chunk)
                previous = _emit(samples, pipeline, previous)
                chunk = []
        if chunk:
            pipeline.execute(chunk)
            previous = _emit(samples, pipeline, previous)
        total_instructions += pipeline.counters.instructions
        total_cycles += pipeline.counters.cycles
        final = pipeline.counters.as_dict()
    return TraceRun(
        samples=samples,
        instructions=total_instructions,
        cycles=total_cycles,
        final_counters=final,
    )


def _emit(samples: SampleSet, pipeline: TracePipeline, previous):
    """Append one sample per metric for the window since ``previous``."""
    now = pipeline.snapshot()
    delta = now.delta_from(previous)
    time = delta[TIME_EVENT]
    work = delta[WORK_EVENT]
    if time <= 0:
        return now
    for metric, value in delta.items():
        if metric in (TIME_EVENT, WORK_EVENT):
            continue
        samples.add(
            Sample(metric=metric, time=time, work=work, metric_count=max(0.0, value))
        )
    return now


def _emit_rows(
    now,
    previous,
    metrics: list[str],
    times: list[float],
    works: list[float],
    counts: list[float],
):
    """Columnar :func:`_emit`: append raw rows instead of ``Sample``s."""
    delta = now.delta_from(previous)
    time = delta[TIME_EVENT]
    work = delta[WORK_EVENT]
    if time <= 0:
        return now
    for metric, value in delta.items():
        if metric in (TIME_EVENT, WORK_EVENT):
            continue
        metrics.append(metric)
        times.append(time)
        works.append(work)
        counts.append(max(0.0, value))
    return now
