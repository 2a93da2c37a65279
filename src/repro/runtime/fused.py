"""Fused mega-batch experiment engine.

Instead of simulating an experiment's workloads one at a time — 27 round
trips through :func:`repro.pipeline.run_workload`, each paying its own
column setup, formula evaluation and per-window collection loop — this
module lays the workloads' windows out as concatenated columnar plans (a
per-workload segment-index column marks the boundaries), runs the
vectorized core-model formula pass **once** per plan, evaluates every PMU
event formula **once** per plan as array expressions, and then reduces
the whole plan to per-workload
:class:`~repro.counters.collector.CollectionResult` segments with a few
array passes.  A plan holds whole tasks up to :data:`CHUNK_WINDOWS`
windows, which bounds the transient working set, and the chunks run
across the available CPUs (:func:`~repro.concurrency.fork_join`).

Bit-identity with the per-workload path is load-bearing and holds by
construction:

- the core-model formulas (:func:`repro.uarch.batch.evaluate_run_columns`)
  are elementwise, so evaluating a concatenation (of any chunk of tasks)
  equals evaluating each segment separately;
- every per-workload rng stream is drawn by its own pre-pass
  (:func:`repro.uarch.batch.draw_run_randomness`) with the same seed
  derivation, in the same order, as :func:`~repro.pipeline.run_workload`;
- every reduction replays the scalar accumulation order: each window
  carries its task's segment id, its (task, period) cell and, when
  multiplexing, its round-robin event group, and unbuffered
  ``np.add.at`` calls add the plan's windows into their accumulators in
  window order, starting from the value the scalar collector starts
  from — a sequential left fold, bitwise equal to its ``+=`` loop
  (``np.sum``/``reduceat`` would not be: they sum pairwise);
- sample rows are emitted in the exact flush order of
  :meth:`~repro.counters.collector.SampleCollector.collect` (a task's
  (period, event) grid in row-major order: period, then group, then the
  group's events), and metric ids are numbered by first appearance, so
  metric-id interning, sanitizer screening and period counting all see
  identical inputs.

Its oracle is the per-workload path, :func:`~repro.pipeline.run_workload`,
which simulates every window through the scalar
:meth:`~repro.uarch.core.CoreModel.simulate_window`; tests compare the two
with :func:`runs_equal`, and ``SPIRE_SCALAR_FALLBACK=1`` makes the runner
take the per-workload path for every task.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.concurrency import fork_join
from repro.core.columns import SampleArray
from repro.core.sample import SampleSet
from repro.core.sanitize import QualityReport, QuarantinedSample, SampleSanitizer
from repro.counters.collector import CollectionResult, SampleCollector
from repro.counters.events import EventCatalog, default_catalog
from repro.counters.pmu import PMU
from repro.errors import ConfigError
from repro.tma import TMAResult, TopDownAnalyzer
from repro.uarch.activity import WindowActivity
from repro.uarch.backend import port_activity_histogram_columns
from repro.uarch.batch import (
    apply_jitter,
    draw_run_randomness,
    evaluate_run_columns,
    workload_spec_columns,
)
from repro.uarch.config import MachineConfig
from repro.uarch.core import CoreModel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.pipeline import ExperimentConfig, WorkloadRun
    from repro.runtime.plan import WorkloadTask

__all__ = [
    "FusedBatchPlan",
    "build_fused_plan",
    "runs_equal",
    "simulate_tasks_fused",
]


@dataclass
class FusedBatchPlan:
    """A chunk of an experiment's tasks as one columnar mega-batch.

    ``segment_ids`` is the per-workload segment-index column: row ``i`` of
    every concatenated column belongs to ``tasks[segment_ids[i]]``.
    ``offsets`` is the matching CSR boundary array (``offsets[t] ..
    offsets[t + 1]`` is task ``t``'s window range).
    """

    tasks: tuple
    columns: dict[str, np.ndarray]
    instructions: np.ndarray
    noise: np.ndarray
    segment_ids: np.ndarray
    offsets: np.ndarray


def _segment_totals(
    columns: Sequence[np.ndarray],
    segments: np.ndarray,
    n_segments: int,
) -> list[list[float]]:
    """Per-segment sums of every column, one row of floats per segment.

    ``np.add.at`` is unbuffered and adds in index order, so each total is
    the scalar left fold ``0.0 + x0 + x1 + ...`` in window order.
    """
    totals = np.zeros((len(columns), n_segments))
    for total, column in zip(totals, columns):
        np.add.at(total, segments, column)
    return totals.T.tolist()


def build_fused_plan(
    tasks: Sequence["WorkloadTask"],
    machine: MachineConfig,
    config: "ExperimentConfig",
) -> FusedBatchPlan:
    """Fuse every task's windows into one concatenated columnar plan.

    Per task this draws the workload's private rng stream (same seed
    derivation and draw order as :func:`~repro.pipeline.run_workload`),
    applies the jitter, and concatenates the jittered spec columns, the
    instruction column and the measurement-noise column, tagging each row
    with its workload's segment index.
    """
    from repro.pipeline import _seed_for

    core = CoreModel(machine)
    per_task_columns: list[dict[str, np.ndarray]] = []
    per_task_instructions: list[np.ndarray] = []
    per_task_noise: list[np.ndarray] = []
    lengths: list[int] = []
    for task in tasks:
        columns, instructions = workload_spec_columns(
            task.workload, task.n_windows, config.window_instructions
        )
        rng = random.Random(_seed_for(config.seed, task.workload.name))
        factors, noise = draw_run_randomness(core, task.n_windows, rng)
        apply_jitter(columns, factors)
        if noise is None:
            # x * 1.0 is bitwise x, so a unit column is exact.
            noise = np.ones(task.n_windows)
        per_task_columns.append(columns)
        per_task_instructions.append(instructions)
        per_task_noise.append(noise)
        lengths.append(task.n_windows)

    names = per_task_columns[0].keys()
    fused_columns = {
        name: np.concatenate([cols[name] for cols in per_task_columns])
        for name in names
    }
    offsets = np.zeros(len(tasks) + 1, dtype=np.int64)
    np.cumsum(np.asarray(lengths, dtype=np.int64), out=offsets[1:])
    return FusedBatchPlan(
        tasks=tuple(tasks),
        columns=fused_columns,
        instructions=np.concatenate(per_task_instructions),
        noise=np.concatenate(per_task_noise),
        segment_ids=np.repeat(np.arange(len(tasks), dtype=np.int64), lengths),
        offsets=offsets,
    )


def _event_columns(
    catalog: EventCatalog,
    machine: MachineConfig,
    activity: WindowActivity,
    n_windows: int,
) -> dict[str, np.ndarray]:
    """Evaluate every PMU event formula once over the fused columns.

    ``activity``'s fields hold columns, so the formulas and its derived
    properties evaluate elementwise, with the scalar path's rounding.
    """
    event_columns: dict[str, np.ndarray] = {}
    for event in catalog:
        value = event.formula(activity, machine)
        if np.ndim(value) == 0:
            value = np.full(n_windows, float(value))
        if np.any(value < 0):
            index = int(np.flatnonzero(value < 0)[0])
            raise ConfigError(
                f"event {event.name} computed a negative count "
                f"{float(value[index])}"
            )
        event_columns[event.name] = value
    return event_columns


#: Most windows one fused chunk evaluates at once.  Chunks hold whole
#: tasks, so the transient columns (~130 float64 per window) stay near
#: 8 MB however large the experiment; a task larger than the budget is a
#: chunk of its own.  Chunking is bit-identical to one mega-batch: every
#: formula is elementwise and every reduction is per segment.
CHUNK_WINDOWS = 8192


def _task_chunks(tasks: Sequence["WorkloadTask"]) -> list[list["WorkloadTask"]]:
    """Split ``tasks``, in order, into runs of at most ``CHUNK_WINDOWS``."""
    chunks: list[list["WorkloadTask"]] = []
    size = 0
    for task in tasks:
        if not chunks or size + task.n_windows > CHUNK_WINDOWS:
            chunks.append([])
            size = 0
        chunks[-1].append(task)
        size += task.n_windows
    return chunks


def simulate_tasks_fused(
    tasks: Sequence["WorkloadTask"],
    machine: MachineConfig,
    config: "ExperimentConfig",
) -> list["WorkloadRun"]:
    """Simulate a task list as fused mega-batches of whole tasks.

    Returns one :class:`~repro.pipeline.WorkloadRun` per task, in order,
    bit-identical to calling :func:`~repro.pipeline.run_workload` on each
    task separately (asserted by the equivalence tests and the CI gate).
    The tasks are evaluated in chunks of at most :data:`CHUNK_WINDOWS`
    windows, which share no state, so
    :func:`~repro.concurrency.fork_join` deals them across the available
    CPUs: chunk ``i`` runs on share ``i % k``, and a forked share sends
    back each task's collection and Top-Down result.
    """
    from repro.pipeline import WorkloadRun

    collection_config = config.collection()
    catalog = default_catalog()
    # Reuse the collector's validation and constraint-aware packing so a
    # misconfigured event set fails with the same ConfigError surface.
    collector = SampleCollector(machine, catalog=catalog, config=collection_config)
    groups = collector._event_groups()
    pmu = PMU(machine, catalog)
    for group in groups:
        pmu.program(group)
    analyzer = TopDownAnalyzer(machine)
    chunks = _task_chunks(tasks)

    def simulate_chunk(index: int) -> list[tuple[CollectionResult, TMAResult]]:
        plan = build_fused_plan(chunks[index], machine, config)
        return _simulate_plan(plan, machine, collector, groups, analyzer)

    # Each task's run is rebuilt around its own workload, which a forked
    # chunk would send back as a copy.
    return [
        WorkloadRun(workload=task.workload, collection=collection, tma=tma)
        for chunk, results in zip(chunks, fork_join(simulate_chunk, len(chunks)))
        for task, (collection, tma) in zip(chunk, results)
    ]


def _simulate_plan(
    plan: FusedBatchPlan,
    machine: MachineConfig,
    collector: SampleCollector,
    groups: list[list[str]],
    analyzer: TopDownAnalyzer,
) -> list[tuple[CollectionResult, TMAResult]]:
    """Evaluate one fused plan: each task's collection and Top-Down result."""
    activity = evaluate_run_columns(
        machine, plan.columns, plan.instructions, plan.noise
    )
    (
        activity["exec_cycles_1_port"],
        activity["exec_cycles_2_ports"],
        activity["exec_cycles_3_plus_ports"],
    ) = port_activity_histogram_columns(
        activity["uops_executed"], activity["exec_active_cycles"], len(machine.ports)
    )
    events = _event_columns(
        collector.catalog, machine, WindowActivity(**activity), len(plan.instructions)
    )
    collections = _collect_chunk(
        plan, collector, groups, activity, events
    )
    return [
        (collection, analyzer.analyze(collection.full_counts))
        for collection in collections
    ]


def _collect_chunk(
    plan: FusedBatchPlan,
    collector: SampleCollector,
    groups: list[list[str]],
    activity: dict[str, np.ndarray],
    events: dict[str, np.ndarray],
) -> list[CollectionResult]:
    """Reduce a chunk's columns to one CollectionResult per task.

    Every sum runs over the whole chunk and replays the scalar collector's
    accumulation order (see the module docstring for why each step is
    bitwise exact); each task's samples are then cut from its period
    cells.
    """
    config = collector.config
    names = collector.catalog.names
    n_tasks = len(plan.tasks)
    segments = plan.segment_ids

    # The collector's event totals, cycles, instructions and switch
    # overhead start at 0.0.
    switch_cost = config.switch_overhead_cycles if config.multiplex else 0.0
    totals = _segment_totals(
        [events[name] for name in names]
        + [activity["cycles"], activity["instructions"]]
        + [np.full(len(segments), switch_cost)],
        segments,
        n_tasks,
    )
    cell_offsets, time, work, counts = _period_cells(plan, collector, groups, events)
    index_of = {name: i for i, name in enumerate(names)}
    event_ids = np.array([index_of[name] for group in groups for name in group])
    group_sizes = [len(group) for group in groups]
    results: list[CollectionResult] = []
    for index, (lo, hi) in enumerate(zip(cell_offsets[:-1], cell_offsets[1:])):
        samples, quality, periods = _emit_samples(
            names, event_ids, group_sizes, time[lo:hi], work[lo:hi], counts[lo:hi]
        )
        *event_totals, total_cycles, total_instructions, overhead = totals[index]
        results.append(
            CollectionResult(
                samples=samples,
                full_counts=dict(zip(names, event_totals)),
                total_cycles=total_cycles,
                total_instructions=total_instructions,
                overhead_cycles=overhead,
                periods=periods,
                quality=quality,
            )
        )
    return results


def _period_cells(
    plan: FusedBatchPlan,
    collector: SampleCollector,
    groups: list[list[str]],
    events: dict[str, np.ndarray],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Sum T, W and every group's events over the chunk's period cells.

    A task's window ``w`` flushes with its period ``w // windows_per_period``
    and, when multiplexing, goes to group ``w % n_groups``
    (:class:`~repro.counters.scheduling.RoundRobinScheduler`); an event
    accumulates only over its own group's windows.  Task ``t`` owns cells
    ``cell_offsets[t] .. cell_offsets[t + 1]``.  Returns ``cell_offsets``,
    (cells, groups) grids of T and W, and a (cells, events) grid of
    counts, with the groups' events in order.
    """
    config = collector.config
    segments = plan.segment_ids
    n_groups = len(groups)
    local = np.arange(len(segments)) - plan.offsets[segments]
    cell_offsets = np.zeros(len(plan.tasks) + 1, dtype=np.int64)
    np.cumsum(
        -(-np.diff(plan.offsets) // config.windows_per_period), out=cell_offsets[1:]
    )
    n_cells = int(cell_offsets[-1])
    cells = cell_offsets[segments] + local // config.windows_per_period
    if config.multiplex:
        window_group = local % n_groups
        members = [np.flatnonzero(window_group == g) for g in range(n_groups)]
    else:
        members = [slice(None)] * n_groups  # every group sees every window

    time = np.zeros((n_cells, n_groups))
    work = np.zeros((n_cells, n_groups))
    counts = np.zeros((n_cells, sum(len(group) for group in groups)))
    columns = iter(counts.T)
    for g, (group, member) in enumerate(zip(groups, members)):
        member_cells = cells[member]
        np.add.at(time[:, g], member_cells, events[collector.time_event][member])
        np.add.at(work[:, g], member_cells, events[collector.work_event][member])
        for name in group:
            np.add.at(next(columns), member_cells, events[name][member])
    return cell_offsets, time, work, counts


def _emit_samples(
    names: list[str],
    event_ids: np.ndarray,
    group_sizes: list[int],
    time: np.ndarray,
    work: np.ndarray,
    counts: np.ndarray,
) -> tuple[SampleSet, QualityReport, int]:
    """One task's sanitized samples, quality report and period count.

    Repeating each group's T and W once per event gives (period, event)
    grids whose row-major order — period, then group, then the group's
    events — is the scalar flush order.  A cell emits unless ``T <= 0``
    (a NaN T emits, as in the scalar test).
    """
    live = np.repeat(~(time <= 0), group_sizes, axis=1)
    periods, events = np.nonzero(live)
    t = np.repeat(time, group_sizes, axis=1)[live]
    w = np.repeat(work, group_sizes, axis=1)[live]
    m = counts[live]
    # Metric ids number the catalog indices by first appearance, which is
    # how SampleArray.from_samples interns the collector's samples.
    found, first, inverse = np.unique(
        event_ids[events], return_index=True, return_inverse=True
    )
    order = np.argsort(first)
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))
    array = SampleArray(rank[inverse], [names[i] for i in found[order]], t, w, m)

    # Vectorized sanitize: the predicate SampleSanitizer.check applies to
    # each value in the collector's loop, with quarantine entries in
    # emission order.
    sanitizer = SampleSanitizer()
    quality = QualityReport(total=len(array))
    bad = (
        ~np.isfinite(t) | ~np.isfinite(w) | ~np.isfinite(m)
        | (t <= 0) | (w < 0) | (m < 0)
    )
    if bad.any():
        for index in np.flatnonzero(bad):
            ti, wi, mi = float(t[index]), float(w[index]), float(m[index])
            quality.quarantined.append(
                QuarantinedSample(
                    metric=array.metric_names[int(array.metric_ids[index])],
                    reason=sanitizer.check(ti, wi, mi),
                    time=ti,
                    work=wi,
                    metric_count=mi,
                )
            )
        array = array.select(~bad)
        periods = periods[~bad]
    quality.kept = len(array)
    return SampleSet.from_columns(array), quality, int(len(np.unique(periods)))


def _floats_equal(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b


def _quality_equal(a: QualityReport, b: QualityReport) -> bool:
    if a.total != b.total or a.kept != b.kept:
        return False
    if a.dropped_metrics != b.dropped_metrics:
        return False
    if len(a.quarantined) != len(b.quarantined):
        return False
    for qa, qb in zip(a.quarantined, b.quarantined):
        if qa.metric != qb.metric or qa.reason != qb.reason:
            return False
        if not (
            _floats_equal(qa.time, qb.time)
            and _floats_equal(qa.work, qb.work)
            and _floats_equal(qa.metric_count, qb.metric_count)
        ):
            return False
    return True


def runs_equal(a: "WorkloadRun", b: "WorkloadRun") -> bool:
    """Bitwise equality of two workload runs (the fused parity predicate)."""
    ca, cb = a.collection, b.collection
    sa, sb = ca.samples.columns(), cb.samples.columns()
    return (
        a.workload == b.workload
        and sa.metric_names == sb.metric_names
        and np.array_equal(sa.metric_ids, sb.metric_ids)
        and np.array_equal(sa.time, sb.time)
        and np.array_equal(sa.work, sb.work)
        and np.array_equal(sa.metric_count, sb.metric_count)
        and ca.full_counts == cb.full_counts
        and ca.total_cycles == cb.total_cycles
        and ca.total_instructions == cb.total_instructions
        and ca.overhead_cycles == cb.overhead_cycles
        and ca.periods == cb.periods
        and _quality_equal(ca.quality, cb.quality)
        and a.tma == b.tma
    )
