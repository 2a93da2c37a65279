"""Fused mega-batch experiment engine.

Instead of simulating an experiment's workloads one at a time — 27 round
trips through :func:`repro.pipeline.run_workload`, each paying its own
column setup, formula evaluation and per-window collection loop — this
module lays the workloads' windows out as concatenated columnar plans (a
per-workload segment-index column marks the boundaries), runs the
vectorized core-model formula pass **once** per plan, evaluates every PMU
event formula **once** per plan as array expressions, and then scatters
the results back into per-workload
:class:`~repro.counters.collector.CollectionResult` segments.  A plan
holds whole tasks up to :data:`CHUNK_WINDOWS` windows, which bounds the
transient working set.

Bit-identity with the per-workload path is load-bearing and holds by
construction:

- the core-model formulas (:func:`repro.uarch.batch.evaluate_run_columns`)
  are elementwise, so evaluating a concatenation (of any chunk of tasks)
  equals evaluating each segment separately;
- every per-workload rng stream is drawn by its own pre-pass
  (:func:`repro.uarch.batch.draw_run_randomness`) with the same seed
  derivation, in the same order, as :func:`~repro.pipeline.run_workload`;
- every reduction replays the scalar accumulation order: per-segment
  running sums use ``np.cumsum`` (sequential left-to-right, bitwise equal
  to a Python ``+=`` loop at every prefix), and the per-(group, period)
  sample sums accumulate one rank at a time in window order;
- sample rows are emitted in the exact flush order of
  :meth:`~repro.counters.collector.SampleCollector.collect`, so metric-id
  interning, sanitizer screening and period counting all see identical
  inputs.

The engine is dispatched through the ``"fused_experiment"`` kernel guard
(:mod:`repro.guard.dispatch`): sampled calls replay one deterministically
chosen segment through the per-workload oracle and compare bit-for-bit,
and a divergence trips the breaker back to the unfused path.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from repro.core.columns import SampleArray
from repro.core.sample import SampleSet
from repro.core.sanitize import QualityReport, QuarantinedSample, SampleSanitizer
from repro.counters.collector import CollectionConfig, CollectionResult, SampleCollector
from repro.counters.events import EventCatalog, default_catalog
from repro.counters.pmu import PMU
from repro.errors import ConfigError
from repro.tma import TopDownAnalyzer
from repro.uarch.activity import WindowActivity
from repro.uarch.backend import port_activity_histogram
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
    "ActivityColumns",
    "FusedBatchPlan",
    "build_fused_plan",
    "runs_equal",
    "simulate_tasks_fused",
]


class ActivityColumns:
    """Column-wise stand-in for :class:`WindowActivity`.

    Exposes every activity field as a float64 array so the scalar PMU
    event formulas (``lambda a, m: ...`` over elementwise arithmetic)
    evaluate once per *experiment* instead of once per window.  The
    derived properties repeat ``WindowActivity``'s left-to-right
    expressions so their float rounding matches the scalar path.
    """

    def __init__(self, columns: Mapping[str, np.ndarray]):
        self.__dict__.update(columns)

    @property
    def l1_misses(self) -> np.ndarray:
        return self.l2_served + self.l3_served + self.dram_served

    @property
    def l2_misses(self) -> np.ndarray:
        return self.l3_served + self.dram_served

    @property
    def l3_misses(self) -> np.ndarray:
        return self.dram_served

    @property
    def backend_stall_cycles(self) -> np.ndarray:
        return self.c_mem + self.c_core


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


def _segment_sum(column: np.ndarray) -> float:
    """Sequential left-to-right sum of one segment's column.

    ``np.cumsum`` accumulates exactly like the scalar ``+=`` loop, so the
    final prefix is bitwise equal to the per-window accumulation the
    unfused collector performs.
    """
    if len(column) == 0:
        return 0.0
    return float(np.cumsum(column)[-1])


def _cell_sums(values: np.ndarray, cells: np.ndarray, n_cells: int) -> np.ndarray:
    """Per-cell sequential sums for nondecreasing ``cells`` labels.

    Replays the scalar per-period accumulator: each cell starts at 0.0
    and adds its members in window order.  Ranks within a cell are
    accumulated one vectorized add at a time, which preserves the exact
    addition order (``np.sum``/``reduceat`` would not — they use pairwise
    summation).
    """
    acc = np.zeros(n_cells)
    if len(values) == 0:
        return acc
    uniq, first = np.unique(cells, return_index=True)
    rank = np.arange(len(cells)) - first[np.searchsorted(uniq, cells)]
    for r in range(int(rank.max()) + 1):
        mask = rank == r
        acc[cells[mask]] += values[mask]
    return acc


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
    activity: ActivityColumns,
    n_windows: int,
) -> dict[str, np.ndarray]:
    """Evaluate every PMU event formula once over the fused columns."""
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


_ACTIVITY_FIELDS = tuple(
    spec.name for spec in fields(WindowActivity) if spec.name != "port_uops"
)


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
    task separately (asserted by the ``fused_experiment`` guard's sampled
    parity checks and the equivalence tests/CI gate).  The tasks are
    evaluated in chunks of at most :data:`CHUNK_WINDOWS` windows.
    """
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

    runs: list["WorkloadRun"] = []
    for chunk in _task_chunks(tasks):
        plan = build_fused_plan(chunk, machine, config)
        runs.extend(_simulate_plan(plan, machine, collector, groups, analyzer))
    return runs


def _simulate_plan(
    plan: FusedBatchPlan,
    machine: MachineConfig,
    collector: SampleCollector,
    groups: list[list[str]],
    analyzer: TopDownAnalyzer,
) -> list["WorkloadRun"]:
    """Evaluate one fused plan and scatter it into per-task runs."""
    from repro.pipeline import WorkloadRun

    catalog = collector.catalog
    out, port_columns = evaluate_run_columns(
        machine, plan.columns, plan.instructions, plan.noise
    )

    # Port-activity histogram: scalar per window (math.exp may differ from
    # NumPy's in the last ulp), exactly as the batch materializer does.
    port_count = len(machine.ports)
    uops_executed = out["uops_executed"].tolist()
    exec_active = out["exec_active_cycles"].tolist()
    n_total = len(uops_executed)
    c1 = np.empty(n_total)
    c2 = np.empty(n_total)
    c3 = np.empty(n_total)
    for index in range(n_total):
        c1[index], c2[index], c3[index] = port_activity_histogram(
            uops_executed[index], exec_active[index], port_count
        )
    activity_columns = dict(out)
    activity_columns["exec_cycles_1_port"] = c1
    activity_columns["exec_cycles_2_ports"] = c2
    activity_columns["exec_cycles_3_plus_ports"] = c3

    event_columns = _event_columns(
        catalog, machine, ActivityColumns(activity_columns), n_total
    )

    runs: list[WorkloadRun] = []
    for task_index, task in enumerate(plan.tasks):
        start = int(plan.offsets[task_index])
        stop = int(plan.offsets[task_index + 1])
        collection = _scatter_collection(
            collector,
            groups,
            catalog,
            {name: col[start:stop] for name, col in activity_columns.items()},
            {name: col[start:stop] for name, col in port_columns.items()},
            {name: col[start:stop] for name, col in event_columns.items()},
        )
        tma = analyzer.analyze(collection.full_counts)
        runs.append(WorkloadRun(workload=task.workload, collection=collection, tma=tma))
    return runs


def _scatter_collection(
    collector: SampleCollector,
    groups: list[list[str]],
    catalog: EventCatalog,
    activity: dict[str, np.ndarray],
    ports: dict[str, np.ndarray],
    events: dict[str, np.ndarray],
) -> CollectionResult:
    """Reduce one task's segment of the fused columns to a CollectionResult.

    Every reduction replays the scalar collector's accumulation order; see
    the module docstring for why each step is bitwise exact.
    """
    config = collector.config
    n = len(activity["cycles"])
    n_groups = len(groups)

    # Full (un-multiplexed) totals, cycle/instruction totals, overhead.
    full_counts = {
        name: _segment_sum(events[name]) for name in catalog.names
    }
    total_cycles = _segment_sum(activity["cycles"])
    total_instructions = _segment_sum(activity["instructions"])
    overhead = (
        _segment_sum(np.full(n, config.switch_overhead_cycles))
        if config.multiplex
        else 0.0
    )

    # Aggregate activity: per-field sequential sums across the segment.
    aggregate = WindowActivity()
    for name in _ACTIVITY_FIELDS:
        setattr(aggregate, name, _segment_sum(activity[name]))
    aggregate.port_uops = {name: _segment_sum(col) for name, col in ports.items()}

    # Per-(group, flush-period) T/W/M accumulation.  RoundRobin scheduling
    # assigns window w to group w % n_groups; periods flush every
    # windows_per_period windows (plus a final, possibly empty, flush).
    wpp = config.windows_per_period
    n_cells = -(-n // wpp)  # ceil: flushes that can actually hold windows
    window_index = np.arange(n, dtype=np.int64)
    period_index = window_index // wpp
    time_column = events[collector.time_event]
    work_column = events[collector.work_event]

    group_times: list[np.ndarray] = []
    group_works: list[np.ndarray] = []
    group_metrics: list[np.ndarray] = []
    for g, group in enumerate(groups):
        if config.multiplex:
            mask = (window_index % n_groups) == g
            cells = period_index[mask]
        else:
            mask = slice(None)
            cells = period_index
        group_times.append(_cell_sums(time_column[mask], cells, n_cells))
        group_works.append(_cell_sums(work_column[mask], cells, n_cells))
        group_metrics.append(
            np.stack(
                [_cell_sums(events[name][mask], cells, n_cells) for name in group]
            )
        )
    return _emit_samples(
        collector,
        groups,
        group_times,
        group_works,
        group_metrics,
        n_cells,
        full_counts,
        total_cycles,
        total_instructions,
        overhead,
        aggregate,
    )


def _emit_samples(
    collector: SampleCollector,
    groups: list[list[str]],
    group_times: list[np.ndarray],
    group_works: list[np.ndarray],
    group_metrics: list[np.ndarray],
    n_cells: int,
    full_counts: dict[str, float],
    total_cycles: float,
    total_instructions: float,
    overhead: float,
    aggregate: WindowActivity,
) -> CollectionResult:
    """Emit sample rows in the scalar collector's exact flush order."""
    sanitizer = SampleSanitizer()
    quality = QualityReport()

    raw_metrics: list[str] = []
    raw_time: list[float] = []
    raw_work: list[float] = []
    raw_count: list[float] = []
    raw_period: list[int] = []

    times_list = [t.tolist() for t in group_times]
    works_list = [w.tolist() for w in group_works]
    for period in range(n_cells):
        for g, group in enumerate(groups):
            t = times_list[g][period]
            if t <= 0:
                continue
            quality.total += len(group)
            w = works_list[g][period]
            raw_metrics.extend(group)
            raw_time.extend([t] * len(group))
            raw_work.extend([w] * len(group))
            raw_count.extend(group_metrics[g][:, period].tolist())
            raw_period.extend([period] * len(group))

    # Vectorized sanitize, identical to the collector's columnar path.
    array = SampleArray.from_lists(raw_metrics, raw_time, raw_work, raw_count)
    t, w, m = array.time, array.work, array.metric_count
    bad = (
        ~np.isfinite(t) | ~np.isfinite(w) | ~np.isfinite(m)
        | (t <= 0) | (w < 0) | (m < 0)
    )
    period_ids = np.asarray(raw_period, dtype=np.int64)
    if bad.any():
        names = array.metric_names
        ids = array.metric_ids
        for index in np.flatnonzero(bad):
            ti = float(t[index])
            wi = float(w[index])
            mi = float(m[index])
            quality.quarantined.append(
                QuarantinedSample(
                    metric=names[int(ids[index])],
                    reason=sanitizer.check(ti, wi, mi),
                    time=ti,
                    work=wi,
                    metric_count=mi,
                )
            )
        keep = ~bad
        array = array.select(keep)
        period_ids = period_ids[keep]
    periods = int(len(np.unique(period_ids)))
    samples = SampleSet.from_columns(array)
    quality.kept = len(samples)
    return CollectionResult(
        samples=samples,
        full_counts=full_counts,
        total_cycles=total_cycles,
        total_instructions=total_instructions,
        overhead_cycles=overhead,
        aggregate_activity=aggregate,
        periods=periods,
        quality=quality,
    )


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
        and ca.aggregate_activity == cb.aggregate_activity
        and ca.periods == cb.periods
        and _quality_equal(ca.quality, cb.quality)
        and a.tma == b.tma
    )
