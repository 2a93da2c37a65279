"""Multiplexed sample collection — the ``perf stat`` analog (paper §IV).

The collector runs a workload's window specs through a core model while a
PMU rotates through groups of programmable events, exactly as ``perf
stat`` time-multiplexes more events than there are counters.  Per sample
period, each event group yields one :class:`~repro.core.sample.Sample` per
event, whose ``T``/``W`` were measured during that group's own time slices
(the paper's requirement that T, W, and M be measured simultaneously).

The collector also keeps the *full* (un-multiplexed) event totals — the
view a vendor tool like VTune effectively has — which feeds the Top-Down
baseline, and it accounts the reprogramming overhead so the paper's 1.6 %
average sampling overhead has a measurable analog.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.core.sample import Sample, SampleSet
from repro.core.sanitize import QualityReport, QuarantinedSample, SampleSanitizer
from repro.counters.events import EventCatalog, default_catalog
from repro.counters.pmu import PMU
from repro.counters.scheduling import (
    MultiplexScheduler,
    RoundRobinScheduler,
    pack_events,
)
from repro.errors import ConfigError
from repro.uarch.config import MachineConfig
from repro.uarch.core import CoreModel
from repro.uarch.spec import WindowSpec


@dataclass(frozen=True, slots=True)
class CollectionConfig:
    """How samples are collected from a run."""

    windows_per_period: int = 20      # multiplexing slices per sample period
    # Cost of reprogramming the PMU at a slice boundary.  Scaled to the
    # simulator's window granularity: ~100 cycles against the default
    # ~6,500-cycle windows lands in the paper's observed 1-5 % overhead
    # range (§IV reports 1.6 % average, 4.6 % maximum).
    switch_overhead_cycles: float = 100.0
    events: tuple[str, ...] = ()      # empty means every programmable event
    multiplex: bool = True            # False measures every event every window

    def __post_init__(self) -> None:
        if self.windows_per_period < 1:
            raise ConfigError("windows_per_period must be at least 1")
        if self.switch_overhead_cycles < 0:
            raise ConfigError("switch overhead cannot be negative")


@dataclass
class CollectionResult:
    """Everything one collection run produced."""

    samples: SampleSet
    full_counts: dict[str, float]
    total_cycles: float = 0.0
    total_instructions: float = 0.0
    overhead_cycles: float = 0.0
    periods: int = 0
    # Degraded-data accounting: what the sanitizer quarantined or dropped
    # (always present; ``quality.ok`` on a clean run).
    quality: QualityReport | None = None

    @property
    def measured_ipc(self) -> float:
        if self.total_cycles == 0:
            return 0.0
        return self.total_instructions / self.total_cycles

    @property
    def overhead_fraction(self) -> float:
        """Sampling overhead relative to the unperturbed runtime."""
        if self.total_cycles == 0:
            return 0.0
        return self.overhead_cycles / self.total_cycles


def chunk_events(names: Sequence[str], group_size: int) -> list[list[str]]:
    """Split an event list into PMU-sized groups (no slot constraints)."""
    if group_size < 1:
        raise ConfigError("group size must be at least 1")
    return [list(names[i : i + group_size]) for i in range(0, len(names), group_size)]


class SampleCollector:
    """Collects SPIRE samples from a simulated core via a multiplexed PMU."""

    def __init__(
        self,
        machine: MachineConfig,
        catalog: EventCatalog | None = None,
        config: CollectionConfig | None = None,
        work_event: str = "inst_retired.any",
        time_event: str = "cpu_clk_unhalted.thread",
        scheduler: MultiplexScheduler | None = None,
    ):
        self.machine = machine
        self.catalog = catalog or default_catalog()
        self.config = config or CollectionConfig()
        self.scheduler = scheduler or RoundRobinScheduler()
        if work_event not in self.catalog or time_event not in self.catalog:
            raise ConfigError("work/time events must exist in the catalog")
        self.work_event = work_event
        self.time_event = time_event

    def _event_groups(self) -> list[list[str]]:
        names = list(self.config.events) or self.catalog.programmable_names
        for name in names:
            if self.catalog.get(name).fixed:
                raise ConfigError(f"{name!r} is a fixed event; it is always measured")
        # Constraint-aware packing: groups must have a feasible slot
        # assignment under each event's counter mask.
        return pack_events(
            names, self.machine.num_programmable_counters, self.catalog
        )

    def collect(
        self,
        core: CoreModel,
        specs: Iterable[WindowSpec],
        rng: random.Random | None = None,
        faults: Sequence = (),
    ) -> CollectionResult:
        """Run the workload and emit one sample per event per period.

        ``specs`` defines the workload's windows in order; each window is
        one multiplexing slice.  With ``config.multiplex`` off, every event
        observes every window (an idealized PMU with unlimited counters).

        Every emitted measurement becomes a
        :class:`~repro.core.sample.Sample` only after
        :meth:`~repro.core.sanitize.SampleSanitizer.check` passes it, one
        at a time in emission order: invalid values —
        whether from an injected ``corrupt-sample``/``drop-metric`` fault
        in ``faults`` (see :mod:`repro.runtime.faults`) or a genuinely
        degraded source — are quarantined into ``result.quality`` instead
        of raising :class:`~repro.errors.DataError` mid-campaign.
        """
        if core.machine is not self.machine and core.machine != self.machine:
            raise ConfigError("collector and core must share a machine config")
        groups = self._event_groups()
        pmu = PMU(self.machine, self.catalog)

        sanitizer = SampleSanitizer()
        quality = QualityReport()
        corrupt_indices = {
            f.sample_index for f in faults if f.kind == "corrupt-sample"
        }
        dropped_metrics: set[str] = set()
        for f in faults:
            if f.kind == "drop-metric":
                # Deterministic default victim: the first programmable event.
                dropped_metrics.add(
                    f.metric or min(self.catalog.programmable_names)
                )
        for metric in sorted(dropped_metrics):
            quality.dropped_metrics[metric] = "injected drop-metric fault"
        emit_index = 0

        samples = SampleSet()
        full_counts: dict[str, float] = {name: 0.0 for name in self.catalog.names}
        total_cycles = 0.0
        total_instructions = 0.0
        overhead = 0.0
        periods = 0

        # Per-period accumulators: group index -> (T, W, {event: M}).
        def fresh_accumulators() -> list[tuple[list[float], dict[str, float]]]:
            return [([0.0, 0.0], {name: 0.0 for name in group}) for group in groups]

        accumulators = fresh_accumulators()
        window_in_period = 0
        group_cursor = 0

        def flush_period() -> None:
            nonlocal accumulators, window_in_period, periods, emit_index
            emitted = False
            for (tw, metric_counts) in accumulators:
                t, w = tw
                if t <= 0:
                    continue
                for name, count in metric_counts.items():
                    quality.total += 1
                    if name in dropped_metrics:
                        # The multiplexing analog of a lost counter group:
                        # the metric simply never reports.
                        continue
                    if emit_index in corrupt_indices:
                        count = float("nan")
                    emit_index += 1
                    reason = sanitizer.check(t, w, count)
                    if reason is not None:
                        quality.quarantined.append(
                            QuarantinedSample(
                                metric=name,
                                reason=reason,
                                time=t,
                                work=w,
                                metric_count=count,
                            )
                        )
                        continue
                    samples.add(
                        Sample(metric=name, time=t, work=w, metric_count=count)
                    )
                    emitted = True
            if emitted:
                periods += 1
            accumulators = fresh_accumulators()
            window_in_period = 0

        # CoreModel.simulate_run is the scalar simulate_window loop, so a
        # collection is the fused engine's oracle all the way down.
        for activity in core.simulate_run(list(specs), rng):
            total_cycles += activity.cycles
            total_instructions += activity.instructions

            # The full, unconstrained view (what a vendor tool integrates).
            for name, value in self.catalog.compute_all(activity, self.machine).items():
                full_counts[name] += value

            if self.config.multiplex:
                group_index = self.scheduler.next_group(group_cursor, len(groups))
                group_cursor += 1
                overhead += self.config.switch_overhead_cycles
                pmu.program(groups[group_index])
                counts = pmu.observe(activity)
                tw, metric_counts = accumulators[group_index]
                tw[0] += counts[self.time_event]
                tw[1] += counts[self.work_event]
                for name in metric_counts:
                    metric_counts[name] += counts[name]
                self.scheduler.observe(
                    group_index, counts[self.time_event], counts[self.work_event]
                )
            else:
                for group_index, group in enumerate(groups):
                    pmu.program(group)
                    counts = pmu.observe(activity)
                    tw, metric_counts = accumulators[group_index]
                    tw[0] += counts[self.time_event]
                    tw[1] += counts[self.work_event]
                    for name in metric_counts:
                        metric_counts[name] += counts[name]

            window_in_period += 1
            if window_in_period >= self.config.windows_per_period:
                flush_period()

        flush_period()
        quality.kept = len(samples)
        return CollectionResult(
            samples=samples,
            full_counts=full_counts,
            total_cycles=total_cycles,
            total_instructions=total_instructions,
            overhead_cycles=overhead,
            periods=periods,
            quality=quality,
        )
