"""Deterministic fault injection for the experiment runtime.

Real counter campaigns fail in recurring ways: multiplexing drops a
counter group, a sample arrives corrupted, a metric drifts off its
fitted bound mid-stream.  This module gives each failure mode a
first-class, *seed-driven* representation so the layers that must
absorb it (:mod:`repro.counters.collector`, :mod:`repro.core.sanitize`,
:mod:`repro.stream`) can be exercised deterministically in tests and in
the ``spire faultsim`` CLI smoke.

A :class:`FaultPlan` is a set of :class:`FaultSpec` entries,
each targeting one workload by name:

========================  ====================================================
``corrupt-sample``        one collected sample's fields turn NaN
``drop-metric``           one metric's counts vanish from the collection
``drift-inject``          one metric's streamed samples shift off the fitted
                          roofline bound from window ``window`` onward —
                          work and metric count scale by ``factor`` (the
                          ``workload`` field names the metric)
``stale-window``          one stream window stalls: it seals empty and its
                          samples arrive late, behind newer timestamps
========================  ====================================================

Every kind fires once per run of its target.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import Sequence

from repro.errors import ConfigError

CORRUPT_SAMPLE = "corrupt-sample"
DROP_METRIC = "drop-metric"
DRIFT_INJECT = "drift-inject"
STALE_WINDOW = "stale-window"

FAULT_KINDS = (
    CORRUPT_SAMPLE,
    DROP_METRIC,
    DRIFT_INJECT,
    STALE_WINDOW,
)

#: Fault kinds handled inside the collector (they degrade the data).
COLLECTOR_KINDS = (CORRUPT_SAMPLE, DROP_METRIC)
#: Fault kinds handled by the streaming replay (:mod:`repro.stream.replay`);
#: ``drift-inject`` shifts one metric's samples off its fitted bound from a
#: given window onward, ``stale-window`` stalls one window and delivers its
#: samples late (out of timestamp order).  The ``workload`` field names the
#: target metric (``"*"`` for stale-window, which is metric-agnostic).
STREAM_KINDS = (DRIFT_INJECT, STALE_WINDOW)


@dataclass(frozen=True, slots=True)
class FaultSpec:
    """One injected failure, targeting one workload."""

    workload: str
    kind: str
    metric: str | None = None   # target metric for ``drop-metric``
    sample_index: int = 0       # which emitted sample ``corrupt-sample`` hits
    factor: float = 4.0         # throughput scale for ``drift-inject``
    window: int = 1             # first affected stream window (0-based)

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if not self.workload:
            raise ConfigError("a fault spec must target a workload by name")
        if self.factor <= 0:
            raise ConfigError("drift-inject factor must be positive")
        if self.window < 0:
            raise ConfigError("stream fault window cannot be negative")


@dataclass(frozen=True, slots=True)
class FaultPlan:
    """A deterministic set of faults for one experiment run."""

    specs: tuple[FaultSpec, ...] = ()

    def __bool__(self) -> bool:
        return bool(self.specs)

    def __len__(self) -> int:
        return len(self.specs)

    def collector_faults(self, name: str) -> tuple[FaultSpec, ...]:
        return tuple(
            s
            for s in self.specs
            if s.workload == name and s.kind in COLLECTOR_KINDS
        )

    def injected_workloads(self) -> list[str]:
        """Targets of collector faults, in spec order, deduplicated.

        Stream-level faults are excluded — their target field names a
        metric, not a workload.
        """
        seen: dict[str, None] = {}
        for spec in self.specs:
            if spec.kind in STREAM_KINDS:
                continue
            seen.setdefault(spec.workload, None)
        return list(seen)

    def stream_faults(self) -> tuple[FaultSpec, ...]:
        """The streaming replay specs; ``workload`` names a metric."""
        return tuple(s for s in self.specs if s.kind in STREAM_KINDS)

    @classmethod
    def random(
        cls,
        workloads: Sequence[str],
        seed: int = 0,
        corrupt_samples: int = 0,
        drop_metrics: int = 0,
        metrics: Sequence[str] = (),
        drift_injects: int = 0,
        stale_windows: int = 0,
    ) -> "FaultPlan":
        """A seed-driven plan over victims drawn from ``workloads``.

        The same ``(workloads, seed, counts)`` always yields the same plan,
        so a fault simulation is reproducible down to the victim names.
        Collector faults may share victims.  Each kind draws from the rng
        after every kind listed before it, so adding a kind at the end
        leaves existing plans unchanged for a given seed.
        """
        names = list(workloads)
        rng = Random(seed)
        specs: list[FaultSpec] = []

        def data_victims(count: int) -> list[str]:
            return [rng.choice(names) for _ in range(count)] if names else []

        for victim in data_victims(corrupt_samples):
            specs.append(
                FaultSpec(
                    workload=victim,
                    kind=CORRUPT_SAMPLE,
                    sample_index=rng.randrange(0, 8),
                )
            )
        for victim in data_victims(drop_metrics):
            metric = rng.choice(list(metrics)) if metrics else None
            specs.append(
                FaultSpec(workload=victim, kind=DROP_METRIC, metric=metric)
            )

        metric_pool = list(metrics)
        for _ in range(drift_injects):
            victim = rng.choice(metric_pool) if metric_pool else "*"
            specs.append(
                FaultSpec(
                    workload=victim,
                    kind=DRIFT_INJECT,
                    factor=rng.choice((0.25, 2.0, 4.0)),
                    window=rng.randrange(1, 4),
                )
            )
        for _ in range(stale_windows):
            specs.append(
                FaultSpec(
                    workload="*",
                    kind=STALE_WINDOW,
                    window=rng.randrange(1, 4),
                )
            )
        return cls(specs=tuple(specs))


__all__ = [
    "COLLECTOR_KINDS",
    "CORRUPT_SAMPLE",
    "DRIFT_INJECT",
    "DROP_METRIC",
    "FAULT_KINDS",
    "FaultPlan",
    "FaultSpec",
    "STALE_WINDOW",
    "STREAM_KINDS",
]
