"""Deterministic fault injection for the experiment runtime.

Real counter campaigns fail in recurring ways: a ``perf`` child dies, a
workload wedges, multiplexing drops a counter group, a sample arrives
corrupted, a checkpoint write hits a full disk.  This module gives each
failure mode a first-class, *seed-driven* representation so the
fault-tolerance layer (:mod:`repro.runtime.runner`,
:mod:`repro.counters.collector`, :mod:`repro.pipeline`) can be exercised
deterministically in tests and in the ``spire faultsim`` CLI smoke.

A :class:`FaultPlan` is a picklable set of :class:`FaultSpec` entries,
each targeting one workload by name:

========================  ====================================================
``crash``                 the task's execution dies (a raised
                          :class:`~repro.errors.WorkerCrashError`)
``hang``                  the task stalls and times out (a raised
                          :class:`~repro.errors.TaskTimeoutError`)
``corrupt-sample``        one collected sample's fields turn NaN
``drop-metric``           one metric's counts vanish from the collection
``checkpoint-write-failure``  the per-workload checkpoint write raises OSError
``corrupt-cache-entry``   the on-disk experiment cache entry is truncated
                          before the run loads it (the ``workload`` field
                          is ``"*"`` — the fault targets the whole entry)
``diverge-kernel``        one guarded vectorized kernel is forced to report
                          an oracle divergence and trip to scalar (the
                          ``workload`` field names the kernel)
``drift-inject``          one metric's streamed samples shift off the fitted
                          roofline bound from window ``window`` onward —
                          work and metric count scale by ``factor`` (the
                          ``workload`` field names the metric)
``stale-window``          one stream window stalls: it seals empty and its
                          samples arrive late, behind newer timestamps
``worker-crash``          one supervised serving worker dies (SIGKILL) under
                          load (the ``workload`` field names the slot, e.g.
                          ``"1"``, or ``"*"`` for a seed-chosen slot)
``worker-hang``           one serving worker's event loop wedges: heartbeats
                          stop and the supervisor must kill + restart it
``rollover-corrupt-artifact``  a hot model install carries a corrupted packed
                          artifact; it must be quarantined, never served
                          (the ``workload`` field names the model)
``quota-storm``           one model's clients burst far past its admission
                          quota; the storm must 429 without disturbing
                          other models (the ``workload`` names the model)
========================  ====================================================

Faults are *transient by default* (``times=1``): they fire on the first
``times`` executions of the target and then stop, which is exactly the
shape retries are meant to absorb.  Set ``times`` large to model a
persistent failure that must be skipped instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import Sequence

from repro.errors import ConfigError, TaskTimeoutError, WorkerCrashError

CRASH = "crash"
HANG = "hang"
CORRUPT_SAMPLE = "corrupt-sample"
DROP_METRIC = "drop-metric"
CHECKPOINT_WRITE_FAILURE = "checkpoint-write-failure"
CORRUPT_CACHE_ENTRY = "corrupt-cache-entry"
DIVERGE_KERNEL = "diverge-kernel"
DRIFT_INJECT = "drift-inject"
STALE_WINDOW = "stale-window"
WORKER_CRASH = "worker-crash"
WORKER_HANG = "worker-hang"
ROLLOVER_CORRUPT_ARTIFACT = "rollover-corrupt-artifact"
QUOTA_STORM = "quota-storm"

FAULT_KINDS = (
    CRASH,
    HANG,
    CORRUPT_SAMPLE,
    DROP_METRIC,
    CHECKPOINT_WRITE_FAILURE,
    CORRUPT_CACHE_ENTRY,
    DIVERGE_KERNEL,
    DRIFT_INJECT,
    STALE_WINDOW,
    WORKER_CRASH,
    WORKER_HANG,
    ROLLOVER_CORRUPT_ARTIFACT,
    QUOTA_STORM,
)

#: Fault kinds handled by the runner (they abort the whole task attempt).
RUNNER_KINDS = (CRASH, HANG)
#: Fault kinds handled inside the collector (they degrade the data).
COLLECTOR_KINDS = (CORRUPT_SAMPLE, DROP_METRIC)
#: Fault kinds handled by the guard layer (dispatch sentinels + artifacts);
#: their ``workload`` field names a kernel or ``"*"``, not a workload.
GUARD_KINDS = (CORRUPT_CACHE_ENTRY, DIVERGE_KERNEL)
#: Fault kinds handled by the streaming replay (:mod:`repro.stream.replay`);
#: ``drift-inject`` shifts one metric's samples off its fitted bound from a
#: given window onward, ``stale-window`` stalls one window and delivers its
#: samples late (out of timestamp order).  The ``workload`` field names the
#: target metric (``"*"`` for stale-window, which is metric-agnostic).
STREAM_KINDS = (DRIFT_INJECT, STALE_WINDOW)
#: Fault kinds handled by the serving layer's chaos harness
#: (:mod:`repro.serve.chaos`); ``workload`` names a worker slot or a
#: model, never an experiment workload.
SERVE_KINDS = (
    WORKER_CRASH,
    WORKER_HANG,
    ROLLOVER_CORRUPT_ARTIFACT,
    QUOTA_STORM,
)

#: Default victims for random ``diverge-kernel`` faults: the model-side
#: kernels every experiment dispatches, so each trip reaches the health
#: report.
PARENT_SIDE_KERNELS = ("sanitize", "pareto", "direction", "train", "estimate")


@dataclass(frozen=True, slots=True)
class FaultSpec:
    """One injected failure, targeting one workload."""

    workload: str
    kind: str
    times: int = 1              # number of executions the fault affects
    hang_seconds: float = 30.0  # stall length for ``worker-hang``
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
        if self.times < 1:
            raise ConfigError("a fault must fire at least once (times >= 1)")
        if self.hang_seconds < 0:
            raise ConfigError("hang_seconds cannot be negative")
        if self.factor <= 0:
            raise ConfigError("drift-inject factor must be positive")
        if self.window < 0:
            raise ConfigError("stream fault window cannot be negative")

    def active(self, execution: int) -> bool:
        """Whether the fault fires on the ``execution``-th run (1-based)."""
        return execution <= self.times


@dataclass(frozen=True, slots=True)
class FaultPlan:
    """A picklable, deterministic set of faults for one experiment run."""

    specs: tuple[FaultSpec, ...] = ()

    def __post_init__(self) -> None:
        # One runner-level fault per workload keeps attempt accounting
        # unambiguous (a task that both crashes and hangs has no defined
        # order); collector faults may stack freely.
        runner_targets = [
            s.workload for s in self.specs if s.kind in RUNNER_KINDS
        ]
        if len(set(runner_targets)) != len(runner_targets):
            raise ConfigError(
                "at most one crash/hang fault per workload is supported"
            )

    def __bool__(self) -> bool:
        return bool(self.specs)

    def __len__(self) -> int:
        return len(self.specs)

    def for_workload(self, name: str) -> tuple[FaultSpec, ...]:
        return tuple(s for s in self.specs if s.workload == name)

    def runner_fault(self, name: str) -> FaultSpec | None:
        """The crash/hang fault targeting ``name``, if any."""
        for spec in self.specs:
            if spec.workload == name and spec.kind in RUNNER_KINDS:
                return spec
        return None

    def collector_faults(self, name: str) -> tuple[FaultSpec, ...]:
        return tuple(
            s
            for s in self.specs
            if s.workload == name and s.kind in COLLECTOR_KINDS
        )

    def checkpoint_fault(self, name: str, execution: int = 1) -> bool:
        """Whether the checkpoint write for ``name`` should fail."""
        return any(
            s.workload == name
            and s.kind == CHECKPOINT_WRITE_FAILURE
            and s.active(execution)
            for s in self.specs
        )

    def injected_workloads(self) -> list[str]:
        """Targets of runner/collector faults, in spec order, deduplicated.

        Guard- and stream-level faults are excluded — their target field
        names a kernel, a metric or the cache entry, not a workload.
        """
        seen: dict[str, None] = {}
        for spec in self.specs:
            if (
                spec.kind in GUARD_KINDS
                or spec.kind in STREAM_KINDS
                or spec.kind in SERVE_KINDS
            ):
                continue
            seen.setdefault(spec.workload, None)
        return list(seen)

    def diverge_kernels(self) -> tuple[FaultSpec, ...]:
        """The ``diverge-kernel`` specs; each ``workload`` names a kernel."""
        return tuple(s for s in self.specs if s.kind == DIVERGE_KERNEL)

    def cache_corruptions(self) -> tuple[FaultSpec, ...]:
        """The ``corrupt-cache-entry`` specs."""
        return tuple(s for s in self.specs if s.kind == CORRUPT_CACHE_ENTRY)

    def stream_faults(self) -> tuple[FaultSpec, ...]:
        """The streaming replay specs; ``workload`` names a metric."""
        return tuple(s for s in self.specs if s.kind in STREAM_KINDS)

    def serve_faults(self) -> tuple[FaultSpec, ...]:
        """The serve-layer chaos specs; ``workload`` names a slot or model."""
        return tuple(s for s in self.specs if s.kind in SERVE_KINDS)

    @classmethod
    def random(
        cls,
        workloads: Sequence[str],
        seed: int = 0,
        crashes: int = 0,
        hangs: int = 0,
        corrupt_samples: int = 0,
        drop_metrics: int = 0,
        checkpoint_failures: int = 0,
        times: int = 1,
        hang_seconds: float = 30.0,
        metrics: Sequence[str] = (),
        diverge_kernels: int = 0,
        corrupt_cache_entries: int = 0,
        kernels: Sequence[str] = (),
        drift_injects: int = 0,
        stale_windows: int = 0,
        worker_crashes: int = 0,
        worker_hangs: int = 0,
        rollover_corruptions: int = 0,
        quota_storms: int = 0,
        serve_slots: int = 0,
        serve_models: Sequence[str] = (),
    ) -> "FaultPlan":
        """A seed-driven plan over distinct victims drawn from ``workloads``.

        The same ``(workloads, seed, counts)`` always yields the same plan,
        so a fault simulation is reproducible down to the victim names.
        Runner-level faults (crash, hang) get distinct victims; data-level
        faults may overlap with them and with each other.

        ``diverge_kernels`` draws victims from ``kernels`` (defaulting to
        :data:`PARENT_SIDE_KERNELS`); ``corrupt_cache_entries`` targets
        the run's cache entry.  Their rng draws come after every older
        fault kind's, so plans for pre-existing kinds are unchanged for a
        given seed.
        """
        names = list(workloads)
        wanted_runner = crashes + hangs
        if wanted_runner > len(names):
            raise ConfigError(
                f"cannot place {wanted_runner} crash/hang faults over "
                f"{len(names)} workloads"
            )
        rng = Random(seed)
        runner_victims = rng.sample(names, wanted_runner) if wanted_runner else []
        specs: list[FaultSpec] = []
        for victim in runner_victims[:crashes]:
            specs.append(FaultSpec(workload=victim, kind=CRASH, times=times))
        for victim in runner_victims[crashes:]:
            specs.append(
                FaultSpec(
                    workload=victim,
                    kind=HANG,
                    times=times,
                    hang_seconds=hang_seconds,
                )
            )

        def data_victims(count: int) -> list[str]:
            return [rng.choice(names) for _ in range(count)] if names else []

        for victim in data_victims(corrupt_samples):
            specs.append(
                FaultSpec(
                    workload=victim,
                    kind=CORRUPT_SAMPLE,
                    times=times,
                    sample_index=rng.randrange(0, 8),
                )
            )
        for victim in data_victims(drop_metrics):
            metric = rng.choice(list(metrics)) if metrics else None
            specs.append(
                FaultSpec(
                    workload=victim, kind=DROP_METRIC, times=times, metric=metric
                )
            )
        for victim in data_victims(checkpoint_failures):
            specs.append(
                FaultSpec(
                    workload=victim, kind=CHECKPOINT_WRITE_FAILURE, times=times
                )
            )

        # New-in-format-2 kinds draw from the rng *after* all older kinds
        # so pre-existing (seed, counts) plans stay bit-identical.
        kernel_pool = list(kernels) or list(PARENT_SIDE_KERNELS)
        for _ in range(diverge_kernels):
            specs.append(
                FaultSpec(
                    workload=rng.choice(kernel_pool),
                    kind=DIVERGE_KERNEL,
                    times=times,
                )
            )
        for _ in range(corrupt_cache_entries):
            specs.append(
                FaultSpec(workload="*", kind=CORRUPT_CACHE_ENTRY, times=times)
            )

        # Stream kinds are format-3: again, all their draws come last.
        metric_pool = list(metrics)
        for _ in range(drift_injects):
            victim = rng.choice(metric_pool) if metric_pool else "*"
            specs.append(
                FaultSpec(
                    workload=victim,
                    kind=DRIFT_INJECT,
                    times=times,
                    factor=rng.choice((0.25, 2.0, 4.0)),
                    window=rng.randrange(1, 4),
                )
            )
        for _ in range(stale_windows):
            specs.append(
                FaultSpec(
                    workload="*",
                    kind=STALE_WINDOW,
                    times=times,
                    window=rng.randrange(1, 4),
                )
            )

        # Serve kinds are format-4: their draws come after every older
        # kind's, so existing (seed, counts) plans stay bit-identical.
        # ``serve_slots`` sizes the worker fleet the victims are drawn
        # from; ``serve_models`` names the served models storms and
        # corrupt rollovers may target.
        def slot_victim() -> str:
            return str(rng.randrange(serve_slots)) if serve_slots else "*"

        model_pool = list(serve_models)

        def model_victim() -> str:
            return rng.choice(model_pool) if model_pool else "*"

        for _ in range(worker_crashes):
            specs.append(
                FaultSpec(workload=slot_victim(), kind=WORKER_CRASH, times=times)
            )
        for _ in range(worker_hangs):
            specs.append(
                FaultSpec(
                    workload=slot_victim(),
                    kind=WORKER_HANG,
                    times=times,
                    hang_seconds=hang_seconds,
                )
            )
        for _ in range(rollover_corruptions):
            specs.append(
                FaultSpec(
                    workload=model_victim(),
                    kind=ROLLOVER_CORRUPT_ARTIFACT,
                    times=times,
                )
            )
        for _ in range(quota_storms):
            specs.append(
                FaultSpec(
                    workload=model_victim(),
                    kind=QUOTA_STORM,
                    times=times,
                    factor=float(rng.choice((4, 8, 16))),
                )
            )
        return cls(specs=tuple(specs))


def trip_runner_fault(spec: FaultSpec | None, execution: int) -> None:
    """Fire a crash/hang fault inside a task execution, if active.

    ``crash`` raises :class:`WorkerCrashError`.  ``hang`` raises
    :class:`TaskTimeoutError` at once: tasks run in-process, where a real
    stall could not be preempted, so an injected hang stands for one a
    deadline has already cut short.
    """
    if spec is None or spec.kind not in RUNNER_KINDS:
        return
    if not spec.active(execution):
        return
    if spec.kind == CRASH:
        raise WorkerCrashError(
            f"injected crash in workload {spec.workload!r} "
            f"(execution {execution})"
        )
    raise TaskTimeoutError(
        f"injected hang in workload {spec.workload!r} timed out "
        f"(execution {execution})"
    )


__all__ = [
    "CHECKPOINT_WRITE_FAILURE",
    "COLLECTOR_KINDS",
    "CORRUPT_CACHE_ENTRY",
    "CORRUPT_SAMPLE",
    "CRASH",
    "DIVERGE_KERNEL",
    "DRIFT_INJECT",
    "DROP_METRIC",
    "FAULT_KINDS",
    "FaultPlan",
    "FaultSpec",
    "GUARD_KINDS",
    "HANG",
    "PARENT_SIDE_KERNELS",
    "QUOTA_STORM",
    "ROLLOVER_CORRUPT_ARTIFACT",
    "RUNNER_KINDS",
    "SERVE_KINDS",
    "STALE_WINDOW",
    "STREAM_KINDS",
    "WORKER_CRASH",
    "WORKER_HANG",
    "trip_runner_fault",
]
