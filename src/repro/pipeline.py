"""End-to-end experiment pipeline: simulate, collect, train, analyze.

This module wires the substrate together the way the paper's evaluation
does (§IV):

1. run each training workload on the simulated CPU while the multiplexed
   collector samples every catalog metric;
2. train a SPIRE ensemble on the pooled samples;
3. run each testing workload the same way and analyze it with the trained
   model;
4. run the Top-Down baseline on each workload's full (un-multiplexed)
   counter totals for comparison.

Every benchmark and example builds on these functions;
:func:`cached_experiment` memoizes a result in-process so benchmarks
share one pass.  The per-workload simulations are fused into one
mega-batch (:mod:`repro.runtime.runner`) whose chunks fork-join across
the available CPUs; fused and per-workload runs are byte-identical
because every workload derives its RNG seed from the experiment seed
plus its own name.
"""

from __future__ import annotations

import random
import warnings
from dataclasses import dataclass, field
from typing import Sequence

from repro.concurrency import resolve_jobs
from repro.core import AnalysisReport, SampleSet, SpireModel, TrainOptions
from repro.core.columns import SampleArray
from repro.fastpath import scalar_fallback_enabled
from repro.counters import CollectionConfig, CollectionResult, SampleCollector
from repro.counters.events import default_catalog
from repro.errors import DegradedDataWarning, SpireError
from repro.runtime.faults import FaultPlan
from repro.runtime.plan import ExecutionPlan
from repro.runtime.runner import ParallelRunner, RunReport
from repro.tma import TMAResult, TopDownAnalyzer
from repro.uarch import CoreModel, MachineConfig, skylake_gold_6126
from repro.workloads import Workload, workload_by_name


@dataclass(frozen=True, slots=True)
class ExperimentConfig:
    """Scale knobs for the reproduction experiments.

    The defaults trade the paper's 10-minute runs for a few seconds of
    simulation per workload while preserving the sample-count-per-metric
    ratio between training and testing.
    """

    train_windows: int = 1200
    test_windows: int = 600
    window_instructions: int = 20_000
    windows_per_period: int = 24
    seed: int = 2025
    multiplex: bool = True

    def collection(self) -> CollectionConfig:
        return CollectionConfig(
            windows_per_period=self.windows_per_period,
            multiplex=self.multiplex,
        )


@dataclass
class WorkloadRun:
    """One workload's collection plus its Top-Down classification."""

    workload: Workload
    collection: CollectionResult
    tma: TMAResult

    @property
    def measured_ipc(self) -> float:
        return self.collection.measured_ipc

    @property
    def table1_category(self) -> str:
        """The Table I color for this workload."""
        if self.workload.expected_bottleneck == "Retiring":
            return self.tma.dominant_category()
        return self.tma.main_bottleneck()


@dataclass
class ExperimentResult:
    """Everything the Table II / Figure 7 experiments need."""

    machine: MachineConfig
    model: SpireModel
    training_runs: dict[str, WorkloadRun] = field(default_factory=dict)
    testing_runs: dict[str, WorkloadRun] = field(default_factory=dict)
    training_samples: SampleSet | None = None

    def analyze(self, workload_name: str, top_k: int = 10) -> AnalysisReport:
        run = self.testing_runs.get(workload_name) or self.training_runs.get(
            workload_name
        )
        if run is None:
            raise KeyError(f"workload {workload_name!r} was not part of the experiment")
        return self.model.analyze(
            run.collection.samples,
            workload=run.workload.label,
            top_k=top_k,
            metric_areas=default_catalog().areas(),
        )


def _seed_for(base_seed: int, workload_name: str) -> int:
    # Stable per-workload seeds independent of Python's hash randomization.
    digest = 0
    for ch in workload_name:
        digest = (digest * 131 + ord(ch)) % (2**31 - 1)
    return (base_seed * 1_000_003 + digest) % (2**31 - 1)


def run_workload(
    workload: Workload,
    machine: MachineConfig,
    n_windows: int,
    config: ExperimentConfig,
    faults: Sequence = (),
) -> WorkloadRun:
    """Simulate one workload and collect samples plus the TMA baseline.

    ``faults`` optionally carries collector-level fault specs
    (corrupt-sample / drop-metric) from a
    :class:`~repro.runtime.faults.FaultPlan`; degraded samples are
    quarantined into ``run.collection.quality`` rather than raised.
    """
    core = CoreModel(machine)
    collector = SampleCollector(machine, config=config.collection())
    rng = random.Random(_seed_for(config.seed, workload.name))
    specs = workload.specs(n_windows, config.window_instructions)
    collection = collector.collect(core, specs, rng=rng, faults=faults)
    tma = TopDownAnalyzer(machine).analyze(collection.full_counts)
    return WorkloadRun(workload=workload, collection=collection, tma=tma)


def run_experiment(
    config: ExperimentConfig | None = None,
    machine: MachineConfig | None = None,
    train_options: TrainOptions | None = None,
    *,
    jobs: "int | str" = 1,
    failure_policy: str = "raise",
    faults: FaultPlan | None = None,
) -> ExperimentResult:
    """Run the paper's full evaluation: 23 training + 4 testing workloads.

    The workloads simulate on the fused engine, whose chunks fork-join
    across the available CPUs, and the per-metric rooflines fit serially
    in this process.  ``jobs`` accepts only ``1`` and ``"auto"``, which
    both mean exactly that; any other value raises
    :class:`~repro.errors.ConfigError`
    (:func:`repro.concurrency.resolve_jobs`).

    ``failure_policy`` decides what a workload that fails does to the
    run: ``"raise"`` (default) raises, ``"skip"`` trains on the
    survivors (see :class:`~repro.runtime.runner.ParallelRunner`).
    ``faults`` injects a deterministic
    :class:`~repro.runtime.faults.FaultPlan`.  See ``docs/robustness.md``.
    """
    resolve_jobs(jobs)
    result, _ = run_experiment_with_report(
        config,
        machine,
        train_options,
        failure_policy=failure_policy,
        faults=faults,
    )
    return result


def run_experiment_with_report(
    config: ExperimentConfig | None = None,
    machine: MachineConfig | None = None,
    train_options: TrainOptions | None = None,
    *,
    failure_policy: str = "raise",
    faults: FaultPlan | None = None,
) -> tuple[ExperimentResult, RunReport]:
    """:func:`run_experiment` plus the :class:`RunReport` of what happened.

    The report records every task's latency and outcome and the failures
    the ``"skip"`` policy skipped.
    """
    cfg = config or ExperimentConfig()
    mach = machine or skylake_gold_6126()

    plan = ExecutionPlan.for_experiment(cfg, mach)
    runner = ParallelRunner(failure_policy=failure_policy, faults=faults)
    runs, report = runner.run_with_report(plan)

    training_runs: dict[str, WorkloadRun] = {}
    testing_runs: dict[str, WorkloadRun] = {}
    training_sets: list[SampleSet] = []
    for task, run in zip(plan.tasks, runs):
        if run is None:
            continue  # failed under failure_policy="skip"
        if task.role == "training":
            training_runs[task.name] = run
            training_sets.append(run.collection.samples)
        else:
            testing_runs[task.name] = run

    if scalar_fallback_enabled():
        pooled = SampleSet()
        for sample_set in training_sets:
            pooled.extend(sample_set)
    else:
        # Pool columns, not objects: one concatenation of per-run arrays
        # replaces hundreds of thousands of Sample constructions.
        pooled = SampleSet.from_columns(
            SampleArray.concat([s.columns() for s in training_sets])
        )

    if report.failures:
        # Only reachable under failure_policy="skip" (the "raise" policy
        # raised inside the runner).  Train on what survived, loudly.
        warnings.warn(
            f"{len(report.failures)} workload(s) failed and were "
            f"skipped: {', '.join(sorted(report.failures))}; training on "
            f"{len(training_runs)} surviving training workload(s)",
            DegradedDataWarning,
            stacklevel=2,
        )
    if not training_runs:
        raise SpireError(
            "no training workload survived the run; cannot train a model "
            f"(failures: {', '.join(sorted(report.failures)) or 'none'})"
        )

    model = SpireModel.train(pooled, options=train_options)

    result = ExperimentResult(
        machine=mach,
        model=model,
        training_runs=training_runs,
        testing_runs=testing_runs,
        training_samples=pooled,
    )
    return result, report


# In-process memo for cached_experiment.  Config, machine and train
# options are all frozen dataclasses, so the tuple of the three is the key.
_experiment_memo: dict[
    tuple[ExperimentConfig, MachineConfig, TrainOptions | None],
    ExperimentResult,
] = {}


def cached_experiment(
    config: ExperimentConfig | None = None,
    machine: MachineConfig | None = None,
    train_options: TrainOptions | None = None,
) -> ExperimentResult:
    """Memoized :func:`run_experiment` for benchmarks sharing one pass.

    The memo key covers every experiment input — config, machine and
    train options — not just the config.
    """
    config = config or ExperimentConfig()
    machine = machine or skylake_gold_6126()
    key = (config, machine, train_options)
    result = _experiment_memo.get(key)
    if result is None:
        result = run_experiment(config, machine, train_options)
        _experiment_memo[key] = result
    return result


def clear_caches() -> None:
    """Drop the in-process experiment memo (for tests)."""
    _experiment_memo.clear()


def quick_workload_run(
    name: str,
    n_windows: int = 300,
    config: ExperimentConfig | None = None,
    machine: MachineConfig | None = None,
) -> WorkloadRun:
    """Convenience runner for one suite workload by name."""
    cfg = config or ExperimentConfig()
    return run_workload(workload_by_name(name), machine or skylake_gold_6126(), n_windows, cfg)
