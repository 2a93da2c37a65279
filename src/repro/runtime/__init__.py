"""Execution runtime: fused in-process execution, fault tolerance, caching.

This subsystem makes the evaluation pipeline fast *and* survivable:

- :class:`ExecutionPlan` / :class:`ParallelRunner` decompose an experiment
  into independently executable workload tasks and run them in one
  process — unfaulted tasks as one fused mega-batch, the rest through
  bounded retries and a configurable failure policy
  (:class:`RunnerOptions`); every run yields a :class:`RunReport` of
  what actually happened;
- :class:`ExperimentCache` persists finished experiments on disk,
  content-addressed by a fingerprint of every input, plus per-workload
  checkpoints so an interrupted run resumes instead of restarting;
- :class:`FaultPlan` injects deterministic failures (worker crash, hang,
  corrupt sample, dropped metric, checkpoint write error, corrupted
  cache entry, diverging kernel) to prove all of the above works — see
  ``spire faultsim``.

See ``docs/performance.md`` and ``docs/robustness.md`` for the full story.
"""

from repro.runtime.cache import (
    CACHE_DIR_ENV,
    CACHE_FORMAT,
    CACHE_MAX_ENTRIES_ENV,
    CHECKPOINT_FORMAT,
    ExperimentCache,
    experiment_cache_key,
    experiment_fingerprint,
    result_from_payload,
    result_to_payload,
)
from repro.runtime.faults import (
    CORRUPT_CACHE_ENTRY,
    DIVERGE_KERNEL,
    FAULT_KINDS,
    GUARD_KINDS,
    FaultPlan,
    FaultSpec,
)
from repro.runtime.plan import ExecutionPlan, WorkloadTask
from repro.runtime.runner import (
    FAILURE_POLICIES,
    ParallelRunner,
    RunReport,
    RunnerOptions,
    TaskAttempt,
)

__all__ = [
    "CACHE_DIR_ENV",
    "CACHE_FORMAT",
    "CACHE_MAX_ENTRIES_ENV",
    "CHECKPOINT_FORMAT",
    "CORRUPT_CACHE_ENTRY",
    "DIVERGE_KERNEL",
    "FAILURE_POLICIES",
    "FAULT_KINDS",
    "GUARD_KINDS",
    "ExecutionPlan",
    "ExperimentCache",
    "FaultPlan",
    "FaultSpec",
    "ParallelRunner",
    "RunReport",
    "RunnerOptions",
    "TaskAttempt",
    "WorkloadTask",
    "experiment_cache_key",
    "experiment_fingerprint",
    "result_from_payload",
    "result_to_payload",
]
