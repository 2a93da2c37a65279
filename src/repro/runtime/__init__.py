"""Execution runtime: the experiment plan, the fused engine and the runner.

- :class:`ExecutionPlan` decomposes an experiment into independently
  executable workload tasks;
- :class:`ParallelRunner` runs them without a process pool — unfaulted
  tasks as one fused mega-batch (:mod:`repro.runtime.fused`), whose
  chunks fork-join across the available CPUs, the rest once each in the
  calling process under a failure policy (``"raise"`` or ``"skip"``);
  every run yields a :class:`RunReport` of what actually happened;
- :class:`FaultPlan` injects deterministic faults (corrupt sample,
  dropped metric, stream faults) to prove the layers that must absorb
  them do — see ``spire faultsim``.

See ``docs/performance.md`` and ``docs/robustness.md`` for the full story.
"""

from repro.runtime.faults import FAULT_KINDS, FaultPlan, FaultSpec
from repro.runtime.plan import ExecutionPlan, WorkloadTask
from repro.runtime.runner import (
    FAILURE_POLICIES,
    ParallelRunner,
    RunReport,
    TaskAttempt,
)

__all__ = [
    "FAILURE_POLICIES",
    "FAULT_KINDS",
    "ExecutionPlan",
    "FaultPlan",
    "FaultSpec",
    "ParallelRunner",
    "RunReport",
    "TaskAttempt",
    "WorkloadTask",
]
