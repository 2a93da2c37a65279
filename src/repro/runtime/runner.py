"""Execution of workload simulations, without a process pool.

The runner executes an :class:`~repro.runtime.plan.ExecutionPlan` and
returns results in plan order:

- every task without a collector fault simulates in one fused
  mega-batch (:mod:`repro.runtime.fused`), whose chunks
  :func:`~repro.concurrency.fork_join` deals across the available CPUs,
  unless ``SPIRE_SCALAR_FALLBACK`` sends every task down the per-task
  path;
- the other tasks run once each through
  :func:`~repro.pipeline.run_workload` in the calling process, and a
  **failure policy** decides what a task that raises
  :class:`~repro.errors.SpireError` does to the run — ``"raise"``
  (default) or ``"skip"`` (return ``None`` for the task and record it);
- a :class:`RunReport` records every task's latency and outcome.

Per-workload RNG seeds are derived from the experiment seed and the
workload *name* (:func:`repro.pipeline._seed_for`), so a task's result
does not depend on whether it ran fused or in what order.

Every task is a deterministic simulation, so it runs exactly once: a
retry would fail the same way, and a run that finishes in well under a
second has nothing worth checkpointing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import ConfigError, SpireError
from repro.fastpath import scalar_fallback_enabled
from repro.runtime.faults import FaultPlan
from repro.runtime.plan import ExecutionPlan

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.pipeline import WorkloadRun

__all__ = [
    "FAILURE_POLICIES",
    "ParallelRunner",
    "RunReport",
    "TaskAttempt",
]

FAILURE_POLICIES = ("raise", "skip")

#: Task outcomes recorded in the run report.
OK = "ok"
ERROR = "error"


@dataclass(frozen=True, slots=True)
class TaskAttempt:
    """The one execution of one task."""

    task: str
    outcome: str           # ok | error
    duration: float        # seconds from start to settlement
    error: str = ""


@dataclass
class RunReport:
    """What actually happened during one runner execution."""

    attempts: list[TaskAttempt] = field(default_factory=list)
    completed: list[str] = field(default_factory=list)
    failures: dict[str, str] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures

    def render(self) -> str:
        """A terse human-readable summary for CLI output."""
        lines = [
            f"tasks: {len(self.completed)} completed, "
            f"{len(self.failures)} failed"
        ]
        for name, reason in self.failures.items():
            lines.append(f"  {name}: FAILED: {reason}")
        return "\n".join(lines)


class ParallelRunner:
    """Executes a plan's tasks: the fused chunks on every available CPU,
    the per-task path in the calling process.

    Parameters
    ----------
    failure_policy:
        ``"raise"`` (default) re-raises the first task failure as a
        :class:`~repro.errors.SpireError` naming the task; ``"skip"``
        leaves ``None`` in the task's slot and records the failure.
    faults:
        Optional :class:`~repro.runtime.faults.FaultPlan` whose collector
        faults (corrupt-sample/drop-metric) degrade their tasks' samples.
    """

    #: Worker processes the runner keeps: always one, the caller's.  The
    #: fused engine's fork-join lives only for the length of one call.
    jobs = 1

    def __init__(
        self,
        failure_policy: str = "raise",
        faults: FaultPlan | None = None,
    ):
        if failure_policy not in FAILURE_POLICIES:
            raise ConfigError(
                f"unknown failure_policy {failure_policy!r}; "
                f"expected one of {FAILURE_POLICIES}"
            )
        self.failure_policy = failure_policy
        self.faults = faults

    def run(self, plan: ExecutionPlan) -> list["WorkloadRun | None"]:
        """Execute every task; results are in plan order."""
        results, _ = self.run_with_report(plan)
        return results

    def run_with_report(
        self, plan: ExecutionPlan
    ) -> tuple[list["WorkloadRun | None"], RunReport]:
        """Execute the plan and account for every task."""
        report = RunReport()
        results: list["WorkloadRun | None"] = [None] * len(plan.tasks)
        for index in self._run_fused(plan, results, report):
            self._run_task(index, plan, results, report)
        return results, report

    def _collector_faults(self, name: str) -> tuple:
        return self.faults.collector_faults(name) if self.faults else ()

    def _settle(
        self,
        index: int,
        plan: ExecutionPlan,
        run: "WorkloadRun",
        started: float,
        results: list,
        report: RunReport,
    ) -> None:
        name = plan.tasks[index].name
        results[index] = run
        report.attempts.append(
            TaskAttempt(
                task=name, outcome=OK, duration=time.monotonic() - started
            )
        )
        report.completed.append(name)

    def _run_fused(
        self, plan: ExecutionPlan, results: list, report: RunReport
    ) -> list[int]:
        """Try the fused mega-batch engine on every unfaulted task.

        Returns the indices left for the per-task path.  Tasks with
        collector faults always stay there: those faults are defined per
        workload run.  Everything else simulates as one concatenated
        columnar plan.  Any :class:`~repro.errors.SpireError` from the
        engine, a forked chunk's included (a child that dies is one),
        sends every task down the per-task path, which raises or skips
        with its own accounting.  ``SPIRE_SCALAR_FALLBACK`` sends every
        task down the per-task path, whose scalar
        :func:`~repro.pipeline.run_workload` is the fused engine's oracle.
        """
        from repro.runtime.fused import simulate_tasks_fused

        every = list(range(len(plan.tasks)))
        eligible = [
            i for i in every if not self._collector_faults(plan.tasks[i].name)
        ]
        if len(eligible) < 2 or scalar_fallback_enabled():
            return every
        started = time.monotonic()
        try:
            runs = simulate_tasks_fused(
                [plan.tasks[i] for i in eligible], plan.machine, plan.config
            )
        except SpireError:
            # Let the per-task path raise with its own accounting; the
            # scalar error surface stays unchanged.
            return every
        for index, run in zip(eligible, runs):
            self._settle(index, plan, run, started, results, report)
        fused = set(eligible)
        return [i for i in every if i not in fused]

    def _run_task(
        self, index: int, plan: ExecutionPlan, results: list, report: RunReport
    ) -> None:
        """One task, executed once, under the failure policy."""
        from repro.pipeline import run_workload

        task = plan.tasks[index]
        started = time.monotonic()
        try:
            run = run_workload(
                task.workload,
                plan.machine,
                task.n_windows,
                plan.config,
                faults=self._collector_faults(task.name),
            )
        except SpireError as exc:
            message = f"{type(exc).__name__}: {exc}"
            report.attempts.append(
                TaskAttempt(
                    task=task.name,
                    outcome=ERROR,
                    duration=time.monotonic() - started,
                    error=message,
                )
            )
            if self.failure_policy == "raise":
                raise SpireError(
                    f"workload task {task.name!r} failed: {message}"
                ) from exc
            report.failures[task.name] = message
            return
        self._settle(index, plan, run, started, results, report)
