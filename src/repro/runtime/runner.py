"""In-process, fault-tolerant execution of workload simulations.

The runner executes an :class:`~repro.runtime.plan.ExecutionPlan` in the
calling process and returns results in plan order:

- every unfaulted task simulates in one fused mega-batch
  (:mod:`repro.runtime.fused`), dispatched through the
  ``fused_experiment`` guard;
- the other tasks run one at a time through a resilience envelope:
  **bounded retries** with exponential backoff and deterministic jitter,
  then a **failure policy** for tasks that exhaust them — ``"raise"``
  (default) or ``"skip"`` (return ``None`` for the task and record it);
- a :class:`RunReport` records every attempt, latency, terminal failure
  and checkpoint event.

Per-workload RNG seeds are derived from the experiment seed and the
workload *name* (:func:`repro.pipeline._seed_for`), so a task's result
does not depend on whether it ran fused, in what order, or on which
attempt.

There is no per-task timeout.  Every task is a deterministic simulation,
so the only hangs are injected ones: an injected hang raises
:class:`~repro.errors.TaskTimeoutError`, an injected crash raises
:class:`~repro.errors.WorkerCrashError`, and the envelope retries both.
A real non-terminating simulation would hang again on every retry, so a
timeout could only turn it into a failure.  Recovery from the death of
the process itself is checkpoint/resume: ``on_result`` checkpoints each
task as it settles, fused tasks included.
"""

from __future__ import annotations

import random
import time
import warnings
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.errors import (
    ConfigError,
    DegradedDataWarning,
    SpireError,
    TaskTimeoutError,
    WorkerCrashError,
)
from repro.runtime.faults import FaultPlan, trip_runner_fault
from repro.runtime.plan import ExecutionPlan, WorkloadTask

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.guard.health import HealthReport
    from repro.pipeline import WorkloadRun

__all__ = [
    "FAILURE_POLICIES",
    "ParallelRunner",
    "RunReport",
    "RunnerOptions",
    "TaskAttempt",
]

FAILURE_POLICIES = ("raise", "skip")

#: Attempt outcomes recorded in the run report.
OK = "ok"
TIMEOUT = "timeout"
CRASH = "crash"
ERROR = "error"


@dataclass(frozen=True, slots=True)
class RunnerOptions:
    """Resilience knobs for one run.

    ``retries`` counts *additional* executions after the first attempt, so
    ``retries=2`` allows at most three executions per task.
    """

    retries: int = 2
    backoff_base: float = 0.1
    backoff_max: float = 5.0
    backoff_jitter: float = 0.25
    failure_policy: str = "raise"

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ConfigError("retries cannot be negative")
        if self.backoff_base < 0 or self.backoff_max < 0:
            raise ConfigError("backoff durations cannot be negative")
        if not 0 <= self.backoff_jitter <= 1:
            raise ConfigError("backoff_jitter must be in [0, 1]")
        if self.failure_policy not in FAILURE_POLICIES:
            raise ConfigError(
                f"unknown failure_policy {self.failure_policy!r}; "
                f"expected one of {FAILURE_POLICIES}"
            )

    def backoff(self, task_name: str, attempt: int) -> float:
        """Deterministic exponential backoff with per-(task, attempt) jitter."""
        if self.backoff_base == 0:
            return 0.0
        base = min(self.backoff_max, self.backoff_base * (2 ** (attempt - 1)))
        rng = random.Random(f"{task_name}#{attempt}")
        return base * (1.0 + self.backoff_jitter * rng.random())


@dataclass(frozen=True, slots=True)
class TaskAttempt:
    """One execution attempt of one task."""

    task: str
    attempt: int           # 1-based
    outcome: str           # ok | timeout | crash | error
    duration: float        # seconds from start to settlement
    error: str = ""


@dataclass
class RunReport:
    """What actually happened during one runner execution."""

    attempts: list[TaskAttempt] = field(default_factory=list)
    completed: list[str] = field(default_factory=list)
    failures: dict[str, str] = field(default_factory=dict)
    skipped: list[str] = field(default_factory=list)
    checkpoint_hits: list[str] = field(default_factory=list)
    checkpoint_errors: dict[str, str] = field(default_factory=dict)
    #: Guard-layer telemetry (oracle checks, kernel trips, guardrail hits,
    #: quarantined artifacts) — attached by the experiment pipeline.
    health: "HealthReport | None" = None

    def task_attempts(self, name: str) -> list[TaskAttempt]:
        return [a for a in self.attempts if a.task == name]

    def faulted_tasks(self) -> list[str]:
        """Tasks that misbehaved (retried or failed terminally)."""
        seen: dict[str, None] = {}
        for attempt in self.attempts:
            if attempt.outcome != OK:
                seen.setdefault(attempt.task, None)
        for name in self.failures:
            seen.setdefault(name, None)
        return list(seen)

    @property
    def ok(self) -> bool:
        return not self.failures

    def render(self) -> str:
        """A terse human-readable summary for CLI output."""
        lines = [
            f"tasks: {len(self.completed)} completed, "
            f"{len(self.failures)} failed, "
            f"{len(self.checkpoint_hits)} restored from checkpoints; "
            f"{len(self.attempts)} attempts"
        ]
        for name in self.faulted_tasks():
            history = ", ".join(
                f"#{a.attempt} {a.outcome}"
                + (f" ({a.error})" if a.error and a.outcome != OK else "")
                for a in self.task_attempts(name)
            )
            terminal = self.failures.get(name)
            suffix = f" -> FAILED: {terminal}" if terminal else ""
            lines.append(f"  {name}: {history}{suffix}")
        for name, reason in self.checkpoint_errors.items():
            lines.append(f"  checkpoint write failed for {name}: {reason}")
        if self.health is not None:
            lines.append(self.health.render())
        return "\n".join(lines)


def _classify(exc: SpireError) -> tuple[str, str]:
    if isinstance(exc, TaskTimeoutError):
        return TIMEOUT, str(exc)
    if isinstance(exc, WorkerCrashError):
        return CRASH, str(exc)
    return ERROR, f"{type(exc).__name__}: {exc}"


class ParallelRunner:
    """Executes a plan's tasks in the calling process.

    Parameters
    ----------
    options:
        Resilience knobs (:class:`RunnerOptions`); the defaults retry
        twice with mild backoff and raise on terminal failure.
    faults:
        Optional :class:`~repro.runtime.faults.FaultPlan` injected into
        task execution (crash/hang) and sample collection
        (corrupt-sample/drop-metric).
    """

    #: Processes the tasks run on: always the caller's one.
    jobs = 1

    def __init__(
        self,
        options: RunnerOptions | None = None,
        faults: FaultPlan | None = None,
    ):
        self.options = options or RunnerOptions()
        self.faults = faults

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def run(self, plan: ExecutionPlan) -> list["WorkloadRun"]:
        """Execute every task; results are in plan order.

        Under ``failure_policy="skip"`` a terminally failed task yields
        ``None`` in its slot; under ``"raise"`` the run raises.
        """
        results, _ = self.run_with_report(plan)
        return results

    def run_tasks(
        self, tasks: list[WorkloadTask], machine, config
    ) -> list["WorkloadRun"]:
        """Convenience wrapper for an ad-hoc task list."""
        plan = ExecutionPlan(tasks=tuple(tasks), machine=machine, config=config)
        return self.run(plan)

    def run_with_report(
        self,
        plan: ExecutionPlan,
        completed: dict[str, "WorkloadRun"] | None = None,
        on_result: Callable[[WorkloadTask, "WorkloadRun"], None] | None = None,
    ) -> tuple[list["WorkloadRun | None"], RunReport]:
        """Execute the plan with full attempt accounting.

        ``completed`` maps workload names to already-finished runs (e.g.
        restored from checkpoints); those tasks are not re-executed and
        are recorded as ``checkpoint_hits``.  ``on_result`` is invoked as
        each task completes (checkpoint writes hook in here); an
        ``OSError`` it raises is recorded and warned about, never fatal.
        """
        report = RunReport()
        results: list["WorkloadRun | None"] = [None] * len(plan.tasks)
        pending: list[int] = []
        for index, task in enumerate(plan.tasks):
            if completed is not None and task.name in completed:
                results[index] = completed[task.name]
                report.checkpoint_hits.append(task.name)
                report.completed.append(task.name)
            else:
                pending.append(index)

        for index in self._run_fused(pending, plan, results, report, on_result):
            self._run_task(index, plan, results, report, on_result)

        if report.failures and self.options.failure_policy == "raise":
            name, reason = next(iter(report.failures.items()))
            raise SpireError(
                f"workload task {name!r} failed terminally after "
                f"{len(report.task_attempts(name))} attempt(s): {reason}"
            )
        return results, report

    # ------------------------------------------------------------------
    # Execution paths
    # ------------------------------------------------------------------

    def _faulted(self, name: str) -> bool:
        return bool(
            self.faults
            and (
                self.faults.runner_fault(name)
                or self.faults.collector_faults(name)
            )
        )

    def _settle(
        self,
        index: int,
        plan: ExecutionPlan,
        run: "WorkloadRun",
        execution: int,
        started: float,
        results: list,
        report: RunReport,
        on_result,
    ) -> None:
        task = plan.tasks[index]
        results[index] = run
        report.attempts.append(
            TaskAttempt(
                task=task.name,
                attempt=execution,
                outcome=OK,
                duration=time.monotonic() - started,
            )
        )
        report.completed.append(task.name)
        if on_result is not None:
            try:
                on_result(task, run)
            except OSError as exc:
                report.checkpoint_errors[task.name] = str(exc)
                warnings.warn(
                    f"checkpoint write for {task.name!r} failed: {exc}",
                    DegradedDataWarning,
                    stacklevel=4,
                )

    def _run_fused(
        self,
        pending: list[int],
        plan: ExecutionPlan,
        results: list,
        report: RunReport,
        on_result,
    ) -> list[int]:
        """Try the fused mega-batch engine on every unfaulted pending task.

        Returns the indices left for the per-task envelope.  Tasks with
        registered runner or collector faults always stay there — fusing
        them would change fault semantics (a crash mid-batch must not
        take its siblings' results with it, and collector faults are
        defined per workload run).  Everything else simulates as one
        concatenated columnar plan, dispatched through the
        ``fused_experiment`` guard: sampled calls replay one
        deterministically chosen segment through the per-workload oracle
        and compare bit-for-bit, and a divergence trips the breaker back
        to the unfused path.  Settled tasks still flow through
        ``on_result``, so checkpoints are written at segment granularity.
        """
        from repro.guard.dispatch import kernel_guard
        from repro.pipeline import run_workload
        from repro.runtime.fused import runs_equal, simulate_tasks_fused

        eligible = [i for i in pending if not self._faulted(plan.tasks[i].name)]
        if len(eligible) < 2:
            return pending
        guard = kernel_guard("fused_experiment")
        if not guard.use_fast():
            return pending
        started = time.monotonic()
        try:
            runs = simulate_tasks_fused(
                [plan.tasks[i] for i in eligible], plan.machine, plan.config
            )
        except SpireError:
            # Let the per-task path re-raise with its own retry/attempt
            # accounting; the scalar error surface stays unchanged.
            return pending
        if guard.should_check():
            probe = (guard.calls - 1) % len(eligible)
            task = plan.tasks[eligible[probe]]
            oracle = run_workload(
                task.workload, plan.machine, task.n_windows, plan.config
            )
            ok = runs_equal(runs[probe], oracle)
            if not guard.resolve(ok, detail=f"segment {task.name!r}"):
                return pending  # breaker tripped: recompute everything unfused
        for index, run in zip(eligible, runs):
            self._settle(
                index, plan, run, 1, started, results, report, on_result
            )
        fused = set(eligible)
        return [i for i in pending if i not in fused]

    def _run_task(
        self,
        index: int,
        plan: ExecutionPlan,
        results: list,
        report: RunReport,
        on_result,
    ) -> None:
        """One task through the retry envelope."""
        from repro.pipeline import run_workload

        task = plan.tasks[index]
        fault = self.faults.runner_fault(task.name) if self.faults else None
        data_faults = self.faults.collector_faults(task.name) if self.faults else ()
        execution = 0
        while True:
            execution += 1
            started = time.monotonic()
            try:
                trip_runner_fault(fault, execution)
                # Transient data faults stop firing once their `times`
                # budget is spent, so a retried task can come back clean.
                run = run_workload(
                    task.workload,
                    plan.machine,
                    task.n_windows,
                    plan.config,
                    faults=tuple(s for s in data_faults if s.active(execution)),
                )
            except SpireError as exc:
                outcome, message = _classify(exc)
                report.attempts.append(
                    TaskAttempt(
                        task=task.name,
                        attempt=execution,
                        outcome=outcome,
                        duration=time.monotonic() - started,
                        error=message,
                    )
                )
                if execution > self.options.retries:
                    report.failures[task.name] = message
                    if self.options.failure_policy == "skip":
                        report.skipped.append(task.name)
                    return
                time.sleep(self.options.backoff(task.name, execution))
            else:
                self._settle(
                    index, plan, run, execution, started, results, report,
                    on_result,
                )
                return
