"""Fault-tolerant parallel execution of workload simulations.

The runner fans an :class:`~repro.runtime.plan.ExecutionPlan`'s tasks out
over a ``ProcessPoolExecutor`` — and survives the ways that goes wrong on
real hardware.  Three properties make the fan-out safe:

- every task is self-contained (workload, machine, windows, config are all
  picklable dataclasses);
- per-workload RNG seeds are derived from the experiment seed and the
  workload *name* (:func:`repro.pipeline._seed_for`), never from shared
  mutable state, so a task's result does not depend on which process runs
  it, in what order, or on which attempt;
- results are returned in plan order regardless of completion order.

On top of that, each task is executed through a resilience envelope:

- a configurable **per-task timeout** (pool mode; in-process execution
  cannot be preempted and ignores it);
- **bounded retries** with exponential backoff and deterministic jitter;
- **pool recovery**: a worker crash breaks the whole
  ``ProcessPoolExecutor`` (every outstanding future raises
  ``BrokenProcessPool``); the runner rebuilds the pool and re-executes
  only the tasks that had not completed, falling back to in-process
  execution after ``max_pool_rebuilds`` consecutive pool deaths;
- a **failure policy** for tasks that exhaust their retries: ``"raise"``
  (default), ``"skip"`` (return ``None`` for the task and record it), or
  ``"serial_fallback"`` (one final in-process attempt before raising);
- a :class:`RunReport` recording every attempt, latency, terminal
  failure, pool rebuild and checkpoint event.

``jobs=1`` (the default) and ``jobs="auto"`` bypass the pool entirely and
run in-process, on the fused engine (:mod:`repro.runtime.fused`) — the
serial path is the parallel path with the executor removed, so the two
produce identical :class:`~repro.pipeline.WorkloadRun` objects.  The pool
is reached only through an explicit ``jobs=N`` or ``SPIRE_JOBS``: it buys
hang/timeout isolation, not speed (see :mod:`repro.concurrency` for the
measurements).
"""

from __future__ import annotations

import random
import time
import warnings
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.concurrency import resolve_chunksize, resolve_jobs
from repro.errors import (
    ConfigError,
    DegradedDataWarning,
    SpireError,
    TaskTimeoutError,
    WorkerCrashError,
)
from repro.runtime.faults import FaultPlan, FaultSpec, trip_runner_fault
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
    "resolve_jobs",
]

FAILURE_POLICIES = ("raise", "skip", "serial_fallback")

#: Attempt outcomes recorded in the run report.
OK = "ok"
TIMEOUT = "timeout"
CRASH = "crash"
ERROR = "error"
POOL_BROKEN = "pool-broken"


@dataclass(frozen=True, slots=True)
class RunnerOptions:
    """Resilience knobs for one run.

    ``retries`` counts *additional* executions after the first attempt, so
    ``retries=2`` allows at most three executions per task.  Pool rebuilds
    caused by a crashed sibling do not consume a task's retry budget —
    only its own timeouts, crashes and errors do.
    """

    task_timeout: float | None = None
    retries: int = 2
    backoff_base: float = 0.1
    backoff_max: float = 5.0
    backoff_jitter: float = 0.25
    failure_policy: str = "raise"
    max_pool_rebuilds: int = 2

    def __post_init__(self) -> None:
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ConfigError("task_timeout must be positive (or None)")
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
        if self.max_pool_rebuilds < 0:
            raise ConfigError("max_pool_rebuilds cannot be negative")

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
    attempt: int           # 1-based, counts every execution incl. pool losses
    outcome: str           # ok | timeout | crash | error | pool-broken
    duration: float        # seconds from submission to settlement
    in_process: bool = False
    error: str = ""


@dataclass
class RunReport:
    """What actually happened during one runner execution."""

    attempts: list[TaskAttempt] = field(default_factory=list)
    completed: list[str] = field(default_factory=list)
    failures: dict[str, str] = field(default_factory=dict)
    skipped: list[str] = field(default_factory=list)
    pool_rebuilds: int = 0
    serial_fallbacks: list[str] = field(default_factory=list)
    checkpoint_hits: list[str] = field(default_factory=list)
    checkpoint_errors: dict[str, str] = field(default_factory=dict)
    #: Guard-layer telemetry (oracle checks, kernel trips, guardrail hits,
    #: quarantined artifacts) — attached by the experiment pipeline.
    health: "HealthReport | None" = None

    def task_attempts(self, name: str) -> list[TaskAttempt]:
        return [a for a in self.attempts if a.task == name]

    def faulted_tasks(self) -> list[str]:
        """Tasks that themselves misbehaved (retried or failed terminally).

        Pool-broken attempts are excluded: when a sibling crashes the whole
        pool, the tasks lost with it are collateral, not faulty.
        """
        seen: dict[str, None] = {}
        for attempt in self.attempts:
            if attempt.outcome not in (OK, POOL_BROKEN):
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
            f"{len(self.attempts)} attempts, "
            f"{self.pool_rebuilds} pool rebuild(s)"
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


def _execute_task(payload: tuple):
    """Worker entry point: simulate one workload (optionally faulted).

    Imports the pipeline lazily because :mod:`repro.pipeline` imports this
    package at module load.  Pool attempts with ``use_shm`` ship the
    result's sample columns over shared memory
    (:func:`repro.runtime.shm.encode_run`) instead of pickling them.
    """
    (
        workload,
        machine,
        n_windows,
        config,
        fault,
        collector_faults,
        execution,
        in_process,
        deadline,
        use_shm,
    ) = payload
    trip_runner_fault(fault, execution, in_process, deadline)
    from repro.pipeline import run_workload

    run = run_workload(
        workload, machine, n_windows, config, faults=collector_faults
    )
    if use_shm and not in_process:
        from repro.runtime.shm import encode_run

        return encode_run(run)
    return run


@dataclass
class _TaskState:
    """Book-keeping for one task across attempts and pool rebuilds."""

    index: int
    task: WorkloadTask
    executions: int = 0       # every execution, incl. ones lost to pool death
    budget_used: int = 0      # only attempts attributable to this task
    deadline: float = 0.0     # monotonic deadline of the in-flight attempt
    started: float = 0.0
    done: bool = False


class ParallelRunner:
    """Executes a plan's tasks, serially or over a process pool.

    Parameters
    ----------
    jobs:
        Worker process count.  ``1`` runs in-process; ``0`` or ``None``
        uses one worker per available CPU; ``"auto"`` always runs the
        fused engine in-process, unless ``SPIRE_JOBS`` names a count.
    chunksize:
        Retained for API compatibility with the PR-1 runner, which fed
        ``pool.map``.  The resilient runner submits tasks individually
        (per-task futures carry per-task deadlines), so the value is
        validated but no longer affects scheduling.
    options:
        Resilience knobs (:class:`RunnerOptions`); the defaults retry
        twice with mild backoff and raise on terminal failure.
    faults:
        Optional :class:`~repro.runtime.faults.FaultPlan` injected into
        task execution (crash/hang) and sample collection
        (corrupt-sample/drop-metric).
    """

    def __init__(
        self,
        jobs: "int | str" = 1,
        chunksize: int = 1,
        options: RunnerOptions | None = None,
        faults: FaultPlan | None = None,
    ):
        self.jobs = resolve_jobs(jobs)
        self.chunksize = resolve_chunksize(chunksize)
        self.options = options or RunnerOptions()
        self.faults = faults

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def run(self, plan: ExecutionPlan) -> list["WorkloadRun"]:
        """Execute every task; results are in plan order.

        Under ``failure_policy="skip"`` a terminally failed task yields
        ``None`` in its slot; the other policies either raise or recover.
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
        are recorded as ``checkpoint_hits``.  ``on_result`` is invoked in
        the parent process as each task completes (checkpoint writes hook
        in here); an ``OSError`` it raises is recorded and warned about,
        never fatal.
        """
        report = RunReport()
        results: list["WorkloadRun | None"] = [None] * len(plan.tasks)
        states: list[_TaskState] = []
        for index, task in enumerate(plan.tasks):
            state = _TaskState(index=index, task=task)
            if completed is not None and task.name in completed:
                results[index] = completed[task.name]
                state.done = True
                report.checkpoint_hits.append(task.name)
                report.completed.append(task.name)
            states.append(state)

        pending = [s for s in states if not s.done]
        if pending:
            if self.jobs <= 1 or len(pending) == 1:
                self._run_serial(pending, plan, results, report, on_result)
            else:
                self._run_pool(pending, plan, results, report, on_result)

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

    def _payload(
        self,
        state: _TaskState,
        plan: ExecutionPlan,
        in_process: bool,
        use_shm: bool = False,
    ):
        task = state.task
        fault = self.faults.runner_fault(task.name) if self.faults else None
        collector_faults = ()
        if self.faults:
            # Transient data faults stop firing once their `times` budget
            # is spent, so a retried task can come back clean.
            collector_faults = tuple(
                s
                for s in self.faults.collector_faults(task.name)
                if s.active(state.executions)
            )
        return (
            task.workload,
            plan.machine,
            task.n_windows,
            plan.config,
            fault,
            collector_faults,
            state.executions,  # already incremented by the caller
            in_process,
            self.options.task_timeout,
            use_shm,
        )

    def _record(
        self,
        report: RunReport,
        state: _TaskState,
        outcome: str,
        error: str = "",
        in_process: bool = False,
    ) -> None:
        report.attempts.append(
            TaskAttempt(
                task=state.task.name,
                attempt=state.executions,
                outcome=outcome,
                duration=max(0.0, time.monotonic() - state.started),
                in_process=in_process,
                error=error,
            )
        )

    def _settle_success(
        self,
        state: _TaskState,
        run: "WorkloadRun",
        results: list,
        report: RunReport,
        on_result,
        in_process: bool = False,
    ) -> None:
        results[state.index] = run
        state.done = True
        self._record(report, state, OK, in_process=in_process)
        report.completed.append(state.task.name)
        if on_result is not None:
            try:
                on_result(state.task, run)
            except OSError as exc:
                report.checkpoint_errors[state.task.name] = str(exc)
                warnings.warn(
                    f"checkpoint write for {state.task.name!r} failed: {exc}",
                    DegradedDataWarning,
                    stacklevel=4,
                )

    def _settle_terminal(
        self, state: _TaskState, reason: str, report: RunReport
    ) -> None:
        state.done = True
        report.failures[state.task.name] = reason
        if self.options.failure_policy == "skip":
            report.skipped.append(state.task.name)

    def _classify(self, exc: BaseException) -> tuple[str, str]:
        if isinstance(exc, TaskTimeoutError):
            return TIMEOUT, str(exc)
        if isinstance(exc, (WorkerCrashError, BrokenProcessPool)):
            return CRASH, str(exc) or type(exc).__name__
        return ERROR, f"{type(exc).__name__}: {exc}"

    def _run_fused(
        self,
        pending: list[_TaskState],
        plan: ExecutionPlan,
        results: list,
        report: RunReport,
        on_result,
    ) -> None:
        """Try the fused mega-batch engine on every unfaulted pending task.

        Tasks with registered runner or collector faults keep the
        per-task retry envelope — fusing them would change fault
        semantics (a crash mid-batch must not take its siblings' results
        with it, and collector faults are defined per workload run).
        Everything else simulates as one concatenated columnar plan,
        dispatched through the ``fused_experiment`` guard: sampled calls
        replay one deterministically chosen segment through the
        per-workload oracle and compare bit-for-bit, and a divergence
        trips the breaker back to the unfused path.  Settled tasks still
        flow through ``on_result``, so checkpoints are written at segment
        granularity.
        """
        from repro.guard.dispatch import kernel_guard
        from repro.runtime.fused import runs_equal, simulate_tasks_fused

        eligible = [
            state
            for state in pending
            if not state.done
            and not (
                self.faults
                and (
                    self.faults.runner_fault(state.task.name)
                    or self.faults.collector_faults(state.task.name)
                )
            )
        ]
        if len(eligible) < 2:
            return
        guard = kernel_guard("fused_experiment")
        if not guard.use_fast():
            return
        started = time.monotonic()
        try:
            runs = simulate_tasks_fused(
                [state.task for state in eligible], plan.machine, plan.config
            )
        except SpireError:
            # Let the per-task path re-raise with its own retry/attempt
            # accounting; the scalar error surface stays unchanged.
            return
        if guard.should_check():
            probe = eligible[(guard.calls - 1) % len(eligible)]
            from repro.pipeline import run_workload

            oracle = run_workload(
                probe.task.workload, plan.machine, probe.task.n_windows,
                plan.config,
            )
            ok = runs_equal(runs[eligible.index(probe)], oracle)
            if not guard.resolve(ok, detail=f"segment {probe.task.name!r}"):
                return  # breaker tripped: recompute everything unfused
        for state, run in zip(eligible, runs):
            state.executions += 1
            state.budget_used += 1
            state.started = started
            self._settle_success(
                state, run, results, report, on_result, in_process=True
            )

    def _run_serial(
        self,
        pending: list[_TaskState],
        plan: ExecutionPlan,
        results: list,
        report: RunReport,
        on_result,
    ) -> None:
        """In-process execution with the same retry envelope as the pool."""
        self._run_fused(pending, plan, results, report, on_result)
        for state in pending:
            while not state.done:
                state.executions += 1
                state.budget_used += 1
                state.started = time.monotonic()
                try:
                    run = _execute_task(self._payload(state, plan, True))
                except SpireError as exc:
                    outcome, message = self._classify(exc)
                    self._record(report, state, outcome, message, in_process=True)
                    if state.budget_used > self.options.retries:
                        self._settle_terminal(state, message, report)
                    else:
                        time.sleep(
                            self.options.backoff(
                                state.task.name, state.budget_used
                            )
                        )
                else:
                    self._settle_success(
                        state, run, results, report, on_result, in_process=True
                    )

    def _run_pool(
        self,
        pending: list[_TaskState],
        plan: ExecutionPlan,
        results: list,
        report: RunReport,
        on_result,
    ) -> None:
        """Pool execution: per-task futures, deadlines, rebuild on death."""
        from repro.runtime.shm import decode_run, shm_enabled

        opts = self.options
        use_shm = shm_enabled()
        workers = min(self.jobs, len(pending))
        pool: ProcessPoolExecutor | None = ProcessPoolExecutor(
            max_workers=workers
        )
        in_flight: dict[Future, _TaskState] = {}
        # Futures whose deadline expired: the task has moved on, but the
        # worker may still be running them — their late results are dropped.
        abandoned: set[Future] = set()
        # (state, not-before-monotonic) entries waiting out their backoff.
        backlog: list[tuple[_TaskState, float]] = []

        def submit(state: _TaskState) -> None:
            state.executions += 1
            state.started = time.monotonic()
            state.deadline = (
                state.started + opts.task_timeout
                if opts.task_timeout is not None
                else float("inf")
            )
            future = pool.submit(
                _execute_task, self._payload(state, plan, False, use_shm)
            )
            in_flight[future] = state

        def retry_or_fail(state: _TaskState, outcome: str, message: str) -> None:
            state.budget_used += 1
            self._record(report, state, outcome, message)
            if state.budget_used > opts.retries:
                if opts.failure_policy == "serial_fallback":
                    self._serial_fallback(
                        state, plan, results, report, on_result
                    )
                else:
                    self._settle_terminal(state, message, report)
            else:
                backlog.append(
                    (
                        state,
                        time.monotonic()
                        + opts.backoff(state.task.name, state.budget_used),
                    )
                )

        def rebuild_pool() -> bool:
            """Replace a broken pool; False switches to in-process mode."""
            nonlocal pool
            report.pool_rebuilds += 1
            try:
                pool.shutdown(wait=False, cancel_futures=True)
            except Exception:
                pass
            abandoned.clear()
            if report.pool_rebuilds > opts.max_pool_rebuilds:
                pool = None
                return False
            pool = ProcessPoolExecutor(max_workers=workers)
            return True

        for state in pending:
            submit(state)

        try:
            while in_flight or backlog:
                if not in_flight:
                    # Everything live is waiting out a backoff.
                    state, not_before = min(backlog, key=lambda e: e[1])
                    delay = not_before - time.monotonic()
                    if delay > 0:
                        time.sleep(delay)
                    backlog.remove((state, not_before))
                    submit(state)
                    continue

                now = time.monotonic()
                next_deadline = min(s.deadline for s in in_flight.values())
                wait_timeout = max(0.0, min(next_deadline - now, 0.5))
                done, _ = wait(
                    set(in_flight), timeout=wait_timeout,
                    return_when=FIRST_COMPLETED,
                )

                pool_broke = False
                for future in done:
                    state = in_flight.pop(future)
                    try:
                        run = decode_run(future.result())
                    except BrokenProcessPool:
                        pool_broke = True
                        # The crash is attributed below, with its siblings.
                        in_flight[future] = state
                    except SpireError as exc:
                        outcome, message = self._classify(exc)
                        retry_or_fail(state, outcome, message)
                    except BaseException as exc:  # non-Spire worker error
                        outcome, message = self._classify(exc)
                        retry_or_fail(state, outcome, message)
                    else:
                        self._settle_success(
                            state, run, results, report, on_result
                        )

                if pool_broke:
                    # Every uncompleted task was lost with the pool.  Record
                    # a pool-broken attempt for each (not charged against
                    # their retry budget — the crashing sibling is usually
                    # not them) and re-execute on a fresh pool, or switch
                    # to in-process execution once rebuilds are exhausted.
                    lost = list(in_flight.values())
                    in_flight.clear()
                    for state in lost:
                        self._record(
                            report, state, POOL_BROKEN,
                            "process pool died; task re-executed",
                        )
                    if rebuild_pool():
                        for state in lost:
                            submit(state)
                    else:
                        backlog_states = [s for s, _ in backlog]
                        backlog.clear()
                        self._run_serial(
                            lost + backlog_states, plan, results, report,
                            on_result,
                        )
                        return
                    continue

                # Deadline sweep: time out in-flight attempts that overran.
                now = time.monotonic()
                for future, state in list(in_flight.items()):
                    if now >= state.deadline:
                        del in_flight[future]
                        if not future.cancel():
                            # A running future cannot be cancelled; its
                            # eventual result is ignored via `abandoned`.
                            abandoned.add(future)
                            _watch_abandoned(future, abandoned)
                        retry_or_fail(
                            state,
                            TIMEOUT,
                            f"exceeded task_timeout={opts.task_timeout:.3g}s",
                        )

                # Drain due backlog entries into the pool.
                now = time.monotonic()
                due = [e for e in backlog if e[1] <= now]
                for entry in due:
                    backlog.remove(entry)
                    submit(entry[0])
        finally:
            if pool is not None:
                pool.shutdown(wait=False, cancel_futures=True)

    def _serial_fallback(
        self,
        state: _TaskState,
        plan: ExecutionPlan,
        results: list,
        report: RunReport,
        on_result,
    ) -> None:
        """One final in-process attempt after the pool gave up on a task."""
        report.serial_fallbacks.append(state.task.name)
        state.executions += 1
        state.budget_used += 1
        state.started = time.monotonic()
        try:
            run = _execute_task(self._payload(state, plan, True))
        except SpireError as exc:
            _, message = self._classify(exc)
            self._settle_terminal(state, message, report)
        else:
            self._settle_success(
                state, run, results, report, on_result, in_process=True
            )


def _watch_abandoned(future: Future, abandoned: set[Future]) -> None:
    """Drop an abandoned future from the tracking set once it settles."""
    def _done(f: Future) -> None:
        abandoned.discard(f)
        # Consume the exception so the executor does not log it on gc.
        if not f.cancelled():
            if f.exception() is None:
                # A late success may carry a shared-memory handle whose
                # segment the parent now owns — unlink it or it leaks.
                from repro.runtime.shm import release_run

                release_run(f.result())
    future.add_done_callback(_done)
