"""Execution planning for the evaluation pipeline.

An :class:`ExecutionPlan` is the declarative form of one experiment: the
ordered list of workload simulations (23 training + 4 testing by default)
with everything each one needs to run independently.  Because the paper's
evaluation is embarrassingly parallel — workloads never interact and each
one derives its RNG seed from the experiment seed plus its own name — a
plan's tasks can run one by one or fused into one mega-batch and produce
byte-identical results either way (see :mod:`repro.runtime.runner`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.errors import ConfigError
from repro.uarch import MachineConfig
from repro.workloads import Workload, testing_suite, training_suite

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (pipeline -> runtime)
    from repro.pipeline import ExperimentConfig

TRAINING = "training"
TESTING = "testing"


@dataclass(frozen=True, slots=True)
class WorkloadTask:
    """One independently executable unit of an experiment."""

    workload: Workload
    role: str
    n_windows: int

    def __post_init__(self) -> None:
        if self.role not in (TRAINING, TESTING):
            raise ConfigError(f"unknown task role {self.role!r}")
        if self.n_windows < 1:
            raise ConfigError("a task needs at least one window")

    @property
    def name(self) -> str:
        return self.workload.name


@dataclass(frozen=True, slots=True)
class ExecutionPlan:
    """An ordered, self-contained description of one experiment run."""

    tasks: tuple[WorkloadTask, ...]
    machine: MachineConfig
    config: "ExperimentConfig"

    def __post_init__(self) -> None:
        if not self.tasks:
            raise ConfigError("an execution plan needs at least one task")
        names = [task.name for task in self.tasks]
        if len(set(names)) != len(names):
            raise ConfigError("execution plan contains duplicate workload names")

    @classmethod
    def for_experiment(
        cls,
        config: "ExperimentConfig",
        machine: MachineConfig,
        training: Sequence[Workload] | None = None,
        testing: Sequence[Workload] | None = None,
    ) -> "ExecutionPlan":
        """The paper's full evaluation as a plan (suite order preserved)."""
        train = list(training) if training is not None else training_suite()
        test = list(testing) if testing is not None else testing_suite()
        tasks = [
            WorkloadTask(workload=w, role=TRAINING, n_windows=config.train_windows)
            for w in train
        ]
        tasks += [
            WorkloadTask(workload=w, role=TESTING, n_windows=config.test_windows)
            for w in test
        ]
        return cls(tasks=tuple(tasks), machine=machine, config=config)

    def __len__(self) -> int:
        return len(self.tasks)
