"""Validation for the one job-count knob: ``run_experiment(jobs=...)``.

Experiments and training run in one process.  The fused in-process
engine beats any process pool at the paper's evaluation: on a 2-vCPU
Xeon VM a paper-scale ``run_experiment`` took 0.41–0.72 s in-process
against 2.27–2.84 s with a 2-worker pool, and ``SpireModel.train`` on
its 69,000 samples took 75–102 ms against 90–133 ms, with identical
models.  So ``jobs`` accepts only ``1`` and ``"auto"``, both meaning the
calling process; any other value raises
:class:`~repro.errors.ConfigError`.

This module deliberately imports nothing heavier than :mod:`os` so any
layer can use it without import cycles.
"""

from __future__ import annotations

import os

from repro.errors import ConfigError


def available_cpus() -> int:
    """CPUs actually available to this process.

    Prefers :func:`os.process_cpu_count` (Python 3.13+), falling back to
    the scheduler affinity mask and then ``os.cpu_count()`` — a container
    pinned to one core must not be treated as a multi-core host.
    """
    counter = getattr(os, "process_cpu_count", None)
    if counter is not None:
        return counter() or 1
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def resolve_jobs(jobs: "int | str", tasks: int | None = None) -> int:
    """Validate a job-count knob; the answer is always ``1``.

    ``1`` and ``"auto"`` are accepted; anything else raises
    :class:`ConfigError`.  ``tasks`` (the pending-task count some callers
    pass) does not change the answer.
    """
    if jobs == 1 or jobs == "auto":
        return 1
    raise ConfigError(
        f"jobs must be 1 or 'auto' (experiments run in one process), "
        f"got {jobs!r}"
    )
