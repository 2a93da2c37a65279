"""Shared validation for process-pool knobs.

``jobs`` and ``chunksize`` used to be validated twice — once in
:mod:`repro.runtime.runner` (raising :class:`~repro.errors.ConfigError`)
and once in :mod:`repro.core.ensemble` (raising
:class:`~repro.errors.FitError`), with subtly different messages.  Both
now route through this module so the knobs behave — and fail —
identically everywhere, and always with a :class:`ConfigError`: a bad
job count is a configuration problem, not a fitting problem.

``jobs="auto"`` resolves to ``1`` on every host: the experiment runs
in-process on the fused engine and training fits serially.  A process
pool is reached only through an explicit ``jobs=N`` (or ``0``/``None``)
or the ``SPIRE_JOBS`` environment variable, for callers who want its
hang/timeout isolation.  A pool does not pay for speed: on a 2-vCPU
Xeon VM one unfused pool task (1,200 windows) took 105–134 ms while all
27 tasks of a paper-scale experiment took 259–317 ms fused, so a pool
needs about a dozen workers just to tie, before fork and result
transport costs.  A whole paper-scale ``run_experiment`` there took
0.40–0.51 s at ``"auto"`` against 2.3–3.0 s with a 2-worker pool.

This module deliberately imports nothing heavier than :mod:`os` so both
``repro.core`` and ``repro.runtime`` can use it without import cycles.
"""

from __future__ import annotations

import os

from repro.errors import ConfigError


#: Environment override consulted by ``jobs="auto"`` resolution.
JOBS_ENV = "SPIRE_JOBS"


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


def resolve_jobs(jobs: "int | str | None", tasks: int | None = None) -> int:
    """Normalize a job-count knob: ``None``/``0`` means one per available CPU.

    ``"auto"`` means ``1`` — the in-process fused path — unless the
    ``SPIRE_JOBS`` environment variable names an explicit count;
    explicitly numeric ``jobs`` arguments are never overridden.
    ``tasks`` (the pending-task count some callers pass) no longer
    changes the answer.
    """
    if jobs == "auto":
        raw = os.environ.get(JOBS_ENV, "").strip()
        if not raw or raw.lower() == "auto":
            return 1
        try:
            override = int(raw)
        except ValueError:
            raise ConfigError(
                f"{JOBS_ENV} must be an integer or 'auto', got {raw!r}"
            ) from None
        return resolve_jobs(override)
    if isinstance(jobs, str):
        raise ConfigError(f"jobs must be an integer or 'auto', got {jobs!r}")
    if jobs is None or jobs == 0:
        return available_cpus()
    if jobs < 0:
        raise ConfigError(f"jobs must be >= 0, got {jobs}")
    return int(jobs)


def resolve_chunksize(chunksize: int | None) -> int:
    """Normalize a pool chunk-size knob: ``None`` means 1."""
    if chunksize is None:
        return 1
    if chunksize < 1:
        raise ConfigError(f"chunksize must be at least 1, got {chunksize}")
    return int(chunksize)
