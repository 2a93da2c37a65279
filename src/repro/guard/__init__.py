"""Runtime self-verification and graceful degradation (``repro.guard``).

Four pieces, built for the property production serving stacks have —
the kernel that answers requests is checked in production and degrades
on its own, not globally:

- :mod:`repro.guard.dispatch` — guarded dispatch for
  ``serve.batch_estimate``, whose inputs arrive over HTTP: sampled
  oracle checks with a circuit breaker;
- :mod:`repro.guard.artifact` — integrity headers, checksum verification
  and quarantine for on-disk artifacts (:mod:`repro.io.dataset`'s files);
- :mod:`repro.guard.health` — the :class:`HealthReport` telemetry that
  ``GET /health`` answers;
- :mod:`repro.guard.doctor` — ``spire doctor``, which probes a running
  ``spire serve`` process and renders its health.

See ``docs/robustness.md`` ("Guarded dispatch & artifact integrity").
"""

from repro.guard.dispatch import (
    DEFAULT_CHECK_RATE,
    GUARDED_KERNELS,
    GuardConfig,
    KernelGuard,
    approx_equal,
    health_report,
    inject_divergence,
    kernel_guard,
    registry,
    reset_guards,
)
from repro.guard.health import DivergenceEvent, HealthReport, KernelHealth

__all__ = [
    "DEFAULT_CHECK_RATE",
    "DivergenceEvent",
    "GUARDED_KERNELS",
    "GuardConfig",
    "HealthReport",
    "KernelGuard",
    "KernelHealth",
    "approx_equal",
    "health_report",
    "inject_divergence",
    "kernel_guard",
    "registry",
    "reset_guards",
]
