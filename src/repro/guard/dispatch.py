"""Guarded dispatch with sampled oracle checks, for run-time inputs.

``serve.batch_estimate`` (fused micro-batch estimation over HTTP request
bodies) is the one vectorized kernel checked at run time: its inputs
arrive over HTTP rather than from a seeded generator.  It dispatches
through a named :class:`KernelGuard` from a process-wide registry:

- a deterministic sample of calls (every ``check_rate``-th, with a
  seed-driven per-kernel offset) replays the same inputs through the
  kernel's oracle and compares the results;
- on divergence the guard records a
  :class:`~repro.guard.health.DivergenceEvent` and trips that kernel's
  breaker: the kernel runs its oracle path for the rest of the
  process.  (``SPIRE_GUARD_POLICY=raise`` raises
  :class:`~repro.errors.GuardDivergenceError` instead.)

Every other vectorized kernel keeps its scalar oracle as a test-time
reference, reached through ``SPIRE_SCALAR_FALLBACK=1`` at the
computation's entry point (:mod:`repro.fastpath`) rather than sampled at
run time.

Configuration is environment-driven: ``SPIRE_GUARD_RATE`` (default 64;
``1`` checks every call, ``0`` never checks), ``SPIRE_GUARD_SEED`` and
``SPIRE_GUARD_POLICY``.
:func:`inject_divergence` forces a divergence on a kernel's next checked
call, to exercise the degradation machinery in tests.
"""

from __future__ import annotations

import hashlib
import math
import os
import threading
import warnings
from dataclasses import dataclass, field
from typing import Mapping

from repro.errors import ConfigError, DegradedDataWarning, GuardDivergenceError
from repro.fastpath import scalar_fallback_enabled
from repro.guard.health import DivergenceEvent, HealthReport, KernelHealth

__all__ = [
    "DEFAULT_CHECK_RATE",
    "GUARDED_KERNELS",
    "GuardConfig",
    "KernelGuard",
    "approx_equal",
    "health_report",
    "inject_divergence",
    "kernel_guard",
    "registry",
    "reset_guards",
]

#: The kernels with a runtime guard.  One check replays a whole
#: micro-batch through per-request estimation, so the default rate of 64
#: keeps the amortized oracle cost small while still checking a busy
#: server many times over.
GUARDED_KERNELS = ("serve.batch_estimate",)

DEFAULT_CHECK_RATE = 64

RATE_ENV = "SPIRE_GUARD_RATE"
SEED_ENV = "SPIRE_GUARD_SEED"
POLICY_ENV = "SPIRE_GUARD_POLICY"

GUARD_POLICIES = ("degrade", "raise")


@dataclass(frozen=True)
class GuardConfig:
    """Sampling and policy knobs for the guard registry."""

    check_rate: int = DEFAULT_CHECK_RATE
    seed: int = 0
    policy: str = "degrade"
    # Per-kernel rates; the environment sets none, so every kernel runs
    # at ``check_rate`` unless a caller passes an override.
    rate_overrides: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.check_rate < 0:
            raise ConfigError("guard check_rate cannot be negative")
        if self.policy not in GUARD_POLICIES:
            raise ConfigError(
                f"unknown guard policy {self.policy!r}; "
                f"expected one of {GUARD_POLICIES}"
            )
        for kernel, rate in self.rate_overrides.items():
            if rate < 0:
                raise ConfigError(
                    f"guard rate override for {kernel!r} cannot be negative"
                )

    @classmethod
    def from_env(cls) -> "GuardConfig":
        """The config the ``SPIRE_GUARD_*`` variables set; an unset or
        empty variable takes its default.  A value that is not an
        integer, a negative rate or an unknown policy raises
        :class:`ConfigError` naming the variable and its value."""

        def _int(name: str, default: int) -> int:
            raw = os.environ.get(name, "").strip()
            if not raw:
                return default
            try:
                return int(raw)
            except ValueError:
                raise ConfigError(
                    f"{name} must be an integer, got {raw!r}"
                ) from None

        rate = _int(RATE_ENV, DEFAULT_CHECK_RATE)
        if rate < 0:
            raise ConfigError(f"{RATE_ENV} cannot be negative, got {rate}")
        raw_policy = os.environ.get(POLICY_ENV, "").strip()
        policy = raw_policy.lower() or "degrade"
        if policy not in GUARD_POLICIES:
            raise ConfigError(
                f"{POLICY_ENV} must be one of {', '.join(GUARD_POLICIES)}, "
                f"got {raw_policy!r}"
            )
        return cls(check_rate=rate, seed=_int(SEED_ENV, 0), policy=policy)

    def rate_for(self, kernel: str) -> int:
        return self.rate_overrides.get(kernel, self.check_rate)


def _check_offset(seed: int, kernel: str, rate: int) -> int:
    """Deterministic per-kernel phase for the every-Nth-call schedule."""
    if rate <= 1:
        return 0
    digest = hashlib.sha256(f"{seed}:{kernel}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % rate


class KernelGuard:
    """Circuit breaker plus check schedule for one vectorized kernel."""

    __slots__ = ("name", "rate", "calls", "checks", "tripped", "_offset", "_registry")

    def __init__(self, name: str, rate: int, seed: int, registry: "GuardRegistry"):
        self.name = name
        self.rate = rate
        self.calls = 0
        self.checks = 0
        self.tripped = False
        self._offset = _check_offset(seed, name, rate)
        self._registry = registry

    def use_fast(self) -> bool:
        """Whether this dispatch should take the vectorized path."""
        return not self.tripped and not scalar_fallback_enabled()

    def should_check(self) -> bool:
        """Count one fast-path call; True when it is scheduled for a check.

        Deterministic: call index ``i`` is checked iff ``i % rate`` equals
        the kernel's seed-derived offset (rate 1 checks every call, rate 0
        never checks).  A pending injected divergence forces a check.
        """
        index = self.calls
        self.calls += 1
        if self._registry.injection_pending(self.name):
            return True
        if self.rate <= 0:
            return False
        return index % self.rate == self._offset

    def resolve(self, ok: bool, detail: str = "") -> bool:
        """Settle one sampled check; True means serve the fast result.

        A real divergence (``ok`` false) records the event, trips the
        breaker (or raises under the ``raise`` policy) and returns False —
        the caller should serve the oracle's result, which is the trusted
        one.  An injected divergence behaves identically for telemetry and
        tripping but returns True: the fast result was actually correct,
        so survivors stay bit-identical to a fault-free run.
        """
        self.checks += 1
        injected = self._registry.consume_injection(self.name)
        if ok and not injected:
            return True
        event = DivergenceEvent(
            kernel=self.name,
            call_index=self.calls - 1,
            detail=detail,
            injected=injected,
        )
        self._registry.record_divergence(self, event)
        return injected


class GuardRegistry:
    """Process-wide state: one guard per kernel plus its divergences."""

    def __init__(self, config: GuardConfig | None = None):
        self.config = config or GuardConfig.from_env()
        self._guards: dict[str, KernelGuard] = {}
        self._injections: dict[str, int] = {}
        self._divergences: list[DivergenceEvent] = []
        self._lock = threading.Lock()

    def guard(self, name: str) -> KernelGuard:
        guard = self._guards.get(name)
        if guard is None:
            with self._lock:
                guard = self._guards.get(name)
                if guard is None:
                    guard = KernelGuard(
                        name,
                        rate=self.config.rate_for(name),
                        seed=self.config.seed,
                        registry=self,
                    )
                    self._guards[name] = guard
        return guard

    # -- injected divergence ---------------------------------------------

    def inject_divergence(self, name: str, times: int = 1) -> None:
        with self._lock:
            self._injections[name] = self._injections.get(name, 0) + times

    def injection_pending(self, name: str) -> bool:
        return self._injections.get(name, 0) > 0

    def consume_injection(self, name: str) -> bool:
        with self._lock:
            remaining = self._injections.get(name, 0)
            if remaining <= 0:
                return False
            if remaining == 1:
                del self._injections[name]
            else:
                self._injections[name] = remaining - 1
            return True

    # -- ledger ----------------------------------------------------------

    def record_divergence(self, guard: KernelGuard, event: DivergenceEvent) -> None:
        with self._lock:
            self._divergences.append(event)
            guard.tripped = True
        if self.config.policy == "raise":
            raise GuardDivergenceError(
                f"kernel {event.kernel!r} diverged from its scalar oracle at "
                f"call {event.call_index}"
                + (f": {event.detail}" if event.detail else "")
            )
        warnings.warn(
            f"guarded kernel {event.kernel!r} "
            + ("received an injected divergence" if event.injected
               else "diverged from its scalar oracle")
            + f" at call {event.call_index}; tripped to the scalar path for "
            f"the rest of the process",
            DegradedDataWarning,
            stacklevel=4,
        )

    def health_report(self) -> HealthReport:
        """A snapshot of every guard's counters and divergences so far."""
        with self._lock:
            return HealthReport(
                kernels={
                    name: KernelHealth(
                        name=name,
                        calls=g.calls,
                        checks=g.checks,
                        tripped=g.tripped,
                    )
                    for name, g in self._guards.items()
                },
                divergences=list(self._divergences),
            )


_registry: GuardRegistry | None = None
_registry_lock = threading.Lock()


def registry() -> GuardRegistry:
    """The process-wide guard registry (created lazily from the env)."""
    global _registry
    if _registry is None:
        with _registry_lock:
            if _registry is None:
                _registry = GuardRegistry()
    return _registry


def reset_guards(config: GuardConfig | None = None) -> GuardRegistry:
    """Replace the registry: fresh counters, breakers and ledger.

    Tests and benchmarks call this after changing guard environment
    variables; ``config`` overrides the environment entirely.
    """
    global _registry
    with _registry_lock:
        _registry = GuardRegistry(config)
    return _registry


def kernel_guard(name: str) -> KernelGuard:
    """The registered guard for ``name`` (created on first use)."""
    return registry().guard(name)


def inject_divergence(name: str, times: int = 1) -> None:
    """Force the next ``times`` checked calls of ``name`` to diverge.

    The injected check compares correct results, flags them as divergent,
    and trips the kernel's breaker — exercising the degradation machinery
    without producing wrong numbers (the fast result is still served).
    """
    registry().inject_divergence(name, times=times)


def health_report() -> HealthReport:
    """Snapshot the process-wide guard health ledger."""
    return registry().health_report()


def approx_equal(a, b, rel: float = 1e-9) -> bool:
    """Structural comparison with relative float tolerance.

    Recurses through dicts/lists/tuples; floats compare within ``rel``
    (matching the hot-path bench's equivalence gate), NaN equals NaN, and
    infinities must match exactly.  Everything else uses ``==``.
    """
    if isinstance(a, Mapping) and isinstance(b, Mapping):
        return a.keys() == b.keys() and all(
            approx_equal(a[k], b[k], rel) for k in a
        )
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(
            approx_equal(x, y, rel) for x, y in zip(a, b)
        )
    if isinstance(a, float) or isinstance(b, float):
        try:
            fa, fb = float(a), float(b)
        except (TypeError, ValueError):
            return a == b
        if math.isnan(fa) or math.isnan(fb):
            return math.isnan(fa) and math.isnan(fb)
        if math.isinf(fa) or math.isinf(fb):
            return fa == fb
        return abs(fa - fb) <= rel * max(1.0, abs(fa), abs(fb))
    return a == b
