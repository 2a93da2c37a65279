"""Per-kernel guarded dispatch with sampled oracle checks.

PRs 3–4 left every vectorized kernel with its scalar reference
implementation intact, but the only dispatch control was the global
``SPIRE_SCALAR_FALLBACK`` switch — all-or-nothing, and never *checked* at
runtime.  This module makes the oracle discipline the benches apply
offline into a runtime layer:

- every vectorized kernel dispatches through a named :class:`KernelGuard`
  from a process-wide registry;
- a deterministic sample of calls (every ``check_rate``-th, with a
  seed-driven per-kernel offset) replays the same inputs through the
  retained scalar oracle under :func:`repro.fastpath.force_scalar` and
  compares the results to tolerance;
- on divergence the guard records a
  :class:`~repro.guard.health.DivergenceEvent` and trips that kernel's
  breaker: the kernel runs its scalar path for the rest of the process
  while every other kernel stays fast.  (``SPIRE_GUARD_POLICY=raise``
  raises :class:`~repro.errors.GuardDivergenceError` instead.)

Configuration is environment-driven so worker processes inherit it:
``SPIRE_GUARD_RATE`` (default 256; ``1`` checks every call, ``0`` never
checks), ``SPIRE_GUARD_RATE_<KERNEL>`` per-kernel overrides (kernel name
upper-cased, dots to underscores), ``SPIRE_GUARD_SEED``,
``SPIRE_GUARD_POLICY`` and ``SPIRE_GUARDRAIL_POLICY``.
``SPIRE_GUARD_INJECT`` (comma-separated kernel names) forces a divergence
on each named kernel's next checked call — the hook behind the
``diverge-kernel`` fault (:mod:`repro.runtime.faults`).
"""

from __future__ import annotations

import hashlib
import math
import os
import threading
import warnings
from dataclasses import dataclass, field
from typing import Callable, Mapping

from repro.errors import ConfigError, DegradedDataWarning, GuardDivergenceError
from repro.fastpath import force_scalar, scalar_fallback_enabled
from repro.guard.health import (
    DivergenceEvent,
    DriftEvent,
    GuardrailHit,
    HealthReport,
    KernelHealth,
)

__all__ = [
    "DEFAULT_CHECK_RATE",
    "DEFAULT_RATE_OVERRIDES",
    "GUARDED_KERNELS",
    "GuardConfig",
    "KernelGuard",
    "approx_equal",
    "guarded_call",
    "health_report",
    "inject_divergence",
    "kernel_guard",
    "registry",
    "reset_guards",
]

#: Every kernel registered with a guarded dispatch point.
GUARDED_KERNELS = (
    "sanitize",
    "pareto",
    "direction",
    "train",
    "estimate",
    "predictor.update_batch",
    "cache.access_batch",
    "pipeline.execute_array",
    "simulate_run",
    "fused_experiment",
    "trace.fused_run",
    "trace.block_recurrence",
    "shm.transport",
    "stream.update",
    "serve.batch_estimate",
)

DEFAULT_CHECK_RATE = 256

#: Default per-kernel rate overrides.  The simulation-substrate kernels
#: replay a whole micro-op batch through the scalar path (plus a state
#: snapshot) per check — a far costlier oracle, relative to one fast
#: call, than the model-side kernels' — so they sample sparser to keep
#: guarded overhead inside the <=5% bench budget.  Explicit
#: ``SPIRE_GUARD_RATE`` / ``SPIRE_GUARD_RATE_<KERNEL>`` settings win.
DEFAULT_RATE_OVERRIDES = {
    "predictor.update_batch": 2048,
    "cache.access_batch": 2048,
    "pipeline.execute_array": 2048,
    "simulate_run": 2048,
    # One fused-experiment call covers a whole experiment, so its oracle
    # (replaying one deterministically chosen segment through the
    # per-workload path) costs about one task per checked experiment —
    # rate 8 keeps the amortized overhead well inside the 5% budget.
    "fused_experiment": 8,
    "trace.fused_run": 64,
    # One block_recurrence check replays a whole block (up to 16k uops)
    # uop by uop through TracePipeline.execute on a deep-copied
    # pipeline, about ten fast blocks' worth; rate 512 amortizes that
    # to ~2% while still checking every full-scale run.
    "trace.block_recurrence": 512,
    "shm.transport": 64,
    # One stream.update call refits one metric from its maintained
    # structures; its oracle is a full batch rebuild of that metric, so
    # rate 64 bounds the amortized oracle cost per refit while still
    # checking every long-lived stream many times over.
    "stream.update": 64,
    # One serve.batch_estimate call evaluates a whole fused micro-batch;
    # its oracle replays every request in the batch through the scalar
    # per-request path, so a check costs roughly max_batch fast calls.
    # Rate 64 keeps the amortized overhead per served request small
    # while still checking a busy server many times a minute.
    "serve.batch_estimate": 64,
}

RATE_ENV = "SPIRE_GUARD_RATE"
SEED_ENV = "SPIRE_GUARD_SEED"
POLICY_ENV = "SPIRE_GUARD_POLICY"
GUARDRAIL_POLICY_ENV = "SPIRE_GUARDRAIL_POLICY"
INJECT_ENV = "SPIRE_GUARD_INJECT"

GUARD_POLICIES = ("degrade", "raise")
GUARDRAIL_POLICIES = ("record", "raise", "off")


def _env_rate_name(kernel: str) -> str:
    return f"{RATE_ENV}_{kernel.upper().replace('.', '_').replace('-', '_')}"


@dataclass(frozen=True)
class GuardConfig:
    """Sampling and policy knobs for the guard registry."""

    check_rate: int = DEFAULT_CHECK_RATE
    seed: int = 0
    policy: str = "degrade"
    guardrail_policy: str = "record"
    rate_overrides: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.check_rate < 0:
            raise ConfigError("guard check_rate cannot be negative")
        if self.policy not in GUARD_POLICIES:
            raise ConfigError(
                f"unknown guard policy {self.policy!r}; "
                f"expected one of {GUARD_POLICIES}"
            )
        if self.guardrail_policy not in GUARDRAIL_POLICIES:
            raise ConfigError(
                f"unknown guardrail policy {self.guardrail_policy!r}; "
                f"expected one of {GUARDRAIL_POLICIES}"
            )
        for kernel, rate in self.rate_overrides.items():
            if rate < 0:
                raise ConfigError(
                    f"guard rate override for {kernel!r} cannot be negative"
                )

    @classmethod
    def from_env(cls) -> "GuardConfig":
        def _int(name: str, default: int) -> int:
            raw = os.environ.get(name, "").strip()
            if not raw:
                return default
            try:
                return int(raw)
            except ValueError:
                return default

        # A globally-set rate is an explicit request: it applies to every
        # kernel.  Otherwise the substrate kernels keep their sparser
        # defaults, and per-kernel env settings win either way.
        overrides = (
            {} if os.environ.get(RATE_ENV, "").strip()
            else dict(DEFAULT_RATE_OVERRIDES)
        )
        for kernel in GUARDED_KERNELS:
            raw = os.environ.get(_env_rate_name(kernel), "").strip()
            if raw:
                try:
                    overrides[kernel] = int(raw)
                except ValueError:
                    pass
        policy = os.environ.get(POLICY_ENV, "").strip().lower() or "degrade"
        guardrail = (
            os.environ.get(GUARDRAIL_POLICY_ENV, "").strip().lower() or "record"
        )
        return cls(
            check_rate=_int(RATE_ENV, DEFAULT_CHECK_RATE),
            seed=_int(SEED_ENV, 0),
            policy=policy if policy in GUARD_POLICIES else "degrade",
            guardrail_policy=(
                guardrail if guardrail in GUARDRAIL_POLICIES else "record"
            ),
            rate_overrides=overrides,
        )

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
    """Process-wide state: one guard per kernel plus the health ledger."""

    def __init__(self, config: GuardConfig | None = None):
        self.config = config or GuardConfig.from_env()
        self._guards: dict[str, KernelGuard] = {}
        self._injections: dict[str, int] = {}
        self._divergences: list[DivergenceEvent] = []
        self._guardrail_hits: list[GuardrailHit] = []
        self._quarantined: list[str] = []
        self._drift_events: list[DriftEvent] = []
        self._lock = threading.Lock()
        raw = os.environ.get(INJECT_ENV, "")
        for name in raw.split(","):
            name = name.strip()
            if name:
                self._injections[name] = self._injections.get(name, 0) + 1

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

    # -- injected divergence (the diverge-kernel fault) -----------------

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

    def record_guardrail(self, hit: GuardrailHit) -> None:
        with self._lock:
            self._guardrail_hits.append(hit)

    def record_quarantine(self, path: str) -> None:
        with self._lock:
            self._quarantined.append(str(path))

    def record_drift(self, event: DriftEvent) -> None:
        """Ledger one streaming drift-ladder decision (see repro.stream)."""
        with self._lock:
            self._drift_events.append(event)

    def health_report(self) -> HealthReport:
        """A snapshot of everything the guard layer has seen so far."""
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
                guardrail_hits=list(self._guardrail_hits),
                artifacts_quarantined=list(self._quarantined),
                drift_events=list(self._drift_events),
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


def guarded_call(
    name: str,
    fast: Callable[[], object],
    oracle: Callable[[], object],
    compare: Callable[[object, object], bool] | None = None,
    detail: str = "",
):
    """Dispatch one *pure* kernel call through its guard.

    Runs ``fast()`` normally; on a scheduled check also replays
    ``oracle()`` under :func:`~repro.fastpath.force_scalar` and compares.
    When the breaker is tripped (or scalar fallback is forced) only the
    oracle runs.  Stateful kernels (predictor, cache, pipeline,
    ``simulate_run``) cannot use this helper — they snapshot their state
    and drive the guard primitives directly.
    """
    guard = registry().guard(name)
    if not guard.use_fast():
        return oracle()
    if not guard.should_check():
        return fast()
    result = fast()
    with force_scalar():
        expected = oracle()
    cmp = compare or approx_equal
    try:
        ok = bool(cmp(result, expected))
    except Exception as exc:  # a comparison crash is itself a divergence
        ok = False
        detail = detail or f"comparison failed: {exc!r}"
    if guard.resolve(ok, detail=detail):
        return result
    return expected
