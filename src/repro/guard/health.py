"""Health telemetry for the guarded-dispatch layer.

A :class:`HealthReport` is the process-level summary of what the serve
guard observed: how many sampled oracle checks ran per kernel and which
kernels diverged and tripped their breaker to the scalar path.  A
running server attaches its ``serve_state`` and answers it on
``GET /health``, which ``spire doctor`` reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "DivergenceEvent",
    "HealthReport",
    "KernelHealth",
]


@dataclass(frozen=True, slots=True)
class DivergenceEvent:
    """One sampled oracle check whose fast-path result did not match."""

    kernel: str
    call_index: int      # 0-based call counter of the kernel at divergence
    detail: str = ""
    injected: bool = False   # inject_divergence(), not a real mismatch


@dataclass
class KernelHealth:
    """Per-kernel guard accounting."""

    name: str
    calls: int = 0       # fast-path dispatches observed
    checks: int = 0      # sampled oracle checks actually run
    tripped: bool = False

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "calls": self.calls,
            "checks": self.checks,
            "tripped": self.tripped,
        }


@dataclass
class HealthReport:
    """What the serve guard saw during one process."""

    kernels: dict[str, KernelHealth] = field(default_factory=dict)
    divergences: list[DivergenceEvent] = field(default_factory=list)
    #: Long-lived-process state attached by a running server before the
    #: report is serialized: model-registry lookups, micro-batch fill
    #: histogram, backpressure counters (see
    #: :mod:`repro.serve.stats`).  ``None`` outside a server.
    serve_state: "dict | None" = None

    @property
    def checks_run(self) -> int:
        return sum(k.checks for k in self.kernels.values())

    @property
    def tripped_kernels(self) -> list[str]:
        return sorted(name for name, k in self.kernels.items() if k.tripped)

    @property
    def ok(self) -> bool:
        return not (self.divergences or self.tripped_kernels)

    def to_dict(self) -> dict:
        payload = {
            "kernels": {n: k.to_dict() for n, k in sorted(self.kernels.items())},
            "divergences": [
                {
                    "kernel": d.kernel,
                    "call_index": d.call_index,
                    "detail": d.detail,
                    "injected": d.injected,
                }
                for d in self.divergences
            ],
        }
        if self.serve_state is not None:
            payload["serve_state"] = self.serve_state
        return payload

    def render(self) -> str:
        """A terse human-readable summary for CLI output."""
        checked = sum(1 for k in self.kernels.values() if k.checks)
        lines = [
            f"guard: {self.checks_run} oracle check(s) across {checked} "
            f"kernel(s), {len(self.divergences)} divergence(s)"
        ]
        for event in self.divergences:
            tag = "injected" if event.injected else "DIVERGED"
            detail = f" ({event.detail})" if event.detail else ""
            lines.append(
                f"  {event.kernel}: {tag} at call {event.call_index}{detail}"
            )
        if self.tripped_kernels:
            lines.append(
                "  tripped to scalar: " + ", ".join(self.tripped_kernels)
            )
        if self.serve_state is not None:
            fill = self.serve_state.get("batch_fill", {})
            back = self.serve_state.get("backpressure", {})
            lines.append(
                "  serve: "
                f"{self.serve_state.get('requests', 0)} request(s), "
                f"{self.serve_state.get('batches', 0)} micro-batch(es), "
                f"mean fill {fill.get('mean', 0.0):.2f}"
            )
            lines.append(
                f"  serve backpressure: {back.get('rejected', 0)} rejected"
            )
        return "\n".join(lines)
