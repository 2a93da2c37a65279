"""Micro-op representation for the trace-driven simulator."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError

# Micro-op kinds and their execution latencies (cycles) on the simulated
# pipeline's functional units.  Loads add cache latency on top.
KINDS = ("alu", "mul", "div", "fp", "load", "store", "branch")

EXEC_LATENCY = {
    "alu": 1,
    "mul": 3,
    "div": 20,
    "fp": 4,
    "load": 0,   # latency comes from the cache hierarchy
    "store": 1,
    "branch": 1,
}


@dataclass(frozen=True, slots=True)
class MicroOp:
    """One dynamic micro-op in a trace.

    Registers are plain integers in a flat namespace; ``dest`` may be
    ``None`` for stores and branches.  Loads and stores carry a byte
    address; branches carry their taken/not-taken outcome (the simulator's
    predictor guesses it, the trace knows the truth).  ``pc`` and
    ``address`` are non-negative byte addresses.
    """

    kind: str
    dest: int | None = None
    sources: tuple[int, ...] = ()
    address: int | None = None
    pc: int = 0
    taken: bool = False

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ConfigError(f"unknown micro-op kind {self.kind!r}")
        if self.kind in ("load", "store") and self.address is None:
            raise ConfigError(f"{self.kind} micro-op needs an address")
        if self.address is not None and self.address < 0:
            raise ConfigError(
                f"micro-op addresses must be non-negative, got {self.address}"
            )
        if self.pc < 0:
            raise ConfigError(f"micro-op pcs must be non-negative, got {self.pc}")
        if self.kind == "branch" and self.dest is not None:
            raise ConfigError("branches do not write registers")

    @property
    def latency(self) -> int:
        return EXEC_LATENCY[self.kind]
