"""Opt-in phase timers for the trace pipeline's block executor.

`bench_sim.py` enables these to attribute block self-time to the
vectorized pre-pass, the per-window event counts and column set-up,
and the recurrence loop, and to time ``TracePipeline.execute`` on the
scalar reference path.  Disabled by default: the pipeline checks one
module-level boolean per block or ``execute`` call, so the production
path pays nothing measurable.
"""

from __future__ import annotations

_enabled = False
_totals: dict[str, float] = {}


def enable(on: bool = True) -> None:
    global _enabled
    _enabled = on


def enabled() -> bool:
    return _enabled


def reset() -> None:
    _totals.clear()


def add(name: str, seconds: float) -> None:
    _totals[name] = _totals.get(name, 0.0) + seconds


def totals() -> dict[str, float]:
    """A copy of the accumulated per-phase seconds."""
    return dict(_totals)


def merge(gains: dict[str, float]) -> None:
    """Add the phase seconds another process spent (a forked share's)."""
    for name, seconds in gains.items():
        add(name, seconds)
