"""Block and uop counters of the trace pipeline's block loop.

:meth:`TracePipeline._run_block <repro.trace.pipeline.TracePipeline._run_block>`
records each block it runs here, and a forked share of
:func:`~repro.concurrency.fork_join` sends its counts back to
:func:`merge`.  ``perfbench`` reads :func:`stats` for its ``trace.uops``
count, so the module keeps its name.
"""

from __future__ import annotations

_STATS = {"blocks": 0, "uops": 0}


def reset_stats() -> None:
    for key in _STATS:
        _STATS[key] = 0


def stats() -> dict[str, float]:
    """Blocks and uops run through the block loop since :func:`reset_stats`."""
    return dict(_STATS)


def record_block(n: int) -> None:
    _STATS["blocks"] += 1
    _STATS["uops"] += n


def merge(gains: dict) -> None:
    """Add the blocks and uops another process ran (a forked share's)."""
    for key, value in gains.items():
        _STATS[key] += value
