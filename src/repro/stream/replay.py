"""Deterministic replay of a sample log through the stream ingestor.

``spire stream`` and the streaming tests both need the same harness: take
a finished sample log, slice it into windows, push the windows through a
:class:`~repro.stream.ingest.StreamIngestor` and report what the drift
ladder did.  Replay is also where the streaming fault kinds of
:mod:`repro.runtime.faults` are realized:

``drift-inject``
    From window ``spec.window`` onward, the target metric's records have
    work and metric count scaled by ``spec.factor`` — operational
    intensity is unchanged but throughput shifts off the fitted bound,
    which is exactly the contradiction the refute-and-refine loop must
    catch.

``stale-window``
    Window ``spec.window`` stalls: it seals with no samples (a
    ``"stalled"`` drift event) and its records arrive *late*, behind the
    next window's — where the timestamp screen quarantines them as
    out-of-order instead of smearing two time ranges together.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

from repro.core.ensemble import SpireModel
from repro.core.sanitize import QualityReport
from repro.errors import FitError
from repro.runtime.faults import DRIFT_INJECT, STALE_WINDOW, FaultPlan
from repro.stream.drift import DriftEvent, DriftReport
from repro.stream.ingest import StreamIngestor, StreamOptions

__all__ = ["ReplayResult", "replay_stream", "windows_from_records"]


@dataclass
class ReplayResult:
    """What one replay produced."""

    windows: int
    events: list[DriftEvent]
    report: DriftReport
    model: SpireModel | None
    quality: QualityReport
    ingestor: StreamIngestor = field(repr=False, default=None)


def windows_from_records(
    records: Sequence[Mapping], window_samples: int
) -> list[list[dict]]:
    """Slice a flat record log into consecutive windows."""
    if window_samples < 1:
        raise ValueError("window_samples must be at least 1")
    rows = [dict(record) for record in records]
    return [
        rows[start:start + window_samples]
        for start in range(0, len(rows), window_samples)
    ]


def replay_stream(
    windows: Sequence[Sequence[Mapping]],
    model: SpireModel | None = None,
    options: StreamOptions | None = None,
    faults: FaultPlan | None = None,
) -> ReplayResult:
    """Replay pre-sliced windows through a fresh ingestor.

    Each element of ``windows`` becomes exactly one sealed window (the
    replay imposes its own boundaries; ``options.window_samples`` does
    not auto-seal here).  Records missing a ``timestamp`` are stamped
    with their window index, so interleaving faults produce honest
    out-of-order arrivals.
    """
    opts = options or StreamOptions()
    prepared = [
        [dict(record) for record in window] for window in windows
    ]
    for index, window in enumerate(prepared):
        for record in window:
            record.setdefault("timestamp", float(index))

    specs = faults.stream_faults() if faults else ()
    for spec in specs:
        if spec.kind != DRIFT_INJECT:
            continue
        for index in range(spec.window, len(prepared)):
            for record in prepared[index]:
                if spec.workload not in ("*", record.get("metric")):
                    continue
                record["work"] = float(record["work"]) * spec.factor
                record["metric_count"] = (
                    float(record["metric_count"]) * spec.factor
                )

    # A stalled window seals empty; its records chase the next window.
    delayed: dict[int, list[dict]] = {}
    for spec in specs:
        if spec.kind != STALE_WINDOW:
            continue
        if spec.window < len(prepared):
            delayed.setdefault(spec.window + 1, []).extend(
                prepared[spec.window]
            )
            prepared[spec.window] = []

    # Replay boundaries are explicit: disable count-based auto-sealing.
    biggest = max((len(w) for w in prepared), default=0)
    if opts.window_samples <= biggest:
        opts = replace(opts, window_samples=biggest + 1)

    ingestor = StreamIngestor(model=model, options=opts)
    for index, window in enumerate(prepared):
        payload = list(window)
        payload.extend(delayed.pop(index, ()))
        if payload:
            ingestor.push_records(payload)
        ingestor.seal_window()

    report = ingestor.report()
    try:
        served = ingestor.model()
    except FitError:
        served = None
    return ReplayResult(
        windows=report.windows,
        events=list(report.events),
        report=report,
        model=served,
        quality=report.quality,
        ingestor=ingestor,
    )
