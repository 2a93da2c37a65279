"""Online SPIRE (``repro.stream``): streaming ingestion with drift repair.

Three layers, mirroring how a deployment consumes live counter data:

- :mod:`repro.stream.incremental` — :class:`OnlineSpire`, the ensemble
  that grows as samples arrive, refitting each changed metric with the
  batch fit over that metric's buffered points;
- :mod:`repro.stream.drift` — the refute-and-refine degradation ladder
  (absorb -> targeted refit -> stale) and its policy knobs;
- :mod:`repro.stream.ingest` — :class:`StreamIngestor`, the windowed
  front door accepting records, sample sets or raw ``perf stat`` CSV
  chunks; :mod:`repro.stream.replay` replays finished logs (and stream
  fault plans) through it for ``spire stream`` and the tests.

See ``docs/streaming.md``.
"""

from repro.stream.drift import (
    DriftAssessment,
    DriftEvent,
    DriftMonitor,
    DriftPolicy,
    DriftReport,
)
from repro.stream.incremental import OnlineSpire
from repro.stream.ingest import StreamIngestor, StreamOptions
from repro.stream.replay import ReplayResult, replay_stream, windows_from_records

__all__ = [
    "DriftAssessment",
    "DriftEvent",
    "DriftMonitor",
    "DriftPolicy",
    "DriftReport",
    "OnlineSpire",
    "ReplayResult",
    "StreamIngestor",
    "StreamOptions",
    "replay_stream",
    "windows_from_records",
]
