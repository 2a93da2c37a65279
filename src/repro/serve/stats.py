"""Long-lived-process counters for a running SPIRE server.

Batch runs summarize themselves once at exit; a server never exits, so
its operational state has to be *probe-able*.  :class:`ServeStats`
accumulates the counters the micro-batcher and HTTP layer emit —
requests served, micro-batch fill, backpressure decisions — and
:meth:`ServeStats.snapshot` renders them (together with the model
registry's own snapshot) into the ``serve_state`` dict that rides on
:class:`~repro.guard.health.HealthReport` for ``GET /health`` and
``spire doctor --serve-url``.
"""

from __future__ import annotations

import threading

__all__ = ["ServeStats"]

#: Histogram bucket upper bounds for micro-batch fill (requests fused
#: per evaluation).  The last bucket is open-ended.
FILL_BUCKETS = (1, 2, 4, 8, 16, 32, 64)


class ServeStats:
    """Counters a running server accumulates; snapshot-safe from any thread."""

    def __init__(self):
        self._lock = threading.Lock()
        self.requests = 0
        self.responses = 0
        self.errors = 0
        self.batches = 0
        self.batched_requests = 0
        self.max_fill = 0
        self.rejected = 0
        self._fill_histogram = [0] * (len(FILL_BUCKETS) + 1)
        # Graceful-drain accounting (SpireServer.stop(drain=True)).
        self.drains = 0
        self.last_drain_ms = 0.0
        self.drain_flushed = 0

    # -- HTTP layer ----------------------------------------------------

    def note_request(self) -> None:
        with self._lock:
            self.requests += 1

    def note_response(self, status: int) -> None:
        with self._lock:
            self.responses += 1
            if status >= 400:
                self.errors += 1

    # -- micro-batcher -------------------------------------------------

    def note_batch(self, fill: int) -> None:
        with self._lock:
            self.batches += 1
            self.batched_requests += fill
            if fill > self.max_fill:
                self.max_fill = fill
            for bucket, bound in enumerate(FILL_BUCKETS):
                if fill <= bound:
                    self._fill_histogram[bucket] += 1
                    break
            else:
                self._fill_histogram[-1] += 1

    def note_rejected(self) -> None:
        with self._lock:
            self.rejected += 1

    # -- lifecycle -----------------------------------------------------

    def note_drain(self, duration_ms: float, flushed: int) -> None:
        with self._lock:
            self.drains += 1
            self.last_drain_ms = duration_ms
            self.drain_flushed += flushed

    # -- reporting -----------------------------------------------------

    def snapshot(self, registry_snapshot: "dict | None" = None) -> dict:
        """The ``serve_state`` payload for health reports.

        Key names are a contract with
        :meth:`repro.guard.health.HealthReport.render`.
        """
        with self._lock:
            labels = [f"<={bound}" for bound in FILL_BUCKETS] + [
                f">{FILL_BUCKETS[-1]}"
            ]
            mean_fill = (
                self.batched_requests / self.batches if self.batches else 0.0
            )
            return {
                "requests": self.requests,
                "responses": self.responses,
                "errors": self.errors,
                "batches": self.batches,
                "batch_fill": {
                    "mean": mean_fill,
                    "max": self.max_fill,
                    "histogram": dict(zip(labels, self._fill_histogram)),
                },
                "backpressure": {"rejected": self.rejected},
                "drain": {
                    "count": self.drains,
                    "last_ms": self.last_drain_ms,
                    "flushed": self.drain_flushed,
                },
                "registry": dict(registry_snapshot or {}),
            }
