"""SPIRE model serving: micro-batched HTTP inference in one process.

The serving layer turns trained models into a long-running endpoint:

- :mod:`repro.serve.batching` — the micro-batcher and the
  ``serve.batch_estimate`` guarded kernel: concurrent requests fuse into
  one packed roofline evaluation, scattered back bit-identically to the
  per-request path;
- :mod:`repro.serve.registry` — the installed models, a dict by name
  filled when the server starts;
- :mod:`repro.serve.server` — the stdlib-asyncio HTTP/JSON front door
  (``spire serve``), with bounded queues, 429 + ``Retry-After``
  backpressure, graceful drain and a probe-able ``/health``;
- :mod:`repro.serve.stats` — long-lived-process counters surfaced
  through :class:`~repro.guard.health.HealthReport.serve_state`.

Models are installed when the server starts (``spire serve --model
name=path``), together with the ``<name>.json`` files of the optional
store directory (``--store-dir``).
"""

from repro.serve.batching import MicroBatcher, batch_estimate, fused_estimate
from repro.serve.registry import ModelRegistry
from repro.serve.server import ServeConfig, SpireServer
from repro.serve.stats import ServeStats

__all__ = [
    "MicroBatcher",
    "ModelRegistry",
    "ServeConfig",
    "ServeStats",
    "SpireServer",
    "batch_estimate",
    "fused_estimate",
]
