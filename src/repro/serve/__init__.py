"""SPIRE model serving: micro-batched HTTP inference in one process.

The serving layer turns trained models into a long-running endpoint:

- :mod:`repro.serve.batching` — the micro-batcher and the
  ``serve.batch_estimate`` guarded kernel: concurrent requests fuse into
  one packed roofline evaluation, scattered back bit-identically to the
  per-request path;
- :mod:`repro.serve.registry` — packed ``.spm`` artifacts with integrity
  headers, mmap zero-copy reloads, per-model LRU residency and
  single-flight concurrent loads;
- :mod:`repro.serve.server` — the stdlib-asyncio HTTP/JSON front door
  (``spire serve``), with bounded queues, 429 + ``Retry-After``
  backpressure, graceful drain and a probe-able ``/health``;
- :mod:`repro.serve.stats` — long-lived-process counters surfaced
  through :class:`~repro.guard.health.HealthReport.serve_state`.

Models are installed when the server starts (``spire serve --model
name=path``); anything already packed in the store is served too.
"""

from repro.serve.batching import MicroBatcher, batch_estimate, fused_estimate
from repro.serve.registry import ModelRegistry, map_model, pack_model
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
    "map_model",
    "pack_model",
]
