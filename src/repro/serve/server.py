"""The SPIRE inference service: asyncio HTTP/JSON, stdlib only.

``spire serve`` turns trained models into a long-running endpoint that
accepts counter-sample batches (JSON records or columnar JSON) or
raw ``perf stat -x,`` CSV and answers with bottleneck rankings and
optional TMA drilldowns.  Concurrent requests are coalesced by the
micro-batcher (:mod:`repro.serve.batching`) into one fused evaluation
per model; responses are bit-identical to what each request would get
evaluated alone.  Models live in memory from the moment the server is
constructed (:class:`~repro.serve.registry.ModelRegistry`): a request
names a model by a dictionary key and never causes a file to be read.

Routes
------
- ``GET  /health`` — guard health report with ``serve_state`` attached
- ``GET  /v1/models`` — models available in the registry
- ``POST /v1/estimate`` — compact estimate (throughput + per-metric)
- ``POST /v1/analyze`` — full ranking, measured throughput, optional TMA

Request bodies (``POST``): ``{"model": ..., "samples": [...]}`` record
lists (``"screen": true`` routes them through the streaming timestamp
screen and sanitizer first), ``{"model": ..., "columns": {...}}``
columnar payloads, or ``Content-Type: text/csv`` raw ``perf stat``
output with the model named in the query string (``?model=...``).

Backpressure maps to HTTP: a model with a full queue answers the
newcomer ``429`` with a ``Retry-After`` header, and a request still
pending when the server stops hard is answered ``503``.  A body over
``max_body`` is answered ``413`` and closes the connection: the unread
body must never be parsed as the next request.  A request that carries
``Expect: 100-continue`` gets its interim ``100 Continue`` before its
body is read.  Any other exception while answering a request is a
``500`` with a JSON body.
"""

from __future__ import annotations

import asyncio
import json
import logging
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from urllib.parse import parse_qs, urlsplit

from repro.core.columns import SampleArray
from repro.core.ensemble import EnsembleEstimate
from repro.core.sanitize import QualityReport, SampleSanitizer, TimestampScreen
from repro.counters.events import default_catalog
from repro.counters.perf_parser import PerfStatParser
from repro.errors import (
    DataError,
    EstimationError,
    ServeOverloadError,
    SpireError,
)
from repro.guard.dispatch import GuardConfig, health_report
from repro.io.dataset import load_model
from repro.serve.batching import MicroBatcher
from repro.serve.registry import ModelRegistry
from repro.serve.stats import ServeStats
from repro.tma.drilldown import drilldown
from repro.tma.topdown import TopDownAnalyzer
from repro.uarch.config import skylake_gold_6126

__all__ = ["ServeConfig", "SpireServer"]

_MAX_HEAD = 32 * 1024

_log = logging.getLogger(__name__)


@dataclass
class ServeConfig:
    """Knobs for one server instance (see ``docs/serving.md``)."""

    host: str = "127.0.0.1"
    port: int = 8583
    # A directory of saved models (``<name>.json``), served besides the
    # installed ones (see SpireServer).
    store_dir: "str | None" = None
    micro_batch: bool = True
    max_body: int = 8 * 1024 * 1024
    # Graceful-shutdown budget: how long stop(drain=True) waits for
    # busy handlers to write their final responses.
    drain_timeout: float = 5.0

    def __post_init__(self) -> None:
        if self.max_body < 1:
            raise SpireError("max_body must be positive")
        if self.drain_timeout < 0:
            raise SpireError("drain_timeout cannot be negative")


@dataclass
class _Request:
    method: str
    path: str
    query: "dict[str, str]"
    headers: "dict[str, str]"
    body: bytes
    # The declared body exceeds ``max_body`` and was left unread.
    oversized: bool = False


@dataclass
class _Response:
    status: int
    payload: dict
    headers: "dict[str, str]" = field(default_factory=dict)


_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class SpireServer:
    """One serving process: registry + micro-batcher + HTTP front door.

    Construction loads every ``<name>.json`` in ``config.store_dir`` with
    :func:`~repro.io.dataset.load_model`; a missing directory holds no
    models, and a file that fails to load stops construction with its
    ``DataError`` (quarantined by the loader when its integrity check
    fails).  Further models are installed with ``registry.install``
    before :meth:`start`.  A bad ``SPIRE_GUARD_*`` setting stops
    construction with its ``ConfigError``.
    """

    def __init__(self, config: ServeConfig | None = None):
        self.config = config or ServeConfig()
        # The guard registry reads SPIRE_GUARD_* lazily, inside the
        # first request that needs it; reading them here stops a bad
        # value before the server listens, not with a 500 per request.
        GuardConfig.from_env()
        self.stats = ServeStats()
        self.registry = ModelRegistry()
        if self.config.store_dir is not None:
            for path in sorted(Path(self.config.store_dir).glob("*.json")):
                self.registry.install(path.stem, load_model(path))
        self.batcher: MicroBatcher | None = None
        if self.config.micro_batch:
            self.batcher = MicroBatcher(self.registry.get, stats=self.stats)
        self._parser = PerfStatParser()
        self._server: "asyncio.AbstractServer | None" = None
        self.port = self.config.port
        self._handler_tasks: "set[asyncio.Task]" = set()
        self._busy = 0
        self._idle_event = asyncio.Event()
        self._idle_event.set()

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_client,
            host=self.config.host,
            port=self.config.port,
            limit=_MAX_HEAD,
        )
        # Port 0 asks the OS for a free port; report the one we got.
        sockets = self._server.sockets or ()
        if sockets:
            self.port = sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def stop(self, drain: bool = False) -> None:
        """Shut down, gracefully (``drain=True``) or hard.

        Ordered either way: the listener closes first so no new
        connections arrive, then the batcher's pending requests are
        settled — *evaluated* on drain, failed with ``503`` on a hard
        stop — and only then are connection handlers (which still need
        the event loop to write those final responses) waited on and
        reaped.  Closing transports before settling the pending requests
        is exactly the hung-keep-alive bug this ordering exists to
        prevent.
        """
        started = time.perf_counter()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        flushed = 0
        if self.batcher is not None:
            if drain:
                flushed = self.batcher.drain()
            else:
                self.batcher.close()
        # Busy handlers now hold resolved futures (results or 503s);
        # give them the drain budget to finish writing.
        deadline = (
            self.config.drain_timeout
            if drain
            else min(self.config.drain_timeout, 1.0)
        )
        if self._busy:
            try:
                await asyncio.wait_for(self._idle_event.wait(), deadline)
            except asyncio.TimeoutError:
                pass
        # Idle keep-alive handlers block in read forever; cancel them.
        for task in list(self._handler_tasks):
            task.cancel()
        if self._handler_tasks:
            await asyncio.gather(
                *self._handler_tasks, return_exceptions=True
            )
        if drain:
            self.stats.note_drain(
                (time.perf_counter() - started) * 1e3, flushed
            )

    # -- HTTP plumbing -------------------------------------------------

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._handler_tasks.add(task)
        try:
            while True:
                request = await self._read_request(reader, writer)
                if request is None:
                    break
                self._busy += 1
                self._idle_event.clear()
                try:
                    self.stats.note_request()
                    response = await self._dispatch(request)
                    self.stats.note_response(response.status)
                    # An unread oversized body would be parsed as the
                    # next request: answer once, then hang up.
                    close = request.oversized or (
                        request.headers.get("connection", "").lower()
                        == "close"
                    )
                    writer.write(self._encode(response, close=close))
                    await writer.drain()
                finally:
                    self._busy -= 1
                    if not self._busy:
                        self._idle_event.set()
                if close:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            # Shutdown cancels in-flight handlers; ending normally keeps
            # the streams done-callback from logging the cancellation.
            pass
        finally:
            if task is not None:
                self._handler_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> "_Request | None":
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError:
            return None
        except asyncio.LimitOverrunError:
            return None
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split(" ")
        if len(parts) != 3:
            return None
        method, target, _ = parts
        split = urlsplit(target)
        query = {
            key: values[-1]
            for key, values in parse_qs(split.query).items()
        }
        headers: "dict[str, str]" = {}
        for line in lines[1:]:
            if not line:
                continue
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = 0
        raw_length = headers.get("content-length")
        if raw_length is not None:
            try:
                length = int(raw_length)
            except ValueError:
                return None
        if length < 0:
            return None
        if length > self.config.max_body:
            return _Request(
                method, split.path, query, headers, b"", oversized=True
            )
        if length and headers.get("expect", "").lower() == "100-continue":
            # The client holds its body back until it hears this; curl
            # waits a second, then sends it anyway.
            writer.write(b"HTTP/1.1 100 Continue\r\n\r\n")
            await writer.drain()
        body = await reader.readexactly(length) if length else b""
        return _Request(method, split.path, query, headers, body)

    def _encode(self, response: _Response, close: bool) -> bytes:
        body = json.dumps(response.payload).encode("utf-8")
        reason = _REASONS.get(response.status, "OK")
        lines = [
            f"HTTP/1.1 {response.status} {reason}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
        ]
        for name, value in response.headers.items():
            lines.append(f"{name}: {value}")
        lines.append(f"Connection: {'close' if close else 'keep-alive'}")
        return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body

    # -- routing -------------------------------------------------------

    async def _dispatch(self, request: _Request) -> _Response:
        if request.oversized:
            return _Response(413, {"error": "request body too large"})
        try:
            if request.path == "/health":
                if request.method != "GET":
                    return _Response(405, {"error": "use GET"})
                return self._health()
            if request.path == "/v1/models":
                if request.method != "GET":
                    return _Response(405, {"error": "use GET"})
                return _Response(200, {"models": self.registry.names()})
            if request.path in ("/v1/estimate", "/v1/analyze"):
                if request.method != "POST":
                    return _Response(405, {"error": "use POST"})
                return await self._estimate_route(
                    request, full=request.path == "/v1/analyze"
                )
            return _Response(404, {"error": f"no route {request.path!r}"})
        except ServeOverloadError as exc:
            status = 503 if exc.shed else 429
            return _Response(
                status,
                {"error": str(exc), "retry_after": exc.retry_after},
                headers={"Retry-After": f"{exc.retry_after:.3f}"},
            )
        except EstimationError as exc:
            return _Response(422, {"error": str(exc)})
        except _BadRequest as exc:
            return _Response(400, {"error": str(exc)})
        except Exception as exc:
            # Anything untyped is a server fault (a guard divergence
            # under the raise policy, or a bug): answer it, never drop
            # the connection.
            _log.exception(
                "internal error on %s %s", request.method, request.path
            )
            return _Response(
                500, {"error": f"internal error: {type(exc).__name__}: {exc}"}
            )

    def _health(self) -> _Response:
        report = health_report()
        registry_snapshot = self.registry.snapshot()
        serve_state = self.stats.snapshot(registry_snapshot)
        serve_state["batcher"] = {
            "enabled": self.batcher is not None,
            "queues": (
                self.batcher.queue_depths() if self.batcher is not None else {}
            ),
        }
        report.serve_state = serve_state
        return _Response(
            200,
            {
                "ok": report.ok,
                "health": report.to_dict(),
                "render": report.render(),
            },
        )

    # -- estimation routes ---------------------------------------------

    async def _estimate_route(
        self, request: _Request, full: bool
    ) -> _Response:
        name, array, quality, counts = self._decode_body(request)
        if not self.registry.has(name):
            return _Response(404, {"error": f"unknown model {name!r}"})
        estimate = await self._evaluate(name, array)
        payload = {
            "model": name,
            "throughput": estimate.throughput,
            "limiting_metric": estimate.limiting_metric,
            "per_metric": estimate.per_metric,
            "sample_counts": estimate.sample_counts,
            "skipped_metrics": estimate.skipped_metrics,
        }
        if full:
            areas = default_catalog().areas()
            payload["ranking"] = [
                {
                    "metric": entry.metric,
                    "estimate": entry.estimate,
                    "sample_count": entry.sample_count,
                    "area": areas.get(entry.metric, ""),
                }
                for entry in estimate.ranked()
            ]
            try:
                measured = array.measured_throughput()
            except DataError:
                measured = math.nan
            # None when there is no finite number: no samples, or sums
            # that overflow float64.
            payload["measured_throughput"] = (
                measured if math.isfinite(measured) else None
            )
            if counts is not None:
                payload["tma"] = self._tma(counts)
        if quality is not None and not quality.ok:
            payload["quality"] = quality.summary()
        return _Response(200, payload)

    async def _evaluate(
        self, name: str, array: SampleArray
    ) -> EnsembleEstimate:
        if self.batcher is not None:
            return await self.batcher.submit(name, array)
        # Unbatched reference path: exactly the library call a client
        # would make locally (the bench's comparison baseline).
        model = self.registry.get(name)
        return model.estimate(array.to_sample_set())

    def _tma(self, counts: "dict[str, float]") -> dict:
        try:
            result = TopDownAnalyzer(skylake_gold_6126()).analyze(counts)
        except DataError as exc:
            # The counts are client input (a missing event, no cycles):
            # a bad request, not a fault of the server.
            raise _BadRequest(f"'counts': {exc}") from None
        headline = (result.ipc, *result.fractions.values())
        if not all(map(math.isfinite, headline)):
            raise _BadRequest(
                "'counts' totals overflow the Top-Down arithmetic"
            )
        walk = drilldown(result)
        return {
            "ipc": result.ipc,
            "level1": result.level1(),
            "main_bottleneck": result.main_bottleneck(),
            "drilldown": {
                "path": walk.path,
                "steps": [
                    {
                        "name": step.name,
                        "fraction": step.fraction,
                        "depth": step.depth,
                    }
                    for step in walk.steps
                ],
                "advice": walk.advice,
            },
        }

    # -- request decoding ----------------------------------------------

    def _decode_body(
        self, request: _Request
    ) -> "tuple[str, SampleArray, QualityReport | None, dict | None]":
        content_type = request.headers.get("content-type", "").split(";")[0]
        if content_type in ("text/csv", "text/plain"):
            return self._decode_csv(request)
        try:
            payload = json.loads(request.body.decode("utf-8"))
        except (ValueError, RecursionError) as exc:
            # ValueError covers bad UTF-8, bad JSON and integer literals
            # past the interpreter's digit limit; RecursionError, nesting
            # deeper than the decoder's stack.
            raise _BadRequest(f"invalid JSON body: {exc}") from None
        if not isinstance(payload, dict):
            raise _BadRequest("request body must be a JSON object")
        name = payload.get("model")
        if not isinstance(name, str) or not name:
            raise _BadRequest("missing required field 'model'")
        counts = payload.get("counts")
        if counts is not None:
            _check_counts(counts)
        try:
            if "columns" in payload:
                array = self._decode_columns(payload["columns"])
                return name, array, None, counts
            records = payload.get("samples")
            if not isinstance(records, list):
                raise _BadRequest(
                    "body needs 'samples' (record list) or 'columns'"
                )
            if not all(isinstance(record, dict) for record in records):
                raise _BadRequest("'samples' records must be objects")
            try:
                if payload.get("screen"):
                    array, quality = self._screen_records(records)
                    return name, array, quality, counts
                array = SampleArray.from_records(records, validate=True)
            except (TypeError, ValueError, OverflowError) as exc:
                raise _BadRequest(
                    f"'samples' values must be numbers: {exc}"
                ) from None
            return name, array, None, counts
        except DataError as exc:
            raise _BadRequest(str(exc)) from None

    @staticmethod
    def _decode_columns(columns) -> SampleArray:
        if not isinstance(columns, dict):
            raise _BadRequest("'columns' must be an object")
        try:
            metrics = columns["metrics"]
            time = columns["time"]
            work = columns["work"]
            metric_count = columns["metric_count"]
        except KeyError as missing:
            raise _BadRequest(
                f"'columns' is missing field {missing}"
            ) from None
        if not all(
            isinstance(column, list)
            for column in (metrics, time, work, metric_count)
        ):
            raise _BadRequest("'columns' fields must be arrays")
        if not (
            len(metrics) == len(time) == len(work) == len(metric_count)
        ):
            raise _BadRequest("'columns' arrays must share one length")
        try:
            array = SampleArray.from_lists(
                [str(m) for m in metrics], time, work, metric_count
            )
        except (TypeError, ValueError, OverflowError) as exc:
            raise _BadRequest(
                f"'columns' values must be numbers: {exc}"
            ) from None
        if max(array.time.ndim, array.work.ndim, array.metric_count.ndim) > 1:
            raise _BadRequest("'columns' values must be numbers, not arrays")
        array.validate()
        return array

    def _screen_records(
        self, records: "list[dict]"
    ) -> "tuple[SampleArray, QualityReport]":
        """The streaming front door: timestamp screen, then sanitizer."""
        quality = QualityReport()
        kept, quality = TimestampScreen().screen(records, quality)
        clean, report = SampleSanitizer(min_samples_per_metric=1).sanitize(
            kept
        )
        quality.kept -= len(report.quarantined)
        quality.quarantined.extend(report.quarantined)
        return clean.columns(), quality

    def _decode_csv(
        self, request: _Request
    ) -> "tuple[str, SampleArray, QualityReport, None]":
        name = request.query.get("model", "")
        if not name:
            raise _BadRequest(
                "CSV requests name the model in the query string (?model=...)"
            )
        try:
            text = request.body.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise _BadRequest(f"CSV body is not UTF-8: {exc}") from None
        quality = QualityReport()
        sample_set = self._parser.parse(text, lenient=True, quality=quality)
        if not sample_set:
            raise _BadRequest(
                "no usable perf intervals: need both "
                f"{self._parser.work_event!r} and "
                f"{self._parser.time_event!r} per interval"
            )
        clean, report = SampleSanitizer(min_samples_per_metric=1).sanitize(
            sample_set
        )
        quality.kept -= len(report.quarantined)
        quality.quarantined.extend(report.quarantined)
        return name, clean.columns(), quality, None


class _BadRequest(SpireError):
    """A malformed request body or missing required field (HTTP 400)."""


def _check_counts(counts) -> None:
    """Require event totals that are finite, non-negative numbers."""
    if not isinstance(counts, dict):
        raise _BadRequest("'counts' must map event names to totals")
    for event, value in counts.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise _BadRequest(f"'counts' total for {event!r} is not a number")
        try:
            value = float(value)
        except OverflowError:
            value = math.inf
        if not 0 <= value < math.inf:
            raise _BadRequest(
                f"'counts' total for {event!r} must be finite and non-negative"
            )
