"""The SPIRE inference service: asyncio HTTP/JSON, stdlib only.

``spire serve`` turns a trained model store into a long-running endpoint
that accepts counter-sample batches (JSON records or columnar JSON) or
raw ``perf stat -x,`` CSV and answers with bottleneck rankings and
optional TMA drilldowns.  Concurrent requests are coalesced by the
adaptive micro-batcher (:mod:`repro.serve.batching`) into one fused
evaluation per model; responses are bit-identical to what each request
would get evaluated alone.

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

Backpressure maps to HTTP: a full queue answers ``429`` with a
``Retry-After`` header under the default ``reject`` policy, and sheds
the *oldest* queued request with ``503`` under ``load_shed=oldest``.
"""

from __future__ import annotations

import asyncio
import json
import os
import time
from dataclasses import dataclass, field
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
from repro.guard.dispatch import health_report
from repro.serve.batching import MicroBatcher
from repro.serve.quotas import AdmissionController, QuotaPolicy
from repro.serve.registry import ModelRegistry
from repro.serve.rollover import RolloverManager
from repro.serve.stats import ServeStats
from repro.tma.drilldown import drilldown
from repro.tma.topdown import TopDownAnalyzer
from repro.uarch.config import skylake_gold_6126

__all__ = ["ServeConfig", "SpireServer"]

_MAX_HEAD = 32 * 1024


@dataclass
class ServeConfig:
    """Knobs for one server instance (see ``docs/serving.md``)."""

    host: str = "127.0.0.1"
    port: int = 8583
    store_dir: str = "models"
    capacity: int = 4
    micro_batch: bool = True
    max_batch: int = 64
    window: float = 0.002       # seconds the batcher waits for batch-mates
    queue_limit: int = 256
    load_shed: str = "reject"   # or "oldest"
    retry_after: float = 0.05
    max_body: int = 8 * 1024 * 1024
    work_event: str = "instructions"
    time_event: str = "cycles"
    separator: str = ","
    # Per-model admission quotas (None entries / no entry = unlimited).
    quotas: "dict[str, QuotaPolicy] | None" = None
    default_quota: "QuotaPolicy | None" = None
    # Supervised-fleet plumbing: SO_REUSEPORT lets N workers share one
    # port; ``sock`` carries a pre-bound listening socket (the fallback
    # when REUSEPORT is unavailable — fork-inherited from the parent).
    reuse_port: bool = False
    sock: "object | None" = field(default=None, repr=False, compare=False)
    worker_slot: "int | None" = None
    # Graceful-shutdown budget: how long stop(drain=True) waits for
    # busy handlers to write their final responses.
    drain_timeout: float = 5.0
    # Chaos only: expose /debug/crash and /debug/hang fault routes.
    debug_faults: bool = False

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
    """One serving process: registry + micro-batcher + HTTP front door."""

    def __init__(self, config: ServeConfig | None = None):
        self.config = config or ServeConfig()
        self.stats = ServeStats()
        self.stats.worker_slot = self.config.worker_slot
        self.registry = ModelRegistry(
            self.config.store_dir,
            capacity=self.config.capacity,
            stats=self.stats,
        )
        self.admission = AdmissionController(
            policies=self.config.quotas,
            default=self.config.default_quota,
            stats=self.stats,
        )
        self.rollover = RolloverManager(
            self.registry, on_swap=self._notify_rollover
        )
        #: Supervised workers point this at their control channel so a
        #: successful install is broadcast to peer workers.
        self.on_rollover: "object | None" = None
        self.batcher: MicroBatcher | None = None
        if self.config.micro_batch:
            self.batcher = MicroBatcher(
                resolve=self.registry.get,
                max_batch=self.config.max_batch,
                window=self.config.window,
                queue_limit=self.config.queue_limit,
                load_shed=self.config.load_shed,
                retry_after=self.config.retry_after,
                stats=self.stats,
            )
        self._parser = PerfStatParser(
            work_event=self.config.work_event,
            time_event=self.config.time_event,
            separator=self.config.separator,
        )
        self._server: "asyncio.AbstractServer | None" = None
        self.port = self.config.port
        self._handler_tasks: "set[asyncio.Task]" = set()
        self._busy = 0
        self._idle_event = asyncio.Event()
        self._idle_event.set()

    def _notify_rollover(self, name: str) -> None:
        callback = self.on_rollover
        if callback is not None:
            callback(name)

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> None:
        if self.config.sock is not None:
            # Fork-inherited listening socket (the no-REUSEPORT fleet
            # fallback): the kernel load-balances accepts across workers.
            self._server = await asyncio.start_server(
                self._handle_client, sock=self.config.sock, limit=_MAX_HEAD
            )
        else:
            kwargs: dict = {}
            if self.config.reuse_port:
                kwargs["reuse_port"] = True
            self._server = await asyncio.start_server(
                self._handle_client,
                host=self.config.host,
                port=self.config.port,
                limit=_MAX_HEAD,
                **kwargs,
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
        connections arrive, then the batcher's queues are settled —
        *evaluated* on drain, failed with ``503`` on a hard stop — and
        only then are connection handlers (which still need the event
        loop to write those final responses) waited on and reaped.
        Closing transports before settling the queues is exactly the
        hung-keep-alive bug this ordering exists to prevent.
        """
        started = time.perf_counter()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        flushed = 0
        if self.batcher is not None:
            if drain:
                flushed = await self.batcher.drain()
            else:
                await self.batcher.close()
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
        self.registry.close()
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
                request = await self._read_request(reader)
                if request is None:
                    break
                self._busy += 1
                self._idle_event.clear()
                try:
                    self.stats.note_request()
                    response = await self._dispatch(request)
                    self.stats.note_response(response.status)
                    if self.config.worker_slot is not None:
                        response.headers.setdefault(
                            "X-Spire-Worker", str(self.config.worker_slot)
                        )
                    close = (
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
        self, reader: asyncio.StreamReader
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
            # Drain nothing; answer 413 and close the connection.
            return _Request(method, split.path, query, headers, b"\x00")
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
        if len(request.body) > self.config.max_body or (
            request.body == b"\x00"
            and int(request.headers.get("content-length", 0) or 0)
            > self.config.max_body
        ):
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
            if request.path == "/v1/models/install":
                if request.method != "POST":
                    return _Response(405, {"error": "use POST"})
                return self._install_route(request)
            if self.config.debug_faults and request.path == "/debug/crash":
                return self._debug_crash()
            if self.config.debug_faults and request.path == "/debug/hang":
                return self._debug_hang(request)
            return _Response(404, {"error": f"no route {request.path!r}"})
        except ServeOverloadError as exc:
            status = 503 if exc.shed else 429
            return _Response(
                status,
                {"error": str(exc), "retry_after": exc.retry_after},
                headers={"Retry-After": f"{max(exc.retry_after, 0.0):.3f}"},
            )
        except EstimationError as exc:
            return _Response(422, {"error": str(exc)})
        except _BadRequest as exc:
            return _Response(400, {"error": str(exc)})
        except DataError as exc:
            # Artifact-level failure: the request was well-formed but
            # the model could not be served (e.g. a corrupt packed
            # artifact was quarantined on reload).  503, not 500 — the
            # server itself is healthy and a reinstall fixes it.
            return _Response(
                503,
                {"error": str(exc)},
                headers={"Retry-After": f"{self.config.retry_after:.3f}"},
            )

    def _health(self) -> _Response:
        report = health_report()
        registry_snapshot = self.registry.snapshot()
        serve_state = self.stats.snapshot(registry_snapshot)
        serve_state["batcher"] = {
            "enabled": self.batcher is not None,
            "max_batch": self.config.max_batch,
            "window_ms": self.config.window * 1000.0,
            "queue_limit": self.config.queue_limit,
            "load_shed": self.config.load_shed,
            "queues": (
                self.batcher.queue_depths() if self.batcher is not None else {}
            ),
        }
        serve_state["admission"] = self.admission.snapshot()
        serve_state["rollover"] = self.rollover.snapshot()
        report.serve_state = serve_state
        return _Response(
            200,
            {
                "ok": report.ok,
                "health": report.to_dict(),
                "render": report.render(),
            },
        )

    # -- rollover / chaos routes ---------------------------------------

    def _install_route(self, request: _Request) -> _Response:
        """Hot-install a packed model artifact (stage/verify/canary/swap)."""
        content_type = request.headers.get("content-type", "").split(";")[0]
        if content_type != "application/octet-stream":
            raise _BadRequest(
                "install expects a packed .spm artifact as "
                "Content-Type: application/octet-stream"
            )
        name = request.query.get("model", "")
        if not name:
            raise _BadRequest(
                "install names the model in the query string (?model=...)"
            )
        try:
            event = self.rollover.install_packed(name, request.body)
        except DataError as exc:
            # A rejected artifact is a client-payload problem (422), not
            # a serving failure: the old model keeps serving untouched.
            return _Response(
                422,
                {"error": str(exc), "rollover": self.rollover.snapshot()},
            )
        return _Response(200, {"installed": name, "event": event.to_dict()})

    def _debug_crash(self) -> _Response:
        """Chaos route: hard-kill this worker shortly after responding."""
        loop = asyncio.get_running_loop()
        loop.call_later(0.05, os._exit, 70)
        return _Response(200, {"crashing": True})

    def _debug_hang(self, request: _Request) -> _Response:
        """Chaos route: wedge the event loop (heartbeats stop beating)."""
        try:
            seconds = float(request.query.get("seconds", "30") or 30.0)
        except ValueError:
            raise _BadRequest("'seconds' must be a number") from None
        seconds = min(max(seconds, 0.0), 120.0)
        time.sleep(seconds)  # deliberately synchronous: a real wedge
        return _Response(200, {"hung_for": seconds})

    # -- estimation routes ---------------------------------------------

    async def _estimate_route(
        self, request: _Request, full: bool
    ) -> _Response:
        name, array, quality, counts = self._decode_body(request)
        # Admission quotas come before any disk or lane work: a storm on
        # one model burns its own budget, not the server's.
        self.admission.admit(name)
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
                payload["measured_throughput"] = array.measured_throughput()
            except DataError:
                payload["measured_throughput"] = None
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
        result = TopDownAnalyzer(skylake_gold_6126()).analyze(counts)
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
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise _BadRequest(f"invalid JSON body: {exc}") from None
        if not isinstance(payload, dict):
            raise _BadRequest("request body must be a JSON object")
        name = payload.get("model")
        if not isinstance(name, str) or not name:
            raise _BadRequest("missing required field 'model'")
        counts = payload.get("counts")
        if counts is not None and not isinstance(counts, dict):
            raise _BadRequest("'counts' must map event names to totals")
        try:
            if "columns" in payload:
                array = self._decode_columns(payload["columns"])
                return name, array, None, counts
            records = payload.get("samples")
            if not isinstance(records, list):
                raise _BadRequest(
                    "body needs 'samples' (record list) or 'columns'"
                )
            if payload.get("screen"):
                array, quality = self._screen_records(records)
                return name, array, quality, counts
            return (
                name,
                SampleArray.from_records(records, validate=True),
                None,
                counts,
            )
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
        if not (
            len(metrics) == len(time) == len(work) == len(metric_count)
        ):
            raise _BadRequest("'columns' arrays must share one length")
        array = SampleArray.from_lists(
            [str(m) for m in metrics], time, work, metric_count
        )
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
                f"{self.config.work_event!r} and {self.config.time_event!r} "
                "per interval"
            )
        clean, report = SampleSanitizer(min_samples_per_metric=1).sanitize(
            sample_set
        )
        quality.kept -= len(report.quarantined)
        quality.quarantined.extend(report.quarantined)
        return name, clean.columns(), quality, None


class _BadRequest(SpireError):
    """A malformed request body or missing required field (HTTP 400)."""
