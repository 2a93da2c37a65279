"""Serving bench: micro-batched vs per-request inference under load.

``repro.serve`` claims concurrent requests can be fused into one
evaluation over the model's packed roofline table without changing a
single bit of any response.  This bench measures both claims against a live server —
real sockets, real HTTP framing, the same code path ``spire serve``
runs:

- **parity gate** (always asserted, every scale): every response body
  produced by the micro-batched server equals, field for field, the
  response computed by calling ``SpireModel.estimate`` on that request
  alone;
- **throughput**: sustained RPS and p50/p99 latency at 1, 8 and 64
  concurrent keep-alive clients, batched vs unbatched.  At 64 clients
  the batched server must hold at least **3x** the unbatched RPS even
  at reduced CI scale — the whole point of coalescing is that model
  evaluation cost is per-batch, not per-request;
- **coalescing** (always asserted): the 64-client batched pass fuses at
  least 8 requests per evaluation on average.

The headline numbers run with the guard sampling rate pinned to 0 (the
amortized steady state); a separate guarded pass at the default rate
re-proves fused/scalar parity in-line via the ``serve.batch_estimate``
oracle and reports its overhead.

Results land in ``BENCH_serve.json``.

Environment knobs:

- ``SPIRE_BENCH_SERVE_FULL=0`` — reduced request counts (CI).
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import statistics
import time

from conftest import write_artifact

from repro.core import SpireModel, TrainOptions
from repro.core.columns import SampleArray
from repro.guard.dispatch import GUARDED_KERNELS, health_report
from repro.serve import ServeConfig, SpireServer

from bench_hotpath import guard_rate

N_METRICS = 60
ROWS_PER_REQUEST = 60
CONCURRENCIES = (1, 8, 64)


def build_model(n_metrics: int = N_METRICS, seed: int = 2025) -> SpireModel:
    """A wide ensemble: per-request cost is dominated by per-metric
    dispatch overhead, which is exactly what fusing amortizes."""
    rng = random.Random(seed)
    records = []
    for i in range(n_metrics):
        metric = f"metric.{i:03d}"
        peak = 2.0 + (i % 13)
        for _ in range(48):
            x = rng.uniform(0.25, 256.0)
            y = min(x, peak) * rng.uniform(0.3, 1.0)
            t = rng.uniform(1.0, 8.0)
            records.append(
                {
                    "metric": metric,
                    "time": t,
                    "work": y * t,
                    "metric_count": (y * t) / x,
                }
            )
    array = SampleArray.from_records(records, validate=True)
    return SpireModel.train(
        array.to_sample_set(), TrainOptions(min_samples_per_metric=1)
    )


def request_body(seed: int, rows: int = ROWS_PER_REQUEST) -> bytes:
    """One client's fixed request: columnar, one row per metric."""
    rng = random.Random(seed)
    metrics, times, works, counts = [], [], [], []
    for i in range(rows):
        metrics.append(f"metric.{i % N_METRICS:03d}")
        t = rng.uniform(1.0, 4.0)
        x = rng.uniform(0.5, 128.0)
        times.append(t)
        works.append(x * t)
        counts.append(t)
    return json.dumps(
        {
            "model": "bench",
            "columns": {
                "metrics": metrics,
                "time": times,
                "work": works,
                "metric_count": counts,
            },
        }
    ).encode()


def reference_response(model: SpireModel, body: bytes) -> dict:
    """What the unbatched path returns for ``body``, JSON-roundtripped
    so float formatting matches the wire exactly."""
    columns = json.loads(body.decode())["columns"]
    array = SampleArray.from_lists(
        columns["metrics"],
        columns["time"],
        columns["work"],
        columns["metric_count"],
    )
    estimate = model.estimate(array.to_sample_set())
    return json.loads(
        json.dumps(
            {
                "throughput": estimate.throughput,
                "limiting_metric": estimate.limiting_metric,
                "per_metric": estimate.per_metric,
                "sample_counts": estimate.sample_counts,
                "skipped_metrics": estimate.skipped_metrics,
            }
        )
    )


async def _client(
    host: str,
    port: int,
    body: bytes,
    n_requests: int,
    latencies: list,
    responses: "list | None",
) -> None:
    reader, writer = await asyncio.open_connection(host, port)
    head = (
        "POST /v1/estimate HTTP/1.1\r\n"
        f"Host: {host}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Connection: keep-alive\r\n\r\n"
    ).encode()
    request = head + body
    try:
        for _ in range(n_requests):
            started = time.perf_counter()
            writer.write(request)
            await writer.drain()
            header = await reader.readuntil(b"\r\n\r\n")
            status = int(header.split(b" ", 2)[1])
            length = 0
            for line in header.split(b"\r\n"):
                if line.lower().startswith(b"content-length:"):
                    length = int(line.split(b":", 1)[1])
            payload = await reader.readexactly(length)
            latencies.append(time.perf_counter() - started)
            assert status == 200, payload[:200]
            if responses is not None:
                responses.append(json.loads(payload.decode()))
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def _load(
    server: SpireServer,
    concurrency: int,
    n_requests: int,
    collect: bool = False,
) -> dict:
    """Drive ``concurrency`` keep-alive clients; return latency/RPS stats."""
    latencies: list[float] = []
    responses: "list[list[dict]] | None" = (
        [[] for _ in range(concurrency)] if collect else None
    )
    started = time.perf_counter()
    await asyncio.gather(
        *(
            _client(
                server.config.host,
                server.port,
                request_body(seed=client),
                n_requests,
                latencies,
                responses[client] if collect else None,
            )
            for client in range(concurrency)
        )
    )
    elapsed = time.perf_counter() - started
    latencies.sort()
    total = concurrency * n_requests
    quantiles = statistics.quantiles(latencies, n=100)
    return {
        "clients": concurrency,
        "requests": total,
        "rps": round(total / elapsed, 1),
        "p50_ms": round(quantiles[49] * 1e3, 3),
        "p99_ms": round(quantiles[98] * 1e3, 3),
        "responses": responses,
    }


async def _measure(
    model: SpireModel, micro_batch: bool, n_requests: int
) -> dict:
    config = ServeConfig(port=0, micro_batch=micro_batch)
    server = SpireServer(config)
    server.registry.install("bench", model)
    await server.start()
    try:
        results = {}
        for concurrency in CONCURRENCIES:
            # Warmup pass primes connections and the model's packed
            # table before anything is timed.
            await _load(server, concurrency, max(2, n_requests // 10))
            batches = server.stats.batches
            batched = server.stats.batched_requests
            stats = await _load(
                server, concurrency, n_requests, collect=micro_batch
            )
            if micro_batch:
                # This pass's own fill, from the counters around it.
                stats["mean_fill"] = round(
                    (server.stats.batched_requests - batched)
                    / (server.stats.batches - batches),
                    2,
                )
            responses = stats.pop("responses")
            if responses is not None:
                _assert_parity(model, responses)
            results[f"c{concurrency}"] = stats
        serve_state = server.stats.snapshot(server.registry.snapshot())
        results["mean_batch_fill"] = round(
            serve_state["batch_fill"]["mean"], 2
        )
        results["max_batch_fill"] = serve_state["batch_fill"]["max"]
        return results
    finally:
        await server.stop()


def _assert_parity(model: SpireModel, responses: "list[list[dict]]") -> None:
    """Every batched response must equal the per-request path bit for bit."""
    for client, batch in enumerate(responses):
        want = reference_response(model, request_body(seed=client))
        for got in batch:
            for field, expected in want.items():
                assert got[field] == expected, (
                    f"client {client}: batched {field} diverged from the "
                    f"per-request path"
                )


def test_serve_throughput():
    assert "serve.batch_estimate" in GUARDED_KERNELS
    run_full = os.environ.get("SPIRE_BENCH_SERVE_FULL", "1") != "0"
    n_requests = 120 if run_full else 30

    model = build_model()
    payload = {
        "rows_per_request": ROWS_PER_REQUEST,
        "model_metrics": N_METRICS,
    }

    with guard_rate(0):
        payload["batched"] = asyncio.run(_measure(model, True, n_requests))
        payload["unbatched"] = asyncio.run(_measure(model, False, n_requests))

    for concurrency in CONCURRENCIES:
        key = f"c{concurrency}"
        ratio = payload["batched"][key]["rps"] / payload["unbatched"][key]["rps"]
        payload[f"speedup_rps_{key}"] = round(ratio, 2)

    # One pass with dense guard sampling: the fused kernel's oracle
    # (per-request scalar evaluation) re-proves parity on live traffic.
    # Rate 4 instead of the production default (64) so even the reduced
    # CI scale drives a meaningful number of checks.
    with guard_rate(4):
        guarded = asyncio.run(_measure(model, True, max(10, n_requests // 4)))
        health = health_report()
        checks = health.checks_run
        assert checks > 0, "guarded pass ran no oracle checks"
        assert not health.divergences, health.render()
    payload["guarded"] = {
        "c64_rps": guarded["c64"]["rps"],
        "oracle_checks": checks,
    }

    # The acceptance gate: coalescing must pay for itself under load.
    assert payload["speedup_rps_c64"] >= 3.0, (
        f"micro-batching speedup collapsed: {payload['speedup_rps_c64']}x"
    )
    # 64 clients keep up to 64 requests pending; a flush that took them
    # one at a time would read 1.
    fill = payload["batched"]["c64"]["mean_fill"]
    assert fill >= 8, f"64 clients no longer coalesce: mean fill {fill}"

    text = json.dumps(payload, indent=2, sort_keys=True)
    print(text)
    write_artifact("BENCH_serve.json", text)
