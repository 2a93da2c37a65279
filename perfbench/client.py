"""Closed-loop HTTP load for the serve workload.

A fixed number of keep-alive connections each send one request, wait
for its reply, and send the next, until the phase ends.  Responses are
kept by (body, status, bytes) so each distinct answer is checked once,
after the phase, outside the timed region.
"""

from __future__ import annotations

import asyncio
import http.client
import time


def encode(entry: dict, host: str) -> bytes:
    head = (
        f"POST {entry['path']} HTTP/1.1\r\n"
        f"Host: {host}\r\n"
        f"Content-Type: {entry['content_type']}\r\n"
        f"Content-Length: {len(entry['body'])}\r\n"
        "Connection: keep-alive\r\n\r\n"
    )
    return head.encode("latin-1") + entry["body"]


async def _read_response(reader) -> tuple[int, bytes]:
    header = await reader.readuntil(b"\r\n\r\n")
    status = int(header.split(b" ", 2)[1])
    length = 0
    for line in header.split(b"\r\n"):
        if line.lower().startswith(b"content-length:"):
            length = int(line.split(b":", 1)[1])
    return status, await reader.readexactly(length)


async def _connection(host, port, requests, order, deadline, latencies,
                      answers, errors) -> None:
    reader = writer = None
    try:
        while time.monotonic() < deadline:
            index = next(order)
            started = time.perf_counter()
            try:
                if writer is None:
                    reader, writer = await asyncio.open_connection(host, port)
                writer.write(requests[index])
                await writer.drain()
                status, body = await _read_response(reader)
            except (OSError, asyncio.IncompleteReadError, ValueError) as exc:
                errors.append(f"{type(exc).__name__}: {exc}")
                if writer is not None:
                    writer.close()
                reader = writer = None
                continue
            latencies.append((time.perf_counter() - started) * 1e3)
            key = (index, status, body)
            answers[key] = answers.get(key, 0) + 1
    finally:
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:
                pass


async def _load(host, port, pool, orders, seconds):
    requests = [encode(entry, host) for entry in pool]
    result = {"latencies_ms": [], "answers": {}, "errors": []}
    started = time.perf_counter()
    window_start = time.monotonic()
    deadline = window_start + seconds
    await asyncio.gather(*(
        _connection(host, port, requests, order, deadline,
                    result["latencies_ms"], result["answers"],
                    result["errors"])
        for order in orders
    ))
    result["elapsed_s"] = time.perf_counter() - started
    # Monotonic time is shared by all processes, so the server's probes
    # can be matched to the phase.
    result["window"] = [window_start, time.monotonic()]
    return result


def run_load(port: int, pool: list[dict], orders: list, seconds: float,
             host: str = "127.0.0.1") -> dict:
    """Drive one closed-loop client per request order (an iterator of
    pool indices) for ``seconds``."""
    return asyncio.run(_load(host, port, pool, orders, seconds))


def health_ok(port: int, host: str = "127.0.0.1") -> bool:
    """One ``GET /health``; True on a 200 answer."""
    connection = http.client.HTTPConnection(host, port, timeout=2.0)
    try:
        connection.request("GET", "/health")
        response = connection.getresponse()
        response.read()
        return response.status == 200
    except OSError:
        return False
    finally:
        connection.close()
