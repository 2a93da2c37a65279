"""``spire doctor``: probe a running ``spire serve`` process.

The doctor fetches the server's ``/health`` document, renders the
long-lived state its one-line summary elides (micro-batch fill, drain
and guard state) and lists the defects that should fail a health check.
"""

from __future__ import annotations

import json

from repro.errors import DataError

__all__ = [
    "probe_server",
    "render_server_health",
    "server_health_problems",
]


def probe_server(url: str, timeout: float = 5.0) -> dict:
    """Fetch ``/health`` from a running ``spire serve`` process.

    ``url`` is either the server root (``http://host:port``) or the
    health endpoint itself.  Returns the decoded JSON payload; raises
    :class:`~repro.errors.DataError` when the server is unreachable or
    does not answer with a SPIRE health document.
    """
    from urllib.error import URLError
    from urllib.request import urlopen

    target = url.rstrip("/")
    if not target.endswith("/health"):
        target += "/health"
    if not target.startswith(("http://", "https://")):
        target = "http://" + target
    try:
        with urlopen(target, timeout=timeout) as response:  # noqa: S310
            payload = json.loads(response.read().decode("utf-8"))
    except (URLError, OSError, TimeoutError, ValueError) as exc:
        raise DataError(f"cannot probe server at {target}: {exc}") from None
    if not isinstance(payload, dict) or "health" not in payload:
        raise DataError(f"{target}: response is not a SPIRE health document")
    return payload


def render_server_health(payload: dict) -> str:
    """Human-readable view of a :func:`probe_server` payload.

    Starts from the server's own render and appends the long-lived
    process detail the one-line summary elides: micro-batch fill
    histogram, drain counters, and per-kernel guard state.
    """
    lines = [str(payload.get("render", "")).rstrip()]
    health = payload.get("health", {})
    serve = health.get("serve_state") or {}

    fill = serve.get("batch_fill", {})
    histogram = fill.get("histogram") or {}
    if any(histogram.values()):
        buckets = "  ".join(
            f"{label}:{count}" for label, count in histogram.items() if count
        )
        lines.append(f"  batch fill histogram: {buckets}")

    drain = serve.get("drain") or {}
    if drain.get("count"):
        lines.append(
            f"  drain: {drain['count']} drain(s), last "
            f"{drain.get('last_ms', 0.0):.1f} ms, "
            f"{drain.get('flushed', 0)} queued request(s) flushed"
        )

    for name, kernel in sorted(health.get("kernels", {}).items()):
        state = "tripped" if kernel.get("tripped") else "fast"
        lines.append(
            f"  guard {name}: {kernel.get('calls', 0)} call(s), "
            f"{kernel.get('checks', 0)} oracle check(s), {state}"
        )
    return "\n".join(line for line in lines if line)


def server_health_problems(payload: dict) -> list[str]:
    """Server-level defects in a :func:`probe_server` payload.

    Returns one human-readable string per problem; an empty list means
    the server looks healthy.  ``spire doctor --serve-url`` exits
    nonzero when this list is non-empty.
    """
    problems: list[str] = []
    if not payload.get("ok", False):
        problems.append("server reports unhealthy guard state")
    return problems
