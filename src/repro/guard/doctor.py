"""``spire doctor``: scan and repair an experiment cache directory.

The doctor verifies the integrity of every cache entry and checkpoint
(header present, schema current, checksum matching), quarantines anything
that fails — the repair: bad entries become cache misses and re-simulate,
while the evidence stays on disk under ``.quarantine/`` — lists what is
already quarantined, and optionally prunes the quarantine.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import DataError
from repro.guard.artifact import quarantine_dir, quarantine_file, verify_payload

__all__ = [
    "DoctorReport",
    "doctor_cache_dir",
    "probe_server",
    "render_server_health",
    "server_health_problems",
]


@dataclass
class DoctorReport:
    """Outcome of one cache-directory scan."""

    directory: str
    entries_scanned: int = 0
    entries_ok: int = 0
    entries_quarantined: list[tuple[str, str]] = field(default_factory=list)
    checkpoints_scanned: int = 0
    checkpoints_ok: int = 0
    checkpoints_quarantined: list[tuple[str, str]] = field(default_factory=list)
    quarantined_files: list[str] = field(default_factory=list)
    pruned: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when the scan found nothing wrong and nothing quarantined."""
        return not (
            self.entries_quarantined
            or self.checkpoints_quarantined
            or self.quarantined_files
        )

    def render(self) -> str:
        lines = [
            f"doctor: {self.directory}",
            f"  entries: {self.entries_ok}/{self.entries_scanned} ok, "
            f"{len(self.entries_quarantined)} quarantined this scan",
            f"  checkpoints: {self.checkpoints_ok}/{self.checkpoints_scanned} "
            f"ok, {len(self.checkpoints_quarantined)} quarantined this scan",
        ]
        for name, reason in self.entries_quarantined:
            lines.append(f"  entry {name}: {reason}")
        for name, reason in self.checkpoints_quarantined:
            lines.append(f"  checkpoint {name}: {reason}")
        if self.quarantined_files:
            lines.append(f"  in quarantine ({len(self.quarantined_files)}):")
            for path in self.quarantined_files:
                lines.append(f"    {path}")
        else:
            lines.append("  quarantine is empty")
        if self.pruned:
            lines.append(f"  pruned {len(self.pruned)} quarantined file(s)")
        if self.ok:
            lines.append("  cache is healthy")
        return "\n".join(lines)


def _verify_file(path: Path, schema: str) -> str | None:
    """Why the artifact at ``path`` fails verification, or ``None``."""
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        return f"unreadable: {exc}"
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        return f"invalid JSON: {exc}"
    return verify_payload(payload, schema)


def doctor_cache_dir(
    directory: str | Path, prune: bool = False
) -> DoctorReport:
    """Scan an experiment cache directory; quarantine what fails.

    Raises :class:`~repro.errors.DataError` when ``directory`` does not
    exist.  ``prune=True`` additionally deletes everything sitting in the
    quarantine subdirectories after the scan.
    """
    from repro.runtime.cache import CACHE_FORMAT, CHECKPOINT_FORMAT

    directory = Path(directory)
    if not directory.is_dir():
        raise DataError(f"cache directory {directory} does not exist")
    report = DoctorReport(directory=str(directory))

    for path in sorted(directory.glob("*.json")):
        report.entries_scanned += 1
        reason = _verify_file(path, CACHE_FORMAT)
        if reason is None:
            report.entries_ok += 1
        else:
            quarantine_file(path, reason)
            report.entries_quarantined.append((path.name, reason))

    for ckpt_dir in sorted(directory.glob("*.ckpt")):
        if not ckpt_dir.is_dir():
            continue
        for path in sorted(ckpt_dir.glob("*.json")):
            report.checkpoints_scanned += 1
            reason = _verify_file(path, CHECKPOINT_FORMAT)
            if reason is None:
                report.checkpoints_ok += 1
            else:
                quarantine_file(path, reason)
                report.checkpoints_quarantined.append(
                    (f"{ckpt_dir.name}/{path.name}", reason)
                )

    quarantine_roots = [quarantine_dir(directory)]
    quarantine_roots.extend(
        quarantine_dir(d) for d in sorted(directory.glob("*.ckpt"))
    )
    for root in quarantine_roots:
        if not root.is_dir():
            continue
        for path in sorted(p for p in root.iterdir() if p.is_file()):
            report.quarantined_files.append(str(path))
            if prune:
                try:
                    path.unlink()
                    report.pruned.append(str(path))
                except OSError:
                    pass
        if prune:
            try:
                root.rmdir()
            except OSError:
                pass

    return report


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
    histogram, quota rejections, and per-kernel guard state.
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

    quotas = serve.get("quotas") or {}
    if quotas.get("rejected"):
        per_model = quotas.get("per_model") or {}
        detail = "  ".join(
            f"{name}:{count}" for name, count in sorted(per_model.items())
        )
        lines.append(
            f"  admission: {quotas['rejected']} request(s) quota-rejected"
            + (f" ({detail})" if detail else "")
        )

    rollover = serve.get("rollover") or {}
    if rollover.get("installs") or rollover.get("rejected"):
        lines.append(
            f"  rollover: {rollover.get('installs', 0)} install(s), "
            f"{rollover.get('rejected', 0)} rejected, "
            f"{rollover.get('adopted', 0)} adoption(s)"
        )

    drain = serve.get("drain") or {}
    if drain.get("count"):
        lines.append(
            f"  drain: {drain['count']} drain(s), last "
            f"{drain.get('last_ms', 0.0):.1f} ms, "
            f"{drain.get('flushed', 0)} queued request(s) flushed"
        )

    fleet = serve.get("fleet") or {}
    if fleet:
        worker = serve.get("worker")
        prefix = f"  fleet (seen from worker {worker}): " if worker is not None else "  fleet: "
        lines.append(
            prefix
            + f"{fleet.get('workers', 0)} slot(s), "
            f"{fleet.get('restart_total', 0)} restart(s), "
            f"stale {fleet.get('stale_slots', [])}"
        )
        for slot in fleet.get("slots", []):
            state = (
                "stale"
                if slot.get("stale")
                else ("ready" if slot.get("ready") else "starting")
            )
            counters = slot.get("counters") or {}
            lines.append(
                f"    slot {slot.get('slot')}: {state}, pid {slot.get('pid')}, "
                f"{slot.get('restarts', 0)} restart(s), "
                f"{counters.get('requests', 0)} request(s)"
            )

    for name, kernel in sorted(health.get("kernels", {}).items()):
        state = "tripped" if kernel.get("tripped") else "fast"
        lines.append(
            f"  guard {name}: {kernel.get('calls', 0)} call(s), "
            f"{kernel.get('checks', 0)} oracle check(s), {state}"
        )
    return "\n".join(line for line in lines if line)


def server_health_problems(payload: dict) -> list[str]:
    """Fleet-level defects in a :func:`probe_server` payload.

    Returns one human-readable string per problem; an empty list means
    the serving fleet looks healthy.  ``spire doctor --serve-url`` exits
    nonzero when this list is non-empty, so a supervisor with stale
    (flapping) worker slots or a registry that has quarantined model
    artifacts fails CI even though the surviving workers still answer
    ``/health`` with ``ok: true``.
    """
    problems: list[str] = []
    health = payload.get("health", {})
    if not payload.get("ok", False):
        problems.append("server reports unhealthy guard state")
    serve = health.get("serve_state") or {}

    fleet = serve.get("fleet") or {}
    stale = fleet.get("stale_slots") or []
    if stale:
        problems.append(
            f"{len(stale)} worker slot(s) stale after repeated crashes: {stale}"
        )
    for slot in fleet.get("slots", []):
        if slot.get("alive") is False and not slot.get("stale"):
            problems.append(f"worker slot {slot.get('slot')} is down (restarting)")

    registry = serve.get("registry") or {}
    if registry.get("verify_failures"):
        problems.append(
            f"{registry['verify_failures']} model artifact(s) failed "
            "verification and were quarantined"
        )

    rollover = serve.get("rollover") or {}
    if rollover.get("rejected"):
        problems.append(
            f"{rollover['rejected']} rollover install(s) rejected "
            "(artifacts quarantined in the staging area)"
        )
    return problems
