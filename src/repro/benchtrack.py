"""Benchmark-artifact aggregation: the perf trajectory across PRs.

Every bench in ``benchmarks/`` writes a ``BENCH_<name>.json`` artifact
with free-form structure.  This module distills the comparable numbers
out of all of them — the speedups — into one flat ``BENCH_summary.json``
keyed by artifact and dotted metric path, so the performance trajectory
is machine-readable across PRs without every consumer learning every
bench's schema.

The same extraction feeds the CI regression gate: a committed
reduced-scale baseline (``benchmarks/baselines/``) is compared against
a fresh run by *ratio* — wall clock is far too noisy across hosts, but
a speedup collapsing to half its recorded value is a real regression.

Its one entry point is ``benchmarks/collect.py``, which writes the
summary and, with ``--check``, runs the gate.
"""

from __future__ import annotations

import json
from pathlib import Path

__all__ = [
    "check_against_baseline",
    "extract_metrics",
    "load_baseline",
    "summarize",
    "write_summary",
]

SUMMARY_NAME = "BENCH_summary.json"

# Leaf keys worth tracking across PRs.  Timings in seconds are
# deliberately excluded: they do not compare across hosts, while these
# ratios do.
_LEAF_PREFIX = "speedup"


def extract_metrics(payload) -> "dict[str, float]":
    """Flatten one artifact's tracked numeric leaves to dotted paths."""
    metrics: dict[str, float] = {}

    def walk(node, prefix: str) -> None:
        if isinstance(node, dict):
            for key, value in node.items():
                path = f"{prefix}.{key}" if prefix else str(key)
                if isinstance(value, (dict, list)):
                    walk(value, path)
                elif (
                    str(key).startswith(_LEAF_PREFIX)
                    and isinstance(value, (int, float))
                    and not isinstance(value, bool)
                ):
                    metrics[path] = float(value)
        elif isinstance(node, list):
            for index, value in enumerate(node):
                walk(value, f"{prefix}[{index}]")

    walk(payload, "")
    return metrics


def summarize(out_dir: "Path | str") -> dict:
    """Merge every ``BENCH_*.json`` under ``out_dir`` into one record."""
    out_dir = Path(out_dir)
    artifacts: dict[str, dict[str, float]] = {}
    for path in sorted(out_dir.glob("BENCH_*.json")):
        if path.name == SUMMARY_NAME:
            continue
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        name = path.stem[len("BENCH_") :]
        artifacts[name] = extract_metrics(payload)
    return {"artifacts": artifacts}


def write_summary(out_dir: "Path | str") -> Path:
    """Write ``BENCH_summary.json`` next to the artifacts it merges."""
    out_dir = Path(out_dir)
    summary = summarize(out_dir)
    target = out_dir / SUMMARY_NAME
    target.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return target


def load_baseline(path: "Path | str") -> dict:
    """Load a gate baseline from a summary file, artifact, or directory.

    Three shapes are accepted, so committed baselines can grow one
    artifact per bench instead of one monolithic summary:

    - a summary file (``{"artifacts": {...}}``) is returned as-is;
    - a single ``BENCH_<name>.json`` artifact becomes a one-entry
      summary keyed by ``<name>``;
    - a directory is merged: every ``*.json`` inside contributes either
      its ``artifacts`` mapping (summary-shaped files) or its own
      extracted metrics (artifact-shaped files).
    """
    path = Path(path)
    if path.is_dir():
        merged: dict[str, dict[str, float]] = {}
        for entry in sorted(path.glob("*.json")):
            for name, metrics in load_baseline(entry)["artifacts"].items():
                merged.setdefault(name, {}).update(metrics)
        return {"artifacts": merged}
    payload = json.loads(path.read_text(encoding="utf-8"))
    if isinstance(payload, dict) and isinstance(
        payload.get("artifacts"), dict
    ):
        return payload
    name = path.stem
    if name.startswith("BENCH_"):
        name = name[len("BENCH_") :]
    if name.endswith("_baseline"):
        name = name[: -len("_baseline")]
    return {"artifacts": {name: extract_metrics(payload)}}


def check_against_baseline(
    summary: dict,
    baseline: dict,
    min_ratio: float = 0.5,
) -> "list[str]":
    """Ratio-gate a fresh summary against a committed baseline.

    Returns human-readable failure strings (empty means the gate
    passes): every ``speedup*`` metric present in both must hold at
    least ``min_ratio`` of its baseline value.

    Metrics missing from either side are skipped: benches come and go
    across PRs and the gate should only compare what both runs measured.
    """
    failures: list[str] = []
    base_artifacts = baseline.get("artifacts", {})
    for name, metrics in summary.get("artifacts", {}).items():
        base_metrics = base_artifacts.get(name, {})
        for path, value in metrics.items():
            leaf = path.rsplit(".", 1)[-1]
            if not leaf.startswith("speedup"):
                continue
            base = base_metrics.get(path)
            if isinstance(base, (int, float)) and base > 0:
                floor = base * min_ratio
                if value < floor:
                    failures.append(
                        f"{name}:{path} = {value:g} fell below "
                        f"{floor:g} ({min_ratio:g}x of baseline {base:g})"
                    )
    return failures
