"""Reusable renderers for the paper's tables.

The benchmarks print Tables I-III while timing the underlying pipeline;
these functions carry the actual formatting so scripts, notebooks, and the
CLI can regenerate the same tables from an :class:`ExperimentResult` (or a
loaded archive) without the benchmark harness.  Each renderer supports
plain-text and GitHub-markdown output.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.counters.events import default_catalog
from repro.errors import DataError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.pipeline import ExperimentResult

_FORMATS = ("text", "markdown")


def _check_format(style: str) -> None:
    if style not in _FORMATS:
        raise DataError(f"format must be one of {_FORMATS}, got {style!r}")


def _table(headers: list[str], rows: list[list[str]], style: str) -> str:
    if style == "markdown":
        lines = [
            "| " + " | ".join(headers) + " |",
            "|" + "|".join("---" for _ in headers) + "|",
        ]
        lines.extend("| " + " | ".join(row) + " |" for row in rows)
        return "\n".join(lines)
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in rows)) if rows else len(headers[i])
        for i in range(len(headers))
    ]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    lines.extend(
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)) for row in rows
    )
    return "\n".join(lines)


def render_table1(result: "ExperimentResult", style: str = "text") -> str:
    """Table I: the workload suite with measured IPC and TMA category."""
    _check_format(style)
    rows = []
    for run in list(result.training_runs.values()) + list(
        result.testing_runs.values()
    ):
        rows.append(
            [
                run.workload.name,
                run.workload.configuration or "—",
                run.workload.role,
                run.table1_category,
                f"{run.measured_ipc:.2f}",
                f"{run.tma.fraction('retiring'):.0%}",
            ]
        )
    headers = ["workload", "configuration", "role", "main TMA bottleneck",
               "IPC", "retiring"]
    title = "Table I — workloads used to evaluate SPIRE"
    return f"{title}\n\n{_table(headers, rows, style)}"


def render_table2(
    result: "ExperimentResult", top_k: int = 10, style: str = "text"
) -> str:
    """Table II: top metrics per testing workload with IPC estimates."""
    _check_format(style)
    catalog = default_catalog()
    abbreviations = catalog.abbreviations()
    sections = ["Table II — top performance metrics per testing workload"]
    for name, run in result.testing_runs.items():
        report = result.analyze(name, top_k=top_k)
        rows = [
            [
                f"{entry.estimate:.2f}",
                abbreviations.get(entry.metric, ""),
                report.area_of(entry.metric),
                entry.metric,
            ]
            for entry in report.top(top_k)
        ]
        headers = ["est. IPC", "abbr", "area", "metric"]
        sections.append(
            f"\n{run.workload.label} — measured IPC "
            f"{report.measured_throughput:.2f}, TMA {run.table1_category}\n\n"
            + _table(headers, rows, style)
        )
    return "\n".join(sections)


def render_table3(style: str = "text") -> str:
    """Table III: abbreviation → event name by microarchitecture area."""
    _check_format(style)
    catalog = default_catalog()
    rows = sorted(
        ([e.area, e.abbr, e.name] for e in catalog if e.abbr),
        key=lambda r: (r[0], r[1]),
    )
    headers = ["area", "abbr", "expanded metric name"]
    title = "Table III — performance metric abbreviations by area"
    return f"{title}\n\n{_table(headers, rows, style)}"


def render_summary(result: "ExperimentResult", top_k: int = 10) -> str:
    """The §V headline: per-test-workload SPIRE vs TMA agreement."""
    rows = []
    matches = 0
    for name, run in result.testing_runs.items():
        report = result.analyze(name, top_k=top_k)
        agree = report.agrees_with(run.table1_category, top_k)
        matches += agree
        rows.append(
            [
                name,
                f"{report.measured_throughput:.2f}",
                run.table1_category,
                report.top_area,
                "agree" if agree else "differ",
            ]
        )
    headers = ["workload", "IPC", "TMA", "SPIRE #1 area", "verdict"]
    body = _table(headers, rows, "text")
    return (
        f"{body}\n\nagreement: {matches}/{len(result.testing_runs)} "
        f"test workloads"
    )
