"""Bottleneck analysis reports (paper §III-C "Performance analysis").

SPIRE's analysis output is a ranking of performance metrics by their
time-weighted average throughput estimates: the lowest-valued metrics are
the likeliest bottlenecks.  The paper recommends considering a *pool* of
low-valued metrics rather than only the minimum, to absorb measurement
noise and confounded metrics; :meth:`AnalysisReport.bottleneck_pool`
implements that recommendation.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.errors import EstimationError


@dataclass(frozen=True, slots=True)
class MetricEstimate:
    """One metric's time-weighted average throughput estimate."""

    metric: str
    estimate: float
    sample_count: int = 0


@dataclass
class AnalysisReport:
    """The result of analyzing one workload with a trained SPIRE model."""

    workload: str
    measured_throughput: float
    estimated_throughput: float
    ranking: list[MetricEstimate]
    top_k: int = 10
    metric_areas: dict[str, str] = field(default_factory=dict)
    work_unit: str = "instructions"
    time_unit: str = "cycles"

    def top(self, count: int | None = None) -> list[MetricEstimate]:
        """The ``count`` most-limiting metrics (Table II rows)."""
        return self.ranking[: count if count is not None else self.top_k]

    def bottleneck_pool(self, slack: float = 0.15) -> list[MetricEstimate]:
        """Metrics whose estimate is within ``slack`` of the minimum.

        The pool is relative: a metric belongs when its estimate is at most
        ``(1 + slack)`` times the lowest estimate.  This is the paper's
        suggestion of treating a *range* of low-valued metrics as potential
        bottlenecks.
        """
        if not self.ranking:
            raise EstimationError("analysis produced an empty ranking")
        if slack < 0:
            raise EstimationError(f"slack must be non-negative, got {slack}")
        floor = self.ranking[0].estimate
        limit = floor * (1.0 + slack) if floor >= 0 else floor * (1.0 - slack)
        return [m for m in self.ranking if m.estimate <= limit]

    def area_of(self, metric: str) -> str:
        """Microarchitecture area of a metric (``"?"`` when unmapped)."""
        return self.metric_areas.get(metric, "?")

    def area_votes(self, count: int | None = None) -> Counter:
        """How many of the top metrics fall in each microarchitecture area.

        This is the quantity compared against the TMA baseline's dominant
        category in the paper's §V discussion.
        """
        votes: Counter = Counter()
        for entry in self.top(count):
            votes[self.area_of(entry.metric)] += 1
        return votes

    def dominant_area(self, count: int | None = None) -> str:
        """The area with the most votes among the top metrics."""
        votes = self.area_votes(count)
        votes.pop("?", None)
        if not votes:
            return "?"
        # Ties break toward the area holding the single most-limiting metric.
        best = max(votes.values())
        tied = {area for area, n in votes.items() if n == best}
        for entry in self.top(count):
            area = self.area_of(entry.metric)
            if area in tied:
                return area
        return sorted(tied)[0]  # pragma: no cover - unreachable fallback

    @property
    def top_area(self) -> str:
        """Area of the most-limiting metric."""
        return self.area_of(self.ranking[0].metric)

    def agrees_with(self, category: str, count: int | None = None) -> bool:
        """§V's rule: a baseline's main bottleneck ``category`` (TMA's)
        agrees when it is :attr:`top_area` or the top ``count``'s
        :meth:`dominant_area`."""
        return category in (self.top_area, self.dominant_area(count))

    @property
    def estimation_ratio(self) -> float:
        """Estimated max throughput over measured throughput.

        Values below 1 mean the model bound the workload *under* its actual
        throughput — the estimation defect discussed for Figure 7 (left).
        """
        if self.measured_throughput == 0:
            raise EstimationError("measured throughput is zero")
        return self.estimated_throughput / self.measured_throughput

    def render(self, count: int | None = None) -> str:
        """A human-readable table of the top metrics (Table II style)."""
        lines = []
        title = self.workload or "workload"
        lines.append(
            f"{title}: measured {self.measured_throughput:.3f} "
            f"{self.work_unit}/{self.time_unit}, "
            f"ensemble bound {self.estimated_throughput:.3f}"
        )
        lines.append(f"{'est.':>8}  {'area':<14}  metric")
        for entry in self.top(count):
            lines.append(
                f"{entry.estimate:>8.3f}  {self.area_of(entry.metric):<14}  "
                f"{entry.metric}"
            )
        return "\n".join(lines)


def rank_agreement(
    spire_areas: Sequence[str], baseline_area: str, top_k: int | None = None
) -> float:
    """Fraction of SPIRE's top metric areas matching a baseline category.

    A simple scalar used by the agreement benchmark: of the areas of the
    top-``k`` SPIRE metrics, how many equal the baseline's dominant
    category.
    """
    areas = list(spire_areas[:top_k] if top_k else spire_areas)
    if not areas:
        raise EstimationError("no areas to compare")
    return sum(1 for area in areas if area == baseline_area) / len(areas)


def summarize_agreement(
    reports: Mapping[str, AnalysisReport],
    baseline_categories: Mapping[str, str],
    top_k: int = 10,
) -> list[dict]:
    """Per-workload agreement rows between SPIRE and a baseline classifier.

    ``agrees`` is :meth:`AnalysisReport.agrees_with`'s verdict.
    """
    rows = []
    for workload, report in reports.items():
        baseline = baseline_categories.get(workload, "?")
        spire_dominant = report.dominant_area(top_k)
        areas = [report.area_of(e.metric) for e in report.top(top_k)]
        rows.append(
            {
                "workload": workload,
                "spire_top_area": report.top_area,
                "spire_dominant_area": spire_dominant,
                "baseline_category": baseline,
                "agrees": report.agrees_with(baseline, top_k),
                "top_k_area_fraction": rank_agreement(areas, baseline),
            }
        )
    return rows
