"""Unit tests for the bottleneck analysis report."""

import pytest

from repro.core.analysis import (
    AnalysisReport,
    MetricEstimate,
    rank_agreement,
    summarize_agreement,
)
from repro.errors import EstimationError


def report(estimates, areas=None, measured=2.0):
    ranking = [
        MetricEstimate(metric=name, estimate=value)
        for name, value in sorted(estimates.items(), key=lambda kv: kv[1])
    ]
    return AnalysisReport(
        workload="wl",
        measured_throughput=measured,
        estimated_throughput=ranking[0].estimate,
        ranking=ranking,
        metric_areas=areas or {},
    )


class TestTopAndPool:
    def test_top_respects_count(self):
        r = report({"a": 1.0, "b": 2.0, "c": 3.0})
        assert [e.metric for e in r.top(2)] == ["a", "b"]

    def test_top_defaults_to_top_k(self):
        r = report({f"m{i}": float(i) for i in range(15)})
        assert len(r.top()) == 10

    def test_pool_includes_within_slack(self):
        r = report({"a": 1.0, "b": 1.1, "c": 2.0})
        pool = [e.metric for e in r.bottleneck_pool(slack=0.15)]
        assert pool == ["a", "b"]

    def test_pool_always_has_minimum(self):
        r = report({"a": 1.0, "b": 5.0})
        assert [e.metric for e in r.bottleneck_pool(slack=0.0)] == ["a"]

    def test_pool_negative_slack_rejected(self):
        r = report({"a": 1.0})
        with pytest.raises(EstimationError):
            r.bottleneck_pool(slack=-0.1)

    def test_pool_empty_ranking_rejected(self):
        r = AnalysisReport(
            workload="wl",
            measured_throughput=1.0,
            estimated_throughput=1.0,
            ranking=[],
        )
        with pytest.raises(EstimationError):
            r.bottleneck_pool()


class TestAreas:
    def test_area_votes(self):
        r = report(
            {"a": 1.0, "b": 1.1, "c": 1.2},
            areas={"a": "Core", "b": "Core", "c": "Memory"},
        )
        votes = r.area_votes(3)
        assert votes["Core"] == 2
        assert votes["Memory"] == 1

    def test_dominant_area(self):
        r = report(
            {"a": 1.0, "b": 1.1, "c": 1.2},
            areas={"a": "Core", "b": "Core", "c": "Memory"},
        )
        assert r.dominant_area(3) == "Core"

    def test_dominant_area_tie_breaks_by_rank(self):
        r = report(
            {"a": 1.0, "b": 1.1},
            areas={"a": "Memory", "b": "Core"},
        )
        assert r.dominant_area(2) == "Memory"

    def test_dominant_area_ignores_unmapped(self):
        r = report({"a": 1.0, "b": 1.1}, areas={"b": "Core"})
        assert r.dominant_area(2) == "Core"

    def test_dominant_area_all_unmapped(self):
        r = report({"a": 1.0})
        assert r.dominant_area(1) == "?"


class TestScalarsAndRender:
    def test_estimation_ratio(self):
        r = report({"a": 1.0}, measured=2.0)
        assert r.estimation_ratio == pytest.approx(0.5)

    def test_estimation_ratio_zero_measured(self):
        r = report({"a": 1.0}, measured=0.0)
        with pytest.raises(EstimationError):
            _ = r.estimation_ratio

    def test_render_contains_metrics_and_measured(self):
        r = report({"metric_one": 1.0}, areas={"metric_one": "Core"})
        text = r.render()
        assert "metric_one" in text
        assert "Core" in text
        assert "2.000" in text


class TestAgreement:
    def test_rank_agreement(self):
        assert rank_agreement(["Core", "Core", "Memory"], "Core") == pytest.approx(
            2 / 3
        )

    def test_rank_agreement_top_k(self):
        assert rank_agreement(["Core", "Memory"], "Core", top_k=1) == 1.0

    def test_rank_agreement_empty(self):
        with pytest.raises(EstimationError):
            rank_agreement([], "Core")

    def test_summarize_agreement(self):
        reports = {
            "wl": report(
                {"a": 1.0, "b": 1.1},
                areas={"a": "Core", "b": "Core"},
            )
        }
        rows = summarize_agreement(reports, {"wl": "Core"}, top_k=2)
        assert rows[0]["agrees"] is True
        assert rows[0]["top_k_area_fraction"] == 1.0

    def test_agrees_with_top_area_or_dominant_area(self):
        r = report(
            {"a": 1.0, "b": 1.1, "c": 1.2},
            areas={"a": "Memory", "b": "Core", "c": "Core"},
        )
        assert r.top_area == "Memory"
        assert r.dominant_area(3) == "Core"
        assert r.agrees_with("Memory", 3)
        assert r.agrees_with("Core", 3)
        assert not r.agrees_with("Core", 1)
        assert not r.agrees_with("Frontend", 3)
        rows = summarize_agreement({"wl": r}, {"wl": "Memory"}, top_k=3)
        assert rows[0]["agrees"] is True
        assert rows[0]["spire_top_area"] == "Memory"
        assert rows[0]["spire_dominant_area"] == "Core"

    def test_summarize_agreement_unknown_baseline(self):
        reports = {"wl": report({"a": 1.0}, areas={"a": "Core"})}
        rows = summarize_agreement(reports, {}, top_k=1)
        assert rows[0]["baseline_category"] == "?"
        assert rows[0]["agrees"] is False
