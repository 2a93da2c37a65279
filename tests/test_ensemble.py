"""Unit tests for the SPIRE ensemble (training, estimation, Figure 4)."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.ensemble import (
    SpireModel,
    TrainOptions,
    _segment_ordered_sums,
    mean_absolute_bound_violation,
)
from repro.core.roofline import fit_metric_roofline
from repro.core.sample import Sample, SampleSet
from repro.errors import EstimationError, FitError


def sample(metric, intensity, throughput, work=1000.0):
    return Sample(
        metric,
        time=work / throughput,
        work=work,
        metric_count=work / intensity,
    )


@pytest.fixture
def model(two_metric_sampleset):
    return SpireModel.train(two_metric_sampleset)


class TestTraining:
    def test_one_roofline_per_metric(self, model, two_metric_sampleset):
        assert sorted(model.metrics) == sorted(two_metric_sampleset.metrics())
        assert len(model) == 2

    def test_empty_training_rejected(self):
        with pytest.raises(FitError):
            SpireModel.train(SampleSet())

    def test_min_samples_per_metric_filter(self):
        samples = SampleSet(
            [sample("rich", i, 1.0) for i in range(1, 10)]
            + [sample("poor", 5, 1.0)]
        )
        model = SpireModel.train(samples, TrainOptions(min_samples_per_metric=3))
        assert "rich" in model
        assert "poor" not in model

    def test_all_metrics_filtered_rejected(self):
        samples = SampleSet([sample("only", 5, 1.0)])
        with pytest.raises(FitError, match="min_samples_per_metric"):
            SpireModel.train(samples, TrainOptions(min_samples_per_metric=5))

    def test_train_accepts_iterables(self):
        model = SpireModel.train([sample("m", i, 1.0) for i in range(1, 6)])
        assert "m" in model

    def test_invalid_options(self):
        with pytest.raises(FitError):
            TrainOptions(min_samples_per_metric=0)

    def test_mismatched_roofline_key_rejected(self):
        r = fit_metric_roofline([sample("real", 4, 1.0), sample("real", 8, 2.0)])
        with pytest.raises(FitError):
            SpireModel({"wrong": r})

    def test_roofline_lookup(self, model):
        assert model.roofline("stalls").metric == "stalls"
        with pytest.raises(EstimationError):
            model.roofline("missing")

    def test_repr_mentions_units(self, model):
        assert "instructions/cycles" in repr(model)


class TestEstimation:
    def test_minimum_of_per_metric_averages(self, model):
        workload = SampleSet(
            [sample("stalls", 50, 1.0), sample("dsb_uops", 50, 1.0)]
        )
        estimate = model.estimate(workload)
        assert estimate.throughput == min(estimate.per_metric.values())
        assert estimate.limiting_metric in estimate.per_metric

    def test_per_metric_uses_only_that_metrics_samples(self, model):
        workload = SampleSet([sample("stalls", 50, 1.0)])
        estimate = model.estimate(workload)
        assert set(estimate.per_metric) == {"stalls"}

    def test_unknown_metric_skipped_by_default(self, model):
        workload = SampleSet(
            [sample("stalls", 50, 1.0), sample("unknown", 5, 1.0)]
        )
        estimate = model.estimate(workload)
        assert estimate.skipped_metrics == ["unknown"]

    def test_unknown_metric_strict_raises(self, model):
        workload = SampleSet([sample("unknown", 5, 1.0)])
        with pytest.raises(EstimationError):
            model.estimate(workload, strict=True)

    def test_all_unknown_raises(self, model):
        workload = SampleSet([sample("unknown", 5, 1.0)])
        with pytest.raises(EstimationError, match="none of the sample metrics"):
            model.estimate(workload)

    def test_empty_raises(self, model):
        with pytest.raises(EstimationError):
            model.estimate(SampleSet())

    def test_ranked_ascending(self, model):
        workload = SampleSet(
            [sample("stalls", 2, 0.5), sample("dsb_uops", 100, 0.5)]
        )
        ranking = model.estimate(workload).ranked()
        values = [e.estimate for e in ranking]
        assert values == sorted(values)

    def test_sample_counts_recorded(self, model):
        workload = SampleSet(
            [sample("stalls", 2, 0.5), sample("stalls", 3, 0.5)]
        )
        estimate = model.estimate(workload)
        assert estimate.sample_counts["stalls"] == 2

    def test_training_data_never_violates_bound(self, model, two_metric_sampleset):
        assert mean_absolute_bound_violation(model, two_metric_sampleset) == 0.0

    def test_bound_violation_requires_overlap(self, model):
        other = SampleSet([sample("unknown", 2, 1.0)])
        with pytest.raises(EstimationError):
            mean_absolute_bound_violation(model, other)


class TestAnalyze:
    def test_analyze_report_fields(self, model):
        workload = SampleSet(
            [sample("stalls", 4, 1.2), sample("dsb_uops", 40, 1.2)]
        )
        report = model.analyze(
            workload, workload="wl", metric_areas={"stalls": "Core"}
        )
        assert report.workload == "wl"
        assert report.measured_throughput == pytest.approx(1.2)
        assert report.estimated_throughput == min(
            e.estimate for e in report.ranking
        )
        assert report.area_of("stalls") == "Core"
        assert report.area_of("dsb_uops") == "?"


class TestSerialization:
    def test_round_trip(self, model):
        clone = SpireModel.from_dict(model.to_dict())
        assert sorted(clone.metrics) == sorted(model.metrics)
        workload = SampleSet(
            [sample("stalls", 7, 1.0), sample("dsb_uops", 7, 1.0)]
        )
        assert clone.estimate(workload).throughput == pytest.approx(
            model.estimate(workload).throughput
        )


#: Finite floats plus the values whose sums are sign- and order-sensitive.
_TERMS = st.one_of(
    st.floats(allow_nan=False, width=64),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1e308]),
)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(0, 2),  # rows skipped before the segment
            st.one_of(
                st.lists(_TERMS, min_size=1, max_size=12),
                st.lists(st.just(-0.0), min_size=1, max_size=4),
            ),
        ),
        max_size=8,
    )
)
@example([(0, [-0.0])])
@example([(1, [-0.0, -0.0]), (0, [0.0]), (2, [math.inf, 1.0])])
def test_segment_ordered_sums_match_cumsum_bitwise(layout):
    values, starts, lengths = [], [], []
    for gap, segment in layout:
        values.extend([7.0] * gap)
        starts.append(len(values))
        lengths.append(len(segment))
        values.extend(segment)
    with np.errstate(all="ignore"):
        totals = _segment_ordered_sums(
            np.array(values, dtype=np.float64),
            np.array(starts, dtype=np.int64),
            np.array(lengths, dtype=np.int64),
        )
        expected = np.array(
            [np.cumsum(segment)[-1] for _, segment in layout], dtype=np.float64
        )
    assert totals.dtype == np.float64
    assert totals.view(np.int64).tolist() == expected.view(np.int64).tolist()
