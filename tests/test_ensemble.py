"""Unit tests for the SPIRE ensemble (training, estimation, Figure 4)."""

import contextlib
import math
import os
from unittest import mock

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
from repro.core.roofline import MetricRoofline, fit_metric_roofline
from repro.core.sample import Sample, SampleSet
from repro.errors import EstimationError, FitError
from repro.fastpath import force_scalar
from repro.geometry.piecewise import Breakpoint, PiecewiseLinear


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

    @pytest.mark.parametrize("scalar", [False, True])
    def test_overflowing_bound_violation_raises(self, model, scalar):
        """Finite samples whose excesses overflow have no finite mean."""
        huge = SampleSet(
            Sample("stalls", time=1e-300, work=1.7e308, metric_count=1.0)
            for _ in range(2)
        )
        path = force_scalar() if scalar else contextlib.nullcontext()
        with path, pytest.raises(EstimationError, match="overflow"):
            mean_absolute_bound_violation(model, huge)


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


#: (metric, intensity, throughput, time) rows: "a" and "b" are trained,
#: "c" never is, and small grids make equal intensities common.
_ROWS = st.lists(
    st.tuples(
        st.sampled_from(["a", "b", "c"]),
        st.one_of(
            st.sampled_from([0.5, 2.0, 8.0, math.inf]),
            st.floats(min_value=1e-2, max_value=1e3),
        ),
        st.floats(min_value=1e-2, max_value=10.0),
        st.floats(min_value=1e-3, max_value=1e3),
    ),
    max_size=30,
)


def _samples(rows) -> SampleSet:
    return SampleSet(
        Sample(
            metric,
            time=time,
            work=throughput * time,
            metric_count=throughput * time / intensity,  # 0.0 when I_x is inf
        )
        for metric, intensity, throughput, time in rows
    )


def _bits(value: float) -> str:
    return float(value).hex()


def _ranking_bits(ranking, estimated, measured):
    return (
        [(e.metric, _bits(e.estimate), e.sample_count) for e in ranking],
        _bits(estimated),
        _bits(measured),
    )


def _outcome(run):
    try:
        return run()
    except EstimationError as error:
        return ("EstimationError", str(error))


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["a", "b"]),
            st.sampled_from([0.5, 2.0, 8.0, math.inf]),
            st.floats(min_value=1e-2, max_value=10.0),
            st.just(1.0),
        ),
        min_size=1,
        max_size=20,
    ),
    _ROWS,
    st.booleans(),
)
@example([("a", 2.0, 1.0, 1.0)], [("c", 2.0, 1.0, 1.0)], False)
@example([("a", 2.0, 1.0, 1.0)], [], True)
@example(  # one long segment whose pairwise and left-to-right sums differ
    [("a", 2.0, 1.0, 1.0), ("a", 8.0, 3.0, 1.0)],
    [("a", 0.5, 1.0, 1000.0)]
    + [("a", 0.5 + 0.1 * k, 1.0, 0.001 * (k + 1)) for k in range(16)]
    + [("b", 2.0, 1.0, 1.0)],
    False,
)
def test_analyze_is_the_per_metric_estimate_bitwise(training, rows, fallback):
    model = SpireModel.train(_samples(training), TrainOptions(min_samples_per_metric=1))
    samples = _samples(rows)

    def analyzed():
        report = model.analyze(samples, top_k=3)
        return _ranking_bits(
            report.ranking,
            report.estimated_throughput,
            report.measured_throughput,
        )

    def per_metric():
        estimate = model.estimate(samples)
        return _ranking_bits(
            estimate.ranked(), estimate.throughput, samples.measured_throughput()
        )

    flag = {"SPIRE_SCALAR_FALLBACK": "1" if fallback else "0"}
    with mock.patch.dict(os.environ, flag):
        assert _outcome(analyzed) == _outcome(per_metric)
        if not {metric for metric, *_ in rows} & set(model.metrics):
            assert _outcome(analyzed)[0] == "EstimationError"


#: (metric, throughput) rows bounded by a flat roofline at 1.0: one large
#: excess then many tiny ones, which a pairwise sum keeps and a left
#: fold rounds away.
_SKEWED = [("m", 5.0)] + [("m", 1.0 + 2.0**-52)] * 15 + [("n", 2.0), ("m", 3.0)]


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["m", "n", "uncovered"]),
            st.one_of(
                st.sampled_from([1.0, 1.0 + 2.0**-52, 5.0]),
                st.floats(min_value=1e-3, max_value=1e3),
            ),
        ),
        min_size=1,
        max_size=60,
    )
)
@example(_SKEWED)
def test_bound_violation_default_path_is_the_scalar_fold_bitwise(rows):
    flat = PiecewiseLinear([Breakpoint(0.0, 1.0)])
    model = SpireModel(
        {
            metric: MetricRoofline(
                metric=metric, function=flat, apex=flat.breakpoints[0],
                sample_count=1,
            )
            for metric in ("m", "n")
        }
    )
    samples = SampleSet(
        Sample(metric, time=1.0, work=throughput, metric_count=1.0)
        for metric, throughput in rows
    )

    def violation():
        return _bits(mean_absolute_bound_violation(model, samples))

    default = _outcome(violation)
    with force_scalar():
        scalar = _outcome(violation)
    assert default == scalar
