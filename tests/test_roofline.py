"""Unit tests for MetricRoofline fitting and estimation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.columns import SampleArray
from repro.core.roofline import (
    MetricRoofline,
    RooflineFitOptions,
    fit_metric_roofline,
    fit_metric_roofline_arrays,
)
from repro.core.sample import Sample
from repro.errors import FitError
from repro.fastpath import force_scalar


def sample(metric, intensity, throughput, work=1000.0, time_scale=1.0):
    if math.isinf(intensity):
        count = 0.0
    else:
        count = work / intensity
    return Sample(
        metric,
        time=time_scale * work / throughput,
        work=work,
        metric_count=count,
    )


class TestFitting:
    def test_empty_rejected(self):
        with pytest.raises(FitError):
            fit_metric_roofline([])

    def test_mixed_metrics_rejected(self):
        with pytest.raises(FitError, match="mixed metrics"):
            fit_metric_roofline([sample("a", 1, 1), sample("b", 1, 1)])

    def test_apex_is_highest_throughput_sample(self):
        r = fit_metric_roofline(
            [sample("m", 2, 1.0), sample("m", 5, 3.0), sample("m", 9, 2.0)]
        )
        assert (r.apex.x, r.apex.y) == (5.0, 3.0)

    def test_apex_tie_breaks_left(self):
        r = fit_metric_roofline([sample("m", 2, 3.0), sample("m", 6, 3.0)])
        assert r.apex.x == pytest.approx(2.0)

    def test_upper_bound_invariant(self):
        samples = [
            sample("m", i, t)
            for i, t in [(1, 0.5), (2, 1.4), (4, 2.0), (8, 1.5), (16, 1.0), (3, 0.2)]
        ]
        r = fit_metric_roofline(samples)
        assert r.is_upper_bound_of_training_data()

    def test_function_starts_at_origin(self):
        r = fit_metric_roofline([sample("m", 4, 2.0)])
        assert r.function(0.0) == 0.0

    def test_only_infinite_samples_constant_fit(self):
        r = fit_metric_roofline(
            [sample("m", math.inf, 1.5), sample("m", math.inf, 2.5)]
        )
        assert r.estimate(0.0) == 2.5
        assert r.estimate(math.inf) == 2.5
        assert r.infinite_sample_count == 2

    def test_infinite_samples_above_apex_raise_tail(self):
        r = fit_metric_roofline(
            [sample("m", 4, 2.0), sample("m", math.inf, 3.0)]
        )
        assert r.estimate(math.inf) == pytest.approx(3.0)
        assert r.is_upper_bound_of_training_data()

    def test_keep_samples_off(self):
        opts = RooflineFitOptions(keep_samples=False)
        r = fit_metric_roofline([sample("m", 4, 2.0)], options=opts)
        assert r.training_points == []

    def test_right_fit_diagnostics_attached(self):
        r = fit_metric_roofline([sample("m", 4, 2.0), sample("m", 9, 1.0)])
        assert r.right_fit is not None
        assert r.right_fit.front


class TestEstimation:
    @pytest.fixture
    def roofline(self):
        return fit_metric_roofline(
            [
                sample("m", 1, 0.8),
                sample("m", 4, 2.0),
                sample("m", 10, 1.5),
                sample("m", 30, 1.0),
            ]
        )

    def test_estimate_at_apex(self, roofline):
        assert roofline.estimate(4.0) == pytest.approx(2.0)

    def test_estimate_interpolates_left(self, roofline):
        assert 0.8 <= roofline.estimate(2.0) <= 2.0

    def test_estimate_beyond_data_is_flat(self, roofline):
        assert roofline.estimate(1000.0) == roofline.estimate(30.0)

    def test_estimate_at_infinity(self, roofline):
        assert roofline.estimate(math.inf) == roofline.estimate(1e12)

    def test_negative_intensity_rejected(self, roofline):
        with pytest.raises(FitError):
            roofline.estimate(-1.0)

    def test_nan_rejected(self, roofline):
        with pytest.raises(FitError):
            roofline.estimate(math.nan)

    def test_estimate_sample_checks_metric(self, roofline):
        with pytest.raises(FitError, match="does not match"):
            roofline.estimate_sample(sample("other", 4, 1.0))

    def test_estimate_samples_is_time_weighted(self, roofline):
        # Two samples at different intensities with very different period
        # lengths: the long one dominates.
        short = sample("m", 4, 2.0)                     # est ~2.0, T=500
        long = sample("m", 30, 1.0, time_scale=100.0)   # est ~1.0, T=100000
        merged = roofline.estimate_samples([short, long])
        assert merged == pytest.approx(
            (short.time * roofline.estimate_sample(short)
             + long.time * roofline.estimate_sample(long))
            / (short.time + long.time)
        )
        assert merged < 1.1  # pulled toward the long sample

    def test_estimate_samples_empty_rejected(self, roofline):
        with pytest.raises(FitError):
            roofline.estimate_samples([])


class TestSerialization:
    def test_round_trip_estimates_match(self):
        r = fit_metric_roofline(
            [sample("m", 1, 0.8), sample("m", 4, 2.0), sample("m", 30, 1.0)]
        )
        again = MetricRoofline.from_dict(r.to_dict())
        for intensity in (0.5, 2.0, 4.0, 10.0, 100.0, math.inf):
            assert again.estimate(intensity) == pytest.approx(r.estimate(intensity))
        assert again.sample_count == r.sample_count


#: (I_x, P) points of one metric; ``inf`` is a period the metric never fired.
_POINTS = st.lists(
    st.tuples(
        st.one_of(
            st.just(math.inf),
            st.sampled_from([0.5, 1.0, 2.0, 8.0]),
            st.floats(min_value=1e-3, max_value=1e6),
        ),
        st.floats(min_value=1e-3, max_value=1e3),
    ),
    min_size=1,
    max_size=30,
)


class TestTrainingColumns:
    """The retained training samples are two columns the roofline owns."""

    @staticmethod
    def fits(points, keep_samples=True):
        """``{path: (roofline, the points it was fit on)}`` for one fit on
        the columnar, sample-list and scalar paths."""
        options = RooflineFitOptions(keep_samples=keep_samples)
        x = np.array([p[0] for p in points])
        y = np.array([p[1] for p in points])
        samples = [sample("m", px, py) for px, py in points]
        as_points = [s.as_point() for s in samples]
        fitted = {
            "arrays": (fit_metric_roofline_arrays("m", x, y, options), points),
            "samples": (fit_metric_roofline(samples, options), as_points),
        }
        with force_scalar():
            fitted["scalar"] = (fit_metric_roofline(samples, options), as_points)
        return fitted

    @settings(max_examples=60, deadline=None)
    @given(_POINTS, st.booleans())
    def test_points_are_the_columns_and_serialize_as_before(
        self, points, keep_samples
    ):
        for path, (roofline, fit_on) in self.fits(points, keep_samples).items():
            expected = list(fit_on) if keep_samples else []
            x, y = roofline.training_columns
            assert x.dtype == y.dtype == np.float64, path
            assert roofline.training_points == list(zip(x.tolist(), y.tolist()))
            assert roofline.training_points == expected, path
            payload = roofline.to_dict(include_training=True)
            assert payload["training_points"] == [list(p) for p in expected]
            assert "training_points" not in roofline.to_dict()
            again = MetricRoofline.from_dict(payload)
            assert again.training_points == expected, path
            assert again.to_dict(include_training=True) == payload, path
            assert not MetricRoofline.from_dict(
                roofline.to_dict()
            ).training_points

    def test_infinite_intensities_are_kept(self):
        points = [(math.inf, 1.5), (4.0, 2.0), (math.inf, 3.0)]
        for roofline, _ in self.fits(points).values():
            assert roofline.training_points == points
            assert roofline.is_upper_bound_of_training_data()

    def test_columns_are_read_only(self):
        rooflines = [r for r, _ in self.fits([(1.0, 0.5), (4.0, 2.0)]).values()]
        rooflines.append(
            MetricRoofline.from_dict(rooflines[0].to_dict(include_training=True))
        )
        for roofline in rooflines:
            for column in roofline.training_columns:
                with pytest.raises(ValueError):
                    column[0] = 99.0

    def test_writing_the_callers_arrays_changes_nothing(self):
        x = np.array([1.0, 4.0, math.inf])
        y = np.array([0.5, 2.0, 1.0])
        roofline = fit_metric_roofline_arrays("m", x, y)
        array = SampleArray.from_samples(
            [sample("m", 1.0, 0.5), sample("m", 4.0, 2.0)]
        )
        from_array = fit_metric_roofline(array)
        before = (roofline.training_points, from_array.training_points)
        x[:] = 7.0
        y[:] = 7.0
        array.intensity[:] = 7.0
        array.throughput[:] = 7.0
        assert (roofline.training_points, from_array.training_points) == before
        assert before[0] == [(1.0, 0.5), (4.0, 2.0), (math.inf, 1.0)]

    def test_columns_are_left_out_of_comparison(self):
        kept, _ = self.fits([(1.0, 0.5), (4.0, 2.0)])["arrays"]
        bare, _ = self.fits([(1.0, 0.5), (4.0, 2.0)], False)["arrays"]
        assert kept == bare
        assert "training_columns" not in repr(kept)
