"""Unit tests for repro.geometry.piecewise."""

import math

import numpy as np
import pytest

from repro.geometry.piecewise import Breakpoint, PiecewiseLinear, merge_min


class TestConstruction:
    def test_single_breakpoint_is_constant(self):
        f = PiecewiseLinear([(2.0, 5.0)])
        assert f(0.0) == 5.0
        assert f(2.0) == 5.0
        assert f(100.0) == 5.0

    def test_empty_breakpoints_rejected(self):
        with pytest.raises(ValueError):
            PiecewiseLinear([])

    def test_unsorted_breakpoints_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            PiecewiseLinear([(2.0, 1.0), (1.0, 2.0)])

    def test_accepts_breakpoint_objects_and_tuples(self):
        f = PiecewiseLinear([Breakpoint(0.0, 0.0), (1.0, 2.0)])
        assert len(f) == 2

    def test_equal_x_breakpoints_allowed(self):
        f = PiecewiseLinear([(0.0, 0.0), (1.0, 4.0), (1.0, 2.0), (3.0, 1.0)])
        assert len(f) == 4

    def test_repr_contains_points(self):
        f = PiecewiseLinear([(0.0, 0.0), (1.5, 2.0)])
        assert "1.5" in repr(f)

    def test_equality(self):
        a = PiecewiseLinear([(0.0, 0.0), (1.0, 1.0)])
        b = PiecewiseLinear([(0.0, 0.0), (1.0, 1.0)])
        c = PiecewiseLinear([(0.0, 0.0), (1.0, 2.0)])
        assert a == b
        assert a != c
        assert a != "not a function"


class TestEvaluation:
    def test_linear_interpolation(self):
        f = PiecewiseLinear([(0.0, 0.0), (10.0, 20.0)])
        assert f(5.0) == pytest.approx(10.0)
        assert f(2.5) == pytest.approx(5.0)

    def test_constant_extension_left_and_right(self):
        f = PiecewiseLinear([(1.0, 3.0), (2.0, 7.0)])
        assert f(0.0) == 3.0
        assert f(-5.0) == 3.0
        assert f(3.0) == 7.0
        assert f(math.inf) == 7.0

    def test_exact_breakpoint_hit(self):
        f = PiecewiseLinear([(0.0, 0.0), (1.0, 5.0), (2.0, 3.0)])
        assert f(1.0) == 5.0

    def test_step_discontinuity_returns_lower_value(self):
        f = PiecewiseLinear([(0.0, 0.0), (1.0, 5.0), (1.0, 2.0), (2.0, 1.0)])
        assert f(1.0) == 2.0
        assert f(0.5) == pytest.approx(2.5)
        assert f(1.5) == pytest.approx(1.5)

    def test_nan_rejected(self):
        f = PiecewiseLinear([(0.0, 0.0), (1.0, 1.0)])
        with pytest.raises(ValueError, match="NaN"):
            f(math.nan)

    def test_evaluate_array(self):
        f = PiecewiseLinear([(0.0, 0.0), (2.0, 4.0)])
        assert f.evaluate_array(np.array([0.0, 1.0, 2.0])).tolist() == [0.0, 2.0, 4.0]

    def test_multi_segment(self):
        f = PiecewiseLinear([(0.0, 0.0), (1.0, 4.0), (3.0, 6.0), (5.0, 6.0)])
        assert f(0.5) == pytest.approx(2.0)
        assert f(2.0) == pytest.approx(5.0)
        assert f(4.0) == pytest.approx(6.0)


class TestGeometryHelpers:
    def test_slopes_skips_vertical_steps(self):
        f = PiecewiseLinear([(0.0, 0.0), (1.0, 4.0), (1.0, 2.0), (3.0, 0.0)])
        assert f.slopes() == pytest.approx([4.0, -1.0])

    def test_segments_count(self):
        f = PiecewiseLinear([(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)])
        assert len(f.segments()) == 2

    def test_is_upper_bound_true(self):
        f = PiecewiseLinear([(0.0, 0.0), (10.0, 10.0)])
        assert f.is_upper_bound_of([(5.0, 4.9), (10.0, 10.0)])

    def test_is_upper_bound_false(self):
        f = PiecewiseLinear([(0.0, 0.0), (10.0, 10.0)])
        assert not f.is_upper_bound_of([(5.0, 5.5)])

    def test_is_upper_bound_relative_tolerance(self):
        f = PiecewiseLinear([(0.0, 0.0), (10.0, 1e9)])
        # A violation far below the relative tolerance passes.
        assert f.is_upper_bound_of([(10.0, 1e9 * (1 + 1e-12))])

    def test_translated(self):
        f = PiecewiseLinear([(0.0, 0.0), (1.0, 1.0)]).translated(1.0, 2.0)
        assert f.breakpoints[0].as_tuple() == (1.0, 2.0)

    def test_scaled(self):
        f = PiecewiseLinear([(1.0, 2.0), (2.0, 4.0)]).scaled(2.0, 0.5)
        assert f.breakpoints[1].as_tuple() == (4.0, 2.0)

    def test_scaled_rejects_nonpositive_x(self):
        f = PiecewiseLinear([(0.0, 0.0), (1.0, 1.0)])
        with pytest.raises(ValueError):
            f.scaled(-1.0, 1.0)

    def test_x_bounds(self):
        f = PiecewiseLinear([(1.0, 2.0), (5.0, 4.0)])
        assert f.x_min == 1.0
        assert f.x_max == 5.0


class TestSerialization:
    def test_round_trip(self):
        f = PiecewiseLinear([(0.0, 0.0), (1.0, 5.0), (1.0, 2.0)])
        assert PiecewiseLinear.from_dict(f.to_dict()) == f


class TestMergeMin:
    def test_pointwise_minimum(self):
        a = PiecewiseLinear([(0.0, 0.0), (10.0, 10.0)])
        b = PiecewiseLinear([(0.0, 5.0), (10.0, 5.0)])
        assert merge_min([a, b], [0.0, 5.0, 10.0]) == [0.0, 5.0, 5.0]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            merge_min([], [1.0])
