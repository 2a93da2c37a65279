"""Property-based tests (hypothesis) for the fitting invariants.

These check the paper's §III-B/III-D guarantees on arbitrary sample
clouds: the fitted roofline always lies on or above its training samples,
its left region is increasing and concave-down, its right region is
decreasing, and ensemble estimation is the minimum of per-metric
time-weighted averages.
"""

import math

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ensemble import SpireModel
from repro.core.roofline import fit_metric_roofline
from repro.core.sample import Sample, SampleSet, time_weighted_average

finite_positive = st.floats(
    min_value=1e-3, max_value=1e6, allow_nan=False, allow_infinity=False
)


@st.composite
def sample_strategy(draw, metric="m"):
    work = draw(st.floats(min_value=1.0, max_value=1e6))
    time = draw(st.floats(min_value=1.0, max_value=1e6))
    # Mix of finite and zero metric counts (infinite intensity).
    count = draw(
        st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=1e6))
    )
    return Sample(metric, time=time, work=work, metric_count=count)


@st.composite
def sample_cloud(draw, min_size=1, max_size=60):
    return draw(st.lists(sample_strategy(), min_size=min_size, max_size=max_size))


@settings(max_examples=60, deadline=None)
@given(sample_cloud())
def test_roofline_is_upper_bound_of_training_data(samples):
    roofline = fit_metric_roofline(samples)
    for s in samples:
        bound = roofline.estimate(s.intensity)
        assert bound >= s.throughput - 1e-6 * max(1.0, s.throughput)


@settings(max_examples=60, deadline=None)
@given(sample_cloud())
def test_roofline_peak_is_apex(samples):
    roofline = fit_metric_roofline(samples)
    peak = max(bp.y for bp in roofline.function.breakpoints)
    best = max(s.throughput for s in samples)
    assert peak >= best - 1e-9 * max(1.0, best)


@settings(max_examples=60, deadline=None)
@given(sample_cloud())
def test_left_region_increasing_concave_down(samples):
    roofline = fit_metric_roofline(samples)
    apex_x = roofline.apex.x
    left = [bp for bp in roofline.function.breakpoints if bp.x <= apex_x]
    ys = [bp.y for bp in left]
    assert ys == sorted(ys)
    slopes = [
        (b.y - a.y) / (b.x - a.x) for a, b in zip(left, left[1:]) if b.x > a.x
    ]
    assert all(s2 <= s1 + 1e-9 for s1, s2 in zip(slopes, slopes[1:]))


@settings(max_examples=60, deadline=None)
@given(sample_cloud())
def test_right_region_non_increasing(samples):
    roofline = fit_metric_roofline(samples)
    apex_x = roofline.apex.x
    finite_points = [p for p in roofline.training_points if math.isfinite(p[0])]
    inf_levels = [y for x, y in roofline.training_points if math.isinf(x)]
    bps = [bp for bp in roofline.function.breakpoints if bp.x >= apex_x]
    ys = [bp.y for bp in bps]
    if inf_levels and finite_points and max(inf_levels) > max(
        y for _, y in finite_points
    ):
        # The documented corner case: an upward tail step to cover
        # infinite-intensity samples that beat every finite one.
        ys = ys[:-1]
    assert all(b <= a + 1e-9 for a, b in zip(ys, ys[1:]))


@settings(max_examples=60, deadline=None)
@given(sample_cloud())
def test_estimate_is_monotone_none_above_apex_value(samples):
    roofline = fit_metric_roofline(samples)
    apex_value = roofline.apex.y
    tail = roofline.function.breakpoints[-1].y
    limit = max(apex_value, tail)
    for intensity in (0.0, 0.1, 1.0, 10.0, 1e3, 1e9, math.inf):
        assert roofline.estimate(intensity) <= limit + 1e-9 * max(1.0, limit)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(sample_strategy(metric="a"), min_size=2, max_size=30),
    st.lists(sample_strategy(metric="b"), min_size=2, max_size=30),
)
def test_ensemble_estimate_is_min_of_metrics(a_samples, b_samples):
    training = SampleSet(a_samples + b_samples)
    model = SpireModel.train(training)
    estimate = model.estimate(training)
    assert estimate.throughput == min(estimate.per_metric.values())
    for metric, value in estimate.per_metric.items():
        group = training.for_metric(metric)
        expected = time_weighted_average(
            [model.roofline(metric).estimate(s.intensity) for s in group],
            [s.time for s in group],
        )
        assert value == expected


@settings(max_examples=40, deadline=None)
@given(sample_cloud(min_size=2))
def test_serialization_preserves_estimates(samples):
    roofline = fit_metric_roofline(samples)
    from repro.core.roofline import MetricRoofline

    clone = MetricRoofline.from_dict(roofline.to_dict())
    for s in samples[:10]:
        assert clone.estimate(s.intensity) == roofline.estimate(s.intensity)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=1.0, max_value=100.0),
            st.floats(min_value=0.1, max_value=4.9),
        ),
        min_size=0,
        max_size=7,
    ),
    st.lists(st.floats(min_value=0.1, max_value=5.0), min_size=0, max_size=4),
)
def test_right_fit_matches_exhaustive_optimum(points, infinite_levels):
    """Dijkstra over the segment graph finds the globally optimal valid fit
    (verified against brute force over all Pareto-subset chains), with
    infinite-intensity samples weighing on the flat tail."""
    from itertools import combinations

    from repro.core.right_fit import fit_right_region
    from repro.geometry.pareto import pareto_front

    apex = (1.0, 5.0)
    result = fit_right_region(points, apex, infinite_throughputs=infinite_levels)

    front = pareto_front(list(points) + [apex])
    last = len(front) - 1
    apex_y = front[last][1]
    # The flat tail is the fit at infinite intensity: it must cover every
    # infinite-intensity sample.
    top = max(infinite_levels, default=-math.inf)
    tail_floor = top - 1e-12 * max(1.0, abs(top))

    def chain_error(subset):
        level = front[subset[0]][1]
        if level < tail_floor:
            return None
        error = sum((level - front[k][1]) ** 2 for k in range(subset[0]))
        error += sum((level - p) ** 2 for p in infinite_levels)
        previous_slope = 0.0
        for a, b in zip(subset, subset[1:]):
            (ax, ay), (bx, by) = front[a], front[b]
            slope = (by - ay) / (bx - ax)
            if slope > previous_slope + 1e-12:
                return None
            for k in range(a + 1, b):
                value = ay + (front[k][0] - ax) * slope
                gap = value - front[k][1]
                if gap < -1e-9:
                    return None
                error += gap**2
            previous_slope = slope
        reached = subset[-1]
        error += sum(
            (apex_y - front[k][1]) ** 2 for k in range(reached + 1, last)
        )
        return error

    best = min(
        (
            error
            for r in range(1, len(front) + 1)
            for subset in combinations(range(len(front)), r)
            if (error := chain_error(subset)) is not None
        ),
        default=0.0,
    )
    assert result.total_error == pytest.approx(best, abs=1e-6)
