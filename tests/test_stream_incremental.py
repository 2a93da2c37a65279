"""Stream-vs-batch parity for the streaming ensemble.

:class:`OnlineSpire` buffers each metric's points in arrival order and
refits a dirty metric with the batch fit over them, so an ensemble that
saw the samples one at a time — with refreshes interleaved anywhere —
serves exactly the roofline a batch :func:`fit_metric_roofline_arrays`
over the same arrays produces, field for field including retained
training points.  Hypothesis drives arbitrary insertion orders, apex
moves, ties, infinite intensities and refresh schedules against that
oracle; ``insert_array`` is held to row-by-row ``insert``.
"""

import math

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.columns import SampleArray
from repro.core.ensemble import TrainOptions
from repro.core.roofline import RooflineFitOptions, fit_metric_roofline_arrays
from repro.errors import DataError, FitError
from repro.stream.incremental import OnlineSpire

# A small value grid encourages ties, duplicates and apex churn far more
# often than uniform floats would.
_VALUES = st.one_of(
    st.sampled_from([1.0, 2.0, 4.0, 8.0, 100.0]),
    st.floats(min_value=1e-3, max_value=1e6, allow_nan=False, allow_infinity=False),
)


@st.composite
def raw_sample(draw):
    time = draw(_VALUES)
    work = draw(_VALUES)
    count = draw(st.one_of(st.just(0.0), _VALUES))
    return (time, work, count)


@st.composite
def stream_case(draw):
    samples = draw(st.lists(raw_sample(), min_size=1, max_size=50))
    # Refresh after each of these (0-based) insert positions.
    refreshes = draw(
        st.sets(st.integers(min_value=0, max_value=len(samples) - 1))
    )
    return samples, refreshes


def _batch_fit(samples, options):
    xs = np.asarray(
        [math.inf if c == 0 else w / c for (_, w, c) in samples],
        dtype=np.float64,
    )
    ys = np.asarray([w / t for (t, w, _) in samples], dtype=np.float64)
    return fit_metric_roofline_arrays("m", xs, ys, options=options.roofline)


def _run_stream(samples, refreshes, options):
    online = OnlineSpire(options=options)
    for i, (time, work, count) in enumerate(samples):
        online.insert("m", time=time, work=work, metric_count=count)
        if i in refreshes:
            online.refresh()
    online.refresh()
    return online


class TestBatchParity:
    @settings(max_examples=80, deadline=None)
    @given(stream_case())
    def test_incremental_equals_batch(self, case):
        samples, refreshes = case
        options = TrainOptions(min_samples_per_metric=1)
        online = _run_stream(samples, refreshes, options)
        got = online.roofline("m")
        expected = _batch_fit(samples, options)
        assert got.direction == expected.direction
        assert got.to_dict(include_training=True) == expected.to_dict(
            include_training=True
        )

    @settings(max_examples=40, deadline=None)
    @given(stream_case())
    def test_incremental_equals_batch_trend_mode(self, case):
        samples, refreshes = case
        options = TrainOptions(
            roofline=RooflineFitOptions(direction_mode="trend"),
            min_samples_per_metric=1,
        )
        online = _run_stream(samples, refreshes, options)
        got = online.roofline("m")
        expected = _batch_fit(samples, options)
        assert got.to_dict(include_training=True) == expected.to_dict(
            include_training=True
        )

    def test_apex_tie_prefers_smaller_intensity(self):
        options = TrainOptions(min_samples_per_metric=1)
        samples = [(1.0, 8.0, 2.0), (1.0, 8.0, 1.0), (1.0, 8.0, 4.0)]
        online = _run_stream(samples, set(), options)
        expected = _batch_fit(samples, options)
        assert online.roofline("m").apex == expected.apex
        assert online.roofline("m").apex.x == 2.0

    def test_all_infinite_intensities(self):
        options = TrainOptions(min_samples_per_metric=1)
        samples = [(1.0, 3.0, 0.0), (1.0, 7.0, 0.0)]
        online = _run_stream(samples, {0}, options)
        expected = _batch_fit(samples, options)
        assert online.roofline("m").to_dict(
            include_training=True
        ) == expected.to_dict(include_training=True)

    def test_insert_array_matches_row_by_row_insert(self):
        """Mixed metrics, zero counts included: same order, same fits."""
        records = [
            {"metric": "b", "time": 2.0, "work": 8.0, "metric_count": 2.0},
            {"metric": "a", "time": 1.0, "work": 4.0, "metric_count": 0.0},
            {"metric": "b", "time": 1.0, "work": 9.0, "metric_count": 3.0},
            {"metric": "c", "time": 4.0, "work": 2.0, "metric_count": 8.0},
            {"metric": "a", "time": 1.0, "work": 6.0, "metric_count": 1.0},
            {"metric": "b", "time": 1.0, "work": 1.0, "metric_count": 0.0},
            {"metric": "a", "time": 2.0, "work": 7.0, "metric_count": 7.0},
        ]
        options = TrainOptions(min_samples_per_metric=1)
        by_row = OnlineSpire(options=options)
        by_row.insert("c", time=1.0, work=1.0, metric_count=1.0)
        for r in records:
            by_row.insert(
                r["metric"], time=r["time"], work=r["work"],
                metric_count=r["metric_count"],
            )
        by_array = OnlineSpire(options=options)
        by_array.insert("c", time=1.0, work=1.0, metric_count=1.0)
        by_array.insert_array(SampleArray.from_records(records))
        assert by_array.metrics == by_row.metrics == ["c", "b", "a"]
        assert by_array.sample_count == by_row.sample_count == 8
        assert by_array.refresh() == by_row.refresh() == ["c", "b", "a"]
        for metric in by_row.metrics:
            assert by_array.roofline(metric).to_dict(
                include_training=True
            ) == by_row.roofline(metric).to_dict(include_training=True)


class TestValidation:
    def test_rejects_empty_metric(self):
        with pytest.raises(DataError):
            OnlineSpire().insert("", time=1.0, work=1.0, metric_count=1.0)

    @pytest.mark.parametrize("time", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_time(self, time):
        with pytest.raises(DataError):
            OnlineSpire().insert("m", time=time, work=1.0, metric_count=1.0)

    @pytest.mark.parametrize("work", [-1.0, math.inf, math.nan])
    def test_rejects_bad_work(self, work):
        with pytest.raises(DataError):
            OnlineSpire().insert("m", time=1.0, work=work, metric_count=1.0)

    @pytest.mark.parametrize("count", [-1.0, math.inf, math.nan])
    def test_rejects_bad_count(self, count):
        with pytest.raises(DataError):
            OnlineSpire().insert("m", time=1.0, work=1.0, metric_count=count)

    def test_starved_metric_withheld(self):
        online = OnlineSpire(options=TrainOptions(min_samples_per_metric=2))
        online.insert("m", time=1.0, work=4.0, metric_count=2.0)
        online.refresh()
        assert online.roofline("m") is None
        with pytest.raises(FitError):
            online.model()
        online.insert("m", time=1.0, work=8.0, metric_count=2.0)
        assert "m" in online.model().metrics

    def test_reset_metric_forgets_state(self):
        online = OnlineSpire(options=TrainOptions(min_samples_per_metric=1))
        online.insert("m", time=1.0, work=4.0, metric_count=2.0)
        online.refresh()
        online.insert("n", time=1.0, work=2.0, metric_count=1.0)
        online.reset_metric("m")
        assert online.metrics == ["n"]
        assert online.roofline("m") is None
        assert online.refresh() == ["n"]
        # A re-seeded metric fits from its new points alone.
        online.insert("m", time=1.0, work=9.0, metric_count=3.0)
        online.refresh()
        assert online.metrics == ["n", "m"]
        assert online.roofline("m").sample_count == 1
        assert online.roofline("m").apex.y == 9.0
