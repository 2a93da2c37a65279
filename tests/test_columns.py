"""The columnar sample container: SampleArray and its SampleSet bridge."""

import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.columns import (
    SampleArray,
    as_sample_array,
    infinite_intensity_mask,
    time_weighted_mean,
)
from repro.core.sample import Sample, SampleSet, time_weighted_average
from repro.errors import DataError


def make_samples():
    return [
        Sample("a", time=2.0, work=8.0, metric_count=4.0),
        Sample("b", time=1.0, work=3.0, metric_count=0.0),
        Sample("a", time=4.0, work=4.0, metric_count=1.0),
        Sample("c", time=1.0, work=0.0, metric_count=2.0),
    ]


def test_from_samples_round_trip_is_lossless():
    samples = make_samples()
    array = SampleArray.from_samples(samples)
    assert len(array) == 4
    again = list(array.iter_samples())
    assert again == samples
    assert array.to_sample_set().to_records() == [s.to_dict() for s in samples]


def test_metric_interning_preserves_first_seen_order():
    array = SampleArray.from_samples(make_samples())
    assert array.metric_names == ("a", "b", "c")
    assert array.metrics() == ["a", "b", "c"]
    assert array.metric_ids.tolist() == [0, 1, 0, 2]


def _interned_by_loop(metrics):
    """Metric interning as one row at a time: first-seen ids."""
    table = {}
    ids = []
    for name in metrics:
        if name not in table:
            table[name] = len(table)
        ids.append(table[name])
    return ids, tuple(table)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.sampled_from(["a", "b", "c", "l1d.miss", ""]), max_size=40))
def test_from_lists_interns_names_first_seen(metrics):
    n = len(metrics)
    array = SampleArray.from_lists(metrics, [1.0] * n, [1.0] * n, [1.0] * n)
    ids, names = _interned_by_loop(metrics)
    assert array.metric_ids.dtype == np.int64
    assert array.metric_ids.tolist() == ids
    assert array.metric_names == names


def test_from_lists_rejects_unhashable_names():
    with pytest.raises(TypeError):
        SampleArray.from_lists(["a", ["b"]], [1.0, 1.0], [1.0, 1.0], [1.0, 1.0])


def test_derived_columns_match_sample_properties():
    samples = make_samples()
    array = SampleArray.from_samples(samples)
    for row, sample in enumerate(samples):
        assert array.throughput[row] == sample.throughput
        assert array.intensity[row] == sample.intensity
    assert array.finite_intensity_mask.tolist() == [True, False, True, True]
    assert infinite_intensity_mask(array.metric_count).tolist() == [
        False,
        True,
        False,
        False,
    ]


def test_group_indices_and_for_metric():
    array = SampleArray.from_samples(make_samples())
    groups = array.group_indices()
    assert list(groups) == ["a", "b", "c"]
    assert groups["a"].tolist() == [0, 2]
    sub = array.for_metric("a")
    assert sub.time.tolist() == [2.0, 4.0]
    assert sub.metric_names[int(sub.metric_ids[0])] == "a"


@settings(max_examples=120, deadline=None)
@given(
    names=st.lists(
        st.sampled_from(["a", "b", "c", "l1d.miss", "unused"]),
        min_size=1, max_size=5, unique=True,
    ),
    picks=st.one_of(
        st.lists(st.integers(0, 4), max_size=60),
        st.lists(st.just(0), min_size=1, max_size=8),
    ),
)
def test_group_indices_match_grouped(names, picks):
    """Empty, one-metric and interleaved id columns, over a name table
    that may hold names no row uses: the keys, key order and rows of
    ``SampleSet.grouped()`` on the same rows, each group ascending."""
    ids = [pick % len(names) for pick in picks]
    n = len(ids)
    # Row i has time i + 1, so each sample names its row.
    array = SampleArray(ids, names, np.arange(1.0, n + 1), [1.0] * n,
                        [1.0] * n)
    groups = array.group_indices()
    expected = SampleSet(array.iter_samples()).grouped()
    assert list(groups) == list(expected)
    for metric, rows in groups.items():
        assert rows.tolist() == [int(s.time) - 1 for s in expected[metric]]
        assert np.all(np.diff(rows) > 0)


def test_select_and_concat_round_trip():
    array = SampleArray.from_samples(make_samples())
    front = array.select(np.array([0, 1]))
    back = array.select(np.array([2, 3]))
    merged = SampleArray.concat([front, back])
    assert list(merged.iter_samples()) == make_samples()


def test_total_time_and_measured_throughput_match_scalar():
    samples = make_samples()
    array = SampleArray.from_samples(samples)
    sample_set = SampleSet(samples)
    assert array.total_time() == sample_set.total_time()
    assert array.measured_throughput() == sample_set.measured_throughput()


def test_time_weighted_mean_matches_scalar_exactly():
    values = [1.0, 1.0 / 3.0, 2.0 / 7.0, 5.0]
    times = [3.0, 1.0 / 9.0, 2.0, 0.5]
    expected = time_weighted_average(values, times)
    assert time_weighted_mean(np.array(values), np.array(times)) == expected


def test_from_records_missing_field_raises_data_error():
    with pytest.raises(DataError, match="missing field"):
        SampleArray.from_records([{"metric": "a", "time": 1.0, "work": 1.0}])


def test_from_records_invalid_value_raises_like_sample():
    records = [{"metric": "a", "time": -1.0, "work": 1.0, "metric_count": 1.0}]
    with pytest.raises(DataError) as vectorized:
        SampleArray.from_records(records)
    with pytest.raises(DataError) as scalar:
        Sample.from_dict(records[0])
    assert str(vectorized.value) == str(scalar.value)


def test_from_records_without_validation_admits_dirty_rows():
    records = [
        {"metric": "a", "time": "bogus", "work": 1.0, "metric_count": 1.0},
        {"metric": "a", "time": 2.0, "work": 4.0, "metric_count": 1.0},
    ]
    array = SampleArray.from_records(records, validate=False)
    assert math.isnan(array.time[0])
    assert array.time[1] == 2.0


def test_validate_reports_first_offending_row():
    array = SampleArray.from_lists(
        ["a", "a"], [1.0, float("nan")], [1.0, 1.0], [1.0, 1.0]
    )
    with pytest.raises(DataError) as vectorized:
        array.validate()
    with pytest.raises(DataError) as scalar:
        Sample("a", time=float("nan"), work=1.0, metric_count=1.0)
    assert str(vectorized.value) == str(scalar.value)


def test_pickle_round_trip():
    array = SampleArray.from_samples(make_samples())
    clone = pickle.loads(pickle.dumps(array))
    assert list(clone.iter_samples()) == make_samples()
    assert clone.metric_names == array.metric_names


def test_empty_array():
    array = SampleArray.empty()
    assert len(array) == 0
    assert array.metrics() == []
    assert array.total_time() == 0.0
    assert len(SampleArray.concat([])) == 0


def test_as_sample_array_accepts_sets_lists_and_arrays():
    samples = make_samples()
    from_list = as_sample_array(samples)
    from_set = as_sample_array(SampleSet(samples))
    assert list(from_list.iter_samples()) == samples
    assert list(from_set.iter_samples()) == samples
    assert as_sample_array(from_list) is from_list


def test_sample_set_from_columns_is_lazy_and_lossless():
    samples = make_samples()
    array = SampleArray.from_samples(samples)
    lazy = SampleSet.from_columns(array)
    # Aggregates come straight from the columns...
    assert len(lazy) == len(samples)
    assert lazy.metrics() == ["a", "b", "c"]
    assert lazy.total_time() == SampleSet(samples).total_time()
    # ...and materialization on demand reproduces the objects.
    assert list(lazy) == samples


def test_sample_set_grouped_is_cached():
    sample_set = SampleSet(make_samples())
    first = sample_set.grouped()
    # The per-metric lists are computed once and shared across calls...
    assert sample_set.grouped()["a"] is first["a"]
    # ...and the cache is invalidated by mutation.
    sample_set.add(Sample("d", time=1.0, work=1.0, metric_count=1.0))
    assert "d" in sample_set.grouped()
