"""Unit tests for Sample / SampleSet / time-weighted averaging."""

import builtins
import functools
import math
import operator

import pytest

from repro.core.columns import SampleArray, time_weighted_mean
from repro.core.sample import Sample, SampleSet, time_weighted_average
from repro.fastpath import force_scalar
from repro.errors import DataError


class TestSample:
    def test_throughput_and_intensity(self):
        s = Sample("stalls", time=100.0, work=250.0, metric_count=50.0)
        assert s.throughput == pytest.approx(2.5)
        assert s.intensity == pytest.approx(5.0)

    def test_zero_metric_count_gives_infinite_intensity(self):
        s = Sample("stalls", time=10.0, work=5.0, metric_count=0.0)
        assert math.isinf(s.intensity)
        assert not s.has_finite_intensity

    def test_as_point(self):
        s = Sample("m", time=10.0, work=20.0, metric_count=4.0)
        assert s.as_point() == (5.0, 2.0)

    def test_zero_work_allowed(self):
        s = Sample("m", time=10.0, work=0.0, metric_count=4.0)
        assert s.throughput == 0.0
        assert s.intensity == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(time=0.0, work=1.0, metric_count=1.0),
            dict(time=-1.0, work=1.0, metric_count=1.0),
            dict(time=1.0, work=-1.0, metric_count=1.0),
            dict(time=1.0, work=1.0, metric_count=-1.0),
            dict(time=math.nan, work=1.0, metric_count=1.0),
            dict(time=1.0, work=math.inf, metric_count=1.0),
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(DataError):
            Sample("m", **kwargs)

    def test_empty_metric_rejected(self):
        with pytest.raises(DataError):
            Sample("", time=1.0, work=1.0, metric_count=1.0)

    def test_dict_round_trip(self):
        s = Sample("m", time=1.5, work=2.5, metric_count=3.5)
        assert Sample.from_dict(s.to_dict()) == s

    def test_from_dict_missing_field(self):
        with pytest.raises(DataError, match="missing"):
            Sample.from_dict({"metric": "m", "time": 1.0})


class TestSampleSet:
    def test_grouping(self):
        ss = SampleSet(
            [
                Sample("a", 1.0, 1.0, 1.0),
                Sample("b", 1.0, 1.0, 1.0),
                Sample("a", 2.0, 2.0, 2.0),
            ]
        )
        assert ss.metrics() == ["a", "b"]
        assert len(ss.for_metric("a")) == 2
        assert len(ss.for_metric("missing")) == 0

    def test_len_bool_iter(self):
        ss = SampleSet()
        assert not ss
        ss.add(Sample("a", 1.0, 1.0, 1.0))
        assert ss and len(ss) == 1
        assert [s.metric for s in ss] == ["a"]

    def test_add_rejects_non_samples(self):
        ss = SampleSet()
        with pytest.raises(DataError):
            ss.add("not a sample")

    def test_filtered(self):
        ss = SampleSet([Sample("a", 1.0, 1.0, 1.0), Sample("a", 1.0, 9.0, 1.0)])
        high = ss.filtered(lambda s: s.work > 5)
        assert len(high) == 1

    def test_restricted_to(self):
        ss = SampleSet([Sample("a", 1.0, 1.0, 1.0), Sample("b", 1.0, 1.0, 1.0)])
        assert ss.restricted_to(["b"]).metrics() == ["b"]

    def test_merged_with(self):
        a = SampleSet([Sample("a", 1.0, 1.0, 1.0)])
        b = SampleSet([Sample("b", 1.0, 1.0, 1.0)])
        merged = a.merged_with(b)
        assert len(merged) == 2
        assert len(a) == 1  # original untouched

    def test_total_time(self):
        ss = SampleSet([Sample("a", 2.0, 1.0, 1.0), Sample("b", 3.0, 1.0, 1.0)])
        assert ss.total_time() == 5.0
        assert ss.total_time("a") == 2.0

    def test_measured_throughput(self):
        ss = SampleSet([Sample("a", 2.0, 4.0, 1.0), Sample("a", 2.0, 2.0, 1.0)])
        assert ss.measured_throughput() == pytest.approx(1.5)

    def test_measured_throughput_empty_raises(self):
        with pytest.raises(DataError):
            SampleSet().measured_throughput()

    def test_records_round_trip(self):
        ss = SampleSet([Sample("a", 1.0, 2.0, 3.0)])
        again = SampleSet.from_records(ss.to_records())
        assert list(again)[0] == list(ss)[0]

    def test_repr(self):
        ss = SampleSet([Sample("a", 1.0, 1.0, 1.0)])
        assert "1 samples" in repr(ss)


class TestTimeWeightedAverage:
    def test_eq1(self):
        # P̄ = Σ T P / Σ T with explicit numbers.
        assert time_weighted_average([2.0, 4.0], [1.0, 3.0]) == pytest.approx(3.5)

    def test_equal_weights_is_mean(self):
        assert time_weighted_average([1.0, 2.0, 3.0], [5.0, 5.0, 5.0]) == 2.0

    def test_single_value(self):
        assert time_weighted_average([7.0], [2.0]) == 7.0

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            time_weighted_average([1.0], [1.0, 2.0])

    def test_empty(self):
        with pytest.raises(DataError):
            time_weighted_average([], [])

    def test_zero_total_time(self):
        with pytest.raises(DataError):
            time_weighted_average([1.0], [0.0])


def _compensated_sum(iterable, /, start=0):
    """CPython 3.12's ``sum()``: an exact integer phase, then Neumaier
    compensation over floats, with the compensation added at the end
    only when it is non-zero and finite."""
    items = iter(iterable)
    total = start
    if type(total) is int:
        for item in items:
            total = total + item
            if type(item) not in (int, bool):
                break
    if type(total) is float:
        compensation = 0.0
        for item in items:
            if type(item) is float:
                step = total + item
                if abs(total) >= abs(item):
                    compensation += (total - step) + item
                else:
                    compensation += (item - step) + total
                total = step
            elif type(item) in (int, bool):
                total += float(item)
            else:
                total = total + item
                break
        else:
            if compensation and math.isfinite(compensation):
                total += compensation
            return total
    for item in items:
        total = total + item
    return total


class TestLeftToRightSums:
    """The scalar references add left to right whatever ``sum()`` does:
    their ``np.cumsum`` twins do, and the golden digests pin both."""

    TIMES = [1.0] + [1e-16] * 10 + [3.0]

    @pytest.fixture
    def compensated(self, monkeypatch):
        monkeypatch.setattr(builtins, "sum", _compensated_sum)

    def test_the_emulation_compensates(self):
        assert _compensated_sum(self.TIMES) != functools.reduce(
            operator.add, self.TIMES, 0
        )
        assert _compensated_sum([1, 2]) == 3
        assert _compensated_sum([[1], [2]], []) == [1, 2]

    def test_scalar_references_match_their_array_twins(self, compensated):
        values = [float(i % 3 + 1) for i in range(len(self.TIMES))]
        assert time_weighted_average(values, self.TIMES) == time_weighted_mean(
            values, self.TIMES
        )
        samples = [
            Sample("m", time=t, work=2.0 * t + 1e-16, metric_count=1.0)
            for t in self.TIMES
        ]
        objects = SampleSet(samples)
        columns = SampleSet.from_columns(SampleArray.from_samples(samples))
        assert objects.total_time() == columns.total_time()
        assert objects.total_time("m") == columns.total_time("m")
        assert objects.measured_throughput() == columns.measured_throughput()

    def test_oracle_sums_fold_left(self, compensated):
        from repro.core.ensemble import SpireModel, mean_absolute_bound_violation
        from repro.core.right_fit import _flat_tail_error

        # Squared gaps of 1 and 1e-16 to the tail level 0.
        levels = [1.0] + [1e-8] * 10
        front = [(float(i), y) for i, y in enumerate(levels + [0.0])]
        expected = 0
        for y in levels:
            expected += y * y
        assert _flat_tail_error(front, len(levels), []) == expected
        assert _flat_tail_error([(0.0, 0.0)], 0, levels) == expected

        model = SpireModel.train(
            SampleSet(
                Sample("m", time=1.0, work=x, metric_count=1.0)
                for x in (1.0, 2.0)
            )
        )
        above = SampleSet(
            Sample("m", time=1.0, work=2.0 + excess, metric_count=1.0)
            for excess in self.TIMES
        )
        with force_scalar():
            result = mean_absolute_bound_violation(model, above)
        bound = model.roofline("m").estimate(2.0)
        violations = 0
        for excess in self.TIMES:
            violations += max(0.0, 2.0 + excess - bound)
        assert result == violations / len(self.TIMES)
