"""Unit tests for dataset and model persistence."""

import json

import pytest

from repro.core.ensemble import SpireModel
from repro.core.sample import Sample, SampleSet
from repro.errors import DataError
from repro.io import (
    load_model,
    load_samples_csv,
    load_samples_json,
    save_model,
    save_samples_csv,
    save_samples_json,
)


@pytest.fixture
def samples():
    return SampleSet(
        [
            Sample("a", 1.0, 2.0, 3.0),
            Sample("b", 4.0, 5.0, 0.0),
        ]
    )


class TestCsv:
    def test_round_trip(self, samples, tmp_path):
        path = save_samples_csv(samples, tmp_path / "s.csv")
        loaded = load_samples_csv(path)
        assert loaded.to_records() == samples.to_records()

    def test_header_written(self, samples, tmp_path):
        path = save_samples_csv(samples, tmp_path / "s.csv")
        assert path.read_text().splitlines()[0] == "metric,time,work,metric_count"

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="does not exist"):
            load_samples_csv(tmp_path / "nope.csv")

    def test_missing_columns(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("metric,time\na,1\n")
        with pytest.raises(DataError, match="missing CSV columns"):
            load_samples_csv(path)

    def test_bad_value(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("metric,time,work,metric_count\na,notanumber,1,1\n")
        with pytest.raises(DataError, match="bad.csv:2"):
            load_samples_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("metric,time,work,metric_count\n")
        with pytest.raises(DataError, match="no samples"):
            load_samples_csv(path)

    def test_creates_parent_dirs(self, samples, tmp_path):
        path = save_samples_csv(samples, tmp_path / "deep" / "dir" / "s.csv")
        assert path.exists()


class TestJson:
    def test_round_trip(self, samples, tmp_path):
        path = save_samples_json(samples, tmp_path / "s.json")
        loaded = load_samples_json(path)
        assert loaded.to_records() == samples.to_records()

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{broken")
        with pytest.raises(DataError, match="invalid JSON"):
            load_samples_json(path)

    def test_missing_key(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{}")
        with pytest.raises(DataError, match="missing 'samples'"):
            load_samples_json(path)


class TestModel:
    @pytest.fixture
    def model(self, two_metric_sampleset):
        return SpireModel.train(two_metric_sampleset)

    def test_round_trip(self, model, tmp_path):
        path = save_model(model, tmp_path / "model.json")
        loaded = load_model(path)
        assert sorted(loaded.metrics) == sorted(model.metrics)
        for metric in model.metrics:
            for intensity in (0.1, 1.0, 10.0, 1e4):
                assert loaded.roofline(metric).estimate(intensity) == pytest.approx(
                    model.roofline(metric).estimate(intensity)
                )

    def test_missing_model_file(self, tmp_path):
        with pytest.raises(DataError):
            load_model(tmp_path / "nope.json")

    def test_malformed_model(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"rooflines": {"m": {"bogus": 1}}}')
        with pytest.raises(DataError, match="malformed"):
            load_model(path)

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("axis", [0, 1])
    def test_non_finite_breakpoint_rejected(self, model, tmp_path, value, axis):
        """json.loads accepts NaN and Infinity; a model built on them
        estimates NaN and is never refuted, so loading must fail."""
        payload = model.to_dict()
        metric = sorted(payload["rooflines"])[-1]
        breakpoints = payload["rooflines"][metric]["function"]["breakpoints"]
        # At an end where even an infinite x keeps the breakpoints sorted.
        breakpoints[0 if value.startswith("-") else -1][axis] = f"@{value}@"
        path = tmp_path / "headerless.json"
        path.write_text(json.dumps(payload).replace(f'"@{value}@"', value))
        with pytest.raises(DataError, match=f"metric {metric!r} has non-finite"):
            load_model(path)
