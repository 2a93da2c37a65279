"""Unit tests for dataset and model persistence."""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ensemble import SpireModel
from repro.core.sample import Sample, SampleSet
from repro.errors import DataError
from repro.guard.artifact import HEADER_KEY, attach_header
from repro.io import dataset
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

    @pytest.mark.parametrize(
        "axis, value, what",
        [
            pytest.param(axis, value, "non-finite", id=f"{axis}-{value}")
            for value in ("NaN", "Infinity", "-Infinity")
            for axis in (0, 1)
        ]
        + [pytest.param(1, "-27.3", "negative", id="1-negative")],
    )
    def test_non_finite_breakpoint_rejected(
        self, model, tmp_path, axis, value, what
    ):
        """json.loads accepts NaN and Infinity; a model built on them
        estimates NaN and is never refuted, and a throughput bound below 0
        estimates a negative throughput, so loading must fail."""
        payload = model.to_dict()
        metric = sorted(payload["rooflines"])[-1]
        breakpoints = payload["rooflines"][metric]["function"]["breakpoints"]
        # At an end where even an infinite x keeps the breakpoints sorted.
        breakpoints[0 if value.startswith("-") else -1][axis] = f"@{value}@"
        path = tmp_path / "headerless.json"
        path.write_text(json.dumps(payload).replace(f'"@{value}@"', value))
        with pytest.raises(DataError, match=f"metric {metric!r} has {what}"):
            load_model(path)


#: JSON nested past the decoder's depth.
DEEP = "[" * 100_000 + "]" * 100_000


class TestTypedErrors:
    """Whatever the bytes, a loader returns or raises a DataError that
    names the file."""

    def test_csv_trailer_that_is_not_an_object_is_quarantined(
        self, samples, tmp_path
    ):
        path = save_samples_csv(samples, tmp_path / "s.csv")
        body = path.read_text().split("# spire-artifact: ")[0]
        path.write_text(body + "# spire-artifact: [1, 2]\n")
        with pytest.raises(DataError, match="unparseable integrity trailer"):
            load_samples_csv(path)
        assert not path.exists()  # moved to .quarantine/

    def test_csv_trailer_nested_too_deep_is_quarantined(self, samples, tmp_path):
        path = save_samples_csv(samples, tmp_path / "s.csv")
        body = path.read_text().split("# spire-artifact: ")[0]
        path.write_text(body + "# spire-artifact: " + DEEP + "\n")
        with pytest.raises(DataError, match="unparseable integrity trailer"):
            load_samples_csv(path)

    @pytest.mark.parametrize("row", ["a,inf,1,1", "a,-1,1,1", ",1,1,1"])
    def test_csv_row_the_sample_rejects_names_file_and_line(self, row, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("metric,time,work,metric_count\na,1,1,1\n" + row + "\n")
        with pytest.raises(DataError, match="bad.csv:3: sample"):
            load_samples_csv(path)

    @pytest.mark.parametrize(
        "loader", [load_samples_csv, load_samples_json, load_model]
    )
    def test_invalid_utf8(self, loader, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b'{"samples": ["\xff\xfe"]}')
        with pytest.raises(DataError, match="bad.bin: not UTF-8"):
            loader(path)

    @pytest.mark.parametrize(
        "loader", [load_samples_csv, load_samples_json, load_model]
    )
    def test_unreadable_path(self, loader, tmp_path):
        path = tmp_path / "odd.json"
        path.mkdir()
        with pytest.raises(DataError, match="odd.json: cannot read"):
            loader(path)

    @pytest.mark.parametrize("loader", [load_samples_json, load_model])
    def test_json_nested_too_deep(self, loader, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text('{"samples": ' + DEEP + ', "rooflines": {}}')
        with pytest.raises(DataError, match="deep.json: invalid JSON"):
            loader(path)

    @pytest.mark.parametrize("value", ["3", '"abc"', "[1, 2]", '[{}, "x"]'])
    def test_samples_that_are_not_a_list_of_objects(self, value, tmp_path):
        path = tmp_path / "s.json"
        path.write_text('{"samples": ' + value + "}")
        with pytest.raises(DataError, match="'samples' must be a list of objects"):
            load_samples_json(path)

    @pytest.mark.parametrize(
        "field",
        ['"abc"', "[1]", "1" + "0" * 400, '{"x": 1}'],
        ids=["string", "list", "int-past-float", "object"],
    )
    def test_sample_values_of_the_wrong_type(self, field, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(
            '{"samples": [{"metric": "m", "time": ' + field
            + ', "work": 1, "metric_count": 1}]}'
        )
        with pytest.raises(DataError, match="s.json: "):
            load_samples_json(path)


_ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)


def _paths(node, path=()):
    """Every path to a value inside a JSON document."""
    if path:
        yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, path + (key,))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from _paths(value, path + (index,))


def _mutate_json(text: str, data, schema: str) -> str:
    payload = json.loads(text)
    path = data.draw(st.sampled_from(list(_paths(payload))))
    parent = payload
    for key in path[:-1]:
        parent = parent[key]
    if data.draw(st.booleans()):
        parent[path[-1]] = data.draw(_ANY_JSON)
    else:
        del parent[path[-1]]
    header = data.draw(st.sampled_from(["keep", "drop", "re-sign"]))
    if header != "keep" and isinstance(payload, dict):
        payload.pop(HEADER_KEY, None)
        if header == "re-sign":
            payload = attach_header(payload, schema)
    return json.dumps(payload)


def _mutate_csv(text: str, data, schema: str) -> str:
    body, trailer = text.split(dataset._CSV_TRAILER_PREFIX)
    rows = [row.split(",") for row in body.splitlines()]
    row = data.draw(st.sampled_from(rows))
    column = data.draw(st.integers(0, len(row) - 1))
    row[column] = data.draw(
        st.text(max_size=8) | _ANY_JSON.map(json.dumps)
    )
    body = "\n".join(",".join(row) for row in rows) + "\n"
    header = data.draw(st.sampled_from(["keep", "drop", "re-sign"]))
    if header == "drop":
        return body
    if header == "re-sign":
        trailer = json.dumps({
            "format": schema,
            "checksum": dataset._text_checksum(body),
        })
    return body + dataset._CSV_TRAILER_PREFIX + trailer


def _mutate_bytes(raw: bytes, data) -> bytes:
    raw = bytearray(raw)
    for _ in range(data.draw(st.integers(1, 4))):
        at = data.draw(st.integers(0, len(raw) - 1))
        if data.draw(st.booleans()):
            raw[at] ^= 1 << data.draw(st.integers(0, 7))
        else:
            del raw[at:]
            if not raw:
                break
    return bytes(raw)


class TestLoaderFuzz:
    @settings(max_examples=300, deadline=None)
    @given(
        kind=st.sampled_from(["csv", "json", "model", "model+training"]),
        mode=st.sampled_from(["fields", "bytes"]),
        data=st.data(),
    )
    def test_mutated_artifact_loads_or_raises_data_error(
        self, kind, mode, data
    ):
        samples = SampleSet(
            Sample(metric, time, time * ratio, count)
            for metric in ("a", "b")
            for time, ratio, count in ((1.0, 2.0, 3.0), (2.0, 0.5, 0.0),
                                       (3.0, 1.5, 7.0))
        )
        with tempfile.TemporaryDirectory() as tmp:
            if kind == "csv":
                path = save_samples_csv(samples, Path(tmp) / "s.csv")
                loader, mutate = load_samples_csv, _mutate_csv
                schema = dataset.SAMPLES_CSV_FORMAT
            elif kind == "json":
                path = save_samples_json(samples, Path(tmp) / "s.json")
                loader, mutate = load_samples_json, _mutate_json
                schema = dataset.SAMPLES_FORMAT
            else:
                path = save_model(
                    SpireModel.train(samples), Path(tmp) / "m.json",
                    include_training=kind == "model+training",
                )
                loader, mutate = load_model, _mutate_json
                schema = dataset.MODEL_FORMAT
            if mode == "fields":
                path.write_text(mutate(path.read_text(), data, schema))
            else:
                path.write_bytes(_mutate_bytes(path.read_bytes(), data))
            try:
                loader(path)
            except DataError:
                pass
