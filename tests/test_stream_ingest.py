"""Streaming ingestion: chunked perf parsing, screening, faults, CLI.

Covers the front door of :mod:`repro.stream.ingest` — records, sample
sets and raw ``perf stat -x,`` chunks split anywhere — plus the new
stream fault kinds in :mod:`repro.runtime.faults` and the ``spire
stream`` / ``spire faultsim --drift`` entry points.
"""

import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core.columns import SampleArray
from repro.core.sample import Sample, SampleSet
from repro.counters.perf_parser import _samples_from_records
from repro.errors import ConfigError, DataError, DegradedDataWarning, FitError
from repro.guard.dispatch import reset_guards
from repro.runtime.faults import (
    DRIFT_INJECT,
    STALE_WINDOW,
    STREAM_KINDS,
    FaultPlan,
    FaultSpec,
)
from repro.stream import StreamIngestor, StreamOptions, windows_from_records

PERF_TEXT = """\
# synthetic perf stat -I output
1.000234,1000000,,instructions,1999881203,100.00,,
1.000234,1450034,,cycles,1999881203,100.00,,
1.000234,8123,,br_misp_retired.all_branches,499970301,25.00,,
2.000456,2000000,,instructions,1999881203,100.00,,
2.000456,2250034,,cycles,1999881203,100.00,,
2.000456,<not counted>,,br_misp_retired.all_branches,0,0.00,,
2.000456,1995,,longest_lat_cache.miss,499970301,25.00,,
3.000789,1500000,,instructions,1999881203,100.00,,
3.000789,1750034,,cycles,1999881203,100.00,,
3.000789,4321,,longest_lat_cache.miss,499970301,25.00,,
"""


def _record(metric="m", time=1.0, work=4.0, count=2.0, timestamp=None):
    row = {"metric": metric, "time": time, "work": work, "metric_count": count}
    if timestamp is not None:
        row["timestamp"] = timestamp
    return row


@pytest.fixture(autouse=True)
def _fresh_guards():
    reset_guards()
    yield
    reset_guards()


class TestPerfChunking:
    def _drain(self, chunk_size):
        ingestor = StreamIngestor(options=StreamOptions(window_samples=1000))
        for start in range(0, len(PERF_TEXT), chunk_size):
            ingestor.push_perf(PERF_TEXT[start:start + chunk_size])
        ingestor.flush()
        return ingestor

    @pytest.mark.parametrize("chunk_size", [1, 7, 64, len(PERF_TEXT)])
    def test_any_chunking_yields_the_same_samples(self, chunk_size):
        """Mid-line, mid-interval splits change nothing."""
        whole = self._drain(len(PERF_TEXT))
        chunked = self._drain(chunk_size)
        assert chunked.pending_samples == whole.pending_samples
        assert chunked.pending_samples > 0

    def test_newline_free_chunks_buffer_without_parsing(self):
        """A line only parses once its newline arrives — no per-chunk
        re-scan of the buffered prefix, no spurious salvage entries."""
        ingestor = StreamIngestor(options=StreamOptions(window_samples=1000))
        for char in PERF_TEXT.replace("\n", "|"):
            # Feed character-wise with no newline ever arriving: nothing
            # may parse, nothing may be salvaged as malformed.
            ingestor.push_perf(char if char != "|" else "")
            assert ingestor.report().quality.total == 0
        assert ingestor.pending_samples == 0
        whole = self._drain(len(PERF_TEXT))
        chunked = self._drain(1)
        assert chunked.pending_samples == whole.pending_samples

    def test_open_interval_waits_for_newer_timestamp(self):
        ingestor = StreamIngestor(options=StreamOptions(window_samples=1000))
        lines = PERF_TEXT.splitlines(keepends=True)
        ingestor.push_perf("".join(lines[:4]))  # all of interval 1, no newer
        first = ingestor.pending_samples
        ingestor.push_perf("".join(lines[4:]))
        ingestor.flush()
        assert ingestor.pending_samples > first

    def test_salvage_feeds_the_quality_report(self):
        ingestor = StreamIngestor(options=StreamOptions(window_samples=1000))
        ingestor.push_perf(PERF_TEXT)
        ingestor.push_perf("garbage-without-fields\n")
        ingestor.push_perf(
            "4.000,nan,,longest_lat_cache.miss,499970301,25.00,,\n"
            "4.000,-7,,br_misp_retired.all_branches,499970301,25.00,,\n"
        )
        ingestor.flush()
        report = ingestor.report()
        reasons = [q.reason for q in report.quality.quarantined]
        assert "counter not counted" in reasons
        assert "truncated perf record" in reasons
        assert "non-finite counter value" in reasons
        assert "negative counter value" in reasons
        assert report.quality.kept > 0


class _Recording(StreamIngestor):
    """Keeps every sealed window's rows."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.windows = []

    def _seal(self, array):
        self.windows.append([array.row(i) for i in range(len(array))])
        return super()._seal(array)


class _ViaRecords(_Recording):
    """Each closed perf interval pushed as timestamped records, through
    the timestamp screen and the value sanitizer, as push_perf once did."""

    def _close_perf_interval(self, group, scalar):
        stamp = group[0].timestamp
        if stamp != stamp:
            # A NaN-stamped interval: one dict key for all its records.
            group = [record._replace(timestamp=None) for record in group]
        samples = _samples_from_records(
            group, "instructions", "cycles", lenient=True
        )
        records = []
        for sample in samples:
            record = sample.to_dict()
            if stamp is not None:
                record["timestamp"] = stamp
            records.append(record)
        self.push_records(records)


_METRICS = ("l1d.miss", "llc.miss", "br.misp")

#: One interval: (stamp step, cycles present, rows of (metric, value)).
_INTERVALS = st.tuples(
    st.sampled_from([1.0, 1.0, 1.0, 0.0, -2.5, "nan"]),
    st.sampled_from([True, True, True, False]),
    st.lists(
        st.tuples(
            st.sampled_from(_METRICS),
            st.sampled_from(
                ["<not counted>", "-40", "inf", "0", "1200", "35", "9000"]
            ),
        ),
        max_size=4,
    ),
)


def _perf_text(intervals) -> str:
    lines, stamp = [], 10.0
    for step, has_cycles, rows in intervals:
        if step == "nan":
            prefix = "nan"
        else:
            stamp += step
            prefix = f"{stamp:.3f}"
        lines.append(f"{prefix},24000,,instructions,1000,100.00,,")
        if has_cycles:
            lines.append(f"{prefix},16000,,cycles,1000,100.00,,")
        for metric, value in rows:
            lines.append(f"{prefix},{value},,{metric},1000,25.00,,")
    return "\n".join(lines) + "\n"


class TestPerfIntervalsSkipTheValueSanitizer:
    @settings(max_examples=40, deadline=None)
    @given(
        intervals=st.lists(_INTERVALS, max_size=30),
        cuts=st.lists(st.integers(1, 90), max_size=40),
    )
    def test_push_perf_matches_pushing_the_records(self, intervals, cuts):
        """Perf samples pass the strict constructor, so the timestamp
        screen alone leaves windows, events, quality and warnings as
        pushing each interval's records through push_records did."""
        text = _perf_text(intervals)
        chunks, cursor = [], 0
        for size in cuts:
            chunks.append(text[cursor:cursor + size])
            cursor += size
        chunks.append(text[cursor:])
        options = StreamOptions(window_samples=5, warmup_windows=1)
        outputs = []
        for kind in (_Recording, _ViaRecords):
            ingestor = kind(options=options)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                for chunk in chunks:
                    ingestor.push_perf(chunk)
                ingestor.flush()
                ingestor.seal_window()
            report = ingestor.report()
            try:
                served = ingestor.model().to_dict(include_training=True)
            except FitError:
                served = None
            outputs.append(
                (
                    ingestor.windows,
                    ingestor.events,
                    report.to_dict(),
                    (report.quality.total, report.quality.kept),
                    report.quality.quarantined,
                    [(w.category, str(w.message)) for w in caught],
                    served,
                )
            )
        assert outputs[0] == outputs[1]


class _ScalarClose(_Recording):
    """Closes every perf interval through the scalar reference:
    _samples_from_records, the strict Sample constructor, the screen."""

    def _close_perf_interval(self, group, scalar):
        super()._close_perf_interval(group, True)


_EVENTS = ("instructions", "cycles") + _METRICS

#: One interval: (stamp step, "nan" or "none" for no stamp column, rows
#: of (event, value)).  W and T rows may repeat, be missing, be not
#: counted or be zero, so the first-match rule decides.
_RAW_INTERVALS = st.tuples(
    st.sampled_from([1.0, 1.0, 0.0, -2.5, "nan", "none"]),
    st.lists(
        st.tuples(
            st.sampled_from(_EVENTS),
            st.sampled_from(
                ["<not counted>", "-40", "inf", "nan", "0", "35", "1200",
                 "16000", "24000"]
            ),
        ),
        max_size=7,
    ),
)


def _raw_perf_text(intervals) -> str:
    lines, stamp = [], 10.0
    for step, rows in intervals:
        if step == "nan":
            prefix = "nan,"
        elif step == "none":
            prefix = ""
        else:
            stamp += step
            prefix = f"{stamp:.3f},"
        for event, value in rows:
            lines.append(f"{prefix}{value},,{event},1000,100.00,,")
    return "\n".join(lines) + "\n"


class TestColumnarClose:
    @settings(max_examples=150, deadline=None)
    @given(
        intervals=st.lists(_RAW_INTERVALS, max_size=25),
        cuts=st.lists(st.integers(1, 120), max_size=30),
    )
    def test_close_matches_samples_from_records(self, intervals, cuts):
        """The columnar close seals the rows, records the quality entries
        (in order) and raises the warnings of the scalar reference."""
        text = _raw_perf_text(intervals)
        chunks, cursor = [], 0
        for size in cuts:
            chunks.append(text[cursor:cursor + size])
            cursor += size
        chunks.append(text[cursor:])
        options = StreamOptions(window_samples=4, warmup_windows=1)
        outputs = []
        for kind in (_Recording, _ScalarClose):
            ingestor = kind(options=options)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                for chunk in chunks:
                    ingestor.push_perf(chunk)
                ingestor.flush()
                ingestor.seal_window()
            quality = ingestor.report().quality
            outputs.append(
                (
                    ingestor.windows,
                    (quality.total, quality.kept),
                    quality.quarantined,
                    [(w.category, str(w.message)) for w in caught],
                )
            )
        assert outputs[0] == outputs[1]

    def test_nan_stamped_interval_is_quarantined(self):
        """Lines stamped nan form one interval, which the screen
        quarantines with a warning, on both routes."""
        body = "".join(
            f"{stamp},{value},,{event},1,100.00,,\n"
            for stamp in ("1.0", "nan", "3.0")
            for event, value in (("instructions", 1000), ("cycles", 2000),
                                 ("m", 10))
        )
        for kind in (_Recording, _ScalarClose):
            ingestor = kind(options=StreamOptions(window_samples=1000))
            with pytest.warns(DegradedDataWarning, match="non-numeric"):
                ingestor.push_perf(body)
                ingestor.flush()
            quality = ingestor.report().quality
            assert ingestor.pending_samples == 2
            assert [(q.metric, q.reason) for q in quality.quarantined] == [
                ("m", "non-numeric timestamp")
            ]
            assert not quality.ok


class TestScreening:
    def test_out_of_order_timestamps_quarantined(self):
        ingestor = StreamIngestor(options=StreamOptions(window_samples=1000))
        ingestor.push_records([_record(timestamp=2.0)])
        with pytest.warns(DegradedDataWarning, match="out-of-order"):
            ingestor.push_records([_record(timestamp=1.0)])
        report = ingestor.report()
        assert [q.reason for q in report.quality.quarantined] == [
            "out-of-order timestamp"
        ]
        assert ingestor.pending_samples == 1

    def test_value_sanitizer_still_applies(self):
        ingestor = StreamIngestor(options=StreamOptions(window_samples=1000))
        with pytest.warns(DegradedDataWarning):
            ingestor.push_records(
                [_record(), _record(time=-1.0), _record(work=float("nan"))]
            )
        report = ingestor.report()
        assert report.quality.kept == 1
        assert len(report.quality.quarantined) == 2

    def test_window_auto_seals_at_size(self):
        ingestor = StreamIngestor(options=StreamOptions(window_samples=3))
        ingestor.push_records([_record(work=float(i + 1)) for i in range(7)])
        assert ingestor.window_count == 2
        assert ingestor.pending_samples == 1

    def test_no_model_skips_drift_checks_during_warmup(self):
        options = StreamOptions(window_samples=4, warmup_windows=2)
        ingestor = StreamIngestor(options=options)
        # Warmup windows: wildly inconsistent data, yet no drift events.
        ingestor.push_records(
            [_record(work=float(i + 1), count=1.0) for i in range(8)]
        )
        assert ingestor.window_count == 2
        assert ingestor.events == []
        # Past warmup the same metric is now checked against its own fit.
        ingestor.push_records(
            [_record(work=100.0 * (i + 1), count=1.0) for i in range(4)]
        )
        assert ingestor.window_count == 3
        assert ingestor.events != []


class TestPushSamples:
    SAMPLES = [Sample("m", 1.0, 4.0, 2.0), Sample("n", 2.0, 1.0, 0.0)] * 3

    @pytest.mark.parametrize("shape", ["list", "set", "array"])
    def test_every_shape_fills_the_same_windows(self, shape):
        source = {
            "list": list(self.SAMPLES),
            "set": SampleSet(self.SAMPLES),
            "array": SampleArray.from_samples(self.SAMPLES),
        }[shape]
        ingestor = _Recording(options=StreamOptions(window_samples=4))
        ingestor.push_samples(source)
        assert ingestor.windows == [
            [(s.metric, s.time, s.work, s.metric_count)
             for s in self.SAMPLES[:4]]
        ]
        assert ingestor.pending_samples == 2
        quality = ingestor.report().quality
        assert (quality.total, quality.kept) == (6, 6)

    def test_invalid_rows_and_items_raise(self):
        ingestor = StreamIngestor()
        dirty = SampleArray.from_lists(["m"], [0.0], [1.0], [1.0])
        with pytest.raises(DataError, match="time must be positive"):
            ingestor.push_samples(dirty)
        with pytest.raises(DataError, match="expected a Sample"):
            ingestor.push_samples([{"metric": "m"}])
        assert ingestor.pending_samples == 0


class TestWindowsFromRecords:
    def test_slices_consecutively(self):
        windows = windows_from_records([_record(work=float(i)) for i in range(5)], 2)
        assert [len(w) for w in windows] == [2, 2, 1]
        assert windows[0][0]["work"] == 0.0

    def test_rejects_bad_window_size(self):
        with pytest.raises(ValueError):
            windows_from_records([], 0)


class TestStreamFaultKinds:
    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            FaultSpec(workload="w", kind=DRIFT_INJECT, factor=0.0)
        with pytest.raises(ConfigError):
            FaultSpec(workload="w", kind=STALE_WINDOW, window=-1)

    def test_stream_faults_accessor_excludes_runner_kinds(self):
        plan = FaultPlan(
            specs=(
                FaultSpec(workload="w", kind="corrupt-sample"),
                FaultSpec(workload="m", kind=DRIFT_INJECT),
                FaultSpec(workload="*", kind=STALE_WINDOW),
            )
        )
        assert [s.kind for s in plan.stream_faults()] == list(STREAM_KINDS)
        assert "w" in plan.injected_workloads()
        assert "m" not in plan.injected_workloads()

    def test_random_plan_backward_compatible(self):
        """Adding stream draws must not disturb pre-existing plans."""
        names = ["a", "b", "c"]
        before = FaultPlan.random(names, seed=9, corrupt_samples=2, drop_metrics=1)
        after = FaultPlan.random(
            names,
            seed=9,
            corrupt_samples=2,
            drop_metrics=1,
            drift_injects=2,
            stale_windows=1,
        )
        assert after.specs[: len(before.specs)] == before.specs
        extra = after.specs[len(before.specs):]
        assert [s.kind for s in extra] == [
            DRIFT_INJECT, DRIFT_INJECT, STALE_WINDOW,
        ]
        for spec in extra:
            assert spec.factor > 0
            assert spec.window >= 0


@pytest.fixture
def stream_csv(tmp_path):
    path = tmp_path / "stream.csv"
    assert (
        main(
            [
                "simulate",
                "tnn",
                "--out",
                str(path),
                "--windows",
                "60",
                "--no-multiplex",
            ]
        )
        == 0
    )
    return path


class TestStreamCLI:
    def test_stream_csv_without_model(self, stream_csv, capsys):
        assert main(["stream", "--data", str(stream_csv), "--window", "64"]) == 0
        out = capsys.readouterr().out
        assert "stream:" in out
        assert "serving" in out

    def test_stream_csv_with_model(self, stream_csv, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        assert (
            main(["train", str(stream_csv), "--model", str(model_path)]) == 0
        )
        capsys.readouterr()
        assert (
            main(
                [
                    "stream",
                    "--data",
                    str(stream_csv),
                    "--model",
                    str(model_path),
                    "--window",
                    "128",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "stream:" in out

    def test_stream_perf_format(self, tmp_path, capsys):
        log = tmp_path / "perf.log"
        log.write_text(PERF_TEXT)
        assert (
            main(
                [
                    "stream",
                    "--data",
                    str(log),
                    "--format",
                    "perf",
                    "--window",
                    "2",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "stream:" in out

    def test_stream_missing_file_fails_cleanly(self, capsys):
        assert main(["stream", "--data", "/nonexistent/x.csv"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_stream_perf_not_utf8_fails_cleanly(self, tmp_path, capsys):
        log = tmp_path / "perf.log"
        log.write_bytes(b"1.0,1000,,instructions,1,100\n1.0,\xff\xfe\n")
        assert main(["stream", "--data", str(log), "--format", "perf"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {log}: not UTF-8 text")
        assert err.count("\n") == 1

    def test_faultsim_drift_scenario_passes(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(["faultsim", "--drift"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "refit" in out
        assert "bit-identical" in out
