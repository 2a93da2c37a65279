"""Unit tests for the perf stat output parser."""

import io
import json
import math
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sample import SampleSet
from repro.core.sanitize import QualityReport
from repro.counters import perf_parser
from repro.counters.perf_parser import (
    PerfRecord,
    PerfStatParser,
    parse_perf_json,
    parse_perf_lines,
    parse_perf_stat,
)
from repro.errors import (
    DataError,
    DegradedDataWarning,
    ParseError,
    SpireError,
)
from repro.fastpath import force_scalar
from repro.serve import ServeConfig, SpireServer
from repro.serve.server import _Request
from repro.stream import StreamIngestor, StreamOptions

INTERVAL_TEXT = """\
# started on Mon Jul  6 10:00:00 2026
1.000234,1000000,,instructions,1999881203,100.00,0.85,insn per cycle
1.000234,1450034,,cycles,1999881203,100.00,,
1.000234,8123,,br_misp_retired.all_branches,499970301,25.00,,
1.000234,995,,longest_lat_cache.miss,499970301,25.00,,
3.000456,2000000,,instructions,1999881203,100.00,0.91,insn per cycle
3.000456,2250034,,cycles,1999881203,100.00,,
3.000456,<not counted>,,br_misp_retired.all_branches,0,0.00,,
3.000456,1995,,longest_lat_cache.miss,499970301,25.00,,
"""

SINGLE_SHOT_TEXT = """\
5000000,,instructions,2000000000,100.00,,
7000000,,cycles,2000000000,100.00,,
12345,,cache-misses,2000000000,100.00,,
"""


class TestLineParser:
    def test_parses_interval_records(self):
        records = parse_perf_lines(io.StringIO(INTERVAL_TEXT))
        assert len(records) == 8
        assert records[0].timestamp == pytest.approx(1.000234)
        assert records[0].event == "instructions"
        assert records[0].value == pytest.approx(1_000_000)

    def test_skips_comments_and_blanks(self):
        text = "# comment\n\n" + SINGLE_SHOT_TEXT
        records = parse_perf_lines(io.StringIO(text))
        assert len(records) == 3

    def test_not_counted_becomes_none(self):
        records = parse_perf_lines(io.StringIO(INTERVAL_TEXT))
        missing = [r for r in records if r.value is None]
        assert len(missing) == 1
        assert missing[0].event == "br_misp_retired.all_branches"

    def test_single_shot_has_no_timestamp(self):
        records = parse_perf_lines(io.StringIO(SINGLE_SHOT_TEXT))
        assert all(r.timestamp is None for r in records)

    def test_empty_input_rejected(self):
        with pytest.raises(ParseError):
            parse_perf_lines(io.StringIO(""))

    def test_too_few_fields_rejected(self):
        with pytest.raises(ParseError):
            parse_perf_lines(io.StringIO("only_one_field\n"))

    def test_empty_event_name_rejected(self):
        with pytest.raises(ParseError, match="empty event"):
            parse_perf_lines(io.StringIO("1.0,100,, ,200,100.0\n"))

    def test_record_has_three_fields(self):
        assert PerfRecord._fields == ("timestamp", "value", "event")

    @pytest.mark.parametrize("lenient", [False, True])
    def test_run_time_and_enabled_columns_are_not_parsed(self, lenient):
        clean = "1.5,8123,,l1d.miss,499970301,25.00,,\n"
        (expected,) = parse_perf_lines([clean])
        assert expected == PerfRecord(1.5, 8123.0, "l1d.miss")
        for tail in (
            "garbage,??,,",
            ",,",
            "<not counted>,nan%",
            "1,2,3,4,5,6,7",
            "",
        ):
            quality = QualityReport()
            line = f"1.5,8123,,l1d.miss,{tail}\n"
            records = parse_perf_lines([line], lenient=lenient, quality=quality)
            assert records == [expected], line
            assert not quality.quarantined


class TestSampleBuilding:
    def test_interval_samples(self):
        samples = parse_perf_stat(INTERVAL_TEXT)
        # Interval 1: two metrics; interval 2: one (mispredicts not counted).
        assert len(samples) == 3
        assert sorted(samples.metrics()) == [
            "br_misp_retired.all_branches",
            "longest_lat_cache.miss",
        ]

    def test_sample_values(self):
        samples = parse_perf_stat(INTERVAL_TEXT)
        bp = samples.for_metric("br_misp_retired.all_branches")[0]
        assert bp.work == pytest.approx(1_000_000)
        assert bp.time == pytest.approx(1_450_034)
        assert bp.metric_count == pytest.approx(8_123)
        assert bp.intensity == pytest.approx(1_000_000 / 8_123)

    def test_single_shot_mode(self):
        samples = parse_perf_stat(SINGLE_SHOT_TEXT)
        assert len(samples) == 1
        sample = samples.for_metric("cache-misses")[0]
        assert sample.throughput == pytest.approx(5 / 7)

    def test_custom_work_time_events(self):
        text = (
            "100,,uops_retired.retire_slots,1,100\n"
            "400,,ref-cycles,1,100\n"
            "7,,some.metric,1,100\n"
        )
        parser = PerfStatParser(
            work_event="uops_retired.retire_slots", time_event="ref-cycles"
        )
        samples = parser.parse(text)
        assert samples.for_metric("some.metric")[0].throughput == pytest.approx(0.25)

    def test_missing_work_event_rejected(self):
        text = "1000,,cycles,1,100\n55,,some.metric,1,100\n"
        with pytest.raises(ParseError, match="no usable intervals"):
            parse_perf_stat(text)

    @pytest.mark.parametrize("count", ["nan", "inf", "-5"])
    def test_strict_rejects_unusable_counts(self, count):
        # Lenient parsing quarantines these rows instead (see the serve
        # and stream ingest tests).
        with pytest.raises(DataError, match="metric_count"):
            parse_perf_stat(SINGLE_SHOT_TEXT.replace("12345", count))

    def test_interval_without_cycles_skipped(self):
        text = (
            "1.0,1000,,instructions,1,100\n"
            "1.0,10,,some.metric,1,100\n"
            "2.0,1000,,instructions,1,100\n"
            "2.0,1500,,cycles,1,100\n"
            "2.0,20,,some.metric,1,100\n"
        )
        samples = parse_perf_stat(text)
        assert len(samples) == 1
        assert samples.for_metric("some.metric")[0].metric_count == 20

    def test_file_object_input(self):
        samples = PerfStatParser().parse(io.StringIO(INTERVAL_TEXT))
        assert len(samples) == 3

    def test_zero_count_metric_gives_infinite_intensity(self):
        text = (
            "1000,,instructions,1,100\n"
            "1500,,cycles,1,100\n"
            "0,,rare.event,1,100\n"
        )
        samples = parse_perf_stat(text)
        assert math.isinf(samples.for_metric("rare.event")[0].intensity)

    def test_custom_separator(self):
        text = INTERVAL_TEXT.replace(",", ";")
        samples = parse_perf_stat(text, separator=";")
        assert len(samples) == 3


#: Three intervals stamped out of order, each an ``instructions``, a
#: ``cycles`` and one metric row: nine lines, three samples.
NINE_LINES = [
    ("3.0", 300, 900, 30), ("2.0", 200, 800, 20), ("1.0", 100, 700, 10)
]


def perf_body(intervals) -> str:
    return "".join(
        f"{stamp},{value},,{event},1000,100.00,,\n"
        for stamp, work, time, count in intervals
        for event, value in (
            ("instructions", work), ("cycles", time), ("m.a", count)
        )
    )


class TestNanStampedInterval:
    """``nan`` stamps share no dict key: each must not form its own
    interval, vanish, or reorder the intervals around it."""

    NAN_MIDDLE = [NINE_LINES[0], ("nan", *NINE_LINES[1][1:]), NINE_LINES[2]]

    @staticmethod
    def _rows(samples):
        return [(s.metric, s.time, s.work, s.metric_count) for s in samples]

    def test_lenient_quarantines_it_and_keeps_the_rest_in_order(self):
        quality = QualityReport()
        got = PerfStatParser().parse(
            perf_body(self.NAN_MIDDLE), lenient=True, quality=quality
        )
        want = PerfStatParser().parse(perf_body(NINE_LINES[::2]))
        assert self._rows(got) == self._rows(want)
        assert [s.time for s in got] == [700, 900]  # in stamp order
        assert [(q.metric, q.reason) for q in quality.quarantined] == [
            ("m.a", "non-numeric timestamp")
        ]

    def test_strict_raises(self):
        with pytest.raises(ParseError, match="non-numeric timestamp"):
            PerfStatParser().parse(perf_body(self.NAN_MIDDLE))

    def test_json_interval_nan_raises(self):
        line = '{"interval": NaN, "counter-value": "1", "event": "cycles"}'
        with pytest.raises(ParseError, match="non-numeric timestamp"):
            parse_perf_json(line)


JSON_TEXT = """\
{"interval": 1.000123, "counter-value": "1000000.0", "event": "instructions", "event-runtime": 1999881203, "pcnt-running": 100.0}
{"interval": 1.000123, "counter-value": "1450034.0", "event": "cycles", "event-runtime": 1999881203, "pcnt-running": 100.0}
{"interval": 1.000123, "counter-value": "8123.0", "event": "br_misp_retired.all_branches", "event-runtime": 499970301, "pcnt-running": 25.0}
{"interval": 3.000456, "counter-value": "2000000.0", "event": "instructions"}
{"interval": 3.000456, "counter-value": "2250034.0", "event": "cycles"}
{"interval": 3.000456, "counter-value": "<not counted>", "event": "br_misp_retired.all_branches"}
{"interval": 3.000456, "counter-value": "1995.0", "event": "longest_lat_cache.miss"}
"""


class TestJsonParser:
    def test_parses_intervals(self):
        from repro.counters.perf_parser import parse_perf_json

        samples = parse_perf_json(JSON_TEXT)
        assert len(samples) == 2
        assert sorted(samples.metrics()) == [
            "br_misp_retired.all_branches",
            "longest_lat_cache.miss",
        ]

    def test_values_match_csv_semantics(self):
        from repro.counters.perf_parser import parse_perf_json

        samples = parse_perf_json(JSON_TEXT)
        bp = samples.for_metric("br_misp_retired.all_branches")[0]
        assert bp.work == pytest.approx(1_000_000)
        assert bp.time == pytest.approx(1_450_034)
        assert bp.metric_count == pytest.approx(8_123)

    def test_single_shot_json(self):
        from repro.counters.perf_parser import parse_perf_json

        text = (
            '{"counter-value": "100.0", "event": "instructions"}\n'
            '{"counter-value": "400.0", "event": "cycles"}\n'
            '{"counter-value": "7.0", "event": "some.metric"}\n'
        )
        samples = parse_perf_json(text)
        assert samples.for_metric("some.metric")[0].throughput == pytest.approx(0.25)

    def test_invalid_json_rejected(self):
        from repro.counters.perf_parser import parse_perf_json

        with pytest.raises(ParseError, match="invalid JSON"):
            parse_perf_json("{broken\n")

    def test_missing_event_rejected(self):
        from repro.counters.perf_parser import parse_perf_json

        with pytest.raises(ParseError, match="missing event"):
            parse_perf_json('{"counter-value": "1.0"}\n')

    def test_empty_input_rejected(self):
        from repro.counters.perf_parser import parse_perf_json

        with pytest.raises(ParseError):
            parse_perf_json("\n# comment only\n")

    @pytest.mark.parametrize("line", ["5", "null", "[1]", '"x"'])
    def test_non_object_line_rejected(self, line):
        with pytest.raises(ParseError, match="line 2: expected a JSON object"):
            parse_perf_json('{"counter-value": "1.0", "event": "m"}\n' + line)

    @pytest.mark.parametrize("interval", ['"a"', "[1]", "{}"])
    def test_non_numeric_interval_rejected(self, interval):
        line = '{"interval": %s, "counter-value": "1", "event": "m"}' % interval
        with pytest.raises(ParseError, match="line 1: non-numeric interval"):
            parse_perf_json(line)


# Fields a real or damaged ``perf stat -x,`` row can carry.
_FIELDS = st.sampled_from([
    "1.0", "2.5", "0", "-3", "100", "nan", "inf", "-inf", "",
    "<not counted>", "<not supported>", "instructions", "cycles",
    "cache-misses", "x",
])
_CSV_LINES = st.lists(
    st.lists(_FIELDS, max_size=8).map(",".join), max_size=12
)
_JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    _FIELDS,
    st.lists(st.integers(), max_size=2),
)
_JSON_LINES = st.lists(
    st.one_of(
        st.dictionaries(
            st.sampled_from(
                ["interval", "counter-value", "event", "event-runtime",
                 "pcnt-running"]
            ),
            _JSON_VALUES,
        ),
        _JSON_VALUES,
    ).map(json.dumps),
    max_size=10,
)


@settings(max_examples=300, deadline=None)
@given(csv_lines=_CSV_LINES, json_lines=_JSON_LINES)
def test_fuzzed_perf_input_parses_or_raises_spire_error(csv_lines, json_lines):
    """Ragged rows mixing nan, inf, ``<not counted>`` and empty fields
    yield a SampleSet or a SpireError, never another exception; lenient
    CSV parsing never raises and accounts for every row it reads."""
    text = "\n".join(csv_lines)
    try:
        assert isinstance(PerfStatParser().parse(text), SampleSet)
    except SpireError:
        pass
    quality = QualityReport()
    lenient = PerfStatParser().parse(text, lenient=True, quality=quality)
    assert isinstance(lenient, SampleSet)
    assert quality.total == quality.kept + len(quality.quarantined)
    try:
        assert isinstance(parse_perf_json("\n".join(json_lines)), SampleSet)
    except SpireError:
        pass


# ---------------------------------------------------------------------------
# The columnar pass against the per-line reference
# ---------------------------------------------------------------------------

# \x0b and \x0c are whitespace to str.strip() and float(), but line
# breaks to str.splitlines().
_PAD = st.sampled_from(["", "", " ", "\t", "\x0b", "\x0c", " \x0b", "\x0c\t"])
_STAMP = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 2.5]), st.floats(allow_nan=False)
)
_VALUE = st.one_of(
    st.sampled_from(["0", "0.0", "-0.0"]),
    st.floats(min_value=0.0, allow_infinity=False).map(repr),
    st.integers(0, 10**15).map(str),
)
_EVENT = st.sampled_from(["instructions", "cycles", "m.a", "m.b", "m.c"])
_FILLER = st.sampled_from(["", "1000000", "100.00", "x", "<not counted>"])
_IRREGULAR = ["<not counted>", "nan", "-3", "1,234", "\x1c5", "short row"]


@st.composite
def _perf_bodies(draw, perturbed=False):
    """(separator, ``perf stat -x -I`` text) with one field count per line.

    Intervals interleave and repeat, repeat their work and time events,
    or lack either one or have zero cycles; fields are padded with
    whitespace, comment and blank lines are mixed in, and lines end in
    ``\\n`` or ``\\r\\n``.  Most bodies carry one interval that
    surely yields a sample.  ``perturbed`` spoils one row in a way the
    columnar pass must hand to the per-line path.
    """
    kind = draw(st.sampled_from(_IRREGULAR)) if perturbed else None
    separator = ";" if kind == "1,234" else draw(st.sampled_from([",", ";"]))
    width = draw(st.integers(5, 8))
    stamps = st.sampled_from(draw(st.lists(_STAMP, min_size=1, max_size=3)))
    rows = [
        [repr(stamp), value, draw(_FILLER), event]
        for stamp, event, value in draw(
            st.lists(st.tuples(stamps, _EVENT, _VALUE), max_size=12)
        )
    ]
    if draw(st.integers(0, 3)):
        at = draw(st.integers(0, len(rows)))
        stamp = repr(draw(stamps))
        rows[at:at] = [
            [stamp, "100", "", "instructions"],
            [stamp, "300", "", "cycles"],
            [stamp, "5", "", "m.a"],
        ]
    for row in rows:
        row += [draw(_FILLER)] * (width - len(row))
        for index in (0, 1, 3):  # the fields the columnar pass reads
            row[index] = draw(_PAD) + row[index] + draw(_PAD)
    if kind is not None and rows:
        row = rows[draw(st.integers(0, len(rows) - 1))]
        if kind == "short row":
            del row[4:]
        else:
            row[1] = kind
    lines = [separator.join(row) for row in rows]
    for _ in range(draw(st.integers(0, 3))):
        extra = draw(st.sampled_from(["# started on", "", "  ", "\t# x"]))
        lines.insert(draw(st.integers(0, len(lines))), extra)
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    return separator, ending.join(lines) + draw(st.sampled_from(["", ending]))


def _parse(parser: PerfStatParser, text: str, lenient: bool):
    """The parse's columns, or the exception it raised, and its report."""
    quality = QualityReport()
    try:
        samples = parser.parse(text, lenient=lenient, quality=quality)
    except Exception as exc:  # compared with the reference's exception
        return exc, quality
    return samples.columns(), quality


def _assert_same_parse(parser: PerfStatParser, text: str, lenient: bool):
    with force_scalar():
        want, want_quality = _parse(parser, text, lenient)
    got, got_quality = _parse(parser, text, lenient)
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want)
    else:
        assert got.metric_names == want.metric_names
        for col in ("metric_ids", "time", "work", "metric_count"):
            assert getattr(got, col).tobytes() == getattr(want, col).tobytes()
    assert got_quality.total == want_quality.total
    assert got_quality.kept == want_quality.kept
    assert got_quality.quarantined == want_quality.quarantined
    assert got_quality.dropped_metrics == want_quality.dropped_metrics
    return want


@settings(max_examples=200, deadline=None)
@given(body=_perf_bodies(), lenient=st.booleans())
def test_columnar_pass_is_bit_identical_to_per_line_path(body, lenient):
    """Same columns, report and errors as the per-line path, and the
    pass itself runs on every regular body that yields a sample."""
    separator, text = body
    parser = PerfStatParser(separator=separator)
    want = _assert_same_parse(parser, text, lenient)
    yields = not isinstance(want, Exception) and len(want) > 0
    assert (parser._parse_columns(text) is not None) == yields


@settings(max_examples=100, deadline=None)
@given(body=_perf_bodies(perturbed=True), lenient=st.booleans())
def test_irregular_bodies_take_the_per_line_path(body, lenient):
    separator, text = body
    parser = PerfStatParser(separator=separator)
    _assert_same_parse(parser, text, lenient)
    assert parser._parse_columns(text) is None


@settings(max_examples=100, deadline=None)
@given(body=_perf_bodies() | _perf_bodies(perturbed=True))
def test_quality_counts_each_sample_and_quarantined_line_once(body):
    """On both front doors ``kept`` is the rows handed on (the rows the
    server estimates, the window's rows) and ``total`` adds one for each
    quarantined sample or line."""
    separator, text = body
    server = SpireServer(ServeConfig())
    # The server reads ',' bodies; give it the body's separator so both
    # front doors parse the same samples.
    server._parser = PerfStatParser(separator=separator)
    request = _Request(
        "POST", "/v1/estimate", {"model": "m"},
        {"content-type": "text/csv"}, text.encode(),
    )
    try:
        _, array, quality, _ = server._decode_csv(request)
    except SpireError:  # no usable interval: answered 400, nothing estimated
        pass
    else:
        assert quality.kept == len(array)
        assert quality.total == quality.kept + len(quality.quarantined)

    ingestor = StreamIngestor(
        options=StreamOptions(window_samples=1000),
        parser=PerfStatParser(separator=separator),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegradedDataWarning)
        ingestor.push_perf(text)
        ingestor.flush()
    quality = ingestor.report().quality
    assert quality.kept == ingestor.pending_samples
    assert quality.total == quality.kept + len(quality.quarantined)


def test_nine_lines_count_three_samples():
    """Three intervals of an ``instructions``, a ``cycles`` and one
    metric row are three samples through either front door."""
    quality = QualityReport()
    PerfStatParser().parse(
        perf_body(NINE_LINES), lenient=True, quality=quality
    )
    ingestor = StreamIngestor(options=StreamOptions(window_samples=1000))
    ingestor.push_perf(perf_body(sorted(NINE_LINES)))  # in stamp order
    ingestor.flush()
    for report in (quality, ingestor.report().quality):
        assert report.summary() == "all 3 samples clean"


def _parse_float_reference(text: str):
    """The field rule before float() was tried first: strip, give up on
    empty and "<not counted>" text, drop thousands commas."""
    text = text.strip()
    if not text or text in ("<not counted>", "<not supported>"):
        return None
    try:
        return float(text.replace(",", ""))
    except ValueError:
        return None


_FIELD_PIECES = st.sampled_from(
    ["", " ", ",", ".", "-", "+", "_", "e", "E", "1", "0", "9", "12",
     "1,234", "1_000", "nan", "NaN", "inf", "-inf", "Infinity", "1e400",
     "<not counted>", "<not supported>", "\x1c", "\x1d", "\x1e", "\x1f",
     "\u2000", "\u3000", "\x85", "\t", "\n", "\u0661\u0662", "\uff13",
     "0x10", "#"]
)


@settings(max_examples=500, deadline=None)
@given(
    text=st.lists(_FIELD_PIECES, max_size=5).map("".join)
    | st.floats().map(repr)
    | st.text(max_size=8)
)
def test_parse_float_matches_the_full_rule(text):
    got = perf_parser._parse_float(text)
    want = _parse_float_reference(text)
    assert (got is None) == (want is None)
    if got is not None:
        assert got.hex() == want.hex()
