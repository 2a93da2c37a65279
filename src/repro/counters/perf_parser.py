"""Parser for Linux ``perf stat`` CSV output.

The paper collects its samples with ``perf stat`` in interval mode
(§IV, "Sample collection": one sample per metric every two seconds via
counter multiplexing).  This module converts that output into SPIRE
samples so the library can be used on *real* hardware as well as on the
simulated substrate.

Supported input is ``perf stat -x <sep>`` output, with or without
``-I <ms>`` interval mode, e.g.::

    1.000234,1234567,,instructions,1999881203,100.00,0.85,insn per cycle
    1.000234,1450034,,cycles,1999881203,100.00,,
    1.000234,8123,,br_misp_retired.all_branches,499970301,25.00,,

Fields: [timestamp,] value, unit, event, run-time, enabled-percent, ...
Values are already multiplex-scaled by perf, so a record keeps only the
timestamp, the value and the event.  The run-time column must be present
(a shorter line is truncated), but neither it nor the enabled-percent
column is parsed: a sample's weight is its interval's time event
(cycles), and an interval without one yields no sample.

:func:`parse_perf_lines` and :func:`_samples_from_records` read one line
at a time and are the reference for every shape of input.  A text body
whose lines are all clean interval records of one width (what ``perf
stat -x, -I`` writes) takes a columnar pass instead, straight to a
:class:`~repro.core.columns.SampleArray`, with bit-identical samples and
the same quality accounting.

:func:`parse_perf_lines` strips each line once and parses each field it
keeps once: :func:`_parse_float` tries ``float()`` before its full rule, and
the value reuses the parse that told an interval record from a
single-shot one.  The stream ingestor (:mod:`repro.stream.ingest`)
reads its records chunk by chunk and pairs each interval's W and T by
:func:`_samples_from_records`' first-match rule, with no ``Sample``
built per row.
"""

from __future__ import annotations

import io
import math
from typing import Iterable, NamedTuple, TextIO

import numpy as np

from repro.core.columns import SampleArray
from repro.core.sample import Sample, SampleSet
from repro.core.sanitize import QualityReport, QuarantinedSample
from repro.errors import ParseError
from repro.fastpath import scalar_fallback_enabled

_NOT_COUNTED = {"<not counted>", "<not supported>"}


class PerfRecord(NamedTuple):
    """One parsed ``perf stat`` line: its interval stamp (``None`` in
    single-shot mode), its count (``None`` when not counted) and its
    event name."""

    timestamp: float | None
    value: float | None
    event: str


def _parse_float(text: str) -> float | None:
    """A field's number: thousands commas dropped, ``None`` when empty,
    ``<not counted>``/``<not supported>`` or not a number."""
    # Where float() accepts the text, the full rule below returns the
    # same value: float() rejects commas, empty text and "<not counted>",
    # strips the whitespace str.strip() does, and rejects the \x1c-\x1f
    # that str.strip() drops (those reach the full rule).
    try:
        return float(text)
    except ValueError:
        pass
    text = text.strip()
    if not text or text in _NOT_COUNTED:
        return None
    try:
        return float(text.replace(",", ""))
    except ValueError:
        return None


def parse_perf_lines(
    lines: Iterable[str],
    separator: str = ",",
    lenient: bool = False,
    quality: QualityReport | None = None,
) -> list[PerfRecord]:
    """Parse raw ``perf stat -x`` lines into records.

    The default mode raises :class:`~repro.errors.ParseError` on the
    first malformed line — the right contract for a finished log.  With
    ``lenient=True`` (the streaming front door) ragged real-world output
    is *salvaged* instead: truncated rows, rows with an empty event name,
    ``<not counted>`` / ``<not supported>`` values and NaN, infinite or
    negative counts are quarantined into ``quality`` (a
    :class:`~repro.core.sanitize.QualityReport`) and parsing continues;
    an input with no records at all returns an empty list rather than
    raising.  Only quarantined lines are counted here: the samples the
    records form are counted where they are formed.
    """
    records: list[PerfRecord] = []
    for line_number, line in enumerate(lines, start=1):
        # One strip per line: a line end left on the last field changes
        # nothing, as every field is stripped or parsed by float().
        stripped = line.strip()
        if not stripped or stripped[0] == "#":
            continue
        parts = line.split(separator)
        if len(parts) < 2:
            if lenient:
                _quarantine_line(quality, "", "truncated perf record")
                continue
            raise ParseError(
                f"line {line_number}: expected at least 2 fields, got {len(parts)}"
            )
        # Interval mode prepends a timestamp column.  Distinguish by
        # checking whether the first field parses as a float AND the second
        # field looks like a value or <not counted>.  Either way the value
        # field's parse is one already taken here.
        timestamp: float | None = None
        cursor = 0
        value = _parse_float(parts[0])
        if value is not None:
            second = _parse_float(parts[1])
            if second is not None or parts[1].strip() in _NOT_COUNTED:
                timestamp, value, cursor = value, second, 1
        if len(parts) < cursor + 4:
            if lenient:
                _quarantine_line(quality, "", "truncated perf record")
                continue
            raise ParseError(
                f"line {line_number}: too few fields for a perf stat record"
            )
        event = parts[cursor + 2].strip()
        if not event:
            if lenient:
                _quarantine_line(quality, "", "empty event name")
                continue
            raise ParseError(f"line {line_number}: empty event name")
        reason = None
        if lenient:
            if value is None and parts[cursor].strip() in _NOT_COUNTED:
                reason = "counter not counted"
            elif value is not None and not math.isfinite(value):
                reason, value = "non-finite counter value", None
            elif value is not None and value < 0:
                reason, value = "negative counter value", None
        if reason is not None:
            # The row itself is well-formed; its count is unusable.
            # Record the loss (the interval logic would silently skip a
            # missing value) but keep the record, as not counted, so
            # interval grouping stays intact.
            _quarantine_line(quality, event, reason)
        records.append(PerfRecord(timestamp, value, event))
    if not records and not lenient:
        raise ParseError("no perf stat records found in input")
    return records


def _quarantine_line(
    quality: QualityReport | None, metric: str, reason: str
) -> None:
    if quality is not None:
        quality.total += 1
        quality.quarantined.append(
            QuarantinedSample(metric=metric, reason=reason)
        )


class PerfStatParser:
    """Builds SPIRE samples from ``perf stat`` output.

    Parameters
    ----------
    work_event, time_event:
        Which events provide ``W`` and ``T``; the defaults match the
        paper's choice of retired instructions and unhalted cycles.
    separator:
        The ``-x`` field separator.
    """

    def __init__(
        self,
        work_event: str = "instructions",
        time_event: str = "cycles",
        separator: str = ",",
    ):
        self.work_event = work_event
        self.time_event = time_event
        self.separator = separator

    def parse(
        self,
        source: str | TextIO,
        lenient: bool = False,
        quality: QualityReport | None = None,
    ) -> SampleSet:
        """Parse output text (or a file object) into a sample set.

        Each interval becomes one sample per metric, with the interval's
        work/time counters shared across them.  Intervals missing the work
        or time event, and metrics that were ``<not counted>``, are
        skipped.  With ``lenient=True`` malformed lines are quarantined
        into ``quality`` instead of raising, and an input with no usable
        intervals yields an empty sample set.

        Text takes one columnar pass when every line it keeps is a clean
        interval record and all have the same number of fields: the
        samples go straight into a lazy :class:`SampleSet` over a
        :class:`~repro.core.columns.SampleArray`.  Everything else takes
        the per-line path (:func:`parse_perf_lines`, then
        :func:`_samples_from_records`): file objects, ragged rows,
        ``<not counted>``, non-finite or negative values, bodies with no
        usable interval, and all input under ``SPIRE_SCALAR_FALLBACK=1``.
        Both give bit-identical columns and the same ``quality``, which
        counts each sample and each quarantined line once.
        """
        if isinstance(source, str):
            array = (
                None if scalar_fallback_enabled()
                else self._parse_columns(source)
            )
            if array is not None:
                if quality is not None:
                    quality.total += len(array)
                    quality.kept += len(array)
                return SampleSet.from_columns(array)
            source = io.StringIO(source)
        records = parse_perf_lines(
            source, self.separator, lenient=lenient, quality=quality
        )
        return _samples_from_records(
            records, self.work_event, self.time_event, lenient=lenient,
            quality=quality,
        )

    def _parse_columns(self, text: str) -> SampleArray | None:
        """The columnar pass: the samples, straight to columns.

        Returns ``None`` unless :func:`parse_perf_lines` would read every
        line as a clean interval record (so it quarantines none) and at
        least one sample results.  The per-line path then owns every
        error, quarantine entry and empty result.
        """
        separator = self.separator
        # Split on "\n" only, as iterating an io.StringIO does, and skip
        # lines by parse_perf_lines' own tests.
        lines = list(filter(str.strip, text.split("\n")))
        if "#" in text:
            lines = [
                line for line in lines if not line.lstrip().startswith("#")
            ]
        if not lines or len(separator) != 1:
            return None
        # One split of the whole body.  A one-character separator cannot
        # straddle a join, and no line holds "\n", so the "\n" fields are
        # exactly the line ends: with ``width`` fields on every line,
        # every ``step``-th field is one and each column is one slice.
        width = lines[0].count(separator) + 1
        step = width + 1
        fields = (separator + "\n" + separator).join(lines).split(separator)
        if (
            width < 5
            or len(fields) != len(lines) * step - 1
            or fields[width::step].count("\n") != len(lines) - 1
        ):
            return None
        try:
            # Where float() accepts a field, _parse_float returns the same
            # value: float() rejects thousands commas, empty fields,
            # "<not counted>" and the \x1c-\x1f that str.strip() drops.
            stamps = np.array(list(map(float, fields[0::step])))
            values = np.array(list(map(float, fields[1::step])))
        except ValueError:
            return None
        events = [event.strip() for event in fields[3::step]]
        # Lenient parsing quarantines non-finite and negative counts, and
        # NaN stamps never share a dict key: all for the per-line path.
        if (
            np.isnan(stamps).any()
            or not np.isfinite(values).all()
            or values.min() < 0
            or not all(events)
        ):
            return None

        # Rows in sorted(intervals) order, input order kept inside each
        # interval; -0.0 and 0.0 share an interval as they share a key.
        order = np.argsort(stamps, kind="stable")
        stamps = stamps[order]
        values = values[order]
        names = np.array(events, dtype=object)[order]
        starts = np.ones(len(order), dtype=bool)
        starts[1:] = stamps[1:] != stamps[:-1]
        interval = np.cumsum(starts) - 1
        count = int(interval[-1]) + 1
        is_work = names == self.work_event
        is_time = names == self.time_event
        work = _first_per_interval(interval, is_work, values, count)
        time = _first_per_interval(interval, is_time, values, count)
        usable = ~np.isnan(work) & (time > 0)
        keep = usable[interval] & ~is_work & ~is_time
        if not keep.any():
            return None
        at = interval[keep]
        return SampleArray.from_lists(
            names[keep].tolist(), time[at], work[at], values[keep]
        )


def _first_per_interval(
    interval: np.ndarray, mask: np.ndarray, values: np.ndarray, count: int
) -> np.ndarray:
    """Each interval's value on its first ``mask`` row; NaN where none."""
    rows = np.flatnonzero(mask)
    present, first = np.unique(interval[rows], return_index=True)
    out = np.full(count, np.nan)
    out[present] = values[rows[first]]
    return out


def parse_perf_stat(
    text: str,
    work_event: str = "instructions",
    time_event: str = "cycles",
    separator: str = ",",
) -> SampleSet:
    """Convenience wrapper around :class:`PerfStatParser`."""
    parser = PerfStatParser(
        work_event=work_event, time_event=time_event, separator=separator
    )
    return parser.parse(text)


def parse_perf_json(
    text: str,
    work_event: str = "instructions",
    time_event: str = "cycles",
) -> SampleSet:
    """Parse ``perf stat -j`` (JSON-lines) output into samples.

    Each line is one JSON object, e.g.::

        {"interval": 1.000123, "counter-value": "1234.0",
         "event": "instructions", ...}

    Single-shot mode omits the ``interval`` field; all such records form
    one interval.  ``<not counted>`` values are skipped.  A line that is
    not a JSON object, or whose ``interval`` is not a number, raises
    :class:`~repro.errors.ParseError` naming the line.
    """
    import json

    records: list[PerfRecord] = []
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            payload = json.loads(line)
        except (ValueError, RecursionError) as exc:
            raise ParseError(f"line {line_number}: invalid JSON ({exc})") from exc
        if not isinstance(payload, dict):
            raise ParseError(
                f"line {line_number}: expected a JSON object, "
                f"got {type(payload).__name__}"
            )
        event = str(payload.get("event", "")).strip()
        if not event:
            raise ParseError(f"line {line_number}: missing event name")
        value = _parse_float(str(payload.get("counter-value", "")))
        timestamp = payload.get("interval")
        if timestamp is not None:
            try:
                timestamp = float(timestamp)
            except (TypeError, ValueError, OverflowError):
                raise ParseError(
                    f"line {line_number}: non-numeric interval {timestamp!r}"
                ) from None
        records.append(PerfRecord(timestamp, value, event))
    if not records:
        raise ParseError("no perf stat JSON records found in input")
    return _samples_from_records(records, work_event, time_event)


def _samples_from_records(
    records: list[PerfRecord],
    work_event: str,
    time_event: str,
    lenient: bool = False,
    quality: QualityReport | None = None,
) -> SampleSet:
    """Shared interval-grouping logic for the CSV and JSON paths.

    Each sample formed is counted into ``quality`` (when given) as kept.
    Records stamped ``nan`` form one interval, whose samples are
    quarantined as "non-numeric timestamp" into ``quality`` (lenient) or
    raise :class:`~repro.errors.ParseError` (strict).
    """
    intervals: dict[float | None, list[PerfRecord]] = {}
    unstamped: list[PerfRecord] = []  # stamped nan: no two share a key
    for record in records:
        if record.timestamp != record.timestamp:
            unstamped.append(record)
        else:
            intervals.setdefault(record.timestamp, []).append(record)
    if unstamped and not lenient:
        raise ParseError("non-numeric timestamp: an interval is stamped nan")

    def find(group: list[PerfRecord], event: str) -> float | None:
        for record in group:
            if record.event == event:
                return record.value
        return None

    def interval(group: list[PerfRecord]) -> list[Sample]:
        work = find(group, work_event)
        time = find(group, time_event)
        if work is None or time is None or time <= 0:
            return []
        return [
            Sample(
                metric=record.event,
                time=time,
                work=work,
                metric_count=record.value,
            )
            for record in group
            if record.event not in (work_event, time_event)
            and record.value is not None
        ]

    samples = SampleSet()
    for timestamp in sorted(intervals, key=lambda t: (t is None, t)):
        for sample in interval(intervals[timestamp]):
            samples.add(sample)
    if quality is not None:
        quality.total += len(samples)
        quality.kept += len(samples)
        for sample in interval(unstamped):
            quality.total += 1
            quality.quarantined.append(
                QuarantinedSample(
                    metric=sample.metric, reason="non-numeric timestamp"
                )
            )
    if not samples and not lenient:
        raise ParseError(
            f"no usable intervals: need both {work_event!r} and "
            f"{time_event!r} per interval"
        )
    return samples
