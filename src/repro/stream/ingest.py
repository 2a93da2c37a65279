"""Windowed streaming ingestion with drift-checked model serving.

:class:`StreamIngestor` is the live front door of a SPIRE deployment.  It
accepts counter samples incrementally — mapping records, constructed
sample sets, or raw ``perf stat -x`` CSV chunks (split anywhere, even
mid-line) — screens them for timestamp monotonicity
(:class:`~repro.core.sanitize.TimestampScreen`; mapping records also for
values, via :class:`~repro.core.sanitize.SampleSanitizer`), buffers them
into fixed size windows, and on each sealed window walks the drift
ladder (:mod:`repro.stream.drift`) for every metric, in one packed pass
over the serving model, before folding the window into the incremental
ensemble (:mod:`repro.stream.incremental`).  The window's phase estimate
reuses that pass's row bounds and evaluates again only the rows of
metrics whose served roofline the seal changed.

Perf intervals stay in columns from the parse to the sealed window.  A
closed interval pairs its first ``instructions`` and ``cycles`` rows as
W and T, as :func:`~repro.counters.perf_parser._samples_from_records`
does, and appends each screened row's (metric, T, W, M_x) to the open
window's column lists; a full window is one
:class:`~repro.core.columns.SampleArray`.  No ``Sample`` is built per
row and no value pass runs: the lenient parser has already marked every
NaN, infinite or negative count as not counted.  Under
``SPIRE_SCALAR_FALLBACK=1`` each interval goes through
``_samples_from_records`` and the strict
:class:`~repro.core.sample.Sample` constructor instead, before the same
screen and columns.  Lines stamped ``nan`` form one interval, whose
rows the screen quarantines as "non-numeric timestamp".

Ownership model
---------------
With a trained ``model``, its rooflines are *reference-owned*: they serve
unchanged while the stream agrees with them and their samples are only
kept in the recent-window buffer.  A refuted reference roofline is
quarantined and refit from the recent windows only — the contradicted
history is discarded — after which the metric is *stream-owned* and grows
incrementally.  Without a model every metric is stream-owned from the
first sample, and drift checks begin after ``warmup_windows`` windows.
This keeps repairs surgical: refuting one metric never perturbs the
others' rooflines (asserted bit-exactly in the drift tests).
"""

from __future__ import annotations

import warnings
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from repro.core.columns import SampleArray, as_sample_array
from repro.core.ensemble import SpireModel, TrainOptions, packed_estimate
from repro.core.phases import PhaseEstimate, PhaseTracker
from repro.core.roofline import MetricRoofline
from repro.core.sample import Sample, SampleSet
from repro.core.sanitize import SampleSanitizer, TimestampScreen
from repro.counters.perf_parser import (
    PerfRecord,
    PerfStatParser,
    _samples_from_records,
    parse_perf_lines,
)
from repro.errors import (
    ConfigError,
    DegradedDataWarning,
    EstimationError,
    FitError,
)
from repro.fastpath import scalar_fallback_enabled
from repro.stream.drift import (
    ABSORBED,
    REFUTED,
    DriftEvent,
    DriftMonitor,
    DriftPolicy,
    DriftReport,
)
from repro.stream.incremental import OnlineSpire

__all__ = ["StreamIngestor", "StreamOptions"]


@dataclass(frozen=True, slots=True)
class StreamOptions:
    """Configuration of one ingestion stream."""

    window_samples: int = 256   # clean samples per auto-sealed window
    warmup_windows: int = 2     # windows before drift checks (no-model mode)
    policy: DriftPolicy = field(default_factory=DriftPolicy)
    train: TrainOptions = field(default_factory=TrainOptions)

    def __post_init__(self) -> None:
        if self.window_samples < 1:
            raise ConfigError("window_samples must be at least 1")
        if self.warmup_windows < 1:
            raise ConfigError("warmup_windows must be at least 1")


class StreamIngestor:
    """Incremental ingestion, drift refereeing and model serving."""

    def __init__(
        self,
        model: SpireModel | None = None,
        options: StreamOptions | None = None,
        parser: PerfStatParser | None = None,
    ) -> None:
        self.options = options or StreamOptions()
        self._parser = parser or PerfStatParser()
        self._online = OnlineSpire(
            options=self.options.train,
            work_unit=model.work_unit if model else "instructions",
            time_unit=model.time_unit if model else "cycles",
        )
        self._reference: dict[str, MetricRoofline] = {}
        if model is not None:
            self._reference = {m: model.roofline(m) for m in model.metrics}
        # Renewed once per sealed window: drift checks and phase
        # estimates run on its packed rooflines, and model() serves it.
        self._served: dict[str, MetricRoofline] = {}
        self._serving = self._build_serving()
        self._monitor = DriftMonitor(self.options.policy)
        self._screen = TimestampScreen()
        self._sanitizer = SampleSanitizer(min_samples_per_metric=1)
        self._tracker = PhaseTracker()
        self._report = DriftReport()
        # The open window's rows as column lists: metric, T, W, M_x.
        self._pending: tuple[list, list, list, list] = ([], [], [], [])
        self._recent: deque[SampleArray] = deque(
            maxlen=self.options.policy.refit_history
        )
        self._quarantined: set[str] = set()
        # Partial CSV line between chunks, kept as pieces: joining on
        # every newline-free chunk would re-copy the whole buffered
        # prefix each time (quadratic over fine-grained chunking).
        self._tail_parts: list[str] = []
        self._perf_interval: list[PerfRecord] = []  # open perf interval

    # -- Introspection -------------------------------------------------

    @property
    def window_count(self) -> int:
        return self._report.windows

    @property
    def pending_samples(self) -> int:
        return len(self._pending[0])

    @property
    def stale(self) -> bool:
        return self._report.stale

    @property
    def events(self) -> list[DriftEvent]:
        return list(self._report.events)

    @property
    def stream_metrics(self) -> list[str]:
        """Metrics currently owned by the incremental ensemble."""
        return self._online.metrics

    @property
    def reference_metrics(self) -> list[str]:
        """Metrics still served from the loaded model."""
        return list(self._reference)

    # -- Ingestion -----------------------------------------------------

    def push_records(self, records: Iterable[Mapping]) -> None:
        """Push raw mapping records (``metric``/``time``/``work``/
        ``metric_count``, optional ``timestamp``)."""
        rows = records if isinstance(records, list) else list(records)
        if not rows:
            return
        before = len(self._report.quality.quarantined)
        kept, _ = self._screen.screen(rows, self._report.quality)
        clean, window_report = self._sanitizer.sanitize(kept)
        # The screen already counted the survivors it forwarded; fold in
        # only what the value sanitizer rejected on top of that.
        self._report.quality.kept -= len(window_report.quarantined)
        self._report.quality.quarantined.extend(window_report.quarantined)
        self._warn_dropped(before)
        self._admit_array(clean.columns())

    def push_samples(
        self, samples: SampleSet | SampleArray | Iterable[Sample]
    ) -> None:
        """Push already-validated samples (no screening needed).

        A :class:`SampleArray` must hold what the strict :class:`Sample`
        constructor accepts; any other row raises its ``DataError``.
        """
        if isinstance(samples, SampleArray):
            samples.validate()
        elif not isinstance(samples, SampleSet):
            samples = SampleSet(samples)  # rejects non-Sample items
        array = as_sample_array(samples)
        self._report.quality.total += len(array)
        self._report.quality.kept += len(array)
        self._admit_array(array)

    def push_perf(self, chunk: str) -> None:
        """Push a chunk of ``perf stat -x`` CSV output.

        Chunks may split anywhere — mid-line and mid-interval.  The last
        incomplete line waits for the next chunk; the newest interval
        stays open until a newer timestamp arrives (or :meth:`flush`),
        because its counter group may still be in flight.  Malformed
        lines are salvaged into the quality report, never raised.
        """
        newline = chunk.find("\n")
        if newline < 0:
            # Nothing completes here; buffer the piece and touch the
            # already-buffered prefix zero times.
            if chunk:
                self._tail_parts.append(chunk)
            return
        self._tail_parts.append(chunk[:newline])
        first = "".join(self._tail_parts)
        lines = chunk[newline + 1 :].split("\n")
        tail = lines.pop()
        self._tail_parts = [tail] if tail else []
        lines.insert(0, first)
        parsed = parse_perf_lines(
            lines,
            self._parser.separator,
            lenient=True,
            quality=self._report.quality,
        )
        scalar = scalar_fallback_enabled()
        group = self._perf_interval
        for record in parsed:
            stamp = record.timestamp
            if group:
                last = group[-1].timestamp
                # A new stamp closes the interval; NaN stamps run on as
                # one interval, which the screen quarantines.
                if stamp != last and (stamp == stamp or last == last):
                    self._close_perf_interval(group, scalar)
                    group = []
            group.append(record)
        self._perf_interval = group

    def flush(self) -> None:
        """Convert any buffered partial CSV state into pending samples."""
        if self._tail_parts:
            self.push_perf("\n")
        if self._perf_interval:
            group, self._perf_interval = self._perf_interval, []
            self._close_perf_interval(group, scalar_fallback_enabled())

    def _close_perf_interval(
        self, group: list[PerfRecord], scalar: bool
    ) -> None:
        """Screen one closed interval's rows and append the kept ones to
        the open window's columns (``scalar``: through the reference)."""
        rows = (
            self._interval_samples(group) if scalar
            else self._interval_rows(group)
        )
        if rows is None:
            return
        metrics, time, work, counts = rows
        quality = self._report.quality
        before = len(quality.quarantined)
        keep = self._screen.screen_interval(
            metrics, group[0].timestamp, quality
        )
        self._warn_dropped(before)
        if not all(keep):
            metrics = [m for m, kept in zip(metrics, keep) if kept]
            counts = [c for c, kept in zip(counts, keep) if kept]
        self._admit(metrics, [time] * len(metrics), [work] * len(metrics),
                    counts)

    def _interval_rows(
        self, group: list[PerfRecord]
    ) -> tuple[list[str], float, float, list[float]] | None:
        """One interval's (metrics, T, W, counts), or ``None`` if it has
        none: :func:`_samples_from_records` on the interval, as columns.

        W and T are the values of the first ``work_event`` and
        ``time_event`` rows; the interval yields nothing unless both are
        counted and T is positive.  Every other counted row is a sample.
        """
        work_event, time_event = self._parser.work_event, self._parser.time_event
        events = [record.event for record in group]
        try:
            work = group[events.index(work_event)].value
            time = group[events.index(time_event)].value
        except ValueError:  # no W or no T row
            return None
        if work is None or time is None or time <= 0:
            return None
        metrics: list[str] = []
        counts: list[float] = []
        for record in group:
            if (
                record.value is not None
                and record.event != work_event
                and record.event != time_event
            ):
                metrics.append(record.event)
                counts.append(record.value)
        if not metrics:
            return None
        return metrics, time, work, counts

    def _interval_samples(
        self, group: list[PerfRecord]
    ) -> tuple[list[str], float, float, list[float]] | None:
        """The scalar reference behind :meth:`_interval_rows`: the
        interval through :func:`_samples_from_records` and the strict
        ``Sample`` constructor."""
        if group[0].timestamp != group[0].timestamp:
            # No two NaN stamps share a dict key; this is one interval.
            group = [record._replace(timestamp=None) for record in group]
        samples = _samples_from_records(
            group, self._parser.work_event, self._parser.time_event,
            lenient=True,
        )
        if not samples:
            return None
        first = next(iter(samples))
        return (
            [sample.metric for sample in samples],
            first.time,
            first.work,
            [sample.metric_count for sample in samples],
        )

    def _warn_dropped(self, before: int) -> None:
        dropped = len(self._report.quality.quarantined) - before
        if dropped:
            warnings.warn(
                DegradedDataWarning(
                    f"stream quarantined {dropped} record(s): "
                    + self._report.quality.summary()
                ),
                stacklevel=3,
            )

    def _admit_array(self, array: SampleArray) -> None:
        names = array.metric_names
        self._admit(
            [names[ident] for ident in array.metric_ids.tolist()],
            array.time.tolist(),
            array.work.tolist(),
            array.metric_count.tolist(),
        )

    def _admit(
        self,
        metrics: list[str],
        time: list[float],
        work: list[float],
        counts: list[float],
    ) -> None:
        """Append clean rows to the open window; seal each full one."""
        for column, rows in zip(self._pending, (metrics, time, work, counts)):
            column.extend(rows)
        size = self.options.window_samples
        while len(self._pending[0]) >= size:
            self._seal(self._take(size))

    def _take(self, rows: int) -> SampleArray:
        """Cut the open window's first ``rows`` rows into an array."""
        array = SampleArray.from_lists(
            *(column[:rows] for column in self._pending)
        )
        for column in self._pending:
            del column[:rows]
        return array

    # -- Window sealing and the drift ladder ---------------------------

    def seal_window(self) -> list[DriftEvent]:
        """Seal whatever is pending as one window (possibly empty).

        Replay drivers call this to impose their own window boundaries;
        live ingestion normally relies on ``window_samples`` auto-sealing.
        Returns the drift events the window produced.
        """
        return self._seal(self._take(len(self._pending[0])))

    def _seal(self, array: SampleArray) -> list[DriftEvent]:
        index = self._report.windows
        self._report.windows += 1
        events: list[DriftEvent] = []

        if not len(array):
            events.append(
                DriftEvent(
                    metric="*",
                    window=index,
                    action="stalled",
                    detail="window sealed with no usable samples",
                )
            )
            self._report.events.extend(events)
            return events

        window_set = SampleSet.from_columns(array)
        checking = bool(self._reference) or index >= self.options.warmup_windows
        # Repairs only touch the refuted metric, so every verdict can be
        # taken up front against the model served when the window opened.
        # The check keeps each covered row's bound for the phase estimate.
        opened = self._served
        bounds = np.full(len(array), np.nan)
        verdicts = (
            self._monitor.assess(self._serving, window_set, bounds)
            if checking and self._serving is not None
            else {}
        )

        groups = array.group_indices()
        refuted: list[str] = []
        for metric, rows in groups.items():
            verdict = verdicts.get(metric)
            if verdict is None:
                self._insert_if_stream_owned(metric, array, rows)
                continue
            if verdict.verdict == REFUTED:
                refuted.append(metric)
                events.extend(
                    self._repair(metric, index, verdict, array, rows)
                )
                continue
            if verdict.verdict == ABSORBED:
                events.append(
                    DriftEvent(
                        metric=metric,
                        window=index,
                        action="absorbed",
                        violations=verdict.violations,
                        samples=verdict.samples,
                        worst_excess=verdict.worst_excess,
                    )
                )
            self._insert_if_stream_owned(metric, array, rows)

        checked = len(verdicts)
        if self._monitor.window_stale(checked, len(refuted)) and not self.stale:
            reason = (
                f"{len(refuted)}/{checked} checked metric(s) refuted in "
                f"window {index}"
            )
            events.append(
                DriftEvent(
                    metric="*", window=index, action="stale", detail=reason
                )
            )
            self._mark_stale(reason)

        self._online.refresh()
        self._recent.append(array)
        for metric in list(self._quarantined):
            if self._online.roofline(metric) is not None:
                self._quarantined.discard(metric)
        self._serving = self._build_serving()
        # Rows of a metric whose served roofline changed in this seal
        # (refit, re-seeded or newly served) are bound anew; a withheld
        # metric's rows are skipped either way.
        for metric, rows in groups.items():
            if self._served.get(metric) is not opened.get(metric):
                bounds[rows] = np.nan
        self._observe_phase(index, window_set, bounds)
        self._report.events.extend(events)
        return events

    def _insert_if_stream_owned(
        self, metric: str, array: SampleArray, rows
    ) -> None:
        if metric in self._reference:
            return  # reference-owned: static while it agrees
        self._online.insert_points(
            metric, array.intensity[rows], array.throughput[rows]
        )

    def _repair(
        self, metric, index, verdict, array: SampleArray, rows
    ) -> list[DriftEvent]:
        """Rungs 2-3: quarantine the refuted metric and refit or give up."""
        self._reference.pop(metric, None)

        refit_parts = [
            (window, window.group_indices()[metric])
            for window in self._recent
            if metric in window.group_indices()
        ]
        refit_parts.append((array, rows))
        refit_samples = sum(len(part) for _, part in refit_parts)
        self._online.reset_metric(metric)
        for window, part in refit_parts:
            self._online.insert_points(
                metric, window.intensity[part], window.throughput[part]
            )

        if refit_samples < self.options.train.min_samples_per_metric:
            self._quarantined.add(metric)
            return [
                DriftEvent(
                    metric=metric,
                    window=index,
                    action="quarantined",
                    violations=verdict.violations,
                    samples=verdict.samples,
                    worst_excess=verdict.worst_excess,
                    detail=(
                        f"only {refit_samples} recent sample(s) — too few "
                        "to refit; withheld from serving"
                    ),
                )
            ]

        self._quarantined.discard(metric)
        events = [
            DriftEvent(
                metric=metric,
                window=index,
                action="refit",
                violations=verdict.violations,
                samples=verdict.samples,
                worst_excess=verdict.worst_excess,
                detail=(
                    f"refit from {len(refit_parts)} recent window(s), "
                    f"{refit_samples} sample(s)"
                ),
            )
        ]
        if self._monitor.note_refit(metric) and not self.stale:
            reason = (
                f"metric {metric!r} refuted "
                f"{self._monitor.refit_counts[metric]} time(s), past "
                f"max_refits={self.options.policy.max_refits}"
            )
            events.append(
                DriftEvent(
                    metric=metric, window=index, action="stale", detail=reason
                )
            )
            self._mark_stale(reason)
        return events

    def _mark_stale(self, reason: str) -> None:
        self._report.stale = True
        self._report.stale_reason = reason

    def _observe_phase(
        self, index: int, window_set: SampleSet, bounds: np.ndarray
    ) -> None:
        if self._serving is None:
            return
        try:
            estimate = packed_estimate(self._serving, window_set, bounds)
        except (FitError, EstimationError):
            return
        self._tracker.observe(
            PhaseEstimate(
                index=index,
                throughput_bound=estimate.throughput,
                limiting_metric=estimate.limiting_metric,
                measured_throughput=window_set.measured_throughput(),
                sample_count=len(window_set),
            )
        )

    # -- Serving -------------------------------------------------------

    def model(self) -> SpireModel:
        """The current serving ensemble, as of the last sealed window.

        Reference-owned rooflines serve verbatim; stream-owned metrics
        serve their latest incremental fit once past the sample floor.
        Quarantined metrics are withheld.  Raises :class:`FitError` when
        nothing is servable yet (e.g. mid-warmup).
        """
        if self._serving is None:
            raise FitError("the stream has no servable metric yet")
        return self._serving

    def _build_serving(self) -> SpireModel | None:
        """The serving ensemble of the current rooflines.

        While the same roofline objects serve the same metrics in the
        same order, the current model is that ensemble already, and
        keeping it keeps its packed table; a refit, quarantine or new
        metric builds a new one.
        """
        rooflines = dict(self._reference)
        for metric in self._online.metrics:
            if metric in self._quarantined:
                continue
            roofline = self._online.roofline(metric)
            if roofline is not None:
                rooflines[metric] = roofline
        served, self._served = self._served, rooflines
        if not rooflines:
            return None
        if list(rooflines) == list(served) and all(
            new is old for new, old in zip(rooflines.values(), served.values())
        ):
            return self._serving
        return SpireModel(
            rooflines,
            work_unit=self._online.work_unit,
            time_unit=self._online.time_unit,
        )

    def report(self) -> DriftReport:
        """The drift ladder's verdict so far (phases attached when any)."""
        if len(self._tracker):
            self._report.phases = self._tracker.profile()
        self._report.refit_counts = self._monitor.refit_counts
        self._report.quarantined_metrics = sorted(self._quarantined)
        return self._report
