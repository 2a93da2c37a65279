"""Degraded-data hardening: quarantine bad samples instead of raising.

Counter data from real hardware arrives noisy and incomplete: multiplexed
runs drop counter groups, ``perf`` emits ``<not counted>`` rows, and a
corrupted sample shows up as a NaN or a negative count.  The strict
:class:`~repro.core.sample.Sample` constructor rejects such values with
:class:`~repro.errors.DataError` — correct for clean pipelines, fatal for
a 27-workload campaign where one bad period would discard the run.

:class:`SampleSanitizer` is the forgiving front door: it inspects raw
values *before* sample construction, quarantines anything invalid into a
structured :class:`QualityReport`, and returns a clean
:class:`~repro.core.sample.SampleSet`.  The collector pathway and
:meth:`SpireModel.train <repro.core.ensemble.SpireModel.train>` both
route degraded input through it, emitting
:class:`~repro.errors.DegradedDataWarning` rather than dying.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.errors import ConfigError
from repro.core.columns import SampleArray
from repro.core.sample import Sample, SampleSet
from repro.fastpath import scalar_fallback_enabled

__all__ = [
    "QualityReport",
    "QuarantinedSample",
    "SampleSanitizer",
    "TimestampScreen",
]


@dataclass(frozen=True, slots=True)
class QuarantinedSample:
    """One rejected measurement and why it was rejected."""

    metric: str
    reason: str
    time: float = float("nan")
    work: float = float("nan")
    metric_count: float = float("nan")


@dataclass
class QualityReport:
    """What a sanitization pass kept, quarantined and dropped."""

    total: int = 0
    kept: int = 0
    quarantined: list[QuarantinedSample] = field(default_factory=list)
    dropped_metrics: dict[str, str] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.quarantined and not self.dropped_metrics

    @property
    def quarantine_fraction(self) -> float:
        if self.total == 0:
            return 0.0
        return len(self.quarantined) / self.total

    def merge(self, other: "QualityReport") -> None:
        self.total += other.total
        self.kept += other.kept
        self.quarantined.extend(other.quarantined)
        self.dropped_metrics.update(other.dropped_metrics)

    def summary(self) -> str:
        if self.ok:
            return f"all {self.total} samples clean"
        parts = [f"{self.kept}/{self.total} samples kept"]
        if self.quarantined:
            by_reason: dict[str, int] = {}
            for entry in self.quarantined:
                by_reason[entry.reason] = by_reason.get(entry.reason, 0) + 1
            detail = ", ".join(
                f"{count}x {reason}" for reason, count in sorted(by_reason.items())
            )
            parts.append(f"{len(self.quarantined)} quarantined ({detail})")
        if self.dropped_metrics:
            parts.append(
                f"{len(self.dropped_metrics)} metric(s) dropped: "
                + ", ".join(sorted(self.dropped_metrics))
            )
        return "; ".join(parts)


class TimestampScreen:
    """Monotonicity check for *streamed* records carrying timestamps.

    Batch sample sets have no ordering contract, but a live stream does:
    within one stream, records must arrive with non-decreasing timestamps
    per metric (``perf stat -I`` interval output is monotone by
    construction).  A record whose ``timestamp`` field runs backwards is
    stale — a delayed or replayed window — and folding it into windowed
    buffers would smear two time ranges together.  The screen quarantines
    such records into the same :class:`QualityReport` shape the value
    sanitizer uses, so stream callers can warn with one consistent
    :class:`~repro.errors.DegradedDataWarning` message.

    Records without a ``timestamp`` field pass through untouched: the
    screen only enforces ordering where ordering information exists.
    """

    def __init__(self) -> None:
        self._last: dict[str, float] = {}

    def screen(
        self,
        records: Iterable[Mapping],
        report: QualityReport | None = None,
    ) -> tuple[list[Mapping], QualityReport]:
        """Split records into (in-order survivors, quality report).

        Survivors keep their original relative order.  ``report`` (when
        given) is filled in place and returned, so a caller can accumulate
        one report across many pushed chunks.
        """
        out = report if report is not None else QualityReport()
        kept: list[Mapping] = []
        for record in records:
            out.total += 1
            raw = record.get("timestamp")
            if raw is None:
                out.kept += 1
                kept.append(record)
                continue
            try:
                stamp = float(raw)
            except (TypeError, ValueError):
                stamp = float("nan")
            metric = str(record.get("metric", "") or "")
            if self._in_order(metric, stamp, out):
                kept.append(record)
        return kept, out

    def screen_interval(
        self,
        metrics: Sequence[str],
        stamp: float | None,
        report: QualityReport,
    ) -> list[bool]:
        """:meth:`screen` for the rows of one perf interval, which share
        ``stamp``: one keep flag per row of ``metrics``, with the same
        report entries and counts, and no mapping record built per row."""
        report.total += len(metrics)
        if stamp is None:
            report.kept += len(metrics)
            return [True] * len(metrics)
        return [self._in_order(metric, stamp, report) for metric in metrics]

    def _in_order(self, metric: str, stamp: float, report: QualityReport) -> bool:
        """Admit one stamped arrival, or quarantine it into ``report``."""
        if math.isnan(stamp):
            report.quarantined.append(
                QuarantinedSample(metric=metric, reason="non-numeric timestamp")
            )
            return False
        last = self._last.get(metric)
        if last is not None and stamp < last:
            report.quarantined.append(
                QuarantinedSample(
                    metric=metric, reason="out-of-order timestamp", time=stamp
                )
            )
            return False
        self._last[metric] = stamp
        report.kept += 1
        return True


def _check_values(time: float, work: float, metric_count: float) -> str | None:
    """The reason these values are unusable, or ``None`` if clean."""
    for name, value in (("time", time), ("work", work), ("metric_count", metric_count)):
        if not isinstance(value, (int, float)):
            return f"non-numeric {name}"
        if math.isnan(value):
            return f"NaN {name}"
        if math.isinf(value):
            return f"infinite {name}"
    if time <= 0:
        return "non-positive time"
    if work < 0:
        return "negative work"
    if metric_count < 0:
        return "negative metric_count"
    return None


class SampleSanitizer:
    """Screens raw measurements into a clean sample set plus a report.

    Parameters
    ----------
    min_samples_per_metric:
        Metrics whose surviving sample count falls below this floor are
        dropped entirely (recorded in the report, not raised) — a partial
        metric cannot support a roofline fit.

    The sanitizer never raises on data *content*; callers decide what a
    high ``report.quarantine_fraction`` means for them.
    """

    def __init__(self, min_samples_per_metric: int = 1):
        if min_samples_per_metric < 1:
            raise ConfigError("min_samples_per_metric must be at least 1")
        self.min_samples_per_metric = min_samples_per_metric

    def check(self, time: float, work: float, metric_count: float) -> str | None:
        """Validate one measurement's values; the rejection reason or None."""
        return _check_values(time, work, metric_count)

    def sanitize(
        self, samples: SampleSet | SampleArray | Iterable[Sample | Mapping]
    ) -> tuple[SampleSet, QualityReport]:
        """Split input into (clean sample set, quality report).

        Accepts constructed :class:`Sample` objects or raw mapping records
        (``{"metric": ..., "time": ..., "work": ..., "metric_count": ...}``);
        records with invalid values are quarantined instead of raising the
        strict constructor's ``DataError``.

        Columnar input (:class:`~repro.core.columns.SampleArray`, or a
        :class:`SampleSet` whose columns are available) takes the
        vectorized path unless ``SPIRE_SCALAR_FALLBACK`` forces the
        retained scalar reference loop.
        """
        if isinstance(samples, SampleArray):
            if scalar_fallback_enabled():
                # Dirty rows must quarantine, not raise, so feed the scalar
                # loop mapping records rather than strict Sample objects.
                return self._sanitize_scalar(samples.to_records())
            return self._sanitize_columnar(samples)
        if isinstance(samples, SampleSet):
            if scalar_fallback_enabled():
                return self._sanitize_scalar(samples)
            return self._sanitize_columnar(samples.columns())
        return self._sanitize_scalar(samples)

    def _sanitize_columnar(
        self, array: SampleArray
    ) -> tuple[SampleSet, QualityReport]:
        clean, report = self.sanitize_array(array)
        return clean.to_sample_set(), report

    def _sanitize_scalar(
        self, samples: Iterable[Sample | Mapping]
    ) -> tuple[SampleSet, QualityReport]:
        """The retained scalar reference loop behind :meth:`sanitize`."""
        report = QualityReport()
        survivors: list[Sample] = []
        for item in samples:
            report.total += 1
            if isinstance(item, Sample):
                metric, t, w, m = item.metric, item.time, item.work, item.metric_count
            else:
                metric = str(item.get("metric", "") or "")
                try:
                    t = float(item.get("time", float("nan")))
                    w = float(item.get("work", float("nan")))
                    m = float(item.get("metric_count", float("nan")))
                except (TypeError, ValueError):
                    t = w = m = float("nan")
            if not metric:
                report.quarantined.append(
                    QuarantinedSample(metric="", reason="empty metric name")
                )
                continue
            reason = _check_values(t, w, m)
            if reason is not None:
                report.quarantined.append(
                    QuarantinedSample(
                        metric=metric, reason=reason, time=t, work=w, metric_count=m
                    )
                )
                continue
            survivors.append(
                item
                if isinstance(item, Sample)
                else Sample(metric=metric, time=t, work=w, metric_count=m)
            )

        # Metric floor: partial metrics cannot support a fit.
        by_metric: dict[str, int] = {}
        for sample in survivors:
            by_metric[sample.metric] = by_metric.get(sample.metric, 0) + 1
        starved = {
            metric
            for metric, count in by_metric.items()
            if count < self.min_samples_per_metric
        }
        for metric in sorted(starved):
            report.dropped_metrics[metric] = (
                f"{by_metric[metric]} sample(s) < "
                f"min_samples_per_metric={self.min_samples_per_metric}"
            )
        clean = SampleSet(s for s in survivors if s.metric not in starved)
        report.kept = len(clean)
        return clean, report

    def sanitize_array(
        self, array: SampleArray
    ) -> tuple[SampleArray, QualityReport]:
        """Vectorized :meth:`sanitize` over columnar measurements.

        Accepts a possibly-dirty :class:`~repro.core.columns.SampleArray`
        (NaN/Inf/negative values allowed) and returns a clean array plus
        the same :class:`QualityReport` the scalar loop would produce:
        quarantine entries in row order with identical reason strings, and
        identical metric-floor drops.
        """
        report = QualityReport()
        report.total = len(array)
        if not len(array):
            return array, report

        t, w, m = array.time, array.work, array.metric_count
        value_bad = (
            np.isnan(t) | np.isnan(w) | np.isnan(m)
            | np.isinf(t) | np.isinf(w) | np.isinf(m)
            | (t <= 0) | (w < 0) | (m < 0)
        )
        empty_name = [not name for name in array.metric_names]
        if any(empty_name):
            name_bad = np.asarray(empty_name, dtype=bool)[array.metric_ids]
        else:
            name_bad = np.zeros(len(array), dtype=bool)
        bad = value_bad | name_bad

        if bad.any():
            # Quarantine entries are rare; resolve their reasons through
            # the scalar checker so the report text matches exactly.
            names = array.metric_names
            for index in np.flatnonzero(bad):
                metric = names[int(array.metric_ids[index])]
                ti = float(t[index])
                wi = float(w[index])
                mi = float(m[index])
                if not metric:
                    report.quarantined.append(
                        QuarantinedSample(metric="", reason="empty metric name")
                    )
                    continue
                reason = _check_values(ti, wi, mi)
                report.quarantined.append(
                    QuarantinedSample(
                        metric=metric, reason=reason, time=ti, work=wi,
                        metric_count=mi,
                    )
                )
            survivors = array.select(~bad)
        else:
            survivors = array

        # Metric floor: partial metrics cannot support a fit.
        counts = np.bincount(
            survivors.metric_ids,
            minlength=max(len(survivors.metric_names), 1),
        )
        starved_ids = {
            ident
            for ident in np.unique(survivors.metric_ids)
            if counts[ident] < self.min_samples_per_metric
        }
        if starved_ids:
            for ident in sorted(
                starved_ids, key=lambda i: survivors.metric_names[int(i)]
            ):
                metric = survivors.metric_names[int(ident)]
                report.dropped_metrics[metric] = (
                    f"{int(counts[ident])} sample(s) < "
                    f"min_samples_per_metric={self.min_samples_per_metric}"
                )
            starved_mask = np.isin(
                survivors.metric_ids, np.fromiter(starved_ids, dtype=np.int64)
            )
            survivors = survivors.select(~starved_mask)
        report.kept = len(survivors)
        return survivors, report
