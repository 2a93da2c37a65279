"""Sample and sample-set containers — SPIRE's input data (paper §III-A).

A *sample* describes one measurement period of one performance metric:

=========  =====================================================
``T``      length of the period (e.g. unhalted core cycles)
``W``      work completed during the period (e.g. retired instructions)
``M_x``    increase of metric ``x`` during the period
``P``      derived average throughput, ``P = W / T``
``I_x``    derived metric-specific operational intensity, ``I_x = W / M_x``
=========  =====================================================

``T`` and ``W`` share units across every sample in a model so the
throughput axis is comparable; ``M_x`` is metric-specific.  A sample whose
metric never fired (``M_x = 0``) has infinite operational intensity — the
paper's special sample ``S`` used by the right fitting algorithm.
"""

from __future__ import annotations

import math
import operator
from collections import defaultdict
from dataclasses import dataclass
from functools import reduce
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from repro.errors import DataError


@dataclass(frozen=True, slots=True)
class Sample:
    """One measurement period of one performance metric."""

    metric: str
    time: float
    work: float
    metric_count: float

    def __post_init__(self) -> None:
        if not self.metric:
            raise DataError("sample metric name must be non-empty")
        for field_name in ("time", "work", "metric_count"):
            value = getattr(self, field_name)
            if not math.isfinite(value):
                raise DataError(f"sample {field_name} must be finite, got {value}")
        if self.time <= 0:
            raise DataError(f"sample time must be positive, got {self.time}")
        if self.work < 0:
            raise DataError(f"sample work must be non-negative, got {self.work}")
        if self.metric_count < 0:
            raise DataError(
                f"sample metric_count must be non-negative, got {self.metric_count}"
            )

    @property
    def throughput(self) -> float:
        """Average throughput ``P = W / T``."""
        return self.work / self.time

    @property
    def intensity(self) -> float:
        """Operational intensity ``I_x = W / M_x`` (``inf`` when ``M_x = 0``)."""
        if self.metric_count == 0:
            return math.inf
        return self.work / self.metric_count

    @property
    def has_finite_intensity(self) -> bool:
        return self.metric_count > 0

    def as_point(self) -> tuple[float, float]:
        """The sample as an ``(I_x, P)`` point for fitting and plotting."""
        return (self.intensity, self.throughput)

    def to_dict(self) -> dict:
        return {
            "metric": self.metric,
            "time": self.time,
            "work": self.work,
            "metric_count": self.metric_count,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "Sample":
        try:
            return cls(
                metric=str(payload["metric"]),
                time=float(payload["time"]),
                work=float(payload["work"]),
                metric_count=float(payload["metric_count"]),
            )
        except KeyError as missing:
            raise DataError(f"sample record is missing field {missing}") from None


class SampleSet:
    """An ordered collection of samples with per-metric grouping.

    The grouping mirrors both the training flow (paper Figure 3: samples
    grouped by metric, one roofline per group) and the estimation flow
    (Figure 4: per-metric time-weighted averages).

    Two storage layers coexist:

    - the classic object layer (``Sample`` instances, per-metric lists);
    - a columnar mirror (:class:`~repro.core.columns.SampleArray`),
      exposed through :meth:`columns`, that the vectorized kernels use.

    A set built through :meth:`from_columns` is *lazy*: ``Sample`` objects
    materialize only when object-level access (iteration, ``grouped()``,
    ``for_metric``) is requested, so the hot path — collect, train,
    estimate — never pays for them.
    """

    def __init__(self, samples: Iterable[Sample] = ()):
        self._samples: list[Sample] = []
        self._by_metric: dict[str, list[Sample]] = defaultdict(list)
        self._columns = None          # cached SampleArray mirror
        self._grouped = None          # cached grouped() mapping
        self._lazy = None             # SampleArray not yet materialized
        self.extend(samples)

    # ------------------------------------------------------------------
    # Columnar interop
    # ------------------------------------------------------------------

    @classmethod
    def from_columns(cls, array) -> "SampleSet":
        """Wrap a :class:`~repro.core.columns.SampleArray` without
        materializing ``Sample`` objects.

        The array must hold values that satisfy the strict :class:`Sample`
        invariants (the collector sanitizes before building columns;
        loaders validate) — materialization reconstructs objects through
        the checking constructor and would raise otherwise.
        """
        instance = cls.__new__(cls)
        instance._samples = []
        instance._by_metric = defaultdict(list)
        instance._columns = array
        instance._grouped = None
        instance._lazy = array
        return instance

    def columns(self):
        """This set as a :class:`~repro.core.columns.SampleArray` (cached)."""
        if self._columns is None:
            from repro.core.columns import SampleArray

            self._columns = SampleArray.from_samples(self._samples)
        return self._columns

    def _materialize(self) -> None:
        """Build the object layer from pending columns, once."""
        if self._lazy is None:
            return
        array, self._lazy = self._lazy, None
        for sample in array.iter_samples():
            self._samples.append(sample)
            self._by_metric[sample.metric].append(sample)

    def _invalidate(self) -> None:
        self._columns = None
        self._grouped = None

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def add(self, sample: Sample) -> None:
        if not isinstance(sample, Sample):
            raise DataError(f"expected a Sample, got {type(sample).__name__}")
        self._materialize()
        self._invalidate()
        self._samples.append(sample)
        self._by_metric[sample.metric].append(sample)

    def extend(self, samples: Iterable[Sample]) -> None:
        for sample in samples:
            self.add(sample)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        if self._lazy is not None:
            return len(self._lazy)
        return len(self._samples)

    def __iter__(self) -> Iterator[Sample]:
        self._materialize()
        return iter(self._samples)

    def __bool__(self) -> bool:
        return len(self) > 0

    def __repr__(self) -> str:
        return f"SampleSet({len(self)} samples, {len(self.metrics())} metrics)"

    def metrics(self) -> list[str]:
        """Metric names present in this set, in first-seen order."""
        if self._lazy is not None:
            return self._lazy.metrics()
        return list(self._by_metric.keys())

    def for_metric(self, metric: str) -> list[Sample]:
        """All samples of one metric (empty list if absent)."""
        self._materialize()
        return list(self._by_metric.get(metric, ()))

    def grouped(self) -> dict[str, list[Sample]]:
        """Mapping of metric name to its samples (cached until mutation).

        The same immutable samples are regrouped by training, estimation,
        sanitization and validation passes, so the grouping is computed
        once and reused; the returned lists are shared with the cache —
        treat them as read-only.
        """
        if self._grouped is None:
            self._materialize()
            self._grouped = {
                metric: list(samples)
                for metric, samples in self._by_metric.items()
            }
        return dict(self._grouped)

    def filtered(self, predicate: Callable[[Sample], bool]) -> "SampleSet":
        """A new set containing only samples for which ``predicate`` holds."""
        self._materialize()
        return SampleSet(s for s in self._samples if predicate(s))

    def restricted_to(self, metrics: Iterable[str]) -> "SampleSet":
        """A new set containing only the given metrics."""
        wanted = set(metrics)
        return self.filtered(lambda s: s.metric in wanted)

    def merged_with(self, other: "SampleSet") -> "SampleSet":
        """A new set with this set's samples followed by ``other``'s."""
        self._materialize()
        result = SampleSet(self._samples)
        result.extend(other)
        return result

    def total_time(self, metric: str | None = None) -> float:
        """Sum of sample periods, optionally restricted to one metric."""
        if self._lazy is not None:
            return self._lazy.total_time(metric)
        samples = self._samples if metric is None else self._by_metric.get(metric, ())
        return left_sum(s.time for s in samples)

    def measured_throughput(self, metric: str | None = None) -> float:
        """Aggregate observed throughput ``sum(W) / sum(T)``.

        With shared ``T``/``W`` counters this equals the workload's measured
        throughput (e.g. its IPC) regardless of which metric's samples are
        used; the optional filter supports multiplexed collections where
        each metric observed different slices of the run.
        """
        if self._lazy is not None:
            return self._lazy.measured_throughput(metric)
        samples = self._samples if metric is None else self._by_metric.get(metric, ())
        total_time = left_sum(s.time for s in samples)
        if total_time == 0:
            raise DataError("cannot compute measured throughput of an empty sample set")
        return left_sum(s.work for s in samples) / total_time

    def to_records(self) -> list[dict]:
        if self._lazy is not None:
            return self._lazy.to_records()
        return [s.to_dict() for s in self._samples]

    @classmethod
    def from_records(cls, records: Iterable[Mapping]) -> "SampleSet":
        from repro.core.columns import SampleArray, scalar_fallback_enabled

        if scalar_fallback_enabled():
            return cls(Sample.from_dict(r) for r in records)
        return cls.from_columns(SampleArray.from_records(records, validate=True))


def left_sum(values: Iterable[float]) -> float:
    """``sum(values)`` added strictly left to right, starting from ``0``.

    CPython 3.12 made ``sum()`` of floats compensated (Neumaier), so its
    result depends on the interpreter.  This is 3.11's plain fold, which
    the ``np.cumsum`` twins of the scalar references match bit for bit.
    """
    return reduce(operator.add, values, 0)


def time_weighted_average(values: Sequence[float], times: Sequence[float]) -> float:
    """Eq. (1): merge per-sample estimates with a time-weighted average.

    ``P̄ = Σ T⁽ⁱ⁾ P⁽ⁱ⁾ / Σ T⁽ⁱ⁾``
    """
    if len(values) != len(times):
        raise DataError(
            f"value/time length mismatch: {len(values)} values, {len(times)} times"
        )
    if not values:
        raise DataError("cannot average an empty sequence")
    total_time = float(left_sum(times))
    if total_time <= 0:
        raise DataError("total sample time must be positive")
    return float(left_sum(v * t for v, t in zip(values, times))) / total_time
