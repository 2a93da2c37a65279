"""Roofline maintenance for streamed samples.

A trained :class:`~repro.core.ensemble.SpireModel` is a batch object: every
roofline is fit from a complete sample set.  A live counter stream inserts
samples as they arrive, so :class:`OnlineSpire` keeps each metric's
``(I_x, P)`` points in arrival order and marks the metric dirty;
:meth:`OnlineSpire.refresh` refits only the dirty metrics, each with
:func:`~repro.core.roofline.fit_metric_roofline_arrays` over its buffered
points.  A streamed roofline is therefore the batch roofline of its
samples by construction.  ``refresh`` is an entry point: under
``SPIRE_SCALAR_FALLBACK=1`` (:mod:`repro.fastpath`) it refits with the
scalar oracle, :func:`~repro.core.roofline.fit_metric_roofline_scalar`.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.columns import SampleArray
from repro.core.ensemble import SpireModel, TrainOptions
from repro.core.roofline import (
    MetricRoofline,
    fit_metric_roofline_arrays,
    fit_metric_roofline_scalar,
)
from repro.errors import DataError, FitError
from repro.fastpath import scalar_fallback_enabled

__all__ = ["OnlineSpire"]


class OnlineSpire:
    """A SPIRE ensemble that grows as samples arrive.

    ``insert``/``insert_array``/``insert_points`` append samples to each
    metric's point lists and mark the metric dirty; :meth:`refresh`
    refits only the dirty metrics.  :meth:`model` serves the current
    ensemble with the batch trainer's starved-metric floor applied
    (metrics under ``min_samples_per_metric`` are withheld, exactly as
    :meth:`SpireModel.train` drops them).
    """

    def __init__(
        self,
        options: TrainOptions | None = None,
        work_unit: str = "instructions",
        time_unit: str = "cycles",
    ) -> None:
        self._options = options or TrainOptions()
        # Per metric, in first-seen order: intensities and throughputs in
        # arrival order (python floats, so the fit sees exact float64s).
        self._points: dict[str, tuple[list[float], list[float]]] = {}
        self._rooflines: dict[str, MetricRoofline] = {}
        self._dirty: set[str] = set()
        self.work_unit = work_unit
        self.time_unit = time_unit

    # -- Ingestion -----------------------------------------------------

    @property
    def metrics(self) -> list[str]:
        """Metric names in first-seen order, like the batch trainer."""
        return list(self._points)

    @property
    def sample_count(self) -> int:
        return sum(len(xs) for xs, _ in self._points.values())

    def insert(
        self, metric: str, time: float, work: float, metric_count: float
    ) -> None:
        """Insert one raw counter sample for ``metric``."""
        if not metric:
            raise DataError("streamed sample has an empty metric name")
        if not (time > 0) or not math.isfinite(time):
            raise DataError(
                f"streamed sample for {metric!r} needs a positive finite "
                f"time, got {time}"
            )
        if not (work >= 0) or not math.isfinite(work):
            raise DataError(
                f"streamed sample for {metric!r} needs a non-negative "
                f"finite work count, got {work}"
            )
        if not (metric_count >= 0) or not math.isfinite(metric_count):
            raise DataError(
                f"streamed sample for {metric!r} needs a non-negative "
                f"finite metric count, got {metric_count}"
            )
        # Identical arithmetic to SampleArray's float64 columns: python
        # floats are IEEE doubles, and I = inf whenever the count is zero.
        intensity = math.inf if metric_count == 0 else work / metric_count
        throughput = work / time
        xs, ys = self._points_of(metric)
        xs.append(intensity)
        ys.append(throughput)

    def insert_array(self, samples: SampleArray) -> None:
        """Insert every row of a validated :class:`SampleArray`.

        Metrics are taken in first-seen order and each metric's rows in
        ascending order, as row-by-row :meth:`insert` would.
        """
        intensity = samples.intensity
        throughput = samples.throughput
        for metric, rows in samples.group_indices().items():
            self.insert_points(metric, intensity[rows], throughput[rows])

    def insert_points(
        self, metric: str, intensity: np.ndarray, throughput: np.ndarray
    ) -> None:
        """Append one metric's ``(I_x, P)`` columns of validated samples,
        in order."""
        xs, ys = self._points_of(metric)
        xs.extend(intensity.tolist())
        ys.extend(throughput.tolist())

    def _points_of(self, metric: str) -> tuple[list[float], list[float]]:
        """The metric's point lists, created on first sight; marks it dirty."""
        points = self._points.get(metric)
        if points is None:
            points = self._points[metric] = ([], [])
        self._dirty.add(metric)
        return points

    def reset_metric(self, metric: str) -> None:
        """Forget a metric's points and fit (drift repair re-seeds it)."""
        self._points.pop(metric, None)
        self._rooflines.pop(metric, None)
        self._dirty.discard(metric)

    # -- Refitting -----------------------------------------------------

    def refresh(self) -> list[str]:
        """Refit every dirty metric; returns the refit metric names."""
        scalar = scalar_fallback_enabled()
        options = self._options.roofline
        refitted = []
        for metric, (xs, ys) in self._points.items():
            if metric not in self._dirty:
                continue
            self._rooflines[metric] = (
                fit_metric_roofline_scalar(metric, list(zip(xs, ys)), options)
                if scalar
                else fit_metric_roofline_arrays(metric, xs, ys, options)
            )
            self._dirty.discard(metric)
            refitted.append(metric)
        return refitted

    # -- Serving -------------------------------------------------------

    def roofline(self, metric: str) -> MetricRoofline | None:
        """The current fit for ``metric`` (None if unknown or starved)."""
        roofline = self._rooflines.get(metric)
        if roofline is None:
            return None
        xs, _ = self._points[metric]  # a fit exists only for kept points
        if len(xs) < self._options.min_samples_per_metric:
            return None
        return roofline

    def model(self) -> SpireModel:
        """The current ensemble, starved metrics withheld."""
        if self._dirty:
            self.refresh()
        rooflines = {}
        for metric in self._points:
            roofline = self.roofline(metric)
            if roofline is not None:
                rooflines[metric] = roofline
        if not rooflines:
            raise FitError(
                "no streamed metric has reached "
                f"{self._options.min_samples_per_metric} sample(s) yet"
            )
        return SpireModel(
            rooflines, work_unit=self.work_unit, time_unit=self.time_unit
        )
