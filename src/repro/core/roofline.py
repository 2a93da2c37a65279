"""A single performance-metric roofline (paper §III-B).

Each roofline maps one metric's operational intensity ``I_x`` to a maximum
throughput estimate.  Training splits the intensity axis at the
highest-throughput sample (the *apex*): the left region is fit with an
increasing concave-down chain (:mod:`repro.core.left_fit`) and the right
region with a decreasing concave-up chain (:mod:`repro.core.right_fit`).
The combined function lies on or above every training sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from repro.core.direction import (
    MIXED,
    NEGATIVE_METRIC,
    POSITIVE_METRIC,
    detect_direction,
    detect_direction_arrays,
)
from repro.core.left_fit import fit_left_region, fit_left_region_arrays
from repro.core.right_fit import (
    RightFitOptions,
    RightFitResult,
    fit_right_region,
    fit_right_region_arrays,
)
from repro.core.sample import Sample, time_weighted_average
from repro.errors import FitError
from repro.fastpath import scalar_fallback_enabled
from repro.geometry.piecewise import Breakpoint, PiecewiseLinear


@dataclass(frozen=True, slots=True)
class RooflineFitOptions:
    """Options shared by all rooflines in an ensemble.

    ``direction_mode`` selects how the left/right split is decided:

    - ``"apex-split"`` (the paper's algorithm): split at the
      highest-throughput sample and fit both regions;
    - ``"trend"`` (the robustness improvement §V suggests): first classify
      the metric by the rank correlation between intensity and throughput.
      A clearly *negative* metric keeps a flat bound past the apex instead
      of a decreasing right region (fixing the paper's BP.1 defect); a
      clearly *positive* metric keeps a flat bound before the apex instead
      of a rising left region (suppressing the DB.2 confounding trend);
      ambiguous metrics fall back to the apex split.
    """

    right: RightFitOptions = field(default_factory=RightFitOptions)
    keep_samples: bool = True
    direction_mode: str = "apex-split"
    direction_threshold: float = 0.4

    def __post_init__(self) -> None:
        if self.direction_mode not in ("apex-split", "trend"):
            raise FitError(
                f"direction_mode must be apex-split|trend, got "
                f"{self.direction_mode!r}"
            )
        if not 0.0 < self.direction_threshold <= 1.0:
            raise FitError("direction_threshold must be in (0, 1]")


def _training_columns(intensity, throughput) -> tuple[np.ndarray, np.ndarray]:
    """Read-only float64 copies of row-aligned ``(I_x, P)`` columns.

    The copies belong to the roofline that keeps them, so a caller
    writing to its own arrays after a fit changes nothing.
    """
    columns = (
        np.array(intensity, dtype=np.float64),
        np.array(throughput, dtype=np.float64),
    )
    for column in columns:
        column.flags.writeable = False
    return columns


def _columns_of_points(
    points: Sequence[tuple[float, float]],
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_training_columns` of a list of ``(I_x, P)`` points."""
    return _training_columns([x for x, _ in points], [y for _, y in points])


_NO_TRAINING = _training_columns((), ())


@dataclass
class MetricRoofline:
    """A trained piecewise linear roofline for one performance metric.

    ``training_columns`` holds the retained training samples as two
    read-only float64 columns, ``(I_x, P)``; they are empty when the fit
    ran with ``keep_samples=False`` or the roofline was loaded from a
    compact model file.
    """

    metric: str
    function: PiecewiseLinear
    apex: Breakpoint
    sample_count: int
    infinite_sample_count: int = 0
    right_fit: RightFitResult | None = None
    training_columns: tuple[np.ndarray, np.ndarray] = field(
        default=_NO_TRAINING, compare=False, repr=False
    )
    direction: str = MIXED

    @property
    def training_points(self) -> list[tuple[float, float]]:
        """The retained training samples as ``(I_x, P)`` tuples.

        Built from :attr:`training_columns` on each access.
        """
        x, y = self.training_columns
        return list(zip(x.tolist(), y.tolist()))

    def estimate(self, intensity: float) -> float:
        """Maximum-throughput estimate at operational intensity ``I_x``.

        Accepts ``math.inf`` (a period in which the metric never fired),
        which evaluates to the roofline's flat tail.
        """
        if math.isnan(intensity):
            raise FitError(f"intensity for metric {self.metric!r} is NaN")
        if intensity < 0:
            raise FitError(
                f"intensity for metric {self.metric!r} must be non-negative, "
                f"got {intensity}"
            )
        if math.isinf(intensity):
            return self.function.breakpoints[-1].y
        return self.function(intensity)

    def estimate_batch(self, intensities, *, validated: bool = False) -> np.ndarray:
        """Vectorized :meth:`estimate` over an intensity array.

        Identical contract: NaN or negative intensities raise
        :class:`FitError` for the first offending value in array order;
        ``inf`` evaluates to the roofline's flat tail.  ``validated=True``
        skips the NaN/negative screen — callers passing intensities from a
        validated :class:`~repro.core.columns.SampleArray` (never NaN,
        never negative by construction) use it to avoid paying the check
        per batch.
        """
        values = np.asarray(intensities, dtype=np.float64)
        if validated:
            bad = None
        else:
            with np.errstate(invalid="ignore"):
                bad = np.isnan(values) | (values < 0)
        if bad is not None and bad.any():
            offender = float(values[int(np.argmax(bad))])
            if math.isnan(offender):
                raise FitError(f"intensity for metric {self.metric!r} is NaN")
            raise FitError(
                f"intensity for metric {self.metric!r} must be non-negative, "
                f"got {offender}"
            )
        infinite = np.isinf(values)
        if infinite.any():
            result = np.empty(values.shape, dtype=np.float64)
            result[infinite] = self.function.breakpoints[-1].y
            finite = ~infinite
            result[finite] = self.function.evaluate_array(values[finite])
            return result
        return self.function.evaluate_array(values)

    def estimate_sample(self, sample: Sample) -> float:
        """Estimate for one sample of this roofline's metric."""
        if sample.metric != self.metric:
            raise FitError(
                f"sample metric {sample.metric!r} does not match roofline "
                f"{self.metric!r}"
            )
        return self.estimate(sample.intensity)

    def estimate_samples(self, samples: Sequence[Sample]) -> float:
        """Time-weighted average estimate over many samples (Eq. 1)."""
        if not samples:
            raise FitError(f"no samples provided for metric {self.metric!r}")
        estimates = [self.estimate_sample(s) for s in samples]
        times = [s.time for s in samples]
        return time_weighted_average(estimates, times)

    def is_upper_bound_of_training_data(self, tolerance: float = 1e-9) -> bool:
        """Validate the core invariant against the retained training points."""
        points = self.training_points
        finite = [(x, y) for x, y in points if math.isfinite(x)]
        if not self.function.is_upper_bound_of(finite, tolerance=tolerance):
            return False
        tail = self.function.breakpoints[-1].y
        for x, y in points:
            if math.isinf(x) and tail < y - tolerance * max(1.0, abs(y)):
                return False
        return True

    def to_dict(self, include_training: bool = False) -> dict:
        """Serialize the roofline.

        ``include_training`` additionally persists the retained training
        points, which plot/ablation consumers need; the default keeps the
        compact model format used by :mod:`repro.io.dataset`.
        """
        payload = {
            "metric": self.metric,
            "function": self.function.to_dict(),
            "apex": [self.apex.x, self.apex.y],
            "sample_count": self.sample_count,
            "infinite_sample_count": self.infinite_sample_count,
            "direction": self.direction,
        }
        if include_training:
            payload["training_points"] = [[x, y] for x, y in self.training_points]
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "MetricRoofline":
        return cls(
            metric=payload["metric"],
            function=PiecewiseLinear.from_dict(payload["function"]),
            apex=Breakpoint(*payload["apex"]),
            sample_count=int(payload["sample_count"]),
            infinite_sample_count=int(payload.get("infinite_sample_count", 0)),
            training_columns=_columns_of_points(
                [
                    (float(x), float(y))
                    for x, y in payload.get("training_points", [])
                ]
            ),
            direction=payload.get("direction", MIXED),
        )


def fit_metric_roofline(
    samples: Iterable[Sample],
    options: RooflineFitOptions | None = None,
) -> MetricRoofline:
    """Train one metric roofline from its group of samples (Figure 3).

    Accepts an iterable of :class:`Sample` objects or a columnar
    :class:`~repro.core.columns.SampleArray`.  The vectorized kernels run
    unless ``SPIRE_SCALAR_FALLBACK`` forces the scalar reference,
    :func:`fit_metric_roofline_scalar`.

    Raises :class:`FitError` when the group is empty or the samples belong
    to more than one metric.
    """
    from repro.core.columns import SampleArray

    opts = options or RooflineFitOptions()
    if isinstance(samples, SampleArray):
        if not len(samples):
            raise FitError("cannot fit a roofline to zero samples")
        first = int(samples.metric_ids[0])
        mixed = samples.metric_ids != first
        if mixed.any():
            other = samples.metric_names[int(samples.metric_ids[int(np.argmax(mixed))])]
            raise FitError(
                f"mixed metrics in one roofline group: "
                f"{samples.metric_names[first]!r} and {other!r}"
            )
        metric = samples.metric_names[first]
        if scalar_fallback_enabled():
            return fit_metric_roofline_scalar(
                metric, [s.as_point() for s in samples.iter_samples()], opts
            )
        return fit_metric_roofline_arrays(
            metric, samples.intensity, samples.throughput, options=opts
        )
    sample_list = list(samples)
    if not sample_list:
        raise FitError("cannot fit a roofline to zero samples")
    metric = sample_list[0].metric
    for sample in sample_list:
        if sample.metric != metric:
            raise FitError(
                f"mixed metrics in one roofline group: {metric!r} and "
                f"{sample.metric!r}"
            )
    if scalar_fallback_enabled():
        return fit_metric_roofline_scalar(
            metric, [s.as_point() for s in sample_list], opts
        )
    return fit_metric_roofline_arrays(
        metric,
        np.asarray([s.intensity for s in sample_list], dtype=np.float64),
        np.asarray([s.throughput for s in sample_list], dtype=np.float64),
        options=opts,
    )


def fit_metric_roofline_scalar(
    metric: str,
    points: Sequence[tuple[float, float]],
    opts: RooflineFitOptions,
) -> MetricRoofline:
    """The scalar reference fit (the fallback path's oracle).

    Runs the scalar reference of every fit kernel: the left hull, the
    Pareto front and direction detection.  ``points`` are one metric's
    ``(I_x, P)`` points, as :func:`fit_metric_roofline_arrays` takes
    columns, and must be non-empty.
    """
    kept = _columns_of_points(points) if opts.keep_samples else _NO_TRAINING
    finite = [(x, y) for x, y in points if math.isfinite(x)]
    infinite_levels = [y for x, y in points if math.isinf(x)]

    if not finite:
        # The metric never fired in any training period; the only defensible
        # bound is a constant at the best observed throughput.
        level = max(infinite_levels)
        apex = Breakpoint(0.0, level)
        function = PiecewiseLinear([apex])
        return MetricRoofline(
            metric=metric,
            function=function,
            apex=apex,
            sample_count=len(points),
            infinite_sample_count=len(infinite_levels),
            training_columns=kept,
        )

    # The apex is the highest-throughput sample; ties break toward the
    # smallest intensity so that equal-throughput samples further right are
    # handled by the right region's Pareto front (a flat top).
    peak = max(y for _, y in finite)
    apex_x, apex_y = min((p for p in finite if p[1] == peak), key=lambda p: p[0])
    apex = Breakpoint(apex_x, apex_y)

    direction = detect_direction(finite, threshold=opts.direction_threshold)
    use_trend = opts.direction_mode == "trend"

    left_points = [(x, y) for x, y in finite if x <= apex_x]
    right_points = [(x, y) for x, y in finite if x >= apex_x]

    if use_trend and direction == POSITIVE_METRIC:
        # A clearly positive metric: the rising left region is confounded
        # (paper §V, DB.2), so bound it flat at the apex level instead.
        left = [Breakpoint(0.0, apex_y), Breakpoint(apex_x, apex_y)]
    else:
        left = fit_left_region(left_points, (apex_x, apex_y))

    best_infinite = max(infinite_levels, default=-math.inf)
    if use_trend and direction == NEGATIVE_METRIC:
        # A clearly negative metric: never let the right fitting algorithm
        # pull the bound down past the apex (paper §V, BP.1 defect).
        right = RightFitResult(
            breakpoints=[apex], front=[(apex_x, apex_y)], total_error=0.0
        )
    else:
        right = fit_right_region(
            right_points,
            (apex_x, apex_y),
            infinite_throughputs=[min(level, apex_y) for level in infinite_levels],
            options=opts.right,
        )

    breakpoints = list(left)
    for bp in right.breakpoints:
        if breakpoints and bp == breakpoints[-1]:
            continue
        breakpoints.append(bp)
    if best_infinite > apex_y:
        # Rare corner: the best-performing periods never fired the metric at
        # all.  Keep the tail at that level so the function remains an upper
        # bound of every sample, at the cost of one upward step.
        tail_x = breakpoints[-1].x
        breakpoints.append(Breakpoint(tail_x, best_infinite))

    return MetricRoofline(
        metric=metric,
        function=PiecewiseLinear(breakpoints),
        apex=apex,
        sample_count=len(points),
        infinite_sample_count=len(infinite_levels),
        right_fit=right,
        training_columns=kept,
        direction=direction,
    )


def fit_metric_roofline_arrays(
    metric: str,
    intensity: np.ndarray,
    throughput: np.ndarray,
    options: RooflineFitOptions | None = None,
) -> MetricRoofline:
    """Vectorized :func:`fit_metric_roofline` over ``(I_x, P)`` columns.

    ``intensity`` may contain ``inf`` (periods in which the metric never
    fired); both columns must be row-aligned for one metric.
    """
    opts = options or RooflineFitOptions()
    x = np.asarray(intensity, dtype=np.float64)
    y = np.asarray(throughput, dtype=np.float64)
    if not len(x):
        raise FitError("cannot fit a roofline to zero samples")

    finite_mask = np.isfinite(x)
    fin_x, fin_y = x[finite_mask], y[finite_mask]
    infinite_levels = y[~finite_mask]

    kept = _training_columns(x, y) if opts.keep_samples else _NO_TRAINING

    if not len(fin_x):
        # The metric never fired in any training period; the only defensible
        # bound is a constant at the best observed throughput.
        level = float(infinite_levels.max())
        apex = Breakpoint(0.0, level)
        function = PiecewiseLinear([apex])
        return MetricRoofline(
            metric=metric,
            function=function,
            apex=apex,
            sample_count=len(x),
            infinite_sample_count=len(infinite_levels),
            training_columns=kept,
        )

    # The apex is the highest-throughput sample; ties break toward the
    # smallest intensity so that equal-throughput samples further right are
    # handled by the right region's Pareto front (a flat top).
    peak = fin_y.max()
    apex_x = float(fin_x[fin_y == peak].min())
    apex_y = float(peak)
    apex = Breakpoint(apex_x, apex_y)

    direction = detect_direction_arrays(
        fin_x, fin_y, threshold=opts.direction_threshold
    )
    use_trend = opts.direction_mode == "trend"

    left_mask = fin_x <= apex_x
    right_mask = fin_x >= apex_x

    if use_trend and direction == POSITIVE_METRIC:
        # A clearly positive metric: the rising left region is confounded
        # (paper §V, DB.2), so bound it flat at the apex level instead.
        left = [Breakpoint(0.0, apex_y), Breakpoint(apex_x, apex_y)]
    else:
        left = fit_left_region_arrays(
            fin_x[left_mask], fin_y[left_mask], (apex_x, apex_y)
        )

    best_infinite = float(infinite_levels.max()) if len(infinite_levels) else -math.inf
    if use_trend and direction == NEGATIVE_METRIC:
        # A clearly negative metric: never let the right fitting algorithm
        # pull the bound down past the apex (paper §V, BP.1 defect).
        right = RightFitResult(
            breakpoints=[apex], front=[(apex_x, apex_y)], total_error=0.0
        )
    else:
        right = fit_right_region_arrays(
            fin_x[right_mask],
            fin_y[right_mask],
            (apex_x, apex_y),
            infinite_throughputs=np.minimum(infinite_levels, apex_y),
            options=opts.right,
        )

    breakpoints = list(left)
    for bp in right.breakpoints:
        if breakpoints and bp == breakpoints[-1]:
            continue
        breakpoints.append(bp)
    if best_infinite > apex_y:
        # Rare corner: the best-performing periods never fired the metric at
        # all.  Keep the tail at that level so the function remains an upper
        # bound of every sample, at the cost of one upward step.
        tail_x = breakpoints[-1].x
        breakpoints.append(Breakpoint(tail_x, best_infinite))

    return MetricRoofline(
        metric=metric,
        function=PiecewiseLinear(breakpoints),
        apex=apex,
        sample_count=len(x),
        infinite_sample_count=len(infinite_levels),
        right_fit=right,
        training_columns=kept,
        direction=direction,
    )
