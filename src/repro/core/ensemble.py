"""The SPIRE ensemble model (paper §III-C, Figures 3 and 4).

Training groups samples by performance metric and fits one independent
roofline per group.  Estimation evaluates each roofline on its metric's
samples, merges per-sample estimates with a time-weighted average (Eq. 1),
and reports the minimum per-metric average as the ensemble-wide maximum
throughput.  Ranking the per-metric averages from lowest upward is SPIRE's
bottleneck analysis.

:func:`fused_estimate` computes the same per-metric averages for many
sample sets in one pass over the model's packed roofline table; the
serving micro-batcher, the stream's window estimates and
:meth:`SpireModel.analyze` use it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.core.analysis import AnalysisReport, MetricEstimate
from repro.core.columns import SampleArray, time_weighted_mean
from repro.core.roofline import (
    MetricRoofline,
    RooflineFitOptions,
    fit_metric_roofline_arrays,
    fit_metric_roofline_scalar,
)
from repro.core.sample import Sample, SampleSet, left_sum
from repro.core.sanitize import QualityReport, SampleSanitizer
from repro.errors import DegradedDataWarning, EstimationError, FitError
from repro.fastpath import scalar_fallback_enabled
from repro.geometry.piecewise import PackedPiecewise


@dataclass(frozen=True, slots=True)
class TrainOptions:
    """Ensemble-level training options."""

    roofline: RooflineFitOptions = field(default_factory=RooflineFitOptions)
    min_samples_per_metric: int = 2

    def __post_init__(self) -> None:
        if self.min_samples_per_metric < 1:
            raise FitError("min_samples_per_metric must be at least 1")


@dataclass
class EnsembleEstimate:
    """The outcome of one ensemble estimation pass (Figure 4)."""

    per_metric: dict[str, float]
    sample_counts: dict[str, int]
    skipped_metrics: list[str] = field(default_factory=list)

    @property
    def throughput(self) -> float:
        """Ensemble-wide maximum-throughput estimate: the per-metric minimum."""
        if not self.per_metric:
            raise EstimationError("estimate produced no per-metric values")
        return min(self.per_metric.values())

    @property
    def limiting_metric(self) -> str:
        """The metric whose roofline produced the minimum estimate."""
        if not self.per_metric:
            raise EstimationError("estimate produced no per-metric values")
        return min(self.per_metric, key=lambda metric: self.per_metric[metric])

    def aggregate(self, aggregator) -> float:
        """Apply an alternative aggregation strategy (see
        :mod:`repro.core.aggregation`) to the per-metric averages."""
        return aggregator(self.per_metric)

    def ranked(self) -> list[MetricEstimate]:
        """Per-metric estimates sorted from most to least limiting."""
        return sorted(
            (
                MetricEstimate(
                    metric=metric,
                    estimate=value,
                    sample_count=self.sample_counts.get(metric, 0),
                )
                for metric, value in self.per_metric.items()
            ),
            key=lambda e: (e.estimate, e.metric),
        )


class SpireModel:
    """A Statistical Piecewise Linear Roofline Ensemble.

    Parameters
    ----------
    rooflines:
        Mapping of metric name to its trained roofline.
    work_unit, time_unit:
        Unit labels carried along for reporting (e.g. ``"instructions"``
        and ``"cycles"`` make throughput an IPC).
    """

    def __init__(
        self,
        rooflines: Mapping[str, MetricRoofline],
        work_unit: str = "instructions",
        time_unit: str = "cycles",
    ):
        for metric, roofline in rooflines.items():
            if roofline.metric != metric:
                raise FitError(
                    f"roofline for key {metric!r} reports metric "
                    f"{roofline.metric!r}"
                )
        self._rooflines = dict(rooflines)
        self.work_unit = work_unit
        self.time_unit = time_unit
        self._packed: "tuple[dict[str, int], PackedPiecewise] | None" = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def train(
        cls,
        samples: SampleSet | Iterable[Sample],
        options: TrainOptions | None = None,
        work_unit: str = "instructions",
        time_unit: str = "cycles",
        quality: QualityReport | None = None,
    ) -> "SpireModel":
        """Train an ensemble from a sample set (Figure 3).

        Input is screened through a :class:`SampleSanitizer`: samples with
        NaN/Inf/negative values (possible when feeding raw records from
        degraded collections) are quarantined, and metrics with fewer than
        ``options.min_samples_per_metric`` surviving samples are dropped.
        Neither raises — a :class:`~repro.errors.DegradedDataWarning` is
        emitted and the details land in ``quality`` when the caller passes
        a report to fill.  Only an input with *no* trainable metric at all
        still raises :class:`FitError`.

        Each metric's roofline is fit independently, one after another,
        in the calling process.
        """
        opts = options or TrainOptions()
        if isinstance(samples, (SampleSet, SampleArray)):
            source = samples
        else:
            source = list(samples)
        if not source:
            raise FitError("cannot train a SPIRE model on an empty sample set")

        sanitizer = SampleSanitizer(
            min_samples_per_metric=opts.min_samples_per_metric
        )
        sample_set, report = sanitizer.sanitize(source)
        if quality is not None:
            quality.merge(report)
        if not report.ok:
            warnings.warn(
                f"training data degraded: {report.summary()}",
                DegradedDataWarning,
                stacklevel=2,
            )
        if not sample_set:
            if report.dropped_metrics:
                raise FitError(
                    "no metric reached min_samples_per_metric="
                    f"{opts.min_samples_per_metric}"
                )
            raise FitError("every training sample was quarantined")

        if scalar_fallback_enabled():
            groups = list(sample_set.grouped().items())
            fitted = [
                fit_metric_roofline_scalar(
                    metric, [s.as_point() for s in group], opts.roofline
                )
                for metric, group in groups
            ]
        else:
            # Columnar grouping: per-metric row slices of the clean array,
            # never materializing Sample objects.  Group order matches
            # grouped() (first-seen), so the trained model is identical.
            array = sample_set.columns()
            groups = list(array.group_indices().items())
            # Columnar fits slice the pooled intensity/throughput
            # columns directly — no per-group SampleArray construction.
            intensity, throughput = array.intensity, array.throughput
            fitted = [
                fit_metric_roofline_arrays(
                    metric, intensity[rows], throughput[rows],
                    options=opts.roofline,
                )
                for metric, rows in groups
            ]

        rooflines = {metric: roofline for (metric, _), roofline in zip(groups, fitted)}
        return cls(rooflines, work_unit=work_unit, time_unit=time_unit)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def metrics(self) -> list[str]:
        """Metric names covered by this ensemble, sorted."""
        return sorted(self._rooflines)

    def __len__(self) -> int:
        return len(self._rooflines)

    def __contains__(self, metric: str) -> bool:
        return metric in self._rooflines

    def __repr__(self) -> str:
        return (
            f"SpireModel({len(self)} rooflines, throughput in "
            f"{self.work_unit}/{self.time_unit})"
        )

    def roofline(self, metric: str) -> MetricRoofline:
        """The trained roofline for ``metric``."""
        try:
            return self._rooflines[metric]
        except KeyError:
            raise EstimationError(f"model has no roofline for metric {metric!r}") from None

    def packed_rooflines(self) -> "tuple[dict[str, int], PackedPiecewise]":
        """Every roofline in one :class:`PackedPiecewise`, built once.

        Returns ``(index, table)``, where ``index[metric]`` is the
        metric's function number in ``table``.  Caching is safe because
        ``_rooflines`` is copied at construction and never written.
        """
        if self._packed is None:
            index = {metric: k for k, metric in enumerate(self._rooflines)}
            table = PackedPiecewise(
                [roofline.function for roofline in self._rooflines.values()]
            )
            self._packed = (index, table)
        return self._packed

    # ------------------------------------------------------------------
    # Estimation and analysis
    # ------------------------------------------------------------------

    def estimate(
        self,
        samples: SampleSet | Iterable[Sample],
        strict: bool = False,
    ) -> EnsembleEstimate:
        """Estimate a workload's maximum throughput (Figure 4).

        Samples of metrics absent from the ensemble are skipped (collected
        in ``skipped_metrics``) unless ``strict`` is set, in which case
        they raise :class:`EstimationError`, as :func:`finish_estimate`
        does for totals that overflow.  Takes the columnar path unless
        ``SPIRE_SCALAR_FALLBACK`` forces the scalar reference.
        """
        sample_set = _as_sample_set(samples)
        if not sample_set:
            raise EstimationError("cannot estimate from an empty sample set")

        parts = (
            self._estimate_scalar(sample_set, strict)
            if scalar_fallback_enabled()
            else self._estimate_columnar(sample_set, strict)
        )
        return finish_estimate(*parts)

    def _estimate_scalar(
        self, sample_set: SampleSet, strict: bool
    ) -> tuple[dict[str, float], dict[str, int], list[str]]:
        """The retained scalar reference behind :meth:`estimate`."""
        per_metric: dict[str, float] = {}
        counts: dict[str, int] = {}
        skipped: list[str] = []
        for metric, group in sample_set.grouped().items():
            roofline = self._rooflines.get(metric)
            if roofline is None:
                if strict:
                    raise EstimationError(
                        f"model has no roofline for metric {metric!r}"
                    )
                skipped.append(metric)
                continue
            per_metric[metric] = roofline.estimate_samples(group)
            counts[metric] = len(group)
        return per_metric, counts, skipped

    def _estimate_columnar(
        self, sample_set: SampleSet, strict: bool
    ) -> tuple[dict[str, float], dict[str, int], list[str]]:
        # Columnar estimation: one batch roofline evaluation plus one
        # time-weighted array reduction per metric (Eq. 1).
        per_metric: dict[str, float] = {}
        counts: dict[str, int] = {}
        skipped: list[str] = []
        array = sample_set.columns()
        intensity = array.intensity
        for metric, rows in array.group_indices().items():
            roofline = self._rooflines.get(metric)
            if roofline is None:
                if strict:
                    raise EstimationError(
                        f"model has no roofline for metric {metric!r}"
                    )
                skipped.append(metric)
                continue
            estimates = roofline.estimate_batch(
                intensity[rows], validated=True
            )
            per_metric[metric] = time_weighted_mean(
                estimates, array.time[rows]
            )
            counts[metric] = len(rows)
        return per_metric, counts, skipped

    def analyze(
        self,
        samples: SampleSet | Iterable[Sample],
        workload: str = "",
        top_k: int = 10,
        metric_areas: Mapping[str, str] | None = None,
    ) -> AnalysisReport:
        """Full bottleneck analysis: ranked metrics plus measured throughput.

        ``metric_areas`` optionally maps metric names to microarchitecture
        areas (e.g. TMA top-level categories) for agreement reporting.
        The estimate is :func:`packed_estimate`'s, which is
        :meth:`estimate`'s bit for bit.
        """
        sample_set = _as_sample_set(samples)
        estimate = packed_estimate(self, sample_set)
        measured = sample_set.measured_throughput()
        return AnalysisReport(
            workload=workload,
            measured_throughput=measured,
            estimated_throughput=estimate.throughput,
            ranking=estimate.ranked(),
            top_k=top_k,
            metric_areas=dict(metric_areas or {}),
            work_unit=self.work_unit,
            time_unit=self.time_unit,
        )

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def to_dict(self, include_training: bool = False) -> dict:
        return {
            "work_unit": self.work_unit,
            "time_unit": self.time_unit,
            "rooflines": {
                m: r.to_dict(include_training=include_training)
                for m, r in self._rooflines.items()
            },
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SpireModel":
        rooflines = {
            metric: MetricRoofline.from_dict(entry)
            for metric, entry in payload["rooflines"].items()
        }
        return cls(
            rooflines,
            work_unit=payload.get("work_unit", "instructions"),
            time_unit=payload.get("time_unit", "cycles"),
        )


_NO_COVERAGE = "none of the sample metrics are covered by this model"


def _segment_ordered_sums(
    values: np.ndarray, starts: np.ndarray, lengths: np.ndarray
) -> np.ndarray:
    """Left-to-right sum of each contiguous segment.

    One unbuffered ``np.add.at`` adds every segment's rows, in ascending
    order, into a ``-0.0`` accumulator.  ``-0.0 + x`` is ``x`` bitwise, so
    each total is ``np.cumsum(segment)[-1]`` bit for bit.
    """
    segment = np.repeat(np.arange(len(starts)), lengths)
    offsets = np.repeat(starts - np.cumsum(lengths) + lengths, lengths)
    totals = np.full(len(starts), -0.0)
    np.add.at(totals, segment, values[np.arange(len(segment)) + offsets])
    return totals


def fused_estimate(
    model: SpireModel,
    arrays: Sequence[SampleArray],
    bounds: np.ndarray | None = None,
) -> list[tuple]:
    """Eq. 1 for many sample arrays in one pass over the packed table.

    Returns one ``(per_metric, sample_counts, skipped_metrics)`` tuple
    per array, bit for bit what :meth:`SpireModel.estimate` computes
    for it alone, with dict/list entries in the array's own first-seen
    metric order.  An all-uncovered array yields an empty
    ``per_metric``; the caller maps that to the per-array error.

    ``bounds`` may carry row estimates already evaluated, one entry per
    row of the arrays in turn: a row's bound under ``model``'s roofline
    for its metric, or NaN where it is still to be evaluated (a bound
    is never NaN: breakpoints are finite and NaN intensities raise).
    Only the covered rows without one are evaluated.

    - roofline evaluation is elementwise, and the packed table applies
      the same rules and float expressions as
      ``PiecewiseLinear.evaluate_array``, so batching rows across arrays
      and metrics cannot change any row's estimate, and neither can
      evaluating it on another model's table;
    - the stable ``(metric, array)`` lexsort preserves original row
      order inside every segment, matching ``group_indices``'s
      ascending rows;
    - Eq. 1's sums accumulate **left to right** (``np.cumsum``, not
      ``np.sum``'s pairwise tree), and ``np.add.reduceat`` does *not*
      reproduce that order; :func:`_segment_ordered_sums` does.
    """
    lengths = [len(a) for a in arrays]
    fused = SampleArray.concat(list(arrays))
    request = np.repeat(np.arange(len(arrays)), lengths)

    # Stable sort by (metric, request): rows of one (request, metric)
    # pair stay in original ascending order — exactly the rows (and row
    # order) group_indices() hands the per-request path.
    order = np.lexsort((request, fused.metric_ids))
    sorted_metric = fused.metric_ids[order]
    sorted_request = request[order]
    intensity = fused.intensity[order]
    times = fused.time[order]

    n = len(order)
    changed = np.flatnonzero(
        (np.diff(sorted_metric) != 0) | (np.diff(sorted_request) != 0)
    ) + 1
    seg_starts = np.concatenate(([0], changed))
    seg_lengths = np.diff(np.append(seg_starts, n))
    seg_metric = sorted_metric[seg_starts]
    seg_request = sorted_request[seg_starts]
    # Original fused position of each segment's first row: within one
    # request those positions order its metrics first-seen.
    seg_first_pos = order[seg_starts]

    # One packed roofline evaluation over every covered row at once.
    names = fused.metric_names
    index, table = model.packed_rooflines()
    function = np.asarray(
        [index.get(name, -1) for name in names], dtype=np.int64
    )
    covered = function >= 0
    rows = covered[sorted_metric]
    if bounds is None:
        estimates = np.zeros(n, dtype=np.float64)
    else:
        estimates = bounds[order]
        rows &= np.isnan(estimates)
    if rows.any():
        estimates[rows] = table.evaluate(
            function[sorted_metric[rows]], intensity[rows]
        )

    seg_covered = covered[seg_metric]
    live_starts = seg_starts[seg_covered]
    live_lengths = seg_lengths[seg_covered]
    numerators = _segment_ordered_sums(estimates * times, live_starts, live_lengths)
    denominators = _segment_ordered_sums(times, live_starts, live_lengths)
    seg_value = np.zeros(len(seg_starts), dtype=np.float64)
    seg_value[seg_covered] = numerators / denominators

    # Scatter: per request, walk its segments in first-seen metric order.
    scatter = np.lexsort((seg_first_pos, seg_request))
    results: list[tuple] = [({}, {}, []) for _ in range(len(arrays))]
    values = seg_value.tolist()
    counts_list = seg_lengths.tolist()
    covered_list = seg_covered.tolist()
    request_list = seg_request.tolist()
    metric_list = seg_metric.tolist()
    for seg in scatter.tolist():
        per_metric, counts, skipped = results[request_list[seg]]
        name = names[metric_list[seg]]
        if covered_list[seg]:
            per_metric[name] = values[seg]
            counts[name] = counts_list[seg]
        else:
            skipped.append(name)
    return results


def finish_estimate(
    per_metric: dict[str, float],
    sample_counts: dict[str, int],
    skipped_metrics: list[str],
) -> EnsembleEstimate:
    """:class:`EnsembleEstimate` from one estimate's per-metric parts.

    Every estimate path ends here.  No covered metric, or a non-finite
    value (finite samples whose sums overflow float64), is that call's
    :class:`EstimationError`.  No value is negative: every fitted
    breakpoint is a sample throughput, the apex level or the origin, and
    ``load_model`` refuses a file with a breakpoint below 0.
    """
    if not per_metric:
        raise EstimationError(_NO_COVERAGE)
    if not all(map(math.isfinite, per_metric.values())):
        raise EstimationError(
            "the samples' totals overflow: no finite estimate"
        )
    return EnsembleEstimate(
        per_metric=per_metric,
        sample_counts=sample_counts,
        skipped_metrics=skipped_metrics,
    )


def packed_estimate(
    model: SpireModel,
    samples: SampleSet,
    bounds: np.ndarray | None = None,
) -> EnsembleEstimate:
    """:meth:`SpireModel.estimate` of one sample set on the packed table.

    The same estimate, bit for bit, with the same errors,
    from a fixed number of NumPy calls however many metrics the model
    covers.  ``bounds`` holds row estimates already evaluated, NaN
    where not, as :func:`fused_estimate` takes them.
    ``SPIRE_SCALAR_FALLBACK`` makes it ``SpireModel.estimate``, which
    evaluates every row.
    """
    if scalar_fallback_enabled():
        return model.estimate(samples)
    if not samples:
        raise EstimationError("cannot estimate from an empty sample set")
    (parts,) = fused_estimate(model, [samples.columns()], bounds)
    return finish_estimate(*parts)


def _as_sample_set(samples) -> SampleSet:
    """Coerce estimate/analyze input into a (possibly lazy) SampleSet."""
    if isinstance(samples, SampleSet):
        return samples
    if isinstance(samples, SampleArray):
        return samples.to_sample_set()
    return SampleSet(samples)


def mean_absolute_bound_violation(
    model: SpireModel, samples: SampleSet
) -> float:
    """Average amount by which samples exceed their metric's roofline.

    Zero for training data (the fit is an upper bound by construction);
    positive values on held-out data quantify how often reality beat the
    learned bound.  Used by the ablation benchmarks.  Takes the columnar
    path unless ``SPIRE_SCALAR_FALLBACK`` forces the scalar reference.
    Each excess is clipped at 0, so the mean is never negative; finite
    samples whose excesses overflow float64 are the call's
    :class:`EstimationError`, as in :func:`finish_estimate`.
    """
    result = (
        _bound_violation_scalar(model, samples)
        if scalar_fallback_enabled()
        else _bound_violation_columnar(model, samples)
    )
    if not math.isfinite(result):
        raise EstimationError(
            "the samples' bound violations overflow: no finite mean"
        )
    return result


def _bound_violation_columnar(model: SpireModel, samples: SampleSet) -> float:
    # The scalar reference folds every violation left to right from 0
    # in grouped() order (left_sum); np.cumsum over a leading 0.0 and
    # the same order is that fold bit for bit, where np.sum's pairwise
    # tree is not.
    array = samples.columns()
    intensity = array.intensity
    throughput = array.throughput
    excesses = []
    for metric, rows in array.group_indices().items():
        if metric not in model:
            continue
        bounds = model.roofline(metric).estimate_batch(
            intensity[rows], validated=True
        )
        excesses.append(np.clip(throughput[rows] - bounds, 0.0, None))
    if not excesses:
        raise EstimationError("no overlapping metrics between model and samples")
    total = np.cumsum(np.concatenate([[0.0], *excesses]))[-1]
    return float(total / sum(len(excess) for excess in excesses))


def _bound_violation_scalar(model: SpireModel, samples: SampleSet) -> float:
    violations: list[float] = []
    for metric, group in samples.grouped().items():
        if metric not in model:
            continue
        roofline = model.roofline(metric)
        for sample in group:
            bound = roofline.estimate(sample.intensity)
            violations.append(max(0.0, sample.throughput - bound))
    if not violations:
        raise EstimationError("no overlapping metrics between model and samples")
    return float(left_sum(violations) / len(violations))
