"""Incremental roofline maintenance for streamed samples.

A trained :class:`~repro.core.ensemble.SpireModel` is a batch object: every
roofline is fit from a complete sample set.  A live counter stream inserts
one sample at a time, and refitting every metric from scratch per sample is
wasteful — the fit only depends on a metric's Pareto front (right region),
its upper concave hull candidates (left region) and a handful of scalars.

:class:`MetricStreamState` maintains exactly those structures under
insertion:

- the *Pareto front* of all finite-intensity points, updated in
  ``O(log n)`` amortized per insert (dominated points are pruned for good;
  a dominated insert is a no-op);
- the *left-hull candidate set*: points at or left of the apex that are
  not strictly below the last fitted chain (points below the chain can
  never become hull vertices while the apex stands — the hull of a
  superset is pointwise above the hull of a subset);
- the *apex* and the append-only buffers a full refit needs (finite
  points in arrival order for direction detection, infinite-intensity
  levels in arrival order for the flat-tail error, everything for the
  retained training points).

:meth:`OnlineSpire.refresh` then refits only the metrics that changed,
feeding the maintained structures to the same public fitting kernels the
batch path uses (:func:`~repro.core.right_fit.fit_right_region_arrays`,
:func:`~repro.core.left_fit.fit_left_region_arrays`), so the result is
*bit-equivalent* to a batch rebuild — not merely close.  The equivalence
is enforced at runtime: the refit dispatches through the
``"stream.update"`` kernel guard (:mod:`repro.guard.dispatch`), whose
sampled oracle is a full batch rebuild of the same metric compared field
for field.  A divergence trips the breaker and every later refit for the
process takes the batch path.
"""

from __future__ import annotations

import math
from bisect import bisect_left

import numpy as np

from repro.core.columns import SampleArray
from repro.core.direction import (
    NEGATIVE_METRIC,
    POSITIVE_METRIC,
    detect_direction_arrays,
)
from repro.core.ensemble import SpireModel, TrainOptions
from repro.core.left_fit import fit_left_region_arrays
from repro.core.right_fit import RightFitResult, fit_right_region_arrays
from repro.core.roofline import MetricRoofline, fit_metric_roofline_arrays
from repro.errors import DataError, FitError
from repro.geometry.piecewise import Breakpoint, PiecewiseLinear
from repro.guard.dispatch import kernel_guard

__all__ = ["MetricStreamState", "OnlineSpire"]

#: Relative margin under the fitted left chain below which a candidate is
#: pruned.  Matches the tolerance grid used elsewhere (``approx_equal``,
#: ``RightFitOptions.validity_tolerance``).
_CHAIN_MARGIN = 1e-9


class MetricStreamState:
    """Incrementally maintained fitting structures for one metric."""

    __slots__ = (
        "metric",
        "x_all",
        "y_all",
        "fin_x",
        "fin_y",
        "inf_levels",
        "apex_x",
        "apex_y",
        "front_x",
        "front_y",
        "cand_x",
        "cand_y",
        "chain",
        "front_rebuilds",
    )

    def __init__(self, metric: str) -> None:
        self.metric = metric
        # Append-only arrival-order buffers (python floats; exact).
        self.x_all: list[float] = []       # intensity, may be inf
        self.y_all: list[float] = []       # throughput
        self.fin_x: list[float] = []       # finite-intensity subsequence
        self.fin_y: list[float] = []
        self.inf_levels: list[float] = []  # throughputs at I = inf
        # Maintained structures.
        self.apex_x = math.inf
        self.apex_y = -math.inf
        self.front_x: list[float] = []     # ascending x, strictly decreasing y
        self.front_y: list[float] = []
        self.cand_x: list[float] = []      # left candidates, arrival order
        self.cand_y: list[float] = []
        self.chain: list[Breakpoint] | None = None  # last fitted left chain
        self.front_rebuilds = 0            # apex moves observed (diagnostics)

    def __len__(self) -> int:
        return len(self.x_all)

    @property
    def front_size(self) -> int:
        return len(self.front_x)

    def insert(self, intensity: float, throughput: float) -> None:
        """Fold one ``(I_x, P)`` sample into the maintained structures."""
        self.x_all.append(intensity)
        self.y_all.append(throughput)
        if math.isinf(intensity):
            self.inf_levels.append(throughput)
            return
        self.fin_x.append(intensity)
        self.fin_y.append(throughput)
        if throughput > self.apex_y or (
            throughput == self.apex_y and intensity < self.apex_x
        ):
            self._move_apex(intensity, throughput)
            return
        self._front_insert(intensity, throughput)
        if intensity <= self.apex_x:
            self._candidate_insert(intensity, throughput)

    # -- Pareto front --------------------------------------------------

    def _front_insert(self, x: float, y: float) -> bool:
        """Insert into the maximizing Pareto front; True if it changed.

        The front is kept ascending in ``x`` with strictly decreasing
        ``y``, so the best possible dominator of ``(x, y)`` is the first
        member at or right of ``x``; dominated members form one
        contiguous run ending there.  Membership therefore matches
        :func:`~repro.geometry.pareto.pareto_front_arrays` over the full
        point set exactly.
        """
        fx, fy = self.front_x, self.front_y
        i = bisect_left(fx, x)
        if i < len(fx) and fy[i] >= y:
            # Weakly dominated by a distinct member, or an exact
            # duplicate of one — either way the front is unchanged.
            return False
        hi = i
        if hi < len(fx) and fx[hi] == x:
            hi += 1  # same column, lower throughput: dominated
        lo = i
        while lo > 0 and fy[lo - 1] <= y:
            lo -= 1  # dominated members left of the insertion point
        fx[lo:hi] = [x]
        fy[lo:hi] = [y]
        return True

    # -- Left-hull candidates ------------------------------------------

    def _candidate_insert(self, x: float, y: float) -> None:
        if self.chain is not None and self._below_chain(x, y):
            return
        self.cand_x.append(x)
        self.cand_y.append(y)

    def _below_chain(self, x: float, y: float) -> bool:
        """Strictly below the last fitted chain beyond the margin."""
        chain = self.chain
        if chain is None or not chain:
            return False
        xs = [bp.x for bp in chain]
        j = bisect_left(xs, x)
        if j >= len(chain):
            value = chain[-1].y
        elif chain[j].x == x:
            value = chain[j].y
        elif j == 0:
            value = chain[0].y
        else:
            a, b = chain[j - 1], chain[j]
            value = a.y + (b.y - a.y) * (x - a.x) / (b.x - a.x)
        return y < value - _CHAIN_MARGIN * max(1.0, abs(value))

    def prune_candidates(self, chain: list[Breakpoint]) -> None:
        """Drop retained candidates now strictly below a fresh chain."""
        self.chain = chain
        keep_x: list[float] = []
        keep_y: list[float] = []
        for x, y in zip(self.cand_x, self.cand_y):
            if not self._below_chain(x, y):
                keep_x.append(x)
                keep_y.append(y)
        self.cand_x, self.cand_y = keep_x, keep_y

    # -- Apex moves ----------------------------------------------------

    def _move_apex(self, x: float, y: float) -> None:
        """A new apex re-partitions the plane; rebuild from the buffers.

        The Pareto front is apex-independent (every point left of the
        apex is strictly dominated by it), but the dominance pruning of
        *earlier* inserts assumed the old apex, so the left-candidate set
        must be rebuilt; the chain cache is invalidated until the next
        refit.  The front itself only needs the new point folded in.
        """
        self.apex_x, self.apex_y = x, y
        self._front_insert(x, y)
        self.chain = None
        self.cand_x = [px for px in self.fin_x if px <= x]
        self.cand_y = [
            py for px, py in zip(self.fin_x, self.fin_y) if px <= x
        ]
        self.front_rebuilds += 1


class OnlineSpire:
    """A SPIRE ensemble that grows one sample at a time.

    ``insert``/``insert_array`` fold samples into each metric's
    :class:`MetricStreamState` and mark the metric dirty;
    :meth:`refresh` refits only the dirty metrics through the guarded
    ``"stream.update"`` kernel.  :meth:`model` serves the current
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
        self._states: dict[str, MetricStreamState] = {}
        self._rooflines: dict[str, MetricRoofline] = {}
        self._dirty: set[str] = set()
        self.work_unit = work_unit
        self.time_unit = time_unit

    # -- Ingestion -----------------------------------------------------

    @property
    def metrics(self) -> list[str]:
        """Metric names in first-seen order, like the batch trainer."""
        return list(self._states)

    @property
    def sample_count(self) -> int:
        return sum(len(state) for state in self._states.values())

    def state(self, metric: str) -> MetricStreamState | None:
        return self._states.get(metric)

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
        self._insert_point(metric, intensity, throughput)

    def insert_array(self, samples: SampleArray) -> None:
        """Insert every row of a validated :class:`SampleArray`."""
        names = samples.metric_names
        ids = samples.metric_ids
        intensity = samples.intensity
        throughput = samples.throughput
        for row in range(len(samples)):
            self._insert_point(
                names[int(ids[row])],
                float(intensity[row]),
                float(throughput[row]),
            )

    def _insert_point(
        self, metric: str, intensity: float, throughput: float
    ) -> None:
        state = self._states.get(metric)
        if state is None:
            state = self._states[metric] = MetricStreamState(metric)
        state.insert(intensity, throughput)
        self._dirty.add(metric)

    def reset_metric(self, metric: str) -> None:
        """Forget a metric's stream state (drift repair re-seeds it)."""
        self._states.pop(metric, None)
        self._rooflines.pop(metric, None)
        self._dirty.discard(metric)

    # -- Refitting -----------------------------------------------------

    def refresh(self) -> list[str]:
        """Refit every dirty metric; returns the refit metric names."""
        refitted = []
        for metric in list(self._states):
            if metric not in self._dirty:
                continue
            self._rooflines[metric] = self._refit_guarded(
                self._states[metric]
            )
            self._dirty.discard(metric)
            refitted.append(metric)
        return refitted

    def _refit_guarded(self, state: MetricStreamState) -> MetricRoofline:
        # The oracle is the *batch rebuild of the same arrays* in the same
        # ambient mode — the check is incremental-vs-batch, not
        # vectorized-vs-scalar, so it runs without force_scalar.
        guard = kernel_guard("stream.update")
        if not guard.use_fast():
            return self._refit_batch(state)
        if not guard.should_check():
            return self._refit_incremental(state)
        result = self._refit_incremental(state)
        expected = self._refit_batch(state)
        ok = self._fits_identical(result, expected)
        if guard.resolve(ok, detail=f"metric {state.metric!r}"):
            return result
        return expected

    @staticmethod
    def _fits_identical(a: MetricRoofline, b: MetricRoofline) -> bool:
        """Bit-exact comparison — the incremental path promises equality."""
        return (
            a.direction == b.direction
            and a.sample_count == b.sample_count
            and a.infinite_sample_count == b.infinite_sample_count
            and a.to_dict(include_training=True)
            == b.to_dict(include_training=True)
        )

    def _refit_batch(self, state: MetricStreamState) -> MetricRoofline:
        """The oracle: a full fit from the append-only buffers."""
        return fit_metric_roofline_arrays(
            state.metric,
            np.asarray(state.x_all, dtype=np.float64),
            np.asarray(state.y_all, dtype=np.float64),
            options=self._options.roofline,
        )

    def _refit_incremental(self, state: MetricStreamState) -> MetricRoofline:
        """Refit from the maintained structures.

        Mirrors :func:`~repro.core.roofline.fit_metric_roofline_arrays`
        step for step, but feeds the right fit the maintained Pareto
        front instead of every right-region point (the front *is* the
        Pareto front of them, and the fit only depends on it) and the
        left fit the pruned candidate set (discarded points lie strictly
        below the chain and can never be hull vertices).
        """
        opts = self._options.roofline
        if opts.keep_samples:
            points = list(zip(state.x_all, state.y_all))
        else:
            points = []

        if not state.fin_x:
            level = max(state.inf_levels)
            apex = Breakpoint(0.0, level)
            return MetricRoofline(
                metric=state.metric,
                function=PiecewiseLinear([apex]),
                apex=apex,
                sample_count=len(state.x_all),
                infinite_sample_count=len(state.inf_levels),
                training_points=points,
            )

        apex_x, apex_y = state.apex_x, state.apex_y
        apex = Breakpoint(apex_x, apex_y)
        # Spearman over the full finite buffers in arrival order — the
        # exact array the batch fit sees after its finite mask.
        direction = detect_direction_arrays(
            np.asarray(state.fin_x, dtype=np.float64),
            np.asarray(state.fin_y, dtype=np.float64),
            threshold=opts.direction_threshold,
        )
        use_trend = opts.direction_mode == "trend"

        if use_trend and direction == POSITIVE_METRIC:
            left = [Breakpoint(0.0, apex_y), Breakpoint(apex_x, apex_y)]
        else:
            left = fit_left_region_arrays(
                np.asarray(state.cand_x, dtype=np.float64),
                np.asarray(state.cand_y, dtype=np.float64),
                (apex_x, apex_y),
            )
            state.prune_candidates(left)

        inf_arr = np.asarray(state.inf_levels, dtype=np.float64)
        best_infinite = float(inf_arr.max()) if len(inf_arr) else -math.inf
        if use_trend and direction == NEGATIVE_METRIC:
            right = RightFitResult(
                breakpoints=[apex], front=[(apex_x, apex_y)], total_error=0.0
            )
        else:
            right = fit_right_region_arrays(
                np.asarray(state.front_x, dtype=np.float64),
                np.asarray(state.front_y, dtype=np.float64),
                (apex_x, apex_y),
                infinite_throughputs=np.minimum(inf_arr, apex_y),
                options=opts.right,
            )

        breakpoints = list(left)
        for bp in right.breakpoints:
            if breakpoints and bp == breakpoints[-1]:
                continue
            breakpoints.append(bp)
        if best_infinite > apex_y:
            tail_x = breakpoints[-1].x
            breakpoints.append(Breakpoint(tail_x, best_infinite))

        return MetricRoofline(
            metric=state.metric,
            function=PiecewiseLinear(breakpoints),
            apex=apex,
            sample_count=len(state.x_all),
            infinite_sample_count=len(state.inf_levels),
            right_fit=right,
            training_points=points,
            direction=direction,
        )

    # -- Serving -------------------------------------------------------

    def roofline(self, metric: str) -> MetricRoofline | None:
        """The current fit for ``metric`` (None if unknown or starved)."""
        roofline = self._rooflines.get(metric)
        if roofline is None:
            return None
        state = self._states.get(metric)
        if state is None or len(state) < self._options.min_samples_per_metric:
            return None
        return roofline

    def model(self) -> SpireModel:
        """The current ensemble, starved metrics withheld."""
        if self._dirty:
            self.refresh()
        rooflines = {}
        for metric in self._states:
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
