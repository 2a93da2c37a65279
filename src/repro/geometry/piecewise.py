"""Piecewise linear functions with step-discontinuity support.

SPIRE rooflines are piecewise linear upper bounds on throughput.  The right
fitting algorithm (paper Section III-D) permits one horizontal segment that
joins the rest of the fit through a vertical drop, so the representation
must tolerate two breakpoints sharing an x coordinate.  Evaluation at such a
shared coordinate returns the *lower* of the two values: the function is an
upper bound, so the tighter value is always the correct one.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np


@dataclass(frozen=True, slots=True)
class Breakpoint:
    """A single vertex of a piecewise linear function."""

    x: float
    y: float

    def as_tuple(self) -> tuple[float, float]:
        return (self.x, self.y)


class PiecewiseLinear:
    """A piecewise linear function defined by a sequence of breakpoints.

    Breakpoints must be sorted by non-decreasing ``x``.  Between consecutive
    breakpoints the function interpolates linearly.  Outside the breakpoint
    range the function extends with the boundary value (constant
    extrapolation), which matches roofline semantics: beyond the last
    observed operational intensity the attainable-throughput bound stays
    flat.

    Two breakpoints may share an ``x`` coordinate, encoding a step
    discontinuity; evaluation at exactly that ``x`` returns the smaller
    ``y``.
    """

    def __init__(self, breakpoints: Iterable[Breakpoint | tuple[float, float]]):
        points = [
            bp if isinstance(bp, Breakpoint) else Breakpoint(float(bp[0]), float(bp[1]))
            for bp in breakpoints
        ]
        if not points:
            raise ValueError("a piecewise linear function needs at least one breakpoint")
        for left, right in zip(points, points[1:]):
            if right.x < left.x:
                raise ValueError(
                    f"breakpoints must be sorted by x: {left.x} followed by {right.x}"
                )
        self._points = points
        self._xs = [p.x for p in points]
        self._arrays: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    @property
    def breakpoints(self) -> Sequence[Breakpoint]:
        return tuple(self._points)

    @property
    def x_min(self) -> float:
        return self._points[0].x

    @property
    def x_max(self) -> float:
        return self._points[-1].x

    def __len__(self) -> int:
        return len(self._points)

    def __iter__(self) -> Iterator[Breakpoint]:
        return iter(self._points)

    def __repr__(self) -> str:
        inner = ", ".join(f"({p.x:g}, {p.y:g})" for p in self._points)
        return f"PiecewiseLinear([{inner}])"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PiecewiseLinear):
            return NotImplemented
        return self._points == other._points

    def __call__(self, x: float) -> float:
        """Evaluate the function at ``x``."""
        if math.isnan(x):
            raise ValueError("cannot evaluate a piecewise function at NaN")
        points = self._points
        if x <= points[0].x:
            return points[0].y
        if x >= points[-1].x:
            return points[-1].y
        lo = bisect_left(self._xs, x)
        hi = bisect_right(self._xs, x)
        if lo != hi:
            # x coincides with one or more breakpoints: return the tightest
            # (smallest) value among them.
            return min(p.y for p in points[lo:hi])
        left = points[lo - 1]
        right = points[lo]
        if right.x == left.x:  # pragma: no cover - excluded by bisect logic
            return min(left.y, right.y)
        frac = (x - left.x) / (right.x - left.x)
        return left.y + frac * (right.y - left.y)

    def _evaluation_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Cached ``(x, y, run_min_y)`` arrays for batch evaluation.

        ``run_min_y[p]`` is the minimum ``y`` over the run of breakpoints
        sharing ``x`` with position ``p`` — the value a step discontinuity
        evaluates to when hit exactly.
        """
        if self._arrays is None:
            bx = np.asarray(self._xs, dtype=np.float64)
            by = np.asarray([p.y for p in self._points], dtype=np.float64)
            starts = np.empty(len(bx), dtype=bool)
            starts[0] = True
            starts[1:] = bx[1:] != bx[:-1]
            start_indices = np.flatnonzero(starts)
            run_mins = np.minimum.reduceat(by, start_indices)
            counts = np.diff(np.append(start_indices, len(bx)))
            run_min_y = np.repeat(run_mins, counts)
            self._arrays = (bx, by, run_min_y)
        return self._arrays

    def evaluate_array(self, xs) -> np.ndarray:
        """Vectorized evaluation via ``np.searchsorted`` interpolation.

        Matches :meth:`__call__` exactly: constant extrapolation outside
        the breakpoint range, and the tighter (smaller) value at a step
        discontinuity's shared ``x``.
        """
        x = np.asarray(xs, dtype=np.float64)
        if np.isnan(x).any():
            raise ValueError("cannot evaluate a piecewise function at NaN")
        bx, by, run_min_y = self._evaluation_arrays()
        result = np.empty(x.shape, dtype=np.float64)
        # Boundary clamps take precedence, exactly as in __call__: at the
        # extreme coordinates the boundary breakpoint's own y wins even if
        # a step discontinuity shares its x.
        low = x <= bx[0]
        high = x >= bx[-1]
        result[low] = by[0]
        result[high] = by[-1]
        interior = ~(low | high)
        if interior.any():
            xi = x[interior]
            lo = np.searchsorted(bx, xi, side="left")
            hi = np.searchsorted(bx, xi, side="right")
            values = np.empty(xi.shape, dtype=np.float64)
            exact = lo != hi
            if exact.any():
                # x coincides with one or more breakpoints: the tightest
                # (smallest) value among them.  searchsorted('left') lands
                # on the first breakpoint of the equal-x run.
                values[exact] = run_min_y[lo[exact]]
            interp = ~exact
            if interp.any():
                i = lo[interp]
                left_x = bx[i - 1]
                right_x = bx[i]
                left_y = by[i - 1]
                frac = (xi[interp] - left_x) / (right_x - left_x)
                values[interp] = left_y + frac * (by[i] - left_y)
            result[interior] = values
        return result

    def segments(self) -> list[tuple[Breakpoint, Breakpoint]]:
        """Return the (possibly degenerate) segments between breakpoints."""
        return list(zip(self._points, self._points[1:]))

    def slopes(self) -> list[float]:
        """Slopes of the non-degenerate segments, left to right.

        Vertical steps (shared ``x``) are skipped because their slope is
        undefined.
        """
        result = []
        for left, right in self.segments():
            if right.x > left.x:
                result.append((right.y - left.y) / (right.x - left.x))
        return result

    def is_upper_bound_of(
        self, points: Iterable[tuple[float, float]], tolerance: float = 1e-9
    ) -> bool:
        """Check that the function lies on or above every given point.

        The tolerance is relative to each point's magnitude to stay robust
        across the many orders of magnitude that operational intensities
        span.
        """
        for x, y in points:
            bound = self(x)
            if bound < y - tolerance * max(1.0, abs(y)):
                return False
        return True

    def translated(self, dx: float, dy: float) -> "PiecewiseLinear":
        """Return a copy shifted by ``(dx, dy)``."""
        return PiecewiseLinear(Breakpoint(p.x + dx, p.y + dy) for p in self._points)

    def scaled(self, sx: float, sy: float) -> "PiecewiseLinear":
        """Return a copy with axes scaled by ``(sx, sy)``; ``sx`` must be > 0."""
        if sx <= 0:
            raise ValueError("x scale must be positive to preserve breakpoint order")
        return PiecewiseLinear(Breakpoint(p.x * sx, p.y * sy) for p in self._points)

    def to_dict(self) -> dict:
        """Serialize to a JSON-friendly dictionary."""
        return {"breakpoints": [[p.x, p.y] for p in self._points]}

    @classmethod
    def from_dict(cls, payload: dict) -> "PiecewiseLinear":
        """Inverse of :meth:`to_dict`."""
        return cls(tuple(bp) for bp in payload["breakpoints"])


class PackedPiecewise:
    """Many piecewise functions, evaluated together in one vectorized pass.

    Every function's ``_evaluation_arrays()`` are concatenated into flat
    ``bx``/``by``/``run_min_y`` arrays with per-function ``first`` and
    ``last`` offsets.  ``values`` holds the sorted unique ``x`` of all
    breakpoints, and breakpoint ``j`` of function ``k`` gets the integer
    key ``k * stride + searchsorted(values, bx[j])`` — sorted by
    construction, so one ``searchsorted`` over ``keys`` finds a query's
    position inside its own function.  Breakpoints must be finite.
    """

    def __init__(self, functions: Sequence[PiecewiseLinear]):
        arrays = [function._evaluation_arrays() for function in functions]
        lengths = np.asarray([len(bx) for bx, _, _ in arrays], dtype=np.int64)
        self.bx, self.by, self.run_min_y = [
            np.concatenate(column) for column in zip(*arrays)
        ] or [np.empty(0)] * 3
        self.last = np.cumsum(lengths) - 1
        self.first = self.last - lengths + 1
        self.values = np.unique(self.bx)
        self.stride = len(self.values) + 1
        owner = np.repeat(np.arange(len(arrays), dtype=np.int64), lengths)
        self.keys = owner * self.stride + np.searchsorted(self.values, self.bx)

    def evaluate(self, k, xs) -> np.ndarray:
        """``functions[k[i]].evaluate_array(xs[i])`` for every row at once.

        The same rules and the same elementwise float expressions as
        :meth:`PiecewiseLinear.evaluate_array`, so every row is bit for
        bit what its own function would return.  ``inf`` takes the high
        clamp, the last breakpoint's ``y``.
        """
        x = np.asarray(xs, dtype=np.float64)
        if np.isnan(x).any():
            raise ValueError("cannot evaluate a piecewise function at NaN")
        k = np.asarray(k, dtype=np.int64)
        bx, by = self.bx, self.by
        first, last = self.first[k], self.last[k]
        # The low clamp, then the high clamp, which wins where both hold.
        result = np.where(x >= bx[last], by[last], by[first])
        interior = np.flatnonzero((x > bx[first]) & (x < bx[last]))
        if len(interior):
            xi = x[interior]
            base = k[interior] * self.stride
            # Each function's x values are a subset of ``values``, so
            # these are first[k] + searchsorted(bx_k, x, side) exactly.
            lo = np.searchsorted(
                self.keys, base + np.searchsorted(self.values, xi, "left")
            )
            hi = np.searchsorted(
                self.keys, base + np.searchsorted(self.values, xi, "right")
            )
            left_x = bx[lo - 1]
            left_y = by[lo - 1]
            frac = (xi - left_x) / (bx[lo] - left_x)
            result[interior] = np.where(
                lo != hi, self.run_min_y[lo], left_y + frac * (by[lo] - left_y)
            )
        return result


def merge_min(functions: Sequence[PiecewiseLinear], xs: Iterable[float]) -> list[float]:
    """Pointwise minimum of several piecewise functions sampled at ``xs``.

    Used for plotting an ensemble-wide envelope; the functions themselves
    are kept separate inside the model.
    """
    if not functions:
        raise ValueError("merge_min needs at least one function")
    return [min(f(x) for f in functions) for x in xs]
