"""Right-region roofline fitting (paper §III-D, Figure 6).

To the right of the highest-throughput training sample (the *apex*), SPIRE
assumes the metric is positively associated with performance, so the fit is
a series of decreasing, concave-up line segments that lie on or above every
training sample.

The algorithm:

1. Identify the Pareto front of samples maximizing both throughput and
   operational intensity; dominated samples can never touch a valid fit.
2. Build a weighted digraph whose vertices are segments between Pareto
   samples.  A vertex ``(X, Y)`` exists when the ``X -> Y`` line stays on
   or above every sample between them; an edge ``(X, Y) -> (Y, Z)`` exists
   when ``Y -> Z`` is at least as steep (preserving concavity); weights are
   squared overestimation errors against the Pareto samples each segment
   skips.
3. ``Start`` enters the graph at the sample ``S`` with infinite intensity
   (a flat tail; a dummy is used when no such sample exists).  ``End`` is
   reachable from every vertex through one special *horizontal* segment at
   the apex height — the paper's sanctioned exception to the concave-up
   rule.
4. The cheapest ``Start -> End`` path (Dijkstra) is the fit.

Implementation notes
--------------------
* The flat tail entering at Pareto sample ``q`` sits at height ``P_q``.
  Every sample right of ``q`` has strictly lower throughput (Pareto
  property), so the tail is always a valid upper bound; its weight is its
  squared error over those samples, including any infinite-intensity ones.
* Very large Pareto fronts are thinned to ``max_front_points`` segment
  *endpoints* for tractability, but validity and error are always computed
  against the full front, so the on-or-above invariant is preserved
  exactly (dominated samples are covered transitively through the front).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.sample import left_sum
from repro.errors import FitError
from repro.geometry.pareto import pareto_front, pareto_front_arrays
from repro.geometry.piecewise import Breakpoint
from repro.geometry.shortest_path import Graph, dijkstra

_START = "start"
_END = "end"


@dataclass(frozen=True, slots=True)
class RightFitOptions:
    """Tuning knobs for the right fitting algorithm."""

    max_front_points: int = 64
    slope_tolerance: float = 1e-12
    validity_tolerance: float = 1e-9

    def __post_init__(self) -> None:
        if self.max_front_points < 2:
            raise FitError("max_front_points must be at least 2")


@dataclass
class RightFitResult:
    """The fitted right region plus diagnostics useful for plots/tests."""

    breakpoints: list[Breakpoint]
    front: list[tuple[float, float]]
    total_error: float
    path: list = field(default_factory=list)
    used_horizontal_exception: bool = False


def fit_right_region(
    points: Sequence[tuple[float, float]],
    apex: tuple[float, float],
    infinite_throughputs: Sequence[float] = (),
    options: RightFitOptions | None = None,
) -> RightFitResult:
    """Fit the decreasing, concave-up right region of a roofline.

    Parameters
    ----------
    points:
        ``(I_x, P)`` training samples with *finite* intensity at least the
        apex intensity.
    apex:
        The highest-throughput training sample; the fit starts here.
    infinite_throughputs:
        Throughput values of samples whose metric count was zero
        (``I_x = inf``) — the paper's sample ``S``.  They participate in
        the flat tail's error.
    options:
        Fitting knobs; defaults are suitable for thousands of samples.

    Returns
    -------
    RightFitResult
        ``breakpoints`` runs left to right starting at the apex (or its
        equal-throughput Pareto twin).  Constant extension beyond the last
        breakpoint is implied.
    """
    opts = options or RightFitOptions()
    apex_x, apex_y = float(apex[0]), float(apex[1])
    finite = [(float(x), float(y)) for x, y in points]
    for x, y in finite:
        if not (math.isfinite(x) and math.isfinite(y)):
            raise FitError(f"right-region point ({x}, {y}) must be finite")
        if x < apex_x:
            raise FitError(
                f"right-region point ({x}, {y}) lies left of the apex x={apex_x}"
            )
        if y > apex_y:
            raise FitError(
                f"right-region point ({x}, {y}) exceeds the apex throughput {apex_y}"
            )
    inf_levels = [float(p) for p in infinite_throughputs]
    for level in inf_levels:
        if level > apex_y:
            raise FitError(
                f"infinite-intensity throughput {level} exceeds the apex {apex_y}"
            )

    # Pareto front over finite samples plus the apex, ordered from the
    # rightmost (highest I, lowest P) to the leftmost (highest P) point.
    # The apex has the maximum throughput, so the last front element is the
    # apex itself or an equal-throughput sample further right.
    front = pareto_front(finite + [(apex_x, apex_y)])
    return _fit_from_front(front, inf_levels, opts)


def fit_right_region_arrays(
    intensity: np.ndarray,
    throughput: np.ndarray,
    apex: tuple[float, float],
    infinite_throughputs: np.ndarray | None = None,
    options: RightFitOptions | None = None,
) -> RightFitResult:
    """Vectorized :func:`fit_right_region` over ``(I_x, P)`` columns.

    Identical contract; validation errors report the first offending point
    in row order with the scalar per-point check priority (finiteness,
    then apex-x, then apex-y).
    """
    opts = options or RightFitOptions()
    apex_x, apex_y = float(apex[0]), float(apex[1])
    x = np.asarray(intensity, dtype=np.float64)
    y = np.asarray(throughput, dtype=np.float64)
    with np.errstate(invalid="ignore"):
        bad = ~np.isfinite(x) | ~np.isfinite(y) | (x < apex_x) | (y > apex_y)
    if bad.any():
        px, py = float(x[int(np.argmax(bad))]), float(y[int(np.argmax(bad))])
        if not (math.isfinite(px) and math.isfinite(py)):
            raise FitError(f"right-region point ({px}, {py}) must be finite")
        if px < apex_x:
            raise FitError(
                f"right-region point ({px}, {py}) lies left of the apex x={apex_x}"
            )
        raise FitError(
            f"right-region point ({px}, {py}) exceeds the apex throughput {apex_y}"
        )
    if infinite_throughputs is None:
        inf_arr = np.empty(0)
    else:
        inf_arr = np.asarray(infinite_throughputs, dtype=np.float64)
    above = inf_arr > apex_y
    if above.any():
        level = float(inf_arr[int(np.argmax(above))])
        raise FitError(
            f"infinite-intensity throughput {level} exceeds the apex {apex_y}"
        )

    fx, fy = pareto_front_arrays(np.append(x, apex_x), np.append(y, apex_y))
    front = list(zip(fx.tolist(), fy.tolist()))
    return _fit_from_front(front, inf_arr.tolist(), opts)


def _fit_from_front(
    front: list[tuple[float, float]],
    inf_levels: list[float],
    opts: RightFitOptions,
) -> RightFitResult:
    """Shared back half of the fit: segment graph over a Pareto front."""
    m = len(front)

    if m == 1:
        # Everything is dominated by a single point: flat fit at its height.
        return RightFitResult(
            breakpoints=[Breakpoint(*front[0])],
            front=front,
            total_error=_flat_tail_error(front, 0, inf_levels),
            used_horizontal_exception=False,
        )

    endpoint_indices = _select_endpoints(m, opts.max_front_points)
    graph = _build_graph(front, endpoint_indices, inf_levels, opts)
    total_error, path = dijkstra(graph, _START, _END)

    chain_indices = _chain_from_path(path)
    breakpoints, used_exception = _breakpoints_from_chain(front, chain_indices)
    return RightFitResult(
        breakpoints=breakpoints,
        front=front,
        total_error=total_error,
        path=path,
        used_horizontal_exception=used_exception,
    )


def _flat_tail_error(
    front: Sequence[tuple[float, float]], entry: int, inf_levels: Sequence[float]
) -> float:
    """Squared error of a flat tail at ``front[entry]``'s height."""
    level = front[entry][1]
    error = left_sum((level - front[k][1]) ** 2 for k in range(entry))
    error += left_sum((level - p) ** 2 for p in inf_levels)
    return error


def _select_endpoints(front_size: int, cap: int) -> list[int]:
    """Indices of front points usable as segment endpoints."""
    if front_size <= cap:
        return list(range(front_size))
    step = (front_size - 1) / (cap - 1)
    indices = sorted({round(i * step) for i in range(cap)})
    if indices[0] != 0:
        indices.insert(0, 0)
    if indices[-1] != front_size - 1:
        indices.append(front_size - 1)
    return indices


def _build_graph(
    front: Sequence[tuple[float, float]],
    endpoint_indices: Sequence[int],
    inf_levels: Sequence[float],
    opts: RightFitOptions,
) -> Graph:
    """Construct the segment graph of Figure 6.

    Node keys: ``"start"``, ``"end"``, ``("tail", i)`` for the flat tail
    entering at front index ``i``, and ``(i, j)`` for the segment from
    front index ``i`` (right) to ``j`` (left), with ``i < j`` in list
    order because the front is sorted right to left.

    Pareto fronts are tiny — rarely more than a few dozen points — so
    plain float arithmetic beats array kernels on call overhead here.
    Only the infinite-level tail term, the one input that scales with the
    sample count, is reduced with numpy.  Both fit paths build their
    graph here, so they share every edge weight bit for bit.
    """
    graph = Graph()
    graph.add_node(_START)
    graph.add_node(_END)
    last = len(front) - 1
    apex_level = front[last][1]
    # The flat tail is the fit's value at infinite intensity, so it must
    # cover every infinite-intensity sample: entries below the best such
    # level are invalid.  The apex entry always qualifies (callers clip
    # infinite levels to the apex).
    min_tail_level = max(inf_levels, default=-math.inf)

    xs = [p[0] for p in front]
    ys = [p[1] for p in front]
    validity_tolerance = opts.validity_tolerance
    tol = [validity_tolerance * max(1.0, abs(value)) for value in ys]

    # Pairwise segment validity and error over interior front points,
    # checked against the full front.  A point on or (within tolerance)
    # above the segment adds nothing, so a segment through every point
    # it skips weighs exactly 0.0.
    valid: dict[tuple[int, int], float] = {}
    slopes: dict[tuple[int, int], float] = {}
    for ii, i in enumerate(endpoint_indices):
        ax, ay = front[i]
        for j in endpoint_indices[ii + 1 :]:
            bx, by = front[j]
            slope = (by - ay) / (bx - ax)
            error = 0.0
            ok = True
            for k in range(i + 1, j):
                gap = (ay + (xs[k] - ax) * slope) - ys[k]
                if gap < -tol[k]:
                    ok = False
                    break
                if gap > 0.0:
                    error += gap * gap
            if ok:
                valid[(i, j)] = error
                slopes[(i, j)] = slope

    tail_floor = min_tail_level - 1e-12 * max(1.0, abs(min_tail_level))
    inf_arr = np.asarray(inf_levels, dtype=np.float64) if inf_levels else None

    def tail_error(i: int) -> float:
        # The front part folds left to right; the (potentially large)
        # infinite-level part reduces as one array kernel.
        level = ys[i]
        error = 0.0
        for k in range(i):
            gap = level - ys[k]
            error += gap * gap
        if inf_arr is not None:
            error += float(np.sum(np.square(level - inf_arr)))
        return error

    for i in endpoint_indices:
        if ys[i] >= tail_floor:
            graph.add_edge(_START, ("tail", i), tail_error(i))

    # Tail -> first real segment.  The tail's slope is 0 and every front
    # segment is decreasing (negative slope read left to right), hence
    # strictly steeper: the concavity rule always allows this edge.
    for (i, j), error in valid.items():
        if ys[i] >= tail_floor:
            graph.add_edge(("tail", i), (i, j), error)

    # Segment -> segment, preserving concavity: read left to right the
    # slopes must be non-decreasing, i.e. walking right to left each new
    # segment is at least as steep as the previous one.
    by_right_end: dict[int, list[tuple[int, int]]] = {}
    for i, j in valid:
        by_right_end.setdefault(i, []).append((i, j))
    slope_tolerance = opts.slope_tolerance
    for i, j in valid:
        limit = slopes[(i, j)] + slope_tolerance
        for node in by_right_end.get(j, ()):
            if slopes[node] <= limit:
                graph.add_edge((i, j), node, valid[node])

    # Everything -> End through the horizontal-at-apex-height segment (the
    # paper's exception to the concave-up rule); reaching the apex
    # directly costs nothing extra.  suffix[k] = squared gap over front
    # points k .. last-1, accumulated right to left.
    suffix = [0.0] * (last + 1)
    acc = 0.0
    for k in range(last - 1, -1, -1):
        gap = apex_level - ys[k]
        acc += gap * gap
        suffix[k] = acc

    for i in endpoint_indices:
        graph.add_edge(("tail", i), _END, suffix[i + 1] if i < last else 0.0)
    for i, j in valid:
        graph.add_edge((i, j), _END, suffix[j + 1] if j < last else 0.0)

    return graph


def _chain_from_path(path: Sequence) -> list[int]:
    """Front indices visited by a ``Start -> End`` path, right to left."""
    indices: list[int] = []
    for node in path:
        if node in (_START, _END):
            continue
        if isinstance(node, tuple) and node[0] == "tail":
            indices.append(node[1])
        else:
            i, j = node
            if not indices or indices[-1] != i:  # pragma: no cover - defensive
                indices.append(i)
            indices.append(j)
    return indices


def _breakpoints_from_chain(
    front: Sequence[tuple[float, float]], chain: Sequence[int]
) -> tuple[list[Breakpoint], bool]:
    """Convert a right-to-left index chain into left-to-right breakpoints."""
    last = len(front) - 1
    apex_x, apex_y = front[last]
    leftmost_reached = chain[-1]

    breakpoints = [Breakpoint(apex_x, apex_y)]
    used_exception = False
    if leftmost_reached != last:
        # Horizontal exception: stay at the apex height until directly
        # above the chain's leftmost sample, then step down onto it.
        x, y = front[leftmost_reached]
        breakpoints.append(Breakpoint(x, apex_y))
        breakpoints.append(Breakpoint(x, y))
        used_exception = True

    for index in reversed(chain[:-1]):
        x, y = front[index]
        breakpoints.append(Breakpoint(x, y))
    return breakpoints, used_exception
