"""Pareto-front extraction for the right-region fitting algorithm.

SPIRE's right fitting algorithm (paper Figure 6) only considers the samples
that are Pareto optimal when simultaneously maximizing throughput and
operational intensity: any sample dominated in both coordinates can never
touch a valid (decreasing, above-all-points) fit, so it is discarded before
the segment graph is built.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def pareto_front_arrays(
    xs: np.ndarray, ys: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized :func:`pareto_front` over coordinate columns.

    Returns the front as ``(x, y)`` arrays sorted by decreasing ``x``
    (increasing ``y``), deduplicated — exactly the scalar ordering.
    """
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if not len(x):
        return np.empty(0), np.empty(0)
    # Lexicographic ascending sort by (x, y) then neighbor-dedup — the
    # same row order np.unique(axis=0) produces, without its void-view
    # detour; reversing yields decreasing x with decreasing y inside each
    # x column — the scalar sort order.
    order = np.lexsort((y, x))
    x, y = x[order], y[order]
    if len(x) > 1:
        fresh = np.empty(len(x), dtype=bool)
        fresh[0] = True
        fresh[1:] = (x[1:] != x[:-1]) | (y[1:] != y[:-1])
        x, y = x[fresh], y[fresh]
    x, y = x[::-1], y[::-1]
    best_before = np.empty(len(y))
    best_before[0] = -np.inf
    np.maximum.accumulate(y[:-1], out=best_before[1:])
    keep = y > best_before
    return np.ascontiguousarray(x[keep]), np.ascontiguousarray(y[keep])


def pareto_front(
    points: Sequence[tuple[float, float]],
) -> list[tuple[float, float]]:
    """Return the maximizing Pareto front of ``points``.

    A point dominates another if it is greater-or-equal in both coordinates
    and strictly greater in at least one.  The returned front is sorted by
    decreasing ``x`` (and therefore increasing ``y``), which is the
    traversal order of the right fitting algorithm: from the rightmost,
    lowest-throughput sample toward the leftmost, highest-throughput one.

    Duplicate points are collapsed to a single representative, so the
    front is strictly monotone: each kept ``y`` beats every earlier one.
    This is the scalar reference of :func:`pareto_front_arrays`.
    """
    unique = sorted(
        {(float(x), float(y)) for x, y in points}, key=lambda p: (-p[0], -p[1])
    )
    front: list[tuple[float, float]] = []
    best_y = float("-inf")
    for x, y in unique:
        # Points arrive in decreasing x; within equal x, decreasing y, so
        # only the first of each x column can be non-dominated.
        if y > best_y:
            front.append((x, y))
            best_y = y
    return front


def is_pareto_optimal(
    point: tuple[float, float], points: Sequence[tuple[float, float]]
) -> bool:
    """True if no point in ``points`` dominates ``point``."""
    px, py = point
    for x, y in points:
        if (x, y) == (px, py):
            continue
        if x >= px and y >= py and (x > px or y > py):
            return False
    return True
