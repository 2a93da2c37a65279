"""Gift-wrapping construction of the increasing concave-down chain.

This implements the left-region fitting primitive from the SPIRE paper
(Figure 5): starting from an anchor point (the origin for rooflines), keep
adding a segment to the remaining point with the *highest slope* from the
current point, until the target point (the highest-throughput sample) is
reached.  The result is the portion of the upper convex hull between anchor
and target, i.e. an increasing, concave-down chain that lies on or above
every input point.

The algorithm is Jarvis' march [Jarvis 1973] restricted to the upper-left
hull, exactly as the paper describes.  The vectorized variant evaluates
each wrapping step as one slope-array reduction instead of a Python
``max`` over tuples; the walk itself stays sequential because every step
depends on the previous vertex.

Both walks pick the candidate with the highest slope from the current
vertex and break exact slope ties by ``(x, y)``: the farthest point, and
at one ``x`` the highest.  Two ``y`` values an ulp or so apart can round
to one slope, so the tie-break must not depend on input or sort order.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def _slope(origin: tuple[float, float], point: tuple[float, float]) -> float:
    dx = point[0] - origin[0]
    if dx <= 0:
        raise ValueError("slope target must lie strictly to the right of origin")
    return (point[1] - origin[1]) / dx


def upper_concave_chain_arrays(
    xs: np.ndarray,
    ys: np.ndarray,
    anchor: tuple[float, float] = (0.0, 0.0),
    target: tuple[float, float] | None = None,
) -> list[tuple[float, float]]:
    """Vectorized :func:`upper_concave_chain` over coordinate columns.

    Identical contract and tie-breaking: each wrapping step picks the
    highest slope from the current vertex, ties broken by ``(x, y)``.
    """
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if target is None:
        if not len(x):
            raise ValueError("cannot infer a target from an empty point set")
        top = np.flatnonzero(y == y.max())
        pick = top[np.argmin(x[top])]
        target = (float(x[pick]), float(y[pick]))
    target = (float(target[0]), float(target[1]))
    anchor = (float(anchor[0]), float(anchor[1]))
    if target[0] < anchor[0]:
        raise ValueError("target must not lie left of the anchor")
    if target[0] == anchor[0]:
        # Degenerate: the chain is a single (possibly vertical) step.
        if target == anchor:
            return [anchor]
        return [anchor, target]

    # Candidates strictly between anchor and target in x, plus the target;
    # sorted by x so each step's viable set is a suffix.  The order of
    # equal x inside the sort is left to the default (unstable) sort: a
    # step that ties resolves the tie by (x, y) itself.
    mask = (x > anchor[0]) & (x <= target[0])
    cx, cy = x[mask], y[mask]
    if not ((cx == target[0]) & (cy == target[1])).any():
        cx = np.append(cx, target[0])
        cy = np.append(cy, target[1])
    order = np.argsort(cx)
    cx, cy = cx[order], cy[order]

    chain = [anchor]
    current = anchor
    while current != target:
        start = int(np.searchsorted(cx, current[0], side="right"))
        if start == len(cx):
            # Can only happen if the target shares x with current; close the
            # chain with a vertical step.
            chain.append(target)
            break
        slopes = (cy[start:] - current[1]) / (cx[start:] - current[0])
        ties = np.flatnonzero(slopes == slopes.max())
        # Highest slope wins; ties broken toward the farthest point (the
        # last tie in x-ascending order) so the chain uses as few vertices
        # as possible, and at that x toward the highest point.
        pick = int(ties[-1])
        if len(ties) > 1:
            viable_x, viable_y = cx[start:], cy[start:]
            farthest = ties[viable_x[ties] == viable_x[pick]]
            pick = int(farthest[np.argmax(viable_y[farthest])])
        pick += start
        best = (float(cx[pick]), float(cy[pick]))
        chain.append(best)
        current = best
        if current[0] >= target[0] and current != target:
            # A point above the target at the same x terminated the walk.
            # The paper's algorithm walks until the highest-throughput
            # sample, which by construction is the global maximum, so this
            # indicates the caller passed an inconsistent target.
            raise ValueError(
                "chain reached a point at or beyond the target that is not the target; "
                "the target must be the maximum-y point of its column"
            )
    return chain


def upper_concave_chain(
    points: Sequence[tuple[float, float]],
    anchor: tuple[float, float] = (0.0, 0.0),
    target: tuple[float, float] | None = None,
) -> list[tuple[float, float]]:
    """Return the gift-wrapped chain from ``anchor`` to ``target``.

    Parameters
    ----------
    points:
        Candidate ``(x, y)`` points.  Points left of (or at) the anchor's x
        coordinate, or right of the target's, are ignored.
    anchor:
        Starting point of the chain; defaults to the origin as in the paper.
    target:
        End point of the chain.  Defaults to the point with the highest
        ``y`` (ties broken toward the smallest ``x``, so the apex is reached
        as early as possible).

    Returns
    -------
    list of (x, y)
        Chain vertices from anchor to target inclusive.  Consecutive
        slopes are non-increasing (concave-down) and every input point in
        the covered x range lies on or below the chain.
    """
    pts = [(float(x), float(y)) for x, y in points]
    if target is None:
        if not pts:
            raise ValueError("cannot infer a target from an empty point set")
        target = max(pts, key=lambda p: (p[1], -p[0]))
    target = (float(target[0]), float(target[1]))
    anchor = (float(anchor[0]), float(anchor[1]))
    if target[0] < anchor[0]:
        raise ValueError("target must not lie left of the anchor")
    if target[0] == anchor[0]:
        # Degenerate: the chain is a single (possibly vertical) step.
        if target == anchor:
            return [anchor]
        return [anchor, target]

    # Candidates strictly between anchor and target in x, plus the target.
    candidates = [p for p in pts if anchor[0] < p[0] <= target[0] and p != anchor]
    if target not in candidates:
        candidates.append(target)

    chain = [anchor]
    current = anchor
    while current != target:
        viable = [p for p in candidates if p[0] > current[0]]
        if not viable:
            # Can only happen if the target shares x with current; close the
            # chain with a vertical step.
            chain.append(target)
            break
        # Highest slope wins; ties broken toward the farthest point so the
        # chain uses as few vertices as possible, and at that x toward
        # the highest point.
        best = max(viable, key=lambda p: (_slope(current, p), p[0], p[1]))
        chain.append(best)
        current = best
        if current[0] >= target[0] and current != target:
            # A point above the target at the same x terminated the walk.
            # The paper's algorithm walks until the highest-throughput
            # sample, which by construction is the global maximum, so this
            # indicates the caller passed an inconsistent target.
            raise ValueError(
                "chain reached a point at or beyond the target that is not the target; "
                "the target must be the maximum-y point of its column"
            )
    return chain
