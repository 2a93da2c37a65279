"""Metric-direction detection (the robustness improvement §V calls for).

The paper's fitting algorithm decides which intensities are "left"
(metric negatively associated with performance) and "right" (positively
associated) purely from the highest-throughput sample.  §V observes the
consequence: for BP.1 the right fitting algorithm "kicked in" past the
apex and inaccurately pulled the bound down, and notes that "our method
for detecting positive and negative metrics can be more robust".

This module provides that more-robust detector: a rank (Spearman)
correlation between operational intensity and throughput across the
training samples.  A strongly positive trend marks a *negative* metric
(more work per harmful event → more throughput) whose roofline should
stay flat past the apex instead of decreasing; a strongly negative trend
marks a *positive* metric; anything in between falls back to the paper's
apex-split behaviour.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

NEGATIVE_METRIC = "negative"   # throughput increases with I_x (e.g. stalls)
POSITIVE_METRIC = "positive"   # throughput decreases with I_x (e.g. DSB hits)
MIXED = "mixed"                # no clear monotone trend


def _ranks_array(values: np.ndarray) -> np.ndarray:
    """Vectorized :func:`_ranks`: average ranks with ties sharing the mean.

    Every member of a run of equal values gets the run's mean rank, so
    for NaN-free values the order of ties inside the sort cannot change
    a rank, and the default (unstable) sort serves.
    """
    v = np.asarray(values, dtype=np.float64)
    order = np.argsort(v)
    sv = v[order]
    starts = np.empty(len(v), dtype=bool)
    starts[0] = True
    starts[1:] = sv[1:] != sv[:-1]
    start_indices = np.flatnonzero(starts)
    ends = np.append(start_indices[1:], len(v)) - 1
    # Run [i, j] gets the mean rank (i + j) / 2 + 1, matching the scalar loop.
    run_ranks = (start_indices + ends) / 2.0 + 1.0
    counts = ends - start_indices + 1
    ranks = np.empty(len(v))
    ranks[order] = np.repeat(run_ranks, counts)
    return ranks


def spearman_arrays(xs: np.ndarray, ys: np.ndarray) -> float:
    """Vectorized :func:`spearman` over coordinate columns."""
    if len(xs) != len(ys):
        raise ValueError("length mismatch")
    n = len(xs)
    if n < 3:
        return 0.0
    rank_x = _ranks_array(xs)
    rank_y = _ranks_array(ys)
    mean = (n + 1) / 2.0
    dx = rank_x - mean
    dy = rank_y - mean
    var_x = float(np.dot(dx, dx))
    var_y = float(np.dot(dy, dy))
    if var_x == 0 or var_y == 0:
        return 0.0
    return float(np.dot(dx, dy)) / math.sqrt(var_x * var_y)


def detect_direction_arrays(
    intensity: np.ndarray,
    throughput: np.ndarray,
    threshold: float = 0.4,
) -> str:
    """Vectorized :func:`detect_direction` over ``(I_x, P)`` columns."""
    x = np.asarray(intensity, dtype=np.float64)
    y = np.asarray(throughput, dtype=np.float64)
    finite = np.isfinite(x)
    if int(finite.sum()) < 3:
        return MIXED
    correlation = spearman_arrays(x[finite], y[finite])
    if correlation >= threshold:
        return NEGATIVE_METRIC
    if correlation <= -threshold:
        return POSITIVE_METRIC
    return MIXED


def _ranks(values: Sequence[float]) -> list[float]:
    """Average ranks (ties share the mean rank)."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        mean_rank = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = mean_rank
        i = j + 1
    return ranks


def spearman(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Spearman rank correlation (0 when degenerate)."""
    if len(xs) != len(ys):
        raise ValueError("length mismatch")
    n = len(xs)
    if n < 3:
        return 0.0
    rank_x = _ranks(xs)
    rank_y = _ranks(ys)
    mean = (n + 1) / 2.0
    num = sum((rx - mean) * (ry - mean) for rx, ry in zip(rank_x, rank_y))
    var_x = sum((rx - mean) ** 2 for rx in rank_x)
    var_y = sum((ry - mean) ** 2 for ry in rank_y)
    if var_x == 0 or var_y == 0:
        return 0.0
    return num / math.sqrt(var_x * var_y)


def detect_direction(
    points: Sequence[tuple[float, float]],
    threshold: float = 0.4,
) -> str:
    """Classify a metric from its finite ``(I_x, P)`` training samples.

    Returns :data:`NEGATIVE_METRIC`, :data:`POSITIVE_METRIC`, or
    :data:`MIXED`.  ``threshold`` is the absolute Spearman correlation
    required to commit to a monotone direction.  This is the scalar
    reference of :func:`detect_direction_arrays`.
    """
    finite = [(x, y) for x, y in points if math.isfinite(x)]
    if len(finite) < 3:
        return MIXED
    correlation = spearman([x for x, _ in finite], [y for _, y in finite])
    if correlation >= threshold:
        return NEGATIVE_METRIC
    if correlation <= -threshold:
        return POSITIVE_METRIC
    return MIXED
