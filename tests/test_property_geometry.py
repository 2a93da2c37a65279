"""Property-based tests for the geometry kernels, cross-checked with scipy.

The gift-wrapped chain of :mod:`repro.geometry.hull` must coincide with
the relevant portion of scipy's convex hull, and the Pareto front must
satisfy its defining dominance properties on arbitrary inputs.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull, QhullError

from repro.geometry.hull import upper_concave_chain
from repro.geometry.pareto import is_pareto_optimal, pareto_front
from repro.geometry.piecewise import PiecewiseLinear

point_lists = st.lists(
    st.tuples(
        st.floats(min_value=0.1, max_value=100.0),
        st.floats(min_value=0.1, max_value=50.0),
    ),
    min_size=3,
    max_size=40,
)


def scipy_upper_chain(points):
    """The upper-left hull from the origin to the max-y point via scipy."""
    target = max(points, key=lambda p: (p[1], -p[0]))
    covered = [p for p in points if p[0] <= target[0]]
    array = np.array([(0.0, 0.0)] + covered, dtype=float)
    try:
        hull = ConvexHull(array)
    except QhullError:
        return None  # degenerate input (collinear); skip the cross-check
    vertices = [tuple(array[v]) for v in hull.vertices]
    # Keep the hull vertices between the origin and the target, walking
    # the upper side: x increasing, part of the chain from (0,0) to target.
    chain = sorted(
        {
            v
            for v in vertices
            if 0.0 <= v[0] <= target[0]
        }
    )
    return chain, target


@settings(max_examples=60, deadline=None)
@given(point_lists)
def test_chain_vertices_are_scipy_hull_vertices(points):
    reference = scipy_upper_chain(points)
    if reference is None:
        return
    hull_vertices, target = reference
    chain = upper_concave_chain(
        [p for p in points if p[0] <= target[0]], target=target
    )
    hull_set = {(round(x, 9), round(y, 9)) for x, y in hull_vertices}
    for x, y in chain:
        assert (round(x, 9), round(y, 9)) in hull_set


@settings(max_examples=60, deadline=None)
@given(point_lists)
def test_chain_is_tight(points):
    """No valid concave-down chain can sit strictly below ours anywhere
    while covering all points: our chain touches a point on every segment."""
    target = max(points, key=lambda p: (p[1], -p[0]))
    covered = [p for p in points if p[0] <= target[0]]
    chain = upper_concave_chain(covered, target=target)
    touchable = set(covered) | {(0.0, 0.0), target}
    for vertex in chain:
        assert vertex in touchable


@settings(max_examples=60, deadline=None)
@given(point_lists)
def test_chain_upper_bound_and_concave(points):
    target = max(points, key=lambda p: (p[1], -p[0]))
    covered = [p for p in points if p[0] <= target[0]]
    chain = upper_concave_chain(covered, target=target)
    assert PiecewiseLinear(chain).is_upper_bound_of(covered)
    slopes = [
        (y1 - y0) / (x1 - x0)
        for (x0, y0), (x1, y1) in zip(chain, chain[1:])
        if x1 > x0
    ]
    assert all(b <= a + 1e-9 for a, b in zip(slopes, slopes[1:]))


@settings(max_examples=80, deadline=None)
@given(point_lists)
def test_pareto_front_properties(points):
    front = pareto_front(points)
    point_set = set((float(x), float(y)) for x, y in points)
    # Every front member is an input point and is non-dominated.
    for p in front:
        assert p in point_set
        assert is_pareto_optimal(p, points)
    # Every non-front point is dominated by some front point.
    front_set = set(front)
    for p in point_set - front_set:
        assert any(
            q[0] >= p[0] and q[1] >= p[1] and q != p for q in front
        )
    # Sorted by decreasing x, strictly increasing y.
    xs = [x for x, _ in front]
    ys = [y for _, y in front]
    assert xs == sorted(xs, reverse=True)
    assert all(b > a for a, b in zip(ys, ys[1:]))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_dijkstra_agrees_with_networkx_on_random_graphs(seed):
    import networkx as nx

    from repro.geometry.shortest_path import Graph, dijkstra

    rng = random.Random(seed)
    n = rng.randint(2, 25)
    graph = Graph()
    reference = nx.DiGraph()
    for node in range(n):
        graph.add_node(node)
        reference.add_node(node)
    for _ in range(rng.randint(1, 80)):
        a, b = rng.randrange(n), rng.randrange(n)
        if a == b:
            continue
        weight = rng.uniform(0, 5)
        graph.add_edge(a, b, weight)
        if not reference.has_edge(a, b) or reference[a][b]["weight"] > weight:
            reference.add_edge(a, b, weight=weight)
    source, target = rng.randrange(n), rng.randrange(n)
    try:
        expected = nx.dijkstra_path_length(reference, source, target)
    except nx.NetworkXNoPath:
        with pytest.raises(ValueError):
            dijkstra(graph, source, target)
        return
    distance, path = dijkstra(graph, source, target)
    assert distance == pytest.approx(expected)
    assert path[0] == source and path[-1] == target


#: Breakpoint x values come from a small grid so that step runs, shared
#: x across functions and exact query hits are common.
_grid_x = st.sampled_from([0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.5, 8.0])
_function_points = st.lists(
    st.tuples(_grid_x, st.floats(min_value=0.0, max_value=20.0)),
    min_size=1,
    max_size=9,
).map(lambda points: sorted(points, key=lambda p: p[0]))


@settings(max_examples=150, deadline=None)
@given(
    functions=st.lists(_function_points, min_size=1, max_size=6),
    data=st.data(),
)
def test_packed_evaluation_is_bit_identical_to_each_function(functions, data):
    from repro.geometry.piecewise import PackedPiecewise

    pieces = [PiecewiseLinear(points) for points in functions]
    table = PackedPiecewise(pieces)
    query = st.one_of(
        _grid_x,
        st.floats(min_value=0.0, max_value=10.0),
        st.just(float("inf")),
    )
    rows = data.draw(
        st.lists(
            st.tuples(st.integers(0, len(pieces) - 1), query), max_size=40
        )
    )
    k = np.asarray([row[0] for row in rows], dtype=np.int64)
    xs = np.asarray([row[1] for row in rows], dtype=np.float64)
    got = table.evaluate(k, xs)
    for index, (function, x) in enumerate(rows):
        want = pieces[function].evaluate_array(np.asarray([x]))
        assert got[index : index + 1].tobytes() == want.tobytes()
