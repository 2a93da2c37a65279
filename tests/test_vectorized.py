"""Scalar-vs-vectorized parity: the NumPy kernels against the reference path.

Every fast path must reproduce its scalar reference: same breakpoints,
same estimates, same rejection reasons.  Entry points (training,
estimation, sanitizing, one roofline fit) run twice, once on each side
of ``SPIRE_SCALAR_FALLBACK``; the kernels below them (piecewise
evaluation, the Pareto front, direction detection, the left hull and
the whole fit) are called directly, array twin against scalar
reference, since nothing below an entry point reads the switch.
Results agree to 1e-9 or exactly, plus the edge cases where the two
implementations are most likely to drift: empty groups, single-breakpoint
functions, duplicate-x Pareto columns, all-infinite-intensity metrics,
and NaN rejection in the sanitizers.
"""

import math
import random
import sys
from contextlib import contextmanager

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.columns import SampleArray
from repro.core.direction import (
    _ranks,
    _ranks_array,
    detect_direction,
    detect_direction_arrays,
    spearman,
    spearman_arrays,
)
from repro.core.ensemble import SpireModel
from repro.core.roofline import (
    RooflineFitOptions,
    fit_metric_roofline,
    fit_metric_roofline_arrays,
    fit_metric_roofline_scalar,
)
from repro.core.sample import Sample, SampleSet
from repro.core.sanitize import SampleSanitizer
from repro.errors import FitError
from repro.fastpath import force_scalar
from repro.geometry.hull import upper_concave_chain, upper_concave_chain_arrays
from repro.geometry.pareto import pareto_front, pareto_front_arrays
from repro.geometry.piecewise import Breakpoint, PiecewiseLinear
from repro.stream import StreamIngestor, StreamOptions

TOLERANCE = 1e-9


@contextmanager
def forced_fallback(monkeypatch_env: dict, enabled: bool):
    previous = monkeypatch_env.get("SPIRE_SCALAR_FALLBACK")
    try:
        if enabled:
            monkeypatch_env["SPIRE_SCALAR_FALLBACK"] = "1"
        else:
            monkeypatch_env.pop("SPIRE_SCALAR_FALLBACK", None)
        yield
    finally:
        monkeypatch_env.pop("SPIRE_SCALAR_FALLBACK", None)
        if previous is not None:
            monkeypatch_env["SPIRE_SCALAR_FALLBACK"] = previous


def both_paths(operation):
    """Run ``operation`` under the scalar and vectorized paths."""
    import os

    results = []
    for enabled in (True, False):
        with forced_fallback(os.environ, enabled):
            results.append(operation())
    return results


def close(a: float, b: float) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= TOLERANCE * max(1.0, abs(a), abs(b))


def assert_model_parity(scalar: SpireModel, vectorized: SpireModel) -> None:
    assert scalar.metrics == vectorized.metrics
    for metric in scalar.metrics:
        s_bps = scalar.roofline(metric).function.breakpoints
        v_bps = vectorized.roofline(metric).function.breakpoints
        assert len(s_bps) == len(v_bps), metric
        for s_bp, v_bp in zip(s_bps, v_bps):
            assert close(s_bp.x, v_bp.x), metric
            assert close(s_bp.y, v_bp.y), metric


@st.composite
def sample_cloud(draw):
    metrics = draw(st.sampled_from([("m",), ("m", "n")]))
    samples = []
    for metric in metrics:
        n = draw(st.integers(min_value=2, max_value=25))
        for _ in range(n):
            work = draw(st.floats(min_value=1.0, max_value=1e6))
            time = draw(st.floats(min_value=1.0, max_value=1e6))
            count = draw(
                st.one_of(
                    st.just(0.0), st.floats(min_value=1e-3, max_value=1e6)
                )
            )
            samples.append(
                Sample(metric, time=time, work=work, metric_count=count)
            )
    return samples


@settings(max_examples=40, deadline=None)
@given(sample_cloud())
def test_train_and_estimate_parity(samples):
    scalar, vectorized = both_paths(
        lambda: SpireModel.train(SampleSet(samples))
    )
    assert_model_parity(scalar, vectorized)

    s_est, v_est = both_paths(lambda: scalar.estimate(SampleSet(samples)))
    assert s_est.per_metric.keys() == v_est.per_metric.keys()
    for metric, value in s_est.per_metric.items():
        assert close(value, v_est.per_metric[metric])
    assert s_est.sample_counts == v_est.sample_counts


@st.composite
def seeded_cloud(draw):
    """One metric's samples as seeded random floats, some never firing."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    never = draw(st.sampled_from([0.0, 0.1, 0.5]))
    samples = []
    for _ in range(draw(st.integers(min_value=1, max_value=40))):
        count = 0.0 if rng.random() < never else rng.uniform(1e-3, 1e6)
        samples.append(
            Sample(
                "m",
                time=rng.uniform(1.0, 1e6),
                work=rng.uniform(1.0, 1e6),
                metric_count=count,
            )
        )
    return samples


@settings(max_examples=200, deadline=None)
@given(seeded_cloud(), st.sampled_from(["apex-split", "trend"]))
def test_scalar_and_array_fits_are_equal(samples, mode):
    options = RooflineFitOptions(direction_mode=mode)
    # The oracle runs as SpireModel.train runs it under the switch.
    with force_scalar():
        oracle = fit_metric_roofline_scalar(
            "m", [s.as_point() for s in samples], options
        )
    fast = fit_metric_roofline_arrays(
        "m",
        np.array([s.intensity for s in samples]),
        np.array([s.throughput for s in samples]),
        options=options,
    )
    # Exact equality, right fit included: its front, its segment-graph
    # path and its total error.
    assert fast == oracle


#: Every fast fit kernel: the oracle fit must reach none of them.
_ARRAY_FIT_KERNELS = (
    "fit_metric_roofline_arrays",
    "fit_left_region_arrays",
    "fit_right_region_arrays",
    "upper_concave_chain_arrays",
    "pareto_front_arrays",
    "detect_direction_arrays",
    "spearman_arrays",
)


def _spy_samples(seed: int) -> list[Sample]:
    rng = random.Random(seed)
    return [
        Sample(
            metric,
            time=rng.uniform(1.0, 10.0),
            work=rng.uniform(1.0, 10.0),
            metric_count=0.0 if k % 5 == 0 else rng.uniform(0.1, 10.0),
        )
        for metric in ("m", "n")
        for k in range(30)
    ]


def _refuse_array_fit_kernels(monkeypatch) -> None:
    def refuse(*args, **kwargs):
        raise AssertionError("an array fit kernel ran")

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("repro"):
            for name in _ARRAY_FIT_KERNELS:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, refuse)


def test_train_oracle_runs_no_array_fit_kernel(monkeypatch):
    samples = _spy_samples(3)
    _refuse_array_fit_kernels(monkeypatch)
    monkeypatch.setenv("SPIRE_SCALAR_FALLBACK", "1")
    model = SpireModel.train(SampleSet(samples))
    assert model.metrics == ["m", "n"]
    monkeypatch.delenv("SPIRE_SCALAR_FALLBACK")
    with pytest.raises(AssertionError, match="an array fit kernel ran"):
        SpireModel.train(SampleSet(samples))


def test_stream_refit_oracle_runs_no_array_fit_kernel(monkeypatch):
    samples = _spy_samples(5)
    _refuse_array_fit_kernels(monkeypatch)
    monkeypatch.setenv("SPIRE_SCALAR_FALLBACK", "1")
    ingestor = StreamIngestor(options=StreamOptions(window_samples=20))
    ingestor.push_samples(SampleSet(samples))
    assert ingestor.window_count == 3
    assert ingestor.stream_metrics == ["m", "n"]
    monkeypatch.delenv("SPIRE_SCALAR_FALLBACK")
    with pytest.raises(AssertionError, match="an array fit kernel ran"):
        ingestor.push_samples(SampleSet(samples))


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=100.0),
            st.floats(min_value=0.0, max_value=100.0),
        ),
        min_size=1,
        max_size=40,
    ),
    st.lists(
        st.floats(min_value=-10.0, max_value=110.0), min_size=1, max_size=20
    ),
)
def test_piecewise_evaluation_parity(points, queries):
    xs = sorted({round(x, 3) for x, _ in points})
    bps = [Breakpoint(x, y) for x, (_, y) in zip(xs, points)]
    function = PiecewiseLinear(bps)
    scalar = [function(q) for q in queries]
    batch = function.evaluate_array(np.asarray(queries, dtype=np.float64)).tolist()
    assert len(scalar) == len(batch)
    for a, b in zip(scalar, batch):
        assert close(a, b)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from([1.0, 2.0, 2.0, 3.0, 5.0]),  # duplicate-x heavy
            st.floats(min_value=0.0, max_value=10.0),
        ),
        min_size=0,
        max_size=40,
    )
)
def test_pareto_front_parity_with_duplicate_x(points):
    xs, ys = pareto_front_arrays(
        np.array([x for x, _ in points], dtype=np.float64),
        np.array([y for _, y in points], dtype=np.float64),
    )
    assert list(zip(xs.tolist(), ys.tolist())) == pareto_front(points)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.1, max_value=100.0),
            st.floats(min_value=0.1, max_value=100.0),
        ),
        min_size=0,
        max_size=40,
    )
)
def test_direction_parity(pairs):
    xs = [x for x, _ in pairs]
    ys = [y for _, y in pairs]
    vectorized = detect_direction_arrays(
        np.array(xs, dtype=np.float64), np.array(ys, dtype=np.float64)
    )
    assert vectorized == detect_direction(pairs)
    if len(pairs) >= 3:
        assert close(
            spearman(xs, ys),
            spearman_arrays(np.asarray(xs), np.asarray(ys)),
        )


#: Few distinct values, so most draws hold long runs of ties (``-0.0``
#: ties ``0.0``).
_TIED = st.sampled_from([-0.0, 0.0, 0.5, 1.0, 1.0, 2.0, 3.0, math.inf])


@settings(max_examples=300, deadline=None)
@given(st.lists(_TIED, min_size=1, max_size=60))
def test_ranks_parity_with_ties(values):
    # The default argsort may order ties any way; every member of a run
    # still gets the run's mean rank.
    assert _ranks_array(np.array(values, dtype=np.float64)).tolist() == _ranks(
        values
    )


def _chain_or_error(run):
    try:
        return run()
    except ValueError as error:
        return str(error)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from([-1.0, 0.0, 0.5, 1.0, 1.0, 2.0, 3.0, 4.0]),
            st.sampled_from([0.0, 0.5, 1.0, 2.0, 2.0, 3.0, 6.0]),
        ),
        min_size=1,
        max_size=40,
    ),
    st.one_of(st.none(), st.sampled_from([(2.0, 6.0), (3.0, 6.0), (4.0, 6.0)])),
)
def test_hull_parity_with_duplicate_x(points, target):
    if target is not None:
        points = points + [target]
    xs = np.array([x for x, _ in points])
    ys = np.array([y for _, y in points])
    vectorized = _chain_or_error(
        lambda: upper_concave_chain_arrays(xs, ys, target=target)
    )
    scalar = _chain_or_error(lambda: upper_concave_chain(points, target=target))
    assert vectorized == scalar


#: Two hull candidates at one x whose y values are an ulp apart: from the
#: origin both round to one slope toward the target's line.
_ULP_LOW = (1.7637746189766141, 1.765207077218265)
_ULP_HIGH = (1.7637746189766141, 1.7652070772182653)
_ULP_TARGET = (3.5275492379532283, 2.6478106158273977)


@pytest.mark.parametrize(
    "points", [[_ULP_LOW, _ULP_HIGH], [_ULP_HIGH, _ULP_LOW]], ids=["low-first", "high-first"]
)
def test_hull_slope_ties_break_by_x_then_y(points):
    origin = (0.0, 0.0)
    assert (_ULP_LOW[1] - origin[1]) / (_ULP_LOW[0] - origin[0]) == (
        _ULP_HIGH[1] - origin[1]
    ) / (_ULP_HIGH[0] - origin[0])
    xs = np.array([x for x, _ in points])
    ys = np.array([y for _, y in points])
    expected = [origin, _ULP_HIGH, _ULP_TARGET]
    assert upper_concave_chain(points, target=_ULP_TARGET) == expected
    assert upper_concave_chain_arrays(xs, ys, target=_ULP_TARGET) == expected


# ----------------------------------------------------------------------
# Edge cases
# ----------------------------------------------------------------------


def test_empty_sample_group_raises_on_both_paths():
    for result in both_paths(
        lambda: pytest.raises(FitError, fit_metric_roofline, [])
    ):
        assert "zero samples" in str(result.value)


def test_single_breakpoint_function_batch_evaluation():
    function = PiecewiseLinear([Breakpoint(2.0, 5.0)])
    assert function.evaluate_array(np.array([0.0, 2.0, 10.0])).tolist() == [
        5.0,
        5.0,
        5.0,
    ]
    assert function(math.inf) == 5.0


def test_all_infinite_intensity_metric_parity():
    # The metric never fires: every sample has metric_count == 0.
    samples = [
        Sample("m", time=1.0, work=float(w), metric_count=0.0)
        for w in (3, 7, 5)
    ]
    scalar, vectorized = both_paths(lambda: fit_metric_roofline(samples))
    assert_model_parity(
        SpireModel({"m": scalar}), SpireModel({"m": vectorized})
    )
    # A constant at the best observed throughput.
    assert len(vectorized.function.breakpoints) == 1
    assert vectorized.function(123.0) == 7.0
    s_est, v_est = both_paths(
        lambda: SpireModel({"m": scalar}).estimate(SampleSet(samples))
    )
    assert close(s_est.per_metric["m"], v_est.per_metric["m"])


def test_sanitizer_rejection_parity():
    records = [
        {"metric": "m", "time": 1.0, "work": 2.0, "metric_count": 3.0},
        {"metric": "m", "time": float("nan"), "work": 2.0, "metric_count": 3.0},
        {"metric": "m", "time": 1.0, "work": -2.0, "metric_count": 3.0},
        {"metric": "m", "time": 1.0, "work": 2.0, "metric_count": float("inf")},
        {"metric": "m", "time": 0.0, "work": 2.0, "metric_count": 3.0},
        {"metric": "m", "time": 1.0, "work": 2.0, "metric_count": 3.0},
    ]

    def run():
        # from_records(validate=False) admits the dirty rows; the sanitizer
        # then routes the array through the vectorized screen or, under the
        # fallback, the scalar record loop.
        array = SampleArray.from_records(records, validate=False)
        return SampleSanitizer().sanitize(array)

    (s_clean, s_report), (v_clean, v_report) = both_paths(run)
    assert len(s_clean) == len(v_clean) == 2
    assert s_report.total == v_report.total
    assert s_report.kept == v_report.kept
    assert [q.reason for q in s_report.quarantined] == [
        q.reason for q in v_report.quarantined
    ]
    assert [q.reason for q in v_report.quarantined] == [
        "NaN time",
        "negative work",
        "infinite metric_count",
        "non-positive time",
    ]
