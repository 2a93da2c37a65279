"""The serving layer: fused batching parity, registry, backpressure, HTTP.

The load-bearing property is the micro-batcher's bit-identity contract:
whatever requests arrive, however they are partitioned into batches,
every response must equal — to the bit — what that request would get
from :meth:`SpireModel.estimate` evaluated alone.  Hypothesis drives
arbitrary request mixes (covered/uncovered metrics, zero counts that
produce infinite intensity, empty requests) through arbitrary batch
splits and asserts exact equality.  The rest covers the registry and
its store directory (saved models loaded at construction, a bad file
stopping it, request names that never reach the filesystem), the
batcher's one flush per burst, backpressure, batcher drain, guard
degradation, and the HTTP front door end to end over real sockets:
request framing, shutdown and drain, and the surface the repository
benchmark drives.
Malformed and fuzzed JSON bodies must be answered with a 4xx, never a
500, and every 200 must be valid JSON.
"""

from __future__ import annotations

import asyncio
import builtins
import io
import json
import math
import os
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SpireModel, TrainOptions
from repro.core.columns import SampleArray
from repro.core.roofline import MetricRoofline
from repro.errors import (
    ConfigError,
    DataError,
    DegradedDataWarning,
    EstimationError,
    ServeOverloadError,
)
from repro.geometry.piecewise import PiecewiseLinear
from repro.guard.artifact import attach_header
from repro.guard.dispatch import (
    GUARDED_KERNELS,
    GuardConfig,
    health_report,
    inject_divergence,
    reset_guards,
)
from repro.io import save_model
from repro.io.dataset import MODEL_FORMAT
from repro.serve import (
    MicroBatcher,
    ServeConfig,
    ServeStats,
    SpireServer,
    batch_estimate,
)
import repro.serve.batching as batching_module

GUARD_ENV_PREFIXES = ("SPIRE_GUARD", "SPIRE_SCALAR_FALLBACK")

METRICS = [f"m.{i}" for i in range(5)]


@pytest.fixture(autouse=True)
def fresh_guards(monkeypatch):
    for name in list(os.environ):
        if name.startswith(GUARD_ENV_PREFIXES):
            monkeypatch.delenv(name, raising=False)
    reset_guards()
    yield
    reset_guards()


def _train_model(metrics=METRICS, seed=7) -> SpireModel:
    rng = random.Random(seed)
    records = []
    for index, metric in enumerate(metrics):
        peak = 2.0 + index
        for _ in range(40):
            x = rng.uniform(0.25, 64.0)
            y = min(x, peak) * rng.uniform(0.3, 1.0)
            t = rng.uniform(1.0, 8.0)
            records.append(
                {
                    "metric": metric,
                    "time": t,
                    "work": y * t,
                    "metric_count": (y * t) / x,
                }
            )
    array = SampleArray.from_records(records, validate=True)
    return SpireModel.train(
        array.to_sample_set(), TrainOptions(min_samples_per_metric=1)
    )


@pytest.fixture(scope="module")
def model() -> SpireModel:
    return _train_model()


def _array_from_rows(rows) -> SampleArray:
    names = [name for name, _, _, _ in rows]
    times = [t for _, t, _, _ in rows]
    works = [w for _, _, w, _ in rows]
    counts = [c for _, _, _, c in rows]
    return SampleArray.from_lists(names, times, works, counts)


def _reference(model: SpireModel, array: SampleArray):
    try:
        return model.estimate(array.to_sample_set())
    except EstimationError as exc:
        return exc


def _assert_identical(got, want) -> None:
    """Bit-for-bit: values, key order, and error text all match."""
    if isinstance(want, EstimationError):
        assert isinstance(got, EstimationError)
        assert str(got) == str(want)
        return
    assert isinstance(got, type(want))
    assert got.per_metric == want.per_metric
    assert list(got.per_metric) == list(want.per_metric)
    assert got.sample_counts == want.sample_counts
    assert got.skipped_metrics == want.skipped_metrics
    assert got.throughput == want.throughput
    assert got.limiting_metric == want.limiting_metric


# ---------------------------------------------------------------------------
# batch_estimate: fused kernel parity
# ---------------------------------------------------------------------------

_finite = st.floats(
    min_value=1e-3, max_value=1e3, allow_nan=False, allow_infinity=False
)
_count = st.one_of(st.just(0.0), _finite)  # 0 metric_count => intensity inf
_row = st.tuples(
    st.sampled_from(METRICS + ["uncovered.a", "uncovered.b"]),
    _finite,
    _finite,
    _count,
)
_request = st.lists(_row, min_size=0, max_size=7)
_requests = st.lists(_request, min_size=1, max_size=8)


class TestBatchEstimateParity:
    @given(requests=_requests)
    @settings(max_examples=60, deadline=None)
    def test_fused_matches_per_request(self, requests):
        model = _train_model()
        reset_guards(GuardConfig(check_rate=0))  # pure fast path
        arrays = [_array_from_rows(rows) for rows in requests]
        results = batch_estimate(model, arrays)
        assert len(results) == len(arrays)
        for got, array in zip(results, arrays):
            _assert_identical(got, _reference(model, array))

    @given(requests=_requests)
    @settings(max_examples=30, deadline=None)
    def test_guarded_every_call_stays_clean(self, requests):
        model = _train_model()
        reset_guards(GuardConfig(check_rate=1))  # oracle checks every batch
        arrays = [_array_from_rows(rows) for rows in requests]
        results = batch_estimate(model, arrays)
        for got, array in zip(results, arrays):
            _assert_identical(got, _reference(model, array))
        health = health_report()
        assert not health.divergences
        assert health.kernels["serve.batch_estimate"].checks >= 1

    def test_kernel_is_registered(self):
        assert "serve.batch_estimate" in GUARDED_KERNELS

    def test_empty_request_fails_alone(self, model):
        reset_guards(GuardConfig(check_rate=0))
        good = _array_from_rows([("m.0", 1.0, 2.0, 1.0)])
        empty = SampleArray.from_lists([], [], [], [])
        results = batch_estimate(model, [empty, good])
        assert isinstance(results[0], EstimationError)
        assert "empty" in str(results[0])
        _assert_identical(results[1], _reference(model, good))

    def test_uncovered_request_fails_alone(self, model):
        reset_guards(GuardConfig(check_rate=0))
        good = _array_from_rows([("m.1", 1.0, 2.0, 1.0)])
        alien = _array_from_rows([("uncovered.a", 1.0, 2.0, 1.0)])
        results = batch_estimate(model, [alien, good])
        assert isinstance(results[0], EstimationError)
        assert "covered" in str(results[0])
        _assert_identical(results[1], _reference(model, good))

    def test_overflowing_request_fails_alone_under_raise(self, model):
        """Under the guard's raise policy, with every batch checked, an
        overflow is its own request's error and no divergence."""
        reset_guards(GuardConfig(check_rate=1, policy="raise"))
        good = _array_from_rows([("m.0", 1.0, 2.0, 1.0)])
        huge = _array_from_rows(
            [("m.0", 1e308, 1e308, 1.0), ("m.0", 1e308, 1e308, 1.0)]
        )
        results = batch_estimate(model, [good, huge])
        _assert_identical(results[0], _reference(model, good))
        assert isinstance(results[1], EstimationError)
        assert "overflow" in str(results[1])
        assert health_report().ok

    def test_tripped_guard_serves_the_scalar_oracle(self, model, monkeypatch):
        reset_guards(GuardConfig(check_rate=1))
        inject_divergence("serve.batch_estimate")
        arrays = [_array_from_rows([("m.0", 1.0, 2.0, 1.0)])]
        with pytest.warns(DegradedDataWarning, match="injected divergence"):
            batch_estimate(model, arrays)
        want = _reference(model, arrays[0])
        calls = {"_estimate_scalar": 0, "_estimate_columnar": 0}
        for name in calls:
            method = getattr(SpireModel, name)

            def spy(self, *args, _name=name, _method=method):
                calls[_name] += 1
                return _method(self, *args)

            monkeypatch.setattr(SpireModel, name, spy)
        for _ in range(3):
            (got,) = batch_estimate(model, arrays)
            _assert_identical(got, want)
        assert calls == {"_estimate_scalar": 3, "_estimate_columnar": 0}

    def test_injected_divergence_degrades_to_per_request(self, model):
        reset_guards(GuardConfig(check_rate=1))
        inject_divergence("serve.batch_estimate")
        arrays = [
            _array_from_rows([("m.0", 1.0, 2.0, 1.0), ("m.1", 2.0, 3.0, 1.5)]),
            _array_from_rows([("m.2", 1.0, 4.0, 2.0)]),
        ]
        with pytest.warns(DegradedDataWarning, match="injected divergence"):
            first = batch_estimate(model, arrays)
        health = health_report()
        assert health.divergences and health.divergences[0].injected
        assert "serve.batch_estimate" in health.tripped_kernels
        # Tripped: the degraded path serves per-request results, still
        # identical to the reference.
        second = batch_estimate(model, arrays)
        for results in (first, second):
            for got, array in zip(results, arrays):
                _assert_identical(got, _reference(model, array))


#: Hand-made rooflines the packed table must get right: step
#: discontinuities (one whose minimum sits mid-run, one at each end, where
#: the boundary clamp beats the run minimum) and a single breakpoint.
STEPPED_SHAPES = {
    "step.down": [(0.5, 1.0), (2.0, 4.0), (2.0, 3.0), (5.0, 3.0), (9.0, 6.0)],
    "step.mid": [(1.0, 2.0), (3.0, 5.0), (3.0, 1.5), (3.0, 2.5), (6.0, 2.5)],
    "step.edges": [(2.0, 3.0), (2.0, 1.0), (4.0, 5.0), (4.0, 2.0)],
    "single": [(3.0, 2.5)],
}


def _stepped_model() -> SpireModel:
    trained = _train_model()
    rooflines = {metric: trained.roofline(metric) for metric in trained.metrics}
    for metric, points in STEPPED_SHAPES.items():
        function = PiecewiseLinear(points)
        rooflines[metric] = MetricRoofline(
            metric=metric,
            function=function,
            apex=function.breakpoints[0],
            sample_count=1,
        )
    return SpireModel(rooflines)


@pytest.fixture(scope="module")
def stepped_models(tmp_path_factory):
    """The stepped model in process and as a store file serves it."""
    model = _stepped_model()
    store = tmp_path_factory.mktemp("stepped")
    save_model(model, store / "stepped.json")
    server = SpireServer(ServeConfig(port=0, store_dir=str(store)))
    return {"in-process": model, "stored": server.registry.get("stepped")}


def _breakpoint_xs(model: SpireModel, metric: str) -> "list[float]":
    return [p.x for p in model.roofline(metric).function.breakpoints]


@st.composite
def _breakpoint_row(draw, model: SpireModel, union: "list[float]"):
    """One row whose intensity lands on, between or beyond breakpoints.

    ``work = x`` over ``metric_count = 1`` makes the intensity exactly
    ``x``; a zero count makes it ``inf``.
    """
    metric = draw(st.sampled_from(model.metrics + ["uncovered.a"]))
    own = _breakpoint_xs(model, metric) if metric in model else union
    distinct = sorted(set(own))
    midpoints = [(a + b) / 2 for a, b in zip(distinct, distinct[1:])]
    time = draw(_finite)
    kind = draw(st.sampled_from(["own", "union", "mid", "outside", "inf"]))
    if kind == "inf":
        return (metric, time, draw(_finite), 0.0)
    if kind == "own":
        x = draw(st.sampled_from(own))
    elif kind == "union":  # another metric's x: a hit in values, not in own
        x = draw(st.sampled_from(union))
    elif kind == "mid" and midpoints:
        x = draw(st.sampled_from(midpoints))
    else:
        x = draw(st.sampled_from([distinct[0] / 2, distinct[-1] * 2]))
    return (metric, time, x, 1.0)


class TestPackedParity:
    """The packed roofline table against per-request ``estimate``, on
    intensities that hit breakpoints exactly, which the continuous draws
    of ``test_fused_matches_per_request`` practically never do."""

    @pytest.mark.parametrize("kind", ["in-process", "stored"])
    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_breakpoint_intensities_match_per_request(
        self, stepped_models, kind, data
    ):
        model = stepped_models[kind]
        reset_guards(GuardConfig(check_rate=0))  # pure fast path
        union = sorted(
            {x for metric in model.metrics for x in _breakpoint_xs(model, metric)}
        )
        row = _breakpoint_row(model, union)
        requests = data.draw(
            st.lists(st.lists(row, max_size=12), min_size=1, max_size=6)
        )
        arrays = [_array_from_rows(rows) for rows in requests]
        results = batch_estimate(model, arrays)
        assert len(results) == len(arrays)
        for got, array in zip(results, arrays):
            _assert_identical(got, _reference(model, array))

    def test_every_breakpoint_of_every_metric(self, stepped_models):
        """Deterministic sweep: each breakpoint x, midpoint and outside
        point of each metric, all in one batch."""
        reset_guards(GuardConfig(check_rate=0))
        for model in stepped_models.values():
            arrays = []
            for metric in model.metrics:
                xs = sorted(set(_breakpoint_xs(model, metric)))
                probes = xs + [(a + b) / 2 for a, b in zip(xs, xs[1:])]
                probes += [xs[0] / 2, xs[-1] * 2]
                arrays.extend(
                    _array_from_rows([(metric, 1.0, x, 1.0)]) for x in probes
                )
                arrays.append(_array_from_rows([(metric, 1.0, 1.0, 0.0)]))
            results = batch_estimate(model, arrays)
            for got, array in zip(results, arrays):
                _assert_identical(got, _reference(model, array))


# ---------------------------------------------------------------------------
# micro-batcher: coalescing, interleavings, backpressure
# ---------------------------------------------------------------------------


def _run(coro):
    return asyncio.run(coro)


class TestFlush:
    """One scheduled flush per burst: every request submitted before the
    event loop reaches the flush joins it, one evaluation per model."""

    @pytest.fixture
    def evaluations(self, monkeypatch) -> list:
        """Record each ``batch_estimate`` call as (model, request count);
        a model whose rooflines cover ``"n.0"`` fails its evaluation."""
        reset_guards(GuardConfig(check_rate=0))
        calls = []
        evaluate = batching_module.batch_estimate

        def spy(model, arrays):
            calls.append((model, len(arrays)))
            if "n.0" in model.metrics:
                raise RuntimeError("injected evaluation failure")
            return evaluate(model, arrays)

        monkeypatch.setattr(batching_module, "batch_estimate", spy)
        return calls

    def test_one_evaluation_per_model_per_burst(self, model, evaluations):
        other = _train_model(metrics=["m.0", "m.1"], seed=11)
        models = {"first": model, "second": other}
        array = _array_from_rows(_ROWS)
        stats = ServeStats()

        async def drive():
            batcher = MicroBatcher(models.__getitem__, stats=stats)
            burst = await asyncio.gather(
                *(batcher.submit(name, array) for name in
                  ["first", "second", "first", "second", "first"])
            )
            after_burst = (list(evaluations), stats.snapshot())
            late = await batcher.submit("first", array)
            return burst, after_burst, late

        burst, (burst_calls, snapshot), late = _run(drive())
        assert burst_calls == [(model, 3), (other, 2)]
        assert snapshot["batches"] == 2
        assert snapshot["batch_fill"]["max"] == 3
        # A submit after the flush schedules a flush of its own.
        assert evaluations == burst_calls + [(model, 1)]
        assert stats.snapshot()["batches"] == 3
        for name, got in zip(["first", "second", "first", "second", "first"],
                             burst):
            _assert_identical(got, _reference(models[name], array))
        _assert_identical(late, _reference(model, array))

    def test_failed_evaluation_fails_only_its_model(
        self, model, evaluations
    ):
        failing = _train_model(metrics=["n.0", "n.1"], seed=11)
        models = {"good": model, "bad": failing}
        array = _array_from_rows(_ROWS)

        async def drive():
            batcher = MicroBatcher(models.__getitem__)
            return await asyncio.gather(
                *(batcher.submit(name, array) for name in
                  ["bad", "good", "bad", "good"]),
                return_exceptions=True,
            )

        bad, good, bad_again, good_again = _run(drive())
        assert evaluations == [(failing, 2), (model, 2)]
        for failed in (bad, bad_again):
            assert isinstance(failed, RuntimeError)
        for got in (good, good_again):
            _assert_identical(got, _reference(model, array))


class TestMicroBatcher:
    def test_interleaved_submissions_match_reference(self, model):
        reset_guards(GuardConfig(check_rate=0))
        second = _train_model(metrics=["n.0", "n.1"], seed=11)
        models = {"first": model, "second": second}
        rng = random.Random(3)
        plan = []
        for index in range(40):
            name = rng.choice(["first", "second"])
            pool = METRICS if name == "first" else ["n.0", "n.1"]
            rows = [
                (
                    rng.choice(pool + ["uncovered.z"]),
                    rng.uniform(0.5, 4.0),
                    rng.uniform(0.5, 8.0),
                    rng.choice([0.0, rng.uniform(0.1, 8.0)]),
                )
                for _ in range(rng.randint(1, 6))
            ]
            plan.append((name, _array_from_rows(rows)))

        async def drive():
            batcher = MicroBatcher(lambda name: models[name])
            try:

                async def one(name, array, delay):
                    await asyncio.sleep(delay)
                    try:
                        return await batcher.submit(name, array)
                    except EstimationError as exc:
                        return exc

                return await asyncio.gather(
                    *(
                        one(name, array, (i % 5) * 0.003)
                        for i, (name, array) in enumerate(plan)
                    )
                )
            finally:
                batcher.close()

        results = _run(drive())
        for (name, array), got in zip(plan, results):
            _assert_identical(got, _reference(models[name], array))

    def test_full_queue_rejects_with_retry_after(self, model):
        reset_guards(GuardConfig(check_rate=0))
        array = _array_from_rows([("m.0", 1.0, 2.0, 1.0)])

        async def drive():
            batcher = MicroBatcher(lambda name: model)
            # Every submit runs in one loop iteration, before the flush
            # it scheduled: the one past the bound finds the queue full.
            accepted = [
                asyncio.ensure_future(batcher.submit("m", array))
                for _ in range(batching_module.QUEUE_LIMIT)
            ]
            refused = asyncio.ensure_future(batcher.submit("m", array))
            with pytest.raises(ServeOverloadError) as excinfo:
                await refused
            return excinfo.value, await asyncio.gather(*accepted)

        error, results = _run(drive())
        assert error.retry_after == 0.05
        assert not error.shed
        assert len(results) == batching_module.QUEUE_LIMIT
        for got in results:
            _assert_identical(got, _reference(model, array))

    def test_closed_batcher_refuses(self, model):
        async def drive():
            batcher = MicroBatcher(lambda name: model)
            batcher.close()
            with pytest.raises(ServeOverloadError):
                await batcher.submit(
                    "m", _array_from_rows([("m.0", 1.0, 2.0, 1.0)])
                )

        _run(drive())


_ROWS = [("m.0", 1.0, 2.0, 1.0), ("m.1", 2.0, 6.0, 1.5)]


class TestBatcherDrain:
    def test_drain_flushes_parked_lanes(self, model):
        reset_guards(GuardConfig(check_rate=0))
        array = _array_from_rows(_ROWS)
        want = model.estimate(array.to_sample_set())

        async def drive():
            batcher = MicroBatcher(lambda _: model)
            futures = [
                asyncio.ensure_future(batcher.submit("m", array))
                for _ in range(3)
            ]
            # The three submits run in this iteration and the flush they
            # scheduled in the next, so the drain finds them pending.
            await asyncio.sleep(0)
            assert batcher.queue_depths() == {"m": 3}
            flushed = batcher.drain()
            results = await asyncio.gather(*futures)
            return flushed, results

        flushed, results = _run(drive())
        assert flushed == 3
        for got in results:
            assert got.per_metric == want.per_metric

    def test_submit_after_drain_sheds(self, model):
        array = _array_from_rows(_ROWS)

        async def drive():
            batcher = MicroBatcher(lambda _: model)
            batcher.drain()
            with pytest.raises(ServeOverloadError) as excinfo:
                await batcher.submit("m", array)
            return excinfo.value

        assert _run(drive()).shed

    def test_close_fails_queued_as_shed(self, model):
        array = _array_from_rows(_ROWS)

        async def drive():
            batcher = MicroBatcher(lambda _: model)
            future = asyncio.ensure_future(batcher.submit("m", array))
            # Closed before the flush the submit scheduled: the request
            # is pending.
            await asyncio.sleep(0)
            assert batcher.queue_depths() == {"m": 1}
            batcher.close()
            with pytest.raises(ServeOverloadError) as excinfo:
                await future
            return excinfo.value

        assert _run(drive()).shed  # maps to 503, not 429


# ---------------------------------------------------------------------------
# HTTP front door
# ---------------------------------------------------------------------------


async def _http(host, port, method, target, body=b"", content_type="application/json"):
    reader, writer = await asyncio.open_connection(host, port)
    try:
        head = (
            f"{method} {target} HTTP/1.1\r\n"
            f"Host: {host}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: close\r\n\r\n"
        ).encode()
        writer.write(head + body)
        await writer.drain()
        return await _read_response(reader)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def _read_response(reader):
    header = await reader.readuntil(b"\r\n\r\n")
    status = int(header.split(b" ", 2)[1])
    headers = {}
    for line in header.split(b"\r\n")[1:]:
        if b":" in line:
            key, value = line.split(b":", 1)
            headers[key.strip().lower().decode()] = value.strip().decode()
    length = int(headers.get("content-length", "0"))
    payload = json.loads((await reader.readexactly(length)).decode())
    return status, payload, headers


def _serve_config(tmp_path, **kwargs) -> ServeConfig:
    kwargs.setdefault("port", 0)
    kwargs.setdefault("store_dir", str(tmp_path / "store"))
    return ServeConfig(**kwargs)


def _demo_server(tmp_path, model, **kwargs) -> SpireServer:
    server = SpireServer(_serve_config(tmp_path, **kwargs))
    server.registry.install("demo", model)
    return server


def _estimate_body(name: str = "demo") -> bytes:
    return json.dumps(
        {
            "model": name,
            "samples": [
                {"metric": m, "time": t, "work": w, "metric_count": c}
                for m, t, w, c in _ROWS
            ],
        }
    ).encode()


def _want_per_metric(model: SpireModel) -> dict:
    estimate = model.estimate(_array_from_rows(_ROWS).to_sample_set())
    return json.loads(json.dumps(estimate.per_metric))


@pytest.fixture
def held_lane(monkeypatch) -> asyncio.Event:
    """Hold every batcher flush until the returned event is set.

    A flush runs as soon as the event loop reaches it, so a test that
    needs pending requests holds it back.
    """
    release = asyncio.Event()
    flush = MicroBatcher._flush

    def held(self):
        async def when_released():
            await release.wait()
            flush(self)

        asyncio.ensure_future(when_released())

    monkeypatch.setattr(MicroBatcher, "_flush", held)
    return release


async def _until_queued(server: SpireServer, count: int) -> None:
    """Wait until ``count`` requests of the demo model are pending."""
    for _ in range(1000):
        if server.batcher.queue_depths().get("demo", 0) >= count:
            return
        await asyncio.sleep(0.005)
    raise AssertionError(f"{count} request(s) never reached the queue")


class TestServer:
    def test_estimate_analyze_and_errors(self, model, tmp_path):
        reset_guards(GuardConfig(check_rate=0))
        config = _serve_config(tmp_path)
        server = SpireServer(config)
        server.registry.install("demo", model)
        array = _array_from_rows(
            [("m.0", 1.0, 2.0, 1.0), ("m.1", 2.0, 6.0, 1.5)]
        )
        want = model.estimate(array.to_sample_set())
        body = json.dumps(
            {
                "model": "demo",
                "samples": [
                    {"metric": "m.0", "time": 1.0, "work": 2.0,
                     "metric_count": 1.0},
                    {"metric": "m.1", "time": 2.0, "work": 6.0,
                     "metric_count": 1.5},
                ],
            }
        ).encode()

        async def drive():
            await server.start()
            host, port = config.host, server.port
            try:
                status, payload, _ = await _http(
                    host, port, "POST", "/v1/estimate", body
                )
                assert status == 200
                roundtrip = json.loads(json.dumps(want.per_metric))
                assert payload["per_metric"] == roundtrip
                assert payload["limiting_metric"] == want.limiting_metric

                status, payload, _ = await _http(
                    host, port, "POST", "/v1/analyze", body
                )
                assert status == 200
                assert [r["metric"] for r in payload["ranking"]]
                assert payload["measured_throughput"] is not None

                status, payload, _ = await _http(
                    host, port, "GET", "/v1/models"
                )
                assert status == 200 and payload["models"] == ["demo"]

                status, payload, _ = await _http(
                    host, port, "POST", "/v1/estimate",
                    json.dumps({"model": "ghost", "samples": []}).encode(),
                )
                assert status == 404

                status, payload, _ = await _http(
                    host, port, "POST", "/v1/estimate", b"{broken"
                )
                assert status == 400

                status, _, _ = await _http(host, port, "GET", "/nope")
                assert status == 404
            finally:
                await server.stop()

        _run(drive())

    def test_csv_body_and_health(self, model, tmp_path):
        reset_guards(GuardConfig(check_rate=0))
        # The CSV path serves perf events; train a model over them.
        perf_model = _train_model(metrics=["instructions", "cache-misses"])
        config = _serve_config(tmp_path)
        server = SpireServer(config)
        server.registry.install("perf", perf_model)
        csv = (
            "1.0,100,,instructions,1,100.0,,\n"
            "1.0,200,,cycles,1,100.0,,\n"
            "1.0,40,,cache-misses,1,100.0,,\n"
            "2.0,100,,instructions,1,100.0,,\n"
            "2.0,210,,cycles,1,100.0,,\n"
            "2.0,35,,cache-misses,1,100.0,,\n"
        ).encode()
        bad_rows = (
            "3.0,100,,instructions,1,100.0,,\n"
            "3.0,220,,cycles,1,100.0,,\n"
            "3.0,nan,,cache-misses,1,100.0,,\n"
            "4.0,100,,instructions,1,100.0,,\n"
            "4.0,inf,,cycles,1,100.0,,\n"
            "4.0,-3,,cache-misses,1,100.0,,\n"
        ).encode()

        async def drive():
            await server.start()
            host, port = config.host, server.port
            try:
                status, payload, _ = await _http(
                    host, port, "POST", "/v1/estimate?model=perf", csv,
                    content_type="text/csv",
                )
                assert status == 200
                assert payload["model"] == "perf"
                assert payload["per_metric"]
                clean_per_metric = payload["per_metric"]

                # NaN, infinite and negative counts are quarantined, not
                # a reason to ask the client to resend.
                status, payload, _ = await _http(
                    host, port, "POST", "/v1/estimate?model=perf",
                    csv + bad_rows, content_type="text/csv",
                )
                assert status == 200
                assert payload["per_metric"] == clean_per_metric
                assert "3 quarantined" in payload["quality"]
                assert "non-finite counter value" in payload["quality"]
                assert "negative counter value" in payload["quality"]

                status, _, _ = await _http(
                    host, port, "POST", "/v1/estimate", csv,
                    content_type="text/csv",
                )
                assert status == 400  # model name must ride the query

                status, payload, _ = await _http(host, port, "GET", "/health")
                assert status == 200
                serve_state = payload["health"]["serve_state"]
                assert serve_state["requests"] >= 2
                assert serve_state["registry"]["models"] == ["perf"]
                assert serve_state["batcher"]["enabled"]
                assert "render" in payload
            finally:
                await server.stop()

        _run(drive())

    def test_nan_stamped_interval_is_quarantined(self, tmp_path):
        """A CSV interval stamped ``nan`` is a ``quality`` entry, and the
        other intervals are estimated as if it were not in the body."""
        from repro.serve.server import _Request

        reset_guards(GuardConfig(check_rate=0))
        server = SpireServer(_serve_config(tmp_path))
        server.registry.install("perf", _train_model(metrics=["m.a"]))
        intervals = [("3.0", 300, 900, 30), ("nan", 200, 800, 20),
                     ("1.0", 100, 700, 10)]
        loop = asyncio.new_event_loop()

        def post(rows):
            body = "".join(
                f"{stamp},{value},,{event},1000,100.00,,\n"
                for stamp, work, time, count in rows
                for event, value in (
                    ("instructions", work), ("cycles", time), ("m.a", count)
                )
            )
            request = _Request(
                "POST", "/v1/estimate", {"model": "perf"},
                {"content-type": "text/csv"}, body.encode(),
            )
            return loop.run_until_complete(server._dispatch(request))

        try:
            got, want = post(intervals), post(intervals[::2])
        finally:
            server.batcher.close()
            loop.close()
        assert got.status == want.status == 200
        assert "1x non-numeric timestamp" in got.payload["quality"]
        assert "quality" not in want.payload
        del got.payload["quality"]
        assert got.payload == want.payload

    def test_backpressure_maps_to_429(
        self, model, tmp_path, held_lane, monkeypatch
    ):
        reset_guards(GuardConfig(check_rate=0))
        # One pending request fills the queue (256 outside this test).
        monkeypatch.setattr(batching_module, "QUEUE_LIMIT", 1)
        config = _serve_config(tmp_path)
        server = SpireServer(config)
        server.registry.install("demo", model)
        body = json.dumps(
            {
                "model": "demo",
                "samples": [
                    {"metric": "m.0", "time": 1.0, "work": 2.0,
                     "metric_count": 1.0}
                ],
            }
        ).encode()

        async def drive():
            await server.start()
            host, port = config.host, server.port
            try:
                first = asyncio.ensure_future(
                    _http(host, port, "POST", "/v1/estimate", body)
                )
                await _until_queued(server, 1)  # held before its flush
                status, payload, headers = await _http(
                    host, port, "POST", "/v1/estimate", body
                )
                assert status == 429
                assert float(headers["retry-after"]) == 0.05
                assert server.stats.snapshot()["backpressure"]["rejected"] == 1
                held_lane.set()
                status, _, _ = await first
                assert status == 200
            finally:
                await server.stop()

        _run(drive())

    def test_doctor_probe_reads_live_server(self, model, tmp_path):
        from repro.guard.doctor import probe_server, render_server_health

        reset_guards(GuardConfig(check_rate=0))
        config = _serve_config(tmp_path)
        server = SpireServer(config)
        server.registry.install("demo", model)

        async def drive():
            await server.start()
            url = f"http://{config.host}:{server.port}"
            try:
                loop = asyncio.get_running_loop()
                payload = await loop.run_in_executor(
                    None, probe_server, url
                )
                assert payload["ok"]
                text = render_server_health(payload)
                assert "micro-batch(es)" in text
            finally:
                await server.stop()

        _run(drive())

    def test_benchmark_surface(self, model, tmp_path):
        """What the repository benchmark's ``serve`` host does: a store
        directory that does not exist, ``registry.install`` before
        ``start()``, a columnar estimate, integer lookup counters, and
        ``ModelRegistry.get`` where its tracer wraps it."""
        import repro.serve.registry as registry_module

        assert callable(registry_module.ModelRegistry.get)
        reset_guards(GuardConfig(check_rate=0))
        config = ServeConfig(port=0, store_dir=str(tmp_path / "models-1"))
        server = SpireServer(config)
        server.registry.install("bench", model)
        body = json.dumps({"model": "bench", "columns": _COLUMNS}).encode()

        async def drive():
            await server.start()
            try:
                return await _http(
                    config.host, server.port, "POST", "/v1/estimate", body
                )
            finally:
                await server.stop()

        status, payload, _ = _run(drive())
        assert status == 200
        rows = list(zip(*_COLUMNS.values()))
        want = model.estimate(_array_from_rows(rows).to_sample_set())
        assert payload["per_metric"] == json.loads(json.dumps(want.per_metric))
        snapshot = server.registry.snapshot()
        assert type(snapshot["hits"]) is int and snapshot["hits"] >= 1
        assert type(snapshot["misses"]) is int

    def test_expect_100_continue_is_answered_before_the_body(
        self, model, tmp_path
    ):
        """A client that sends ``Expect: 100-continue`` holds its body
        back until it hears ``100 Continue`` (curl for a second, then it
        sends anyway), so the server must answer the expectation before
        it reads the body."""
        reset_guards(GuardConfig(check_rate=0))
        server = _demo_server(tmp_path, model)
        body = _estimate_body()
        head = (
            "POST /v1/estimate HTTP/1.1\r\n"
            "Host: 127.0.0.1\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Expect: 100-continue\r\n"
            "Connection: close\r\n\r\n"
        ).encode()

        async def drive():
            await server.start()
            host, port = server.config.host, server.port
            try:
                reader, writer = await asyncio.open_connection(host, port)
                try:
                    writer.write(head)
                    await writer.drain()
                    interim = await asyncio.wait_for(
                        reader.readuntil(b"\r\n\r\n"), 2.0
                    )
                    writer.write(body)
                    await writer.drain()
                    expected = await _read_response(reader)
                finally:
                    writer.close()
                plain = await _http(host, port, "POST", "/v1/estimate", body)
                return interim, expected, plain
            finally:
                await server.stop()

        interim, (status, payload, _), (plain_status, plain, _) = _run(
            drive()
        )
        assert interim == b"HTTP/1.1 100 Continue\r\n\r\n"
        assert status == plain_status == 200
        assert payload == plain

    def test_oversized_body_closes_the_connection(self, model, tmp_path):
        """A 413 leaves the body unread, so it must end the connection:
        a body that looks like a request is never answered as one."""
        server = _demo_server(tmp_path, model, max_body=64)
        smuggled = b"GET /v1/models HTTP/1.1\r\nX-Pad: " + b"a" * 80 + b"\r\n\r\n"
        assert len(smuggled) == 116
        head = (
            "POST /v1/estimate HTTP/1.1\r\n"
            "Host: 127.0.0.1\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(smuggled)}\r\n"
            "Connection: keep-alive\r\n\r\n"
        ).encode()

        async def drive():
            await server.start()
            reader, writer = await asyncio.open_connection(
                server.config.host, server.port
            )
            try:
                writer.write(head + smuggled)
                await writer.drain()
                header = await reader.readuntil(b"\r\n\r\n")
                lines = header.decode("latin-1").split("\r\n")
                headers = {
                    key.strip().lower(): value.strip()
                    for key, _, value in (
                        line.partition(":") for line in lines[1:] if line
                    )
                }
                payload = await reader.readexactly(
                    int(headers["content-length"])
                )
                # EOF reads b""; a second response fails the assert and
                # a connection left open times out.
                rest = await asyncio.wait_for(reader.read(65536), 5.0)
                return lines[0], headers, payload, rest
            finally:
                writer.close()
                await server.stop()

        status_line, headers, payload, rest = _run(drive())
        assert status_line.split(" ")[1] == "413"
        assert headers["connection"] == "close"
        assert "too large" in json.loads(payload)["error"]
        assert rest == b""


# ---------------------------------------------------------------------------
# registry and store: models in memory, loaded when the server is built
# ---------------------------------------------------------------------------


@pytest.fixture
def file_access(monkeypatch) -> list:
    """Every path the process stats, lists or opens while the test runs."""
    seen: list = []
    targets = [(os, "stat"), (os, "scandir"), (os, "listdir"), (os, "open"),
               (io, "open"), (builtins, "open")]
    for module, name in targets:
        real = getattr(module, name)

        def spy(path=".", *args, _real=real, **kwargs):
            seen.append(path)
            return _real(path, *args, **kwargs)

        monkeypatch.setattr(module, name, spy)
    return seen


#: (breakpoint coordinate, rows of the first metric, value, what the
#: loader calls it) written into a store file that is then re-signed, so
#: only the loader's own breakpoint check can refuse it.
BAD_BREAKPOINTS = [
    pytest.param(1, slice(None), math.nan, "non-finite", id="nan-y"),
    pytest.param(0, slice(-1, None), math.nan, "non-finite", id="nan-last-x"),
    pytest.param(1, slice(0, 1), math.inf, "non-finite", id="inf-y"),
    pytest.param(1, slice(None), -27.3, "negative", id="negative-y"),
]


#: (variable, value, the error after the variable's name) of guard
#: settings that must stop a server before it listens, rather than fail
#: its requests or quietly become a default.
BAD_GUARD_SETTINGS = [
    ("SPIRE_GUARD_RATE", "-1", "cannot be negative, got -1"),
    ("SPIRE_GUARD_RATE", "abc", "must be an integer, got 'abc'"),
    ("SPIRE_GUARD_SEED", "1.5", "must be an integer, got '1.5'"),
    ("SPIRE_GUARD_POLICY", "explode",
     "must be one of degrade, raise, got 'explode'"),
]


class TestRegistry:
    def test_store_model_is_served_and_listed(self, model, tmp_path):
        reset_guards(GuardConfig(check_rate=0))
        save_model(model, tmp_path / "store" / "disk.json")
        server = _demo_server(tmp_path, model)
        host = server.config.host

        async def drive():
            await server.start()
            try:
                listed = await _http(host, server.port, "GET", "/v1/models")
                estimated = await _http(
                    host, server.port, "POST", "/v1/estimate",
                    _estimate_body("disk"),
                )
                return listed, estimated
            finally:
                await server.stop()

        (status, listed, _), (status2, payload, _) = _run(drive())
        assert status == 200 and listed["models"] == ["demo", "disk"]
        assert status2 == 200
        assert payload["model"] == "disk"
        assert payload["per_metric"] == _want_per_metric(model)

    def test_corrupt_store_file_stops_construction(self, model, tmp_path):
        path = save_model(model, tmp_path / "store" / "victim.json")
        payload = json.loads(path.read_text())
        payload["rooflines"]["m.0"]["sample_count"] += 1  # stale checksum
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError, match="victim.json: checksum mismatch"):
            SpireServer(_serve_config(tmp_path))
        assert not path.exists()  # moved, never served
        quarantine = tmp_path / "store" / ".quarantine"
        assert [entry.name for entry in quarantine.iterdir()] == ["victim.json"]

    @pytest.mark.parametrize("axis, rows, value, what", BAD_BREAKPOINTS)
    def test_non_finite_breakpoints_stop_construction(
        self, model, tmp_path, axis, rows, value, what
    ):
        payload = model.to_dict()
        points = payload["rooflines"]["m.0"]["function"]["breakpoints"]
        for point in points[rows]:
            point[axis] = value
        path = tmp_path / "store" / "bad.json"
        path.parent.mkdir()
        path.write_text(json.dumps(attach_header(payload, MODEL_FORMAT)))
        with pytest.raises(
            DataError, match=f"bad.json: metric 'm.0' has {what} breakpoints"
        ):
            SpireServer(_serve_config(tmp_path))

    @pytest.mark.parametrize("variable, value, error", BAD_GUARD_SETTINGS)
    def test_bad_guard_setting_stops_construction(
        self, tmp_path, monkeypatch, variable, value, error
    ):
        # The context restores the variable before fresh_guards resets.
        with monkeypatch.context() as patch:
            patch.setenv(variable, value)
            with pytest.raises(ConfigError) as raised:
                SpireServer(_serve_config(tmp_path))
        assert str(raised.value) == f"{variable} {error}"

    def test_unreadable_store_entry_stops_construction(self, tmp_path):
        (tmp_path / "store" / "odd.json").mkdir(parents=True)
        with pytest.raises(DataError, match="odd.json: cannot read"):
            SpireServer(_serve_config(tmp_path))

    def test_missing_store_serves_only_installed_models(
        self, model, tmp_path
    ):
        from repro.serve.server import _Request

        server = _demo_server(tmp_path, model)
        request = _Request("GET", "/v1/models", {}, {}, b"")
        response = asyncio.run(server._dispatch(request))
        assert response.status == 200
        assert response.payload["models"] == ["demo"]
        assert not (tmp_path / "store").exists()

    def test_model_names_are_sandboxed(self, model, tmp_path, file_access):
        """Request names are dictionary keys: ``../demo`` and ``a/b``
        answer 404 and touch no file, though each names a saved model
        relative to the store."""
        from repro.serve.server import _Request

        save_model(model, tmp_path / "demo.json")
        save_model(model, tmp_path / "store" / "a" / "b.json")
        server = _demo_server(tmp_path, model)
        assert server.registry.names() == ["demo"]
        loop = asyncio.new_event_loop()
        try:
            file_access.clear()
            for name in ("../demo", "a/b"):
                request = _Request(
                    "POST", "/v1/estimate", {},
                    {"content-type": "application/json"}, _estimate_body(name),
                )
                response = loop.run_until_complete(server._dispatch(request))
                assert response.status == 404, response.payload
                assert repr(name) in response.payload["error"]
            assert file_access == []
        finally:
            loop.close()


class TestServerRobustness:
    def test_stop_answers_queued_requests_with_503(
        self, model, tmp_path, held_lane
    ):
        """Shutdown with a held flush: pending requests get 503, not a hang."""
        reset_guards(GuardConfig(check_rate=0))
        server = _demo_server(tmp_path, model)

        async def drive():
            await server.start()
            request = asyncio.ensure_future(
                _http(
                    server.config.host, server.port, "POST", "/v1/estimate",
                    _estimate_body(),
                )
            )
            await _until_queued(server, 1)  # held before its flush
            started = time.perf_counter()
            await server.stop()
            elapsed = time.perf_counter() - started
            status, payload, _ = await request
            return elapsed, status, payload

        elapsed, status, payload = _run(drive())
        assert elapsed < 10.0  # the held flush never ran: stop failed it
        assert status == 503
        assert "error" in payload

    def test_graceful_drain_completes_queued_requests(
        self, model, tmp_path, held_lane
    ):
        reset_guards(GuardConfig(check_rate=0))
        server = _demo_server(tmp_path, model)

        async def drive():
            await server.start()
            request = asyncio.ensure_future(
                _http(
                    server.config.host, server.port, "POST", "/v1/estimate",
                    _estimate_body(),
                )
            )
            await _until_queued(server, 1)  # held before its flush
            stop = asyncio.ensure_future(server.stop(drain=True))
            while not server.batcher._closed:  # the drain has counted it
                await asyncio.sleep(0.005)
            held_lane.set()
            await stop
            status, payload, _ = await request
            return status, payload, server.stats.snapshot()

        status, payload, stats = _run(drive())
        assert status == 200
        assert payload["per_metric"] == _want_per_metric(model)
        assert stats["drain"]["count"] == 1
        assert stats["drain"]["flushed"] >= 1

    def test_evaluation_error_answers_500_and_lane_survives(
        self, model, tmp_path, monkeypatch
    ):
        """A batch whose evaluation raises fails its requests with a 500;
        the next request gets a new flush and is answered."""
        reset_guards(GuardConfig(check_rate=0))
        server = _demo_server(tmp_path, model)
        body = _estimate_body()
        want = model.estimate(_array_from_rows(_ROWS).to_sample_set())
        fused = batching_module.fused_estimate
        calls = []

        def fails_once(model, arrays):
            calls.append(len(arrays))
            if len(calls) == 1:
                raise RuntimeError("injected evaluation failure")
            return fused(model, arrays)

        monkeypatch.setattr(batching_module, "fused_estimate", fails_once)

        async def drive():
            await server.start()
            host, port = server.config.host, server.port
            try:
                first = await asyncio.wait_for(
                    _http(host, port, "POST", "/v1/estimate", body), 5.0
                )
                second = await asyncio.wait_for(
                    _http(host, port, "POST", "/v1/estimate", body), 5.0
                )
                return first, second
            finally:
                await server.stop()

        (status, payload, _), (status2, payload2, _) = _run(drive())
        assert status == 500
        assert "injected evaluation failure" in payload["error"]
        assert status2 == 200
        expected = json.loads(json.dumps({
            "throughput": want.throughput,
            "limiting_metric": want.limiting_metric,
            "per_metric": want.per_metric,
            "sample_counts": want.sample_counts,
            "skipped_metrics": want.skipped_metrics,
        }))
        for field, value in expected.items():
            assert payload2[field] == value
        assert server.stats.snapshot()["errors"] >= 1

# ---------------------------------------------------------------------------
# request bodies: a malformed body is a 4xx, never a 500
# ---------------------------------------------------------------------------

_TMA_COUNTS = {
    "cpu_clk_unhalted.thread": 1000.0,
    "inst_retired.any": 800.0,
    "uops_issued.any": 1000.0,
    "uops_retired.retire_slots": 900.0,
    "idq_uops_not_delivered.core": 400.0,
    "int_misc.recovery_cycles": 20.0,
}
_COLUMNS = {
    "metrics": ["m.0", "m.1"],
    "time": [1.0, 2.0],
    "work": [2.0, 6.0],
    "metric_count": [1.0, 1.5],
}
_RECORD = {"metric": "m.0", "time": 1.0, "work": 2.0, "metric_count": 1.0}
_HUGE = int("9" * 401)  # a JSON integer past the float range

# Any JSON value a client might put in place of a field: NaN and
# Infinity (which Python's json reads), strings, null, nested arrays and
# objects, integers past the float range and numeric strings.
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=8,
)
_json_any = _json_values | st.sampled_from([_HUGE, -_HUGE, "nan", "1.5"])
# Valid but unbounded: sums of these can overflow float64.
_positive = st.floats(min_value=1e-3, max_value=1e308)


def _slots(value) -> "list[tuple[object, object]]":
    """Every (container, key) pair inside a JSON value."""
    if isinstance(value, dict):
        items = list(value.items())
    elif isinstance(value, list):
        items = list(enumerate(value))
    else:
        return []
    return [(value, key) for key, _ in items] + [
        slot for _, child in items for slot in _slots(child)
    ]


@st.composite
def _fuzz_bodies(draw):
    """A well-formed body with up to three fields replaced or deleted.

    A replacement is any JSON value, so a column can become a scalar, an
    object, a string, ``null``, a huge integer, ``NaN`` or a nested
    array, and so can any record field, count or element.
    """
    rows = draw(st.lists(
        st.tuples(st.sampled_from(METRICS), _positive, _positive, _positive),
        max_size=3,
    ))
    body = {"model": draw(st.sampled_from(["demo", "ghost"]))}
    if draw(st.booleans()):
        body["columns"] = {
            field: [row[index] for row in rows]
            for index, field in enumerate(
                ("metrics", "time", "work", "metric_count")
            )
        }
    else:
        body["samples"] = [
            {"metric": m, "time": t, "work": w, "metric_count": c}
            for m, t, w, c in rows
        ]
        body["screen"] = draw(st.booleans())
    if draw(st.booleans()):
        body["counts"] = {
            event: draw(st.floats(min_value=1.0, max_value=1e308))
            for event in _TMA_COUNTS
        }
    for _ in range(draw(st.integers(0, 3))):
        slots = _slots(body)
        if not slots:
            break
        container, key = draw(st.sampled_from(slots))
        if isinstance(container, dict) and draw(st.booleans()):
            del container[key]
        else:
            container[key] = draw(_json_any)
    return body


@pytest.fixture(scope="module")
def dispatch(model, tmp_path_factory):
    """POST a JSON body through ``SpireServer._dispatch`` (batching on)."""
    from repro.serve.server import _Request

    server = _demo_server(tmp_path_factory.mktemp("bodies"), model)
    loop = asyncio.new_event_loop()

    def post(path, body):
        if not isinstance(body, bytes):
            body = json.dumps({"model": "demo", **body}).encode()
        request = _Request(
            "POST", path, {}, {"content-type": "application/json"}, body
        )
        return loop.run_until_complete(server._dispatch(request))

    yield post
    server.batcher.close()
    loop.close()


class TestRequestBodies:
    @pytest.mark.parametrize(
        "body",
        [
            {"columns": {**_COLUMNS, "metrics": 5}},
            {"columns": {**_COLUMNS, "metrics": {"m.0": 1, "m.1": 2}}},
            {"columns": {**_COLUMNS, "time": ["x", 2.0]}},
            {"columns": {**_COLUMNS, "time": [_HUGE, 2.0]}},
            {"columns": {**_COLUMNS, "time": [[1.0], [2.0]]}},
            {"samples": [1, 2]},
            {"samples": [1, 2], "screen": True},
            {"samples": [{**_RECORD, "time": "x"}]},
            {"samples": [{**_RECORD, "time": _HUGE}]},
            {"samples": [{**_RECORD, "time": _HUGE}], "screen": True},
            b"[" * 100_000,
            b'{"model": "demo", "samples": [{"time": ' + b"1" * 5000 + b"}]}",
        ],
        ids=[
            "columns-scalar", "columns-object", "columns-non-numeric",
            "columns-huge-int", "columns-nested", "samples-not-objects",
            "samples-not-objects-screened", "record-non-numeric",
            "record-huge-int", "record-huge-int-screened", "json-too-deep",
            "json-int-past-digit-limit",
        ],
    )
    def test_malformed_body_answers_400(self, dispatch, body):
        response = dispatch("/v1/estimate", body)
        assert response.status == 400, response.payload

    @pytest.mark.parametrize(
        "counts",
        [
            {k: v for k, v in _TMA_COUNTS.items() if k != "inst_retired.any"},
            {**_TMA_COUNTS, "cpu_clk_unhalted.thread": 0.0},
            {**_TMA_COUNTS, "cpu_clk_unhalted.thread": "1000"},
            {k: math.nan for k in _TMA_COUNTS},
            {**_TMA_COUNTS, "int_misc.recovery_cycles": 1e308},
        ],
        ids=[
            "missing-event", "zero-cycles", "string-cycles", "all-nan",
            "overflowing",
        ],
    )
    def test_bad_counts_answer_400(self, dispatch, counts):
        response = dispatch(
            "/v1/analyze", {"columns": _COLUMNS, "counts": counts}
        )
        assert response.status == 400, response.payload

    @pytest.mark.parametrize("path", ["/v1/estimate", "/v1/analyze"])
    def test_samples_whose_sums_overflow_answer_422(self, dispatch, path):
        columns = {**_COLUMNS, "time": [1e308, 1e308], "work": [1e308, 1e308]}
        response = dispatch(path, {"columns": columns})
        assert response.status == 422, response.payload

    def test_overflowing_request_leaves_health_ok(self, model, tmp_path):
        from repro.serve.server import _Request

        server = _demo_server(tmp_path, model)
        columns = {**_COLUMNS, "time": [1e308, 1e308], "work": [1e308, 1e308]}
        body = json.dumps({"model": "demo", "columns": columns}).encode()
        requests = [
            _Request("POST", path, {}, {"content-type": "application/json"},
                     body)
            for path in ("/v1/estimate", "/v1/analyze")
        ] + [_Request("GET", "/health", {}, {}, b"")]

        async def run():
            try:
                return [await server._dispatch(r) for r in requests]
            finally:
                server.batcher.close()

        *answers, health = asyncio.run(run())
        assert [answer.status for answer in answers] == [422, 422]
        assert health.payload["ok"], health.payload["render"]

    def test_overflowing_measured_throughput_is_null(self, dispatch):
        columns = {
            "metrics": ["m.0"], "time": [1e-308], "work": [1e308],
            "metric_count": [1e-300],
        }
        response = dispatch("/v1/analyze", {"columns": columns})
        assert response.status == 200, response.payload
        assert response.payload["measured_throughput"] is None
        json.dumps(response.payload, allow_nan=False)

    def test_valid_counts_get_a_drilldown(self, dispatch):
        response = dispatch(
            "/v1/analyze", {"columns": _COLUMNS, "counts": _TMA_COUNTS}
        )
        assert response.status == 200, response.payload
        assert response.payload["tma"]["main_bottleneck"]

    @given(path=st.sampled_from(["/v1/estimate", "/v1/analyze"]),
           body=_fuzz_bodies())
    @settings(max_examples=300, deadline=None)
    def test_fuzzed_json_body_answers_4xx_or_valid_json(
        self, dispatch, path, body
    ):
        response = dispatch(path, json.dumps(body).encode())
        assert response.status in (200, 400, 404, 422), response.payload
        if response.status == 200:
            json.dumps(response.payload, allow_nan=False)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestServeCli:
    def test_serve_runs_and_exits(self, model, tmp_path, capsys):
        from repro.cli import main

        save_model(model, tmp_path / "demo.json")
        code = main(
            [
                "serve",
                "--model", f"demo={tmp_path / 'demo.json'}",
                "--store-dir", str(tmp_path / "store"),
                "--port", "0",
                "--max-runtime", "0.3",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "installed model 'demo'" in out
        assert "serving 1 model(s)" in out

    def test_serve_exits_2_on_a_bad_guard_setting(
        self, model, tmp_path, monkeypatch, capsys
    ):
        from repro.cli import main

        save_model(model, tmp_path / "demo.json")
        with monkeypatch.context() as patch:
            patch.setenv("SPIRE_GUARD_RATE", "-1")
            code = main(
                [
                    "serve",
                    "--model", f"demo={tmp_path / 'demo.json'}",
                    "--port", "0",
                    "--max-runtime", "0.3",
                ]
            )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.splitlines() == [
            "error: SPIRE_GUARD_RATE cannot be negative, got -1"
        ]
        assert "serving" not in captured.out

    def test_serve_rejects_malformed_model_spec(self, tmp_path, capsys):
        from repro.cli import main

        code = main(
            ["serve", "--model", "nope", "--store-dir", str(tmp_path)]
        )
        assert code == 2
        assert "name=path.json" in capsys.readouterr().err

    def test_doctor_probe_unreachable_server_fails_cleanly(self, capsys):
        from repro.cli import main

        code = main(["doctor", "--serve-url", "http://127.0.0.1:9"])
        assert code == 2
        assert "cannot probe server" in capsys.readouterr().err
