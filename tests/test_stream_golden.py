"""Golden digests of the stream ingestor's output.

The drift tests assert the ladder's shape (who is refuted, who stays
bit-identical), and perfbench compares each stream op against a
``SPIRE_SCALAR_FALLBACK=1`` pass, but a change that moves both paths
the same way (a slack, a comparison, a window boundary, a screen) can
pass both.  These digests pin the absolute output of a few seeded
``perf stat -x,`` streams, fed in chunks cut mid-line:

- the drift events, in order;
- the served model's ``to_dict(include_training=True)``;
- ``report().to_dict()``, the quality report's entries in order and the
  text of every ``DegradedDataWarning``;
- the phase profile, one entry per window the model could estimate.

The streams carry ``<not counted>``, negative and infinite counts,
truncated lines, out-of-order and ``nan`` timestamps and intervals
missing ``cycles``.  Two run against a trained model (absorb, refit,
quarantine and stale events), one without (warm-up).  Each is checked
on the default path and under ``SPIRE_SCALAR_FALLBACK=1``.

The same streams also hold each window's phase estimate, which reuses
its drift check's row bounds, to a fresh ``packed_estimate`` of the
window, bit for bit.
"""

from __future__ import annotations

import hashlib
import json
import random
import warnings

import numpy as np
import pytest

from repro.core.ensemble import SpireModel, TrainOptions, packed_estimate
from repro.core.sample import Sample, SampleSet
from repro.errors import DegradedDataWarning, FitError
from repro.guard import reset_guards
from repro.stream import DriftPolicy, StreamIngestor, StreamOptions, ingest

#: Metric name -> slope of the bound ``slope * I`` its samples sit under.
SLOPES = {
    "l1d.miss": 0.05,
    "llc.miss": 0.02,
    "br.misp": 0.01,
    "tlb.walk": 0.004,
    "div.active": 0.2,
    "fe.stall": 0.5,
    "uop.cache": 0.08,
    "rare.event": 0.03,
}

#: Share of intervals a metric shows up in (every other metric: all).
SPARSE = {"rare.event": 0.12, "div.active": 0.7}

#: The metric the trained models lack.
UNTRAINED = "tlb.walk"

#: Events, model and phases were taken before the stream's columnar
#: paths existed.  The report digests also pin the quarantine of
#: ``nan``-stamped intervals, whose rows never reach a window, and a
#: quality report that counts each sample and each quarantined line
#: once (``kept`` is the rows the windows received).
GOLDEN = {
    "model": {
        "events": (
            "bb1e7e3f62cfb7f4d4bdbf2152d2e49f"
            "1916b1eead94eab27b415e3b88e5ac4b"
        ),
        "model": (
            "d33f07a0c8a2056b45800b78e0cac49e"
            "bca197bcab457cc6540eaca643741a7f"
        ),
        "report": (
            "91091874243ef6e4127241a20e23e4cd"
            "9db6246d5f36494dccad9db7a7d3a837"
        ),
        "phases": (
            "c5fa70d141f9be11c817c245f7e6aa1e"
            "2742d0a193650c8f359e018c90e5a1a1"
        ),
    },
    "quarantine": {
        "events": (
            "59a301ab42974d504f824e2bd1c48464"
            "fe5b6a6d7050dc580f33b60ccc1aeee2"
        ),
        "model": (
            "83e19160f8f21bba3c5473227097f6dc"
            "7ccb7c47b74dfb02c6b359b667aa7fd3"
        ),
        "report": (
            "f49873df2603f776cbd2e2372517a092"
            "4e9f1a4a40db9e1385149a17047ade1e"
        ),
        "phases": (
            "d2bfde45abeccd008054745a79698097"
            "ac4682e051b3d3d528cad037273c833b"
        ),
    },
    "warmup": {
        "events": (
            "803bd52d4874c995ac736af7fbd01789"
            "7326d9a50e110bfb7c470760e46c16b9"
        ),
        "model": (
            "efeb64f23a557f0f9d34db8a3d45616c"
            "72f586f15912a5684c89ee5d819301ec"
        ),
        "report": (
            "40e2b23f76d0d5276cf9240f46ea4571"
            "8dd5f52904ee40732e4934260e868f7f"
        ),
        "phases": (
            "5b823a23edc62a5a905a461a85d0015e"
            "c1e693dddf19c8cc1658114d1282bd05"
        ),
    },
}


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _intervals(rng: random.Random, count: int) -> list[tuple]:
    """Roofline-shaped ``(time, work, [(metric, count), ...])`` intervals."""
    intervals = []
    for _ in range(count):
        time = float(rng.randint(200_000, 900_000))
        work = float(round(rng.uniform(0.2, 3.4) * time))
        rows = []
        for metric, slope in SLOPES.items():
            if rng.random() >= SPARSE.get(metric, 1.0):
                continue
            # An intensity whose bound slope * x sits above the
            # interval's throughput, now and then below it.
            floor = (work / time) / slope
            x = floor * rng.uniform(1.0, 6.0)
            if rng.random() < 0.08:
                x = floor * rng.uniform(0.3, 1.0)
            count = float(max(0, round(work / x)))
            if rng.random() < 0.02:
                count = 0.0  # the metric never fired: I = inf
            rows.append((metric, count))
        intervals.append((time, work, rows))
    return intervals


def _render(rng: random.Random, intervals: list[tuple], victims: dict) -> str:
    """``perf stat -x, -I`` text of ``intervals``, with faults.

    ``victims`` maps a metric to ``(first interval, factor)``: from that
    interval on, the metric moves to an interval of its own with work
    and count scaled by ``factor`` (same intensity, higher throughput).
    """
    lines: list[str] = ["# started on a seeded synthetic host", ""]

    def emit(prefix, work, time, rows, drop_cycles=False):
        lines.append(f"{prefix},{work!r},,instructions,1000000,100.00,,")
        if not drop_cycles:
            lines.append(f"{prefix},{time!r},,cycles,1000000,100.00,,")
        for metric, count in rows:
            roll = rng.random()
            if roll < 0.01:
                value = "<not counted>"
            elif roll < 0.015:
                value = repr(-count - 1.0)
            elif roll < 0.02:
                value = "inf"
            else:
                value = repr(count)
            lines.append(f"{prefix},{value},,{metric},250000,25.00,,")
        if rng.random() < 0.01:
            lines.append(f"{prefix},17,,")  # truncated record
        if rng.random() < 0.01:
            lines.append(f"{prefix},17,,,250000,25.00,,")  # no event name

    stamp = 0.0
    for index, (time, work, rows) in enumerate(intervals):
        stamp += 1.0
        shared, drifted = [], []
        for metric, count in rows:
            start, factor = victims.get(metric, (None, 1.0))
            if start is not None and index >= start:
                drifted.append((metric, count, factor))
            else:
                shared.append((metric, count))
        roll = rng.random()
        if roll < 0.02:
            # A delayed interval, arriving behind a newer one.
            emit(f"{stamp - 1.5:.6f}", work, time, shared)
        elif roll < 0.03:
            emit("nan", work, time, shared)
        else:
            emit(f"{stamp:.6f}", work, time, shared, drop_cycles=roll > 0.98)
        for metric, count, factor in drifted:
            stamp += 1.0
            emit(f"{stamp:.6f}", work * factor, time, [(metric, count * factor)])
    return "\n".join(lines) + "\n"


def _chunks(rng: random.Random, text: str) -> list[str]:
    chunks, cursor = [], 0
    while cursor < len(text):
        size = rng.randint(40, 400)
        chunks.append(text[cursor:cursor + size])
        cursor += size
    return chunks


def _model(intervals: list[tuple]) -> SpireModel:
    """A model of ``intervals`` without one metric, which the stream owns."""
    return SpireModel.train(
        SampleSet(
            Sample(metric, time, work, count)
            for time, work, rows in intervals
            for metric, count in rows
            if metric != UNTRAINED
        )
    )


#: Each stream replays the first ``trained`` of its 300 intervals, which
#: its model (if any) was trained on, then goes on with fresh ones.
SCENARIOS = {
    # Absorbs, and refits of a dense metric drifting x4.  The other
    # victim's replayed samples sit 3e-7 above their own bound: inside
    # the default slack, so they must not count as violations.
    "model": dict(
        seed=11,
        trained=120,
        victims={"l1d.miss": (0, 1.0 + 3e-7), "llc.miss": (140, 4.0)},
        options=StreamOptions(window_samples=96),
    ),
    # No slack, so a replayed sample exactly on its bound must not count
    # as a violation; one refit allowed, a one-window refit history and
    # a high serving floor: the sparse victim is quarantined and the
    # dense ones go stale.
    "quarantine": dict(
        seed=12,
        trained=120,
        victims={"rare.event": (90, 4.0), "br.misp": (150, 3.0),
                 "fe.stall": (200, 9.0)},
        options=StreamOptions(
            window_samples=80,
            policy=DriftPolicy(tolerance=0.0, min_violations=1,
                               max_refits=1, refit_history=1),
            train=TrainOptions(min_samples_per_metric=12),
        ),
    ),
    # No model: every metric is stream-owned, checks start after warm-up.
    "warmup": dict(
        seed=13,
        trained=None,
        victims={"uop.cache": (160, 4.0)},
        options=StreamOptions(window_samples=64, warmup_windows=3),
    ),
}


def run_stream(name: str) -> dict:
    """Feed one scenario's chunks and return what it produced."""
    spec = SCENARIOS[name]
    rng = random.Random(f"stream:{spec['seed']}")
    intervals = _intervals(rng, 300)
    text = _render(rng, intervals, spec["victims"])
    trained = spec["trained"]
    model = _model(intervals[:trained]) if trained else None
    ingestor = StreamIngestor(model=model, options=spec["options"])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for chunk in _chunks(rng, text):
            ingestor.push_perf(chunk)
        ingestor.flush()
        ingestor.seal_window()
        ingestor.seal_window()  # nothing pending: a stalled window
    report = ingestor.report()
    try:
        served = ingestor.model().to_dict(include_training=True)
    except FitError:
        served = None
    quality = report.quality
    return {
        "events": [
            [e.metric, e.window, e.action, e.violations, e.samples,
             e.worst_excess, e.detail]
            for e in ingestor.events
        ],
        "model": served,
        "report": [
            report.to_dict(),
            quality.total,
            quality.kept,
            [[q.metric, q.reason, q.time, q.work, q.metric_count]
             for q in quality.quarantined],
            [str(w.message) for w in caught
             if issubclass(w.category, DegradedDataWarning)],
        ],
        "phases": [
            [p.index, p.throughput_bound, p.limiting_metric,
             p.measured_throughput, p.sample_count]
            for p in (report.phases.phases if report.phases else [])
        ],
    }


def stream_digests(name: str) -> dict[str, str]:
    return {key: _digest(value) for key, value in run_stream(name).items()}


@pytest.fixture(params=["default", "scalar_fallback"])
def path(request, monkeypatch):
    if request.param == "scalar_fallback":
        monkeypatch.setenv("SPIRE_SCALAR_FALLBACK", "1")
    else:
        monkeypatch.delenv("SPIRE_SCALAR_FALLBACK", raising=False)
    reset_guards()
    yield request.param
    reset_guards()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_stream_output_matches_golden(name, path):
    assert stream_digests(name) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_phase_estimates_equal_fresh_packed_estimates(name, monkeypatch):
    """A seal's phase estimate reuses the bounds its drift check took
    against the opening model and evaluates only the rows whose served
    roofline the seal changed.  Each must still be ``packed_estimate`` of
    the window under the model served after the seal, evaluated afresh,
    bit for bit."""
    monkeypatch.delenv("SPIRE_SCALAR_FALLBACK", raising=False)
    served = []
    compared = []
    mixed = 0  # seals whose estimate both reused and evaluated served rows
    observe = StreamIngestor._observe_phase

    def observing(self, index, window, bounds):
        nonlocal mixed
        try:
            model = self.model()
        except FitError:
            model = None
        served.append(model)
        if model is not None:
            array = window.columns()
            live = np.asarray(
                [name in model for name in array.metric_names]
            )[array.metric_ids]
            known = ~np.isnan(bounds)
            mixed += (live & known).any() and (live & ~known).any()
        observe(self, index, window, bounds)

    def estimating(model, samples, bounds=None):
        assert model is served[-1]
        estimate = packed_estimate(model, samples, bounds)
        compared.append((estimate, packed_estimate(model, samples)))
        return estimate

    monkeypatch.setattr(StreamIngestor, "_observe_phase", observing)
    monkeypatch.setattr(ingest, "packed_estimate", estimating)
    phases = run_stream(name)["phases"]

    def bits(estimate):
        return (
            [(m, v.hex()) for m, v in estimate.per_metric.items()],
            estimate.sample_counts,
            estimate.skipped_metrics,
        )

    assert len(compared) == len(phases) > 0
    for (estimate, fresh), phase in zip(compared, phases):
        assert bits(estimate) == bits(fresh)
        assert phase[1:3] == [fresh.throughput, fresh.limiting_metric]
    if SCENARIOS[name]["trained"]:
        # Some seal served a refit beside rooflines whose bounds it kept.
        assert mixed
