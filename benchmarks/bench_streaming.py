"""Streaming bench: per-sample refit of the touched metric vs full retrain.

``repro.stream.incremental`` keeps each metric's points and refits only
the metrics a sample touched, with the batch fit over that metric's
points, so a live stream keeps every roofline current without re-paying
``SpireModel.train`` per sample.  This bench measures that on a
synthetic multi-metric stream:

- **parity gate** (always asserted, every scale): after streaming every
  sample with a refit after each one, each served roofline's
  ``to_dict(include_training=True)`` equals a one-shot batch train over
  the identical records;
- **update cost**: the amortized per-sample cost of the stream loop
  (insert + refit of the touched metric) against one full batch retrain —
  the price a deployment would otherwise pay to fold that sample in.
  The ``>= 10x`` gate is asserted at full scale only; wall-clock ratios
  at toy scale are noise (see ``bench_pipeline``).

Results land in ``BENCH_streaming.json``.

Environment knobs:

- ``SPIRE_BENCH_STREAM_FULL=0`` — skip the full-scale measurement (CI).
"""

from __future__ import annotations

import json
import os
import random
import time

from conftest import write_artifact

from repro.core import SampleSet, SpireModel
from repro.core.ensemble import TrainOptions
from repro.core.roofline import RooflineFitOptions
from repro.stream.incremental import OnlineSpire

# Training-point retention is a plotting convenience; a live stream keeps
# the raw log elsewhere.  Both paths run with the same options, so the
# parity gate still covers the full fit surface.
OPTIONS = TrainOptions(
    roofline=RooflineFitOptions(keep_samples=False),
    min_samples_per_metric=1,
)


def synth_stream(metrics: int, samples: int, seed: int = 2025) -> list[dict]:
    """A roofline-shaped multi-metric sample log with occasional I=inf."""
    rng = random.Random(seed)
    names = [f"metric.{i:03d}" for i in range(metrics)]
    peaks = {name: 2.0 + (i % 13) for i, name in enumerate(names)}
    records = []
    for _ in range(samples):
        metric = rng.choice(names)
        peak = peaks[metric]
        x = rng.uniform(0.25, 256.0)
        y = min(x, peak) * rng.uniform(0.3, 1.0)
        time_v = rng.uniform(1.0, 8.0)
        work = y * time_v
        count = 0.0 if rng.random() < 0.02 else work / x
        records.append(
            {
                "metric": metric,
                "time": time_v,
                "work": work,
                "metric_count": count,
            }
        )
    return records


def _stream_pass(records: list[dict]) -> tuple[OnlineSpire, float]:
    """Insert + refresh per sample: the strictest live-update loop."""
    online = OnlineSpire(options=OPTIONS)
    started = time.perf_counter()
    for r in records:
        online.insert(
            r["metric"], time=r["time"], work=r["work"],
            metric_count=r["metric_count"],
        )
        online.refresh()
    return online, time.perf_counter() - started


def _batch_pass(records: list[dict]) -> tuple[SpireModel, float]:
    pooled = SampleSet.from_records(records)
    started = time.perf_counter()
    model = SpireModel.train(pooled, options=OPTIONS)
    return model, time.perf_counter() - started


def _assert_parity(online: OnlineSpire, batch: SpireModel) -> None:
    streamed = online.model()
    assert set(streamed.metrics) == set(batch.metrics)
    for metric in batch.metrics:
        got = streamed.roofline(metric).to_dict(include_training=True)
        want = batch.roofline(metric).to_dict(include_training=True)
        assert got == want, f"stream/batch divergence on {metric}"


def _measure(metrics: int, samples: int, repeats: int = 3) -> dict:
    records = synth_stream(metrics, samples)

    stream_times, batch_times = [], []
    for _ in range(repeats):
        online, stream_s = _stream_pass(records)
        stream_times.append(stream_s)
    for _ in range(repeats):
        batch_model, batch_s = _batch_pass(records)
        batch_times.append(batch_s)
    _assert_parity(online, batch_model)

    stream_s = min(stream_times)
    batch_s = min(batch_times)
    per_sample_s = stream_s / len(records)
    return {
        "metrics": metrics,
        "samples": samples,
        "stream_total_s": round(stream_s, 4),
        "stream_per_sample_us": round(per_sample_s * 1e6, 2),
        "batch_retrain_s": round(batch_s, 4),
        "speedup_per_sample": round(batch_s / per_sample_s, 1),
    }


def test_streaming_update_cost():
    run_full = os.environ.get("SPIRE_BENCH_STREAM_FULL", "1") != "0"
    payload = {"small": _measure(metrics=12, samples=1_500)}
    if run_full:
        payload["full"] = _measure(metrics=60, samples=20_000)
        # The point of refitting only the touched metric: folding one
        # sample in must beat re-paying the batch train by an order of
        # magnitude.
        assert payload["full"]["speedup_per_sample"] >= 10.0
    else:
        payload["full"] = "skipped (SPIRE_BENCH_STREAM_FULL=0)"

    text = json.dumps(payload, indent=2, sort_keys=True)
    print(text)
    write_artifact("BENCH_streaming.json", text)
