"""Seeded inputs for the workloads.

Everything the program receives is generated here from the workload
seed, before any timing starts, and written to files the program host
reads.  The same seed always yields byte-identical request bodies and
CSV chunks; the harness tests hold that.
"""

from __future__ import annotations

import itertools
import json
import random
from collections import Counter

import numpy as np

#: Name the serve workload installs its model under.
MODEL = "bench"

#: Body shapes of the serve mix, with their share of the pool.
SERVE_MIX = (("estimate", 30), ("csv", 10), ("analyze", 10))
SERVE_ROWS = (60, 1500)

#: Stream chunk sizes in characters; cuts land mid-line.  A sealed
#: window is about 25,000 characters, so about 2% of chunks seal one and
#: p99 falls in the middle of the sealing chunks, not on their edge.
CHUNK_CHARS = (256, 768)
DRIFT_FACTOR = 4.0
STREAMS = 4


def experiment(seed: int, train_windows: int = 1200, test_windows: int = 600):
    """One simulated evaluation (23 training + 4 testing workloads)."""
    from repro.pipeline import ExperimentConfig, run_experiment

    config = ExperimentConfig(
        seed=seed, train_windows=train_windows, test_windows=test_windows
    )
    return run_experiment(config, jobs=1)


def save_columns(path, samples) -> None:
    """Write a sample set as plain arrays (no pickles)."""
    array = samples.columns()
    np.savez(
        path,
        metric_ids=array.metric_ids,
        metric_names=np.array(array.metric_names, dtype=str),
        time=array.time,
        work=array.work,
        metric_count=array.metric_count,
    )


def load_columns(path):
    """Inverse of :func:`save_columns`: a :class:`SampleSet`."""
    from repro.core.columns import SampleArray
    from repro.core.sample import SampleSet

    with np.load(path) as data:
        array = SampleArray(
            data["metric_ids"],
            [str(name) for name in data["metric_names"]],
            data["time"],
            data["work"],
            data["metric_count"],
        )
    return SampleSet.from_columns(array)


def render_perf(records, victim: str = "", drift_from: int = -1) -> str:
    """Render sample records as ``perf stat -x, -I`` CSV.

    Consecutive records sharing ``time`` and ``work`` (one multiplexing
    window) become one interval.  From record ``drift_from`` on, the
    ``victim`` metric moves to an interval of its own with work and count
    scaled by ``DRIFT_FACTOR``: same intensity, throughput off its bound.
    Floats are written with ``repr`` so parsing restores them exactly.
    """
    lines: list[str] = []
    stamp = 0
    index = 0

    def interval(work, time, rows) -> None:
        nonlocal stamp
        stamp += 1
        prefix = f"{stamp}.000000"
        lines.append(f"{prefix},{work!r},,instructions,1000000,100.00,,")
        lines.append(f"{prefix},{time!r},,cycles,1000000,100.00,,")
        for metric, count in rows:
            lines.append(f"{prefix},{count!r},,{metric},250000,25.00,,")

    for (time, work), group in itertools.groupby(
        records, key=lambda r: (r["time"], r["work"])
    ):
        shared, drifted = [], []
        for record in group:
            row = (record["metric"], record["metric_count"])
            if record["metric"] == victim and 0 <= drift_from <= index:
                drifted.append(row)
            else:
                shared.append(row)
            index += 1
        if shared:
            interval(work, time, shared)
        for metric, count in drifted:
            interval(work * DRIFT_FACTOR, time,
                     [(metric, count * DRIFT_FACTOR)])
    return "\n".join(lines) + "\n"


def stream_inputs(seed: int) -> list[dict]:
    """``STREAMS`` independent streams, each cut from a fresh experiment of
    its own at 1/``STREAMS`` of the training windows.

    Which metrics a stream ends up refitting, and so what its sealing
    chunks cost, turns on its victim, drift point and data; several
    streams per run average that out of ``op_p99_ms``.
    """
    streams = []
    for index in range(STREAMS):
        stream_seed = seed * STREAMS + index
        fresh = experiment(stream_seed + 1_000_003,
                           train_windows=1200 // STREAMS, test_windows=24)
        streams.append(stream_input(fresh, stream_seed))
    return streams


def stream_input(fresh, seed: int) -> dict:
    """Fresh-seed training-workload samples as seeded CSV chunks.

    A seeded victim among the densest metrics drifts from a seeded
    mid-stream record on, which drives the refute -> refit ladder.
    """
    rng = random.Random(f"stream:{seed}")
    records = []
    for run in fresh.training_runs.values():
        records.extend(run.collection.samples.to_records())
    dense = [m for m, _ in sorted(Counter(r["metric"] for r in records)
                                  .items(), key=lambda kv: (-kv[1], kv[0]))]
    victim = rng.choice(dense[:4])
    drift_from = rng.randint(len(records) * 2 // 5, len(records) * 3 // 5)
    text = render_perf(records, victim, drift_from)
    chunks = []
    cursor = 0
    while cursor < len(text):
        size = rng.randint(*CHUNK_CHARS)
        chunks.append(text[cursor:cursor + size])
        cursor += size
    return {"victim": victim, "drift_from": drift_from, "chunks": chunks}


def serve_bodies(result, seed: int) -> list[dict]:
    """A seeded pool of held-out testing-workload slices as request bodies.

    Each entry holds the HTTP path, content type and body bytes plus the
    slice it came from, so a reference answer can be computed from the
    original samples rather than from the body.
    """
    rng = random.Random(f"serve:{seed}")
    names = sorted(result.testing_runs)
    pool = []
    for kind, share in SERVE_MIX:
        # Sizes are evenly spread and workloads taken in turn, so the
        # seed moves which rows a body holds but not how much work it is.
        lo, hi = SERVE_ROWS
        sizes = [lo + (hi - lo) * i // (share - 1) for i in range(share)]
        rng.shuffle(sizes)
        for index, size in enumerate(sizes):
            name = names[index % len(names)]
            run = result.testing_runs[name]
            records = run.collection.samples.to_records()
            rows = min(size, len(records))
            start = rng.randint(0, len(records) - rows)
            chunk = records[start:start + rows]
            entry = {"kind": kind, "workload": name, "start": start,
                     "rows": rows}
            if kind == "csv":
                entry.update(path=f"/v1/estimate?model={MODEL}",
                             content_type="text/csv",
                             body=render_perf(chunk).encode())
            else:
                payload = {
                    "model": MODEL,
                    "columns": {
                        "metrics": [r["metric"] for r in chunk],
                        "time": [r["time"] for r in chunk],
                        "work": [r["work"] for r in chunk],
                        "metric_count": [r["metric_count"] for r in chunk],
                    },
                }
                if kind == "analyze":
                    payload["counts"] = dict(run.collection.full_counts)
                entry.update(path=f"/v1/{kind}",
                             content_type="application/json",
                             body=json.dumps(payload).encode())
            pool.append(entry)
    return pool


def request_order(pool_size: int, seed: int, connection: int):
    """Endless seeded sequence of pool indices for one connection."""
    rng = random.Random(f"order:{seed}:{connection}")
    order = list(range(pool_size))
    while True:
        rng.shuffle(order)
        yield from order
