"""Hot-path bench: scalar object loop vs vectorized columnar kernels.

The vectorized data plane (``repro.core.columns`` and the array kernels
behind training and estimation) claims the model-side hot path —
``SpireModel.train`` plus ``SpireModel.estimate`` — without
changing a single result.  This bench measures both claims:

- the scalar reference path (``SPIRE_SCALAR_FALLBACK=1``) and the
  vectorized default are timed on identical sample records, small scale
  and full paper scale;
- the two models must agree breakpoint-for-breakpoint and
  estimate-for-estimate to 1e-9 (they are bit-identical in practice; the
  tolerance only guards future refactors).

Results land in ``BENCH_hotpath.json``.  Speedups are recorded, not
asserted — wall-clock gates flake across hosts (see ``bench_pipeline``);
the CI smoke job runs the small scale purely for the equivalence check.

Environment knobs:

- ``SPIRE_BENCH_HOTPATH_FULL=0`` — skip the full-scale measurement (CI).
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager

from conftest import write_artifact

from repro.core import SampleSet, SpireModel
from repro.guard.dispatch import reset_guards

TOLERANCE = 1e-9


@contextmanager
def scalar_fallback(enabled: bool):
    """Force (or clear) the scalar escape hatch for the enclosed block."""
    previous = os.environ.get("SPIRE_SCALAR_FALLBACK")
    try:
        if enabled:
            os.environ["SPIRE_SCALAR_FALLBACK"] = "1"
        else:
            os.environ.pop("SPIRE_SCALAR_FALLBACK", None)
        yield
    finally:
        if previous is None:
            os.environ.pop("SPIRE_SCALAR_FALLBACK", None)
        else:
            os.environ["SPIRE_SCALAR_FALLBACK"] = previous


@contextmanager
def guard_rate(rate: int | None):
    """Pin the guard sampling rate (``None`` = default) for the block.

    The registry is rebuilt on entry and exit so the rate takes effect
    and the enclosing process returns to its ambient configuration.
    """
    previous = os.environ.get("SPIRE_GUARD_RATE")
    try:
        if rate is None:
            os.environ.pop("SPIRE_GUARD_RATE", None)
        else:
            os.environ["SPIRE_GUARD_RATE"] = str(rate)
        reset_guards()
        yield
    finally:
        if previous is None:
            os.environ.pop("SPIRE_GUARD_RATE", None)
        else:
            os.environ["SPIRE_GUARD_RATE"] = previous
        reset_guards()


def _train_and_estimate(train_records, test_record_sets):
    """One pass over the target calls: ``train`` then ``estimate``.

    Sample sets are rebuilt fresh each pass — outside the timed regions —
    so neither path benefits from the other's per-SampleSet caches
    (``grouped()`` / column caches) and neither pays the records
    round-trip, which only exists in this bench (the pipeline's collector
    emits columns directly).
    """
    pooled = SampleSet.from_records(train_records)
    started = time.perf_counter()
    model = SpireModel.train(pooled)
    train_s = time.perf_counter() - started

    # Estimate over the full training pool (the model's self-consistency
    # pass) plus every testing set — the same mix the pipeline evaluates.
    eval_sets = [SampleSet.from_records(train_records)] + [
        SampleSet.from_records(r) for r in test_record_sets
    ]
    started = time.perf_counter()
    estimates = [model.estimate(eval_set) for eval_set in eval_sets]
    estimate_s = time.perf_counter() - started
    return model, estimates, train_s, estimate_s


def _model_signature(model) -> dict:
    return {
        metric: [
            (bp.x, bp.y) for bp in model.roofline(metric).function.breakpoints
        ]
        for metric in model.metrics
    }


def _assert_equivalent(scalar, vectorized) -> None:
    s_model, s_estimates = scalar
    v_model, v_estimates = vectorized
    s_sig, v_sig = _model_signature(s_model), _model_signature(v_model)
    assert s_sig.keys() == v_sig.keys()
    for metric in s_sig:
        assert len(s_sig[metric]) == len(v_sig[metric]), metric
        for (sx, sy), (vx, vy) in zip(s_sig[metric], v_sig[metric]):
            assert abs(sx - vx) <= TOLERANCE, metric
            assert abs(sy - vy) <= TOLERANCE, metric
    assert len(s_estimates) == len(v_estimates)
    for s_est, v_est in zip(s_estimates, v_estimates):
        assert s_est.per_metric.keys() == v_est.per_metric.keys()
        for metric, value in s_est.per_metric.items():
            assert abs(value - v_est.per_metric[metric]) <= TOLERANCE, metric
        assert s_est.sample_counts == v_est.sample_counts


def _measure(train_records, test_record_sets, repeats: int = 3) -> dict:
    """Best-of-N timings for both paths plus the equivalence check."""
    timings = {}
    models = {}
    for label, enabled in (("scalar", True), ("vectorized", False)):
        train_times, estimate_times = [], []
        with scalar_fallback(enabled):
            for _ in range(repeats):
                model, estimates, train_s, estimate_s = _train_and_estimate(
                    train_records, test_record_sets
                )
                train_times.append(train_s)
                estimate_times.append(estimate_s)
        models[label] = (model, estimates)
        timings[label] = {
            "train_s": round(min(train_times), 4),
            "estimate_s": round(min(estimate_times), 4),
        }
    _assert_equivalent(models["scalar"], models["vectorized"])

    scalar_total = timings["scalar"]["train_s"] + timings["scalar"]["estimate_s"]
    vector_total = (
        timings["vectorized"]["train_s"] + timings["vectorized"]["estimate_s"]
    )
    return {
        "train_samples": len(train_records),
        "estimate_sets": len(test_record_sets) + 1,  # testing + training pool
        **timings,
        "speedup_train": round(
            timings["scalar"]["train_s"] / timings["vectorized"]["train_s"], 2
        ),
        "speedup_estimate": round(
            timings["scalar"]["estimate_s"] / timings["vectorized"]["estimate_s"],
            2,
        ),
        "speedup_total": round(scalar_total / vector_total, 2),
    }


def test_hotpath_scalar_vs_vectorized(experiment, out_dir):
    # Materialize plain record dicts once; both paths ingest the same data.
    train_records = experiment.training_samples.to_records()
    test_record_sets = [
        run.collection.samples.to_records()
        for _, run in sorted(experiment.testing_runs.items())
    ]

    # Small scale: always runs (this is what the CI smoke job executes).
    small = _measure(train_records[:4000], test_record_sets, repeats=3)

    payload = {"cpu_count": os.cpu_count(), "small": small}

    # Full paper scale: every pooled training sample, every testing set.
    if os.environ.get("SPIRE_BENCH_HOTPATH_FULL", "1") != "0":
        payload["full"] = _measure(train_records, test_record_sets, repeats=2)

    text = json.dumps(payload, indent=2)
    print()
    print(text)
    write_artifact("BENCH_hotpath.json", text)
